"""Exact computation around partition codes and nilpotent commutators.

The package ties together five layers:

* ``partitions`` — partitions, frequency sequences, dominance, text forms;
* ``burge`` — the code-word correspondence and the descent map;
* ``oblak`` — the greedy evaluation/annihilation process and its chains;
* ``boxes`` / ``words`` — descent-map fibers as coordinate boxes, and the
  Foata / lattice-path route to diagonal hook lengths;
* ``gfp`` / ``oracle`` — an exact GF(p) matrix oracle that checks the
  combinatorics against actual commuting nilpotent matrices.
"""

from .boxes import (
    coordinates_of,
    delta,
    fiber,
    fiber_code,
    max_parts_partition,
    symmetry_map,
)
from .burge import (
    BurgeChain,
    apply_a,
    apply_b,
    apply_del,
    burge_chain,
    decode,
    descent_map,
    encode,
)
from .gfp import MatrixGFp
from .oblak import (
    OblakChain,
    annihilate,
    check_commuting_square,
    evaluate,
    maximal_indices,
    oblak,
    oblak_all_chains,
)
from .oracle import (
    jordan_type,
    random_commuting,
    restriction_type,
    scan_max_type,
    verify_restriction,
    witness_matrix,
)
from .partitions import (
    as_frequency,
    as_partition,
    dominates,
    format_partition,
    is_super_distinct,
    length,
    parse_partition,
    partitions_of,
    reduced,
    size,
    to_frequency,
    to_partition,
)
from .words import diagonal_hooks, durfee, foata_fiber, path_to_partition

__version__ = "0.1.0"
