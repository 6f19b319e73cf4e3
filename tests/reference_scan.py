"""Reference exhaustive commutator scan on dense ``MatrixGFp`` matrices.

This is the scan that the Gray-code walk in ``oracle.scan_max_type``
replaced: a recursive assignment of every slot value, one ``MatrixGFp``
per matrix, nilpotency by ``A^n == 0`` and the type from the ranks of
successive powers, computed here rather than by ``oracle.jordan_type``.
It also counts the matrices that fail ``A^n == 0``.  It is slow (a matrix
product per power per matrix) and exists only as a test oracle for
``test_oracle.py``.

``int_row_scan`` is the GF(2) Levi walk that the bitsliced scan replaced:
the same leading Jordan forms and Gray walk, one matrix at a time as a list
of int rows, typed by its own loop over ``gf2_rank`` and ``gf2_matmul``.
"""

from collections import Counter
from itertools import product

from burgebox.gfp import MatrixGFp
from burgebox.oracle import (
    _gray_walk,
    _jordan_form,
    _placed,
    _scan_size,
    _slot_entries,
    _slot_table,
    _type_of_ranks,
    chain_layout,
    param_slots,
)
from burgebox.partitions import (
    as_partition,
    dominates,
    partitions_of,
    to_frequency,
    to_partition,
)
from reference_gfp import gf2_matmul, gf2_rank, is_zero


def jordan_type(m):
    """Jordan type of a nilpotent MatrixGFp from the ranks r_k of its powers.

    Block size k occurs r_{k-1} - 2 r_k + r_{k+1} times, with r_0 = n.
    """
    n = m.nrows
    ranks = [n]
    power = m
    while ranks[-1] > 0:
        if len(ranks) > n:
            raise ValueError("matrix is not nilpotent")
        ranks.append(power.rank())
        power = power @ m
    ranks.append(0)
    return to_partition(
        ranks[k - 1] - 2 * ranks[k] + ranks[k + 1] for k in range(1, len(ranks) - 1)
    )


def reference_scan(parts, p=2, budget=2**24, mode="auto"):
    """(mode, scanned, rejected, types, max_type) of the exhaustive scan."""
    pt = as_partition(parts)
    n = sum(pt)
    full_count = len(param_slots(pt, reduced=False))
    if mode == "auto":
        mode = "full" if p**full_count <= budget else "reduced"
    slots = param_slots(pt, reduced=(mode == "reduced"))
    assert p ** len(slots) <= budget
    layout = chain_layout(pt)
    entries = [_slot_entries(s, layout) for s in slots]
    types = set()
    scanned = rejected = 0

    def assign(idx, rows):
        nonlocal scanned, rejected
        if idx == len(slots):
            scanned += 1
            a = power = MatrixGFp(rows, p)
            for _ in range(n - 1):
                power = power @ a
            if not is_zero(power):
                assert mode == "full", "reduced-mode matrix is not nilpotent"
                rejected += 1
                return
            types.add(jordan_type(a))
            return
        for v in range(p):
            for r, c in entries[idx]:
                rows[r][c] = v
            assign(idx + 1, rows)
        for r, c in entries[idx]:
            rows[r][c] = 0

    if n == 0:
        types.add(())
        scanned = 1
    else:
        assign(0, [[0] * n for _ in range(n)])

    ordered = sorted(types, reverse=True)
    max_type = next(
        (t for t in ordered if all(dominates(t, s) for s in ordered)), None
    )
    return mode, scanned, rejected, ordered, max_type


def int_row_scan(parts, budget=2**24):
    """(scanned, histogram) of the GF(2) Levi walk, one matrix at a time on int rows."""
    pt = as_partition(parts)
    n = sum(pt)
    f = to_frequency(pt)
    scanned = _scan_size(f, 2, budget)
    table = _slot_table(pt)
    forms = [
        [[rc for s in _jordan_form(i, lam) for rc in table[s]] for lam in partitions_of(m)]
        for i, m in enumerate(f, 1)
        if m
    ]
    walked = [[(r, 1 << c) for r, c in es] for s, es in table.items() if not s.leading]
    keys = Counter()
    for lead in product(*forms):
        rows = _placed(n, [(es, 1) for es in lead])
        rows = [sum(x << c for c, x in enumerate(row)) for row in rows]
        for y in _gray_walk(len(walked), 2):
            if y is not None:
                for r, bit in walked[y]:
                    rows[r] ^= bit
            ranks, power = [n], rows
            while ranks[-1]:
                assert len(ranks) <= n, "scanned matrix is not nilpotent"
                ranks.append(gf2_rank(power))
                power = gf2_matmul(power, rows)
            keys[tuple(ranks)] += 1
    histogram = dict(sorted(((_type_of_ranks(k), c) for k, c in keys.items()), reverse=True))
    return scanned, histogram
