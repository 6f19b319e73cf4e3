"""Reference exhaustive commutator scan on dense ``MatrixGFp`` matrices.

This is the scan that the Gray-code walk in ``oracle.scan_max_type``
replaced: a recursive assignment of every slot value, one ``MatrixGFp``
per matrix, nilpotency by ``A^n == 0`` and the type from the ranks of
successive powers, computed here rather than by ``oracle.jordan_type``.
It also counts the matrices that fail ``A^n == 0``.  It is slow (a matrix
product per power per matrix) and exists only as a test oracle for
``test_oracle.py``.

``param_slots``, ``chain_layout`` and ``slot_entries`` list the slot table
slot by slot, as ``oracle._slot_table`` did before it listed the table in
one walk over the chains; ``slot_table`` is that listing.  Its keys are
``ParamSlot`` named tuples, each equal to the plain (i, k, j, l, h) tuple
that keys the same slot in ``oracle``.  ``slot_table(P, reduced=False)``
lists the full commutator algebra, which ``oracle`` only counts, and
``build_commuting`` places any matrix of it, each slot checked alone by
``slot_commutes``.

``int_row_scan`` is the GF(2) Levi walk that the bitsliced scan replaced:
the same leading Jordan forms and Gray walk, one matrix at a time as a list
of int rows, typed by its own loop over ``gf2_rank`` and ``gf2_matmul``.  It
picks the walked slots with ``leading`` and counts the matrices it walks.
"""

from collections import Counter
from itertools import product
from typing import NamedTuple

from burgebox.gfp import MatrixGFp, check_prime
from burgebox.oracle import (
    _gray_walk,
    _jordan_form,
    _placed,
    _slot_table,
    _type_of_ranks,
)
from burgebox.partitions import (
    as_partition,
    dominates,
    format_partition,
    partitions_of,
    to_frequency,
    to_partition,
)
from reference_gfp import gf2_matmul, gf2_rank, is_zero


class ParamSlot(NamedTuple):
    """One free Toeplitz coefficient a_h of the block coupling chains (i,k) -> (j,l).

    a_1 of a block with i = j is an entry of the leading-coefficient matrix A_i.
    """

    i: int
    k: int
    j: int
    l: int
    h: int


def chain_layout(parts):
    """Offsets of the Jordan chains of P: maps (i, k) -> first row index."""
    f = to_frequency(parts)
    layout = {}
    off = 0
    for i in range(len(f), 0, -1):
        for k in range(1, f[i - 1] + 1):
            layout[(i, k)] = off
            off += i
    return layout


def leading(slot):
    """An entry of a same-size leading-coefficient matrix: a_1 with i = j; a plain tuple will do."""
    i, _, j, _, h = slot
    return i == j and h == 1


def param_slots(parts, reduced=True):
    """All Toeplitz coefficient slots of the commutator of B.

    ``reduced=True`` drops the slots forced to zero in the maximal
    nilpotent subalgebra, the upper-and-diagonal entries of the same-size
    leading-coefficient matrices; ``reduced=False`` parameterizes the full
    commutator algebra.
    """
    f = to_frequency(parts)
    supp = [i for i in range(1, len(f) + 1) if f[i - 1]]
    slots = []
    for i in supp:
        for k in range(1, f[i - 1] + 1):
            for j in supp:
                for l in range(1, f[j - 1] + 1):
                    for h in range(1, min(i, j) + 1):
                        slot = ParamSlot(i, k, j, l, h)
                        if reduced and leading(slot) and k <= l:
                            continue
                        slots.append(slot)
    return slots


def slot_entries(slot, layout):
    """Matrix positions carrying the coefficient a_h of a block.

    Within the block, a_h lives on the diagonal at column offset
    h - 1 + max(0, j - i) from the row position.
    """
    r0 = layout[(slot.i, slot.k)]
    c0 = layout[(slot.j, slot.l)]
    shift = slot.h - 1 + max(0, slot.j - slot.i)
    return [
        (r0 + r, c0 + r + shift)
        for r in range(slot.i)
        if r + shift < slot.j
    ]


def slot_table(parts, reduced=True):
    """Each slot of ``param_slots(P, reduced)``, in order, mapped to its ``slot_entries``."""
    layout = chain_layout(parts)
    return {s: slot_entries(s, layout) for s in param_slots(parts, reduced)}


def slot_commutes(parts, entries):
    """Whether the 0/1 pattern E at ``entries`` alone commutes with B of type P.

    B sends basis vector r + 1 to r within a chain, so EB has its ones at
    (r, c + 1) and BE at (r - 1, c), each kept only inside a chain.
    """
    layout = chain_layout(parts)
    starts = set(layout.values()) | {sum(parts)}
    eb = {(r, c + 1) for r, c in entries if c + 1 not in starts}
    be = {(r - 1, c) for r, c in entries if r not in starts}
    return eb == be


def build_commuting(parts, p, values):
    """Assemble a matrix of the full commutator algebra from slot -> coefficient assignments.

    Every slot of ``slot_table(P, reduced=False)`` is checked to commute with B
    alone, and no two to share an entry.  Raises ValueError for a key that is
    not a slot of P.
    """
    pt = as_partition(parts)
    check_prime(p)
    table = slot_table(pt, reduced=False)
    entries = [rc for es in table.values() for rc in es]
    assert len(set(entries)) == len(entries), "two slots share an entry"
    assert all(slot_commutes(pt, es) for es in table.values()), "a slot does not commute with B"
    if bad := [s for s in values if s not in table]:
        raise ValueError(f"{bad[0]} is not a slot of {format_partition(pt)}")
    # values are reduced mod p by MatrixGFp
    return MatrixGFp(_placed(sum(pt), [(table[s], v) for s, v in values.items()]), p)


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
    entries = [slot_entries(s, layout) for s in slots]
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


def int_row_scan(parts):
    """(scanned, histogram) of the GF(2) Levi walk, one matrix at a time on int rows."""
    pt = as_partition(parts)
    n = sum(pt)
    f = to_frequency(pt)
    table = _slot_table(pt)
    forms = [
        [[rc for s in _jordan_form(i, lam) for rc in table[s]] for lam in partitions_of(m)]
        for i, m in enumerate(f, 1)
        if m
    ]
    walked = [[(r, 1 << c) for r, c in es] for s, es in table.items() if not leading(s)]
    keys, scanned = Counter(), 0
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
            scanned += 1
    histogram = dict(sorted(((_type_of_ranks(k), c) for k, c in keys.items()), reverse=True))
    return scanned, histogram
