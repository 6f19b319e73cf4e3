"""Reference exhaustive commutator scan on dense ``MatrixGFp`` matrices.

This is the scan that the Gray-code walk in ``oracle.scan_max_type``
replaced: a recursive assignment of every slot value, one ``MatrixGFp``
per matrix, nilpotency by ``A^n == 0`` and the type from the ranks of
successive powers, computed here rather than by ``oracle.jordan_type``.
It also counts the matrices that fail ``A^n == 0``, the brute-force value
of ``ScanReport.rejected``.  It is slow (a matrix product per power per
matrix) and exists only as a test oracle for ``test_oracle.py``.
"""

from burgebox.gfp import MatrixGFp
from burgebox.oracle import _slot_entries, chain_layout, param_slots
from burgebox.partitions import as_partition, dominates, to_partition


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
            a = MatrixGFp(rows, p)
            if not a.power(n).is_zero():
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
