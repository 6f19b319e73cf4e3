import dataclasses
import itertools
import math
import random
import re

import pytest

from burgebox import oracle
from burgebox.burge import apply_del
from burgebox.gfp import MatrixGFp
from burgebox.oracle import (
    _dominance_max,
    _slot_count,
    _type_of_ranks,
    jordan_type,
    random_commuting,
    restriction_type,
    scan_max_type,
    verify_restriction,
    witness_matrix,
)
from burgebox.partitions import (
    dominates,
    format_partition,
    partitions_of,
    to_frequency,
    to_partition,
)
from burgebox.sweep import SWEEP_BUDGET_US, SweepConfig, dominance_cost
from reference_gfp import dense_power, identity, is_zero, jordan_matrix
from reference_scan import (
    ParamSlot,
    build_commuting,
    chain_layout,
    int_row_scan,
    leading,
    param_slots,
    reference_scan,
    slot_commutes,
    slot_table,
)

P_BIG = (4, 4, 3, 2, 2)


def del_partition(p):
    return to_partition(apply_del(to_frequency(p)))


def random_invertible(n, p, rng):
    while True:
        m = MatrixGFp([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        if m.rank() == n:
            return m


def is_nilpotent(m):
    return is_zero(dense_power(m, m.nrows))


def nullity_jordan_type(m):
    # independent route: block count of size >= k is null(M^k) - null(M^(k-1))
    n = m.nrows
    nulls = [0]
    power = identity(n, m.p)
    while nulls[-1] < n:
        power = power @ m
        nulls.append(n - power.rank())
    at_least = [nulls[k] - nulls[k - 1] for k in range(1, len(nulls))]
    freq = [
        at_least[k] - (at_least[k + 1] if k + 1 < len(at_least) else 0)
        for k in range(len(at_least))
    ]
    return to_partition(freq)


def test_jordan_matrix_small():
    j3 = jordan_matrix((3,), 5)
    assert j3.rows == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert is_zero(jordan_matrix((1, 1), 5))


def test_jordan_matrix_layout():
    b = jordan_matrix(P_BIG, 7)
    assert b.nrows == 15
    layout = chain_layout(P_BIG)
    assert layout == {(4, 1): 0, (4, 2): 4, (3, 1): 8, (2, 1): 11, (2, 2): 13}
    ones = {(r, c) for r in range(15) for c in range(15) if b.rows[r][c]}
    expected = set()
    for (i, _k), off in layout.items():
        expected |= {(off + h, off + h + 1) for h in range(i - 1)}
    assert ones == expected


def test_jordan_type_round_trip():
    for n in range(11):
        for p in partitions_of(n):
            assert jordan_type(jordan_matrix(p, 10007)) == p


def test_jordan_type_simple():
    assert jordan_type(MatrixGFp([[0] * 4 for _ in range(4)], 3)) == (1, 1, 1, 1)
    assert jordan_type(jordan_matrix((6,), 2)) == (6,)
    with pytest.raises(ValueError):
        jordan_type(identity(3, 5))
    with pytest.raises(ValueError, match="non-square"):
        jordan_type(MatrixGFp([[0, 1]], 3))


def test_jordan_type_on_random_conjugates():
    rng = random.Random(3)
    for p in [(3, 1), (2, 2, 1), (4, 2), (5,), (2, 1, 1)]:
        j = jordan_matrix(p, 101)
        s = random_invertible(j.nrows, 101, rng)
        s_inv_rows = _invert(s)
        m = s @ j @ s_inv_rows
        assert jordan_type(m) == p
        assert nullity_jordan_type(m) == p


def _invert(m):
    # Gauss-Jordan inverse over GF(p), test-local
    p, n = m.p, m.nrows
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(a - c * b) % p for a, b in zip(aug[r], aug[col])]
    return MatrixGFp([row[n:] for row in aug], p)


def test_param_slot_counts():
    # full count is sum of f_i f_j min(i, j) over the support
    f = to_frequency(P_BIG)
    supp = [i for i in range(1, len(f) + 1) if f[i - 1]]
    expected = sum(
        f[i - 1] * f[j - 1] * min(i, j) for i in supp for j in supp
    )
    assert len(param_slots(P_BIG, reduced=False)) == expected
    forced = sum(f[i - 1] * (f[i - 1] + 1) // 2 for i in supp)
    assert len(param_slots(P_BIG, reduced=True)) == expected - forced


GENERIC_MASK_44322 = [
    # which entries of a generic element of the maximal nilpotent
    # subalgebra for type (4,4,3,2,2) carry a free coefficient
    "011101111111111",
    "001100110110101",
    "000100010010000",
    "000000000000000",
    "111101111111111",
    "011100110110101",
    "001100010010000",
    "000100000000000",
    "011101110111111",
    "001100110010101",
    "000100010000000",
    "001100110110101",
    "000100010010000",
    "001100110111101",
    "000100010010100",
]


def test_generic_mask_44322():
    values = {s: 1 for s in param_slots(P_BIG, reduced=True)}
    a = build_commuting(P_BIG, 2, values)
    got = ["".join(str(x) for x in row) for row in a.rows]
    assert got == GENERIC_MASK_44322


def test_commuting_structure():
    rng = random.Random(0)
    for p in [(2, 1), (3, 2, 2), P_BIG, (1, 1, 1)]:
        b = jordan_matrix(p, 13)
        for reduced in (True, False):
            values = {s: rng.randrange(13) for s in param_slots(p, reduced=reduced)}
            a = build_commuting(p, 13, values)
            assert a @ b == b @ a


def leading_block(a, parts, i):
    """The f_i x f_i matrix of a_1 coefficients of the same-size blocks for size i."""
    layout = chain_layout(parts)
    offsets = [off for (j, _k), off in sorted(layout.items()) if j == i]
    return MatrixGFp([[a.rows[r][c] for c in offsets] for r in offsets], a.p)


def test_nilpotency_tracks_leading_blocks():
    # a commuting matrix is nilpotent iff every same-size leading-coefficient
    # block is nilpotent
    rng = random.Random(1)
    f_checked_both = 0
    for p in [(2, 2, 1, 1), (3, 3, 1), (2, 2, 2), (1, 1, 1)]:
        b = jordan_matrix(p, 3)
        supp = sorted({x for x in p})
        for _ in range(60):
            values = {s: rng.randrange(3) for s in param_slots(p, reduced=False)}
            a = build_commuting(p, 3, values)
            assert a @ b == b @ a
            blocks_nilpotent = all(
                is_nilpotent(leading_block(a, p, i)) for i in supp
            )
            assert is_nilpotent(a) == blocks_nilpotent
            f_checked_both += blocks_nilpotent
    assert 0 < f_checked_both  # both branches exercised


def test_witness_examples():
    assert restriction_type(
        jordan_matrix((2, 1), 10007), witness_matrix((2, 1), 10007)
    ) == (1, 1)
    for n in range(2, 8):
        assert restriction_type(
            jordan_matrix((n,), 10007), witness_matrix((n,), 10007)
        ) == (n - 1,)
    got = restriction_type(jordan_matrix(P_BIG, 10007), witness_matrix(P_BIG, 10007))
    assert to_frequency(got) == (1, 1, 2, 1)
    assert got == del_partition(P_BIG)


def test_witness_is_structural():
    for p in [(2, 1), P_BIG, (5, 5, 2), (1, 1, 1, 1)]:
        b = jordan_matrix(p, 2)
        w = witness_matrix(p, 2)
        assert w @ b == b @ w
        assert is_nilpotent(w)


def test_restriction_type_extremes():
    b = jordan_matrix((3, 2), 7)
    assert restriction_type(b, identity(5, 7)) == (3, 2)
    assert restriction_type(b, MatrixGFp([[0] * 5 for _ in range(5)], 7)) == ()
    with pytest.raises(ValueError):
        restriction_type(b, jordan_matrix((5,), 7))  # does not commute
    with pytest.raises(ValueError):
        restriction_type(identity(3, 7), identity(3, 7))


def test_random_commuting_restriction():
    rng = random.Random(42)
    for p in [(3, 1), (2, 2), (4, 2, 1), P_BIG]:
        b = jordan_matrix(p, 10007)
        for _ in range(3):
            a = random_commuting(p, 10007, rng)
            assert a @ b == b @ a
            assert is_nilpotent(a)
            assert restriction_type(b, a) == del_partition(p)


@pytest.mark.parametrize("p", [2, 3, 5, 10007, 2**61 - 1])
def test_draw_is_the_randrange_stream(p):
    # each coefficient is the value rng.randrange(p) gives, and the generator ends in its state
    for parts in [(1,), (3, 1), (2, 2, 1, 1), (4, 2, 1), P_BIG, (6, 3, 3, 1)]:
        table = oracle._slot_table(parts)
        for seed in (0, 1, 2027):
            rng, twin = random.Random(seed), random.Random(seed)
            pairs = oracle._draw(table, p, rng)
            assert [es for es, _ in pairs] == list(table.values())
            assert [v for _, v in pairs] == [twin.randrange(p) for _ in table]
            assert rng.getstate() == twin.getstate()


def test_random_commuting_is_pinned():
    # the matrix that seed 7 gave when _draw called rng.randrange: a seed keeps its matrices
    assert random_commuting((4, 2, 1), 10007, 7).rows == (
        (0, 950, 8313, 3517, 5991, 9548, 1542),
        (0, 0, 950, 8313, 0, 5991, 0),
        (0, 0, 0, 950, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1186, 8779, 0, 791, 6468),
        (0, 0, 0, 1186, 0, 0, 0),
        (0, 0, 0, 2471, 0, 5305, 0),
    )


def test_verify_restriction_report():
    rep = verify_restriction(P_BIG, p=10007, trials=3, seed=0)
    assert rep.ok and rep.witness_ok and rep.misses == []
    assert rep.expected == (4, 3, 3, 2, 1)
    d = rep.to_dict()
    assert d["status"] == "ok" and d["expected"] == [4, 3, 3, 2, 1]
    # the wall time is reported, and two reports that differ only in it are equal
    assert rep.elapsed > 0 and d["elapsed"] == round(rep.elapsed, 6)
    assert rep == dataclasses.replace(rep, elapsed=rep.elapsed + 1)
    rep2 = verify_restriction((6, 3), trials=0)
    assert rep2.trials == 0 and rep2.ok


def test_restriction_along_whole_chain():
    # iterating the witness restriction from (7, 4, 2, 1) walks the same
    # partitions as iterated demotion
    p = (7, 4, 2, 1)
    expected_chain = []
    f = to_frequency(p)
    while True:
        expected_chain.append(to_partition(f))
        if not f:
            break
        f = apply_del(f)
    got = [p]
    cur = p
    while cur:
        cur = restriction_type(jordan_matrix(cur, 10007), witness_matrix(cur, 10007))
        got.append(cur)
    assert got == expected_chain
    assert expected_chain[1] == (6, 3, 1, 1)


def test_scan_max_small():
    r = scan_max_type((2, 1), p=2)
    assert r.max_type == (3,) == r.expected and r.ok
    assert r.types == [(3,), (2, 1), (1, 1, 1)]
    r = scan_max_type((1, 1), p=2)
    assert r.max_type == (2,) and r.ok
    r = scan_max_type((4,), p=3)
    assert r.max_type == (4,) and r.ok
    assert scan_max_type((), p=2).ok


def test_scan_report_times_the_scan():
    rep = scan_max_type((2, 2, 1), p=2)
    d = rep.to_dict()
    # the wall time and its share per matrix are reported, and two reports
    # that differ only in it are equal
    assert rep.elapsed > 0 and d["elapsed"] == round(rep.elapsed, 6)
    assert d["us_per_matrix"] == round(rep.elapsed / rep.scanned * 1e6, 3) > 0
    assert rep == dataclasses.replace(rep, elapsed=rep.elapsed + 1)


def test_scan_budget():
    # (2,2,1): p(2) p(1) = 2 leading Jordan forms times 2^8 free slots
    with pytest.raises(ValueError, match="needs more matrices than the scan budget 511"):
        scan_max_type((2, 2, 1), p=2, budget=511)
    assert scan_max_type((2, 2, 1), p=2, budget=512).scanned == 512
    # (1^7) has no free slot: its space is the p(7) = 15 Jordan forms of one 7 x 7 block
    assert scan_max_type((1,) * 7, p=2, budget=15).scanned == 15
    with pytest.raises(ValueError, match="needs more matrices than the scan budget 14"):
        scan_max_type((1,) * 7, p=2, budget=14)
    r = scan_max_type((1, 1, 1, 1, 1), p=2)
    assert r.scanned == 7 and r.ok


@pytest.mark.parametrize("p", [2, 3])
def test_scan_size_is_the_levi_space_and_its_budget_boundary(p):
    # prod p(f_i) p^free, counted from listings; over GF(3) a matrix counts n^3
    # times against the budget; a budget of exactly that weight admits the scan
    for n in range(11):
        weight = 1 if p == 2 else n**3 or 1
        for q in partitions_of(n):
            f = to_frequency(q)
            forms = math.prod(len(list(partitions_of(m))) for m in f)
            size = forms * p ** sum(not leading(s) for s in param_slots(q))
            assert oracle._scan_size(f, p, size * weight) == size, q
            budget = size * weight - 1
            message = (f"scan of {format_partition(q)} over GF({p}) needs more matrices than"
                       f" the scan budget {budget}" + (f", each counted n^3 = {weight} times"
                                                       if weight > 1 else ""))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                oracle._scan_size(f, p, budget)


@pytest.mark.parametrize("reduced", [False])
def test_slot_count_formula_matches_slot_list(reduced):
    for n in range(11):
        for p in partitions_of(n):
            assert _slot_count(to_frequency(p)) == len(param_slots(p, reduced=reduced))


def test_scan_matches_reference_scan():
    # the Levi walk against the dense recursive scan of the full or reduced
    # space, and ``scanned`` against prod p(f_i) p^free counted by listing; the
    # budget bounds the reference scan, while the walk's own is n^3 times its size over GF(3)
    cases = [(q, 2, 2**12) for n in range(6) for q in partitions_of(n)]
    cases += [(q, 3, 3**7) for n in range(5) for q in partitions_of(n)]
    for q, p, budget in cases:
        rep = scan_max_type(q, p=p)
        _, _, _, types, max_type = reference_scan(q, p=p, budget=budget)
        assert (rep.types, rep.max_type) == (types, max_type), (q, p)
        f = to_frequency(q)
        forms = math.prod(len(list(partitions_of(m))) for m in f)
        free = _slot_count(f) - sum(m * m for m in f)
        assert rep.scanned == forms * p**free, (q, p)


@pytest.mark.parametrize("p,max_n", [(2, 5), (3, 4)])
def test_scan_histogram_sums_to_scanned(p, max_n):
    for n in range(max_n + 1):
        for q in partitions_of(n):
            d = scan_max_type(q, p=p).to_dict()
            assert sum(d["histogram"].values()) == d["scanned"], q
            assert list(d["histogram"]) == [format_partition(t) for t in d["types"]], q


@pytest.mark.parametrize("p", [2, 3])
def test_scan_asserts_the_nilpotency_it_relies_on(monkeypatch, p):
    # with the reference's full table listed and every slot walked, the
    # diagonal a_1 slots join the free walk, which then builds non-nilpotent
    # matrices and must raise, not miscount
    monkeypatch.setattr(oracle, "_slot_listing", full_listing)
    monkeypatch.setattr(oracle, "_walked", lambda table: list(table.values()))
    with pytest.raises(AssertionError, match="scanned matrix is not nilpotent"):
        scan_max_type((2, 1), p=p)


def full_listing(pt):
    """The reference's table of the full commutator algebra, in ``oracle._slot_listing``'s form."""
    return slot_table(pt, reduced=False)


def plant_entries(monkeypatch, moved, listing=None):
    """Make ``oracle._slot_listing`` list ``moved[slot](entries)`` for each slot of ``moved``.

    The other slots are those of ``listing``, by default the real listing.
    """
    real = listing or oracle._slot_listing

    def planted(pt):
        return {s: moved[s](es) if s in moved else es for s, es in real(pt).items()}

    monkeypatch.setattr(oracle, "_slot_listing", planted)


@pytest.mark.parametrize(
    "bad,wrong",
    [
        # a_1 of (3,1) -> (1,1) one row down: it no longer commutes with B
        (ParamSlot(3, 1, 1, 1, 1), lambda entries: [(r + 1, c) for r, c in entries]),
        # a_3 of (3,1) -> (3,1) on the a_2 diagonal: it commutes, but overlaps a_2
        (ParamSlot(3, 1, 3, 1, 3), lambda entries: [(0, 1), (1, 2)]),
    ],
)
def test_slot_fault_is_caught_on_every_oracle_path(monkeypatch, bad, wrong):
    plant_entries(monkeypatch, {bad: wrong})
    for path in (
        lambda: verify_restriction((3, 1), p=10007, trials=1),
        lambda: scan_max_type((3, 1), p=2),
        lambda: witness_matrix((3, 1), 5),
        lambda: random_commuting((3, 1), 5, 0),
    ):
        with pytest.raises(AssertionError, match="slot placement does not commute"):
            path()
    verify_restriction((2, 2), p=10007, trials=1)  # a partition without that slot still passes


def test_slot_proof_is_per_slot(monkeypatch):
    # the single chain of (3,), with (0, 1) moved from the a_2 diagonal to
    # the a_1 pattern: neither pattern commutes with B, but their sum, the
    # all-ones upper triangle, does, so a probe with every slot set to 1, or
    # one comparison of the ones of every slot untagged, would pass.  The
    # full table holds both slots; the scan's table, the subalgebra's, holds
    # only a_2
    moved = {
        ParamSlot(3, 1, 3, 1, 1): lambda entries: [(0, 0), (1, 1), (2, 2), (0, 1)],
        ParamSlot(3, 1, 3, 1, 2): lambda entries: [(1, 2)],
    }
    real = oracle._slot_listing
    for listing, path in ((full_listing, lambda: oracle._slot_table((3,))),
                          (real, lambda: scan_max_type((3,), p=2))):
        plant_entries(monkeypatch, moved, listing)
        with pytest.raises(AssertionError, match="does not commute"):
            path()


def test_slot_proof_matches_a_per_slot_check_on_every_moved_entry(monkeypatch):
    # each entry of each slot of the full table, moved to each cell of the matrix
    # in turn: the proof raises exactly when some slot's pattern, checked alone,
    # does not commute with B, or two slots share an entry
    for n in range(2, 5):
        for q in partitions_of(n):
            clean = full_listing(q)
            for s, es in clean.items():
                for e, cell in itertools.product(range(len(es)), itertools.product(range(n), repeat=2)):
                    table = {**clean, s: es[:e] + [cell] + es[e + 1:]}
                    entries = [rc for moved in table.values() for rc in moved]
                    holds = len(set(entries)) == len(entries) and all(
                        slot_commutes(q, moved) for moved in table.values())
                    monkeypatch.setattr(oracle, "_slot_listing", lambda pt: table)
                    try:
                        oracle._slot_table(q)
                        proved = True
                    except AssertionError:
                        proved = False
                    assert proved == holds, (q, s, e, cell)


@pytest.mark.parametrize("reduced", [True])
def test_slot_table_is_the_reference_listing(reduced):
    # the one walk over the chains lists the slots of the slot-by-slot
    # reference in its order, each with the same entries, keyed by plain tuples
    for n in range(13):
        for q in partitions_of(n):
            got = oracle._slot_table(q)
            assert list(got.items()) == list(slot_table(q, reduced).items()), q
            assert all(type(s) is tuple for s in got), q


def test_dominance_max_is_the_brute_force_maximum():
    # every histogram of up to 4 types of each n <= 7, and every one of n <= 6;
    # the maximum is the type that dominates every type, if there is one
    for n in range(8):
        types = list(partitions_of(n))
        for size in range(1, len(types) + 1 if n <= 6 else 5):
            for chosen in itertools.combinations(types, size):
                brute = [t for t in chosen if all(dominates(t, s) for s in chosen)]
                assert _dominance_max(list(chosen)) == (brute[0] if brute else None), chosen
    assert _dominance_max([(3, 1, 1, 1), (2, 2, 2)]) is None
    assert _dominance_max([(2, 2, 2)]) == (2, 2, 2)


def test_type_of_ranks_rejects_a_negative_multiplicity():
    assert _type_of_ranks((4, 2, 0)) == (2, 2)
    assert _type_of_ranks((5, 3, 1, 0)) == (3, 2)
    with pytest.raises(AssertionError, match="negative multiplicity"):
        _type_of_ranks((3, 1, 1, 0))


def test_build_commuting_slot_placement():
    # a_2 of the (3,1)->(3,1) block is the first superdiagonal of that block
    a = build_commuting((3, 3), 5, {ParamSlot(3, 1, 3, 1, 2): 4})
    assert a.rows[0][1] == 4 and a.rows[1][2] == 4
    assert sum(x for row in a.rows for x in row) == 8
    # wide block: leading zero columns shift the diagonal right
    a = build_commuting((3, 2), 5, {ParamSlot(2, 1, 3, 1, 1): 2})
    off = chain_layout((3, 2))[(2, 1)]
    assert a.rows[off][1] == 2 and a.rows[off + 1][2] == 2


@pytest.mark.parametrize(
    "slot",
    [
        ParamSlot(3, 1, 3, 1, 0),  # h = 0 would write column -1
        ParamSlot(3, 1, 3, 1, 4),  # h > min(i, j) has no entries
        ParamSlot(2, 1, 2, 1, 1),  # (3,) has no chain of length 2
    ],
)
def test_build_commuting_refuses_what_is_not_a_slot(slot):
    with pytest.raises(ValueError, match="is not a slot of"):
        build_commuting((3,), 5, {slot: 1})


def dominance(max_n, p):
    return SweepConfig(max_n=max_n, checks=("matrix-dominance",), field=p)


@pytest.mark.parametrize("p, total", [(2, 28627225), (3, 3007173)])
def test_dominance_cost_sums_the_scans_within_the_budget(p, total):
    # to the frontier: 28627225 matrices over GF(2); 3007173 matrices times n^3 over GF(3)
    frontier = 8 if p == 2 else 5
    weight = (lambda n: 1) if p == 2 else (lambda n: n**3)
    assert sum(oracle.scan_work(n, p) * weight(n) for n in range(frontier + 1)) == total
    cfg = dominance(0, p)
    assert sum(dominance_cost(n, None, cfg) for n in range(frontier + 1)) <= SWEEP_BUDGET_US
    dominance(frontier, p)
    # a scan of size 9 over GF(2), or of size 6 over GF(3) where each matrix
    # counts n^3 times, is over the per-scan budget by itself
    refusal = rf"at n = {frontier + 1}: scan of \[.*\] over GF\({p}\) needs more matrices"
    with pytest.raises(ValueError, match=refusal):
        dominance(14, p)
    with pytest.raises(ValueError, match=r"scan of \[3\] over GF\(10007\) needs more matrices"):
        dominance(12, 10007)


@pytest.mark.parametrize("p, m", [(2, 8), (3, 5), (5, 4), (7, 4), (10007, 2)])
def test_admitted_sweeps_scan_within_the_budget(p, m):
    # the frontier of a dominance sweep; every scan it admits fits the per-scan
    # budget, so the sweep's dominance check never meets that refusal
    dominance(m, p)
    with pytest.raises(ValueError, match="budget"):
        dominance(m + 1, p)
    budget = oracle.DEFAULT_SCAN_BUDGET
    for n in range(m + 1):
        for q in partitions_of(n):
            oracle._scan_size(to_frequency(q), p, budget)  # raises past the budget


def check_against_int_row_scan(max_n):
    for n in range(max_n + 1):
        for q in partitions_of(n):
            rep = scan_max_type(q, p=2)
            scanned, histogram = int_row_scan(q)
            got = (rep.scanned, list(rep.histogram.items()))
            assert got == (scanned, list(histogram.items())), q


def test_sliced_scan_matches_int_row_scan():
    # at 2^12 lanes the largest of these scans also walk slots outside the lanes
    check_against_int_row_scan(6)


def test_sliced_scan_batches_forms_and_the_outer_walk(monkeypatch):
    # with 4 lanes, forms are split into chunks and most slots are walked outside the lanes
    monkeypatch.setattr(oracle, "SCAN_LANES", 4)
    check_against_int_row_scan(5)
