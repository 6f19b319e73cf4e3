"""The sparse-row GF(p) kernels against the dense reference in ``reference_gfp``."""

import random

import pytest

from burgebox.burge import apply_del
from burgebox.gfp import MatrixGFp
from burgebox.oracle import (
    RestrictionReport,
    jordan_type,
    random_commuting,
    restriction_type,
    verify_restriction,
    witness_matrix,
)
from burgebox.partitions import partitions_of, to_frequency, to_partition
from reference_gfp import (
    dense_matmul,
    dense_power,
    dense_restriction_type,
    identity,
    is_zero,
    jordan_matrix,
)
from reference_scan import jordan_type as reference_jordan_type

FIELDS = (2, 3, 10007)


def sparse_rows(rng, m, n, p):
    """An m x n matrix, mostly zeros, with some rows all zero and unreduced entries."""
    density = rng.choice((0.1, 0.3, 0.7))
    rows = [
        [rng.randrange(-2 * p, 2 * p) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    for r in rng.sample(range(m), m // 3):
        rows[r] = [0] * n
    return rows


def assert_same(got, want):
    assert type(got) is MatrixGFp
    assert got == want and hash(got) == hash(want)
    assert (got.p, got.nrows, got.ncols) == (want.p, want.nrows, want.ncols)
    assert all(0 <= x < got.p for row in got.rows for x in row)


@pytest.mark.parametrize("p", FIELDS)
def test_products_match_dense_reference(p):
    rng = random.Random(p)
    for _ in range(200):
        m, k, n = (rng.randrange(0, 7) for _ in range(3))
        x = MatrixGFp(sparse_rows(rng, m, k, p), p)
        y = MatrixGFp(sparse_rows(rng, k, n, p), p)
        if x.ncols != y.nrows:  # a matrix with no rows has no columns either
            continue
        assert_same(x @ y, dense_matmul(x, y))


@pytest.mark.parametrize("p", FIELDS)
def test_power_matches_dense_reference(p):
    rng = random.Random(100 + p)
    cases = [MatrixGFp(sparse_rows(rng, n, n, p), p) for n in range(7) for _ in range(3)]
    cases += [jordan_matrix(pt, p) for pt in ((4, 2, 1), (3, 3), (5,))]
    cases += [random_commuting(pt, p, rng) for pt in ((4, 2, 1), (3, 3), (2, 2, 1, 1))]
    for m in cases:
        if is_zero(dense_power(m, m.nrows)):
            assert jordan_type(m) == reference_jordan_type(m)
        else:
            with pytest.raises(ValueError, match="not nilpotent"):
                jordan_type(m)


@pytest.mark.parametrize("p,max_n", [(10007, 9), (3, 6)])
def test_restriction_type_matches_dense_reference(p, max_n):
    rng = random.Random(7)
    for n in range(max_n + 1):
        for pt in partitions_of(n):
            b = jordan_matrix(pt, p)
            for a in [witness_matrix(pt, p)] + [random_commuting(pt, p, rng) for _ in range(5)]:
                assert restriction_type(b, a) == dense_restriction_type(b, a)


def composed_report(pt, p, seed, restrict, trials=5):
    """``verify_restriction``'s report, from the public matrices typed by ``restrict``."""
    b = jordan_matrix(pt, p)
    expected = to_partition(apply_del(to_frequency(pt)))
    observed = restrict(b, witness_matrix(pt, p))
    rng = random.Random(seed)
    draws = [restrict(b, random_commuting(pt, p, rng)) for _ in range(trials)]
    misses = [(t, got) for t, got in enumerate(draws) if got != expected]
    return RestrictionReport(pt, p, expected, observed, observed == expected, trials, misses)


@pytest.mark.parametrize("p", [10007, 3])
def test_verify_restriction_matches_its_composition(p):
    misses = 0
    for n in range(10):
        for pt in partitions_of(n):
            for seed in (0, 1):
                # equal in every field but the wall time, which reports do not compare
                got = verify_restriction(pt, p=p, trials=5, seed=seed)
                assert got == composed_report(pt, p, seed, restriction_type)
                assert got == composed_report(pt, p, seed, dense_restriction_type)
                misses += len(got.misses)
    assert misses > 0 if p == 3 else misses == 0  # GF(3) is small enough to miss


def test_checks_still_raise():
    p = 7
    a = MatrixGFp([[1, 2], [3, 4]], p)
    with pytest.raises(ValueError, match="mixed moduli"):
        a @ MatrixGFp([[1, 2], [3, 4]], 5)
    with pytest.raises(ValueError, match="shape mismatch"):
        MatrixGFp([[1, 2, 3]], p) @ MatrixGFp([[1, 2, 3]], p)

    b = jordan_matrix((3, 2), p)
    for restrict in (restriction_type, dense_restriction_type):
        with pytest.raises(ValueError, match="mixed moduli"):
            restrict(b, identity(5, 5))
        with pytest.raises(ValueError, match="shape mismatch"):
            restrict(b, identity(4, p))
        with pytest.raises(ValueError, match="do not commute"):
            restrict(b, jordan_matrix((5,), p))
        with pytest.raises(ValueError, match="nilpotent base matrix"):
            restrict(identity(3, p), identity(3, p))


def test_restriction_needs_b_nilpotent_on_the_whole_space():
    # B = diag(J_2, 1) commutes with A = diag(1, 1, 0) and is nilpotent on W = span(e_1, e_2)
    b = MatrixGFp([[0, 1, 0], [0, 0, 0], [0, 0, 1]], 5)
    a = MatrixGFp([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 5)
    assert a @ b == b @ a
    for restrict in (restriction_type, dense_restriction_type):
        with pytest.raises(ValueError, match="nilpotent base matrix"):
            restrict(b, a)
