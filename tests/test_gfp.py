import itertools
import random

import pytest

from burgebox.gfp import (
    MR_LIMIT,
    MatrixGFp,
    is_prime,
    rank_profile,
    row_echelon_basis,
    sliced_powers,
    sliced_rank,
)
from burgebox.oracle import jordan_type, random_commuting, restriction_type
from burgebox.partitions import partitions_of
from reference_gfp import gauss_jordan, gf2_matmul, gf2_rank, identity, is_zero


def det_mod(rows, p):
    # Leibniz determinant, fine for the tiny oracle sizes used here
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def brute_rank(rows, p):
    # largest r with a nonsingular r x r submatrix
    m, n = len(rows), len(rows[0]) if rows else 0
    for r in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), r):
            for ci in itertools.combinations(range(n), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_mod(sub, p) != 0:
                    return r
    return 0


def test_is_prime():
    assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(10007)
    assert not is_prime(10005)


def test_is_prime_miller_rabin():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(-5, 20000))
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    # above the 12-base bound, so only the 13th base (41) separates these two
    assert is_prime(10**24 + 7)
    assert not is_prime(318665857834031151167461)  # = 399165290221 * 798330580441
    # Carmichael numbers and strong pseudoprimes to the smaller base sets
    for n in (561, 41041, 3215031751, 3825123056546413051, 10**18 + 1):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        is_prime(MR_LIMIT)
    with pytest.raises(ValueError):
        MatrixGFp([[1]], MR_LIMIT + 2)
    # the least strong pseudoprime to all 13 bases, written out so that a
    # limit moved past it fails here: the bases alone would call it prime
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


def test_construction_reduces_mod_p():
    m = MatrixGFp([[5, -1], [7, 3]], 5)
    assert m.rows == ((0, 4), (2, 3))
    assert repr(m) == "MatrixGFp[2x2 mod 5](0 4; 2 3)"
    with pytest.raises(ValueError):
        MatrixGFp([[1, 2], [3]], 5)
    with pytest.raises(ValueError):
        MatrixGFp([[1]], 6)


def test_arithmetic():
    p = 7
    a = MatrixGFp([[1, 2], [3, 4]], p)
    b = MatrixGFp([[0, 1], [1, 0]], p)
    assert (a @ b).rows == ((2, 1), (4, 3))
    i = identity(2, p)
    assert a @ i == a and i @ a == a
    assert is_zero(MatrixGFp([[0] * 3 for _ in range(2)], p))
    with pytest.raises(ValueError):
        a @ MatrixGFp([[1]], 5)


def test_power():
    j = MatrixGFp([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 2)
    assert (j @ j).rows == ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    assert is_zero(j @ j @ j)
    assert jordan_type(j) == (3,)
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_type(identity(3, 2))


def test_rank_against_brute_force():
    rng = random.Random(11)
    for p in (2, 3, 7):
        for _ in range(120):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            assert MatrixGFp(rows, p).rank() == brute_rank(rows, p)


def test_row_echelon_basis_canonical():
    p = 5
    vecs = [(1, 2, 0), (2, 4, 0), (0, 0, 3)]
    basis = row_echelon_basis(vecs, p)
    assert basis == [(1, 2, 0), (0, 0, 1)]
    # span equality gives identical canonical bases
    shuffled = [(0, 0, 1), (1, 2, 3), (3, 6, 0)]
    assert row_echelon_basis(shuffled, p) == basis
    assert len(row_echelon_basis(vecs, p)) == 2
    assert row_echelon_basis([], p) == []
    assert row_echelon_basis([(0, 0)], p) == []


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_rank_profile_is_the_rank_of_each_prefix(p):
    rng = random.Random(p)
    for _ in range(40):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(3)):  # zero rows and repeated rows, anywhere
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        ranks = rank_profile(rows, p)
        assert ranks == [brute_rank(rows[: t + 1], p) for t in range(len(rows))]
        assert ranks[-1] == MatrixGFp(rows, p).rank() == len(row_echelon_basis(rows, p))
        assert row_echelon_basis(rng.sample(rows, len(rows)), p) == row_echelon_basis(rows, p)
    for n in range(1, 13):  # against Gauss-Jordan, up to 12 x 12
        dense = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(rng.randrange(1, 13))]
        # entries that are multiples of p, or 1 or -1 off one, up to 3p from 0
        near = [[rng.randrange(-3, 4) * p + rng.choice((0, 0, 1, -1)) for _ in range(n)]
                for _ in range(rng.randrange(1, 13))]
        commuting = [list(row) for row in random_commuting(rng.choice(list(partitions_of(n))), p, rng).rows]
        shifted = [[x + p * rng.randrange(-2, 3) for x in row] for row in commuting]
        for rows in (dense, near, commuting, shifted):
            before = [list(row) for row in rows]
            ranks, rref = gauss_jordan(rows, p)
            assert rank_profile(rows, p) == ranks
            assert row_echelon_basis(rows, p) == rref
            assert rows == before  # the caller's rows are left as they were
    assert rank_profile([], p) == [] and rank_profile([(0, 0)], p) == [0]
    with pytest.raises(ValueError, match="not prime"):
        rank_profile([(1,)], 6)


def test_empty_matrix():
    e = MatrixGFp([], 2)
    assert e.nrows == 0 and e.ncols == 0
    assert e.rank() == 0
    assert is_zero(e)
    assert jordan_type(e) == restriction_type(e, e) == ()


def pack(rows):
    return [sum(v << c for c, v in enumerate(row)) for row in rows]


def test_gf2_kernels_match_matrix_gfp():
    rng = random.Random(5)
    for _ in range(300):
        m, k, n = (rng.randrange(1, 7) for _ in range(3))
        x = [[rng.randrange(2) for _ in range(k)] for _ in range(m)]
        y = [[rng.randrange(2) for _ in range(n)] for _ in range(k)]
        product = MatrixGFp(x, 2) @ MatrixGFp(y, 2)
        assert gf2_matmul(pack(x), pack(y)) == pack(product.rows)
        assert gf2_rank(pack(x)) == MatrixGFp(x, 2).rank()
        if m <= 4 and k <= 4:
            assert gf2_rank(pack(x)) == brute_rank(x, 2)
    assert gf2_rank([]) == 0 and gf2_rank([0, 0]) == 0
    assert gf2_matmul([0b101], [0b01, 0b11, 0b10]) == [0b11]


def test_sliced_kernels_match_matrix_gfp():
    # lane j of the sliced matrices is the j-th random matrix
    rng = random.Random(7)
    for _ in range(60):
        n, lanes = rng.randrange(0, 7), rng.randrange(1, 70)
        mats = [[[rng.randrange(2) for _ in range(n)] for _ in range(n)] for _ in range(lanes)]
        mats[0] = [[0] * n for _ in range(n)]  # a zero lane
        xs = [MatrixGFp(m, 2) for m in mats]
        sliced = [
            [sum(m[r][c] << j for j, m in enumerate(mats)) for c in range(n)] for r in range(n)
        ]
        planes = sliced_rank(sliced)
        powers = list(itertools.islice(sliced_powers(sliced), 3))
        for j, x in enumerate(xs):
            assert sum((plane >> j & 1) << b for b, plane in enumerate(planes)) == x.rank()
            for power, xk in zip(powers, (x, x @ x, x @ x @ x)):
                assert [[e >> j & 1 for e in row] for row in power] == [*map(list, xk.rows)]
    assert sliced_rank([]) == [] and next(sliced_powers([])) == []
