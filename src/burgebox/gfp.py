"""Exact linear algebra over a prime field GF(p).

``MatrixGFp`` is the general matrix: immutable, rows stored as a tuple of
tuples with entries already reduced mod p.  Everything is plain integer
arithmetic, so results are exact for any prime modulus; pivoting uses
modular inverses via ``pow(x, -1, p)``.  The one elimination on row lists
is the forward ``rank_profile``; ``row_echelon_basis`` adds a
back-substitution to it.  It keeps each pivot row sparse, so reducing a
vector costs one step per nonzero of each pivot row it meets.

The constructor validates: it checks that p is prime, reduces every entry
and rejects ragged rows.  Products do work only for nonzero entries: row r
of XY adds x * (row k of Y) into an unreduced accumulator for each nonzero
entry x = X[r][k], then reduces each entry once (``matmul_rows``, which
also serves callers holding plain row lists).  A product is built by the
constructor like any other matrix.
The oracle's matrices (shift matrices and Toeplitz blocks) are mostly
zeros; on a dense matrix the product does the same multiplications as a
row-by-column one.

For GF(2) there are also two bitsliced kernels, after Biham's DES
(FSE 1997): a matrix is a list of rows of ints, and bit j of entry (r, c)
is that entry in lane j, so one AND or XOR acts on every lane at once.
``sliced_powers`` lists the powers of a matrix in every lane and
``sliced_rank`` gives every lane's rank as bit-planes.  They validate
nothing.  The exhaustive commutator scan over GF(2) runs on them.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

# Deterministic Miller-Rabin: these 13 prime bases decide every n below the
# limit, the least strong pseudoprime to all of them.  The first 12 alone
# are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=128)
def is_prime(p: int) -> bool:
    """Exact primality below ``MR_LIMIT``; a larger p raises ValueError."""
    if p < 2:
        return False
    if p >= MR_LIMIT:
        raise ValueError(f"modulus {p} is too large to certify as prime (limit {MR_LIMIT})")
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d % 2:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def sliced_powers(a: Sequence[Sequence[int]]):
    """A, A^2, A^3, ... over GF(2) in every lane, without end.

    Entry (r, c) of XA is the XOR over k of X[r][k] AND A[k][c], taken over
    the nonzero entries of A, listed once; a zero row of X gives a zero row.
    """
    width = len(a)
    nonzero = [[(c, v) for c, v in enumerate(row) if v] for row in a]
    power = a
    while True:
        yield power
        out = []
        for row in power:
            acc = [0] * width
            if any(row):
                for u, ys in zip(row, nonzero):
                    if u:
                        for c, v in ys:
                            acc[c] ^= u & v
            out.append(acc)
        power = out


def sliced_rank(rows: Sequence[Sequence[int]]) -> list:
    """The rank over GF(2) in every lane, as bit-planes: bit j of plane b is bit b of lane j's rank.

    Forward elimination with a pivot mask per column: ``kept[c]`` holds, in
    the lanes of ``have[c]``, a kept row with its pivot at column c, made
    when the column gets its first pivot.  A nonzero row is reduced left to
    right; in the lanes where it meets a column with no pivot yet, it is
    kept there and leaves the elimination.
    """
    width = len(rows[0]) if rows else 0
    have, kept = [0] * width, [None] * width
    for row in rows:
        if not any(row):
            continue
        v = list(row)
        for c, x in enumerate(v):  # v[c] is read after the reductions of columns < c
            if not x:
                continue
            w = kept[c]
            if old := x & have[c]:
                for d in range(c + 1, width):
                    if e := w[d] & old:
                        v[d] ^= e
            if new := x ^ old:
                if w is None:
                    w = kept[c] = [0] * width
                have[c] |= new
                for d in range(c + 1, width):
                    if e := v[d] & new:
                        w[d] |= e
                        v[d] ^= e
    planes = []
    for carry in have:  # add each pivot mask into the bit-planes, rippling the carry
        for b, plane in enumerate(planes):
            if not carry:
                break
            planes[b], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    return planes


def matmul_rows(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]], p: int) -> tuple:
    """XY mod p on row lists, as a tuple of tuples; the caller checks the shapes."""
    width = len(y[0]) if y else 0
    out = []
    for row in x:
        acc = [0] * width
        for a, yrow in zip(row, y):
            if a:
                acc = [s + a * t for s, t in zip(acc, yrow)]
        out.append(tuple([s % p for s in acc]))
    return tuple(out)


class MatrixGFp:
    """A matrix over GF(p)."""

    __slots__ = ("p", "rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence[int]], p: int):
        self.p = check_prime(p)
        self.rows = tuple(tuple(x % p for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGFp)
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"MatrixGFp[{self.nrows}x{self.ncols} mod {self.p}]({body})"

    def __matmul__(self, other: "MatrixGFp") -> "MatrixGFp":
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} != {other.nrows}")
        return MatrixGFp(matmul_rows(self.rows, other.rows, self.p), self.p)

    def rank(self) -> int:
        return (rank_profile(self.rows, self.p) or [0])[-1]


def rank_profile(vectors: Iterable[Sequence[int]], p: int, basis: dict | None = None) -> list:
    """The rank of each prefix of ``vectors``: entry t is the rank of the first t + 1.

    Forward elimination only.  A kept row is stored sparse, with its pivot
    scaled to 1, as the (column, value) pairs of its nonzero entries right of
    the pivot.  A copy of each vector is reduced left to right in place, at
    those columns only, and unreduced mod p until it is kept; the caller's
    rows are never changed.  ``basis``, when given, receives the kept rows'
    pairs keyed by pivot column.
    """
    check_prime(p)
    basis = {} if basis is None else basis
    ranks = []
    for v in vectors:
        v = list(v)
        width = len(v)
        for c in range(width):
            x = v[c] % p
            if not x:
                continue
            row = basis.get(c)
            if row is None:
                inv = pow(x, -1, p)
                basis[c] = [(d, y * inv % p) for d in range(c + 1, width) if (y := v[d] % p)]
                break
            for d, y in row:
                v[d] -= x * y
        ranks.append(len(basis))
    return ranks


def row_echelon_basis(vectors: Iterable[Sequence[int]], p: int) -> list:
    """Reduced row-echelon basis of the span of the given vectors.

    Returns a list of tuples (possibly empty); its length is the rank.
    The output is canonical for the span, so two spans are equal iff their
    bases compare equal.  ``rank_profile``'s sparse rows are made dense,
    zero left of the pivot and 1 at it, and each is cleared at the later
    pivots, left to right.
    """
    vectors = list(vectors)
    width = len(vectors[0]) if vectors else 0
    pairs: dict = {}
    rank_profile(vectors, p, pairs)
    basis = {}
    for c, row in pairs.items():
        basis[c] = dense = [0] * width
        dense[c] = 1
        for d, y in row:
            dense[d] = y
    cols = sorted(basis)
    for i, lead in enumerate(cols):
        for c in cols[i + 1:]:
            if x := basis[lead][c]:
                basis[lead] = [(a - x * b) % p for a, b in zip(basis[lead], basis[c])]
    return [tuple(basis[c]) for c in cols]
