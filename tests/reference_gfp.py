"""Reference dense GF(p) products and restriction type.

These are the products that the sparse-row kernels in ``burgebox.gfp``
replaced: ``dense_matmul`` takes the dot product of every row with every
column, ``dense_power`` multiplies the identity by repeated squares, and
``dense_restriction_type`` maps each basis vector through all of B with
``dense_mat_vec`` and echelons each image with ``row_echelon_basis``, the
canonical span.  Every result goes through the validating ``MatrixGFp``
constructor.  They are slow and exist only as test oracles.

``gauss_jordan`` is a textbook elimination on dense rows, reduced mod p
at every step and kept in reduced row-echelon form after each row: the
oracle for ``rank_profile`` and ``row_echelon_basis``, which keep sparse
rows and reduce lazily.

``jordan_matrix`` is the nilpotent Jordan matrix of a type, built entry by
entry; the package places it only inside its commutator builders.

``gf2_matmul`` and ``gf2_rank`` are the GF(2) kernels on bit-packed rows
(bit c of the int ``rows[r]`` is entry (r, c)) that typed one matrix at a
time before the bitsliced scan; ``reference_scan.int_row_scan`` runs on
them, and ``test_gfp.py`` checks them against ``MatrixGFp``.
"""

from burgebox.gfp import MatrixGFp, row_echelon_basis
from burgebox.partitions import as_partition, to_partition


def jordan_matrix(parts, p):
    """Block-diagonal nilpotent matrix of type P with superdiagonal ones, sizes descending."""
    pt = as_partition(parts)
    n = sum(pt)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for block in pt:
        for r in range(start, start + block - 1):
            rows[r][r + 1] = 1
        start += block
    return MatrixGFp(rows, p)


def gf2_matmul(x, y):
    """XY over GF(2) on int rows: row r is the XOR of the rows of Y picked by row r of X."""
    out = []
    for row in x:
        acc = 0
        while row:
            low = row & -row
            acc ^= y[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def gf2_rank(rows):
    """Rank over GF(2) of int rows, by XOR elimination."""
    basis = {}  # leading bit -> a reduced row with that leading bit
    for v in rows:
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    return len(basis)


def gauss_jordan(vectors, p):
    """The rank of each prefix of the vectors, and the reduced row-echelon basis of their span.

    Inverses are Fermat's, x^(p-2), so p must be prime.
    """
    basis = {}  # pivot column -> a row with 1 there and 0 at every other pivot
    ranks = []
    for v in vectors:
        v = [x % p for x in v]
        for c, row in basis.items():
            if x := v[c]:
                v = [(a - x * b) % p for a, b in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            v = [x * inv % p for x in v]
            basis = {c: [(a - row[lead] * b) % p for a, b in zip(row, v)] for c, row in basis.items()}
            basis[lead] = v
        ranks.append(len(basis))
    return ranks, [tuple(basis[c]) for c in sorted(basis)]


def identity(n, p):
    return MatrixGFp([[1 if i == j else 0 for j in range(n)] for i in range(n)], p)


def is_zero(m):
    return all(x == 0 for row in m.rows for x in row)


def dense_matmul(x, y):
    if x.p != y.p:
        raise ValueError(f"mixed moduli {x.p} and {y.p}")
    if x.ncols != y.nrows:
        raise ValueError(f"shape mismatch: {x.ncols} != {y.nrows}")
    cols = list(zip(*y.rows)) if y.rows else []
    return MatrixGFp(
        [[sum(a * b for a, b in zip(row, col)) % x.p for col in cols] for row in x.rows],
        x.p,
    )


def dense_power(m, k):
    if m.nrows != m.ncols:
        raise ValueError("power of a non-square matrix")
    result = identity(m.nrows, m.p)
    base = m
    while k:
        if k & 1:
            result = dense_matmul(result, base)
        base = dense_matmul(base, base) if k > 1 else base
        k >>= 1
    return result


def dense_mat_vec(m, vec):
    if len(vec) != m.ncols:
        raise ValueError("vector length mismatch")
    return tuple(sum(a * b for a, b in zip(row, vec)) % m.p for row in m.rows)


def dense_restriction_type(b, a):
    if dense_matmul(a, b) != dense_matmul(b, a):
        raise ValueError("matrices do not commute")
    if b.nrows != b.ncols or not is_zero(dense_power(b, b.nrows)):
        raise ValueError("restriction requires a nilpotent base matrix")
    basis = row_echelon_basis(zip(*a.rows), a.p)
    dims = [len(basis)]
    while dims[-1] > 0:
        basis = row_echelon_basis([dense_mat_vec(b, v) for v in basis], b.p)
        dims.append(len(basis))
    at_least = [dims[k - 1] - dims[k] for k in range(1, len(dims))]
    freq = [
        at_least[k] - (at_least[k + 1] if k + 1 < len(at_least) else 0)
        for k in range(len(at_least))
    ]
    return to_partition(freq)
