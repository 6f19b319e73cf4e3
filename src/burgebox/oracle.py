"""Finite-field verification of the combinatorics against actual matrices.

For a nilpotent Jordan matrix B of type P, any commuting matrix splits into
blocks indexed by pairs of Jordan chains: the block coupling a chain of
length i to a chain of length j is upper-triangular Toeplitz with
min(i, j) free coefficients a_1, a_2, ..., right-aligned when i < j
(leading zero columns) and top-aligned when i > j (trailing zero rows).
``a_1`` of each square same-size block sits in the leading-coefficient
matrix A_i of that size; a commuting matrix is nilpotent exactly when every
A_i is, and forcing them strictly lower triangular carves out a maximal
nilpotent subalgebra.  Every matrix this module builds lies in it: the
witness, the random draws and the scan.  The Levi group
L = prod GL(f_i), mixing the chains of each length, commutes with B, keeps
Jordan types, acts on each A_i by similarity and leaves the other slots
free; so every nilpotent commuting Jordan type is realized with each A_i a
lower nilpotent Jordan form, one representative per partition of f_i.

This module builds those matrices explicitly over GF(p), constructs the
all-ones-on-pivots witness whose image certifies the restriction type, and
exhaustively scans small commutators for the dominance-maximum Jordan type.
Every matrix is placed from one slot table per partition, the subalgebra's,
keyed by plain (i, k, j, l, h) tuples; the full commutator algebra is only
counted, never listed.  One walk over the chains lists each slot's entries,
and one comparison of two sets of ints, each the position of a one offset
by its slot's tag, proves every slot commuting with B; a count of the
entries proves them disjoint.  The scan counts its space from the
frequencies before it lists a slot.  Its maximum is its lexicographically
first type, checked against the rest, since a type that dominates another
also comes first.

Jordan chains are laid out with sizes descending and equal sizes adjacent.
A chain is addressed as (i, k): length i, k-th chain of that length
(1-based), matching the a_h^{kl} parameter naming used throughout.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, islice, product
from math import prod
from typing import Iterable

from .burge import apply_del, descent_map
from .gfp import (
    MatrixGFp,
    check_prime,
    matmul_rows,
    rank_profile,
    sliced_powers,
    sliced_rank,
)
from .partitions import (
    Partition,
    _dominates,
    _next_count,
    as_partition,
    format_partition,
    partitions_of,
    to_frequency,
    to_partition,
)

DEFAULT_SCAN_BUDGET = 2**24
# The GF(2) scan types at most this many matrices at once, one per bit of each entry int.
SCAN_LANES = 2**12
GENERIC_PRIME = 10007
SCAN_PRIME = 2  # the default field of the dominance scan, the one the bitsliced kernels type
# verify_restriction refuses more work than this, counted as (trials + 1) max(n, 16)^3.
# Below n = 16 a draw's fixed costs outweigh n^3: one of size 1 costs 1/200 of one of size 16.
RESTRICTION_WORK_CAP = 5 * 10**6


# ---------------------------------------------------------------------------
# Layout and construction
# ---------------------------------------------------------------------------

def _slot_count(f) -> int:
    """The number of slots of the full commutator algebra of B of type P, from its frequencies f.

    Chains of lengths i and j are coupled by min(i, j) slots, one for each
    t <= min(i, j).  So the count is the sum over t of c_t^2, with c_t the
    number of chains of length t or more.
    """
    return sum(c * c for c in accumulate(reversed(f)))


def _slot_listing(pt: Partition) -> dict:
    """Each slot (i, k, j, l, h), a_h of the block coupling chains (i, k) -> (j, l), to its entries.

    The slots are the maximal nilpotent subalgebra's.  They run over the
    chains (i, k), by length i ascending and then k, then over the chains
    (j, l) alike, then over h = 1 .. min(i, j), leaving out a_1 of
    (i,k) -> (i,l) with k <= l: the upper-and-diagonal entries of the
    same-size leading-coefficient matrices, forced to zero in the subalgebra.
    Within its block, a_h lies on the diagonal from column
    h - 1 + max(0, j - i) to the block's last column.
    """
    chains, r0, k = [], 0, 0  # (i, k, first row), laid out as the parts of P
    for i in pt:
        k = k + 1 if chains and chains[-1][0] == i else 1
        chains.append((i, k, r0))
        r0 += i
    chains.sort()
    table = {}
    for i, k, r0 in chains:
        rows = range(r0, r0 + i)
        for j, l, c0 in chains:
            end, m = c0 + j, i if i < j else j  # a_1 starts min(i, j) columns before the end
            for h in range(1 + (i == j and k <= l), m + 1):
                table[i, k, j, l, h] = list(zip(rows, range(end - m + h - 1, end)))
    return table


def _slot_table(pt: Partition) -> dict:
    """``_slot_listing(P)``, proved disjoint and to commute with B of type P.

    B shifts each Jordan chain: (Bv)[r] = v[r + 1], or 0 where r + 1 starts
    a chain or is n.  A slot's 0/1 pattern E commutes with B when EB, with
    its ones at (r, c + 1), equals BE, at (r - 1, c).  Each one is tagged
    with its slot's index s, as the int (s n + r) n + c for the one at (r, c),
    so one comparison of two sets of ints proves every slot.  Commuting is
    linear, so this covers every matrix placed from the table.
    """
    table = _slot_listing(pt)
    n = sum(pt)
    inner = [True] * (n + 1)  # False where a chain starts, and at n
    for s in accumulate(pt, initial=0):
        inner[s] = False
    entries = table.values()
    eb, be, tag = set(), set(), 0
    for es in entries:
        for r, c in es:
            if inner[c + 1]:
                eb.add(tag + r * n + c + 1)
            if inner[r]:
                be.add(tag + r * n + c - n)
        tag += n * n
    if sum(map(len, entries)) != len(set().union(*entries)) or eb != be:
        raise AssertionError("slot placement does not commute with the base matrix")
    return table


def _placed(n: int, pairs) -> list:
    """n x n rows carrying each value of the (entries, value) pairs at its entries."""
    rows = [[0] * n for _ in range(n)]
    for es, v in pairs:
        for r, c in es:
            rows[r][c] = v
    return rows


def _draw(table: dict, p: int, rng: random.Random) -> list:
    """(entries, value) pairs giving every slot of the table a uniform coefficient, in order.

    A coefficient is ``getrandbits(p.bit_length())``, drawn again while it is p
    or more: exactly what ``rng.randrange(p)`` returns from the same stream
    (CPython's ``_randbelow_with_getrandbits``), so a seed keeps its matrices.
    """
    bits, getrandbits = p.bit_length(), rng.getrandbits
    pairs = []
    for es in table.values():
        r = getrandbits(bits)
        while r >= p:
            r = getrandbits(bits)
        pairs.append((es, r))
    return pairs


# ---------------------------------------------------------------------------
# The witness matrix
# ---------------------------------------------------------------------------

def witness_matrix(parts: Iterable[int], p: int) -> MatrixGFp:
    """The witness over GF(p): every slot of ``_witness_values`` placed from the slot table as 1."""
    pt = as_partition(parts)
    check_prime(p)
    table = _slot_table(pt)
    return MatrixGFp(_placed(sum(pt), [(table[s], 1) for s in _witness_values(pt)]), p)


def _witness_values(pt: Partition) -> list:
    """The witness's slots: one pivot block per row of blocks, with ones on its leading diagonal.

    Pivots are selected recursively, two sizes per window, so that every
    column chain is targeted by at most one row of blocks (overlapping
    targets would collapse the rank).  With z the window maximum:

      * rows (z, k), k >= 2, couple to (z, k-1) with a_1 = 1;
      * if z-1 occurs: row (z, 1) couples to (z-1, f_{z-1}) and row
        (z-1, 1) couples to (z, f_z), both with a_1 = 1, and rows
        (z-1, k), k >= 2, couple to (z-1, k-1);
      * otherwise row (z, 1) couples to (z, f_z) with a_2 = 1, the
        nilpotent Jordan form of the block (a 1 x 1 block stays zero);

    then the window drops to sizes <= z-2.  Every slot is one of the maximal
    nilpotent subalgebra's, and the witness's image realizes the restriction
    type given by one demotion step of P, over any field.
    """
    f = to_frequency(pt)
    slots = []
    z = len(f)
    while z > 0:
        if f[z - 1] == 0:
            z -= 1
            continue
        fz = f[z - 1]
        fz1 = f[z - 2] if z >= 2 else 0
        slots += _jordan_form(z, (fz,))
        if fz1 > 0:
            slots += [(z, 1, z - 1, fz1, 1), *_jordan_form(z - 1, (fz1,)), (z - 1, 1, z, fz, 1)]
        elif z >= 2:
            slots.append((z, 1, z, fz, 2))
        z -= 2
    return slots


def random_commuting(parts: Iterable[int], p: int, rng: random.Random | int) -> MatrixGFp:
    """Uniformly random element of the maximal nilpotent subalgebra.

    Every free slot of the subalgebra gets a uniform coefficient, so the
    result is always a nilpotent matrix commuting with B.  ``rng`` may be
    a Random instance or a bare seed; there is no hidden global randomness.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    pt = as_partition(parts)
    check_prime(p)
    return MatrixGFp(_placed(sum(pt), _draw(_slot_table(pt), p, rng)), p)


# ---------------------------------------------------------------------------
# Jordan types
# ---------------------------------------------------------------------------

def jordan_type(m: MatrixGFp) -> Partition:
    """Jordan type of a nilpotent matrix from its rank sequence.

    With r_k = rank(M^k) and r_0 = n, the multiplicity of block size k is
    r_{k-1} - 2 r_k + r_{k+1}.  Rejects non-nilpotent input.
    """
    if m.nrows != m.ncols:
        raise ValueError("Jordan type of a non-square matrix")
    ranks = _rank_sequence(m.rows, m.rows, m.p)
    if ranks is None:
        raise ValueError("matrix is not nilpotent")
    return _type_of_ranks((m.nrows, *ranks))


def _rank_sequence(m, x, p: int) -> tuple | None:
    """(rank X, rank XM, rank XM^2, ..., 0) on GF(p) row lists; None if a nonzero rank repeats.

    X commutes with M (X = M gives the ranks of M's powers), so the rows of
    XM^(k+1) = M XM^k lie in the row space of XM^k.  Once two ranks are
    equal and nonzero that space is mapped onto itself by M, the ranks stay
    there and M is not nilpotent.  ``matmul_rows`` skips the zeros of its
    left factor, so each product costs less as the powers of M thin out.
    """
    ranks, last = [], None
    while last != 0:
        r = (rank_profile(x, p) or [0])[-1]
        if r == last:
            return None
        ranks.append(r)
        last = r
        if r:
            x = matmul_rows(x, m, p)
    return tuple(ranks)


def _type_of_ranks(ranks) -> Partition:
    """Jordan type from r_0 = n, r_1, ..., a rank sequence of trusted ints ending at 0.

    r_k is the rank of the k-th power of a nilpotent map on an
    n-dimensional space, or dim(B^k W) for B restricted to W.  There are
    r_{k-1} - r_k blocks of size k or more, so the type is read from the
    longest blocks down.  A negative multiplicity, which no nilpotent map
    has, is an internal fault and raises AssertionError.
    """
    parts, longer = [], 0  # the blocks longer than k
    for k in range(len(ranks) - 1, 0, -1):
        m = ranks[k - 1] - ranks[k] - longer
        if m < 0:
            raise AssertionError(f"rank sequence {tuple(ranks)} gives a negative multiplicity")
        parts += [k] * m
        longer += m
    return tuple(parts)


def restriction_type(b: MatrixGFp, a: MatrixGFp) -> Partition:
    """Jordan type of B restricted to the column space W of A.

    Requires AB = BA (so W is B-invariant) and B nilpotent on the whole
    space.  dim B^k W is rank B^k A = rank AB^k, so W is typed by
    ``_rank_sequence`` of B from A.
    """
    if a @ b != b @ a:
        raise ValueError("matrices do not commute")
    if _rank_sequence(b.rows, b.rows, b.p) is None:
        raise ValueError("restriction requires a nilpotent base matrix")
    return _type_of_ranks(_rank_sequence(b.rows, a.rows, b.p))


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

def restriction_work(n: int, trials: int) -> int:
    """(trials + 1) max(n, 16)^3, the work of ``verify_restriction`` at size n, up to the cap."""
    if (work := (trials + 1) * max(n, 16) ** 3) > RESTRICTION_WORK_CAP:
        raise ValueError(f"{trials} trials of size {n}: (trials + 1) max(n, 16)^3 = {work}"
                         f" is over the cap {RESTRICTION_WORK_CAP}")
    return work


@dataclass
class RestrictionReport:
    partition: Partition
    field: int
    expected: Partition            # one demotion step of the input type
    witness_observed: Partition
    witness_ok: bool
    trials: int
    misses: list = field(default_factory=list)  # (trial index, observed type)
    elapsed: float = field(default=0.0, compare=False)  # wall seconds of the verification

    @property
    def ok(self) -> bool:
        return self.witness_ok and not self.misses

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "field": self.field,
            "expected": list(self.expected),
            "observed": list(self.witness_observed),
            "witness_ok": self.witness_ok,
            "trials": self.trials,
            "misses": [[t, list(obs)] for t, obs in self.misses],
            "elapsed": round(self.elapsed, 6),
            "status": "ok" if self.ok else "fail",
        }


def verify_restriction(
    parts: Iterable[int],
    p: int = GENERIC_PRIME,
    trials: int = 5,
    seed: int = 0,
) -> RestrictionReport:
    """Check that images of commuting nilpotent matrices realize the demoted type.

    The witness must match exactly; random draws from the maximal
    nilpotent subalgebra miss only on a thin non-generic locus, so misses
    are recorded rather than raised.  The witness's slots, each set to 1,
    and the draws are placed from the one proved slot table by ``_placed``,
    as ``witness_matrix`` and ``random_commuting`` place them.  B shifts
    each chain, so row r of B^k A is row r + k of A or zero, and dim B^k W
    is the rank of A's rows at chain offset >= k: with the rows by
    decreasing offset, one elimination per draw gives each as a prefix rank.
    """
    start = time.perf_counter()
    pt = as_partition(parts)
    check_prime(p)
    n = sum(pt)
    restriction_work(n, trials)
    expected = to_partition(apply_del(to_frequency(pt)))
    table = _slot_table(pt)
    order = sorted(range(n), key=[-o for i in pt for o in range(i)].__getitem__)
    cuts = [sum(max(i - k, 0) for i in pt) for k in range(pt[0] if pt else 0)]

    def type_of(pairs) -> Partition:  # pairs: (entries, value)
        rows = _placed(n, pairs)
        ranks = rank_profile(map(rows.__getitem__, order), p)
        return _type_of_ranks([*(ranks[m - 1] for m in cuts), 0])

    observed = type_of((table[s], 1) for s in _witness_values(pt))
    rng = random.Random(seed)
    draws = [type_of(_draw(table, p, rng)) for _ in range(trials)]
    misses = [(t, got) for t, got in enumerate(draws) if got != expected]
    return RestrictionReport(pt, p, expected, observed, observed == expected, trials, misses,
                             time.perf_counter() - start)


@dataclass
class ScanReport:
    partition: Partition
    field: int
    scanned: int                   # size of the space the walk covers
    histogram: dict                # Jordan type -> matrices of that type, types descending
    max_type: Partition | None     # dominance maximum, when one exists
    expected: Partition
    elapsed: float = field(default=0.0, compare=False)  # wall seconds of the scan

    @property
    def types(self) -> list:
        """Every occurring Jordan type, sorted descending."""
        return list(self.histogram)

    @property
    def ok(self) -> bool:
        return self.max_type is not None and self.max_type == self.expected

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "field": self.field,
            "scanned": self.scanned,
            "types": [list(t) for t in self.types],
            "histogram": {format_partition(t): c for t, c in self.histogram.items()},
            "max_type": list(self.max_type) if self.max_type is not None else None,
            "expected": list(self.expected),
            "elapsed": round(self.elapsed, 6),
            "us_per_matrix": round(self.elapsed / self.scanned * 1e6, 3),
            "status": "ok" if self.ok else "fail",
        }


def _gray_walk(count: int, p: int):
    """The p-ary Gray walk over ``count`` slots, as the slot to change before each visit.

    Yields None for the all-zero start, then for t = 1 .. p**count - 1 the
    slot v_p(t) (trailing base-p zeros of t), which gains 1 mod p; this
    visits every assignment exactly once.
    """
    yield None
    for t in range(1, p**count):
        x = 0
        while not t % p:
            t //= p
            x += 1
        yield x


def _jordan_form(i: int, lam: Partition) -> list:
    """The a_1 slots, as plain tuples, whose ones make the chains of length i a Jordan form lam."""
    starts = accumulate(lam, initial=0)
    return [(i, k + 1, i, k, 1) for s, b in zip(starts, lam) for k in range(s + 1, s + b)]


def _walked(table: dict) -> list:
    """The entries of every slot of the table but the leading ones (a_1 with i = j), in order."""
    return [es for (i, _, j, _, h), es in table.items() if h > 1 or i != j]


def _scan_size(f, p: int, budget: int) -> int:
    """The prod p(f_i) p^free matrices that ``scan_max_type`` walks over GF(p), up to budget.

    Over odd p each n x n matrix is typed alone and counts n^3 times against the
    budget.  The leading blocks take prod p(f_i) Jordan forms.  p(m) only grows,
    so p(0), p(1), ... are counted up to the largest f_i or the first over the
    cap, whichever comes first: a huge f_i costs a few steps.
    """
    free = _slot_count(f) - sum(m * m for m in f)
    weight = 1 if p == 2 else sum(i * m for i, m in enumerate(f, 1)) ** 3 or 1
    # p**free <= budget; p >= 2, so past budget's bit length it is over
    cap = budget // weight // p**free if free <= budget.bit_length() else 0
    top, counts = max(f, default=0), [1]
    while len(counts) <= top and counts[-1] <= cap:
        counts.append(_next_count(counts))
    # stopped past the cap: p(top) is over it too; else every p(f_i) is counted
    leading = counts[-1] if counts[-1] > cap else prod(map(counts.__getitem__, f))
    if leading > cap:
        raise ValueError(f"scan of {format_partition(to_partition(f))} over GF({p}) needs more"
                         f" matrices than the scan budget {budget}"
                         + (f", each counted n^3 = {weight} times" if weight > 1 else ""))
    return leading * p**free


def scan_work(n: int, p: int) -> int:
    """The matrices that ``scan_max_type`` walks over GF(p) for all the partitions of n."""
    return sum(_scan_size(to_frequency(q), p, DEFAULT_SCAN_BUDGET) for q in partitions_of(n))


def _count_lanes(a: list, n: int, lanes: int, keys: Counter) -> None:
    """Add the rank sequence (n, rank A, rank A^2, ..., 0) of each lane of the sliced A to keys.

    Lanes with equal ranks so far form a group (ranks, lane mask).  Each
    power splits a group by rank: the lowest lane's rank, read off the
    bit-planes, picks every lane that agrees with it on each plane.  Lanes
    whose rank reaches 0 are done and counted.
    """
    groups = [((n,), lanes)]
    for power in islice(sliced_powers(a), n):
        if not any(map(any, power)):
            break
        planes, going = sliced_rank(power), []
        sides = [(1 << b, plane, ~plane) for b, plane in enumerate(planes)]
        for key, lanes in groups:
            while lanes:
                low = lanes & -lanes
                same, rank = lanes, 0
                for bit, plane, off in sides:
                    if plane & low:
                        same, rank = same & plane, rank | bit
                    else:
                        same &= off
                lanes ^= same
                if rank:
                    going.append(((*key, rank), same))
                else:
                    keys[(*key, 0)] += same.bit_count()
        groups = going
    else:
        if n:  # A^n is not zero in some lane
            raise AssertionError("scanned matrix is not nilpotent, but its leading blocks are")
    for key, lanes in groups:
        keys[(*key, 0)] += lanes.bit_count()


def _sliced_scan(n: int, forms: list, walked: list) -> Counter:
    """Rank sequence -> matrices over GF(2), typed ``SCAN_LANES`` at a time.

    Bit j of every entry int is that entry in lane j.  A batch gives each of
    a chunk of leading Jordan-form choices 2^k lanes, one per assignment of
    the first k walked slots: slot t is 1 in the lanes whose index has bit t
    set.  The Gray walk covers the other slots, each step XORing every lane
    into one slot's entries.
    """
    k = min(len(walked), SCAN_LANES.bit_length() - 1)
    inner, outer = walked[:k], walked[k:]
    leads = product(*forms)
    keys = Counter()
    while chunk := list(islice(leads, SCAN_LANES >> k)):
        everywhere = (1 << (len(chunk) << k)) - 1
        a = [[0] * n for _ in range(n)]
        for b, lead in enumerate(chunk):
            block = ((1 << (1 << k)) - 1) << (b << k)
            for es in lead:
                for r, c in es:
                    a[r][c] |= block
        for t, es in enumerate(inner):
            # runs of 2^t ones after 2^t zeros, repeated over every lane
            pattern = everywhere // ((1 << (2 << t)) - 1) * (((1 << (1 << t)) - 1) << (1 << t))
            for r, c in es:
                a[r][c] = pattern
        for y in _gray_walk(len(outer), 2):
            if y is not None:
                for r, c in outer[y]:
                    a[r][c] ^= everywhere
            _count_lanes(a, n, everywhere, keys)
    return keys


def _row_scan(n: int, forms: list, walked: list, p: int) -> Counter:
    """Rank sequence -> matrices over GF(p), one matrix at a time on row lists."""
    keys = Counter()
    for lead in product(*forms):
        rows = _placed(n, [(es, 1) for es in lead])
        values = [0] * len(walked)
        for y in _gray_walk(len(walked), p):
            if y is not None:
                v = values[y] = (values[y] + 1) % p
                for r, c in walked[y]:
                    rows[r][c] = v
            ranks = _rank_sequence(rows, rows, p)
            if ranks is None:
                raise AssertionError("scanned matrix is not nilpotent, but its leading blocks are")
            keys[(n, *ranks)] += 1
    return keys


def _dominance_max(types: list) -> Partition | None:
    """The dominance maximum of distinct partitions of one size, listed descending; None if none.

    A partition that dominates another comes before it lexicographically,
    so only the first can be the maximum.
    """
    top = types[0]
    return top if all(_dominates(top, t) for t in types[1:]) else None


def scan_max_type(
    parts: Iterable[int],
    p: int = SCAN_PRIME,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> ScanReport:
    """Enumerate commuting nilpotent matrices up to Levi conjugacy; find the dominant Jordan type.

    L = prod GL(f_i), mixing the chains of each length, commutes with B and
    keeps Jordan types; conjugating by it moves each leading block A_i by a
    similarity and leaves the other slots free.  So the walk gives each A_i
    one lower nilpotent Jordan form per partition of f_i (a lone chain of
    length i has only the empty one), and walks every non-leading slot of the
    proved slot table (``_walked``) through GF(p) in Gray-code order, one slot
    change per step.  ``scanned`` is the size of that space, prod p(f_i)
    p^free, counted by ``_scan_size`` from the frequencies alone, with p(m)
    counted only up to the largest f_i or the budget; it is checked against
    ``budget`` (n^3 times over odd p) before any slot is listed, and
    ValueError is raised when it is over.  Every matrix built is nilpotent:
    one that is not raises AssertionError.  Each is typed by its rank
    sequence: over GF(2) ``SCAN_LANES`` matrices at a time by the bitsliced
    kernels (``_sliced_scan``), over odd p one at a time on row lists with
    ``rank_profile`` and ``matmul_rows``.  The histogram maps each sequence's
    type to its count, types descending, and the maximum is the
    lexicographically first type, checked against the rest
    (``_dominance_max``).
    """
    start = time.perf_counter()
    pt = as_partition(parts)
    check_prime(p)
    n = sum(pt)
    f = to_frequency(pt)
    scanned = _scan_size(f, p, budget)
    table = _slot_table(pt)
    forms = [  # a lone chain of its length has one Jordan form, with no slot set
        [[rc for s in _jordan_form(i, lam) for rc in table[s]] for lam in partitions_of(m)]
        for i, m in enumerate(f, 1)
        if m > 1
    ]
    walked = _walked(table)
    keys = _sliced_scan(n, forms, walked) if p == 2 else _row_scan(n, forms, walked, p)
    histogram = dict(sorted(zip(map(_type_of_ranks, keys), keys.values()), reverse=True))
    return ScanReport(pt, p, scanned, histogram, _dominance_max(list(histogram)), descent_map(pt),
                      time.perf_counter() - start)
