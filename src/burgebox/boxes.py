"""Fibers of the descent map over super-distinct partitions.

For super-distinct Q = (q_1 > ... > q_k) the box dimensions are
delta_1 = q_k and delta_i = q_{k-i+1} - q_{k-i+2} - 1.  The fiber of the
descent map over Q consists of exactly the partitions whose code word is

    a^(d1-i1) b^(i1)  a^(d2-i2+1) b^(i2)  ...  a^(dk-ik+1) b^(ik)  a

for coordinates (i_1, ..., i_k) in the box [1,d1] x ... x [1,dk], and the
partition at those coordinates has i_1 + ... + i_k parts.  The empty
partition is the k = 0 case: a single empty coordinate tuple and the
one-element fiber {empty}.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable

from .burge import _promoted, descent_map, encode
from .partitions import Partition, _frequency, _partition, _super_distinct, as_partition

_B_RUN_RE = re.compile(r"b+")
FIBER_CAP = 10**6  # cells that fiber may list: box size (elements) times |Q| (cells each)


def delta(q: Iterable[int]) -> tuple:
    """Box dimensions of a super-distinct partition; rejects any other."""
    qt = as_partition(q)
    if not _super_distinct(qt):
        raise ValueError(f"{qt} is not super-distinct (some gap is < 2)")
    r = qt[::-1]  # q_k, ..., q_1
    return r[:1] + tuple(b - a - 1 for a, b in zip(r, r[1:]))


def check_coords(d: tuple, coords: Iterable[int]) -> tuple:
    c = tuple(coords)
    if len(c) != len(d):
        raise ValueError(f"expected {len(d)} coordinates, got {len(c)}")
    for j, (cj, dj) in enumerate(zip(c, d), 1):
        if not 1 <= cj <= dj:
            raise ValueError(f"coordinate {j} out of range: {cj} not in [1, {dj}]")
    return c


def fiber_code(q: Iterable[int], coords: Iterable[int]) -> str:
    """Code word of the fiber element of Q at the given box coordinates."""
    d = delta(q)
    return _fiber_word(d, check_coords(d, coords))


def _fiber_word(d: tuple, c: tuple) -> str:
    """``fiber_code`` for box dimensions d and coordinates c already checked against them."""
    pieces = []
    for j, (dj, cj) in enumerate(zip(d, c), 1):
        pad = dj - cj if j == 1 else dj - cj + 1
        pieces.append("a" * pad + "b" * cj)
    pieces.append("a")
    return "".join(pieces)


def _element(d: tuple, c: tuple) -> Partition:
    """The fiber element at checked coordinates: its word is in (a*b)*a by construction."""
    return _partition(_promoted(_fiber_word(d, c)))


def fiber(q: Iterable[int]) -> list:
    """Complete fiber of the descent map over Q.

    Returns (coords, partition) pairs in lexicographic coordinate order;
    coordinates (1, ..., 1) always map to Q itself.  Raises ValueError,
    before listing any element, when the box size times |Q| exceeds
    ``FIBER_CAP``.
    """
    d = delta(q)
    count, n = math.prod(d), sum(q)  # delta has validated q
    if count * n > FIBER_CAP:
        raise ValueError(f"fiber of {count} partitions of {n} exceeds the fiber cap {FIBER_CAP}")
    return [
        (coords, _element(d, coords))
        for coords in itertools.product(*(range(1, dj + 1) for dj in d))
    ]


def coordinates_of(parts: Iterable[int]) -> tuple:
    """Locate a partition in its fiber: (Q, coordinates).

    The coordinates are the b-run lengths of the code word of P; the pair
    inverts fiber_code exactly.
    """
    p = as_partition(parts)
    q = descent_map(p)
    word = encode(_frequency(p))
    coords = tuple(len(run.group(0)) for run in _B_RUN_RE.finditer(word))
    if fiber_code(q, coords) != word:
        raise AssertionError(
            f"code {word} of {p} does not parse into the box shape of {q}"
        )
    return q, coords


def max_parts_partition(q: Iterable[int]) -> Partition:
    """The fiber element with the most parts: (q_2+2, ..., q_r+2, 1^(q_1-2r+2)).

    Sits at box coordinates (d_1, ..., d_k); super-distinctness guarantees
    q_1 >= 2r - 1 so the count of trailing ones is positive.
    """
    qt = as_partition(q)
    delta(qt)  # rejects a Q that is not super-distinct
    return tuple(x + 2 for x in qt[1:]) + (1,) * (qt[0] - 2 * len(qt) + 2) if qt else ()


def symmetry_map(q: Iterable[int], coords: Iterable[int], positions: Iterable[int]) -> tuple:
    """Reflect coordinates i_j -> delta_j - i_j + 1 at the chosen positions.

    Positions are 1-based; the map is an involution on the box.
    """
    d = delta(q)
    c = check_coords(d, coords)
    pos = set(positions)
    for j in pos:
        if not 1 <= j <= len(d):
            raise ValueError(f"position {j} out of range [1, {len(d)}]")
    return tuple(
        d[j - 1] - cj + 1 if j in pos else cj for j, cj in enumerate(c, 1)
    )


def fiber_bijection(q: Iterable[int], r: Iterable[int], sigma: Iterable[int]) -> list:
    """Pair the fibers of Q and R along a permutation of equal box dimensions.

    ``sigma`` is a permutation of 1..k with delta(R)[j] = delta(Q)[sigma(j)];
    the element of the Q-fiber at (i_j)_j pairs with the element of the
    R-fiber at (i_sigma(j))_j.  Paired partitions have equal part counts.
    Returns ((coords_q, part_q), (coords_r, part_r)) pairs.
    """
    dq = delta(q)
    dr = delta(r)
    s = tuple(sigma)
    if sorted(s) != list(range(1, len(dq) + 1)) or len(dr) != len(dq):
        raise ValueError(f"sigma {s} is not a permutation of 1..{len(dq)}")
    for j in range(len(dr)):
        if dr[j] != dq[s[j] - 1]:
            raise ValueError(
                f"box mismatch at position {j + 1}: delta(R)={dr}, permuted delta(Q) wants {dq[s[j] - 1]}"
            )
    pairs = []
    for coords_q, part_q in fiber(q):  # in lexicographic coordinate order
        coords_r = tuple(coords_q[s[j] - 1] for j in range(len(s)))
        part_r = _element(dr, coords_r)
        pairs.append(((coords_q, part_q), (coords_r, part_r)))
    return pairs
