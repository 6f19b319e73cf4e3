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

from . import kernels
from .burge import descent_map, encode
from .partitions import Partition, _partition, as_partition, is_super_distinct, to_frequency

_B_RUN_RE = re.compile(r"b+")
FIBER_CAP = 10**6  # cells that fiber may list: box size (elements) times |Q| (cells each)


def delta(q: Iterable[int]) -> tuple:
    """Box dimensions of a super-distinct partition; rejects any other."""
    qt = as_partition(q)
    if not is_super_distinct(qt):
        raise ValueError(f"{qt} is not super-distinct (some gap is < 2)")
    return _delta(qt)


def _delta(q: tuple) -> tuple:
    """``delta`` of a decreasing tuple, unchecked: a gap below 2 gives a dimension <= 0."""
    r = q[::-1]  # q_k, ..., q_1
    return r[:1] + tuple(b - a - 1 for a, b in zip(r, r[1:]))


def _in_range(name: str, x, hi: int) -> int:
    """x, once it is an int, not a bool, in [1, hi]; the ValueError names it."""
    if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= hi:
        raise ValueError(f"{name} is {x!r}, not an integer in [1, {hi}]")
    return x


def check_coords(d: tuple, coords: Iterable[int]) -> tuple:
    """Coordinates as a tuple, once each is an int (not a bool) within its box dimension."""
    c = tuple(coords)
    if len(c) != len(d):
        raise ValueError(f"expected {len(d)} coordinates, got {len(c)}")
    return tuple(_in_range(f"coordinate {j}", cj, dj) for j, (cj, dj) in enumerate(zip(c, d), 1))


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


def _box(d: tuple):
    """The coordinate tuples of the box with dimensions d, in lexicographic order."""
    return itertools.product(*(range(1, dj + 1) for dj in d))


def _element(d: tuple, c: tuple) -> Partition:
    """The fiber element at checked coordinates: its word is in (a*b)*a by construction."""
    return _partition(kernels.promoted(_fiber_word(d, c)))


def fiber(q: Iterable[int]) -> list:
    """Complete fiber of the descent map over Q.

    Returns (coords, partition) pairs in lexicographic coordinate order;
    coordinates (1, ..., 1) always map to Q itself.  Raises ValueError,
    before listing any element, when the box size times |Q| exceeds
    ``FIBER_CAP``.
    """
    qt = as_partition(q)
    d = delta(qt)
    if (count := math.prod(d)) * (n := sum(qt)) > FIBER_CAP:
        raise ValueError(f"fiber of {count} partitions of {n} exceeds the fiber cap {FIBER_CAP}")
    return [(c, _element(d, c)) for c in _box(d)]


def coordinates_of(parts: Iterable[int]) -> tuple:
    """Locate a partition in its fiber: (Q, coordinates).

    The coordinates are the b-run lengths of the code word of P; the pair
    inverts fiber_code exactly.
    """
    p = as_partition(parts)
    q = descent_map(p)
    word = encode(to_frequency(p))
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
    pos = {_in_range("position", j, len(d)) for j in positions}
    return tuple(
        d[j - 1] - cj + 1 if j in pos else cj for j, cj in enumerate(c, 1)
    )

