"""Word statistics and the lattice-path route from fibers to hook lengths.

The two-letter Foata transformation has a closed form on words of the
box-code shape, sending major index to inversion number.  Read right to
left with ``a`` an east step and ``b`` a north step, the transformed word
traces the southeast boundary of a Young diagram; the resulting partition
has diagonal hook lengths Q and Durfee square of size len(Q).

Path convention (the one-sentence boundary description leaves orientation
open, so it is pinned here): the path starts at the origin, each north
step closes a row whose length is the number of east steps taken so far,
and rows are collected bottom-up, i.e. weakly increasing, then reversed.
The anchor fixing this choice is Q = (10, 7, 3) at coordinates (1, 1, 1),
whose image must have hooks exactly (10, 7, 3).
"""

from __future__ import annotations

from typing import Iterable

from .boxes import check_coords, delta
from .burge import check_word
from .partitions import Partition, as_partition


def inversions(word: str) -> int:
    """Number of pairs i < j with word[i] = b and word[j] = a."""
    w = check_word(word)
    inv = 0
    bs = 0
    for ch in w:
        if ch == "b":
            bs += 1
        else:
            inv += bs
    return inv


def foata_fiber(q: Iterable[int], coords: Iterable[int]) -> str:
    """Foata image of the fiber code of Q at the given coordinates.

        b a^(dk-ik)  b a^(d(k-1)-i(k-1))  ...  b a^(d1-i1)
        b^(i1-1) a  b^(i2-1) a  ...  b^(ik-1) a

    Same length and letter content as the fiber code; its inversion number
    equals the major index of the fiber code, which is the size of the
    fiber element.
    """
    d = delta(q)
    c = check_coords(d, coords)
    k = len(d)
    head = "".join("b" + "a" * (d[j] - c[j]) for j in reversed(range(k)))
    tail = "".join("b" * (c[j] - 1) + "a" for j in range(k))
    return head + tail


def path_to_partition(word: str) -> Partition:
    """Partition whose southeast boundary path is the word, read right to left.

    ``a`` is a unit east step, ``b`` a unit north step.  Rows of length
    zero (north steps before any east step) are dropped.  The size of the
    result is the inversion number of the word.
    """
    w = check_word(word)
    rows = []
    x = 0
    for ch in reversed(w):
        if ch == "a":
            x += 1
        elif x > 0:
            rows.append(x)
    return as_partition(tuple(reversed(rows)))


def durfee(parts: Iterable[int]) -> int:
    """Largest d with p_d >= d: the side of the Durfee square."""
    return sum(x >= i for i, x in enumerate(as_partition(parts), 1))  # the i with p_i >= i


def diagonal_hooks(parts: Iterable[int]) -> Partition:
    """Hook lengths of the diagonal cells (i, i), i = 1..durfee(P).

    Hook i spans the arm p_i - i, the leg (column count of column i) - i,
    and the cell itself.  Successive hooks drop by at least 2, so the
    result is a super-distinct partition of |P|.  One pointer walks the
    column counts up from the last part, so the cost is O(len P).
    """
    p = as_partition(parts)
    hooks = []
    col = len(p)  # parts >= i, for the current i
    for i, x in enumerate(p, 1):
        if x < i:
            break
        while p[col - 1] < i:
            col -= 1
        hooks.append(x + col - 2 * i + 1)
    return tuple(hooks)
