"""Integer partitions and their frequency-sequence representation.

A partition is a tuple of weakly decreasing positive parts; the empty tuple
is the empty partition.  Its frequency sequence is the tuple
``(f_1, f_2, ...)`` where ``f_i`` counts the parts equal to ``i``.  Frequency
tuples are 0-indexed in storage but 1-indexed in meaning: ``f[0]`` is the
multiplicity of part 1.  Trailing zeros are always stripped so that equality
of tuples is equality of sequences; the fictional entry ``f_0 = 0`` is never
stored.

Both are tuples: hashable, immutable and safe to share between threads.  A
checked partition is a ``_Checked`` tuple, which passes ``as_partition`` at once.
"""

from __future__ import annotations

import re
from itertools import accumulate, groupby
from operator import ge
from typing import Iterable, Iterator

from . import kernels

Partition = tuple
FreqSeq = tuple

# Parts above this are almost certainly malformed input (ids, timestamps, ...).
PART_CAP = 10**6
# parse_partition lists every part, so it bounds the total size before doing so.
SIZE_CAP = 10**5


class _Checked(tuple):  # a checked partition, from as_partition, partitions_of or parse_partition
    __slots__ = ()


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and return a partition as a tuple; a checked one is returned at once.

    Raises ValueError unless the parts are weakly decreasing positive
    integers no greater than ``PART_CAP``.
    """
    if type(parts) is _Checked:
        return parts
    p = _Checked(parts)
    prev = None
    for i, x in enumerate(p):
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"part {x!r} is not an integer")
        if x < 1:
            raise ValueError(f"part {x} is not positive")
        if i and prev < x:
            raise ValueError(f"parts not weakly decreasing at index {i}: {p}")
        prev = x
    if p and p[0] > PART_CAP:
        raise ValueError(f"part {p[0]} exceeds the part cap {PART_CAP}")
    return p


def as_frequency(freq: Iterable[int]) -> FreqSeq:
    """Validate a frequency sequence and strip trailing zeros."""
    f = list(freq)
    for x in f:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"frequency {x!r} is not a nonnegative integer")
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def to_frequency(parts: Iterable[int]) -> FreqSeq:
    """Frequency sequence of a partition: f_i = multiplicity of part i."""
    p = as_partition(parts)
    f = [0] * (p[0] if p else 0)
    for x in p:
        f[x - 1] += 1
    return tuple(f)


def to_partition(freq: Iterable[int]) -> Partition:
    """Partition corresponding to a frequency sequence (inverse of to_frequency)."""
    return _partition(as_frequency(freq))


def _partition(f) -> Partition:
    parts = []
    for i in range(len(f), 0, -1):
        parts.extend([i] * f[i - 1])
    return tuple(parts)


def size(freq: Iterable[int]) -> int:
    """|f| = sum of i * f_i, the size of the underlying partition."""
    return kernels.size(as_frequency(freq))


def length(freq: Iterable[int]) -> int:
    """l(f) = sum of f_i, the number of parts."""
    return sum(as_frequency(freq))


def _right_set(f: FreqSeq) -> frozenset:
    """R(f) of a validated f: every other index of each spread, starting at its high end."""
    out, j = [], len(f)
    while j > 0:
        if f[j - 1]:
            out.append(j)
            j -= 1  # skip one: j - 1 is the next of j's spread, or a zero
        j -= 1
    return frozenset(out)


def _two_measure(f: FreqSeq) -> int:
    """Maximum length of a super-distinct subpartition of a validated f: ceil(len/2) per spread."""
    total = run = 0  # run: the length of the spread so far
    for m in f:
        if m:
            run += 1
        else:
            total, run = total + ((run + 1) >> 1), 0
    return total + ((run + 1) >> 1)  # f has no trailing zeros


def is_super_distinct(parts: Iterable[int]) -> bool:
    """True when successive parts differ by at least two."""
    p = as_partition(parts)
    return all(a - b >= 2 for a, b in zip(p, p[1:]))


def reduced(parts: Iterable[int]) -> Partition:
    """P - 1: subtract one from every part and drop the zeros."""
    return tuple(x - 1 for x in as_partition(parts) if x > 1)


def dominates(parts: Iterable[int], other: Iterable[int]) -> bool:
    """Dominance order: every prefix sum of ``parts`` >= that of ``other``.

    Only partitions of equal size are comparable; anything else raises
    ValueError rather than silently returning False.
    """
    p = as_partition(parts)
    r = as_partition(other)
    if sum(p) != sum(r):
        raise ValueError(
            f"dominance is defined within a size class: |{p}| != |{r}|"
        )
    return _dominates(p, r)


def _dominates(p: Partition, r: Partition) -> bool:
    """``dominates`` of two checked partitions of one size.

    Past its last part a prefix sum stays at the common size, so p, if no
    longer than r, needs only its own prefixes checked; if longer, its prefix
    at r's length falls short of that size.
    """
    return len(p) <= len(r) and all(map(ge, accumulate(p), accumulate(r)))


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n, in reverse lexicographic order (Zoghbi and Stojmenovic's ZS1)."""
    if n > PART_CAP:
        raise ValueError(f"part {n} exceeds the part cap {PART_CAP}")
    if n < 1:
        yield from [_Checked()] * (n == 0)
        return
    x, m, h = [n] + [1] * (n - 1), 1, 0  # x[:m] is the partition, x[h] its last part above 1
    yield _Checked((n,))
    while x[0] > 1:
        if x[h] == 2:
            x[h], m, h = 1, m + 1, h - 1
        else:
            r = x[h] = x[h] - 1
            t = m - h  # the ones after x[h] and the unit just taken from it
            while t >= r:
                h += 1
                x[h], t = r, t - r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield _Checked(x[:m])


def partition_counts() -> Iterator[int]:
    """p(0), p(1), ...: the number of partitions of each n, by Euler's pentagonal recurrence."""
    counts = [1]
    while True:
        yield counts[-1]
        counts.append(_next_count(counts))


def _next_count(counts: list) -> int:
    """p(k) from counts = [p(0), ..., p(k - 1)]: the sum over the pentagonal numbers g <= k."""
    k, total, j, g = len(counts), 0, 1, 1  # g = j (3j - 1) / 2, and g + j pairs with it
    while g <= k:
        t = counts[k - g] + (counts[k - g - j] if g + j <= k else 0)
        total += t if j & 1 else -t
        j += 1
        g += 3 * j - 2
    return total


# ---------------------------------------------------------------------------
# Text forms.  Accepted everywhere a partition is read:
#   comma list          10,7,3
#   bracket list        [10,7,3]
#   multiset form       [4^2,3,2^2]      (caret = multiplicity)
#   empty               e   or   []
#   frequency form      f:(0,2,1,2)      (parens optional)
# ---------------------------------------------------------------------------

_ENTRY_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def _quoted(text: str) -> str:
    """At most the first 30 characters of a text, and its length, for an error message."""
    return f"{text[:30]!r}{'...' if len(text) > 30 else ''} (length {len(text)})"


def parse_partition(text: str) -> Partition:
    """Parse one of the accepted partition text forms.

    Raises ValueError with the offending position on malformed input, and
    before any part is listed if the size (sum of part * multiplicity)
    exceeds ``SIZE_CAP``.  The entry checks alone make the sorted parts a
    checked partition: each listed part is an int of at least 1, and
    part * mult <= size <= ``SIZE_CAP`` < ``PART_CAP``.
    """
    s = text.strip()
    if s in ("e", "ε"):
        return as_partition(())
    if not s:
        raise ValueError("empty partition text (use 'e' or '[]' for the empty partition)")
    freq = s[:2] in ("f:", "F:")
    s = s[2:].strip() if freq else s
    if s[:1] + s[-1:] == ("()" if freq else "[]"):
        s = s[1:-1].strip()
    if not s:
        return as_partition(())
    parts = []
    total = 0
    for col, entry in enumerate(s.split(","), 1):
        e = entry.strip()
        if freq:  # the entry at col is the multiplicity of the part col
            if not e.isdecimal():  # as int() and _ENTRY_RE; isdigit() also passes '²'
                raise ValueError(
                    f"bad frequency entry {_quoted(entry)} at position {col} of {_quoted(text)}"
                )
            part, mult = col, int(e)
        elif m := _ENTRY_RE.match(e):
            part, mult = int(m[1]), int(m[2]) if m[2] else 1
            if part < 1:
                raise ValueError(f"part must be positive, got {_quoted(entry)} in {_quoted(text)}")
        else:
            raise ValueError(f"bad part entry {_quoted(entry)} at position {col} of {_quoted(text)}")
        total += part * mult
        if total > SIZE_CAP:
            raise ValueError(f"size exceeds the size cap {SIZE_CAP} at position {col} of {_quoted(text)}")
        parts.extend([part] * mult)
    return _Checked(sorted(parts, reverse=True))


def format_partition(parts: Iterable[int]) -> str:
    """Multiset bracket form: (9,5,1,1,1,1,1,1) -> \"[9,5,1^6]\"."""
    runs = ((x, len(list(g))) for x, g in groupby(as_partition(parts)))
    return "[" + ",".join(f"{x}^{m}" if m > 1 else str(x) for x, m in runs) + "]"


def format_frequency(freq: Iterable[int]) -> str:
    f = as_frequency(freq)
    return "(" + ",".join(str(x) for x in f) + ")"
