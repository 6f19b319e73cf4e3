"""Integer partitions and their frequency-sequence representation.

A partition is a tuple of weakly decreasing positive parts; the empty tuple
is the empty partition.  Its frequency sequence is the tuple
``(f_1, f_2, ...)`` where ``f_i`` counts the parts equal to ``i``.  Frequency
tuples are 0-indexed in storage but 1-indexed in meaning: ``f[0]`` is the
multiplicity of part 1.  Trailing zeros are always stripped so that equality
of tuples is equality of sequences; the fictional entry ``f_0 = 0`` is never
stored.

Both representations are plain tuples, so values are hashable, immutable and
safe to share between threads.
"""

from __future__ import annotations

import re
from itertools import accumulate, groupby, zip_longest
from typing import Iterable, Iterator, NamedTuple

from . import kernels

Partition = tuple
FreqSeq = tuple

# Parts above this are almost certainly malformed input (ids, timestamps, ...).
PART_CAP = 10**6
# parse_partition lists every part, so it bounds the total size before doing so.
SIZE_CAP = 10**5


class Spread(NamedTuple):
    """A maximal interval [lo, hi] of the support of a frequency sequence."""

    lo: int
    hi: int

    @property
    def trivial(self) -> bool:
        return self.lo == self.hi


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and return a partition as a tuple.

    Raises ValueError unless the parts are weakly decreasing positive
    integers no greater than ``PART_CAP``.
    """
    p = tuple(parts)
    for i, x in enumerate(p):
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"part {x!r} is not an integer")
        if x < 1:
            raise ValueError(f"part {x} is not positive")
        if i and p[i - 1] < x:
            raise ValueError(f"parts not weakly decreasing at index {i}: {p}")
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
    return _frequency(as_partition(parts))


def _frequency(p: Partition) -> FreqSeq:
    if not p:
        return ()
    f = [0] * p[0]
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


def support(freq: Iterable[int]) -> tuple:
    """Indices i >= 1 with f_i != 0, ascending."""
    f = as_frequency(freq)
    return tuple(i for i, m in enumerate(f, 1) if m)


def _runs(f: FreqSeq) -> Iterator[tuple]:
    """(lo, hi) of each maximal run of non-zero entries of a validated f, 1-based."""
    lo = 0
    for i, m in enumerate(f, 1):
        if not m:
            if lo:
                yield lo, i - 1
                lo = 0
        elif not lo:
            lo = i
    if lo:
        yield lo, len(f)  # f has no trailing zeros


def spreads(freq: Iterable[int]) -> list:
    """Maximal intervals of the support, as Spread(lo, hi), sorted by lo."""
    return [Spread(lo, hi) for lo, hi in _runs(as_frequency(freq))]


def left_set(freq: Iterable[int]) -> frozenset:
    """L(f): every other support index of each spread, starting at its low end."""
    return frozenset(
        i for lo, hi in _runs(as_frequency(freq)) for i in range(lo, hi + 1, 2)
    )


def right_set(freq: Iterable[int]) -> frozenset:
    """R(f): every other support index of each spread, starting at its high end."""
    return _right_set(as_frequency(freq))


def _right_set(f: FreqSeq) -> frozenset:
    return frozenset(j for lo, hi in _runs(f) for j in range(hi, lo - 1, -2))


def two_measure(freq: Iterable[int]) -> int:
    """Maximum length of a super-distinct subpartition.

    Equals the largest subset of the support with no two consecutive
    indices, which is ceil(len/2) summed over the spreads.
    """
    return _two_measure(as_frequency(freq))


def _two_measure(f: FreqSeq) -> int:
    return sum((hi - lo + 2) // 2 for lo, hi in _runs(f))


def is_super_distinct(parts: Iterable[int]) -> bool:
    """True when successive parts differ by at least two."""
    return _super_distinct(as_partition(parts))


def _super_distinct(p: Partition) -> bool:
    return all(p[i] - p[i + 1] >= 2 for i in range(len(p) - 1))


def reduced(parts: Iterable[int]) -> Partition:
    """P - 1: subtract one from every part and drop the zeros."""
    p = as_partition(parts)
    return tuple(x - 1 for x in p if x > 1)


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
    # past its last part, a prefix sum stays at the common size
    return all(a >= b for a, b in zip_longest(accumulate(p), accumulate(r), fillvalue=sum(p)))


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n, in reverse lexicographic order (Zoghbi and Stojmenovic's ZS1)."""
    if n < 1:
        yield from [()] * (n == 0)
        return
    x, m, h = [n] + [1] * (n - 1), 1, 0  # x[:m] is the partition, x[h] its last part above 1
    yield (n,)
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
        yield tuple(x[:m])


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
    exceeds ``SIZE_CAP``.
    """
    s = text.strip()
    if s in ("e", "[]", "ε"):
        return ()
    if not s:
        raise ValueError("empty partition text (use 'e' or '[]' for the empty partition)")
    if s.startswith(("f:", "F:")):
        body = s[2:].strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        if not body:
            return ()
        freq = []
        for col, entry in enumerate(body.split(",")):
            e = entry.strip()
            if not e.isdigit():
                raise ValueError(
                    f"bad frequency entry {_quoted(entry)} at position {col + 1} of {_quoted(text)}"
                )
            freq.append(int(e))
        total = sum(i * m for i, m in enumerate(freq, 1))
        if total > SIZE_CAP:
            raise ValueError(f"size {total} of {_quoted(text)} exceeds the size cap {SIZE_CAP}")
        return to_partition(freq)
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1].strip()
        if not s:
            return ()
    parts = []
    total = 0
    for col, entry in enumerate(s.split(",")):
        m = _ENTRY_RE.match(entry.strip())
        if not m:
            raise ValueError(
                f"bad part entry {_quoted(entry)} at position {col + 1} of {_quoted(text)}"
            )
        part = int(m.group(1))
        mult = int(m.group(2)) if m.group(2) else 1
        if part < 1:
            raise ValueError(f"part must be positive, got {_quoted(entry)} in {_quoted(text)}")
        total += part * mult
        if total > SIZE_CAP:
            raise ValueError(
                f"size exceeds the size cap {SIZE_CAP} at position {col + 1} of {_quoted(text)}"
            )
        parts.extend([part] * mult)
    return as_partition(sorted(parts, reverse=True))


def format_partition(parts: Iterable[int]) -> str:
    """Multiset bracket form: (9,5,1,1,1,1,1,1) -> \"[9,5,1^6]\"."""
    runs = ((x, len(list(g))) for x, g in groupby(as_partition(parts)))
    return "[" + ",".join(f"{x}^{m}" if m > 1 else str(x) for x, m in runs) + "]"


def format_frequency(freq: Iterable[int]) -> str:
    f = as_frequency(freq)
    return "(" + ",".join(str(x) for x in f) + ")"
