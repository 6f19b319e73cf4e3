"""The Burge correspondence between partitions and binary words.

Frequency sequences split into two classes: ``f`` is *backward-closed*
(class B) when index 1 lies in the right set R(f), i.e. when 1 sits in a
spread of odd size; otherwise ``f`` is in class A.  Three operators act on
frequency sequences:

* ``apply_a`` promotes every forward pair ``(f_i, f_{i+1})``, for i in L(f),
  to ``(f_i - 1, f_{i+1} + 1)``; its image is class A.
* ``apply_b`` adds one to ``f_1`` and applies ``apply_a`` to the tail
  ``(f_2, f_3, ...)``; its image is class B.
* ``apply_del`` demotes every backward pair ``(f_{j-1}, f_j)``, for j in
  R(f), to ``(f_{j-1} + 1, f_j - 1)``; for j = 1 this just decrements
  ``f_1``.  It inverts both of the above on their respective images.

Iterating ``apply_del`` down to the empty sequence and recording the class
at each step yields the code word: a bijection onto the language
``(a*b)*a`` of words that end with a single ``a``.  The descents of the
code word (positions of ``ba``) read as a super-distinct partition give the
descent map, the combinatorial form of the dominant Jordan type in the
nilpotent commutator.

All pairs touched by one operator application are disjoint, and the
transfers of a spread are every second index from one end of it, so one
operator application is a handful of bitwise operations on the sequence
packed into one int.  ``encode`` and ``decode`` run their whole chain that
way (``kernels.letters`` and ``kernels.promoted``).  A lone unit above all
other entries is a spread of its own and moves one index per letter, so
the kernels keep it out of the int and move it by counting letters: the
word of a single part a costs O(a), not O(a^2).  ``apply_del`` and
``burge_chain``, which return every state, demote a plain list in one scan
over the spreads.  The public functions here validate their input once and
hand trusted data to the kernels in ``kernels`` (or to the private
helpers); what they return is an immutable tuple or string.  ``encode``'s
one ``apply_del`` call is kept only for the benchmark's smoke test
(ROADMAP item 6).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .partitions import (
    SIZE_CAP,
    Partition,
    FreqSeq,
    _partition,
    _quoted,
    _right_set,
    _two_measure,
    as_frequency,
    as_partition,
    is_super_distinct,
    reduced,
    to_frequency,
)

_WORD_OK_RE = re.compile(r"^[ab]*$")
_CODE_RE = re.compile(r"^(a*b)*a$")
CHAIN_CAP = 10**7  # cells that burge_chain may list: (|f| + 1) states, each at most len(f) long


def check_word(word: str) -> str:
    """Normalize a word over {a, b}.

    Parsing is case-insensitive and also accepts digits, 0 meaning a and
    1 meaning b.
    """
    w = word.strip().lower().replace("0", "a").replace("1", "b")
    if not _WORD_OK_RE.match(w):
        raise ValueError(f"word {_quoted(word)} contains letters outside {{a, b}}")
    return w


def _letter(f: FreqSeq) -> str:
    """Class letter of a validated f, from the parity of the spread at index 1."""
    return "ab"[(f.index(0) if 0 in f else len(f)) % 2]


def apply_a(freq: Iterable[int]) -> FreqSeq:
    return kernels.promoted("a", as_frequency(freq))


def apply_b(freq: Iterable[int]) -> FreqSeq:
    return kernels.promoted("b", as_frequency(freq))


def apply_del(freq: Iterable[int]) -> FreqSeq:
    return _demoted(as_frequency(freq))


def _demoted(f: FreqSeq) -> FreqSeq:
    g = list(f)
    kernels.demote(g)
    return tuple(g)


@dataclass(frozen=True)
class BurgeChain:
    """The iterated apply_del states of f, and the class letters along them.

    ``states[i]`` is the i-th iterate, ending with the empty sequence;
    ``word[i]`` is 'a' or 'b' according to the class of ``states[i]``.
    """

    states: tuple
    word: str


def burge_chain(freq: Iterable[int]) -> BurgeChain:
    """The iterated demotion states of f and their class letters.

    Raises ValueError, before listing any state, when (|f| + 1) len(f) exceeds
    ``CHAIN_CAP``: each demotion lowers the size by the two-measure, which is at
    least 1, so there are at most |f| + 1 states, and none is longer than f.
    """
    f = as_frequency(freq)
    n = kernels.size(f)
    if (cells := (n + 1) * len(f)) > CHAIN_CAP:
        raise ValueError(
            f"chain of size {n} and largest part {len(f)}: (n + 1) len(f) = {cells}"
            f" exceeds the chain cap {CHAIN_CAP}"
        )
    states = [f]
    while f:
        f = _demoted(f)
        states.append(f)
    return BurgeChain(tuple(states), "".join(map(_letter, states)))


def encode(freq: Iterable[int]) -> str:
    """Code word of a frequency sequence.

    The word shifts under demotion: it is the class letter of f followed
    by the word of apply_del(f).  The first letter is read from the spread
    at index 1 and the packed demotion kernel takes the rest, after one
    ``apply_del`` call kept only for the benchmark's smoke test.
    """
    f = as_frequency(freq)
    return _word(f, apply_del(f))


def _word(f: FreqSeq, df: FreqSeq) -> str:
    """Code word of a validated f from its demotion df = apply_del(f)."""
    return _letter(f) + kernels.letters(df) + "a" if f else "a"


def decode(word: str) -> FreqSeq:
    """Inverse of encode: rebuild f by applying the letters right to left.

    Rejects words outside (a*b)*a; a leading run of a's is fine ("aaba"),
    but a trailing "aa" is not.  The partition has size maj(w), so a word
    whose maj exceeds ``SIZE_CAP`` is rejected before the first letter.
    """
    w = check_word(word)
    if not _CODE_RE.match(w):
        raise ValueError(f"word {_quoted(word)} does not end with a single trailing 'a'")
    n = sum(_descents(w))
    if n > SIZE_CAP:
        raise ValueError(f"code word of size {n} exceeds the size cap {SIZE_CAP}")
    return kernels.promoted(w)


def _descents(w: str) -> tuple:
    """Positions i with w[i] = b and w[i+1] = a, ascending, 1-based, in a checked word."""
    out = []
    i = w.find("ba")
    while i >= 0:
        out.append(i + 1)
        i = w.find("ba", i + 2)
    return tuple(out)


def descent_map(parts: Iterable[int]) -> Partition:
    """Descent positions of the code word of P, read as a partition.

    The result is super-distinct, of the same size as P, and is the
    dominance-maximum Jordan type occurring in the nilpotent commutator of
    a nilpotent matrix of Jordan type P.
    """
    return _descents(encode(to_frequency(parts)))[::-1]


def _characterization(p: Partition, f: FreqSeq, df: FreqSeq, word: str) -> tuple:
    """Seven tests of super-distinctness on P, its f, del f and its code word; all agree.

    In order: the parts differ pairwise by >= 2; the length equals the
    two-measure; the code word has no bb; f_i = 1 on R(f) and 0 elsewhere;
    del f = (f_2, f_3, ...); the partition of del f is P - 1; and the
    descent map fixes P.
    """
    rset = _right_set(f)
    return (
        is_super_distinct(p),
        sum(f) == _two_measure(f),
        "bb" not in word,
        all(m == (1 if i in rset else 0) for i, m in enumerate(f, 1)),
        df == f[1:],  # f has no trailing zeros, so neither has f[1:]
        _partition(df) == reduced(p),
        _descents(word)[::-1] == p,
    )
