"""The Oblak process on frequency sequences.

Evaluation at i scores the pair ``(f_i, f_{i+1})`` together with twice
everything above it; annihilation at i splices that pair out:

    evaluate(f, i)   = i*f_i + (i+1)*f_{i+1} + 2 * sum(f_j for j > i+1)
    annihilate(f, i) = (f_1, ..., f_{i-1}, f_{i+2}, f_{i+3}, ...)

Index 0 is an alias for index 1 in both.  The process greedily picks an
index of maximum nonzero evaluation, records the evaluation, annihilates,
and repeats until the sequence is empty.  The recorded values form a
partition that is independent of the choices made and coincides with the
descent map of the corresponding partition; this module computes it
without touching the code-word machinery, so the two routes can be checked
against each other.

The public functions validate their input once; the process itself runs
in ``kernels`` on a plain list, with all evaluations of a state taken in
one backward pass over a running suffix sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .burge import apply_del
from .partitions import FreqSeq, Partition, as_frequency

DEFAULT_CHAIN_LIMIT = 10**5


def _index(i: int) -> int:
    """An index, returned once it is an int (not a bool) and at least 0."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"index {i!r} is not a nonnegative integer")
    return i


def evaluate(freq: Iterable[int], i: int) -> int:
    """Evaluation of f at index i, an int >= 0 and not a bool (index 0 evaluates as index 1)."""
    return kernels.evaluate(as_frequency(freq), _index(i))


def annihilate(freq: Iterable[int], i: int) -> FreqSeq:
    """Annihilation of f at index i, an int >= 0 and not a bool: entries i and i+1 spliced out."""
    return _annihilated(as_frequency(freq), _index(i))


def _annihilated(f: FreqSeq, i: int) -> FreqSeq:
    g = list(f)
    kernels.annihilate(g, i)
    return tuple(g)


def maximal_indices(freq: Iterable[int]) -> tuple:
    """All indices achieving the maximum nonzero evaluation, ascending.

    Beyond the support window [0, max support] every evaluation is zero,
    so only that window is searched.  Empty input has no maximal index.
    """
    return kernels.max_evaluation(as_frequency(freq))[1]


def _successors(f: FreqSeq, indices: tuple) -> dict:
    """Successor states of a validated f -> the smallest of its maximal ``indices`` giving each.

    ``indices`` is ``kernels.max_evaluation(f)[1]``, which the caller has
    already read; the items come in ascending index order.
    """
    out: dict = {}
    for i in indices:
        out.setdefault(_annihilated(f, i), i)
    return out


@dataclass(frozen=True)
class OblakChain:
    """One run of the process: states from f down to empty, and the chosen indices.

    ``states[r] == annihilate(states[r-1], indices[r-1])`` with each chosen
    index maximal for the state it acts on.  Every chain, the process's own
    included, is checked when it is made: its states are validated and their
    trailing zeros stripped, each index is an int >= 0 and not a bool, and one
    index lies between each two states.  The steps themselves are not checked.
    """

    states: tuple
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(map(as_frequency, self.states)))
        object.__setattr__(self, "indices", tuple(map(_index, self.indices)))
        if len(self.states) != len(self.indices) + 1:
            raise ValueError(f"{len(self.states)} states need one index between each two,"
                             f" got {len(self.indices)} indices")

    @property
    def valuation(self) -> Partition:
        """Recorded evaluations, recomputed by the kernels from size drops as a self-check."""
        states, vals = self.states, []
        for r, i in enumerate(self.indices):
            drop = kernels.size(states[r]) - kernels.size(states[r + 1])
            ev = kernels.evaluate(states[r], i)
            if drop != ev:
                raise ValueError(
                    f"corrupt chain: size drop {drop} != evaluation {ev} at step {r}"
                )
            vals.append(ev)
        return tuple(vals)


def oblak(freq: Iterable[int]) -> Partition:
    """Output of the process: the valuation of any chain, sorted decreasing.

    The successive values decrease by at least two, so no sort is needed;
    choice independence makes the deterministic chain representative.
    The kernel runs every step and checks that its size drop equals its
    evaluation.  The empty test goes through the public
    ``maximal_indices`` only for the benchmark's counter (ROADMAP item 6).
    """
    f = as_frequency(freq)
    if not maximal_indices(f):  # no maximal index: f is empty
        return ()
    return tuple(v for _, v in kernels.oblak_steps(list(f)))


def oblak_all_chains(freq: Iterable[int], limit: int = DEFAULT_CHAIN_LIMIT) -> list:
    """Every chain for f, branching over inequivalent maximal indices.

    Equivalent indices give identical successor states, so one
    representative (the smallest) is explored per equivalence class.
    Chains come back sorted by index sequence.  Raises ValueError when
    more than ``limit`` chains would be produced.
    """
    f = as_frequency(freq)
    out: list = []

    def rec(state, states, indices):
        if not state:
            if len(out) >= limit:
                raise ValueError(f"chain enumeration for {f} exceeds limit {limit}")
            out.append(OblakChain(states, indices))
            return
        for nxt, i in _successors(state, kernels.max_evaluation(state)[1]).items():
            rec(nxt, states + [nxt], indices + [i])

    rec(f, [f], [])
    return out


def check_commuting_square(freq: Iterable[int], i: int) -> bool:
    """Does annihilation at i commute with apply_del, evaluation dropping by 1?

    Guaranteed when i is left admissible for f: f_(i+1) > 0, and i+1 is not
    the low end of a spread (a maximal run of nonzero entries) of two or more
    indices.  Also guaranteed when i is right admissible for g = apply_del(f):
    i >= 1, g_i > 0, and i is not the high end of such a spread of g.  It may
    hold or fail otherwise.  Demotion goes through the public ``apply_del``,
    which keeps this module's binding of it in use for the benchmark's tracer
    (ROADMAP item 6).
    """
    f = as_frequency(freq)
    df = apply_del(f)
    return (
        evaluate(df, i) == evaluate(f, i) - 1
        and annihilate(df, i) == apply_del(annihilate(f, i))
    )
