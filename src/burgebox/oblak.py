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

The public functions validate their input once; the steps run in
``kernels``, which take all evaluations of a state in one backward pass
over a running suffix sum, return each new state as a tuple and check
that its size drop equals its evaluation.  An ``OblakChain`` records the
steps so checked; nothing here takes one as input or checks it again.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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
    return kernels.annihilate(as_frequency(freq), _index(i))


def maximal_indices(freq: Iterable[int]) -> tuple:
    """All indices achieving the maximum nonzero evaluation, ascending.

    Beyond the support window [0, max support] every evaluation is zero,
    so only that window is searched.  Empty input has no maximal index.
    """
    return kernels.max_evaluation(as_frequency(freq))[1]


class OblakChain(NamedTuple):
    """One run of the process: its states from f down to empty, indices and evaluations.

    ``states[r + 1] == annihilate(states[r], indices[r])``, where ``indices[r]``
    is the smallest maximal index of ``states[r]`` that gives that state and
    ``valuation[r]`` is its evaluation, which ``kernels.successors`` checked
    against the size drop.
    """

    states: tuple
    indices: tuple
    valuation: Partition


def oblak(freq: Iterable[int]) -> Partition:
    """Output of the process: the valuation of any chain, sorted decreasing.

    The successive values decrease by at least two, so no sort is needed;
    choice independence makes the deterministic chain representative.
    ``kernels.oblak_step`` takes each step and checks that its size drop
    equals its evaluation.  The empty test goes through the public
    ``maximal_indices`` only for the benchmark's counter (ROADMAP item 6).
    """
    f = as_frequency(freq)
    if not maximal_indices(f):  # no maximal index: f is empty
        return ()
    out, n = [], kernels.size(f)
    while f:
        ev, f = kernels.oblak_step(f, n)
        n -= ev
        out.append(ev)
    return tuple(out)


def oblak_all_chains(freq: Iterable[int], limit: int = DEFAULT_CHAIN_LIMIT) -> list:
    """Every chain for f, branching over inequivalent maximal indices.

    Equivalent indices give identical successor states, so one
    representative (the smallest) is explored per equivalence class.
    Chains come back sorted by index sequence.  Raises ValueError when
    more than ``limit`` chains would be produced.
    """
    f = as_frequency(freq)
    out: list = []

    def rec(state, states, indices, vals):
        if not state:
            if len(out) >= limit:
                raise ValueError(f"chain enumeration for {f} exceeds limit {limit}")
            out.append(OblakChain(states, indices, vals))
            return
        ev, nexts = kernels.successors(state)
        for nxt, i in nexts.items():
            rec(nxt, states + (nxt,), indices + (i,), vals + (ev,))

    rec(f, (f,), (), ())
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
    f, i = as_frequency(freq), _index(i)
    df = apply_del(f)
    return (
        kernels.evaluate(df, i) == kernels.evaluate(f, i) - 1
        and kernels.annihilate(df, i) == apply_del(kernels.annihilate(f, i))
    )
