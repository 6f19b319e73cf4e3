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
from .burge import _demoted, apply_del
from .errors import BudgetError
from .partitions import FreqSeq, Partition, as_frequency, spreads

DEFAULT_CHAIN_LIMIT = 10**5


def evaluate(freq: Iterable[int], i: int) -> int:
    """Evaluation of f at index i >= 0 (index 0 evaluates as index 1)."""
    f = as_frequency(freq)
    if i < 0:
        raise ValueError("evaluation index must be nonnegative")
    return kernels.evaluate(f, i)


def annihilate(freq: Iterable[int], i: int) -> FreqSeq:
    """Annihilation of f at index i >= 0: entries i and i+1 spliced out."""
    f = as_frequency(freq)
    if i < 0:
        raise ValueError("annihilation index must be nonnegative")
    return _annihilated(f, i)


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


def right_admissible(freq: Iterable[int]) -> frozenset:
    """Indices i >= 1 with f_i > 0 that are not the right end of a nontrivial spread."""
    return frozenset(i for s in spreads(freq) for i in range(s.lo, s.hi + s.trivial))


def left_admissible(freq: Iterable[int]) -> frozenset:
    """Indices i >= 0 with f_{i+1} > 0 such that i+1 is not the left end of a nontrivial spread."""
    return frozenset(i for s in spreads(freq) for i in range(s.lo - s.trivial, s.hi))


def equivalent_indices(freq: Iterable[int]) -> list:
    """Partition of the index range [0, max support + 1] by equal annihilation.

    Equal annihilations force equal evaluations, so classes agree on both.
    The returned classes are sorted lists ordered by smallest member; the
    last class is unbounded (it stands for everything from its smallest
    member on, where annihilation no longer changes f).
    """
    f = as_frequency(freq)
    groups: dict = {}
    for i in range(0, len(f) + 2):
        groups.setdefault(_annihilated(f, i), []).append(i)
    return sorted(groups.values())


def _successors(f: FreqSeq) -> dict:
    """Successor states of a validated f -> the smallest maximal index annihilating to each.

    The items come in ascending index order.
    """
    out: dict = {}
    for i in kernels.max_evaluation(f)[1]:
        out.setdefault(_annihilated(f, i), i)
    return out


@dataclass(frozen=True)
class OblakChain:
    """One run of the process: states from f down to empty, and the chosen indices.

    ``states[r] == annihilate(states[r-1], indices[r-1])`` with each chosen
    index maximal for the state it acts on.
    """

    states: tuple
    indices: tuple

    @property
    def valuation(self) -> Partition:
        """Recorded evaluations, recomputed by the kernels from size drops as a self-check."""
        states = [as_frequency(s) for s in self.states]
        if min(self.indices, default=0) < 0:
            raise ValueError("evaluation index must be nonnegative")
        vals = []
        for r, i in enumerate(self.indices):
            drop = kernels.size(states[r]) - kernels.size(states[r + 1])
            ev = kernels.evaluate(states[r], i)
            if drop != ev:
                raise ValueError(
                    f"corrupt chain: size drop {drop} != evaluation {ev} at step {r}"
                )
            vals.append(ev)
        return tuple(vals)


def is_valid_chain(chain: OblakChain) -> bool:
    """Recompute every step of a chain: maximal choices, matching states."""
    if len(chain.states) != len(chain.indices) + 1:
        return False
    if not chain.states or chain.states[-1] != ():
        return False
    for r, i in enumerate(chain.indices):
        state = as_frequency(chain.states[r])
        if i not in kernels.max_evaluation(state)[1]:
            return False
        if _annihilated(state, i) != chain.states[r + 1]:
            return False
    return True


def is_valid_index_sequence(freq: Iterable[int], indices: Iterable[int]) -> bool:
    """True when the given indices drive f to empty via maximal choices."""
    state = as_frequency(freq)
    for i in indices:
        if i not in kernels.max_evaluation(state)[1]:
            return False
        state = _annihilated(state, i)
    return state == ()


def oblak_chain(freq: Iterable[int]) -> OblakChain:
    """Deterministic run: always the smallest maximal index."""
    f = list(as_frequency(freq))
    states = [tuple(f)]
    indices = []
    for i, _ in kernels.oblak_steps(f):
        indices.append(i)
        states.append(tuple(f))
    return OblakChain(tuple(states), tuple(indices))


def oblak(freq: Iterable[int]) -> Partition:
    """Output of the process: the valuation of any chain, sorted decreasing.

    The successive values decrease by at least two, so no sort is needed;
    choice independence makes the deterministic chain representative.
    The kernel runs every step and checks that its size drop equals its
    evaluation.  The empty test goes through the public
    ``maximal_indices`` only for the benchmark's counter (ROADMAP item 6).
    """
    f = as_frequency(freq)
    if not maximal_indices(f):  # f is empty
        return ()
    return tuple(v for _, v in kernels.oblak_steps(list(f)))


def oblak_all_chains(freq: Iterable[int], limit: int = DEFAULT_CHAIN_LIMIT) -> list:
    """Every chain for f, branching over inequivalent maximal indices.

    Equivalent indices give identical successor states, so one
    representative (the smallest) is explored per equivalence class.
    Chains come back sorted by index sequence.  Raises BudgetError when
    more than ``limit`` chains would be produced.
    """
    f = as_frequency(freq)
    out: list = []

    def rec(state, states, indices):
        if not state:
            if len(out) >= limit:
                raise BudgetError(
                    f"chain enumeration for {f} exceeds limit {limit}"
                )
            out.append(OblakChain(tuple(states), tuple(indices)))
            return
        for nxt, i in _successors(state).items():
            rec(nxt, states + [nxt], indices + [i])

    rec(f, [f], [])
    return out


def del_chain(chain: OblakChain) -> OblakChain:
    """Image of a chain under apply_del, state by state.

    When the penultimate state is (1) the final step collapses (its
    evaluation was 1), so that state is dropped; otherwise every state maps
    across.  The returned chain carries a freshly derived valid index
    sequence for the new states.
    """
    states = chain.states
    if len(states) >= 2 and states[-2] == (1,):
        new_states = tuple(apply_del(s) for s in states[:-1])
    else:
        new_states = tuple(apply_del(s) for s in states)
    return OblakChain(new_states, _indices_for_states(new_states))


def _indices_for_states(states: tuple) -> tuple:
    indices = []
    for here, nxt in zip(states, states[1:]):
        i = _successors(here).get(nxt)
        if i is None:
            raise ValueError(f"no maximal index carries {here} to {nxt}; not a chain")
        indices.append(i)
    return tuple(indices)


def check_commuting_square(freq: Iterable[int], i: int) -> bool:
    """Does annihilation at i commute with apply_del, evaluation dropping by 1?

    Guaranteed when i is left admissible for f or right admissible for
    apply_del(f); may hold or fail otherwise.
    """
    f = as_frequency(freq)
    if i < 0:
        raise ValueError("evaluation index must be nonnegative")
    df = _demoted(f)
    return (
        kernels.evaluate(df, i) == kernels.evaluate(f, i) - 1
        and _annihilated(df, i) == _demoted(_annihilated(f, i))
    )
