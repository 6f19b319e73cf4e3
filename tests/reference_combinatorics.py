"""Reference implementations of the Burge operators and the Oblak process.

These are the direct, tuple-based transcriptions of the definitions that
the package's kernels replaced: every operator recomputes its
index sets from the spreads and every evaluation sums its suffix afresh.
They are slow (the maximal-index search is quadratic in the support) and
exist only as a test oracle for ``test_kernels.py``; ``all_chains`` is
the one for ``oblak_all_chains``.  The recursive partition enumerator and
the diagonal hooks with each leg counted afresh are the ones the package's
iterative and linear versions replaced.

The spreads, L(f) and R(f), the admissible indices, index equivalence, the
chain checks, the image of a chain under demotion and the word statistics
(descent set, major index, inversions) were once package functions that
only tests called; they live here, built on the references above them.
The size and the two-measure are counted afresh, with no package kernel.
"""

import itertools

from burgebox.oblak import OblakChain
from burgebox.partitions import as_frequency, as_partition


def partitions_of(n):
    """All partitions of n in reverse lexicographic order, by recursion on the first part."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def diagonal_hooks(parts):
    """Hooks p_i - i + (parts >= i) - i + 1 at the diagonal cells, each leg a fresh count."""
    p = as_partition(parts)
    durfee = max((i for i, x in enumerate(p, 1) if x >= i), default=0)
    return tuple(p[i - 1] - i + sum(1 for x in p if x >= i) - i + 1 for i in range(1, durfee + 1))


def spreads(freq):
    """(lo, hi) of each maximal run of nonzero entries of f, 1-based, in ascending order."""
    out, lo = [], 0
    for i, m in enumerate(as_frequency(freq) + (0,), 1):
        if m and not lo:
            lo = i
        elif not m and lo:
            out.append((lo, i - 1))
            lo = 0
    return out


def size(freq):
    """|f| = sum of i * f_i, one product at a time."""
    return sum(i * m for i, m in enumerate(as_frequency(freq), 1))


def two_measure(freq):
    """The largest subset of the support with no two consecutive indices.

    Exhaustive over subsets when the support is small, a take-or-skip
    recursion otherwise.
    """
    supp = tuple(i for i, m in enumerate(as_frequency(freq), 1) if m)
    if len(supp) <= 14:
        for r in range(len(supp), 0, -1):
            for sub in itertools.combinations(supp, r):
                if all(b - a >= 2 for a, b in zip(sub, sub[1:])):
                    return r
        return 0
    best = [0] * (len(supp) + 1)
    for k in range(len(supp) - 1, -1, -1):
        nxt = k + 1
        if nxt < len(supp) and supp[nxt] == supp[k] + 1:
            nxt += 1
        best[k] = max(best[k + 1], 1 + best[nxt])
    return best[0]


def left_set(freq):
    """L(f): every other support index of each spread, starting at its low end."""
    return frozenset(i for lo, hi in spreads(freq) for i in range(lo, hi + 1, 2))


def right_set(freq):
    """R(f): every other support index of each spread, starting at its high end."""
    return frozenset(j for lo, hi in spreads(freq) for j in range(hi, lo - 1, -2))


def in_class_b(freq):
    return 1 in right_set(freq)


def apply_a(freq):
    f = as_frequency(freq)
    out = list(f) + [0]  # a transfer may land one past the stored end
    for i in left_set(f):
        out[i - 1] -= 1
        out[i] += 1
    return as_frequency(out)


def apply_b(freq):
    f = as_frequency(freq)
    head = (f[0] if f else 0) + 1
    return as_frequency((head,) + apply_a(f[1:]))


def apply_del(freq):
    f = as_frequency(freq)
    out = list(f)
    for j in right_set(f):
        out[j - 1] -= 1
        if j >= 2:
            out[j - 2] += 1
    return as_frequency(out)


def burge_chain(freq):
    """(states, word) of the iterated demotion."""
    state = as_frequency(freq)
    states = []
    letters = []
    while True:
        states.append(state)
        letters.append("b" if in_class_b(state) else "a")
        if not state:
            return tuple(states), "".join(letters)
        state = apply_del(state)


def encode(freq):
    return burge_chain(freq)[1]


def decode(word):
    state = ()
    for ch in reversed(word):
        state = apply_b(state) if ch == "b" else apply_a(state)
    return state


def evaluate(freq, i):
    f = as_frequency(freq)
    if i == 0:
        i = 1
    fi = f[i - 1] if i <= len(f) else 0
    fi1 = f[i] if i + 1 <= len(f) else 0
    return i * fi + (i + 1) * fi1 + 2 * sum(f[i + 1:])


def annihilate(freq, i):
    f = as_frequency(freq)
    if i == 0:
        i = 1
    return as_frequency(f[: i - 1] + f[i + 1:])


def maximal_indices(freq):
    f = as_frequency(freq)
    if not f:
        return ()
    vals = [evaluate(f, i) for i in range(len(f) + 1)]
    m = max(vals)
    return tuple(i for i, v in enumerate(vals) if v == m)


def oblak_chain(freq):
    """(states, indices) of the run that always takes the smallest maximal index."""
    state = as_frequency(freq)
    states = [state]
    indices = []
    while state:
        i = maximal_indices(state)[0]
        indices.append(i)
        state = annihilate(state, i)
        states.append(state)
    return tuple(states), tuple(indices)


def oblak(freq):
    states, indices = oblak_chain(freq)
    vals = []
    for r, i in enumerate(indices):
        ev = evaluate(states[r], i)
        assert size(states[r]) - size(states[r + 1]) == ev
        vals.append(ev)
    return tuple(vals)


def right_admissible(freq):
    """Indices i >= 1 with f_i > 0 that are not the high end of a spread of two or more indices."""
    return frozenset(i for lo, hi in spreads(freq) for i in range(lo, hi + (lo == hi)))


def left_admissible(freq):
    """Indices i >= 0 with f_(i+1) > 0 such that i+1 is not the low end of a spread of two or more."""
    return frozenset(i for lo, hi in spreads(freq) for i in range(lo - (lo == hi), hi))


def equivalent_indices(freq):
    """The indices 0..(max support + 1) grouped by equal annihilation, each group sorted, by least member.

    The last group stands for every index from its least member on, where
    annihilation no longer changes f.
    """
    f = as_frequency(freq)
    groups = {}
    for i in range(len(f) + 2):
        groups.setdefault(annihilate(f, i), []).append(i)
    return sorted(groups.values())


def chain_of(states, indices):
    """The record of states and indices, with the evaluations of this module as its valuation."""
    return OblakChain(tuple(states), tuple(indices), tuple(map(evaluate, states, indices)))


def all_chains(freq):
    """Every chain of f, sorted by index sequence: one per state reached, by its smallest index."""
    f = as_frequency(freq)
    if not f:
        return [chain_of([f], [])]
    firsts = {}
    for i in maximal_indices(f):
        firsts.setdefault(annihilate(f, i), i)
    return [
        chain_of([f, *c.states], [i, *c.indices])
        for g, i in firsts.items()
        for c in all_chains(g)
    ]


def is_valid_chain(chain):
    """Every step recomputed: each index maximal for its state, annihilating it to the next,
    with its evaluation recorded, and one index and one evaluation between each two states."""
    s, vals = chain.states, chain.valuation
    return len(s) == len(chain.indices) + 1 == len(vals) + 1 and s[-1] == () and all(
        i in maximal_indices(s[r])
        and annihilate(s[r], i) == s[r + 1]
        and evaluate(s[r], i) == vals[r]
        for r, i in enumerate(chain.indices)
    )


def is_valid_index_sequence(freq, indices):
    """True when the indices drive f to empty via maximal choices."""
    states = [as_frequency(freq)]
    for i in indices:
        states.append(annihilate(states[-1], i))
    return is_valid_chain(chain_of(states, indices))


def del_chain(chain):
    """Image of a chain under apply_del, state by state, as a chain of smallest carrying indices.

    When the penultimate state is (1) the final step collapses (its
    evaluation was 1), so that state is dropped; every other state maps
    across.  ValueError when no maximal index carries one image to the next.
    """
    states = chain.states
    if len(states) >= 2 and states[-2] == (1,):
        states = states[:-1]
    states = [apply_del(s) for s in states]
    indices = []
    for here, nxt in zip(states, states[1:]):
        carrying = [i for i in maximal_indices(here) if annihilate(here, i) == nxt]
        if not carrying:
            raise ValueError(f"no maximal index carries {here} to {nxt}; not a chain")
        indices.append(carrying[0])
    return chain_of(states, indices)


def descent_set(word):
    """Positions i with word[i] = b and word[i+1] = a, ascending, 1-based."""
    return tuple(i for i in range(1, len(word)) if word[i - 1:i + 1] == "ba")


def maj(word):
    """The major index: the sum of the descent set."""
    return sum(descent_set(word))


def inversions(word):
    """Number of pairs i < j with word[i] = b and word[j] = a."""
    inv = bs = 0
    for ch in word:
        if ch == "b":
            bs += 1
        else:
            inv += bs
    return inv
