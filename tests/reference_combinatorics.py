"""Reference implementations of the Burge operators and the Oblak process.

These are the direct, tuple-based transcriptions of the definitions that
the package's single-pass kernels replaced: every operator recomputes its
index sets from the spreads and every evaluation sums its suffix afresh.
They are slow (the maximal-index search is quadratic in the support) and
exist only as a test oracle for ``test_kernels.py``.  The recursive
partition enumerator and the diagonal hooks with each leg counted afresh
are the ones the package's iterative and linear versions replaced.
"""

from burgebox.partitions import as_frequency, as_partition, left_set, right_set, size


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
