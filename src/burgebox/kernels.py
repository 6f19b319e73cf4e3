"""Trusted single-pass kernels for the Burge and Oblak combinatorics.

Each kernel takes a plain list of nonnegative ints without trailing zeros
(a frequency sequence, 0-indexed in storage) and validates nothing; the
ones that change the sequence do so in place and keep that form.  The
public functions in ``burge`` and ``oblak`` validate their input and return
immutable tuples.
"""

from __future__ import annotations


def _strip(f: list) -> None:
    while f and not f[-1]:
        f.pop()


def demote(f: list) -> str:
    """Demote f in one downward scan over its spreads; return its class letter."""
    letter = "a"
    k = len(f) - 1
    while k >= 0:
        if not f[k]:
            k -= 1
            continue
        lo = k
        while lo and f[lo - 1]:
            lo -= 1
        for j in range(k, lo - 1, -2):
            f[j] -= 1
            if j:
                f[j - 1] += 1
        if not lo and not k % 2:  # 1 is in R(f): its spread has odd size
            letter = "b"
        k = lo - 2  # f[lo - 1] was zero before the transfer
    _strip(f)
    return letter


def promote(f: list, b: bool = False) -> None:
    """The a-step on f in one upward scan over its spreads.

    With b, the b-step instead: the a-step on f[1:], then one more f_1.
    """
    n = len(f)
    k = int(b)
    while k < n:
        if not f[k]:
            k += 1
            continue
        hi = k + 1
        while hi < n and f[hi]:
            hi += 1
        if hi == n:  # the spread [k, hi) is the top one: a move out of it lands past the end
            f.append(0)
            n += 1
        for j in range(k, hi, 2):
            f[j] -= 1
            f[j + 1] += 1
        k = hi + 1  # f[hi] was zero before the transfer
    _strip(f)
    if b:
        f[:1] = [f[0] + 1 if f else 1]


def max_evaluation(f) -> tuple:
    """(maximum evaluation, every index reaching it, ascending); (0, ()) for empty f.

    One backward pass: the evaluation at i is i*f_i + (i+1)*f_(i+1) +
    2*(f_(i+2) + f_(i+3) + ...), with that suffix sum kept running; index
    0 evaluates as index 1.
    """
    best, at = 0, []
    tail = nxt = 0  # f_(i+2) + f_(i+3) + ..., and f_(i+1)
    for i in range(len(f), 0, -1):
        v = i * f[i - 1] + (i + 1) * nxt + 2 * tail
        if v > best:
            best, at = v, [i]
        elif v == best:
            at.append(i)
        tail += nxt
        nxt = f[i - 1]
    if at and at[-1] == 1:
        at.append(0)
    return best, tuple(reversed(at))


def evaluate(f, i: int) -> int:
    """Evaluation of f at index i (1-based; 0 means 1)."""
    i = max(i, 1)
    fi = f[i - 1] if i <= len(f) else 0
    fi1 = f[i] if i < len(f) else 0
    return i * fi + (i + 1) * fi1 + 2 * sum(f[i + 1:])


def annihilate(f: list, i: int) -> None:
    """Splice entries i and i + 1 (1-based; 0 means 1) out of f."""
    i = max(i, 1)
    del f[i - 1 : i + 1]
    _strip(f)


def size(f) -> int:
    """|f| = sum of i * f_i."""
    return sum(i * m for i, m in enumerate(f, 1))


def oblak_steps(f: list):
    """Run the Oblak process on f at the smallest maximal index, down to empty.

    Yields (index, evaluation) after each annihilation, once the size drop
    has been checked against the evaluation.
    """
    before = size(f)
    while f:
        ev, indices = max_evaluation(f)
        annihilate(f, indices[0])
        after = size(f)
        if before - after != ev:
            raise ValueError(f"corrupt chain: size drop {before - after} != evaluation {ev}")
        yield indices[0], ev
        before = after
