"""Trusted kernels for the Burge and Oblak combinatorics.

The kernels validate nothing.  ``demote`` and the Oblak kernels take a
plain list of nonnegative ints without trailing zeros (a frequency
sequence, 0-indexed in storage); the ones that change the sequence do so
in place and keep that form, and ``demote`` leaves the class letter to
``burge._letter``.  ``letters`` and ``promoted`` run a whole chain of
demotions or promotions on the sequence packed into one int, one field of
w bits per entry, so that each operator application is a fixed run of
big-int operations.  The lone units above all other entries move one index
per letter, so both keep them out of the int: a large part alone costs no
more per letter than a small one.  ``oblak_step`` is the one checked Oblak
step: ``oblak_steps`` and the sweep's Oblak table both run it.  The public
functions in ``burge`` and ``oblak`` validate their input and return
immutable tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from operator import mul


def _strip(f: list) -> None:
    while f and not f[-1]:
        f.pop()


def demote(f: list) -> None:
    """Demote f in place, in one downward scan over its spreads."""
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
        k = lo - 2  # f[lo - 1] was zero before the transfer
    _strip(f)


@lru_cache(maxsize=64)
def _masks(w: int, m: int) -> tuple:
    """The low w - 1 bits of each of m fields of w bits; the top bit of each;
    bit 0 of the even fields; bit 0 of the odd ones."""
    ones = ((1 << w * m) - 1) // ((1 << w) - 1)
    even = ((1 << w * (m + m % 2)) - 1) // ((1 << 2 * w) - 1)
    half = ones << (w - 1)
    return half - ones, half, even, ones ^ even


def _pack(fields, w: int) -> int:
    """The entries in fields of w bits, the first on top, in one conversion (not a shift each)."""
    spec = f"0{w}b"
    codes = {x: format(x, spec) for x in set(fields)}  # each distinct entry once
    return int("".join(map(codes.__getitem__, fields)) or "0", 2)


# Packed form: f in m fields of w = sum(f).bit_length() + 1 bits.  No entry
# exceeds the number of parts, so the top bit of each field is free.  The
# loops keep G = F + keep, each field holding its entry plus 2^(w-1) - 1, so
# the top bit of a field is set exactly on the nonzero entries and no carry
# crosses fields; s, those bits shifted down to bit 0 of each field, is one
# flag per nonzero entry.  n = s * (2^w - 1), that is (s << w) - s, fills
# each flagged field with ones, so a spread is a run of ones in n.  The flags
# with none in the field below, on even fields, start the runs that start on
# an even field; adding them to n carries through exactly those runs, so
# odd ^ n ^ (n + starts), masked by s, holds the fields of each run that
# have its start's parity: d, one bit per transfer.  Each transfer moves one
# from its field to the next field up, so G + d * (2^w - 1) = G - d + (d << w)
# applies them all.  Demotion stores f_1 in the top field, so that each
# spread starts at its top index.  A transfer out of index 1 (f_1 gives to
# no f_0) carries past the top field, where no mask reads it, so the letter
# loop leaves it there; & full drops it before the lone-unit code reads the
# entries.  Promotion stores f_1 in the bottom field; its b-step clears that
# field's flag and adds one.
# A lone unit (f_j = 1, f_(j-1) = 0) over all other entries is a spread of
# its own.  Demotion packs it only once it is one index above the packed top,
# which falls at most one index per letter, or runs it down to e_2 in a's.
# Promotion drops it when the int outgrows its masks: the packed top rises at
# most one index per letter, so the unit stays alone up to its final index.


def letters(f) -> str:
    """Class letters of f, apply_del(f), ... down to (but not past) the empty sequence."""
    w, m = sum(f).bit_length() + 1, len(f)
    units = []  # lone units above the packed entries: index in f, less one per letter
    while m > 1 and f[m - 1] == 1 and not f[m - 2]:
        units.append(m)
        m -= 2
        while m and not f[m - 1]:
            m -= 1
    keep, half, even, odd = _masks(w, m)
    full, top, w1, low = (1 << w * m) - 1, w * (m - 1), w - 1, (1 << w) - 1
    G = _pack(f[:m], w) + keep  # f_1 in the top field
    out, t = [], m  # t: the top packed index
    while True:
        # the lowest unit is at least 2 above the packed top for this many letters
        for _ in range(units[-1] - len(out) - t - 1) if units else count():
            s = (G & half) >> w1
            if not s:
                break
            n = s * low
            d = s & (odd ^ n ^ (n + (s & ~(s << w) & even)))
            out.append("ab"[d >> top])  # 1 is in R(f): f_1 gives to no f_0
            G += d * low
        if not units:
            return "".join(out)
        F = (G & full) - keep
        j = units[-1] - len(out)
        if F:
            t = m - ((F & -F).bit_length() - 1) // w  # the lowest nonzero field
            if j - t > 1:
                continue
        else:  # e_j demotes to e_(j-1) with letter a, down to e_2
            out += "a" * (j - 2)
            j = 2
        units.pop()  # it joins the packed entries as their top
        F, m, t = (F << w * j >> w * m) + 1, j, j  # exact: no field over index t is set
        keep, half, even, odd = _masks(w, m)
        full, top = (1 << w * m) - 1, w * (m - 1)
        G = F + keep


def promoted(word: str, f=()) -> tuple:
    """f promoted by the letters of a word, the last letter first.

    The a-step promotes f; the b-step promotes f_2, f_3, ... and then adds
    one to f_1.  When the int outgrows its masks, its lone top units leave
    it and the masks are rebuilt for twice the fields left.
    """
    w = (sum(f) + word.count("b")).bit_length() + 1
    m = len(f) + 1
    keep, half, even, odd = _masks(w, m)
    w1, tail, low, bound = w - 1, -1 << w, (1 << w) - 1, 1 << w * m
    G = _pack(f[::-1], w) + keep  # f_1 in the bottom field
    units = []  # final indices of the units that left
    for i in range(len(word) - 1, -1, -1):
        if G >= bound:
            F = G - keep
            t = (F.bit_length() - 1) // w  # the top field, index t + 1
            while t > 0 and F >> w * t == 1 and not (F >> w * (t - 1)) & low:
                units.append(t + 2 + i)  # it rises once more per letter left
                F ^= 1 << w * t
                t = (F.bit_length() - 1) // w
            m = 2 * t + 2
            keep, half, even, odd = _masks(w, m)
            bound = 1 << w * m
            G = F + keep
        s = (G & half) >> w1
        if word[i] == "b":
            s &= tail
            G += 1
        n = s * low
        d = s & (odd ^ n ^ (n + (s & ~(s << w) & even)))
        G += d * low
    F = G - keep
    bits = format(F, f"0{-(-F.bit_length() // w) * w}b") if F else ""  # one conversion back
    fields = [bits[i : i + w] for i in range(0, len(bits), w)]
    codes = {x: int(x, 2) for x in set(fields)}
    out = list(map(codes.__getitem__, reversed(fields)))
    for j in units:
        out += [0] * (j - len(out))
        out[j - 1] = 1
    return tuple(out)


def max_evaluation(f) -> tuple:
    """(maximum evaluation, every index reaching it, ascending); (0, ()) for empty f.

    One backward pass: the evaluation at i is i*f_i + (i+1)*f_(i+1) +
    2*(f_(i+2) + f_(i+3) + ...), with that suffix sum kept running; index
    0 evaluates as index 1.
    """
    best, at = 0, []
    tail = nxt = 0  # f_(i+2) + f_(i+3) + ..., and f_(i+1)
    i = len(f)
    for x in reversed(f):
        v = i * x + (i + 1) * nxt + 2 * tail
        if v > best:
            best, at = v, [i]
        elif v == best:
            at.append(i)
        tail += nxt
        nxt = x
        i -= 1
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
    return sum(map(mul, f, count(1)))


def oblak_step(f: list, before: int) -> tuple:
    """Annihilate a nonempty f of size ``before`` at its first maximal index: (index, evaluation).

    A size drop other than the evaluation fails the self-check: AssertionError.
    """
    ev, indices = max_evaluation(f)
    annihilate(f, indices[0])
    if (drop := before - size(f)) != ev:
        raise AssertionError(f"corrupt chain: size drop {drop} != evaluation {ev}")
    return indices[0], ev


def oblak_steps(f: list):
    """Run ``oblak_step`` on f down to empty, yielding (index, evaluation) of each step."""
    n = size(f)
    while f:
        i, ev = oblak_step(f, n)
        n -= ev
        yield i, ev
