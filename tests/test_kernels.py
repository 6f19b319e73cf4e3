"""The kernels, through the public API and directly, against the reference transcriptions."""

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

import reference_combinatorics as ref
from burgebox import kernels, sweep
from burgebox.boxes import coordinates_of, fiber
from burgebox.burge import apply_a, apply_b, apply_del, burge_chain, decode, descent_map, encode
from burgebox.oblak import maximal_indices, oblak, oblak_all_chains
from burgebox.partitions import (
    SIZE_CAP,
    _right_set,
    _two_measure,
    as_frequency,
    is_super_distinct,
    partitions_of,
    to_frequency,
    to_partition,
)
from burgebox.words import diagonal_hooks, durfee

ACCEPTANCE_BOUND = 25


def in_class_b(f):
    """Class B: the code word of f starts with b."""
    return encode(f)[0] == "b"


def oblak_chain(f):
    """The run that always takes the smallest maximal index: the first chain, as they come sorted."""
    return oblak_all_chains(f)[0]


def assert_burge_agrees(f):
    states, word = ref.burge_chain(f)
    chain = burge_chain(f)
    assert chain.states == states, f
    assert chain.word == word == encode(f), f
    assert decode(word) == ref.decode(word) == f, f
    assert descent_map(to_partition(f)) == ref.descent_set(word)[::-1]
    assert apply_del(f) == ref.apply_del(f), f
    assert apply_a(f) == ref.apply_a(f), f
    assert apply_b(f) == ref.apply_b(f), f
    assert in_class_b(f) == ref.in_class_b(f), f
    assert _right_set(f) == ref.right_set(f), f
    assert _two_measure(f) == ref.two_measure(f), f


def assert_oblak_agrees(f):
    assert maximal_indices(f) == ref.maximal_indices(f), f
    states, indices = ref.oblak_chain(f)
    chain = oblak_chain(f)
    assert (chain.states, chain.indices) == (states, indices), f
    assert oblak(f) == ref.oblak(f) == chain.valuation, f
    assert kernels.size(f) == ref.size(f), f
    for r, i in enumerate(indices):  # each step alone, from the reference's state
        g = list(states[r])
        assert kernels.oblak_step(g, ref.size(states[r])) == (i, ref.evaluate(states[r], i)), f
        assert tuple(g) == ref.annihilate(states[r], i) == states[r + 1], f


def all_freqs(max_n):
    for n in range(max_n + 1):
        for p in partitions_of(n):
            yield to_frequency(p)


def test_burge_kernels_match_reference_exhaustive():
    for f in all_freqs(ACCEPTANCE_BOUND):
        assert_burge_agrees(f)


def test_oblak_kernels_match_reference_exhaustive():
    for f in all_freqs(ACCEPTANCE_BOUND):
        assert_oblak_agrees(f)


# interior zeros, long supports and spreads of every length, past what a sweep visits
@given(st.lists(st.integers(0, 5), max_size=300).map(as_frequency))
def test_statistic_kernels_match_reference_on_sequences(f):
    assert _right_set(f) == ref.right_set(f)
    assert _two_measure(f) == ref.two_measure(f)
    assert kernels.size(f) == ref.size(f)
    if f:
        g, i = list(f), ref.maximal_indices(f)[0]
        assert kernels.oblak_step(g, ref.size(f)) == (i, ref.evaluate(f, i))
        assert tuple(g) == ref.annihilate(f, i)


def test_sweep_tables_match_the_whole_kernels_exhaustive():
    # the sweep builds each word and Oblak output by one step from smaller ones
    tables = sweep.Tables()
    for f in all_freqs(ACCEPTANCE_BOUND):
        assert tables.words[f] == encode(f), f
        assert tables.oblak[f] == oblak(f), f


def test_partitions_of_keeps_the_recursive_order():
    # the gf2-scan Levi walk and every sweep's first counterexample depend on this order
    for n in range(-1, 21):
        assert list(partitions_of(n)) == list(ref.partitions_of(n)), n
    assert list(partitions_of(-1)) == []
    assert list(partitions_of(0)) == [()]


def test_diagonal_hooks_match_reference_exhaustive():
    for n in range(17):
        for p in partitions_of(n):
            assert diagonal_hooks(p) == ref.diagonal_hooks(p), p


def test_decode_matches_reference_on_all_short_code_words():
    for n in range(2, 15):
        for bits in itertools.product("ab", repeat=n - 2):
            word = "".join(bits) + "ba"
            assert decode(word) == ref.decode(word), word


def seeded_partition(rng, size, largest, small_cap=None):
    """Parts uniform in [1, largest]; with small_cap, two large parts over many small ones."""
    parts = [largest] if small_cap is None else [largest, largest // 2]
    cap = largest if small_cap is None else small_cap
    while sum(parts) < size:
        parts.append(rng.randint(1, min(cap, size - sum(parts))))
    return tuple(sorted(parts, reverse=True))


# (size, largest part, small-part cap): the last three have a wide support
# with long code words
LARGE = (
    (1000, 60, None),
    (3000, 80, None),
    (10000, 100, None),
    (1000, 300, 10),
    (3000, 400, 20),
    (6000, 700, 3),
)


@pytest.mark.parametrize("size,largest,small_cap", LARGE)
def test_kernels_match_reference_on_large_partitions(size, largest, small_cap):
    rng = random.Random(20241017 + size + largest)
    p = seeded_partition(rng, size, largest, small_cap)
    f = to_frequency(p)
    assert_burge_agrees(f)
    assert_oblak_agrees(f)
    q, coords = coordinates_of(p)
    assert q == descent_map(p) == oblak(f)
    assert sum(coords) == len(p)


# words that promote a nonempty f: b-steps add parts, a-runs lift lone top units
WORDS = ("aab", "bab", "baab", "aaaaaa", "bbbb", "abaaba", "aabbaabbab")


def ref_promoted(word, f):
    """f promoted by the letters of a word, the last letter first, one reference step each."""
    for ch in reversed(word):
        f = ref.apply_b(f) if ch == "b" else ref.apply_a(f)
    return f


def assert_packed_agrees(f):
    """The packed kernels, directly and through the public API, against the reference."""
    word = ref.encode(f)
    assert kernels.letters(f) + "a" == encode(f) == word, f
    assert kernels.promoted(word) == decode(word) == f, f
    assert kernels.promoted("a", f) == apply_a(f) == ref.apply_a(f), f
    assert kernels.promoted("b", f) == apply_b(f) == ref.apply_b(f), f
    for w in WORDS:
        assert kernels.promoted(w, f) == ref_promoted(w, f), (w, f)


# the field width is (number of parts).bit_length() + 1, so 2^k - 1, 2^k and
# 2^k + 1 parts sit on both sides of a width change; apply_b adds one part.
# The lone units that the kernels keep out of the int count all the same.
@pytest.mark.parametrize("k", range(1, 13))
def test_packed_kernels_at_field_width_boundaries(k):
    for m in (2**k - 1, 2**k, 2**k + 1):
        # (1^m), (2^m), (3, 1^(m-1)), (5, 1^(m-1)) and (7, 5, 2^(m-2))
        lone = ((m - 1, 0, 1), (m - 1, 0, 0, 0, 1), (0, max(m - 2, 0), 0, 0, 1, 0, 1))
        for f in ((m,), (0, m)) + lone:
            assert_packed_agrees(f)


# 300 to 400 nonzero entries among 340 to 440 fields: the packed int spans
# many machine digits, so the carries that find the spreads cross digits
@pytest.mark.parametrize("support", (300, 350, 400))
def test_packed_kernels_on_wide_supports(support):
    rng = random.Random(support)
    f = [0] * (support + 40)
    for i in rng.sample(range(1, len(f) - 1), support - 2):
        f[i] = 1
    f[0] = f[-1] = 1
    assert sum(i * m for i, m in enumerate(f, 1)) <= SIZE_CAP
    assert_packed_agrees(tuple(f))


# lone units (f_j = 1 over f_(j-1) = 0) at the top: one alone, two and three
# in lockstep two apart, and two three apart
TOPS = ((1,), (1, 0, 1), (1, 0, 1, 0, 1), (1, 0, 0, 1))
# what lies below them: nothing, a unit, a part that drains in one letter,
# dense blocks whose top index stays put for a few letters
BLOCKS = ((), (1,), (2,), (1, 1), (3, 2, 4), (0, 5), (2, 0, 1, 3))


@pytest.mark.parametrize("gap", (1, 2, 3, 6))
@pytest.mark.parametrize("block", BLOCKS)
def test_packed_kernels_on_lone_units_above_a_block(block, gap):
    # the units sit gap zero fields above the block: the demotion kernel keeps
    # them out of the int until they come within one index of its entries,
    # and the promotion kernel drops them once they top the int
    for tops in TOPS:
        assert_packed_agrees(block + (0,) * gap + tops)


def test_single_part_and_single_column_up_to_the_size_cap():
    # one Jordan block, and B = 0: Q = (a) for both
    for a in (10**4, SIZE_CAP):
        assert descent_map((a,)) == descent_map((1,) * a) == (a,)
        assert coordinates_of((a,)) == ((a,), (1,))
        assert coordinates_of((1,) * a) == ((a,), (a,))
        for f in (to_frequency((a,)), to_frequency((1,) * a)):
            word = encode(f)
            assert decode(word) == f
        assert encode(to_frequency((a,))) == "a" * (a - 1) + "ba"


def test_lone_unit_of_one_part_leaves_the_packed_int_both_ways():
    # the unit of (SIZE_CAP,) moves one index a letter outside the int; packed, each
    # letter would cost O(SIZE_CAP) bits, and encode or decode take seconds
    f = to_frequency((SIZE_CAP,))
    start = time.perf_counter()
    word = encode(f)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert decode(word) == f
    assert time.perf_counter() - start < 1.0


def test_packing_a_long_sequence_takes_one_conversion_each_way():
    # a single part of 10^5 fills 10^5 fields, a shift per field would take seconds
    f = (0,) * (SIZE_CAP - 1) + (1,)
    start = time.perf_counter()
    assert apply_a(f) == (0,) * SIZE_CAP + (1,)
    assert apply_b(f) == (1,) + (0,) * (SIZE_CAP - 1) + (1,)
    assert time.perf_counter() - start < 1.0


MALFORMED_FREQS = ((1, -1), (1.5,), ("2",), (True,), (2.0,))


# in_class_b and oblak_chain are the forms above, through encode and oblak_all_chains
@pytest.mark.parametrize("fn", [
    encode, burge_chain, apply_a, apply_b, apply_del, in_class_b,
    maximal_indices, oblak, oblak_chain,
])
@pytest.mark.parametrize("bad", MALFORMED_FREQS)
def test_frequency_functions_reject_malformed_input(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


# every public function validates its own input, also where it no longer
# calls another public function that would; (1, 2) and (0,) are valid
# frequency sequences, so oblak is held to MALFORMED_FREQS above
@pytest.mark.parametrize("fn", [
    descent_map, coordinates_of, diagonal_hooks, durfee, fiber, is_super_distinct,
])
@pytest.mark.parametrize("bad", [(1, 2), (0,), (3, -1), (2.0,), (10**7,), (True,)])
def test_partition_functions_reject_malformed_input(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize("bad", ["", "aa", "ab", "abaa", "abc", "b"])
def test_decode_rejects_malformed_words(bad):
    with pytest.raises(ValueError):
        decode(bad)
