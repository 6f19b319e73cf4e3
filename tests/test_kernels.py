"""The single-pass kernels, through the public API, against the reference transcriptions."""

import itertools
import random

import pytest

import reference_combinatorics as ref
from burgebox.boxes import coordinates_of
from burgebox.burge import (
    apply_a,
    apply_b,
    apply_del,
    burge_chain,
    decode,
    descent_map,
    descent_set,
    encode,
    in_class_b,
)
from burgebox.oblak import maximal_indices, oblak, oblak_chain
from burgebox.partitions import partitions_of, to_frequency, to_partition

ACCEPTANCE_BOUND = 25


def assert_burge_agrees(f):
    states, word = ref.burge_chain(f)
    chain = burge_chain(f)
    assert chain.states == states, f
    assert chain.word == word == encode(f), f
    assert decode(word) == ref.decode(word) == f, f
    assert descent_map(to_partition(f)) == descent_set(word)[::-1]
    assert apply_del(f) == ref.apply_del(f), f
    assert apply_a(f) == ref.apply_a(f), f
    assert apply_b(f) == ref.apply_b(f), f
    assert in_class_b(f) == ref.in_class_b(f), f


def assert_oblak_agrees(f):
    assert maximal_indices(f) == ref.maximal_indices(f), f
    chain = oblak_chain(f)
    assert (chain.states, chain.indices) == ref.oblak_chain(f), f
    assert oblak(f) == ref.oblak(f) == chain.valuation, f


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


MALFORMED_FREQS = ((1, -1), (1.5,), ("2",), (True,))


@pytest.mark.parametrize("fn", [
    encode, burge_chain, apply_a, apply_b, apply_del, in_class_b,
    maximal_indices, oblak, oblak_chain,
])
@pytest.mark.parametrize("bad", MALFORMED_FREQS)
def test_frequency_functions_reject_malformed_input(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize("fn", [descent_map, coordinates_of])
@pytest.mark.parametrize("bad", [(1, 2), (0,), (3, -1), (2.0,), (10**7,)])
def test_partition_functions_reject_malformed_input(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize("bad", ["", "aa", "ab", "abaa", "abc", "b"])
def test_decode_rejects_malformed_words(bad):
    with pytest.raises(ValueError):
        decode(bad)
