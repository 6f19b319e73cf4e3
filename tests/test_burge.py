import itertools
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import reference_combinatorics as ref
from burgebox.burge import (
    _characterization,
    _descents,
    apply_a,
    apply_b,
    apply_del,
    burge_chain,
    check_word,
    decode,
    descent_map,
    encode,
)
from burgebox.partitions import (
    _two_measure,
    as_frequency,
    as_partition,
    length,
    partitions_of,
    reduced,
    size,
    to_frequency,
    to_partition,
)

freq_st = st.lists(st.integers(0, 5), max_size=10).map(as_frequency)


def all_code_words(max_len):
    # (a*b)*a: either the single letter a, or any word whose last two letters are "ba"
    yield "a"
    for n in range(2, max_len + 1):
        for bits in itertools.product("ab", repeat=n - 2):
            yield "".join(bits) + "ba"


def in_class_b(f):
    """Class B: the code word of f starts with b."""
    return encode(f)[0] == "b"


def characterization(parts):
    """The seven tests of super-distinctness that ``prop-characterization`` makes, on P."""
    p = as_partition(parts)
    f = to_frequency(p)
    return _characterization(p, f, apply_del(f), encode(f))


def test_in_class_b_examples():
    assert not in_class_b((1, 1))
    assert in_class_b((2,))
    assert not in_class_b(())


def test_apply_a_examples():
    assert apply_a((2, 2, 1, 3, 1, 0, 4, 0, 0, 2, 1)) == (1, 3, 0, 4, 0, 1, 3, 1, 0, 1, 2)
    assert apply_a(()) == ()
    assert apply_a((0, 1)) == (0, 0, 1)


def test_apply_b_examples():
    assert apply_b((2, 2, 1, 3, 1, 0, 4, 0, 0, 2, 1)) == (3, 1, 2, 2, 2, 0, 3, 1, 0, 1, 2)
    assert apply_b(()) == (1,)
    assert apply_b((2,)) == (3,)


def test_apply_del_examples():
    assert apply_del((2, 2, 1, 3, 1, 0, 4, 0, 0, 2, 1)) == (1, 3, 0, 4, 0, 1, 3, 0, 0, 3)
    assert apply_del((1,)) == ()
    assert apply_del((1, 2, 1, 0, 1)) == (0, 3, 0, 1)


@given(freq_st)
def test_del_inverts_a_and_b(f):
    assert apply_del(apply_a(f)) == f
    assert apply_del(apply_b(f)) == f
    assert not in_class_b(apply_a(f))
    assert in_class_b(apply_b(f))


def test_a_of_del_need_not_restore():
    f = (2, 2, 1, 3, 1, 0, 4, 0, 0, 2, 1)
    assert apply_a(apply_del(f)) == (0, 4, 0, 3, 1, 0, 4, 0, 0, 2, 1) != f


def test_encode_examples():
    assert encode((1, 2, 1, 0, 1)) == "babaaabbba"
    assert encode(()) == "a"
    assert encode((1, 1, 0, 0, 1)) == "abbaba"


def test_decode_examples():
    assert decode("abbaba") == (1, 1, 0, 0, 1)
    assert decode("a") == ()
    assert decode("aabaaabaaba") == to_frequency((10, 7, 3))


def test_decode_build_states():
    # intermediate states while building abbaba from the right
    word = "abbaba"
    state = ()
    seen = []
    for ch in reversed(word):
        state = apply_b(state) if ch == "b" else apply_a(state)
        seen.append(state)
    assert seen == [(), (1,), (0, 1), (1, 0, 1), (2, 0, 0, 1), (1, 1, 0, 0, 1)]


def test_word_validation():
    assert decode("aaba") == (0, 0, 1)  # a leading run of a's is fine
    for word in ("aa", "abaa", ""):
        with pytest.raises(ValueError, match="single trailing 'a'"):
            decode(word)
    assert decode("ABBABA") == (1, 1, 0, 0, 1)  # case-insensitive
    assert decode("011010") == (1, 1, 0, 0, 1)  # 0 = a, 1 = b
    with pytest.raises(ValueError):
        decode("ab")
    with pytest.raises(ValueError):
        check_word("abc")


def test_chain_table():
    ch = burge_chain((1, 2, 1, 0, 1))
    assert ch.states == (
        (1, 2, 1, 0, 1),
        (0, 3, 0, 1),
        (1, 2, 1),
        (0, 3),
        (1, 2),
        (2, 1),
        (3,),
        (2,),
        (1,),
        (),
    )
    assert ch.word == "babaaabbba"


def test_chain_trivia():
    ch = burge_chain(())
    assert ch.states == ((),) and ch.word == "a"
    assert burge_chain((1, 1, 0, 1, 0, 0, 1)).word == "ababbaba"


def test_chain_structure():
    for n in range(16):
        for p in partitions_of(n):
            ch = burge_chain(to_frequency(p))
            assert ch.states[-1] == ()
            if len(ch.states) > 1:
                assert ch.states[-2] == (1,)
                assert ch.word.endswith("ba")
            assert len(ch.word) == len(ch.states)


def test_descent_statistics_examples():
    assert _descents("babaaabbba") == ref.descent_set("babaaabbba") == (1, 3, 9)
    assert ref.maj("babaaabbba") == 13
    assert _descents("a") == ref.descent_set("a") == ()
    assert ref.maj("a") == 0
    assert _descents("ababbaba") == ref.descent_set("ababbaba") == (2, 5, 7)
    assert ref.maj("ababbaba") == 14 == sum((7, 4, 2, 1))


def test_descent_map_examples():
    assert descent_map((5, 3, 2, 2, 1)) == (9, 3, 1)
    assert descent_map((10, 7, 3)) == (10, 7, 3)
    assert descent_map((7, 4, 2, 1)) == (7, 5, 2)


def test_round_trip_partitions():
    for n in range(31):
        for p in partitions_of(n):
            f = to_frequency(p)
            assert decode(encode(f)) == f


def test_round_trip_words():
    for w in all_code_words(16):
        assert encode(decode(w)) == w


def test_statistic_laws_small():
    for n in range(16):
        for p in partitions_of(n):
            f = to_frequency(p)
            df = apply_del(f)
            drop = 1 if in_class_b(f) else 0
            assert length(df) == length(f) - drop
            assert size(df) == size(f) - _two_measure(f)
            two_drop = 1 if in_class_b(f) and not in_class_b(df) else 0
            assert _two_measure(df) == _two_measure(f) - two_drop
            w = encode(f)
            assert length(f) == w.count("b")
            assert size(f) == ref.maj(w)
            assert _two_measure(f) == len(ref.descent_set(w)) == w.count("ba")


def test_descent_map_recursion():
    for n in range(31):
        for p in partitions_of(n):
            dp = to_partition(apply_del(to_frequency(p)))
            assert descent_map(dp) == reduced(descent_map(p))


def test_word_shift_under_del():
    for n in range(1, 21):
        for p in partitions_of(n):
            f = to_frequency(p)
            assert encode(apply_del(f)) == encode(f)[1:]


@lru_cache(maxsize=None)
def _descent_by_recursion(p):
    # the unique size-preserving map commuting with demotion, built bottom-up:
    # its frequency vector prepends |P| - |del P| - len(previous) to the
    # previous frequency vector
    if p == ():
        return ()
    f = to_frequency(p)
    dp = to_partition(apply_del(f))
    prev = to_frequency(_descent_by_recursion(dp))
    head = size(f) - size(to_frequency(dp)) - sum(prev)
    assert head >= 0
    return to_partition((head,) + prev)


def test_descent_map_is_the_unique_recursive_map():
    for n in range(21):
        for p in partitions_of(n):
            assert _descent_by_recursion(p) == descent_map(p)


def test_characterize_examples():
    assert characterization((10, 7, 3)) == (True,) * 7
    assert characterization((4, 3)) == (False,) * 7
    assert characterization(()) == (True,) * 7


def test_characterize_consistent_exhaustive():
    for n in range(19):
        for p in partitions_of(n):
            assert len(set(characterization(p))) == 1, p
