import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

import reference_combinatorics as ref
from burgebox import partitions
from burgebox.partitions import (
    PART_CAP,
    SIZE_CAP,
    _right_set,
    _two_measure,
    as_frequency,
    as_partition,
    dominates,
    format_frequency,
    format_partition,
    is_super_distinct,
    length,
    parse_partition,
    partition_counts,
    partitions_of,
    reduced,
    size,
    to_frequency,
    to_partition,
)

partition_st = st.lists(st.integers(1, 64), max_size=64).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_to_frequency_examples():
    assert to_frequency((5, 3, 2, 2, 1)) == (1, 2, 1, 0, 1)
    assert to_frequency(()) == ()
    assert to_frequency((9, 6, 6, 5, 5, 4, 4, 4, 2, 1, 1)) == (2, 1, 0, 3, 2, 2, 0, 0, 1)


def test_to_partition_examples():
    assert to_partition((1, 2, 1, 0, 1)) == (5, 3, 2, 2, 1)
    assert to_partition(()) == ()
    assert to_partition((0, 0, 1)) == (3,)


def test_trailing_zeros_normalized():
    assert as_frequency((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert as_frequency((0, 0)) == ()


def test_size_length_examples():
    f = (2, 1, 0, 3, 2, 2, 0, 0, 1)
    assert size(f) == 47
    assert length(f) == 11
    assert size(()) == 0 and length(()) == 0
    assert size((3, 0, 2, 1, 3, 0, 1)) == 35


def test_spreads_examples():
    f = (2, 1, 0, 3, 2, 2, 0, 0, 1)
    assert ref.spreads(f) == [(1, 2), (4, 6), (9, 9)]
    assert ref.spreads(()) == []
    assert ref.spreads((0, 1)) == [(2, 2)]


def test_left_right_sets_examples():
    f = (2, 1, 0, 3, 2, 2, 0, 0, 1)
    assert ref.left_set(f) == {1, 4, 6, 9}
    assert _right_set(f) == ref.right_set(f) == {2, 4, 6, 9}
    g = (2, 2, 1, 3, 1, 0, 4, 0, 0, 2, 1)
    assert ref.left_set(g) == {1, 3, 5, 7, 10}
    assert _right_set(g) == ref.right_set(g) == {1, 3, 5, 7, 11}
    assert ref.left_set(()) == _right_set(()) == ref.right_set(()) == frozenset()


def test_two_measure_examples():
    assert _two_measure(to_frequency((8, 7, 4, 4, 3, 2, 2, 1))) == 3
    assert _two_measure(()) == 0
    assert _two_measure((2, 1, 0, 3, 2, 2, 0, 0, 1)) == 4


@given(partition_st)
def test_two_measure_matches_brute_force(p):
    f = to_frequency(p)
    assert _two_measure(f) == ref.two_measure(f)


@given(partition_st)
def test_left_right_sets_sized_by_two_measure(p):
    f = to_frequency(p)
    assert len(ref.left_set(f)) == len(_right_set(f)) == len(ref.right_set(f)) == _two_measure(f)


def test_is_super_distinct_examples():
    assert is_super_distinct((10, 7, 3))
    assert not is_super_distinct((4, 3))
    assert is_super_distinct(())
    assert is_super_distinct((5,))


@given(partition_st)
def test_two_measure_bounds_and_superdistinct(p):
    f = to_frequency(p)
    assert 0 <= _two_measure(f) <= length(f)
    assert (_two_measure(f) == 0) == (p == ())
    assert (_two_measure(f) == length(f)) == is_super_distinct(p)


def test_reduced_examples():
    assert reduced((9, 3, 1)) == (8, 2)
    assert reduced(()) == ()
    assert reduced((6, 3, 1, 1)) == (5, 2)


def test_dominates_examples():
    assert dominates((3,), (2, 1))
    assert not dominates((9, 5, 1, 1, 1, 1, 1, 1), (9, 4, 4, 2, 1))
    assert not dominates((9, 4, 4, 2, 1), (9, 5, 1, 1, 1, 1, 1, 1))
    assert dominates((4, 2, 1), (4, 2, 1))


def test_dominates_rejects_unequal_sizes():
    with pytest.raises(ValueError):
        dominates((3,), (3, 1))


def test_dominates_is_partial_order():
    rng = random.Random(5)
    pool = list(partitions_of(9))
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert dominates(a, a)
        if dominates(a, b) and dominates(b, a):
            assert a == b
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


@given(partition_st)
def test_round_trip(p):
    assert to_partition(to_frequency(p)) == p


def test_partition_validation():
    with pytest.raises(ValueError):
        as_partition((3, 4))
    with pytest.raises(ValueError):
        as_partition((0,))
    with pytest.raises(ValueError):
        as_partition((10**6 + 1,))
    with pytest.raises(ValueError):
        as_frequency((-1,))


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(31)]
    assert counts[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert list(itertools.islice(partition_counts(), 31)) == counts
    for p in partitions_of(8):
        assert sum(p) == 8
        assert as_partition(p) == p


@pytest.mark.parametrize(
    "text,expected",
    [
        ("10,7,3", (10, 7, 3)),
        ("[10,7,3]", (10, 7, 3)),
        ("[4^2,3,2^2]", (4, 4, 3, 2, 2)),
        ("e", ()),
        ("[]", ()),
        ("f:(0,2,1,2)", (4, 4, 3, 2, 2)),
        ("f:1,2,1,0,1", (5, 3, 2, 2, 1)),
        (" 3 , 1 ", (3, 1)),
        ("1,10,7", (10, 7, 1)),  # multiset semantics: any order accepted
        ("[ ]", ()),
    ],
)
def test_parse_partition(text, expected):
    assert parse_partition(text) == expected


@pytest.mark.parametrize("text", ["", "a,b", "3,-1", "[2^]", "f:(1,x)"])
def test_parse_partition_rejects(text):
    with pytest.raises(ValueError):
        parse_partition(text)


def test_parse_partition_rejects_a_zero_part():
    with pytest.raises(ValueError, match="part must be positive, got '0\\^2'"):
        parse_partition("3,0^2")


@pytest.mark.parametrize("text,position", [("f:(1,²)", 2), ("f:(¹)", 1), ("f:(3,1,⁴,0)", 3)])
def test_parse_partition_names_a_bad_frequency_entry(text, position):
    # superscript digits pass str.isdigit() but not int(): the message still names the entry
    with pytest.raises(ValueError, match=f"bad frequency entry .* at position {position} of"):
        parse_partition(text)
    assert parse_partition(text.replace("²", "2").replace("¹", "1").replace("⁴", "4"))


def test_parse_partition_size_cap():
    assert parse_partition(f"[1^{SIZE_CAP}]") == (1,) * SIZE_CAP
    assert parse_partition(f"f:({SIZE_CAP})") == (1,) * SIZE_CAP
    assert parse_partition(f"f:(0,{SIZE_CAP // 2})") == (2,) * (SIZE_CAP // 2)
    for text in (
        "[1^100000000000]",
        f"[1^{SIZE_CAP},1]",
        "f:(100000000000)",
        f"f:(0,{SIZE_CAP // 2 + 1})",
        "f:(" + "0," * SIZE_CAP + "1)",
    ):
        with pytest.raises(ValueError, match="size cap"):
            parse_partition(text)


def test_format_partition():
    assert format_partition((9, 5, 1, 1, 1, 1, 1, 1)) == "[9,5,1^6]"
    assert format_partition(()) == "[]"
    assert format_partition((4, 4, 3, 2, 2)) == "[4^2,3,2^2]"
    assert parse_partition(format_partition((9, 5, 1, 1, 1, 1, 1, 1))) == (
        9, 5, 1, 1, 1, 1, 1, 1,
    )
    assert format_frequency((1, 2, 1, 0, 1)) == "(1,2,1,0,1)"


def spaced(text):
    """text with spaces wherever parse_partition strips them."""
    for mark, loose in (("f:", "f: "), ("(", "( "), (")", " )"), ("[", "[ "), ("]", " ]")):
        text = text.replace(mark, loose)
    text = text.replace(",", " , ")
    return f" {text} "


@given(partition_st, st.randoms(use_true_random=False))
def test_parse_partition_returns_the_checked_partition_in_every_form(p, rng):
    # the parser's own entry checks make its result a checked partition: no check follows them
    runs = [(x, len(list(g))) for x, g in itertools.groupby(p)]
    forms = (
        ",".join(map(str, rng.sample(p, len(p)))) or "e",  # any order is accepted
        "[" + ",".join(f"{x}^{m}" if m > 1 else str(x) for x, m in runs) + "]",
        "f:(" + ",".join(map(str, to_frequency(p))) + ")",
    )
    for text in forms + tuple(map(spaced, forms)):
        q = parse_partition(text)
        assert type(q) is partitions._Checked and q == p, text
        assert as_partition(list(q)) == q, text
    zero = list(map(str, p))
    zero.insert(rng.randrange(len(p) + 1), "0")
    for text in (",".join(zero), spaced(",".join(zero))):
        with pytest.raises(ValueError, match="part must be positive"):
            parse_partition(text)


@pytest.mark.parametrize("text", ["e", "[]", "10,7,3", "[4^2,3,2^2]", "f:(0,2,1,2)", "f:()"])
def test_checked_partition_looks_like_the_plain_tuple(text):
    p = parse_partition(text)
    plain = tuple(p)
    assert type(p) is partitions._Checked and as_partition(p) is p
    assert p == plain and hash(p) == hash(plain) and {p: 1}[plain] == 1
    assert repr(p) == repr(plain) and str(p) == str(plain)
    assert json.dumps(p) == json.dumps(plain) and list(p) == list(plain)


def test_checked_partitions_come_from_as_partition_and_partitions_of():
    for n in range(8):
        for p in partitions_of(n):
            assert type(p) is partitions._Checked and as_partition(p) is p
    p = as_partition([4, 4, 1])
    assert type(p) is partitions._Checked and as_partition(p) is p and p == (4, 4, 1)
    with pytest.raises(ValueError, match="part cap"):
        next(partitions_of(PART_CAP + 1))


@pytest.mark.parametrize("bad", [(3, 0), [2, 3], (2.0,), (True,), [PART_CAP + 1], (3, -1)])
def test_plain_sequence_with_a_bad_part_is_still_rejected(bad):
    for check in (as_partition, to_frequency, is_super_distinct, format_partition):
        with pytest.raises(ValueError):
            check(bad)
