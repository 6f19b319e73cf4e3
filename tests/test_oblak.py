import dataclasses

import pytest
from hypothesis import given, strategies as st

from burgebox.burge import apply_del, descent_map
from burgebox.oblak import (
    OblakChain,
    annihilate,
    check_commuting_square,
    evaluate,
    maximal_indices,
    oblak,
    oblak_all_chains,
)
from burgebox.partitions import (
    as_frequency,
    partitions_of,
    reduced,
    size,
    to_frequency,
    to_partition,
)
from reference_combinatorics import (
    del_chain,
    equivalent_indices,
    is_valid_chain,
    is_valid_index_sequence,
    left_admissible,
    right_admissible,
)

freq_st = st.lists(st.integers(0, 4), max_size=9).map(as_frequency)


def oblak_chain(f):
    """The run that always takes the smallest maximal index: the first chain, as they come sorted."""
    return oblak_all_chains(f)[0]


def all_freqs(max_size):
    for n in range(max_size + 1):
        for p in partitions_of(n):
            yield to_frequency(p)


def test_evaluate_examples():
    f = (3, 0, 2, 1, 3, 0, 1)
    assert evaluate(f, 3) == 18
    assert evaluate(f, 0) == evaluate(f, 1)
    assert evaluate((3, 3, 2, 0, 3, 1, 0, 0, 2), 5) == 25


def test_evaluate_vector_of_first_worked_table():
    f = (3, 3, 2, 0, 3, 1, 0, 0, 2)
    vals = [evaluate(f, i) for i in range(1, 11)]
    assert vals == [25, 24, 18, 21, 25, 10, 4, 18, 18, 0]


def test_annihilate_examples():
    f = (3, 0, 2, 1, 3, 0, 1)
    assert annihilate(f, 3) == (3, 0, 3, 0, 1)
    assert size(annihilate(f, 3)) == 17
    assert annihilate(f, 0) == annihilate(f, 1)
    assert annihilate((3, 3, 2, 0, 3, 1, 0, 0, 2), 5) == (3, 3, 2, 0, 0, 0, 2)


def test_negative_index_is_rejected():
    with pytest.raises(ValueError, match="index -1 is not a nonnegative integer"):
        evaluate((2, 1), -1)
    with pytest.raises(ValueError, match="index -1 is not a nonnegative integer"):
        annihilate((2, 1), -1)


@pytest.mark.parametrize("i", [True, 1.5], ids=["True", "1.5"])
@pytest.mark.parametrize("check", [evaluate, annihilate], ids=["evaluate", "annihilate"])
def test_index_that_is_a_bool_or_not_an_int_is_rejected(check, i):
    with pytest.raises(ValueError, match=f"index {i!r} is not a nonnegative integer"):
        check((2, 1), i)


@given(freq_st, st.integers(0, 12))
def test_annihilation_size_drop_is_evaluation(f, i):
    assert size(annihilate(f, i)) == size(f) - evaluate(f, i)


def test_maximal_indices_examples():
    assert maximal_indices((3, 3, 2, 0, 3, 1, 0, 0, 2)) == (0, 1, 5)
    assert maximal_indices((1,)) == (0, 1)
    assert maximal_indices(()) == ()
    # evaluation vector (8,8,8,2,2,7,7,0,...) starting at the 0/1 slot:
    # indices 0, 1, 2 and 3 all reach 8
    f = (2, 0, 2, 0, 0, 0, 1)
    assert [evaluate(f, i) for i in range(1, 9)] == [8, 8, 8, 2, 2, 7, 7, 0]
    assert maximal_indices(f) == (0, 1, 2, 3)


def test_admissible_examples():
    f = (3, 0, 2, 0, 0, 1, 2, 1, 0, 0, 1)
    assert sorted(right_admissible(f)) == [1, 3, 6, 7, 11]
    assert sorted(left_admissible(f)) == [0, 2, 6, 7, 10]
    g = (1, 2, 1, 0, 2, 1, 0, 1, 0, 2)
    assert sorted(right_admissible(g)) == [1, 2, 5, 8, 10]
    assert sorted(left_admissible(g)) == [1, 2, 5, 7, 9]
    assert right_admissible(()) == frozenset()
    assert left_admissible(()) == frozenset()


def test_equivalent_indices_examples():
    assert equivalent_indices((3, 0, 2, 0, 0, 1, 1, 1, 0, 1)) == [
        [0, 1], [2, 3], [4], [5], [6, 7], [8, 9, 10], [11],
    ]
    assert equivalent_indices(()) == [[0, 1]]
    assert equivalent_indices((1,)) == [[0, 1], [2]]


def test_oblak_examples():
    assert oblak((3, 3, 2, 0, 3, 1, 0, 0, 2)) == (25, 17, 10, 2)
    assert oblak((3, 0, 1, 1, 0, 0, 0, 1)) == (9, 6, 3)
    assert oblak((2, 0, 2, 0, 0, 0, 1)) == (8, 5, 2)
    assert oblak(()) == ()


def test_oblak_equals_descent_map():
    for f in all_freqs(16):
        assert oblak(f) == descent_map(to_partition(f))


def test_valuation_gaps_at_least_two():
    for f in all_freqs(15):
        v = oblak(f)
        assert all(a - b >= 2 for a, b in zip(v, v[1:]))
        assert sum(v) == size(f)


def test_all_chains_branch_example():
    f = (3, 0, 1, 1, 0, 0, 0, 1)
    chains = oblak_all_chains(f)
    assert len(chains) == 2
    assert [c.indices[0] for c in chains] == [0, 3]
    assert all(c.valuation == (9, 6, 3) for c in chains)
    assert is_valid_index_sequence(f, (0, 5, 1))
    assert is_valid_index_sequence(f, (3, 5, 1))


def test_all_chains_trivia():
    assert len(oblak_all_chains((1,))) == 1
    assert oblak_all_chains((1,))[0].valuation == (1,)
    chains = oblak_all_chains((3, 3, 2, 0, 3, 1, 0, 0, 2))
    assert {c.valuation for c in chains} == {(25, 17, 10, 2)}
    f = (3, 3, 2, 0, 3, 1, 0, 0, 2)
    assert is_valid_index_sequence(f, (5, 1, 4, 1))
    assert is_valid_index_sequence(f, (1, 3, 5, 1))


def test_all_chains_budget():
    with pytest.raises(ValueError, match="exceeds limit 1"):
        oblak_all_chains((3, 0, 1, 1, 0, 0, 0, 1), limit=1)


def test_choice_independence_exhaustive():
    for f in all_freqs(13):
        assert len({c.valuation for c in oblak_all_chains(f)}) == 1


def test_maximal_index_sequence_caution_case():
    # (1, 6, 1) drives f but is not a maximal sequence for apply_del(f)
    f = (3, 0, 1, 1, 0, 0, 0, 1)
    assert is_valid_index_sequence(f, (1, 6, 1))
    assert not is_valid_index_sequence(apply_del(f), (1, 6, 1))


def test_del_chain_examples():
    c = oblak_chain((3, 0, 1, 1, 0, 0, 0, 1))
    dc = del_chain(c)
    assert dc.states[0] == (2, 0, 2, 0, 0, 0, 1)
    assert dc.valuation == (8, 5, 2)
    tiny = oblak_chain((1,))
    assert tiny.states == ((1,), ()) and tiny.valuation == (1,)
    dtiny = del_chain(tiny)
    assert dtiny.states == ((),) and dtiny.valuation == ()


def test_del_chain_rejects_a_non_chain():
    # (2,) is no successor of (2,1); demoted, (1,) is none of (3,)
    with pytest.raises(ValueError, match="no maximal index carries"):
        del_chain(OblakChain(((2, 1), (2,), ()), (0, 0)))


def test_del_chain_validity_exhaustive():
    for f in all_freqs(12):
        for c in oblak_all_chains(f):
            image = del_chain(c)
            assert is_valid_chain(image)
            assert image.states[0] == apply_del(f)
            assert image.valuation == reduced(c.valuation)


def test_del_chain_grid():
    # iterating the chain map reproduces the full triangular grid for
    # the partition (14, 10, 5, 2, 2, 2, 1)
    c = oblak_chain(to_frequency((14, 10, 5, 2, 2, 2, 1)))
    vals = []
    while True:
        vals.append(c.valuation)
        if c.states[0] == ():
            break
        c = del_chain(c)
    assert vals == [
        (14, 11, 8, 3), (13, 10, 7, 2), (12, 9, 6, 1), (11, 8, 5),
        (10, 7, 4), (9, 6, 3), (8, 5, 2), (7, 4, 1), (6, 3), (5, 2),
        (4, 1), (3,), (2,), (1,), (),
    ]


def test_check_commuting_square_examples():
    f = (3, 0, 2, 1, 0, 1, 2, 1)
    assert check_commuting_square(f, 1)
    assert check_commuting_square(f, 4)
    assert not check_commuting_square(f, 8)
    assert not check_commuting_square(f, 2)


def test_commuting_square_guaranteed_cases():
    for f in all_freqs(12):
        df = apply_del(f)
        for i in left_admissible(f) | right_admissible(df):
            assert check_commuting_square(f, i), (f, i)


def test_admissible_equivalents_of_maximal_indices():
    for f in all_freqs(18):
        if not f:
            continue
        classes = {i: frozenset(c) for c in equivalent_indices(f) for i in c}
        for i in maximal_indices(f):
            cls = classes[i]
            assert cls & right_admissible(f), (f, i)
            assert cls & left_admissible(f), (f, i)


def test_left_admissible_maximal_survives_del():
    for f in all_freqs(18):
        if f == () or f == (1,):
            continue
        df = apply_del(f)
        for i in set(maximal_indices(f)) & left_admissible(f):
            assert i in maximal_indices(df), (f, i)
            assert evaluate(df, i) == evaluate(f, i) - 1


def test_corrupt_chain_detected():
    c = oblak_chain((2, 1))
    bad = OblakChain(c.states, tuple(i + 50 for i in c.indices))
    with pytest.raises(ValueError):
        bad.valuation
    assert not is_valid_chain(OblakChain(c.states[:-1], c.indices[:-1]))


def test_chain_valuation_validates_states_and_indices():
    c = oblak_chain((2, 1))
    with pytest.raises(ValueError, match="nonnegative integer"):
        OblakChain(((2, -1),) + c.states[1:], c.indices).valuation
    with pytest.raises(ValueError, match="index -1 is not a nonnegative integer"):
        OblakChain(c.states, (-1,) + c.indices[1:]).valuation
    assert c.indices == (0,)  # index 0 evaluates as index 1, as in ``evaluate``
    assert c.valuation == OblakChain(c.states, (1,)).valuation == oblak((2, 1)) == (4,)


def test_chain_states_are_checked_when_made():
    with pytest.raises(ValueError, match="nonnegative integer"):
        OblakChain(((2, 1), (1, -1), ()), (0, 0))
    assert OblakChain([(2, 1, 0), [0, 0]], (0,)).states == ((2, 1), ())
    for f in all_freqs(8):
        made = [oblak_chain(f), *oblak_all_chains(f), del_chain(oblak_chain(f))]
        for c in made:
            assert c == OblakChain(c.states, c.indices)
    c = oblak_chain((2, 1))
    assert dataclasses.replace(c, states=((2, 1, 0), ())) == c
    with pytest.raises(ValueError, match="nonnegative integer"):
        dataclasses.replace(c, states=((2, True), ()))


@pytest.mark.parametrize("i", ["x", True, 1.5, -1], ids=["x", "True", "1.5", "-1"])
def test_chain_index_must_be_a_nonnegative_integer(i):
    with pytest.raises(ValueError, match=f"index {i!r} is not a nonnegative integer"):
        OblakChain(((2, 1), ()), (i,))
    c = oblak_chain((2, 1))
    with pytest.raises(ValueError, match="is not a nonnegative integer"):
        dataclasses.replace(c, indices=(i,))


def test_chain_needs_one_index_between_each_two_states():
    for states, indices in [(((2, 1),), (0,)), (((2, 1), ()), ()), (((2, 1), ()), (0, 0)), ((), ())]:
        with pytest.raises(ValueError, match="need one index between each two"):
            OblakChain(states, indices)
    c = OblakChain([(2, 1), ()], [0])
    assert c.indices == (0,) and c == oblak_chain((2, 1))
