import pytest

from burgebox.boxes import (
    coordinates_of,
    delta,
    fiber,
    fiber_code,
    max_parts_partition,
    symmetry_map,
)
from burgebox.burge import decode, descent_map, encode
from burgebox.partitions import (
    dominates,
    is_super_distinct,
    partitions_of,
    to_frequency,
    to_partition,
)
from burgebox.words import foata_fiber


def test_delta_examples():
    assert delta((10, 7, 3)) == (3, 3, 2)
    assert delta((7,)) == (7,)
    assert delta((5, 2)) == (2, 2)
    assert delta(()) == ()


def test_delta_rejects_non_superdistinct():
    with pytest.raises(ValueError):
        delta((4, 3))


def test_fiber_code_examples():
    assert fiber_code((10, 7, 3), (1, 1, 1)) == "aabaaabaaba"
    assert fiber_code((10, 7, 3), (3, 3, 2)) == "bbbabbbabba"
    assert fiber_code((10, 7, 3), (2, 2, 1)) == "abbaabbaaba"
    assert to_partition(decode("abbaabbaaba")) == (10, 4, 3, 2, 1)


def test_fiber_code_rejects_bad_coords():
    with pytest.raises(ValueError):
        fiber_code((10, 7, 3), (4, 1, 1))
    with pytest.raises(ValueError):
        fiber_code((10, 7, 3), (1, 1))
    with pytest.raises(ValueError):
        fiber_code((10, 7, 3), (1, 1, 0))


def test_fiber_identity_coordinate():
    for q in [(10, 7, 3), (5, 2), (6,), (9, 3, 1)]:
        assert dict(fiber(q))[tuple(1 for _ in q)] == q


def test_fiber_of_single_part():
    # n fiber elements with 1, 2, ..., n parts; the hooks [n-i+1, 1^(i-1)]
    # are the images under the path composite, not the fiber itself:
    # decode(a^2 b^2 a) = (2, 2), whose descent map is (4)
    for n in range(1, 9):
        rows = fiber((n,))
        assert len(rows) == n
        for (i,), part in rows:
            assert len(part) == i
            assert descent_map(part) == (n,)
    assert to_partition(decode("aabba")) == (2, 2)


def test_fiber_of_empty():
    assert fiber(()) == [((), ())]


def test_fiber_partitions_whole_size_class():
    for n in range(17):
        grouped = {}
        for p in partitions_of(n):
            grouped.setdefault(descent_map(p), set()).add(p)
        supers = {q for q in partitions_of(n) if is_super_distinct(q)}
        assert set(grouped) == supers
        for q in supers:
            rows = fiber(q)
            expected_size = 1
            for dj in delta(q):
                expected_size *= dj
            assert len(rows) == expected_size
            assert {part for _, part in rows} == grouped[q]
            for coords, part in rows:
                assert len(part) == sum(coords)
                assert descent_map(part) == q


def test_descent_map_idempotent():
    for n in range(21):
        for p in partitions_of(n):
            q = descent_map(p)
            assert descent_map(q) == q


def test_coordinates_of_examples():
    assert coordinates_of((9, 4, 4, 2, 1)) == ((10, 7, 3), (2, 1, 2))
    assert coordinates_of((10, 7, 3)) == ((10, 7, 3), (1, 1, 1))
    q, c = coordinates_of((5, 3, 2, 2, 1))
    assert q == (9, 3, 1)
    assert fiber_code(q, c) == encode(to_frequency((5, 3, 2, 2, 1)))
    assert c == (1, 1, 3)
    assert coordinates_of(()) == ((), ())


def test_coordinates_of_inverts_fiber_code():
    for n in range(23):
        for p in partitions_of(n):
            q, c = coordinates_of(p)
            assert fiber_code(q, c) == encode(to_frequency(p))
            assert to_partition(decode(fiber_code(q, c))) == p


def test_max_parts_examples():
    assert max_parts_partition((10, 7, 3)) == (9, 5, 1, 1, 1, 1, 1, 1)
    assert max_parts_partition((6,)) == (1,) * 6
    assert max_parts_partition((5, 2)) == (4, 1, 1, 1)


def test_max_parts_sits_at_far_corner():
    for q in [(10, 7, 3), (5, 2), (7,), (9, 3, 1), (8, 5, 1)]:
        far = dict(fiber(q))[delta(q)]
        assert far == max_parts_partition(q)
        assert len(far) == max(len(part) for _, part in fiber(q))


def test_symmetry_examples():
    assert symmetry_map((10, 7, 3), (1, 1, 1), (1, 2, 3)) == (3, 3, 2)
    assert symmetry_map((10, 7, 3), (2, 1, 2), ()) == (2, 1, 2)
    assert symmetry_map((10, 7, 3), (2, 1, 2), (2,)) == (2, 3, 2)


def test_symmetry_is_involution():
    q = (10, 7, 3)
    for coords, _ in fiber(q):
        for positions in [(1,), (2,), (3,), (1, 3), (1, 2, 3)]:
            once = symmetry_map(q, coords, positions)
            assert symmetry_map(q, once, positions) == coords


def test_symmetry_rejects_bad_positions():
    for position in (4, 0, True, 1.0):
        with pytest.raises(ValueError, match=f"position is {position!r}, not an integer in"):
            symmetry_map((10, 7, 3), (1, 1, 1), (position,))


@pytest.mark.parametrize("coords, message", [
    ((True, 1, 1), "coordinate 1 is True, not an integer"),
    ((1.0, 1, 1), "coordinate 1 is 1.0, not an integer"),
    ((1, "1", 1), "coordinate 2 is '1', not an integer"),
], ids=["True", "1.0", "'1'"])
@pytest.mark.parametrize("take", [fiber_code, foata_fiber, lambda q, c: symmetry_map(q, c, ())],
                         ids=["fiber_code", "foata_fiber", "symmetry_map"])
def test_coordinate_that_is_a_bool_or_not_an_int_is_rejected(take, coords, message):
    with pytest.raises(ValueError, match=message):
        take((10, 7, 3), coords)


def fiber_bijection(q, r, sigma):
    """Pair the element of Q's fiber at (i_j)_j with that of R's at (i_sigma(j))_j, for every i."""
    r_fiber = dict(fiber(r))
    pairs = []
    for cq, pq in fiber(q):
        cr = tuple(cq[i - 1] for i in sigma)
        pairs.append(((cq, pq), (cr, r_fiber[cr])))
    return pairs


def test_fiber_bijection_swapped_box():
    # delta (3, 2, 3) comes from R = (10, 6, 3); swapping positions 2 and 3
    # of delta(10, 7, 3) = (3, 3, 2) gives exactly that, and a box point c
    # has sum(c) parts, which a permutation keeps
    q, r, sigma = (10, 7, 3), (10, 6, 3), (1, 3, 2)
    assert delta(r) == (3, 2, 3)
    pairs = fiber_bijection(q, r, sigma)
    assert len(pairs) == 18
    r_seen = set()
    for (cq, pq), (cr, pr) in pairs:
        assert len(pq) == len(pr)
        assert sum(cq) == sum(cr)
        r_seen.add(cr)
    assert len(r_seen) == 18  # a bijection, not just a map


def test_fiber_bijection_identity():
    q = (10, 7, 3)
    for (cq, pq), (cr, pr) in fiber_bijection(q, q, (1, 2, 3)):
        assert cq == cr and pq == pr


def test_fiber_bijection_equal_slots_preserves_parts():
    # the two box dimensions of value 3 can be exchanged within the same Q
    q = (10, 7, 3)
    for (cq, pq), (cr, pr) in fiber_bijection(q, q, (2, 1, 3)):
        assert len(pq) == len(pr)


def test_fiber_dominated_by_its_root():
    for n in range(15):
        for q in partitions_of(n):
            if not is_super_distinct(q):
                continue
            for _, part in fiber(q):
                assert dominates(q, part)


def test_incomparable_pair_inside_fiber():
    members = {part for _, part in fiber((10, 7, 3))}
    deep = (9, 5, 1, 1, 1, 1, 1, 1)
    other = (9, 4, 4, 2, 1)
    assert deep in members and other in members
    assert not dominates(deep, other)
    assert not dominates(other, deep)


@pytest.mark.parametrize("q", [(), (7,), (5, 2), (10, 7, 3)])
def test_box_functions_take_a_one_shot_iterable(q):
    assert delta(iter(q)) == delta(q)
    assert fiber(iter(q)) == fiber(q)
    assert max_parts_partition(iter(q)) == max_parts_partition(q)


@pytest.mark.parametrize("p", [(), (7,), (10, 7, 3), (4, 4, 3, 2, 2), (9, 5, 1, 1)])
def test_partition_functions_take_a_one_shot_iterable(p):
    assert is_super_distinct(iter(p)) == is_super_distinct(p)
    assert to_frequency(iter(p)) == to_frequency(p)
