import pytest

from burgebox.boxes import fiber, fiber_code
from burgebox.partitions import is_super_distinct, partitions_of
from burgebox.words import diagonal_hooks, durfee, foata_fiber, path_to_partition
from reference_combinatorics import inversions, maj


def brute_inversions(word):
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] == "b" and word[j] == "a"
    )


def cell_hooks(parts):
    # hook of diagonal cell (i, i) counted cell by cell in the diagram
    cells = {(r, c) for r, p in enumerate(parts, 1) for c in range(1, p + 1)}
    hooks = []
    i = 1
    while (i, i) in cells:
        arm = sum(1 for c in range(i + 1, 10**4) if (i, c) in cells)
        leg = sum(1 for r in range(i + 1, 10**4) if (r, i) in cells)
        hooks.append(arm + leg + 1)
        i += 1
    return tuple(hooks)


def test_inversions_examples():
    assert inversions("babaaabbba") == brute_inversions("babaaabbba") == 12
    assert inversions("aaabbb") == 0
    assert inversions("ba") == 1
    assert inversions("") == 0


def test_inversions_matches_brute_force():
    import itertools

    for n in range(9):
        for bits in itertools.product("ab", repeat=n):
            w = "".join(bits)
            assert inversions(w) == brute_inversions(w)


def test_foata_examples():
    assert foata_fiber((10, 7, 3), (1, 1, 1)) == "babaabaaaaa"
    # single row: b a^(n-1) then the lone a tail block
    assert foata_fiber((6,), (1,)) == "b" + "a" * 5 + "a"
    assert inversions(foata_fiber((6,), (1,))) == 6
    # all coordinates at the far corner: pure b head, then the b^(i-1) a tail
    assert foata_fiber((10, 7, 3), (3, 3, 2)) == "bbb" + "bba" + "bba" + "ba"


def test_foata_preserves_length_and_letters():
    for q in [(10, 7, 3), (9, 3, 1), (5, 2), (7,)]:
        for coords, _ in fiber(q):
            w = fiber_code(q, coords)
            fw = foata_fiber(q, coords)
            assert len(fw) == len(w)
            assert fw.count("b") == w.count("b")


def test_foata_sends_major_index_to_inversions():
    for n in range(15):
        for q in partitions_of(n):
            if not is_super_distinct(q):
                continue
            for coords, part in fiber(q):
                w = fiber_code(q, coords)
                assert inversions(foata_fiber(q, coords)) == maj(w) == sum(part)


def test_path_to_partition_examples():
    assert path_to_partition("babaabaaaaa") == (8, 7, 5)
    assert path_to_partition("aaaa") == ()
    assert path_to_partition("ba") == (1,)
    assert path_to_partition("") == ()


def test_durfee_examples():
    assert durfee((8, 7, 5)) == 3
    assert durfee((1,)) == 1
    assert durfee(()) == 0
    assert durfee((3, 1, 1, 1)) == 1
    assert durfee((3, 2, 1)) == 2


def test_diagonal_hooks_examples():
    assert diagonal_hooks((8, 7, 5)) == (10, 7, 3)
    assert diagonal_hooks((1,)) == (1,)
    assert diagonal_hooks(()) == ()


def test_diagonal_hooks_match_cell_count():
    for n in range(13):
        for p in partitions_of(n):
            assert diagonal_hooks(p) == cell_hooks(p)
            assert is_super_distinct(diagonal_hooks(p))
            assert sum(diagonal_hooks(p)) == n
            assert len(diagonal_hooks(p)) == durfee(p)


def test_composite_lands_on_hook_partitions():
    for n in range(23):
        by_hooks = {}
        for p in partitions_of(n):
            by_hooks.setdefault(diagonal_hooks(p), set()).add(p)
        for q in partitions_of(n):
            if not is_super_distinct(q):
                continue
            images = set()
            for coords, part in fiber(q):
                img = path_to_partition(foata_fiber(q, coords))
                assert sum(img) == sum(part)
                assert len(img) == sum(coords) == len(part)
                assert diagonal_hooks(img) == q
                assert durfee(img) == len(q)
                images.add(img)
            assert len(images) == len(fiber(q))  # injective on the fiber
            assert images == by_hooks.get(q, set())  # surjective onto hook class


def test_composite_sends_two_measure_to_durfee():
    from burgebox.partitions import _two_measure, to_frequency

    for n in range(13):
        for q in partitions_of(n):
            if not is_super_distinct(q):
                continue
            for coords, part in fiber(q):
                img = path_to_partition(foata_fiber(q, coords))
                assert durfee(img) == _two_measure(to_frequency(part))


def test_single_part_composite_gives_hooks():
    # coordinate (i) of the fiber over (n) maps to the hook [n-i+1, 1^(i-1)]
    for n in range(1, 10):
        for i in range(1, n + 1):
            img = path_to_partition(foata_fiber((n,), (i,)))
            assert img == (n - i + 1,) + (1,) * (i - 1)


def test_foata_rejects_bad_coords():
    with pytest.raises(ValueError):
        foata_fiber((10, 7, 3), (4, 1, 1))
