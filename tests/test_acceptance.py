"""End-to-end acceptance suite.

Every check here runs an exhaustive or tabulated verification at zero
tolerance and prints one PASS line (visible with ``pytest -s``) including
its elapsed time.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

from burgebox.boxes import delta, fiber, fiber_code
from burgebox.burge import (
    apply_del,
    burge_chain,
    descent_map,
    des,
    encode,
    in_class_b,
    maj,
)
from burgebox.oblak import del_chain, is_valid_chain, oblak, oblak_all_chains, oblak_chain
from burgebox.oracle import scan_max_type, verify_restriction
from burgebox.partitions import (
    dominates,
    is_super_distinct,
    length,
    partitions_of,
    reduced,
    size,
    to_frequency,
    to_partition,
    two_measure,
)
from burgebox.words import diagonal_hooks, durfee, foata_fiber, inversions, path_to_partition


@contextmanager
def report(label):
    start = time.perf_counter()
    yield
    print(f"PASS {label} [{time.perf_counter() - start:.2f}s]")


# The 18 fiber elements over (10, 7, 3): coords -> (code, partition, #parts).
FIBER_10_7_3 = {
    (1, 1, 1): ("aabaaabaaba", (10, 7, 3), 3),
    (2, 1, 1): ("abbaaabaaba", (10, 7, 2, 1), 4),
    (3, 1, 1): ("bbbaaabaaba", (10, 7, 1, 1, 1), 5),
    (1, 2, 1): ("aabaabbaaba", (10, 5, 3, 2), 4),
    (2, 2, 1): ("abbaabbaaba", (10, 4, 3, 2, 1), 5),
    (3, 2, 1): ("bbbaabbaaba", (10, 4, 3, 1, 1, 1), 6),
    (1, 3, 1): ("aababbbaaba", (10, 5, 2, 2, 1), 5),
    (2, 3, 1): ("abbabbbaaba", (10, 5, 2, 1, 1, 1), 6),
    (3, 3, 1): ("bbbabbbaaba", (10, 5, 1, 1, 1, 1, 1), 7),
    (1, 1, 2): ("aabaaababba", (9, 5, 3, 3), 4),
    (2, 1, 2): ("abbaaababba", (9, 4, 4, 2, 1), 5),
    (3, 1, 2): ("bbbaaababba", (9, 4, 4, 1, 1, 1), 6),
    (1, 2, 2): ("aabaabbabba", (9, 5, 2, 2, 2), 5),
    (2, 2, 2): ("abbaabbabba", (9, 4, 3, 2, 1, 1), 6),
    (3, 2, 2): ("bbbaabbabba", (9, 4, 3, 1, 1, 1, 1), 7),
    (1, 3, 2): ("aababbbabba", (9, 5, 2, 2, 1, 1), 6),
    (2, 3, 2): ("abbabbbabba", (9, 5, 2, 1, 1, 1, 1), 7),
    (3, 3, 2): ("bbbabbbabba", (9, 5, 1, 1, 1, 1, 1, 1), 8),
}

# Iterated demotion of (5, 3, 2, 2, 1): state and class letter at each step.
CHAIN_5_3_2_2_1 = [
    ((1, 2, 1, 0, 1), "b"),
    ((0, 3, 0, 1), "a"),
    ((1, 2, 1), "b"),
    ((0, 3), "a"),
    ((1, 2), "a"),
    ((2, 1), "a"),
    ((3,), "b"),
    ((2,), "b"),
    ((1,), "b"),
    ((), "a"),
]

# Demotion chain of (7, 4, 2, 1): frequency state, code word, partition,
# and descent partition at each step.
CHAIN_7_4_2_1 = [
    ((1, 1, 0, 1, 0, 0, 1), "ababbaba", (7, 4, 2, 1), (7, 5, 2)),
    ((2, 0, 1, 0, 0, 1), "babbaba", (6, 3, 1, 1), (6, 4, 1)),
    ((1, 1, 0, 0, 1), "abbaba", (5, 2, 1), (5, 3)),
    ((2, 0, 0, 1), "bbaba", (4, 1, 1), (4, 2)),
    ((1, 0, 1), "baba", (3, 1), (3, 1)),
    ((0, 1), "aba", (2,), (2,)),
    ((1,), "ba", (1,), (1,)),
    ((), "a", (), ()),
]

# Chain-map grid for (14, 10, 5, 2, 2, 2, 1): states of each derived chain.
GRID_14_10_5_2 = [
    ((1, 3, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
     (1, 3, 0, 0, 1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0, 1), (0, 0, 1), ()),
    ((2, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
     (2, 2, 0, 1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 1), (0, 1), ()),
    ((3, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
     (3, 1, 1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1), (1,), ()),
    ((2, 2, 0, 0, 0, 0, 1, 0, 0, 0, 1), (2, 2, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1), ()),
    ((3, 1, 0, 0, 0, 1, 0, 0, 0, 1), (3, 1, 0, 0, 0, 1), (0, 0, 0, 1), ()),
    ((4, 0, 0, 0, 1, 0, 0, 0, 1), (4, 0, 0, 0, 1), (0, 0, 1), ()),
    ((3, 0, 0, 1, 0, 0, 0, 1), (3, 0, 0, 1), (0, 1), ()),
    ((2, 0, 1, 0, 0, 0, 1), (2, 0, 1), (1,), ()),
    ((1, 1, 0, 0, 0, 1), (1, 1), ()),
    ((2, 0, 0, 0, 1), (2,), ()),
    ((1, 0, 0, 1), (1,), ()),
    ((0, 0, 1), ()),
    ((0, 1), ()),
    ((1,), ()),
    ((),),
]


def test_fiber_table_over_10_7_3():
    with report("fiber over (10,7,3): all 18 rows, row-by-row"):
        assert delta((10, 7, 3)) == (3, 3, 2)
        rows = fiber((10, 7, 3))
        assert len(rows) == 18
        got = {
            coords: (fiber_code((10, 7, 3), coords), part, len(part))
            for coords, part in rows
        }
        assert got == FIBER_10_7_3


def test_intro_example_and_both_chain_tables():
    with report("code word and descent map of (5,3,2,2,1); both chain tables"):
        f = to_frequency((5, 3, 2, 2, 1))
        assert encode(f) == "babaaabbba"
        assert descent_map((5, 3, 2, 2, 1)) == (9, 3, 1)
        ch = burge_chain(f)
        assert list(zip(ch.states, ch.word)) == CHAIN_5_3_2_2_1
        state = to_frequency((7, 4, 2, 1))
        for expected_state, word, part, desc in CHAIN_7_4_2_1:
            assert state == expected_state
            assert encode(state) == word
            assert to_partition(state) == part
            assert descent_map(part) == desc
            state = apply_del(state)


def test_statistic_laws_exhaustive_to_25():
    with report("letter-count, major-index and descent statistics, all n <= 25"):
        for n in range(26):
            for p in partitions_of(n):
                f = to_frequency(p)
                df = apply_del(f)
                assert length(df) == length(f) - (1 if in_class_b(f) else 0)
                assert size(df) == size(f) - two_measure(f)
                drop = 1 if in_class_b(f) and not in_class_b(df) else 0
                assert two_measure(df) == two_measure(f) - drop
                w = encode(f)
                assert length(f) == w.count("b")
                assert size(f) == maj(w)
                assert two_measure(f) == des(w)


def test_descent_map_equals_oblak_to_22():
    with report("descent map == greedy process output, all n <= 22"):
        for n in range(23):
            for p in partitions_of(n):
                assert descent_map(p) == oblak(to_frequency(p))


def test_box_fibers_partition_everything_to_22():
    with report("fibers = coordinate boxes with exact sizes and part counts, n <= 22"):
        for n in range(23):
            grouped = {}
            for p in partitions_of(n):
                grouped.setdefault(descent_map(p), set()).add(p)
            supers = {q for q in partitions_of(n) if is_super_distinct(q)}
            assert set(grouped) == supers
            for q in supers:
                rows = fiber(q)
                expected = 1
                for dj in delta(q):
                    expected *= dj
                assert len(rows) == expected
                assert {part for _, part in rows} == grouped[q]
                for coords, part in rows:
                    assert len(part) == sum(coords)


def test_choice_independence_to_18():
    with report("all maximal-index branchings give one valuation, |f| <= 18"):
        for n in range(19):
            for p in partitions_of(n):
                f = to_frequency(p)
                chains = oblak_all_chains(f)
                assert len({c.valuation for c in chains}) == 1
                assert chains[0].valuation == oblak(f)


def test_chain_map_shadowing_to_16_and_grid():
    with report("chain map valid with valuation decrement, |f| <= 16, plus grid"):
        for n in range(17):
            for p in partitions_of(n):
                f = to_frequency(p)
                for chain in oblak_all_chains(f):
                    image = del_chain(chain)
                    assert is_valid_chain(image)
                    assert image.states[0] == apply_del(f)
                    assert image.valuation == reduced(chain.valuation)
        chain = oblak_chain(to_frequency((14, 10, 5, 2, 2, 2, 1)))
        grid = []
        while True:
            grid.append(chain.states)
            if chain.states[0] == ():
                break
            chain = del_chain(chain)
        assert grid == [tuple(row) for row in GRID_14_10_5_2]


def test_witness_restriction_to_9_over_big_field():
    with report("witness and 5/5 random images realize the demoted type, |P| <= 9, GF(10007)"):
        for n in range(10):
            for p in partitions_of(n):
                rep = verify_restriction(p, p=10007, trials=5, seed=0)
                assert rep.witness_ok, (p, rep.witness_observed, rep.expected)
                assert rep.misses == [], (p, rep.misses)
        worked = verify_restriction((4, 4, 3, 2, 2), p=10007, trials=5, seed=0)
        assert to_frequency(worked.witness_observed) == (1, 1, 2, 1)
        assert worked.ok


def test_dominance_maximum_exhaustive_over_gf2():
    with report("scanned commutators have dominance maximum = descent map, |P| <= 5, GF(2)"):
        for n in range(6):
            for p in partitions_of(n):
                rep = scan_max_type(p, p=2, budget=2**24)
                assert rep.scanned <= 2**24
                assert rep.max_type is not None
                assert rep.max_type == descent_map(p) == rep.expected
                for t in rep.types:
                    assert dominates(rep.max_type, t)


def test_dominance_maximum_exhaustive_over_gf2_n6():
    with report("scanned commutators have dominance maximum = descent map, |P| = 6, GF(2)"):
        for p in partitions_of(6):
            rep = scan_max_type(p, p=2, budget=2**24)
            assert rep.scanned <= 2**24
            assert rep.max_type is not None
            assert rep.max_type == descent_map(p) == rep.expected
            for t in rep.types:
                assert dominates(rep.max_type, t)


def test_hook_correspondence_to_18():
    with report("fibers biject onto diagonal-hook classes via the path composite, |Q| <= 18"):
        for n in range(19):
            by_hooks = {}
            for p in partitions_of(n):
                by_hooks.setdefault(diagonal_hooks(p), set()).add(p)
            for q in partitions_of(n):
                if not is_super_distinct(q):
                    continue
                images = set()
                for coords, part in fiber(q):
                    w = foata_fiber(q, coords)
                    img = path_to_partition(w)
                    assert inversions(w) == sum(part) == sum(img)
                    assert len(img) == sum(coords)
                    assert diagonal_hooks(img) == q
                    assert durfee(img) == len(q)
                    images.add(img)
                assert len(images) == len(fiber(q))
                assert images == by_hooks.get(q, set())
