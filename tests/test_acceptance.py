"""End-to-end acceptance suite.

Every exhaustive criterion runs the matching ``burgebox.sweep`` check at
its acceptance bound, at zero tolerance; a failure reports the check's
ready-to-paste ``burgebox ...`` reproducer.  The frozen tables, the grid
and the worked example are checked here directly.  Each test prints one
PASS line (visible with ``pytest -s``) including its elapsed time.  Run
with::

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

from burgebox.boxes import delta, fiber, fiber_code
from burgebox.burge import apply_del, burge_chain, descent_map, encode
from burgebox.oblak import oblak, oblak_all_chains
from burgebox.oracle import verify_restriction
from burgebox.partitions import partitions_of, to_frequency, to_partition
from burgebox.sweep import SweepConfig, run_sweep
from reference_combinatorics import del_chain


@contextmanager
def report(label):
    start = time.perf_counter()
    yield
    print(f"PASS {label} [{time.perf_counter() - start:.2f}s]")


def sweep_checks(*names, max_n, **options):
    """Run the named sweep checks over every partition of size <= max_n."""
    for result in run_sweep(SweepConfig(max_n=max_n, checks=names, **options)):
        assert result.ok, result.first_counterexample
        assert result.instances > 0, result.name


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
        sweep_checks("lem-stats", "prop-stats", max_n=25)


def test_prop_characterization_exhaustive():
    with report("super-distinct iff length = two-measure, no bb, del a shift, Q(P) = P; n <= 25"):
        sweep_checks("prop-characterization", max_n=25)


def test_descent_map_equals_oblak_to_25():
    with report("descent map == greedy process output, all n <= 25"):
        sweep_checks("thm-main-vs-oblak", max_n=25)


def test_box_fibers_partition_everything_to_25():
    with report("fibers = coordinate boxes with exact sizes and part counts, n <= 25"):
        sweep_checks("cor-box", max_n=25)


def test_choice_independence_to_24():
    with report("all maximal-index branchings give one valuation, |f| <= 25; chains |f| <= 24"):
        sweep_checks("prop-khatami", max_n=25)
        for n in range(25):
            for p in partitions_of(n):
                f = to_frequency(p)
                assert oblak_all_chains(f)[0].valuation == oblak(f), p


def test_chain_map_shadowing_to_25_and_grid():
    with report("chain map valid with valuation decrement, |f| <= 25, plus grid"):
        sweep_checks("thm-oblakburge", max_n=25)
        chain = oblak_all_chains(to_frequency((14, 10, 5, 2, 2, 2, 1)))[0]
        grid = []
        while True:
            grid.append(chain.states)
            if chain.states[0] == ():
                break
            chain = del_chain(chain)
        assert grid == [tuple(row) for row in GRID_14_10_5_2]


def test_witness_restriction_to_17_over_big_field():
    with report("witness and 5/5 random images realize the demoted type, |P| <= 17, GF(10007)"):
        sweep_checks("matrix-restriction", max_n=17, field=10007, trials=5, seed=0)
        worked = verify_restriction((4, 4, 3, 2, 2), p=10007, trials=5, seed=0)
        assert to_frequency(worked.witness_observed) == (1, 1, 2, 1)
        assert worked.ok


def test_dominance_maximum_exhaustive_over_gf2():
    with report("scanned commutators have dominance maximum = descent map, |P| <= 5, GF(2)"):
        sweep_checks("matrix-dominance", max_n=5, field=2)


def test_dominance_maximum_exhaustive_over_gf2_n6():
    with report("scanned commutators have dominance maximum = descent map, |P| <= 6, GF(2)"):
        sweep_checks("matrix-dominance", max_n=6, field=2)


def test_dominance_maximum_exhaustive_over_gf2_n7():
    with report("scanned commutators have dominance maximum = descent map, |P| <= 7, GF(2)"):
        sweep_checks("matrix-dominance", max_n=7, field=2)


def test_dominance_maximum_exhaustive_over_gf3():
    with report("scanned commutators have dominance maximum = descent map, |P| <= 5, GF(3)"):
        sweep_checks("matrix-dominance", max_n=5, field=3)


def test_hook_correspondence_to_25():
    with report("fibers biject onto diagonal-hook classes via the path composite, |Q| <= 25"):
        sweep_checks("foata-hooks", max_n=25)
