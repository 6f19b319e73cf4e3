"""Every sweep check can fail: a fault planted on one partition is reported.

The acceptance gate runs the sweep checks, so it is only as strong as they
are.  Each case below replaces one binding that a check reads with a copy
that is wrong on one partition alone, (3, 1) unless it says otherwise, and
expects the check to record a failure whose reproducer names that partition.
The clause plants break one clause of a check each, so deleting any of those
clauses fails a test; ``tests/mutants.py`` lists those deletions.  ``run_sweep``
walks each size once for every check.  The box checks record one instance per
super-distinct partition, and report a partition filed under any other Q.
"""

import sys

import pytest

from burgebox import burge, kernels, oracle, partitions, sweep, words
from burgebox.oblak import oblak_all_chains
from burgebox.partitions import partitions_of, to_frequency
from burgebox.sweep import CHECKS, SweepConfig, run_sweep
from reference_combinatorics import del_chain, is_valid_chain

TARGET = (3, 1)
F = to_frequency(TARGET)


def extra_part(out):
    return (*out, 1)


# check -> (owner, binding, first argument it goes wrong on, wrong result, reproducer)
PLANTED = {
    "lem-stats": (
        sweep, "_two_measure", F, lambda m: m + 1, "burgebox chain 3,1",
    ),
    "prop-stats": (
        sweep, "_descents", burge.encode(F), lambda d: d[1:], "burgebox encode 3,1",
    ),
    "prop-characterization": (
        burge, "is_super_distinct", TARGET, lambda s: not s, "burgebox encode 3,1",
    ),
    "thm-main-vs-oblak": (
        sweep, "_oblak_step", F, extra_part, "burgebox dmap 3,1  # vs: burgebox oblak 3,1",
    ),
    "cor-box": (  # the box (1, 1) is that of (3,1) alone; its one word gains a letter
        sweep, "_fiber_word", (1, 1), lambda w: "a" + w, "burgebox fiber 3,1 --json",
    ),
    "thm-oblakburge": (
        sweep, "_demoted", F, extra_part, "burgebox oblak-chains 3,1",
    ),
    "prop-khatami": (  # (3,1) steps to (1,) alone; (2,) has another Oblak output
        sweep, "_successors", F, lambda steps: {**steps, (2,): 1}, "burgebox oblak-chains 3,1",
    ),
    "foata-hooks": (
        sweep, "_path_partition", words.foata_fiber(TARGET, (1, 1)), extra_part,
        "burgebox foata 3,1 --coords 1,1",
    ),
    "matrix-restriction": (
        oracle, "apply_del", F, extra_part,
        "burgebox verify --partition 3,1 --field 10007 --trials 1 --seed 0",
    ),
    "matrix-dominance": (
        oracle, "descent_map", TARGET, extra_part,
        "burgebox scan-max --partition 3,1 --field 2",
    ),
}


def plant(monkeypatch, owner, binding, bad, wrong):
    real = getattr(owner, binding)

    def planted(*args):
        out = real(*args)
        return wrong(out) if args[0] == bad else out

    monkeypatch.setattr(owner, binding, planted)


@pytest.mark.parametrize("name", list(CHECKS))
def test_planted_fault_is_reported(name, monkeypatch):
    *planted, repro = PLANTED[name]
    plant(monkeypatch, *planted)
    (result,) = run_sweep(SweepConfig(max_n=4, checks=(name,), trials=1))
    assert result.failures >= 1
    assert result.first_counterexample == repro


def const(value):
    return lambda out: value


# clause -> (check, plants, max-n, reproducer, failures).  Each fault is wrong on one
# small partition and breaks that one clause of its check, so the check passes when
# the clause is deleted; the failure count pins every other partition as passing.
CLAUSE_PLANTS = {
    "lem-stats-size-of-del": (
        "lem-stats", [(kernels, "size", F, lambda s: s + 1)], 4, "burgebox chain 3,1", 1,
    ),
    "lem-stats-part-count-of-del": (  # (0,1) in place of (2,): same size and two-measure
        "lem-stats", [(sweep, "_demoted", to_frequency((2, 1)), const((0, 1)))], 4,
        "burgebox chain 2,1", 1,
    ),
    "lem-stats-two-measure-of-del": (  # (1,0,1) in place of (0,2): same sum and size
        "lem-stats", [(sweep, "_demoted", to_frequency((3, 2)), const((1, 0, 1)))], 5,
        "burgebox chain 3,2", 1,
    ),
    "prop-stats-part-count": (  # the word of (3,) is aaba; abba has its descents
        "prop-stats", [(sweep, "_word_step", to_frequency((3,)), const("abba"))], 3,
        "burgebox encode 3", 1,
    ),
    "prop-stats-descent-count": (  # only this clause reads the two-measure
        "prop-stats", [(sweep, "_two_measure", F, lambda m: m + 1)], 4, "burgebox encode 3,1", 1,
    ),
    "prop-stats-size": (
        "prop-stats", [(kernels, "size", F, lambda s: s + 1)], 4, "burgebox encode 3,1", 1,
    ),
    "prop-characterization-no-bb": (  # the word of (3,) is aaba; abba has its descents
        "prop-characterization", [(sweep, "_word_step", to_frequency((3,)), const("abba"))], 3,
        "burgebox encode 3", 1,
    ),
    "foata-hooks-part-count": (  # the box images (3,2) at (1,1) and (2,2,1) at (1,2) swap
        "foata-hooks",
        [(sweep, "_path_partition", "babaa", const((2, 2, 1))),
         (sweep, "_path_partition", "bbaba", const((3, 2)))],
        5, "burgebox foata 4,1 --coords 1,1", 1,
    ),
    "cor-box-part-count": (  # (4,1) and (3,1,1), the fiber of (4,1), swap code words
        "cor-box",
        [(sweep, "_word_step", to_frequency((4, 1)), const(burge.encode(to_frequency((3, 1, 1))))),
         (sweep, "_word_step", to_frequency((3, 1, 1)), const(burge.encode(to_frequency((4, 1)))))],
        5, "burgebox fiber 4,1 --json", 1,
    ),
    # the walk of 4 files (2,2) under hooks (4), so the box of (4) misses it; no partition
    # is left under (3,1), which is not visited
    "foata-hooks-every-partition-with-hooks-q": (
        "foata-hooks", [(sweep, "diagonal_hooks", (2, 2), const((4,)))], 4,
        "burgebox foata 4 --coords 1", 1,
    ),
}


@pytest.mark.parametrize("clause", list(CLAUSE_PLANTS))
def test_planted_fault_in_one_clause_is_reported(clause, monkeypatch):
    name, plants, max_n, repro, failures = CLAUSE_PLANTS[clause]
    for planted in plants:
        plant(monkeypatch, *planted)
    (result,) = run_sweep(SweepConfig(max_n=max_n, checks=(name,)))
    assert (result.failures, result.first_counterexample) == (failures, repro)


@pytest.mark.parametrize("name", ["cor-box", "foata-hooks"])
def test_box_checks_record_one_instance_per_super_distinct_partition(name):
    # one instance for each Q that a partition of n maps to: on working code, each
    # super-distinct partition of n and nothing else
    supers = 0
    for n in range(11):
        supers += sum(map(partitions.is_super_distinct, partitions_of(n)))
        (result,) = run_sweep(SweepConfig(max_n=n, checks=(name,)))
        assert (result.instances, result.failures) == (supers, 0)


# (2,1,1) is filed under (2,1), which is not super-distinct: the box of (4) misses it,
# and the box of (2,1) has a dimension 0, so it holds no partition
@pytest.mark.parametrize("name, planted, repro", [
    ("cor-box", (sweep, "_descents", burge.encode(to_frequency((2, 1, 1))), const((1, 2))),
     "burgebox fiber 4 --json"),
    ("foata-hooks", (sweep, "diagonal_hooks", (2, 1, 1), const((2, 1))),
     "burgebox foata 4 --coords 1"),
], ids=["cor-box", "foata-hooks"])
def test_partition_filed_under_a_key_that_is_not_super_distinct_is_reported(
        name, planted, repro, monkeypatch):
    plant(monkeypatch, *planted)
    (result,) = run_sweep(SweepConfig(max_n=4, checks=(name,)))
    assert (result.failures, result.first_counterexample) == (2, repro)


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_check_walks_each_size_once(name, monkeypatch):
    walks = []
    real = sweep.partitions_of

    def counted(n):
        walks.append(n)
        return real(n)

    monkeypatch.setattr(sweep, "partitions_of", counted)
    max_n = 4 if name.startswith("matrix-") else 8
    (result,) = run_sweep(SweepConfig(max_n=max_n, checks=(name,), trials=1))
    assert result.ok
    assert walks == list(range(max_n + 1))


# (8,) gets the word of (7,1): one part too many, and out of its own fiber
WORD_PLANT = (sweep, "_word_step", to_frequency((8,)), lambda w: burge.encode(to_frequency((7, 1))))


@pytest.mark.parametrize("name, repro", [
    ("prop-stats", "burgebox encode 8"),
    ("thm-main-vs-oblak", "burgebox dmap 8  # vs: burgebox oblak 8"),
    ("cor-box", "burgebox fiber 8 --json"),
    ("prop-characterization", "burgebox encode 8"),
])
def test_fault_in_one_word_step_is_reported(name, repro, monkeypatch):
    plant(monkeypatch, *WORD_PLANT)
    (result,) = run_sweep(SweepConfig(max_n=8, checks=(name,)))
    assert result.failures >= 1
    assert result.first_counterexample == repro


# the process's step on (3,1), which it runs on a list, claims evaluation 4 for
# a size drop of 3
STEP_PLANT = (kernels, "max_evaluation", list(F), lambda out: (out[0] + 1, out[1]))


def test_oblak_table_checks_each_size_drop(monkeypatch):
    plant(monkeypatch, *STEP_PLANT)
    (result,) = run_sweep(SweepConfig(max_n=4, checks=("thm-main-vs-oblak",)))
    assert result.failures == 1
    assert result.first_counterexample == (
        "burgebox sweep --max-n 4 --checks thm-main-vs-oblak"
        "  # raised: corrupt chain: size drop 3 != evaluation 4"
    )


@pytest.mark.parametrize("name, planted", [
    ("prop-stats", WORD_PLANT), ("thm-main-vs-oblak", PLANTED["thm-main-vs-oblak"][:-1]),
    ("prop-characterization", WORD_PLANT),
])
def test_no_table_outlives_its_sweep(name, planted, monkeypatch):
    # a table kept across sweeps would hand the second one the clean run's entries
    cfg = SweepConfig(max_n=8, checks=(name,))
    assert run_sweep(cfg)[0].ok
    plant(monkeypatch, *planted)
    assert not run_sweep(cfg)[0].ok


def test_fault_on_a_non_first_chain_is_reported(monkeypatch):
    # (4,1,1) steps to (0,1) at index 0 and to (2,) at index 3, so only a chain after
    # its first passes (2,); planted there, (3,) does not demote to a step of del f
    bad = to_frequency((4, 1, 1))
    real = sweep._successors

    def planted(f, indices):
        steps = real(f, indices)
        return {(3,) if s == (2,) else s: i for s, i in steps.items()} if f == bad else steps

    monkeypatch.setattr(sweep, "_successors", planted)
    (result,) = run_sweep(SweepConfig(max_n=6, checks=("thm-oblakburge",)))
    assert result.failures == 1
    assert result.first_counterexample == "burgebox oblak-chains 4,1,1"


def test_one_step_checks_agree_with_the_chain_forms_to_12():
    # by induction on n, the one-step checks state what these chain forms do
    partition_count = 0
    for n in range(13):
        for p in partitions_of(n):
            partition_count += 1
            f = to_frequency(p)
            chains = oblak_all_chains(f)
            assert len({chain.valuation for chain in chains}) == 1, p
            for chain in chains:
                image = del_chain(chain)
                assert is_valid_chain(image) and image.states[0] == burge.apply_del(f), p
                assert image.valuation == partitions.reduced(chain.valuation), p
    for result in run_sweep(SweepConfig(max_n=12, checks=("thm-oblakburge", "prop-khatami"))):
        assert (result.instances, result.failures) == (partition_count, 0)


def test_raising_check_is_a_failure_with_its_reproducer(monkeypatch):
    real = sweep._successors

    def planted(f, indices):
        if f == F:
            raise ValueError(f"planted fault at {f}")
        return real(f, indices)

    monkeypatch.setattr(sweep, "_successors", planted)
    (result,) = run_sweep(SweepConfig(max_n=5, checks=("thm-oblakburge",)))
    assert result.failures == 1
    assert result.first_counterexample == (
        "burgebox sweep --max-n 4 --checks thm-oblakburge  # raised: planted fault at (1, 0, 1)"
    )
    assert result.instances > 12  # n = 5 still ran after n = 4 raised


@pytest.mark.parametrize("name", [name for name in CHECKS if not name.startswith("matrix-")])
def test_combinatorial_check_validates_at_most_once_per_partition(name, monkeypatch):
    # the partitions that partitions_of yields are checked ones, so every public
    # call on them passes at once: no partition is validated in full, and each
    # frequency sequence at most once
    full = {"as_partition": 0, "as_frequency": 0}
    for validate in (partitions.as_partition, partitions.as_frequency):
        def counted(arg, validate=validate):
            full[validate.__name__] += type(arg) is not partitions._Checked
            return validate(arg)

        for module_name, module in list(sys.modules.items()):
            if module_name == "burgebox" or module_name.startswith("burgebox."):
                for binding, value in list(vars(module).items()):
                    if value is validate:
                        monkeypatch.setattr(module, binding, counted)
    (result,) = run_sweep(SweepConfig(max_n=10, checks=(name,)))
    assert result.ok
    partition_count = sum(1 for n in range(11) for _ in partitions_of(n))
    assert full["as_partition"] == 0
    assert full["as_frequency"] <= partition_count


def test_no_combinatorial_check_runs_a_whole_burge_kernel(monkeypatch):
    # every word comes from a table step and the fiber checks compare box words:
    # no partition is encoded or decoded whole
    def whole(*args):
        raise AssertionError("a sweep check ran a whole Burge kernel")

    monkeypatch.setattr(kernels, "letters", whole)
    monkeypatch.setattr(kernels, "promoted", whole)
    names = tuple(name for name in CHECKS if not name.startswith("matrix-"))
    results = run_sweep(SweepConfig(max_n=10, checks=names))
    assert [(result.name, result.failures) for result in results] == [(name, 0) for name in names]
