"""Named exhaustive property suites, runnable from the command line.

``CHECKS`` maps each name to a check, its cost and its reproducer.  Eight
checks are predicates ``check(p, f, cfg, tables) -> bool`` of a partition and
its frequency sequence: ``run_sweep`` owns their partition loop, walking
``partitions_of(n)`` once for n = 0 .. max_n, and records one instance per
partition, with ``reproducer(text, cfg)`` built for the first failing one only.
``cor-box`` and ``foata-hooks`` walk n once themselves and index its partitions
by their Q, the descent-map image or the diagonal hooks; they record one
instance per Q of that index, which on working code is one per super-distinct
partition of n.  Their reproducer is None, and they are called as
``check(n, cfg, record, tables)``.  Results keep pass/fail counts, wall and
CPU time and the first failing reproducer; checks are deterministic given cfg.
``cost(n, p(n), cfg)`` predicts a check's µs at size n from weights measured
near its frontier, and ``SweepConfig`` refuses, before any check runs, the
first n that takes the selected checks over ``SWEEP_BUDGET_US`` in all.

Each check gets its own ``Tables``, made when it starts and dropped when it
ends: Burge's code word and the Oblak output of each frequency sequence,
each built by one step of its route from the entry of a smaller sequence.
The sweep runs n upward, so each partition costs one step of each route it
reads; ``prop-characterization`` hands its one demotion of f to the word
step.  A check that fills its tables with every partition up to max-n is
refused past ``TABLE_MAX_N``.  No check runs a whole Burge kernel: every
word comes from the word table, ``cor-box`` compares box words with it, and
``foata-hooks`` walks the box coordinates.

``partitions_of`` yields checked partitions, which pass every public check at
once; the chain checks step with ``kernels.successors``, which checks each
step's size drop.  Frequency sequences and words are not branded, so on those
the checks call the private helpers.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import kernels, oracle
from .boxes import _box, _delta, _fiber_word
from .burge import _characterization, _descents, _letter
from .partitions import (
    _two_measure,
    partition_counts,
    partitions_of,
    to_frequency,
)
from .words import _foata_word, _path_partition, diagonal_hooks


@dataclass(frozen=True)
class SweepConfig:
    max_n: int
    checks: tuple = ()          # empty means: run everything
    field: int | None = None    # of both matrix checks, a prime; None: each check's own default
    trials: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_n < 0:
            raise ValueError("max_n must be >= 0")
        if unknown := set(self.checks) - set(CHECKS):
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        selected = self.checks or tuple(CHECKS)
        if self.field is not None and {"matrix-restriction", "matrix-dominance"} & set(selected):
            oracle.check_prime(self.field)
        if refusal := self._refusal(selected):
            if not self.checks:
                fit = ", ".join(name for name in CHECKS if not self._refusal((name,))) or "none"
                refusal += f"; name checks with --checks (these fit alone to {self.max_n}: {fit})"
            raise ValueError(refusal)

    def _refusal(self, names) -> str | None:
        """Why the named checks cannot run to max_n: the first n that takes them over the budget."""
        total = 0
        for n, count in zip(range(self.max_n + 1), partition_counts()):
            for name in names:
                try:
                    total += CHECKS[name][1](n, count, self)
                except ValueError as exc:  # a verify or scan of size n, or a table, is over its cap
                    return f"{name} at n = {n}: {exc}"
                if total > SWEEP_BUDGET_US:
                    return (f"{name} at n = {n} takes the predicted cost to {total / 1e6:.3g} s,"
                            f" over the sweep budget {SWEEP_BUDGET_US / 1e6:g} s")
        return None


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: int = 0
    first_counterexample: str | None = None
    elapsed: float = 0.0
    cpu: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, repro) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = repro()

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "instances": self.instances,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "elapsed": round(self.elapsed, 3),
            "cpu": round(self.cpu, 3),
        }


def _pstr(p) -> str:
    return ",".join(str(x) for x in p) if p else "e"


class _Table(dict):
    """Values by frequency sequence; ``step(f, table)`` builds a missing one from smaller ones."""

    def __init__(self, step):
        super().__init__()
        self.step = step

    def __missing__(self, f):
        self[f] = value = self.step(f, self)
        return value


def _word_step(f, words, df=None) -> str:
    """Burge's code word of f: its class letter, then the word of del f, df if given."""
    return _letter(f) + words[kernels.demote(f) if df is None else df] if f else "a"


def _oblak_step(f, outputs) -> tuple:
    """The Oblak output of f: the process's own first step (size drop checked), then the rest."""
    if not f:
        return ()
    ev, g = kernels.oblak_step(f, kernels.size(f))
    return (ev, *outputs[g])


class Tables:
    """One check's tables of code words and Oblak outputs; neither reads the other."""

    def __init__(self):
        self.words, self.oblak = _Table(_word_step), _Table(_oblak_step)


def check_lem_stats(p, f, cfg: SweepConfig, tables) -> bool:
    df, two = kernels.demote(f), _two_measure(f)
    in_b = _letter(f) == "b"
    return (sum(df) == sum(f) - in_b
            and kernels.size(df) == kernels.size(f) - two
            and _two_measure(df) == two - (in_b and _letter(df) == "a"))


def check_prop_stats(p, f, cfg: SweepConfig, tables) -> bool:
    w = tables.words[f]
    descents = _descents(w)
    return (sum(f) == w.count("b")
            and kernels.size(f) == sum(descents)
            and _two_measure(f) == len(descents))


def check_prop_characterization(p, f, cfg: SweepConfig, tables) -> bool:
    df = kernels.demote(f)  # one demotion, for the word step and the seven tests
    tables.words[f] = w = _word_step(f, tables.words, df)
    return len(set(_characterization(p, f, df, w))) == 1


def check_main_vs_oblak(p, f, cfg: SweepConfig, tables) -> bool:
    return _descents(tables.words[f])[::-1] == tables.oblak[f]


def check_cor_box(n: int, cfg: SweepConfig, record, tables) -> None:
    fibers = defaultdict(Counter)  # Q: Counter of (code word, part count) of the partitions at Q
    for p in partitions_of(n):
        w = tables.words[to_frequency(p)]
        fibers[_descents(w)[::-1]][w, len(p)] += 1
    # one partition for each box word at c, with sum(c) parts; a Q that is not
    # super-distinct has a dimension <= 0, so its empty box fails the comparison
    for q in sorted(fibers, reverse=True):
        d = _delta(q)
        ok = fibers[q] == Counter((_fiber_word(d, c), sum(c)) for c in _box(d))
        record(ok, lambda: f"burgebox fiber {_pstr(q)} --json")


# Both Oblak chain checks state one step of the process: () takes none, and the one
# step of (1,) has evaluation 1 and collapses.  Every later state of a chain of f is
# a smaller partition, checked at an earlier n, so by induction on n a sweep passes
# these steps exactly when del maps each chain of f to a chain of del f with every
# evaluation one lower, and all chains of f have one valuation.
def check_oblakburge(p, f, cfg: SweepConfig, tables) -> bool:
    if f in ((), (1,)):
        return True
    df = kernels.demote(f)
    (ev, steps), (dev, dsteps) = kernels.successors(f), kernels.successors(df)
    return dev == ev - 1 and {kernels.demote(s) for s in steps} <= dsteps.keys()


def check_khatami(p, f, cfg: SweepConfig, tables) -> bool:
    return len({tables.oblak[s] for s in kernels.successors(f)[1]}) <= 1


def check_foata_hooks(n: int, cfg: SweepConfig, record, tables) -> None:
    """Foata sends the box words of the hooks Q of a partition of n to words whose path
    partitions are all those of n with hooks Q, one per box point c, with sum(c) parts.
    A Q that is not super-distinct has an empty box, so it fails."""
    by_hooks: dict = {}
    for p in partitions_of(n):
        by_hooks.setdefault(diagonal_hooks(p), set()).add(p)
    for q in sorted(by_hooks, reverse=True):
        d = _delta(q)
        images = {c: _path_partition(_foata_word(d, c)) for c in _box(d)}
        # equal sets make each image a partition of n with hooks Q, and |image| is the
        # inversion number of its word by the path's construction: so Foata sends maj,
        # which is n, to inv, and neither the hooks nor inv of an image needs a clause
        ok = (all(len(image) == sum(c) for c, image in images.items())
              and set(images.values()) == by_hooks[q])
        record(ok, lambda: f"burgebox foata {_pstr(q)} --coords {_pstr((1,) * len(q))}")


def restriction_field(cfg: SweepConfig) -> int:
    return cfg.field or oracle.GENERIC_PRIME


def dominance_field(cfg: SweepConfig) -> int:
    return cfg.field or oracle.SCAN_PRIME


def check_matrix_restriction(p, f, cfg: SweepConfig, tables) -> bool:
    return oracle.verify_restriction(p, p=restriction_field(cfg), trials=cfg.trials, seed=cfg.seed).ok


def check_matrix_dominance(p, f, cfg: SweepConfig, tables) -> bool:
    return oracle.scan_max_type(p, p=dominance_field(cfg)).ok


def per_partition(us: float):
    return lambda n, count, cfg: us * count


def tabled(us: float):
    """``per_partition`` for a check whose tables can hold every partition up to n."""
    def cost(n: int, count: int, cfg: SweepConfig) -> float:
        if n > TABLE_MAX_N:
            entries = sum(itertools.islice(partition_counts(), n + 1))
            raise ValueError(f"a table of {entries} partitions exceeds the table cap {TABLE_CAP}")
        return us * count
    return cost


def restriction_cost(n: int, count: int, cfg: SweepConfig) -> float:
    return 0.025 * count * oracle.restriction_work(n, cfg.trials)  # µs per unit of verify work


def dominance_cost(n: int, count: int, cfg: SweepConfig) -> float:
    # µs per matrix: the GF(2) scan types thousands at once; over odd p each n x n one is alone
    field = dominance_field(cfg)
    return oracle.scan_work(n, field) * (0.12 if field == 2 else 0.8 * n**3)


SWEEP_BUDGET_US = 30 * 10**6  # a sweep predicted to take longer is refused
TABLE_CAP = 10**6  # partitions a check's tables may hold, about 370 B each with both
TABLE_MAX_N = next(n for n, entries in enumerate(itertools.accumulate(partition_counts()))
                   if entries > TABLE_CAP) - 1  # the largest max-n whose tables fit the cap
CHECKS = {  # name: (check, cost, reproducer); weights at the frontier, where a partition costs most
    "lem-stats": (check_lem_stats, per_partition(30), lambda p, cfg: f"burgebox chain {p}"),
    "prop-stats": (check_prop_stats, tabled(15), lambda p, cfg: f"burgebox encode {p}"),
    "prop-characterization": (check_prop_characterization, tabled(33),
                              lambda p, cfg: f"burgebox encode {p}"),
    "thm-main-vs-oblak": (check_main_vs_oblak, tabled(22),
                          lambda p, cfg: f"burgebox dmap {p}  # vs: burgebox oblak {p}"),
    "cor-box": (check_cor_box, tabled(22), None),
    "thm-oblakburge": (check_oblakburge, per_partition(30),
                       lambda p, cfg: f"burgebox oblak-chains {p}"),
    "prop-khatami": (check_khatami, per_partition(12), lambda p, cfg: f"burgebox oblak-chains {p}"),
    "foata-hooks": (check_foata_hooks, per_partition(24), None),
    "matrix-restriction": (check_matrix_restriction, restriction_cost, lambda p, cfg: (
        f"burgebox verify --partition {p} --field {restriction_field(cfg)}"
        f" --trials {cfg.trials} --seed {cfg.seed}")),
    "matrix-dominance": (check_matrix_dominance, dominance_cost, lambda p, cfg: (
        f"burgebox scan-max --partition {p} --field {dominance_field(cfg)}")),
}


def run_sweep(cfg: SweepConfig) -> list:
    """Run the selected checks (all of them if none are named) one after another, in order.

    Each check gets fresh tables, which go when it ends: no entry is shared
    between checks or sweeps.  A check that raises for some n is one failed
    instance and ends that n; the sweep goes on with n + 1, whose steps build
    any entry the failed n left missing.
    """
    results = []
    for name in cfg.checks or CHECKS:
        check, _, reproducer = CHECKS[name]
        result = CheckResult(name)
        start, cpu = time.perf_counter(), time.process_time()
        tables = Tables()
        for n in range(cfg.max_n + 1):
            try:
                if reproducer is None:
                    check(n, cfg, result.record, tables)
                    continue
                for p in partitions_of(n):
                    result.record(check(p, to_frequency(p), cfg, tables),
                                  lambda: reproducer(_pstr(p), cfg))
            except (ValueError, AssertionError) as exc:
                raised = f"burgebox sweep --max-n {n} --checks {name}  # raised: {exc}"
                result.record(False, lambda: raised)
        del tables  # freeing them is part of the check's time
        result.elapsed = time.perf_counter() - start
        result.cpu = time.process_time() - cpu
        results.append(result)
    return results
