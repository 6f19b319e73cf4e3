"""Named exhaustive property suites, runnable from the command line.

``run_sweep`` calls each check as ``check(n, cfg, record)`` for n = 0 ..
max_n; the check calls ``record(ok, repro)`` once per instance of size n.
Each result keeps pass/fail counts plus the reproducer command of the
first failing instance.  All checks are deterministic given the configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import boxes, burge, oracle, words
from .errors import BudgetError
from .oblak import del_chain, is_valid_chain, oblak, oblak_all_chains
from .partitions import (
    dominates,
    is_super_distinct,
    length,
    partitions_of,
    reduced,
    size,
    to_frequency,
    two_measure,
)


@dataclass(frozen=True)
class SweepConfig:
    max_n: int
    checks: tuple = ()          # empty means: run everything
    field: int = 10007          # matrix-restriction
    scan_field: int = 2         # matrix-dominance: its scan covers scan_field^slots matrices
    trials: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_n < 0:
            raise ValueError("max_n must be >= 0")
        unknown = set(self.checks) - set(CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if "matrix-restriction" in (self.checks or CHECKS):  # its work grows with n
            oracle.check_restriction_work(self.max_n, self.trials)


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: int = 0
    first_counterexample: str | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, repro: str) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = repro

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "instances": self.instances,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "elapsed": round(self.elapsed, 3),
        }


def _pstr(p) -> str:
    return ",".join(str(x) for x in p) if p else "e"


def check_lem_stats(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        f = to_frequency(p)
        df = burge.apply_del(f)
        in_b = burge.in_class_b(f)
        ok = (
            length(df) == length(f) - (1 if in_b else 0)
            and size(df) == size(f) - two_measure(f)
            and two_measure(df)
            == two_measure(f) - (1 if in_b and not burge.in_class_b(df) else 0)
        )
        record(ok, f"burgebox chain {_pstr(p)}")


def check_prop_stats(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        f = to_frequency(p)
        w = burge.encode(f)
        ok = (
            length(f) == w.count("b")
            and size(f) == burge.maj(w)
            and two_measure(f) == burge.des(w)
        )
        record(ok, f"burgebox encode {_pstr(p)}")


def check_prop_characterization(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        report = burge.characterize_superdistinct(p)
        record(report.consistent, f"burgebox encode {_pstr(p)}")


def check_main_vs_oblak(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        ok = burge.descent_map(p) == oblak(to_frequency(p))
        record(ok, f"burgebox dmap {_pstr(p)}  # vs: burgebox oblak {_pstr(p)}")


def check_cor_box(n: int, cfg: SweepConfig, record) -> None:
    fibers: dict = {}
    for p in partitions_of(n):
        fibers.setdefault(burge.descent_map(p), set()).add(p)
    supers = [q for q in partitions_of(n) if is_super_distinct(q)]
    record(
        set(fibers) == set(supers),
        f"burgebox sweep --max-n {n} --checks cor-box",
    )
    for q in supers:
        box = boxes.fiber(q)
        expect_size = math.prod(boxes.delta(q))
        members = {part for _, part in box}
        ok = (
            len(box) == expect_size
            and members == fibers.get(q, set())
            and all(len(part) == sum(c) for c, part in box)
        )
        record(ok, f"burgebox fiber {_pstr(q)} --json")


def check_oblakburge(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        f = to_frequency(p)
        ok = True
        for chain in oblak_all_chains(f):
            image = del_chain(chain)
            ok = (
                ok
                and is_valid_chain(image)
                and image.states[0] == burge.apply_del(f)
                and image.valuation == reduced(chain.valuation)
            )
        record(ok, f"burgebox oblak-chains {_pstr(p)}")


def check_khatami(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        f = to_frequency(p)
        valuations = {c.valuation for c in oblak_all_chains(f)}
        record(len(valuations) == 1, f"burgebox oblak-chains {_pstr(p)}")


def check_foata_hooks(n: int, cfg: SweepConfig, record) -> None:
    by_hooks: dict = {}
    for p in partitions_of(n):
        by_hooks.setdefault(words.diagonal_hooks(p), set()).add(p)
    for q in partitions_of(n):
        if not is_super_distinct(q):
            continue
        box = boxes.fiber(q)
        images = set()
        ok = True
        for coords, part in box:
            w = words.foata_fiber(q, coords)
            image = words.path_to_partition(w)
            ok = (
                ok
                and words.inversions(w) == sum(part)
                and sum(image) == sum(part)
                and len(image) == sum(coords)
                and words.diagonal_hooks(image) == q
                and words.durfee(image) == len(q)
            )
            images.add(image)
        ok = ok and len(images) == len(box) and images == by_hooks.get(q, set())
        coords_str = ",".join("1" for _ in q) or "e"
        record(ok, f"burgebox foata {_pstr(q)} --coords {coords_str}")


def check_matrix_restriction(n: int, cfg: SweepConfig, record) -> None:
    for p in partitions_of(n):
        report = oracle.verify_restriction(
            p, p=cfg.field, trials=cfg.trials, seed=cfg.seed
        )
        record(
            report.ok,
            f"burgebox verify --partition {_pstr(p)} --field {cfg.field}"
            f" --trials {cfg.trials} --seed {cfg.seed}",
        )


def check_matrix_dominance(n: int, cfg: SweepConfig, record) -> None:
    """A partition whose scan exceeds the budget counts as a failed instance."""
    for p in partitions_of(n):
        repro = f"burgebox scan-max --partition {_pstr(p)} --field {cfg.scan_field}"
        try:
            report = oracle.scan_max_type(p, p=cfg.scan_field)
        except BudgetError as exc:
            record(False, f"{repro}  # infeasible configuration: {exc}")
            continue
        ok = report.ok and all(
            dominates(report.max_type, t) for t in report.types
        )
        record(ok, repro)


CHECKS = {
    "lem-stats": check_lem_stats,
    "prop-stats": check_prop_stats,
    "prop-characterization": check_prop_characterization,
    "thm-main-vs-oblak": check_main_vs_oblak,
    "cor-box": check_cor_box,
    "thm-oblakburge": check_oblakburge,
    "prop-khatami": check_khatami,
    "foata-hooks": check_foata_hooks,
    "matrix-restriction": check_matrix_restriction,
    "matrix-dominance": check_matrix_dominance,
}


def run_sweep(cfg: SweepConfig) -> list:
    """Run the selected checks (all of them if none are named) one after another, in order.

    A check that raises for some n is one failed instance; the sweep goes on with n + 1.
    """
    results = []
    for name in cfg.checks or CHECKS:
        check = CHECKS[name]
        result = CheckResult(name)
        start = time.perf_counter()
        for n in range(cfg.max_n + 1):
            try:
                check(n, cfg, result.record)
            except (ValueError, AssertionError, BudgetError) as exc:
                repro = f"burgebox sweep --max-n {n} --checks {name}  # raised: {exc}"
                result.record(False, repro)
        result.elapsed = time.perf_counter() - start
        results.append(result)
    return results
