"""Named exhaustive property suites, runnable from the command line.

Each check walks every instance up to the configured size bound and
reports pass/fail counts plus a reproducer command for the first failing
instance.  All checks are deterministic given the configuration.
"""

from __future__ import annotations

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


def _all_partitions(max_n: int):
    for n in range(max_n + 1):
        yield from partitions_of(n)


def _pstr(p) -> str:
    return ",".join(str(x) for x in p) if p else "e"


def check_lem_stats(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("lem-stats")
    for p in _all_partitions(cfg.max_n):
        f = to_frequency(p)
        df = burge.apply_del(f)
        in_b = burge.in_class_b(f)
        ok = (
            length(df) == length(f) - (1 if in_b else 0)
            and size(df) == size(f) - two_measure(f)
            and two_measure(df)
            == two_measure(f) - (1 if in_b and not burge.in_class_b(df) else 0)
        )
        res.record(ok, f"burgebox chain {_pstr(p)}")
    return res


def check_prop_stats(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("prop-stats")
    for p in _all_partitions(cfg.max_n):
        f = to_frequency(p)
        w = burge.encode(f)
        ok = (
            length(f) == w.count("b")
            and size(f) == burge.maj(w)
            and two_measure(f) == burge.des(w)
        )
        res.record(ok, f"burgebox encode {_pstr(p)}")
    return res


def check_prop_characterization(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("prop-characterization")
    for p in _all_partitions(cfg.max_n):
        report = burge.characterize_superdistinct(p)
        res.record(report.consistent, f"burgebox encode {_pstr(p)}")
    return res


def check_main_vs_oblak(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("thm-main-vs-oblak")
    for p in _all_partitions(cfg.max_n):
        ok = burge.descent_map(p) == oblak(to_frequency(p))
        res.record(ok, f"burgebox dmap {_pstr(p)}  # vs: burgebox oblak {_pstr(p)}")
    return res


def check_cor_box(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("cor-box")
    for n in range(cfg.max_n + 1):
        fibers: dict = {}
        for p in partitions_of(n):
            fibers.setdefault(burge.descent_map(p), set()).add(p)
        supers = [q for q in partitions_of(n) if is_super_distinct(q)]
        res.record(
            set(fibers) == set(supers),
            f"burgebox sweep --max-n {n} --checks cor-box",
        )
        for q in supers:
            box = boxes.fiber(q)
            expect_size = 1
            for dj in boxes.delta(q):
                expect_size *= dj
            members = {part for _, part in box}
            ok = (
                len(box) == expect_size
                and members == fibers.get(q, set())
                and all(len(part) == sum(c) for c, part in box)
            )
            res.record(ok, f"burgebox fiber {_pstr(q)} --json")
    return res


def check_oblakburge(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("thm-oblakburge")
    for p in _all_partitions(cfg.max_n):
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
        res.record(ok, f"burgebox oblak-chains {_pstr(p)}")
    return res


def check_khatami(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("prop-khatami")
    for p in _all_partitions(cfg.max_n):
        f = to_frequency(p)
        valuations = {c.valuation for c in oblak_all_chains(f)}
        res.record(len(valuations) == 1, f"burgebox oblak-chains {_pstr(p)}")
    return res


def check_foata_hooks(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("foata-hooks")
    for n in range(cfg.max_n + 1):
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
            res.record(ok, f"burgebox foata {_pstr(q)} --coords {coords_str}")
    return res


def check_matrix_restriction(cfg: SweepConfig) -> CheckResult:
    res = CheckResult("matrix-restriction")
    for p in _all_partitions(cfg.max_n):
        report = oracle.verify_restriction(
            p, p=cfg.field, trials=cfg.trials, seed=cfg.seed
        )
        res.record(
            report.ok,
            f"burgebox verify --partition {_pstr(p)} --field {cfg.field}"
            f" --trials {cfg.trials} --seed {cfg.seed}",
        )
    return res


def check_matrix_dominance(cfg: SweepConfig) -> CheckResult:
    """A partition whose scan exceeds the budget counts as a failed instance."""
    res = CheckResult("matrix-dominance")
    for p in _all_partitions(cfg.max_n):
        repro = f"burgebox scan-max --partition {_pstr(p)} --field {cfg.scan_field}"
        try:
            report = oracle.scan_max_type(p, p=cfg.scan_field)
        except BudgetError as exc:
            res.record(False, f"{repro}  # infeasible configuration: {exc}")
            continue
        ok = report.ok and all(
            dominates(report.max_type, t) for t in report.types
        )
        res.record(ok, repro)
    return res


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
    """Run the selected checks (all of them if none are named) one after another, in order."""
    results = []
    for name in cfg.checks or CHECKS:
        start = time.perf_counter()
        result = CHECKS[name](cfg)
        result.elapsed = time.perf_counter() - start
        results.append(result)
    return results
