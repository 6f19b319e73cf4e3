"""Benchmark for burgebox: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-comb --seed 1 --seconds 20 --trace 0

Runs one workload in this process with one thread, as a closed loop with a
single caller: set-up (import burgebox and build the inputs from the seed,
repeated and timed), one warm-up pass, then timed passes over the
workload's stated bound until ``--seconds`` have gone.  Every time is
reported at a reference machine speed (see ``speed.py``).  Every pass's
outputs are checked against ``reference.json`` and against the paper's
independent routes.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  ``--workload all`` runs every workload, each in its
own process.  The last line of output is one JSON object; the line before
it is the full record.  The exit code is 1 when any output is wrong and 2
when burgebox cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

import workloads
import speed
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SWEEP_CHECKS = (
    "lem-stats", "prop-stats", "prop-characterization", "thm-main-vs-oblak",
    "cor-box", "foata-hooks", "thm-oblakburge", "prop-khatami",
)
_FN = (("calls", "count", "lower"), ("self_s", "s", "lower"), ("us_per_call", "us", "lower"))


def _per_layer() -> list:
    rows = []

    def fn(prefix):
        rows.extend((f"{prefix}.{leaf}", unit, better) for leaf, unit, better in _FN)

    rows += [
        ("partitions.partitions_of.items", "count", "lower"),
        ("partitions.partitions_of.self_s", "s", "lower"),
        ("partitions.validate.calls", "count", "lower"),
        ("partitions.validate.per_item", "calls/item", "lower"),
    ]
    fn("partitions.parse_partition")
    fn("burge.encode")
    rows += [("burge.encode.letters", "count", "lower"), ("burge.encode.us_per_letter", "us", "lower")]
    fn("burge.decode")
    rows += [("burge.decode.letters", "count", "lower"), ("burge.decode.us_per_letter", "us", "lower")]
    rows.append(("burge.apply_del.calls", "count", "lower"))
    fn("burge.descent_map")
    fn("oblak.oblak")
    rows += [
        ("oblak.oblak_all_chains.chains", "count", "lower"),
        ("oblak.oblak_all_chains.self_s", "s", "lower"),
        ("oblak.maximal_indices.calls", "count", "lower"),
        ("boxes.fiber.elements", "count", "lower"),
        ("boxes.fiber.self_s", "s", "lower"),
    ]
    fn("boxes.coordinates_of")
    rows += [
        ("words.foata_fiber.self_s", "s", "lower"),
        ("words.path_to_partition.self_s", "s", "lower"),
        ("words.diagonal_hooks.self_s", "s", "lower"),
    ]
    fn("gfp.matmul")
    rows += [("gfp.matmul.mac_ops", "count", "lower"), ("gfp.matrix.constructs", "count", "lower")]
    fn("gfp.row_echelon_basis")
    rows += [
        ("oracle.scan.matrices", "count", "lower"),
        ("oracle.scan.us_per_matrix", "us", "lower"),
        ("oracle.scan.nilpotent_ratio", "1", "higher"),
    ]
    fn("oracle.jordan_type")
    fn("oracle.restriction_type")
    rows += [
        ("oracle.witness_matrix.self_s", "s", "lower"),
        ("oracle.random_commuting.self_s", "s", "lower"),
        ("oracle.restriction.misses", "count", "lower"),
    ]
    for check in SWEEP_CHECKS:
        rows += [
            (f"sweep.{check}.wall_s", "s", "lower"),
            (f"sweep.{check}.cpu_s", "s", "lower"),
            (f"sweep.{check}.items", "count", "higher"),
        ]
    fn("cli.main")
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


PER_LAYER = _per_layer()

# which end-to-end metrics, on which workloads, each group of layer metrics should move
LAYER_PREDICTIONS = [
    {"layers": ["partitions.validate.*", "burge.*", "oblak.*", "boxes.*", "words.*"],
     "moves": {"sweep-comb": ["wall_s", "items_per_s"],
               "big-queries": ["item_ms_p50", "item_ms_tail"]},
     "unchanged": ["gf2-scan", "gfp-restriction"]},
    {"layers": ["gfp.matmul.*", "gfp.matrix.constructs", "oracle.scan.*"],
     "moves": {"gf2-scan": ["wall_s", "items_per_s"]},
     "unchanged": ["sweep-comb"],
     "note": "oracle.scan.nilpotent_ratio rising toward 1 is the full-mode saving"},
    {"layers": ["gfp.row_echelon_basis.*", "oracle.restriction_type.*",
                "oracle.witness_matrix.self_s", "oracle.random_commuting.self_s"],
     "moves": {"gfp-restriction": ["wall_s", "item_ms_p50", "item_ms_tail"]},
     "note": "a GF(2)-only change should leave gfp-restriction unchanged"},
    {"layers": ["cli.main.self_s", "partitions.parse_partition.*"],
     "moves": {"big-queries": ["item_ms_p50", "item_ms_tail"]},
     "unchanged": ["sweep-comb", "gf2-scan", "gfp-restriction"]},
    {"layers": ["sweep.*.cpu_s"],
     "note": "stays close to sweep.*.wall_s on every workload: the load is single-threaded"},
]


class SetupError(Exception):
    """burgebox cannot be imported from this checkout."""


def import_burgebox():
    """Import burgebox and all its modules afresh from SRC, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "burgebox" or m.startswith("burgebox.")]:
        del sys.modules[name]
    if not (SRC / "burgebox" / "__init__.py").is_file():
        raise SetupError(f"no burgebox package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("burgebox")
    if Path(package.__file__).resolve().parent != (SRC / "burgebox").resolve():
        raise SetupError(f"burgebox was imported from {package.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module("burgebox." + info.name)
    return package


def quantile(sorted_values: list, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list, preferred: float) -> tuple:
    """(percentile, value): the workload's percentile, or the next lower one
    on the ladder, such that at least ten samples lie beyond it."""
    n = len(sorted_values)
    for pct in LADDER:
        if pct <= preferred and n - int(pct / 100 * (n - 1)) - 1 >= 10:
            return pct, quantile(sorted_values, pct)
    return 0.0, sorted_values[0]


def commit_of_checkout() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "burgebox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------


def check_pass(workload, result, reference: dict) -> tuple:
    """(failed items, mismatched keys, pass digest)."""
    failed = 0
    wrong = []
    chain = []
    for key, dig, weight, agrees in workload.digests(result.outputs):
        chain.append(f"{key}={dig}")
        if not agrees or reference.get(key) != dig:
            failed += weight
            wrong.append(key)
    return failed, wrong, workloads.digest(sorted(chain))


def layer_metrics(tracer, workload, result, misses: int, probe, factor: float) -> dict:
    """Per-layer metrics of one traced pass, with times at reference speed.

    Span times are scaled by the pass's mean speed ``factor``; the sweep
    checks, timed by the benchmark itself, by their own.
    """
    totals = {name: (calls, incl * factor, self_s * factor)
              for name, (calls, incl, self_s) in tracer.totals().items()}
    counts = tracer.counts
    m: dict = {}

    def fn(prefix):
        calls, incl, self_s = totals.get(prefix, (0, 0.0, 0.0))
        m[prefix + ".calls"] = calls
        m[prefix + ".self_s"] = self_s
        m[prefix + ".us_per_call"] = incl / calls * 1e6 if calls else 0.0

    def self_of(prefix):
        return totals.get(prefix, (0, 0.0, 0.0))[2]

    def incl_of(prefix):
        return totals.get(prefix, (0, 0.0, 0.0))[1]

    m["partitions.partitions_of.items"] = counts["partitions.partitions_of.items"]
    m["partitions.partitions_of.self_s"] = self_of("partitions.partitions_of")
    m["partitions.validate.calls"] = counts["partitions.validate.calls"]
    m["partitions.validate.per_item"] = counts["partitions.validate.calls"] / workload.items
    fn("partitions.parse_partition")
    for name in ("encode", "decode"):
        fn(f"burge.{name}")
        letters = counts[f"burge.{name}.letters"]
        m[f"burge.{name}.letters"] = letters
        m[f"burge.{name}.us_per_letter"] = incl_of(f"burge.{name}") / letters * 1e6 if letters else 0.0
    m["burge.apply_del.calls"] = counts["burge.apply_del.calls"]
    fn("burge.descent_map")
    fn("oblak.oblak")
    m["oblak.oblak_all_chains.chains"] = counts["oblak.oblak_all_chains.chains"]
    m["oblak.oblak_all_chains.self_s"] = self_of("oblak.oblak_all_chains")
    m["oblak.maximal_indices.calls"] = counts["oblak.maximal_indices.calls"]
    m["boxes.fiber.elements"] = counts["boxes.fiber.elements"]
    m["boxes.fiber.self_s"] = self_of("boxes.fiber")
    fn("boxes.coordinates_of")
    for name in ("foata_fiber", "path_to_partition", "diagonal_hooks"):
        m[f"words.{name}.self_s"] = self_of(f"words.{name}")
    fn("gfp.matmul")
    m["gfp.matmul.mac_ops"] = counts["gfp.matmul.mac_ops"]
    m["gfp.matrix.constructs"] = counts["gfp.matrix.constructs"]
    fn("gfp.row_echelon_basis")
    matrices = counts["oracle.scan.matrices"]
    m["oracle.scan.matrices"] = matrices
    m["oracle.scan.us_per_matrix"] = incl_of("oracle.scan") / matrices * 1e6 if matrices else 0.0
    jordan_calls = totals.get("oracle.jordan_type", (0,))[0]
    m["oracle.scan.nilpotent_ratio"] = jordan_calls / matrices if matrices else 0.0
    fn("oracle.jordan_type")
    fn("oracle.restriction_type")
    m["oracle.witness_matrix.self_s"] = self_of("oracle.witness_matrix")
    m["oracle.random_commuting.self_s"] = self_of("oracle.random_commuting")
    m["oracle.restriction.misses"] = misses
    items_by_check = getattr(workload, "items_by_check", {})
    for check in SWEEP_CHECKS:
        wall = cpu = 0.0
        items = 0
        for label, (w0, w1, work, c) in result.check_times.items():
            if label.split("@")[0] == check:
                scaled = probe.scaled(w0, w1)
                wall, cpu = wall + scaled, cpu + c * scaled / work
                items += items_by_check[label]
        m[f"sweep.{check}.wall_s"] = wall
        m[f"sweep.{check}.cpu_s"] = cpu
        m[f"sweep.{check}.items"] = items
    fn("cli.main")
    return m


class PassSummary(NamedTuple):
    traced: bool
    wall: float
    cpu: float
    latencies: array
    failed: int
    wrong: list
    digest: str
    layers: dict | None
    clock_fallback: list
    raw_wall: float  # wall before scaling to reference speed
    factor: float


def run_workload(args) -> int:
    cls = workloads.WORKLOADS[args.workload]

    setup_times = []  # (reference-speed seconds, raw seconds)
    for _ in range(SETUP_REPEATS):
        probe = SpeedProbe()
        probe.force()
        t0 = time.perf_counter()
        import_burgebox()
        workload = cls(args.seed, args.tiny)
        reference = json.loads(REFERENCE.read_text())[cls.name]
        t1 = time.perf_counter()
        probe.force()
        setup_times.append((probe.scaled(t0, t1), t1 - t0))

    tracer = Tracer()
    passes = []

    def one_pass(traced: bool):
        probe = SpeedProbe()
        probe.force()
        probe_wall, probe_cpu = probe.wall, probe.cpu
        c0, w0 = time.process_time(), time.perf_counter()
        if traced:
            with tracer.installed():
                result = workload.run(probe)
        else:
            result = workload.run(probe)
        w1 = time.perf_counter()
        raw_wall = w1 - w0 - (probe.wall - probe_wall)
        cpu = time.process_time() - c0 - (probe.cpu - probe_cpu)
        probe.force()
        wall = probe.scaled(w0, w1)
        k = wall / raw_wall  # this pass's mean speed factor
        failed, wrong, dig = check_pass(workload, result, reference)
        layers = None
        if traced:
            misses = (workloads.GfpRestriction.misses(result.outputs)
                      if cls is workloads.GfpRestriction else 0)
            layers = layer_metrics(tracer, workload, result, misses, probe, k)
            tracer.reset()  # drop the spans before the next pass
        latencies = array("d", (sum(probe.scaled(a, b) for a, b in item) for item in result.items))
        passes.append(PassSummary(traced, wall, cpu * k, latencies, failed, wrong, dig, layers,
                                  result.clock_fallback, raw_wall, k))

    one_pass(False)  # warm-up: checked, not timed
    start = time.perf_counter()
    traced_next = False
    while True:
        one_pass(traced_next)
        if args.trace:
            traced_next = not traced_next
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or any(p.traced for p in passes)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed = passes[1:]
    untraced = [p for p in timed if not p.traced]
    traced = [p for p in timed if p.traced]
    attempted = workload.items * len(passes)
    failed = sum(p.failed for p in passes)
    wrong = sorted({k for p in passes for k in p.wrong})
    problems = []
    if wrong:
        problems.append(f"outputs differ from the reference or disagree: {wrong[:10]}")
    if len({p.digest for p in passes}) != 1:
        problems.append("passes (traced and untraced) produced different outputs")

    wall_s = statistics.median(p.wall for p in untraced)
    samples = sorted(x for p in untraced for x in p.latencies)
    tail_pct, tail_value = tail(samples, cls.tail_percentile)
    e2e = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(p.cpu for p in untraced),
        "items_per_s": workload.items / wall_s,
        "item_ms_p50": quantile(samples, 50.0) * 1e3,
        "item_ms_tail": tail_value * 1e3,
        "setup_s": statistics.median(t for t, _raw in setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "command": shlex.join(sys.orig_argv),
        "commit": commit_of_checkout(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "items_per_pass": workload.items,
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p.wall for p in untraced],
        "pass_raw_wall_s": [p.raw_wall for p in untraced],
        "pass_speed_factor": [p.factor for p in untraced],
        "speed_reference_kernel_s": speed.REFERENCE_S,
        "setup_s_each": [t for t, _raw in setup_times],
        "setup_raw_s_each": [raw for _t, raw in setup_times],
        "item_ms_tail_percentile": tail_pct,
        "item_samples": len(samples),
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "item_clock_fallback": sorted({c for p in passes for c in p.clock_fallback}),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "trace.overhead_s": None,
        "layer_predictions": LAYER_PREDICTIONS,
    }

    if args.trace:
        layer_runs = [p.layers for p in traced]
        counts_repeat = True
        final = {}
        for name, unit, _better in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            values = [run[name] for run in layer_runs]
            if unit in ("s", "us"):
                final[name] = statistics.median(values)
            else:
                final[name] = values[0]
                counts_repeat = counts_repeat and len(set(values)) == 1
        overhead = statistics.median(p.wall for p in traced) - wall_s
        final["trace.overhead_s"] = overhead
        record["trace.overhead_s"] = overhead
        if not counts_repeat:
            problems.append("per-layer counts differ between traced passes")
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": final[name], "unit": units[name]} for name, _, _ in PER_LAYER}
        record["per_layer"] = metrics
    else:
        metrics = record["end_to_end"]

    correct = failed == 0 and not problems
    for name, entry in metrics.items():
        print(f"{cls.name:16s} {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{cls.name:16s} {'fail_ratio':40s} {record['fail_ratio']:>14.6g} 1")
    for problem in problems:
        print(f"{cls.name}: {problem}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay separate."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            summary["correct"] = False
            status = max(status, proc.returncode or 1)
            continue
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        status = max(status, proc.returncode)
    print(json.dumps(summary))
    return status


def write_reference(args) -> int:
    """Record the current program's outputs as the reference, for every item any seed can draw."""
    import_burgebox()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        workload = workloads.WORKLOADS[name](0, False, select_all=True)
        rows = workload.digests(workload.run(SpeedProbe()).outputs)
        bad = [key for key, _dig, _w, agrees in rows if not agrees]
        if bad:
            print(f"{name}: independent routes disagree on {bad[:10]}", file=sys.stderr)
            return 1
        data[name] = {key: dig for key, dig, _w, _a in rows}
        print(f"{name}: {len(rows)} reference digests")
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny bounds, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the current outputs as reference.json and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            return write_reference(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
