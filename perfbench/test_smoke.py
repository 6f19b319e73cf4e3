"""Smoke test of the benchmark at tiny bounds.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and twice traced with the same seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "1", "calls/item")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0.5", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc


def result(proc):
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(lines[-2][len("record "):])
    return record, json.loads(lines[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    record, last = result(bench("--workload", name, "--seed", "3", "--trace", "0"))
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert record["fail_ratio"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert record["item_samples"] > 0 and record["item_ms_tail_percentile"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_across_runs(name):
    first_record, first = result(bench("--workload", name, "--seed", "5", "--trace", "1"))
    _, second = result(bench("--workload", name, "--seed", "5", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert first_record["fail_ratio"] == 0
    assert first_record["trace.overhead_s"] is not None
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [k for k, unit in expected.items() if unit in COUNT_UNITS]
    assert counts
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_traced_run_sees_its_layers():
    _, last = result(bench("--workload", "big-queries", "--seed", "1", "--trace", "1"))
    m = {k: v["value"] for k, v in last["metrics"].items()}
    for key in ("cli.main.calls", "partitions.parse_partition.calls", "burge.encode.letters",
                "burge.decode.calls", "oblak.maximal_indices.calls", "burge.apply_del.calls",
                "partitions.validate.calls", "boxes.coordinates_of.calls"):
        assert m[key] > 0, key
    # encode runs once per encode query, once per dmap and twice per coords
    assert m["burge.encode.calls"] == 4 * m["burge.decode.calls"]


def test_without_sources_it_fails_and_prints_no_result():
    bare = ROOT / ".bench_build" / "bare-smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*"):
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = bench("--workload", "gf2-scan", "--seed", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tracer_patches_every_copy_and_restores_them(monkeypatch):
    import tracer

    run.import_burgebox()
    mods = {name: sys.modules["burgebox." + name] for name in ("burge", "oblak", "oracle", "boxes")}
    originals = {
        "apply_del": mods["burge"].apply_del,
        "descent_map": mods["burge"].descent_map,
        "encode": mods["burge"].encode,
        "matmul": sys.modules["burgebox.gfp"].MatrixGFp.__dict__["__matmul__"],
    }
    t = tracer.Tracer()
    with t.installed():
        for name in ("burge", "oblak", "oracle"):
            assert mods[name].apply_del is not originals["apply_del"], name
        for name in ("burge", "boxes", "oracle"):
            assert mods[name].descent_map is not originals["descent_map"], name
        mods["boxes"].coordinates_of((5, 3, 3, 1))
    assert t.counts["burge.apply_del.calls"] > 0
    assert {"boxes.coordinates_of", "burge.descent_map", "burge.encode"} <= set(t.totals())
    for name in ("burge", "oblak", "oracle"):
        assert mods[name].apply_del is originals["apply_del"]
    assert mods["boxes"].descent_map is originals["descent_map"]
    assert sys.modules["burgebox.gfp"].MatrixGFp.__dict__["__matmul__"] is originals["matmul"]

    monkeypatch.setitem(tracer.SPANNED, "burge.gone", ("burge", "no_such_function"))
    with pytest.raises(LookupError):
        t.install()
    assert mods["burge"].encode is originals["encode"]  # a failed install undoes itself
