import io
import itertools
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from burgebox import boxes, burge, cli, kernels, oracle, sweep
from burgebox.cli import main
from burgebox.partitions import SIZE_CAP, partition_counts
from burgebox.sweep import CHECKS, SweepConfig, run_sweep
from reference_scan import slot_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dmap(capsys):
    code, out, _ = run(capsys, "dmap", "5,3,2,2,1")
    assert code == 0 and out.strip() == "[9,3,1]"


def test_encode_decode(capsys):
    code, out, _ = run(capsys, "encode", "5,3,2,2,1")
    assert code == 0 and out.strip() == "babaaabbba"
    code, out, _ = run(capsys, "decode", "abbaba")
    assert code == 0 and out.strip() == "[5,2,1]"


def test_decode_json_round_trip(capsys):
    code, out, _ = run(capsys, "decode", "abbaba", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"word": "abbaba", "partition": [5, 2, 1]}


def test_chain(capsys):
    code, out, _ = run(capsys, "chain", "5,3,2,2,1")
    assert code == 0
    assert "word: babaaabbba" in out
    code, out, _ = run(capsys, "chain", "5,3,2,2,1", "--json")
    data = json.loads(out)
    assert data["states"][0] == [1, 2, 1, 0, 1] and data["states"][-1] == []
    code, out, _ = run(capsys, "chain", "2000")  # (n + 1) len(f) = 4,002,000 cells, under the cap
    assert code == 0 and out.splitlines()[-1].startswith("word: ")


def test_oblak_and_chains(capsys):
    code, out, _ = run(capsys, "oblak", "f:(3,3,2,0,3,1,0,0,2)")
    assert code == 0 and out.strip() == "[25,17,10,2]"
    code, out, _ = run(capsys, "oblak-chains", "f:(3,0,1,1,0,0,0,1)", "--json")
    data = json.loads(out)
    assert len(data) == 2
    assert all(d["valuation"] == [9, 6, 3] for d in data)


def test_check_square(capsys):
    code, out, _ = run(capsys, "check-square", "f:(3,0,2,1,0,1,2,1)", "--index", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "check-square", "f:(3,0,2,1,0,1,2,1)", "--index", "8")
    assert code == 0 and out.strip() == "false"


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "10,7,3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 18
    by_coords = {tuple(r["coords"]): r for r in rows}
    assert by_coords[(1, 1, 1)]["partition"] == [10, 7, 3]
    assert by_coords[(3, 3, 2)]["partition"] == [9, 5, 1, 1, 1, 1, 1, 1]
    assert by_coords[(3, 3, 2)]["parts"] == 8
    assert by_coords[(2, 1, 2)]["code"] == "abbaaababba"


def test_fiber_validates_q_once_per_command(capsys, monkeypatch):
    calls = []
    real = boxes.delta
    monkeypatch.setattr(boxes, "delta", lambda q: calls.append(q) or real(q))
    code, out, _ = run(capsys, "fiber", "40,20", "--json")
    assert code == 0 and len(json.loads(out)) == 380
    assert len(calls) <= 2


def test_coords_maxparts_symmetry(capsys):
    code, out, _ = run(capsys, "coords", "[9,4^2,2,1]")
    assert code == 0 and out.strip() == "Q=[10,7,3] coords=(2,1,2)"
    code, out, _ = run(capsys, "maxparts", "10,7,3")
    assert out.strip() == "[9,5,1^6]"
    code, out, _ = run(capsys, "symmetry", "10,7,3", "--coords", "1,1,1")
    assert out.strip() == "(3,3,2)"
    code, out, _ = run(capsys, "symmetry", "10,7,3", "--coords", "2,1,2", "--positions", "2")
    assert out.strip() == "(2,3,2)"
    code, out, _ = run(capsys, "symmetry", "e", "--coords", "e")
    assert code == 0 and out.strip() == "()"


@pytest.mark.parametrize("positions", ["", "e", "()"])
def test_symmetry_at_no_position_keeps_every_coordinate(capsys, positions):
    # an empty list reflects nothing; only a missing --positions means all of them
    code, out, _ = run(capsys, "symmetry", "10,7,3", "--coords", "2,1,2", "--positions", positions)
    assert code == 0 and out.strip() == "(2,1,2)"


def test_coords_option_takes_the_form_the_cli_prints(capsys):
    code, out, _ = run(capsys, "symmetry", "10,7,3", "--coords", "(2,1,2)")
    assert code == 0 and out.strip() == "(2,3,1)"
    code, out, _ = run(capsys, "symmetry", "10,7,3", "--coords", " ( 2,1,2 ) ", "--positions", "(2)")
    assert code == 0 and out.strip() == "(2,3,2)"
    code, out, _ = run(capsys, "foata", "10,7,3", "--coords", "(1,1,1)")
    assert code == 0 and out.split()[0] == "babaabaaaaa"
    code, _, err = run(capsys, "foata", "10,7,3", "--coords", "((1,1,1))")
    assert code == 2 and "bad coordinate list" in err


def test_foata_hooks_durfee(capsys):
    code, out, _ = run(capsys, "foata", "10,7,3", "--coords", "1,1,1")
    assert code == 0 and out.split()[0] == "babaabaaaaa"
    code, out, _ = run(capsys, "hooks", "8,7,5")
    assert out.strip() == "[10,7,3]"
    code, out, _ = run(capsys, "durfee", "8,7,5")
    assert out.strip() == "3"


def test_verify(capsys):
    code, out, _ = run(
        capsys, "verify", "--partition", "[4^2,3,2^2]", "--trials", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["expected"] == [4, 3, 3, 2, 1]
    assert data["elapsed"] > 0
    code, out, _ = run(capsys, "verify", "--partition", "[4^2,3,2^2]", "--trials", "2")
    assert code == 0
    assert out == "ok: expected [4,3^2,2,1], witness gave [4,3^2,2,1], 0/2 random misses\n"


def test_scan_max(capsys):
    code, out, _ = run(
        capsys, "scan-max", "--partition", "2,1", "--field", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_type"] == [3] and data["status"] == "ok"
    assert data["scanned"] == 8 and data["histogram"] == {"[3]": 2, "[2,1]": 5, "[1^3]": 1}
    code, out, _ = run(capsys, "scan-max", "--partition", "2,1", "--field", "2")
    assert code == 0 and "scanned 8, 3 types, max [3]," in out


def test_verify_large_prime_field(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "--partition", "3,1", "--field", "1000000000000000003", "--json"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["status"] == "ok", err


@pytest.mark.parametrize("field", ["1000000000000000001", "3317044064679887385961981"])
def test_verify_composite_or_uncertifiable_field(capsys, field):
    code, _, err = run(capsys, "verify", "--partition", "3,1", "--field", field)
    assert code == 2 and "error" in err and "Traceback" not in err


def test_sweep_vacuous(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "0", "--checks", "thm-main-vs-oblak")
    assert code == 0
    assert "0 failures" in out


def test_sweep_small(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--max-n", "8",
        "--checks", "lem-stats,prop-stats,thm-main-vs-oblak,cor-box",
        "--json",
    )
    assert code == 0
    results = json.loads(out)
    assert [r["check"] for r in results] == [
        "lem-stats", "prop-stats", "thm-main-vs-oblak", "cor-box",
    ]
    assert all(r["failures"] == 0 for r in results)


def test_sweep_json_reports_cpu_time(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "6", "--checks", "prop-stats,cor-box", "--json")
    assert code == 0
    results = json.loads(out)
    assert [r["check"] for r in results] == ["prop-stats", "cor-box"]
    assert all(isinstance(r["cpu"], float) and r["cpu"] >= 0 for r in results)
    code, text, _ = run(capsys, "sweep", "--max-n", "6", "--checks", "prop-stats")
    assert "cpu" not in text  # the text lines keep their form


def test_sweep_matrix_dominance(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--max-n", "3", "--checks", "matrix-dominance", "--field", "2",
    )
    assert code == 0 and "0 failures" in out


def test_sweep_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-n", "6", "--checks", "prop-stats", "--threads", "4"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_verify_has_no_witness_only_flag(capsys):
    # --trials 0 checks the witness alone
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--partition", "3,1", "--witness-only"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_default_checks_pass(capsys):
    # matrix-dominance scans over GF(2) unless --field is given
    code, out, err = run(capsys, "sweep", "--max-n", "4")
    assert code == 0 and "FAIL" not in out and "Traceback" not in err
    code, out, _ = run(capsys, "sweep", "--max-n", "4", "--checks", "matrix-dominance", "--json")
    assert code == 0 and json.loads(out)[0]["instances"] == 12


def test_sweep_over_a_large_field_runs_to_its_frontier_and_refuses_past_it():
    # over GF(10007) the scan of (3) alone needs 10007^2 matrices
    with pytest.raises(ValueError, match=r"scan of \[3\] over GF\(10007\)"):
        SweepConfig(max_n=3, checks=("matrix-dominance",), field=10007)
    (res,) = run_sweep(SweepConfig(max_n=2, checks=("matrix-dominance",), field=10007))
    assert (res.instances, res.failures) == (4, 0)  # (), (1), (2) and (1,1)


@pytest.mark.parametrize("text", ["[1^100000000000]", "f:(100000000000)", "1," * 99999 + "2"])
def test_oversized_partition_is_a_usage_error(capsys, text):
    start = time.perf_counter()
    code, _, err = run(capsys, "encode", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "size cap" in err and "Traceback" not in err


def test_decode_is_bounded_by_the_size_cap(capsys):
    # decode(w) has size maj(w); one past the cap is refused before any letter
    start = time.perf_counter()
    code, _, err = run(capsys, "decode", "a" * 100000 + "ba")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "size cap" in err and "Traceback" not in err
    code, out, _ = run(capsys, "decode", "b" * 100000 + "a")
    assert code == 0 and out.strip() == "[1^100000]"


def test_bad_word_error_quotes_a_bounded_prefix(capsys):
    code, _, err = run(capsys, "decode", "a" * 100000 + "aa")
    assert code == 2 and "Traceback" not in err
    (line,) = err.splitlines()
    assert len(line) < 200 and "length 100002" in line


def test_bad_partition_error_quotes_a_bounded_prefix(capsys):
    code, _, err = run(capsys, "encode", "1," * 40000 + "x")
    assert code == 2 and "Traceback" not in err
    (line,) = err.splitlines()
    assert len(line) < 200 and "length 80001" in line


@pytest.mark.parametrize(
    "argv",
    [["--partition", "[1^400]"], ["--partition", "3000"], ["--partition", "3", "--trials", "1000000000"]],
)
def test_verify_is_bounded_before_building(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "over the cap" in err and "Traceback" not in err


@pytest.mark.parametrize("checks", [["--checks", "matrix-restriction"], []])
def test_sweep_trials_are_bounded_before_any_check(capsys, checks):
    start = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--max-n", "3", *checks, "--trials", "10000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "over the cap" in line


def test_planted_slot_fault_fails_the_restriction_sweep(capsys, monkeypatch):
    real = oracle._slot_listing
    bad = (3, 1, 1, 1, 1)  # a_1 of (3,1) -> (1,1): only (3,1) has it at n <= 4
    monkeypatch.setattr(
        oracle, "_slot_listing",
        lambda pt: {s: [(r + 1, c) for r, c in es] if s == bad else es for s, es in real(pt).items()},
    )
    code, out, err = run(capsys, "sweep", "--max-n", "4", "--checks", "matrix-restriction")
    assert code == 1 and err == ""
    assert (
        "repro: burgebox sweep --max-n 4 --checks matrix-restriction"
        "  # raised: slot placement does not commute with the base matrix"
    ) in out


@pytest.mark.parametrize("text", ["100000", "30000"])
def test_chain_is_bounded_before_listing(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "chain", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "chain cap" in line


def test_fiber_is_bounded_before_enumerating(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "fiber", "2000,1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "fiber cap" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["[1^1500]", "[1^100000]"])
def test_scan_max_over_budget_exits_at_once(capsys, text):
    start = time.perf_counter()
    code, _, err = run(capsys, "scan-max", "--partition", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and f"scan of {text} over GF(2) needs" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scan-max", "--partition", "3", "--budget", "0"],
    ["oblak-chains", "3,1", "--limit", "0"],
    # 14348907 matrices, within 2^24, but each 11 x 11 one over GF(3) is typed alone
    ["scan-max", "--partition", "8,3", "--field", "3"],
])
def test_budget_error_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    (line,) = err.splitlines()
    assert code == 2 and out == "" and line.startswith("error: ")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "dmap", "3,x")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "decode", "abaa")
    assert code == 2
    code, _, err = run(capsys, "fiber", "4,3")
    assert code == 2  # not super-distinct
    code, _, err = run(capsys, "sweep", "--max-n", "3", "--checks", "not-a-check")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["encode", "5,3,2,2,1"], ["no-such-command"], ["encode", "3", "4"]])
def test_main_reads_sys_argv_when_argv_is_none(capsys, monkeypatch, argv):
    def outcome(*args):
        try:
            code = main(*args)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        return code, capsys.readouterr()

    explicit = outcome(argv)
    monkeypatch.setattr(sys, "argv", ["burgebox", *argv])
    assert outcome() == explicit


@pytest.mark.parametrize("argv", [
    ["decode", "abbaba"], ["dmap", "5,3,2,2,1"], ["chain", "5,3,2,2,1"], ["oblak", "3,1"],
    ["oblak-chains", "f:(3,0,1,1,0,0,0,1)"], ["fiber", "10,7,3"], ["coords", "[9,4^2,2,1]"],
    ["maxparts", "10,7,3"], ["foata", "10,7,3", "--coords", "1,1,1"], ["hooks", "8,7,5"],
    ["verify", "--partition", "3,1", "--trials", "1"], ["scan-max", "--partition", "2,1"],
], ids=lambda argv: argv[0])
def test_json_output_builds_no_text(capsys, monkeypatch, argv):
    def unused(parts):
        raise AssertionError("the text form was built under --json")

    monkeypatch.setattr(cli, "format_partition", unused)
    monkeypatch.setattr(cli, "format_frequency", unused)
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == "" and json.loads(out)


@pytest.mark.parametrize("value", ["101", "abc"])
def test_field_comes_from_the_flag_alone(capsys, monkeypatch, value):
    # the field of a matrix command comes from --field alone, never from the environment
    monkeypatch.setenv("BURGEBOX_FIELD", value)
    code, out, _ = run(capsys, "verify", "--partition", "3,1", "--trials", "1", "--json")
    assert code == 0 and json.loads(out)["field"] == 10007
    argv = ["verify", "--partition", "3,1", "--trials", "1", "--field", "101", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["field"] == 101
    code, out, _ = run(capsys, "dmap", "3,2")
    assert code == 0 and out.strip() == "[5]"


def test_scan_field_default_is_scan_prime(capsys):
    # scan_max_type, scan-max, the dominance sweep and the sweep's help read one constant
    assert oracle.scan_max_type((2, 1)).field == oracle.SCAN_PRIME
    code, out, _ = run(capsys, "scan-max", "--partition", "2,1", "--json")
    assert code == 0 and json.loads(out)["field"] == oracle.SCAN_PRIME
    assert sweep.dominance_field(SweepConfig(max_n=0)) == oracle.SCAN_PRIME
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f"matrix-dominance uses {oracle.SCAN_PRIME}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ["verify", "--partition", "3,1", "--trials", "-3"],
    ["scan-max", "--partition", "2,1", "--budget", "-1"],
    ["oblak-chains", "3,1", "--limit", "-1"],
    ["sweep", "--max-n", "2", "--trials", "-1"],
    ["verify", "--partition", "3,1", "--trials", "x"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_refuses_a_scan_over_its_budget_before_any_check(capsys):
    # the scan of (3) over GF(10007) cannot run, so no check runs, prop-stats neither
    code, out, err = run(
        capsys,
        "sweep", "--max-n", "3",
        "--checks", "matrix-dominance,prop-stats", "--field", "10007",
    )
    (line,) = err.splitlines()
    assert code == 2 and out == "" and line.startswith("error: ") and "[3]" in line


@pytest.mark.parametrize("checks", ["matrix-dominance", "matrix-restriction", None])
def test_sweep_refuses_a_composite_field_before_any_check(capsys, checks):
    argv = ["sweep", "--max-n", "3", "--field", "4"] + (["--checks", checks] if checks else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "modulus 4 is not prime" in err
    with pytest.raises(ValueError, match="not prime"):
        SweepConfig(max_n=3, checks=(checks,) if checks else (), field=4)
    SweepConfig(max_n=3, checks=("prop-stats",), field=4)  # no matrix check reads the field


def test_sweep_refuses_scans_over_the_scan_budget_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--max-n", "14")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "scan budget" in err and "Traceback" not in err
    code, _, err = run(capsys, "sweep", "--max-n", "9", "--checks", "matrix-dominance")
    assert code == 2 and "matrix-dominance at n = 9: scan of [3,2^3] over GF(2)" in err
    code, _, err = run(capsys, "sweep", "--max-n", "8", "--checks", "prop-stats")
    assert code == 0  # the scan budget is matrix-dominance's


def test_scan_work_refusal_is_cheap_over_a_large_field(capsys):
    for n, p, cost in (("50", "10007", "scan of [3] over GF(10007)"),
                       ("7", "3", "matrix-dominance at n = 6: scan of [3,2,1] over GF(3)")):
        start = time.perf_counter()
        argv = ["sweep", "--max-n", n, "--checks", "matrix-dominance", "--field", p]
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        (line,) = err.splitlines()
        assert code == 2 and out == "" and line.startswith("error: ") and cost in line


def test_default_sweep_past_a_frontier_names_the_checks_that_fit(capsys):
    # with no --checks every check runs, and matrix-dominance cannot run to 9
    code, out, err = run(capsys, "sweep", "--max-n", "9")
    (line,) = err.splitlines()
    assert code == 2 and out == "" and line.startswith("error: matrix-dominance at n = 9")
    fit = ", ".join(name for name in CHECKS if name != "matrix-dominance")
    assert line.endswith(f"; name checks with --checks (these fit alone to 9: {fit})")
    code, out, err = run(capsys, "sweep", "--max-n", "100000")
    assert code == 2 and out == "" and "(these fit alone to 100000: none)" in err


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(max_n=-1)
    with pytest.raises(ValueError):
        SweepConfig(max_n=3, checks=("bogus",))
    with pytest.raises(ValueError, match="over the cap"):
        SweepConfig(max_n=3, checks=("prop-stats", "matrix-restriction"), trials=10000)
    SweepConfig(max_n=3, checks=("prop-stats",), trials=10000)  # the cap is matrix-restriction's
    assert set(CHECKS) == {
        "lem-stats", "prop-stats", "prop-characterization", "thm-main-vs-oblak",
        "cor-box", "thm-oblakburge", "prop-khatami", "foata-hooks",
        "matrix-restriction", "matrix-dominance",
    }


def test_run_sweep_all_checks_tiny():
    # matrix-dominance needs a tiny field (its scan budget is p^slots);
    # everything else runs on a generic-sized one.  There are 12 partitions
    # with n <= 4; cor-box and foata-hooks record one instance per
    # super-distinct Q (6 of them).
    combinatorial = tuple(c for c in CHECKS if c != "matrix-dominance")
    results = run_sweep(SweepConfig(max_n=4, checks=combinatorial, field=101, trials=1))
    results += run_sweep(SweepConfig(max_n=4, checks=("matrix-dominance",), field=2))
    assert [r.name for r in results] == list(CHECKS)
    counts = {r.name: (r.instances, r.failures) for r in results}
    assert counts == {
        name: {"cor-box": (6, 0), "foata-hooks": (6, 0)}.get(name, (12, 0))
        for name in CHECKS
    }


def test_raising_sweep_check_exits_1_with_its_reproducer(capsys, monkeypatch):
    real = kernels.successors

    def planted(f):
        if f == (1, 0, 1):  # (3,1)
            raise ValueError(f"planted fault at {f}")
        return real(f)

    monkeypatch.setattr(kernels, "successors", planted)
    code, out, err = run(capsys, "sweep", "--max-n", "4", "--checks", "thm-oblakburge")
    assert code == 1 and err == ""
    assert "repro: burgebox sweep --max-n 4 --checks thm-oblakburge  # raised: " in out


def test_failed_self_check_exits_1_without_traceback(capsys, monkeypatch):
    # with the reference's full table listed and every slot walked, the diagonal
    # a_1 slots join the free walk and the scan meets a non-nilpotent matrix
    monkeypatch.setattr(oracle, "_slot_listing", lambda pt: slot_table(pt, reduced=False))
    monkeypatch.setattr(oracle, "_walked", lambda table: list(table.values()))
    code, _, err = run(capsys, "scan-max", "--partition", "2,1")
    assert code == 1 and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: scanned matrix is not nilpotent")


def test_failed_process_step_exits_1(capsys, monkeypatch):
    # the process's step on (3,1) claims evaluation 4 for a size drop of 3
    real = kernels.max_evaluation

    def planted(f):
        ev, at = real(f)
        return ev + (tuple(f) == (1, 0, 1)), at

    monkeypatch.setattr(kernels, "max_evaluation", planted)
    code, out, err = run(capsys, "oblak", "3,1")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: corrupt chain: size drop 3 != evaluation 4"]
    code, out, err = run(capsys, "sweep", "--max-n", "4", "--checks", "thm-main-vs-oblak")
    assert code == 1 and err == ""
    assert "  # raised: corrupt chain: size drop 3 != evaluation 4" in out


# binding -> (its wrong result, from the argument and the true result; the self-check's message)
CHAIN_FAULTS = {
    # the first state of (3,1), (1,0,1), claims evaluation 4 for its size drop of 3
    "max_evaluation": (lambda f, out: (out[0] + (tuple(f) == (1, 0, 1)), out[1]),
                       "size drop 3 != evaluation 4"),
    # (1,0,1) steps to (2,), a size drop of 2, in place of (1,)
    "annihilate": (lambda f, out: (2,) if tuple(f) == (1, 0, 1) and out == (1,) else out,
                   "size drop 2 != evaluation 3"),
}


@pytest.mark.parametrize("binding", CHAIN_FAULTS)
def test_failed_chain_step_exits_1(capsys, monkeypatch, binding):
    # every route that takes an Oblak step checks its size drop: the process, its
    # chains and the three sweep checks that step it fail the self-check alike
    wrong, message = CHAIN_FAULTS[binding]
    real = getattr(kernels, binding)
    monkeypatch.setattr(kernels, binding, lambda f, *rest: wrong(f, real(f, *rest)))
    for command in ("oblak", "oblak-chains"):
        code, out, err = run(capsys, command, "3,1")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: corrupt chain: {message}"]
    for check in ("thm-main-vs-oblak", "thm-oblakburge", "prop-khatami"):
        code, out, err = run(capsys, "sweep", "--max-n", "4", "--checks", check)
        assert code == 1 and err == ""
        repro = f"burgebox sweep --max-n 4 --checks {check}  # raised: corrupt chain: {message}"
        assert f"repro: {repro}" in out


def test_chain_route_reads_no_evaluation_kernel(capsys, monkeypatch):
    # the chains record the evaluations that kernels.successors checked against
    # each size drop, so a fault in kernels.evaluate does not reach them
    real = kernels.evaluate
    monkeypatch.setattr(kernels, "evaluate", lambda f, i: real(f, i) + (tuple(f) == (1, 0, 1)))
    assert kernels.evaluate((1, 0, 1), 0) == 4
    code, out, err = run(capsys, "oblak-chains", "3,1")
    assert (code, out, err) == (0, "indices (0,0)  valuation [3,1]\n1 chain(s)\n", "")


# binding -> (its wrong result from the true one, the command, the rank sequence then typed)
RANK_FAULTS = {
    # each prefix rank 2 is raised by one
    "rank_profile": (lambda out: [r + (r == 2) for r in out],
                     ("verify", "--partition", "3,2,1"), (4, 3, 0, 0)),
    # the top bit-plane of every lane's rank is dropped
    "sliced_rank": (lambda out: out[:-1], ("scan-max", "--partition", "4,3"), (7, 1, 3, 1, 0)),
}


@pytest.mark.parametrize("binding", RANK_FAULTS)
def test_failed_rank_typing_exits_1(capsys, monkeypatch, binding):
    # no nilpotent map has a negative block multiplicity, so one is an internal fault
    wrong, argv, ranks = RANK_FAULTS[binding]
    real = getattr(oracle, binding)
    monkeypatch.setattr(oracle, binding, lambda *args: wrong(real(*args)))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: rank sequence {ranks} gives a negative multiplicity"]


def test_failed_coordinates_self_check_exits_1(capsys, monkeypatch):
    # Q = (4,2) has a box of the same shape as (3,1)'s own, so the coordinates
    # parse, but the fiber code there is not the code word of (3,1)
    monkeypatch.setattr(boxes, "descent_map", lambda p: (4, 2))
    code, out, err = run(capsys, "coords", "3,1")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: code baba of (3, 1) does not parse into the box shape of (4, 2)"]


@pytest.mark.parametrize(
    "q",
    [
        (12,),  # one box dimension for the three b-runs of babaaabba
        (6, 5, 1),  # not super-distinct: its third box dimension is 0
        (12, 8, 3, 1),  # (8,3,1), the true Q, with a fourth dimension the word never reaches
    ],
)
def test_coordinates_self_check_fails_with_exit_1_for_any_wrong_q(capsys, monkeypatch, q):
    # the check compares with the fiber word unvalidated: a Q that the public
    # fiber_code would refuse, with exit 2, is the same failed self-check
    monkeypatch.setattr(boxes, "descent_map", lambda p: q)
    code, out, err = run(capsys, "coords", "5,3,3,1")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: code babaaabba of (5, 3, 3, 1) does not parse into the box shape of {q}"
    ]


FUZZ_ARGS = st.one_of(
    st.lists(st.integers(1, 60), max_size=12).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True))) or "e"
    ),
    st.integers(10**4, SIZE_CAP).map(str),  # one large part: the longest code word
    st.integers(1, SIZE_CAP // 2 - 1).flatmap(  # two parts at least 2 apart, the larger >= 10^4
        lambda b: st.integers(max(10**4, b + 2), SIZE_CAP - b).map(lambda a: f"{a},{b}")
    ),
    st.text("ab", max_size=40).map(lambda w: w + "ba"),  # code words
    st.text("ab01", max_size=40),  # words, most of them not code words
    st.lists(st.integers(-3, 30), min_size=1, max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.text(max_size=12),
)


def fuzz_main(argv):
    """Exit code, stderr and wall time of one command line."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=40, deadline=timedelta(seconds=5))
@given(st.sampled_from(("encode", "decode", "dmap", "coords", "oblak", "fiber", "chain")),
       FUZZ_ARGS.map(lambda arg: [arg]) | st.lists(FUZZ_ARGS, max_size=2), st.booleans())
def test_cli_fuzz_exits_0_1_or_2_without_traceback(cmd, args, as_json):
    code, err, _ = fuzz_main([cmd, *args] + ["--json"] * as_json)
    assert code in (0, 1, 2) and "Traceback" not in err


def least_over(cap: int, cost) -> int:
    """The least a >= 1 whose cost is over the cap."""
    return next(a for a in itertools.count(1) if cost(a) > cap)


FIBER_OVER = least_over(boxes.FIBER_CAP, lambda a: a * a)  # fiber (a): a elements of size a
CHAIN_OVER = least_over(burge.CHAIN_CAP, lambda a: (a + 1) * a)  # chain (a): a + 1 states, a long


def work_over(trials: int) -> int:
    """The least size whose verify work for these trials is over RESTRICTION_WORK_CAP."""
    return least_over(oracle.RESTRICTION_WORK_CAP, lambda n: (trials + 1) * max(n, 16) ** 3)


@st.composite
def over_work_cap(draw):
    """verify or sweep just over RESTRICTION_WORK_CAP: sizes or trials one step too many.

    Returns the argv and the word its refusal names.  A sweep is refused by the
    sweep budget, which it meets before n reaches the cap's size, unless one
    verify of size 0 is already over the cap.
    """
    trials = draw(st.integers(0, 5) | st.integers(1215, 1225))
    n = work_over(trials) + draw(st.integers(0, 2))
    if draw(st.booleans()):
        part = draw(st.sampled_from((str(n), f"{n},1", f"[1^{n}]")))
        return ["verify", "--partition", part, "--trials", str(trials)], "cap"
    checks = draw(st.sampled_from(([], ["--checks", "matrix-restriction"],
                                   ["--checks", "lem-stats,matrix-restriction"])))
    word = "cap" if work_over(trials) == 1 else "budget"
    return ["sweep", "--max-n", str(n), "--trials", str(trials), *checks], word


OVER_CAP_ARGV = st.one_of(
    st.integers(0, 20).map(lambda k: (["fiber", str(FIBER_OVER + k)], "cap")),
    st.integers(0, 20).map(lambda k: (["chain", str(CHAIN_OVER + k)], "cap")),
    over_work_cap(),
)


def sweep_frontier(name: str) -> int:
    """The largest max-n that a sweep of this check alone admits, with the default options."""
    return next(n for n in itertools.count() if refused(n + 1, name))


def refused(max_n: int, name: str) -> bool:
    try:
        SweepConfig(max_n=max_n, checks=(name,))
    except ValueError:
        return True
    return False


# the largest max-n that the sweep budget admits for each check but matrix-dominance
SWEEP_FRONTIER = {name: sweep_frontier(name) for name in CHECKS if name != "matrix-dominance"}


def test_each_check_is_admitted_to_its_measured_frontier():
    # each check alone ran within the sweep budget at these max-n; a new weight moves them
    assert SWEEP_FRONTIER == {
        "lem-stats": 48, "prop-stats": 48, "prop-characterization": 47, "thm-main-vs-oblak": 48,
        "cor-box": 48, "thm-oblakburge": 48, "prop-khatami": 53, "foata-hooks": 49,
        "matrix-restriction": 26,
    }
    assert sweep.TABLE_MAX_N == 48
    with pytest.raises(ValueError, match="prop-stats at n = 49: a table of 1091745 partitions"):
        SweepConfig(max_n=49, checks=("prop-stats",))


# the checks whose tables hold every partition up to max-n
TABLED = ("prop-stats", "prop-characterization", "thm-main-vs-oblak", "cor-box")


@st.composite
def over_sweep_frontier(draw):
    """A combinatorial or restriction sweep past its frontier, and the word its refusal names.

    The table cap refuses a table-backed check that the budget admits to TABLE_MAX_N.
    """
    name = draw(st.sampled_from(sorted(SWEEP_FRONTIER)))
    k = draw(st.integers(SWEEP_FRONTIER[name] + 1, 10**5))
    word = "table cap" if name in TABLED and SWEEP_FRONTIER[name] == sweep.TABLE_MAX_N else "budget"
    return ["sweep", "--max-n", str(k), "--checks", name], word


# the largest max-n that a dominance sweep admits over each field
SCAN_FRONTIER = {2: 8, 3: 5, 5: 4, 7: 4, 10007: 2}
BUDGET = oracle.DEFAULT_SCAN_BUDGET
ONE_PART_OVER = least_over(BUDGET, lambda k: 2 ** (k - 1))  # (k) over GF(2): k - 1 free slots
ONES_OVER = next(k for k, count in enumerate(partition_counts()) if count > BUDGET)  # [1^k]: p(k)


@st.composite
def over_scan_budget(draw):
    """A dominance sweep past its field's frontier, or scan-max past the default budget."""
    if draw(st.booleans()):
        p = draw(st.sampled_from(sorted(SCAN_FRONTIER)))
        k = draw(st.integers(SCAN_FRONTIER[p] + 1, 10**5))
        return ["sweep", "--max-n", str(k), "--checks", "matrix-dominance", "--field", str(p)]
    if draw(st.booleans()):
        return ["scan-max", "--partition", f"[1^{draw(st.integers(ONES_OVER, 10**5))}]"]
    return ["scan-max", "--partition", str(draw(st.integers(ONE_PART_OVER, 10**5)))]


MALFORMED = st.sampled_from(("x", "1.5", "-1", "", "3,5", "0x10"))


@st.composite
def small_flag_argv(draw):
    """verify on partitions of size <= 16, sweep to max-n <= 8, some flags malformed."""
    if draw(st.booleans()):
        part = st.lists(st.integers(1, 4), max_size=4).map(
            lambda parts: ",".join(map(str, sorted(parts, reverse=True))) or "e"
        )
        argv = ["verify", "--partition", draw(part | MALFORMED)]
    else:
        max_n = draw(st.integers(-2, 8))
        # matrix-dominance takes seconds from max-n 7 on
        pool = [c for c in CHECKS if max_n <= 6 or c != "matrix-dominance"] + ["bogus"]
        checks = draw(st.lists(st.sampled_from(pool), min_size=int(max_n > 6), max_size=3))
        argv = ["sweep", "--max-n", draw(st.just(str(max_n)) | MALFORMED)]
        argv += ["--checks", ",".join(checks)] if checks else []
    if draw(st.booleans()):
        argv += ["--trials", draw(st.integers(0, 3).map(str) | MALFORMED)]
    return argv


@settings(max_examples=80, deadline=timedelta(seconds=5))
@given(OVER_CAP_ARGV
       | over_scan_budget().map(lambda argv: (argv, "budget"))
       | over_sweep_frontier()
       | small_flag_argv().map(lambda argv: (argv, None)), st.booleans())
def test_cli_flag_fuzz_exits_0_1_or_2_and_refuses_work_over_a_cap_at_once(case, as_json):
    argv, refusal = case  # the word the refusal names, or None when the work may run
    code, err, elapsed = fuzz_main(argv + ["--json"] * as_json)
    assert code in (0, 1, 2) and "Traceback" not in err
    if refusal:
        assert code == 2 and refusal in err and elapsed < 1.0, (argv, err, elapsed)
    if refusal in ("budget", "table cap"):
        (line,) = err.splitlines()
        assert line.startswith("error: "), (argv, err)
