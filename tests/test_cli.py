import json
import sys
import time

import pytest

from burgebox import boxes, oracle
from burgebox.cli import main
from burgebox.sweep import CHECKS, SweepConfig, run_sweep


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


def test_sweep_keeps_passing_instances_past_the_scan_budget():
    (res,) = run_sweep(SweepConfig(max_n=3, checks=("matrix-dominance",), scan_field=10007))
    # (), (1), (2), (1,1) and (1,1,1) fit the budget; (3) and (2,1) do not
    assert (res.instances, res.failures) == (7, 2)
    assert res.first_counterexample.startswith(
        "burgebox scan-max --partition 3 --field 10007  # infeasible configuration"
    )


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
    real = oracle._slot_entries
    bad = oracle.ParamSlot(3, 1, 1, 1, 1)  # a_1 of (3,1) -> (1,1): only (3,1) has it at n <= 4
    monkeypatch.setattr(
        oracle, "_slot_entries",
        lambda slot, layout: (
            [(r + 1, c) for r, c in real(slot, layout)] if slot == bad else real(slot, layout)
        ),
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
    assert code == 2 and f"scan of {text} needs" in err and "Traceback" not in err


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


def test_env_field_default(capsys, monkeypatch):
    monkeypatch.setenv("BURGEBOX_FIELD", "101")
    code, out, _ = run(
        capsys, "verify", "--partition", "3,1", "--trials", "1", "--json"
    )
    assert code == 0
    assert json.loads(out)["field"] == 101


def test_env_field_read_only_by_matrix_commands(capsys, monkeypatch):
    monkeypatch.setenv("BURGEBOX_FIELD", "abc")
    code, out, _ = run(capsys, "dmap", "3,2")
    assert code == 0 and out.strip() == "[5]"
    code, _, err = run(capsys, "verify", "--partition", "3,1", "--trials", "1")
    assert code == 2
    assert "BURGEBOX_FIELD" in err and "Traceback" not in err
    code, out, _ = run(
        capsys, "verify", "--partition", "3,1", "--trials", "1", "--field", "101", "--json"
    )
    assert code == 0 and json.loads(out)["field"] == 101


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


def test_sweep_reports_infeasible_check_instead_of_crashing(capsys):
    # dominance scans over a huge field exceed the matrix budget; the sweep
    # reports that check as failed with the reason and keeps going
    code, out, _ = run(
        capsys,
        "sweep", "--max-n", "3",
        "--checks", "matrix-dominance,prop-stats", "--field", "10007",
    )
    assert code == 1
    assert "infeasible configuration" in out
    assert "prop-stats" in out and "ok   prop-stats" in out


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
    # with n <= 4; cor-box records one instance per n plus one per
    # super-distinct Q (6 of them), foata-hooks one per super-distinct Q.
    combinatorial = tuple(c for c in CHECKS if c != "matrix-dominance")
    results = run_sweep(SweepConfig(max_n=4, checks=combinatorial, field=101, trials=1))
    results += run_sweep(SweepConfig(max_n=4, checks=("matrix-dominance",), scan_field=2))
    assert [r.name for r in results] == list(CHECKS)
    counts = {r.name: (r.instances, r.failures) for r in results}
    assert counts == {
        name: {"cor-box": (11, 0), "foata-hooks": (6, 0)}.get(name, (12, 0))
        for name in CHECKS
    }


def test_raising_sweep_check_exits_1_with_its_reproducer(capsys, monkeypatch):
    # apply_del planted to send (1,0,1) to (3,0,1) breaks del_chain on (3,1)
    oblak_module = sys.modules["burgebox.oblak"]  # burgebox.oblak names the function
    real = oblak_module.apply_del
    monkeypatch.setattr(
        oblak_module, "apply_del", lambda f: (3, 0, 1) if f == (1, 0, 1) else real(f)
    )
    code, out, err = run(capsys, "sweep", "--max-n", "4", "--checks", "thm-oblakburge")
    assert code == 1 and err == ""
    assert "repro: burgebox sweep --max-n 4 --checks thm-oblakburge  # raised: " in out


def test_failed_self_check_exits_1_without_traceback(capsys, monkeypatch):
    # with no slot marked leading, the diagonal a_1 slots join the free walk
    # and the scan meets a non-nilpotent matrix
    monkeypatch.setattr(oracle.ParamSlot, "leading", property(lambda slot: False))
    code, _, err = run(capsys, "scan-max", "--partition", "2,1")
    assert code == 1 and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: scanned matrix is not nilpotent")
