"""Named source mutants of the sweep, chain and oracle checks, of the kernels they read, of
the partition parser and of the command line's dispatch, and a runner that confirms each is killed.

Each entry of ``MUTANTS`` weakens one clause of a check in ``src/burgebox``,
breaks one step of a kernel, of the parser or of the command line, or takes
a lone unit's fast path away: it replaces ``old``, which occurs exactly once in ``src/``, by
``new``, and names the tests that must then fail.  Run from the root of the repository::

    python tests/mutants.py [name ...]

The runner copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` to a temporary
directory and first runs each distinct set of named tests there unmutated:
they must pass, and the time they take, times ``TIMEOUT_FACTOR`` but at least
``TIMEOUT_FLOOR`` seconds, is the timeout of every mutant that names them.
Then, for each mutant (all of them by default), it applies the mutant to the
copy, runs ``pytest -x`` on the mutant's tests and restores the file.  It
prints ``killed`` when those tests fail or run past their timeout,
``SURVIVED`` when they pass and ``ERROR`` when pytest could not run them, and
exits 1 unless every mutant is killed.  Only the standard library is used
here; pytest is the runner it drives.  Its name does not match
``test_*.py``, so pytest does not collect it; ``tests/test_mutants.py``
checks in tier-1 that every old text is still there to mutate.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# A mutant's tests may run 10 times as long as they do unmutated, and at least 10 s:
# a kernel made to loop forever is killed
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 10, 10


class Mutant(NamedTuple):
    file: str     # relative to the root of the repository
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the root


SWEEP = "src/burgebox/sweep.py"
BURGE = "src/burgebox/burge.py"
OBLAK = "src/burgebox/oblak.py"
ORACLE = "src/burgebox/oracle.py"
KERNELS = "src/burgebox/kernels.py"
PARTITIONS = "src/burgebox/partitions.py"
CLI = "src/burgebox/cli.py"
CLAUSE = "tests/test_sweep.py::test_planted_fault_in_one_clause_is_reported"
PLANTED = "tests/test_sweep.py::test_planted_fault_is_reported"
NOT_SUPER_DISTINCT = (
    "tests/test_sweep.py::test_partition_filed_under_a_key_that_is_not_super_distinct_is_reported"
)
COR_BOX = "        ok = fibers[q] == Counter((_fiber_word(d, c), sum(c)) for c in _box(d))\n"
LONE_UNIT = "tests/test_kernels.py::test_lone_unit_of_one_part_leaves_the_packed_int_both_ways"
BURGE_KERNELS = "tests/test_kernels.py::test_burge_kernels_match_reference_exhaustive"
OBLAK_KERNELS = "tests/test_kernels.py::test_oblak_kernels_match_reference_exhaustive"
PARSE = "tests/test_partitions.py::test_parse_partition_returns_the_checked_partition_in_every_form"
GOLDEN = "tests/test_golden_cli.py::test_cli_output_matches_the_golden_transcript"
PRINTED = "        out = json.dumps(data) if args.json else text()\n"

MUTANTS = {
    "lem-stats-part-count-of-del": Mutant(
        SWEEP, "sum(df) == sum(f) - in_b", "True", (f"{CLAUSE}[lem-stats-part-count-of-del]",),
    ),
    "lem-stats-size-of-del": Mutant(
        SWEEP, "\n            and kernels.size(df) == kernels.size(f) - two", "",
        (f"{CLAUSE}[lem-stats-size-of-del]",),
    ),
    "lem-stats-two-measure-of-del": Mutant(
        SWEEP, '\n            and _two_measure(df) == two - (in_b and _letter(df) == "a"))',
        ")", (f"{CLAUSE}[lem-stats-two-measure-of-del]",),
    ),
    "prop-stats-part-count": Mutant(
        SWEEP, 'sum(f) == w.count("b")', "True", (f"{CLAUSE}[prop-stats-part-count]",),
    ),
    "prop-stats-descent-count": Mutant(
        SWEEP, "_two_measure(f) == len(descents)", "True", (f"{CLAUSE}[prop-stats-descent-count]",),
    ),
    "prop-stats-size": Mutant(
        SWEEP, "\n            and kernels.size(f) == sum(descents)", "",
        (f"{CLAUSE}[prop-stats-size]",),
    ),
    "prop-characterization-no-bb": Mutant(  # the report tests super-distinctness twice
        BURGE, '        "bb" not in word,\n', "        is_super_distinct(p),\n",
        (f"{CLAUSE}[prop-characterization-no-bb]",),
    ),
    "prop-characterization-descents": Mutant(
        BURGE, "        _descents(word)[::-1] == p,\n", "        is_super_distinct(p),\n",
        ("tests/test_sweep.py::test_fault_in_one_word_step_is_reported"
         "[prop-characterization-burgebox encode 8]",),
    ),
    "thm-oblakburge-evaluation": Mutant(
        SWEEP, "dev == ev - 1 and ", "",
        (f"{PLANTED}[thm-oblakburge]",),
    ),
    "cor-box-word": Mutant(  # only the part counts of each fiber are compared
        SWEEP, COR_BOX,
        "        ok = Counter(k for _, k in fibers[q].elements()) == Counter(sum(c) for c in _box(d))\n",
        (f"{PLANTED}[cor-box]",),
    ),
    "cor-box-part-count": Mutant(  # only the code words of each fiber are compared
        SWEEP, COR_BOX,
        "        ok = (Counter(w for w, _ in fibers[q].elements())\n"
        "              == Counter(_fiber_word(d, c) for c in _box(d)))\n",
        (f"{CLAUSE}[cor-box-part-count]",),
    ),
    "cor-box-super-distinct-keys": Mutant(  # a Q with an empty box is skipped
        SWEEP, "    for q in sorted(fibers, reverse=True):\n",
        "    for q in sorted((q for q in fibers if min(_delta(q), default=1) > 0), reverse=True):\n",
        (f"{NOT_SUPER_DISTINCT}[cor-box]",),
    ),
    "foata-hooks-part-count": Mutant(
        SWEEP, "all(len(image) == sum(c) for c, image in images.items())\n              and ", "",
        (f"{CLAUSE}[foata-hooks-part-count]",),
    ),
    "foata-hooks-every-partition-with-hooks-q": Mutant(
        SWEEP, "\n              and set(images.values()) == by_hooks[q]", "",
        (f"{CLAUSE}[foata-hooks-every-partition-with-hooks-q]",),
    ),
    "foata-hooks-super-distinct-keys": Mutant(  # a Q with an empty box is skipped
        SWEEP, "    for q in sorted(by_hooks, reverse=True):\n",
        "    for q in sorted((q for q in by_hooks if min(_delta(q), default=1) > 0), reverse=True):\n",
        (f"{NOT_SUPER_DISTINCT}[foata-hooks]",),
    ),
    "oblak-index-bool": Mutant(  # True and False pass as the indices 1 and 0
        OBLAK, " or isinstance(i, bool) or i < 0:", " or i < 0:",
        ("tests/test_oblak.py::test_index_that_is_a_bool_or_not_an_int_is_rejected[evaluate-True]",),
    ),
    "oblak-index-negative": Mutant(
        OBLAK, "isinstance(i, bool) or i < 0:", "isinstance(i, bool):",
        ("tests/test_oblak.py::test_negative_index_is_rejected",),
    ),
    "oblak-chain-records-next-evaluation": Mutant(  # the same as the true one at index 0 only
        OBLAK, "vals + (ev,)", "vals + (kernels.evaluate(state, i + 1),)",
        ("tests/test_oblak.py::test_all_chains_match_the_reference_enumeration_exhaustive",),
    ),
    "oracle-slot-proof-untagged": Mutant(  # the ones of every slot are compared as one pattern
        ORACLE, "                eb.add(tag + r * n + c + 1)\n            if inner[r]:\n"
        "                be.add(tag + r * n + c - n)\n",
        "                eb.add(r * n + c + 1)\n            if inner[r]:\n                be.add(r * n + c - n)\n",
        ("tests/test_oracle.py::test_slot_proof_is_per_slot",),
    ),
    "oracle-slot-proof-tag-overlaps": Mutant(  # slot s + 1's ones at row r share s's codes at r + 1
        ORACLE, "        tag += n * n\n", "        tag += n\n",
        ("tests/test_oracle.py::test_slot_proof_matches_a_per_slot_check_on_every_moved_entry",),
    ),
    "oracle-slot-proof-disjoint": Mutant(  # two slots may share an entry
        ORACLE, "sum(map(len, entries)) != len(set().union(*entries)) or ", "",
        ("tests/test_oracle.py::test_slot_fault_is_caught_on_every_oracle_path[bad1-<lambda>]",),
    ),
    "oracle-listing-diagonal-a1": Mutant(  # the diagonal a_1 is listed: the draws are not nilpotent
        ORACLE, "(i == j and k <= l)", "(i == j and k < l)",
        ("tests/test_oracle.py::test_slot_table_is_the_reference_listing[True]",
         "tests/test_oracle.py::test_random_commuting_restriction"),
    ),
    "oracle-scan-count-unbounded": Mutant(  # p(m) is counted to the largest f_i, past the cap
        ORACLE, "    while len(counts) <= top and counts[-1] <= cap:\n",
        "    while len(counts) <= top:\n",
        ("tests/test_cli.py::test_scan_max_over_budget_exits_at_once[[1^100000]]",),
    ),
    "oracle-jordan-form-upper": Mutant(  # the forms set a_1 of (i, k) -> (i, k + 1), above the diagonal
        ORACLE, "[(i, k + 1, i, k, 1) for s, b in", "[(i, k, i, k + 1, 1) for s, b in",
        ("tests/test_oracle.py::test_scan_matches_reference_scan",),
    ),
    "oracle-walk-skips-wide-a1": Mutant(  # a_1 of chains of different lengths is never walked
        ORACLE, "if h > 1 or i != j]", "if h > 1]",
        ("tests/test_oracle.py::test_sliced_scan_matches_int_row_scan",),
    ),
    "oracle-max-type-unchecked": Mutant(  # the first type is taken as the maximum unchecked
        ORACLE, "    return top if all(_dominates(top, t) for t in types[1:]) else None\n",
        "    return top\n", ("tests/test_oracle.py::test_dominance_max_is_the_brute_force_maximum",),
    ),
    "oracle-negative-multiplicity-usage-error": Mutant(  # an internal fault exits 2
        ORACLE, 'raise AssertionError(f"rank sequence', 'raise ValueError(f"rank sequence',
        ("tests/test_cli.py::test_failed_rank_typing_exits_1",),
    ),
    "two-measure-last-spread-floor": Mutant(  # a last spread of odd length counts one short
        PARTITIONS, "return total + ((run + 1) >> 1)", "return total + (run >> 1)",
        ("tests/test_partitions.py::test_two_measure_examples",),
    ),
    "right-set-no-skip": Mutant(  # every support index is in R(f)
        PARTITIONS, "            j -= 1  # skip one: j - 1 is the next of j's spread, or a zero\n", "",
        ("tests/test_partitions.py::test_left_right_sets_examples",),
    ),
    "size-counts-from-zero": Mutant(  # f_1 weighs 0, f_2 weighs 1, ...
        KERNELS, "sum(accumulate(reversed(f)))", "sum(accumulate(reversed(f[1:])))",
        ("tests/test_partitions.py::test_size_length_examples",),
    ),
    "oblak-step-size-drop-unchecked": Mutant(
        KERNELS, "return ev, _checked(annihilate(f, at[0]), before, ev)",
        "return ev, annihilate(f, at[0])",
        ("tests/test_sweep.py::test_oblak_table_checks_each_size_drop",),
    ),
    "oblak-successors-size-drop-unchecked": Mutant(
        KERNELS, "out[_checked(g, before, ev)] = i", "out[g] = i",
        ("tests/test_cli.py::test_failed_chain_step_exits_1",),
    ),
    "oblak-successors-index-0-skipped": Mutant(  # the same states, each reached by index 1
        KERNELS, "at[:1] + at[2:]", "at[1:]", (GOLDEN,),
    ),
    "encode-lone-units-packed": Mutant(  # the same words, each letter O(largest part) bits
        KERNELS, "    while m > 1 and f[m - 1] == 1 and not f[m - 2]:\n", "    while False:\n",
        (LONE_UNIT,),
    ),
    "decode-lone-units-packed": Mutant(  # the same sequences, each letter O(largest part) bits
        KERNELS, "            while t > 0 and F >> w * t == 1 and not (F >> w * (t - 1)) & low:\n",
        "            while False:\n", (LONE_UNIT,),
    ),
    "encode-index-1-transfer-kept": Mutant(  # the lone-unit code reads f_1's transfers as an entry
        KERNELS, "        F = (G & full) - keep\n", "        F = G - keep\n", (BURGE_KERNELS,),
    ),
    "encode-run-starts-by-bit": Mutant(  # every flag starts a run: the field below is never read
        KERNELS, "\n            d = s & (odd ^ n ^ (n + (s & ~(s << w) & even)))",
        "\n            d = s & (odd ^ n ^ (n + (s & ~(s << 1) & even)))", (BURGE_KERNELS,),
    ),
    "decode-run-starts-by-bit": Mutant(
        KERNELS, "\n        d = s & (odd ^ n ^ (n + (s & ~(s << w) & even)))",
        "\n        d = s & (odd ^ n ^ (n + (s & ~(s << 1) & even)))", (BURGE_KERNELS,),
    ),
    "decode-b-step-f1-gives": Mutant(  # the b-step promotes f_1 too
        KERNELS, "            s &= tail\n", "", (BURGE_KERNELS,),
    ),
    "parse-unsorted": Mutant(  # the parts come back in the order they were written
        PARTITIONS, "    return _Checked(sorted(parts, reverse=True))\n",
        "    return _Checked(parts)\n", (PARSE,),
    ),
    "parse-zero-part": Mutant(  # a part 0 is listed as a part
        PARTITIONS, "            if part < 1:\n", "            if False:\n", (PARSE,),
    ),
    "oblak-last-maximal-index-only": Mutant(  # a tie with the best evaluation is dropped
        KERNELS, "        elif v == best:\n            at.append(i)\n", "", (OBLAK_KERNELS,),
    ),
    "cli-leftover-args-kept": Mutant(  # a command runs with the arguments it does not know ignored
        CLI, "    if command is None or unknown:\n", "    if command is None:\n", (GOLDEN,),
    ),
    "cli-text-under-json": Mutant(  # --json prints the text form
        CLI, PRINTED, "        out = text()\n", (GOLDEN,),
    ),
    "cli-text-built-under-json": Mutant(  # --json prints the data, but builds the text form first
        CLI, PRINTED, "        out = (text(), json.dumps(data))[1] if args.json else text()\n",
        ("tests/test_cli.py::test_json_output_builds_no_text",),
    ),
}


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):  # the golden transcript reads perfbench's pool
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_pytest(root: Path, tests, timeout=None):
    """pytest's exit code, or None when it runs past ``timeout`` seconds."""
    # no bytecode is written, so a mutated file is never shadowed by a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names: list) -> int:
    if unknown := sorted(set(names) - set(MUTANTS)):
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        timeouts = {}
        for tests in sorted({mutant.tests for mutant in chosen.values()}):
            start = time.perf_counter()
            if code := run_pytest(root, tests):
                print(f"ERROR: {' '.join(tests)} do not pass unmutated (pytest exit {code})")
                return 1
            timeouts[tests] = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * (time.perf_counter() - start))
        killed = 0
        for name, mutant in chosen.items():
            path = root / mutant.file
            text = path.read_text()
            start = time.perf_counter()
            if text.count(mutant.old) != 1:
                status = "ERROR (old text not found exactly once)"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                timeout = timeouts[mutant.tests]
                code = run_pytest(root, mutant.tests, timeout)
                path.write_text(text)
                statuses = {0: "SURVIVED", 1: "killed", None: f"killed (timed out, {timeout:.0f} s)"}
                status = statuses.get(code, f"ERROR (pytest exit {code})")
            killed += status.startswith("killed")
            print(f"{status}: {name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
