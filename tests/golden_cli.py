"""A golden transcript of the command line: every command's output, one line per invocation.

Run from the root of the repository::

    python tests/golden_cli.py          # compare with tests/golden_cli.txt: exit 0, or 1 naming each change
    python tests/golden_cli.py --write  # rewrite tests/golden_cli.txt

Each line of ``golden_cli.txt`` holds one invocation: its exit code, the
first 12 hex digits of the sha256 of its stdout and of its stderr, and its
argv (an argument over 60 characters is shortened to a prefix, its length
and a digest).  Every invocation runs in this process through
``burgebox.cli.main``, with stdout and stderr captured; an argparse exit is
recorded with its code.  Before hashing, the value of each timing key
(``elapsed``, ``cpu``, ``us_per_matrix``) is set to 0.  Help and usage
text is formatted 1000 columns wide, so that no line wraps: argparse reads
the width from the terminal, and wraps the long command list differently
from one Python version to the next.  The argv list covers every
partition command on every partition with n <= 7, decode on their code
words, the
28 partitions of perfbench's ``big-queries`` pool under the five commands
it times, the box, Foata and square commands on a few Q, the matrix
commands and the sweep at small bounds, malformed inputs, usage errors
and help, and the refusal at each cap and budget.

Only the standard library is used, so it runs under every supported Python
without pytest; ``tests/test_golden_cli.py`` runs the comparison in tier-1.
A change that alters a line lists each such argv in CHANGES.md with the
reason, and rewrites the file with ``--write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_cli.txt")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from burgebox import cli  # noqa: E402
from burgebox.burge import encode  # noqa: E402
from burgebox.partitions import parse_partition, partitions_of, to_frequency  # noqa: E402

TIMING = re.compile(r'"(elapsed|cpu|us_per_matrix)": [-+.0-9eE]+')
LONG_ARG = 60

PARTITION_COMMANDS = ("encode", "dmap", "chain", "oblak", "oblak-chains", "fiber", "coords",
                      "maxparts", "hooks", "durfee")
MALFORMED = ("x", "", "3,x", "1.5", "-1", "3,0", "[2^x]", "f:(1,", "[4^2,3", "e,1", "0x10")
WORDS = ("ABBABA", " abbaba ", "0110", "abaa", "", "abc", "bb", "b")
QS = ("10,7,3", "8,5,2", "6,3", "3", "e", "4,3")

USAGE = (
    [], ["-h"], ["--help"], ["no-such-command"], ["no-such-command", "3"], ["--json", "encode", "3"],
    ["encode"], ["encode", "3", "4"], ["encode", "3", "--bogus"], ["encode", "-h"],
    ["encode", "3", "-h"], ["encode", "--", "3"], ["encode", "3", "--"], ["encode", "3", "--js"],
    ["encode", "--json=1", "3"], ["encode", "-3"],
    ["decode"], ["decode", "ab", "ba"], ["dmap", "3", "--bogus"], ["chain"], ["oblak", "3", "4"],
    ["oblak-chains", "3", "--limit", "x"], ["oblak-chains", "3", "--limit", "-1"],
    ["check-square", "3"], ["check-square", "3", "--index", "x"], ["check-square", "-h"],
    ["fiber", "3", "--json", "x"], ["coords", "-h"], ["coords", "3", "--index", "1"],
    ["maxparts", "--json"], ["symmetry", "3"], ["symmetry", "3", "--coords", "1", "x"],
    ["foata", "3", "--coords"], ["hooks", "3", "4"], ["durfee", "--bogus", "3"],
    ["verify"], ["verify", "3"], ["verify", "--partition", "3,1", "--witness-only"],
    ["verify", "--partition", "3,1", "--trials", "-3"], ["verify", "--partition", "3,1", "--trials", "x"],
    ["verify", "-h"], ["scan-max"], ["scan-max", "--partition", "2,1", "--budget", "-1"],
    ["scan-max", "--partition", "2,1", "x"], ["sweep"], ["sweep", "--max-n", "x"],
    ["sweep", "--max-n", "6", "--threads", "4"], ["sweep", "--max-n", "2", "--trials", "-1"],
    ["sweep", "--help"],
)

MATRIX = (
    ["verify", "--partition", "[4^2,3,2^2]", "--trials", "2"],
    ["verify", "--partition", "[4^2,3,2^2]", "--trials", "2", "--json"],
    ["verify", "--partition", "3,1", "--trials", "0", "--field", "101", "--json"],
    ["verify", "--partition", "3,1", "--field", "1000000000000000003", "--json"],
    ["verify", "--partition", "3,1", "--field", "4"],
    ["verify", "--partition", "3,x"],
    ["scan-max", "--partition", "2,1", "--field", "2"],
    ["scan-max", "--partition", "3,2,1", "--json"],
    ["scan-max", "--partition", "2,1", "--field", "3", "--json"],
    ["scan-max", "--partition", "3", "--budget", "0"],
    ["sweep", "--max-n", "0", "--checks", "thm-main-vs-oblak", "--json"],
    ["sweep", "--max-n", "5", "--json"],
    ["sweep", "--max-n", "6", "--checks", "prop-stats,cor-box,foata-hooks", "--json"],
    ["sweep", "--max-n", "3", "--checks", "matrix-restriction", "--field", "101", "--json"],
    ["sweep", "--max-n", "3", "--checks", "not-a-check"],
    ["sweep", "--max-n", "3", "--field", "4"],
    ["sweep", "--max-n", "-1"],
)

REFUSALS = (
    ["encode", "[1^100000000000]"], ["encode", "f:(100000000000)"], ["dmap", "1," * 99999 + "2"],
    ["encode", "1," * 40000 + "x"], ["decode", "a" * 100000 + "ba"], ["decode", "a" * 100000 + "aa"],
    ["fiber", "2000,1000"], ["fiber", "1001"], ["chain", "30000"], ["chain", "100000"],
    ["oblak-chains", "3,1", "--limit", "0"],
    ["scan-max", "--partition", "[1^1500]"], ["scan-max", "--partition", "[1^100000]"],
    ["scan-max", "--partition", "8,3", "--field", "3"],
    ["verify", "--partition", "[1^400]"], ["verify", "--partition", "3000"],
    ["verify", "--partition", "3", "--trials", "1000000000"],
    ["sweep", "--max-n", "3", "--trials", "10000"],
    ["sweep", "--max-n", "3", "--checks", "matrix-dominance,prop-stats", "--field", "10007"],
    ["sweep", "--max-n", "14"], ["sweep", "--max-n", "9"], ["sweep", "--max-n", "100000"],
    ["sweep", "--max-n", "49", "--checks", "prop-stats"],
    ["sweep", "--max-n", "49", "--checks", "lem-stats"],
    ["sweep", "--max-n", "27", "--checks", "matrix-restriction"],
)


def big_queries_pool() -> list:
    """The bracket texts of perfbench's big-queries pool, in its order."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.multiset_text(parts) for parts in workloads.query_pool().values()]


def invocations() -> list:
    """Every argv of the transcript, in order."""
    small = [p for n in range(8) for p in partitions_of(n)]
    texts = [",".join(map(str, p)) or "e" for p in small]
    out = [[cmd, text, *flag] for text in texts for cmd in PARTITION_COMMANDS
           for flag in ([], ["--json"])]
    words = [encode(to_frequency(p)) for p in small] + list(WORDS)
    out += [["decode", w, *flag] for w in words for flag in ([], ["--json"])]
    out += [[cmd, text] for text in MALFORMED for cmd in ("encode", "dmap", "oblak", "coords")]
    for text in big_queries_pool():
        for flag in ([], ["--json"]):
            out += [[cmd, text, *flag] for cmd in ("encode", "dmap", "oblak", "coords")]
            out.append(["decode", encode(to_frequency(parse_partition(text))), *flag])
    for q in QS:
        out += [["fiber", q, "--json"], ["maxparts", q], ["maxparts", q, "--json"],
                ["symmetry", q, "--coords", "1,1,1"], ["symmetry", q, "--coords", "(2,1,2)", "--json"],
                ["symmetry", q, "--coords", "2,1,2", "--positions", "2"],
                ["foata", q, "--coords", "1,1,1"], ["foata", q, "--coords", "(2,1,2)", "--json"],
                ["foata", q, "--coords", "e"]]
    out.append(["symmetry", "10,7,3", "--coords", "2,1,2", "--positions", ""])
    out += [["check-square", f, "--index", str(i), *flag]
            for f in ("f:(3,0,2,1,0,1,2,1)", "f:(3,3,2,0,3,1,0,0,2)", "5,3,2,2,1")
            for i in range(-1, 10) for flag in ([], ["--json"])]
    out += USAGE + MATRIX + REFUSALS
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def label(argv: list) -> str:
    """The argv as a shell line, each argument over LONG_ARG characters shortened."""
    def short(arg: str) -> str:
        if len(arg) <= LONG_ARG:
            return arg
        digest = hashlib.sha256(arg.encode()).hexdigest()[:8]
        return f"{arg[:20]}...[{len(arg)}:{digest}]"
    return shlex.join(map(short, argv)) or "(no arguments)"


def digest(text: str) -> str:
    return hashlib.sha256(TIMING.sub(r'"\1": 0', text).encode()).hexdigest()[:12]


def run(argv: list) -> str:
    """One transcript line: exit code, stdout and stderr digests, argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's help, usage and errors
            code = exc.code
    return f"{code} {digest(out.getvalue())} {digest(err.getvalue())} {label(argv)}"


def transcript() -> list:
    with mock.patch.dict(os.environ, COLUMNS="1000"):  # no usage or help line wraps
        return [run(argv) for argv in invocations()]


def by_argv(lines: list) -> dict:
    table = {}
    for line in lines:
        key = line.split(" ", 3)[3]
        if key in table:
            raise ValueError(f"argv listed twice: {key}")
        table[key] = line
    return table


def differences(golden: list, now: list) -> list:
    """One message per argv whose line changed, went missing or is new."""
    old, new = by_argv(golden), by_argv(now)
    changed = [f"changed: {key}\n  was {old[key]}\n  now {new[key]}"
               for key in old if key in new and old[key] != new[key]]
    return (changed + [f"missing: {key}" for key in old if key not in new]
            + [f"new: {key}" for key in new if key not in old])


def main(args: list) -> int:
    if args not in ([], ["--write"]):
        print("usage: python tests/golden_cli.py [--write]", file=sys.stderr)
        return 2
    lines = transcript()
    if args:
        GOLDEN.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} lines to {GOLDEN.relative_to(ROOT)}")
        return 0
    problems = differences(GOLDEN.read_text().splitlines(), lines)
    print("\n".join(problems) or f"{len(lines)} invocations match {GOLDEN.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
