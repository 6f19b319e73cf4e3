"""Command-line front end.

Exit codes: 0 on success, 1 when a verification command finds a failure
or an internal self-check fails, 2 on usage errors (bad arguments,
malformed partitions or words, inputs over a size bound).

Partitions are accepted as comma lists (10,7,3), bracket multiset form
([4^2,3,2^2]), 'e' or '[]' for the empty partition, and frequency form
f:(0,2,1,2).  Output uses the bracket multiset form.  The field of the
matrix commands comes from --field alone: verify defaults to GF(10007),
scan-max to GF(2), and sweep gives each matrix check its own default.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import boxes, burge, oracle, words
from .oblak import (
    DEFAULT_CHAIN_LIMIT,
    check_commuting_square,
    oblak,
    oblak_all_chains,
)
from .partitions import (
    _partition,
    format_frequency,
    format_partition,
    parse_partition,
    to_frequency,
)
from .sweep import CHECKS, SweepConfig, run_sweep


def nonnegative_int(text: str) -> int:
    """argparse type for counts and limits."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _coords(text: str) -> tuple:
    s = text.strip()
    s = s[1:-1].strip() if s[:1] + s[-1:] == "()" else s  # the form coords and symmetry print
    if s in ("e", ""):
        return ()
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"bad coordinate list {text!r}")


# Each command returns (JSON data, text) or, when it verifies something,
# (JSON data, text, ok), where text is a function of no arguments that builds
# the text form; main calls it only without --json, prints one of the two and
# maps ok to the exit code.


def cmd_encode(args):
    p = parse_partition(args.partition)
    word = burge.encode(to_frequency(p))
    return {"partition": list(p), "word": word}, lambda: word


def cmd_decode(args):
    p = _partition(burge.decode(args.word))  # decode returns a checked frequency sequence
    return {"word": burge.check_word(args.word), "partition": list(p)}, lambda: format_partition(p)


def cmd_dmap(args):
    q = burge.descent_map(parse_partition(args.partition))
    return {"partition": list(q)}, lambda: format_partition(q)


def cmd_chain(args):
    ch = burge.burge_chain(to_frequency(parse_partition(args.partition)))
    data = {"states": [list(s) for s in ch.states], "word": ch.word}
    return data, lambda: "\n".join([
        f"{i:3d}  {format_frequency(state):24s} {letter}"
        for i, (state, letter) in enumerate(zip(ch.states, ch.word))
    ] + [f"word: {ch.word}"])


def cmd_oblak(args):
    out = oblak(to_frequency(parse_partition(args.partition)))
    return {"partition": list(out)}, lambda: format_partition(out)


def cmd_oblak_chains(args):
    f = to_frequency(parse_partition(args.partition))
    chains = oblak_all_chains(f, limit=args.limit)
    data = [{"indices": c.indices, "states": c.states, "valuation": c.valuation} for c in chains]
    return data, lambda: "\n".join([
        f"indices ({','.join(map(str, c.indices))})  valuation {format_partition(c.valuation)}"
        for c in chains
    ] + [f"{len(chains)} chain(s)"])


def cmd_check_square(args):
    ok = check_commuting_square(to_frequency(parse_partition(args.partition)), args.index)
    return {"index": args.index, "commutes": ok}, lambda: "true" if ok else "false"


def cmd_fiber(args):
    q = parse_partition(args.partition)
    d = boxes.delta(q)
    rows = [
        {
            "coords": list(coords),
            "code": boxes._fiber_word(d, coords),
            "partition": list(part),
            "parts": len(part),
        }
        for coords, part in boxes.fiber(q)
    ]
    return rows, lambda: "\n".join(
        f"({','.join(str(c) for c in row['coords'])})  {row['code']}  "
        f"{format_partition(row['partition'])}  {row['parts']}"
        for row in rows
    )


def cmd_coords(args):
    q, coords = boxes.coordinates_of(parse_partition(args.partition))
    return {"q": list(q), "coords": list(coords)}, lambda: (
        f"Q={format_partition(q)} coords=({','.join(str(c) for c in coords)})"
    )


def cmd_maxparts(args):
    p = boxes.max_parts_partition(parse_partition(args.partition))
    return {"partition": list(p)}, lambda: format_partition(p)


def cmd_symmetry(args):
    q = parse_partition(args.partition)
    positions = range(1, len(q) + 1) if args.positions is None else _coords(args.positions)
    out = boxes.symmetry_map(q, _coords(args.coords), positions)
    return {"coords": list(out)}, lambda: "(" + ",".join(str(c) for c in out) + ")"


def cmd_foata(args):
    w = words.foata_fiber(parse_partition(args.partition), _coords(args.coords))
    image = words.path_to_partition(w)
    return {"word": w, "partition": list(image)}, lambda: f"{w}  ->  {format_partition(image)}"


def cmd_hooks(args):
    h = words.diagonal_hooks(parse_partition(args.partition))
    return {"hooks": list(h)}, lambda: format_partition(h)


def cmd_durfee(args):
    d = words.durfee(parse_partition(args.partition))
    return {"durfee": d}, lambda: str(d)


def cmd_verify(args):
    report = oracle.verify_restriction(
        parse_partition(args.partition), p=args.field, trials=args.trials, seed=args.seed
    )
    return report.to_dict(), lambda: (
        f"{'ok' if report.ok else 'FAIL'}: expected {format_partition(report.expected)}, "
        f"witness gave {format_partition(report.witness_observed)}, "
        f"{len(report.misses)}/{report.trials} random misses"
    ), report.ok


def cmd_scan_max(args):
    report = oracle.scan_max_type(parse_partition(args.partition), p=args.field, budget=args.budget)
    return report.to_dict(), lambda: (
        f"{'ok' if report.ok else 'FAIL'}: scanned {report.scanned}, {len(report.types)} types, "
        f"max {'(no maximum)' if report.max_type is None else format_partition(report.max_type)}, "
        f"expected {format_partition(report.expected)}"
    ), report.ok


def cmd_sweep(args):
    cfg = SweepConfig(
        max_n=args.max_n,
        checks=tuple(args.checks.split(",")) if args.checks else (),
        field=args.field,
        trials=args.trials,
        seed=args.seed,
    )
    results = run_sweep(cfg)
    return [r.to_dict() for r in results], lambda: "\n".join(
        f"{'ok  ' if r.ok else 'FAIL'} {r.name:24s} "
        f"{r.instances:6d} instances, {r.failures} failures ({r.elapsed:.2f}s)"
        + (f"\n     repro: {r.first_counterexample}" if r.first_counterexample else "")
        for r in results
    ), all(r.ok for r in results)


@functools.lru_cache(maxsize=None)
def build_parser() -> tuple:
    """The command-line parser and its map of command name to subparser.

    Built once per process, since they hold no per-call state.
    """
    parser = argparse.ArgumentParser(
        prog="burgebox",
        description="Partition codes, descent-map fibers, the Oblak process, "
        "and a finite-field nilpotent-commutator oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, positional="partition"):
        sp = sub.add_parser(name, help=help_text)
        if positional == "word":
            sp.add_argument("word", help="word over {a,b} ending in a single a")
        elif positional:
            sp.add_argument("partition", help="partition text, e.g. 10,7,3 or [4^2,3]")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.set_defaults(fn=fn)
        return sp

    add("encode", cmd_encode, "code word of a partition")
    add("decode", cmd_decode, "partition of a code word", positional="word")
    add("dmap", cmd_dmap, "descent map: dominant commuting nilpotent Jordan type")
    add("chain", cmd_chain, "iterated demotion chain and its letters")
    add("oblak", cmd_oblak, "Oblak process output (independent of dmap)")
    sp = add("oblak-chains", cmd_oblak_chains, "all chains over inequivalent maximal indices")
    sp.add_argument("--limit", type=nonnegative_int, default=DEFAULT_CHAIN_LIMIT)
    sp = add("check-square", cmd_check_square, "does annihilation commute with demotion at an index")
    sp.add_argument("--index", type=int, required=True)
    add("fiber", cmd_fiber, "full descent-map fiber over a super-distinct partition")
    add("coords", cmd_coords, "box coordinates of a partition within its fiber")
    add("maxparts", cmd_maxparts, "fiber element with the most parts")
    sp = add("symmetry", cmd_symmetry, "reflect box coordinates at chosen positions")
    sp.add_argument("--coords", required=True, help="e.g. 1,1,2")
    sp.add_argument("--positions", help="1-based positions, default all")
    sp = add("foata", cmd_foata, "Foata image of a fiber code and its path partition")
    sp.add_argument("--coords", required=True)
    add("hooks", cmd_hooks, "diagonal hook lengths of a partition")
    add("durfee", cmd_durfee, "Durfee square side of a partition")

    sp = add("verify", cmd_verify, "matrix oracle: restriction type of witness and random draws", None)
    sp.add_argument("--partition", required=True)
    sp.add_argument("--field", type=int, default=oracle.GENERIC_PRIME)
    sp.add_argument("--trials", type=nonnegative_int, default=5)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("scan-max", cmd_scan_max, "exhaustive dominance-maximum scan over a small field", None)
    sp.add_argument("--partition", required=True)
    sp.add_argument("--field", type=int, default=oracle.SCAN_PRIME)
    sp.add_argument("--budget", type=nonnegative_int, default=oracle.DEFAULT_SCAN_BUDGET)

    sp = add("sweep", cmd_sweep, "run named exhaustive property suites", None)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--checks", help="comma list from: " + ", ".join(CHECKS))
    sp.add_argument(
        "--field", type=int,
        help="field of both matrix checks; by default matrix-restriction uses "
        f"{oracle.GENERIC_PRIME} and matrix-dominance uses {oracle.SCAN_PRIME}",
    )
    sp.add_argument("--trials", type=nonnegative_int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    args, unknown = command.parse_known_args(argv[1:]) if command else (None, None)
    if command is None or unknown:
        # an unknown command or argument: the whole parser words the help, usage and error
        args = parser.parse_args(argv)
    try:
        data, text, *ok = args.fn(args)
        out = json.dumps(data) if args.json else text()
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a failed internal self-check is a verification failure, not a usage error
        return 1 if isinstance(exc, AssertionError) else 2
    print(out)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
