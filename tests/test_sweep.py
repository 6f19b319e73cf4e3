"""Every sweep check can fail: a fault planted on one partition is reported.

The acceptance gate runs the sweep checks, so it is only as strong as they
are.  Each case below replaces one binding that a check reads with a copy
that is wrong on the partition (3, 1) alone, and expects the check to
record a failure whose reproducer names that partition.
"""

import sys

import pytest

from burgebox import boxes, burge, oracle, sweep, words
from burgebox.oblak import oblak_all_chains
from burgebox.partitions import to_frequency
from burgebox.sweep import CHECKS, SweepConfig, run_sweep

TARGET = (3, 1)
F = to_frequency(TARGET)


def extra_part(out):
    return (*out, 1)


# check -> (owner, binding, first argument it goes wrong on, wrong result, reproducer)
PLANTED = {
    "lem-stats": (
        sweep, "two_measure", F, lambda m: m + 1, "burgebox chain 3,1",
    ),
    "prop-stats": (
        burge, "des", burge.encode(F), lambda d: d + 1, "burgebox encode 3,1",
    ),
    "prop-characterization": (
        burge, "is_super_distinct", TARGET, lambda s: not s, "burgebox encode 3,1",
    ),
    "thm-main-vs-oblak": (
        sweep, "oblak", F, extra_part, "burgebox dmap 3,1  # vs: burgebox oblak 3,1",
    ),
    "cor-box": (
        boxes, "fiber", TARGET, lambda box: box[:-1], "burgebox fiber 3,1 --json",
    ),
    "thm-oblakburge": (
        burge, "apply_del", F, extra_part, "burgebox oblak-chains 3,1",
    ),
    "prop-khatami": (
        sweep, "oblak_all_chains", F,
        lambda chains: chains + oblak_all_chains((1,)),
        "burgebox oblak-chains 3,1",
    ),
    "foata-hooks": (
        words, "path_to_partition", words.foata_fiber(TARGET, (1, 1)), extra_part,
        "burgebox foata 3,1 --coords 1,1",
    ),
    "matrix-restriction": (
        oracle, "apply_del", F, extra_part,
        "burgebox verify --partition 3,1 --field 10007 --trials 1 --seed 0",
    ),
    "matrix-dominance": (
        oracle, "descent_map", TARGET, extra_part,
        "burgebox scan-max --partition 3,1 --field 2",
    ),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_planted_fault_is_reported(name, monkeypatch):
    owner, binding, bad, wrong, repro = PLANTED[name]
    real = getattr(owner, binding)

    def planted(*args):
        out = real(*args)
        return wrong(out) if args[0] == bad else out

    monkeypatch.setattr(owner, binding, planted)
    (result,) = run_sweep(SweepConfig(max_n=4, checks=(name,), trials=1))
    assert result.failures >= 1
    assert result.first_counterexample == repro


def test_raising_check_is_a_failure_with_its_reproducer(monkeypatch):
    # apply_del planted to send (1,0,1) to (3,0,1): del_chain of a chain of
    # (3,1) no longer forms a chain, and del_chain raises on it
    oblak_module = sys.modules["burgebox.oblak"]  # burgebox.oblak names the function
    real = oblak_module.apply_del
    monkeypatch.setattr(
        oblak_module, "apply_del", lambda f: (3, 0, 1) if f == (1, 0, 1) else real(f)
    )
    (result,) = run_sweep(SweepConfig(max_n=5, checks=("thm-oblakburge",)))
    assert result.failures == 1
    assert result.first_counterexample == (
        "burgebox sweep --max-n 4 --checks thm-oblakburge"
        "  # raised: no maximal index carries (3, 0, 1) to (); not a chain"
    )
    assert result.instances > 12  # n = 5 still ran after n = 4 raised
