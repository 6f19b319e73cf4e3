"""The benchmark's tracer finds every name it traces in the package.

``perfbench/tracer.py`` raises LookupError for a traced name that is gone,
so a deletion in ``src/`` would otherwise fail only the benchmark's smoke test.
"""

from pathlib import Path

import burgebox.cli  # noqa: F401  (the tracer looks names up in the loaded modules)
from burgebox import oracle


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    before = oracle.restriction_type
    with tracer.Tracer().installed():
        assert oracle.restriction_type is not before
    assert oracle.restriction_type is before
