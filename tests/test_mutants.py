"""Every mutant in ``tests/mutants.py`` still applies, so a refactor cannot retire one silently.

The mutants themselves run outside tier-1: ``python tests/mutants.py``.
"""

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_old_text_occurs_once_in_src(name):
    mutant = MUTANTS[name]
    assert mutant.old != mutant.new
    assert [path for path, text in SOURCES.items() if mutant.old in text] == [ROOT / mutant.file]
    assert SOURCES[ROOT / mutant.file].count(mutant.old) == 1
    for test in mutant.tests:
        path, function = test.split("[")[0].split("::")
        assert f"def {function}(" in (ROOT / path).read_text()
