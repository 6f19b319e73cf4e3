"""List the statements of ``src/burgebox`` that the test suite never executes.

Run from the root of the repository::

    python tests/untraced_statements.py [pytest arguments]

It runs pytest in this process (on ``tests/`` by default) under a
``sys.settrace`` line tracer that watches only the frames of code in
``src/burgebox``, then prints one ``path:line: source`` line for each
statement that no traced line belongs to, and a count.  A frame stops
tracing lines once every line of its code object has been seen, so most
tests run close to their untraced speed; a timed test can still fail when
one call runs a long loop before its code is fully seen.  Only the
standard library is used here; pytest is the runner it drives.  Its name
does not match ``test_*.py``, so pytest does not collect it.  The exit
code is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "burgebox"


class LineTracer(dict):
    """Code object -> its local trace function: None outside the package or once all seen."""

    def __init__(self):
        super().__init__()
        self.hits: dict = {}  # file name -> line numbers seen
        self.unseen: dict = {}  # code object -> its line numbers not seen yet

    def __missing__(self, code):
        name = code.co_filename
        tracer = None
        if name.startswith(str(PACKAGE)):
            seen = self.hits.setdefault(name, set())
            seen.add(code.co_firstlineno)
            lines = {line for _, _, line in code.co_lines() if line is not None}
            self.unseen[code] = lines - seen
            tracer = self.line if self.unseen[code] else None
        self[code] = tracer
        return tracer

    def call(self, frame, event, arg):
        """The global trace function: one lookup per call."""
        return self[frame.f_code]

    def line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.hits[code.co_filename].add(frame.f_lineno)
            left = self.unseen[code]
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
                self[code] = None
        return self.line


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement outside the statements it contains."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def untraced(path: Path, seen: set) -> list:
    """(line, source) of each statement none of whose lines, nor any of its parts', was seen."""
    source = path.read_text()
    lines = source.splitlines()
    out = []

    def visit(node) -> bool:  # whether the node or anything in it was seen
        ran = False
        for child in ast.iter_child_nodes(node):
            ran |= visit(child)
        if not isinstance(node, ast.stmt):
            return ran
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return True  # a docstring compiles to no code
        ran |= any(line in seen for line in _own_lines(node))
        if not ran:
            out.append((node.lineno, lines[node.lineno - 1].strip()))
        return ran

    visit(ast.parse(source))
    return sorted(out)


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    tracer = LineTracer()
    sys.settrace(tracer.call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in untraced(path, tracer.hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements of {PACKAGE.relative_to(ROOT)} never executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
