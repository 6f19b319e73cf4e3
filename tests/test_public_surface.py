"""Every name that ``burgebox`` exports is reached by the program, not only by tests.

A name exported from ``burgebox/__init__.py`` must be reached from outside
its own module: from ``cli.py``, ``sweep.py`` or another module of the
package, or from the benchmark's ``perfbench/workloads.py`` or
``perfbench/tracer.py``.  Reached means referenced there (``from .m import
name``, ``m.name`` on a sibling module, ``module("m").name`` in the
workloads, or a ``("m", "name")`` pair in the tracer's tables), or used by a
definition of its own module that is itself reached.  Code that only tests
call belongs in ``tests/``; each name on ``ALLOWED`` waits for the change
named beside it.  Only the standard library is used.
"""

import ast

from mutants import ROOT

PACKAGE = ROOT / "src" / "burgebox"
BENCHMARK = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "tracer.py"]

ALLOWED = {
    "apply_a": "the Burge tree walk (ROADMAP item 22) will call it",
    "apply_b": "the Burge tree walk (ROADMAP item 22) will call it",
    "size": "three lines with about 60 test references",
    "length": "three lines with about 60 test references",
    "dominates": "the validating form of partitions._dominates, which the oracle runs on its own"
                 " types; about 20 test references",
}


def tree(path):
    return ast.parse(path.read_text())


def exports() -> dict:
    """Exported name -> the module of the package that defines it."""
    return {alias.name: node.module for node in tree(PACKAGE / "__init__.py").body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def references(path) -> set:
    """(module, name) for every name of a package module that a file refers to."""
    nodes = list(ast.walk(tree(path)))
    modules = {alias.asname or alias.name: alias.name for node in nodes
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}  # from . import kernels
    refs = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            refs |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                refs.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call):
            args = node.value.args  # module("oracle").scan_max_type
            if len(args) == 1 and isinstance(args[0], ast.Constant):
                refs.add((args[0].value, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            pair = tuple(e.value for e in node.elts if isinstance(e, ast.Constant))
            if len(pair) == 2 and all(isinstance(x, str) for x in pair):
                refs.add(pair)  # ("oracle", "jordan_type")
    return refs


def reached(module: str, roots: set) -> set:
    """The top-level names of a module reached from the roots through its own definitions."""
    body = tree(PACKAGE / f"{module}.py").body
    uses = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo = set(), [*roots]
    for node in body:  # statements outside a definition run at import
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo += [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += uses.get(name, ())
    return seen


def unreached() -> list:
    """The exported names that nothing but tests reaches."""
    files = [*BENCHMARK, *(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")]
    outside = {path.stem: references(path) for path in files}
    out = []
    for module in sorted(set(exports().values())):
        roots = {name for stem, refs in outside.items() if stem != module
                 for m, name in refs if m == module}
        out += [name for name, m in exports().items() if m == module and name not in reached(module, roots)]
    return sorted(out)


def test_every_export_is_reached_outside_its_module():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_every_allowed_name_is_exported_and_still_unreached():
    assert sorted(ALLOWED) == [name for name in unreached() if name in ALLOWED]
