"""Per-layer tracing of burgebox, installed from outside the package.

The tracer replaces every binding of a traced function with a wrapper for
the length of a ``with tracer.installed():`` block and restores the
originals afterwards.  Coarse public calls become spans (name, start, end,
parent); very fine-grained calls are only counted, because a span on each
of them would cost more than the work it measures.

Bindings are found by identity in every loaded ``burgebox.*`` module and in
the module-level dicts of those modules, such as a table of commands.  ``from .x
import f`` copies a binding, so ``apply_del`` lives in ``burge``, ``oblak``,
``oracle`` and the package namespace at once, and each copy is patched.
Modules are looked up in ``sys.modules`` because ``burgebox.oblak`` is the
function ``oblak``, which shadows its submodule.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# metric prefix -> (module, function); each call is a span
SPANNED = {
    "partitions.parse_partition": ("partitions", "parse_partition"),
    "burge.encode": ("burge", "encode"),
    "burge.decode": ("burge", "decode"),
    "burge.descent_map": ("burge", "descent_map"),
    "oblak.oblak": ("oblak", "oblak"),
    "oblak.oblak_all_chains": ("oblak", "oblak_all_chains"),
    "boxes.fiber": ("boxes", "fiber"),
    "boxes.coordinates_of": ("boxes", "coordinates_of"),
    "words.foata_fiber": ("words", "foata_fiber"),
    "words.path_to_partition": ("words", "path_to_partition"),
    "words.diagonal_hooks": ("words", "diagonal_hooks"),
    "gfp.row_echelon_basis": ("gfp", "row_echelon_basis"),
    "oracle.scan": ("oracle", "scan_max_type"),
    "oracle.jordan_type": ("oracle", "jordan_type"),
    "oracle.restriction_type": ("oracle", "restriction_type"),
    "oracle.witness_matrix": ("oracle", "witness_matrix"),
    "oracle.random_commuting": ("oracle", "random_commuting"),
    "cli.main": ("cli", "main"),
}

# counter name -> (module, function); each call adds one to the counter
COUNTED = {
    "partitions.validate.calls": [("partitions", "as_frequency"), ("partitions", "as_partition")],
    "burge.apply_del.calls": [("burge", "apply_del")],
    "oblak.maximal_indices.calls": [("oblak", "maximal_indices")],
}

# counters derived from a span's arguments or result
_SIZE_OF_RESULT = {
    "burge.encode": ("burge.encode.letters", lambda args, out: len(out)),
    "burge.decode": ("burge.decode.letters", lambda args, out: len(args[0].strip())),
    "oblak.oblak_all_chains": ("oblak.oblak_all_chains.chains", lambda args, out: len(out)),
    "boxes.fiber": ("boxes.fiber.elements", lambda args, out: len(out)),
    "oracle.scan": ("oracle.scan.matrices", lambda args, out: out.scanned),
}


def _original(module: str, name: str):
    try:
        return getattr(sys.modules["burgebox." + module], name)
    except (KeyError, AttributeError):
        raise LookupError(f"traced function burgebox.{module}.{name} not found") from None


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def _span_generator(self, name: str, fn):
        """Each ``next()`` on the generator is one span; each item is counted."""
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                spans, stack = tracer.spans, tracer._stack
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    spans[idx] = (name, start, clock(), parent)
                    stack.pop()
                tracer.counts[name + ".items"] += 1
                yield item

        return traced

    def _counted(self, counter: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[counter] += 1  # looked up per call: reset() replaces it
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> int:
        found = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "burgebox" and not modname.startswith("burgebox."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((setattr, mod, attr, original))
                    found += 1
                elif isinstance(value, dict) and attr != "__builtins__":
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = replacement
                            self._undo.append((dict.__setitem__, value, key, original))
                            found += 1
        if not found:
            raise LookupError(f"no binding of {original!r} found to trace")
        return found

    def _patch_method(self, cls, attr: str, replacement) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, replacement)
        self._undo.append((setattr, cls, attr, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        try:
            for prefix, (module, name) in SPANNED.items():
                extra = _SIZE_OF_RESULT.get(prefix)
                on_result = None
                if extra is not None:
                    counter, size_of = extra

                    def on_result(args, out, counter=counter, size_of=size_of):
                        self.counts[counter] += size_of(args, out)

                fn = _original(module, name)
                self._patch_everywhere(fn, self._span(prefix, fn, on_result))
            for counter, targets in COUNTED.items():
                for module, name in targets:
                    fn = _original(module, name)
                    self._patch_everywhere(fn, self._counted(counter, fn))
            gen = _original("partitions", "partitions_of")
            self._patch_everywhere(gen, self._span_generator("partitions.partitions_of", gen))

            matrix = _original("gfp", "MatrixGFp")
            matmul = matrix.__dict__["__matmul__"]

            def count_macs(args, out):
                a, b = args
                self.counts["gfp.matmul.mac_ops"] += a.nrows * a.ncols * b.ncols

            self._patch_method(matrix, "__matmul__", self._span("gfp.matmul", matmul, count_macs))
            init = matrix.__dict__["__init__"]
            self._patch_method(matrix, "__init__", self._counted("gfp.matrix.constructs", init))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over the recorded spans.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, since the load is single-threaded.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for (name, start, end, _parent), child in zip(self.spans, covered):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out
