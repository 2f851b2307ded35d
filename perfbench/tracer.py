"""Span tracer that measures belldistill's layers from outside.

Every public function of a layer module is replaced, under each name by
which a package module looks it up, with a wrapper that records a span.
``classify`` for example is defined in ``simplex`` but imported by
``witness`` and ``report``; all three bindings get the same wrapper, so a
call is traced whichever module makes it. Spans are aggregated on the fly
by (parent span, span) pair: call count, total time and self time, where
self time is a span's duration minus the time covered by its child spans.

The tracer also counts calls of the dense numpy kernels
(``np.linalg.eigh``/``eigvalsh``/``svd``/``det``) made inside a span.

Spans live in the memory of the process that records them: worker
processes of a parallel campaign would inherit the wrappers but keep their
spans, so traced runs stay in one process.
"""

import contextlib
import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

#: the package's layer modules, innermost first
LAYERS = ("linalg", "weyl", "simplex", "witness", "filtering", "verify", "report", "cli")

#: layers traced only at their entry point. cli's cmd_* handlers and
#: build_parser are reached only through main, so main's self time is the
#: whole CLI layer: argument parsing, file I/O and printing.
ENTRY_POINTS = {"cli": ("main",)}

#: numpy kernels counted as the kernel operation count
KERNELS = ("eigh", "eigvalsh", "svd", "det")

ROOT_SPAN = "<root>"


def layer_functions(layer: str) -> dict:
    """Public functions defined in ``belldistill.<layer>``, by name."""
    mod = importlib.import_module(f"belldistill.{layer}")
    if layer in ENTRY_POINTS:
        return {name: getattr(mod, name) for name in ENTRY_POINTS[layer]}
    return {
        name: obj
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    }


class Tracer:
    """Aggregating span recorder.

    Wrappers are bound while ``installed()`` is entered and record only
    while ``active`` is set, so checks run between timed calls stay out of
    the trace.
    """

    def __init__(self):
        self.active = False
        self._stack = [[ROOT_SPAN, 0.0]]
        #: (parent name, span name) -> [calls, total seconds, self seconds]
        self.edges = {}
        self.kernel_calls = 0

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                key = (parent[0], name)
                edge = self.edges.get(key)
                if edge is None:
                    edge = self.edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]

        return span

    def _count_kernel(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if self.active and len(stack) > 1:
                self.kernel_calls += 1
            return fn(*args, **kwargs)

        return kernel

    @contextlib.contextmanager
    def installed(self):
        """Bind wrappers in every package module and in ``numpy.linalg``."""
        import belldistill

        restore = []
        wrappers = {}
        for layer in LAYERS:
            for name, fn in layer_functions(layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [belldistill] + [importlib.import_module(f"belldistill.{m}") for m in LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for name in KERNELS:
            fn = getattr(np.linalg, name)
            restore.append((np.linalg, name, fn))
            setattr(np.linalg, name, self._count_kernel(fn))
        try:
            yield self
        finally:
            for mod, attr, value in reversed(restore):
                setattr(mod, attr, value)

    def by_span(self) -> dict:
        """span name -> [calls, total seconds, self seconds], summed over parents."""
        out = {}
        for (_, name), (calls, total, own) in self.edges.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def calls_under(self, parent: str, name: str) -> int:
        edge = self.edges.get((parent, name))
        return edge[0] if edge else 0
