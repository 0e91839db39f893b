"""Span tracing for the benchmark's traced runs, kept outside the package.

``install`` wraps every public function of the package's modules in a
recording wrapper and rebinds it under each name it is looked up by: the
modules import each other with ``from .x import y``, so a function has one
binding per importing module as well as one in the package namespace.
Spans (name, start, end, parent, operation) stay in memory and are written
once, when the process ends.

Run as a script, this is the launcher for a traced CLI operation:

    python3 bench/tracer.py SPANS.json eig --two-alpha 1.6 --n 64

imports ``riesz_eig.cli`` under a ``cli.import`` span, installs the wrappers,
runs ``riesz_eig.cli.main`` on the remaining arguments and writes the spans
to ``SPANS.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import threading
import types
from time import perf_counter

MODULES = ("specfun", "quadrature", "assembly", "eig", "analysis", "cli")
IMPORT_SPAN = "cli.import"


def _sym_eig_attrs(args, result):
    return {"dim": int(len(result[0]))}


def _assemble_mass_attrs(args, result):
    arrays = [getattr(result, f.name) for f in dataclasses.fields(result)]
    return {
        "entries": (int(result.n_max) + 1) ** 2,
        "bytes": sum(int(a.nbytes) for a in arrays if hasattr(a, "nbytes")),
    }


# Sizes read off a call's result; they are computed, not measured.
ATTRS = {"eig.sym_eig": _sym_eig_attrs, "assembly.assemble_mass": _assemble_mass_attrs}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, op, attrs]
        self.op = None
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, attrs=None) -> None:
        with self._lock:
            self.spans.append([len(self.spans), None, name, start, end, self.op, attrs])

    def wrap(self, func, name: str):
        attrs_of = ATTRS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread starts with an empty stack: its parent is the
            # span the main thread has open, the one that submitted the job.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span = [len(self.spans), parent, name, 0.0, 0.0, self.op, None]
                self.spans.append(span)
            stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = func(*args, **kwargs)
                if attrs_of is not None:
                    span[6] = attrs_of(args, result)
                return result
            finally:
                span[4] = perf_counter()
                stack.pop()

        return traced

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every package module; return how many."""
    package = importlib.import_module("riesz_eig")
    modules = [importlib.import_module(f"riesz_eig.{m}") for m in MODULES]
    wrapped = {}
    for short, module in zip(MODULES, modules):
        for name in module.__all__:
            func = getattr(module, name)
            if isinstance(func, types.FunctionType) and func.__module__ == module.__name__:
                wrapped[func] = tracer.wrap(func, f"{short}.{name}")
    for module in (package, *modules):
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(module, attr, wrapped[value])
    return len(wrapped)


def _union_length(intervals) -> float:
    total, end = 0.0, None
    start = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            if end is not None:
                total += end - start
            start, end = s, e
        else:
            end = max(end, e)
    if end is not None:
        total += end - start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = []
    for span in spans:
        s, e = span[3], span[4]
        kids = [(max(c[3], s), min(c[4], e)) for c in children.get(span[0], ())]
        out.append((e - s) - _union_length([k for k in kids if k[1] > k[0]]))
    return out


def covered(spans) -> float:
    """Wall time covered by at least one span."""
    return _union_length([(s[3], s[4]) for s in spans])


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    t0 = perf_counter()
    cli = importlib.import_module("riesz_eig.cli")
    tracer.add(IMPORT_SPAN, t0, perf_counter())
    install(tracer)
    try:
        return cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
