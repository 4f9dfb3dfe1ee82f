"""Span tracing of the package's layers, installed from outside the package.

A :class:`Tracer` replaces every public module-level function of each
layer (module) with a wrapper that records a span: the function, the span
that caused it, the request it belongs to, and its start and end.  The
wrapper is bound wherever the original is reachable by name: in its own
module, in sibling modules that imported it, in the package namespace and
inside module-level tuples such as ``verify._CHECKS``.  Eigensolver calls
are counted at ``numpy.linalg``.

Self time is computed while the spans close: a span's duration minus the
durations of the spans it caused.  Work done by hooks that read a result
(Fourier-Motzkin row counts, feasibility) is timed on its own
(``hook_s``) and charged to the harness, not to a layer.  Spans stay in memory until :meth:`Tracer.write` stores them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PACKAGE = "unsharp_bell"
LAYERS = (
    "operators",
    "sampling",
    "spin_povm",
    "bell",
    "fine",
    "fme",
    "instruments",
    "relativistic",
    "verify",
    "cli",
)
EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")
JOINT_CONSTRUCTIONS = ("spin_povm.joint_observable_pair", "spin_povm.quadruple_joint")
# Span table columns, one row per closed span.
SPAN_FIELDS = ("span", "parent", "request", "function", "start", "end")
REQUEST = "harness.request"


def _fme_rows(tracer, args, kwargs, result):
    """Rows formed by one elimination before and after deduplication."""
    rows, index = args[0], args[1]
    zero = lower = upper = 0
    for _, coeffs in rows:
        c = coeffs[index]
        if c > 0:
            lower += 1
        elif c < 0:
            upper += 1
        else:
            zero += 1
    tracer.counters["fme.rows_generated"] += zero + lower * upper
    tracer.counters["fme.rows_kept"] += len(result)


def _oracle_decision(tracer, args, kwargs, result):
    tracer.counters["fine.oracle_decisions"] += 1
    tracer.counters["fine.oracle_feasible"] += int(result.feasible)


HOOKS = {
    "fme.eliminate_variable": _fme_rows,
    "fine.feasibility_oracle": _oracle_decision,
}


def public_functions(module):
    """Public module-level functions (and cached functions) a module defines."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Records spans around every public function of the package's layers."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = [REQUEST]
        self.layer_of: list[str] = ["harness"]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count; installed wrappers stay."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counters = Counter()
        self.exceptions = Counter()
        self.hook_s = 0.0
        self.spans = array("d")
        self._stack = [0.0]
        self._current = 0
        self._next_span = 1
        self._request = 0

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Bind wrappers in place of every public layer function."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, module in layers.items():
            for name, func in sorted(public_functions(module).items()):
                qualified = f"{layer}.{name}"
                index = len(self.names)
                self.names.append(qualified)
                self.layer_of.append(layer)
                replacement[id(func)] = self._wrap(func, index, HOOKS.get(qualified))
        for module in (importlib.import_module(PACKAGE), *layers.values()):
            for name, value in list(vars(module).items()):
                if id(value) in replacement:
                    self._patch(module, name, replacement[id(value)])
                elif isinstance(value, tuple):
                    swapped = _swap_in_tuple(value, replacement)
                    if swapped is not value:
                        self._patch(module, name, swapped)
        for name in EIGENSOLVERS:
            self._patch(np.linalg, name, self._count(getattr(np.linalg, name)))
        self.reset()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _count(self, func):
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counters["operators.eig_calls"] += 1
            return func(*args, **kwargs)

        return counted

    def _wrap(self, func, index: int, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span, parent = tracer._open()
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, span, parent, start, clock())
                tracer.exceptions[(index, type(exc).__name__)] += 1
                raise
            end = clock()
            tracer._close(index, span, parent, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result)
                # The hook is harness work: keep it out of the caller's self time.
                spent = clock() - end
                tracer._stack[-1] += spent
                tracer.hook_s += spent
            return result

        return traced

    # -- spans ---------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        span = self._next_span
        self._next_span = span + 1
        parent = self._current
        self._current = span
        self._stack.append(0.0)
        return span, parent

    def _close(self, index: int, span: int, parent: int, start: float, end: float) -> None:
        self._current = parent
        elapsed = end - start
        children = self._stack.pop()
        self._stack[-1] += elapsed
        self.calls[index] += 1
        self.self_s[index] += elapsed - children
        self.total_s[index] += elapsed
        self.spans.extend((span, parent, self._request, index, start, end))

    def request(self, call, *args):
        """Run ``call(*args)`` as one request: a root span with a fresh id."""
        if not self.enabled:
            return call(*args)
        self._request += 1
        span, parent = self._open()
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self._close(0, span, parent, start, time.perf_counter())

    # -- results -------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for index, layer in enumerate(self.layer_of):
            if layer in totals:
                totals[layer]["calls"] += self.calls[index]
                totals[layer]["self_s"] += self.self_s[index]
        return totals

    def request_seconds(self) -> float:
        """Summed duration of the request (root) spans, read from the span table."""
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))
        roots = table[table[:, SPAN_FIELDS.index("function")] == 0]
        return float(np.sum(roots[:, SPAN_FIELDS.index("end")] - roots[:, SPAN_FIELDS.index("start")]))

    def function(self, qualified: str) -> int:
        return self.names.index(qualified)

    def rejected(self, qualified: str, exception: str) -> int:
        return self.exceptions[(self.function(qualified), exception)]

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        counts = {f"{layer}.calls": t["calls"] for layer, t in self.layer_totals().items()}
        counts.update(self.counters)
        counts["operators.sqrt_psd_calls"] = self.calls[self.function("operators.sqrt_psd")]
        counts["spans"] = len(self.spans) // len(SPAN_FIELDS)
        return counts

    def write(self, directory: Path, stem: str) -> Path:
        """Store the span table (``.npy``) and function names (``.json``)."""
        directory.mkdir(parents=True, exist_ok=True)
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))
        path = directory / f"{stem}.npy"
        np.save(path, table)
        (directory / f"{stem}.json").write_text(
            json.dumps({"columns": SPAN_FIELDS, "functions": self.names}, indent=1)
        )
        return path


def _swap_in_tuple(value: tuple, replacement: dict):
    """The tuple with wrapped functions substituted, one nesting level deep."""
    changed = False
    items = []
    for item in value:
        if id(item) in replacement:
            item, changed = replacement[id(item)], True
        elif isinstance(item, tuple) and any(id(x) in replacement for x in item):
            item, changed = tuple(replacement.get(id(x), x) for x in item), True
        items.append(item)
    return tuple(items) if changed else value
