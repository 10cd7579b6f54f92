"""Spans for the traced benchmark run, and the metrics derived from them.

A :class:`Tracer` wraps functions so that every call records one span
``[name, start, end, parent, op, arg]``: ``parent`` is the index of the
enclosing span in the same process (or None), ``op`` the benchmark
operation the call belongs to, and ``arg`` a key taken from the
arguments where one is asked for (the ``n`` of ``inverse_factor_Linv``).
Spans stay in memory and are written out as JSON lines at the end.

:func:`instrument` wraps the public functions of each ``hausmom`` layer
module from outside, by rebinding every name that refers to them in every
loaded ``hausmom`` module, so the package itself is not changed.

This module uses the standard library only and never imports hausmom, so
that a traced process's import-time profile starts with the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# One layer per module of the package, in dependency order.
LAYERS = ("exact_core", "legendre", "functions", "moment_ops", "range_diagnostics", "stability_lab", "cli")
# Methods traced besides the module-level public functions.
METHODS = {"exact_core": ("FactoredTriangular.gram",), "functions": ("TestFunction.__call__",)}
# Spans whose first argument is recorded, for distinct-argument ratios.
ARG_KEYS = ("exact_core.inverse_factor_Linv",)
# Packages whose cumulative import time is reported as setup.import.<name>_s.
IMPORTED = ("hausmom", "sympy", "scipy", "mpmath", "numpy")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.errors = Counter()
        self.names = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        """Return ``fn`` recording a span named ``name`` per call.

        An exception escaping the call is counted against the layer, the
        first component of ``name``, and re-raised.
        """
        layer = name.split(".", 1)[0]
        keyed = name in ARG_KEYS
        spans, stack, clock, errors = self.spans, self._stack, self.clock, self.errors
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, args[0] if keyed else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def instrument(tracer):
    """Trace the public functions of every loaded hausmom layer module.

    Each function defined in a layer module whose name does not start
    with an underscore is wrapped once, and every loaded ``hausmom``
    module (the package included) that holds it under some name gets the
    wrapper instead, so calls across modules are traced as well as calls
    inside one.  The methods in METHODS are replaced on their classes.
    """
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"hausmom.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{path}", getattr(cls, meth)))
    for modname, mod in list(sys.modules.items()):
        if modname != "hausmom" and not modname.startswith("hausmom."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def write_spans(path, processes):
    """Write the spans of several processes as JSON lines, tagged ``proc``."""
    keys = ("name", "start", "end", "parent", "op", "arg")
    with open(path, "w") as fh:
        for proc, spans in enumerate(processes):
            for span in spans:
                fh.write(json.dumps({**dict(zip(keys, span)), "proc": proc}) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def layer_metrics(processes, names=()):
    """Per-function and per-layer metrics from the spans of several processes.

    ``processes`` is a list of ``(spans, errors)`` pairs, one per process;
    ``names`` lists span names to report even when they have no calls.
    Returns ``<name>.calls`` and ``<name>.self_s`` for every span name,
    ``<layer>.self_s`` and ``<layer>.errors`` for every layer, and
    ``<name>.distinct_ratio`` (distinct recorded arguments per process,
    summed, over calls) for the names in ARG_KEYS that were called.
    """
    calls = Counter({n: 0 for n in names})
    self_s = defaultdict(float, {n: 0.0 for n in names})
    layer_self = defaultdict(float, {layer: 0.0 for layer in LAYERS})
    errors = Counter({layer: 0 for layer in LAYERS})
    distinct = Counter()
    for spans, errs in processes:
        errors.update(errs)
        seen = defaultdict(set)
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if name in ARG_KEYS:
                seen[name].add(span[5])
        for name, args in seen.items():
            distinct[name] += len(args)
    out = {}
    for name in sorted(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in sorted(layer_self):
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.errors"] = errors[layer]
    for name in ARG_KEYS:
        if calls[name]:
            out[f"{name}.distinct_ratio"] = distinct[name] / calls[name]
    out["functions.evals"] = calls["functions.TestFunction.__call__"]
    return out


def import_times(text, packages=IMPORTED):
    """Cumulative import seconds per package from ``python -X importtime``.

    A package's time is the sum of the cumulative times of its modules
    that were not imported from inside another of its own modules, so
    ``scipy`` counts ``scipy.integrate`` once, with ``scipy`` within it.
    """
    lines = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        lines.append((depth, name.strip(), int(fields[1])))
    totals = dict.fromkeys(packages, 0.0)
    stack = []  # enclosing modules of the current line, outermost first
    # importtime prints a module after everything it imported, so in
    # reverse order every module comes before the modules it imported.
    for depth, name, cumulative_us in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".", 1)[0]
        if top in totals and all(anc.split(".", 1)[0] != top for _, anc in stack):
            totals[top] += cumulative_us / 1e6
        stack.append((depth, name))
    return totals
