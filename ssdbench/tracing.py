"""The traced run: wraps ssdopt's public functions from outside the program.

Each function named in ``TRACED`` is wrapped where its module defines it and
at every ``from ... import`` binding of it inside the ``ssdopt`` package;
``SignMatrix.gram`` is wrapped on the class. A name that no longer exists
raises ``LookupError`` at install time, so a rename cannot silently drop a
layer from the trace. The untraced run never calls :meth:`Tracer.install`.

Every call records a span (id, name, start, end, parent, op id) in memory;
:meth:`Tracer.write_spans` writes them out at the end. A layer's self time is
its spans' time minus the time of their child spans, which are the nested
calls into other layers (nested calls within the same layer count towards
it through their own self time). The wrapper's own bookkeeping is timed and
subtracted from every ancestor, so ``*_s`` values are inclusive times of the
wrapped function without the tracer's cost; ``trace_overhead_frac`` reports
that cost end to end.

Inner helpers that run O(q^2) times per call (``krawtchouk``,
``interaction_column``, ``j_characteristic``) are not wrapped: their work is
counted exactly from the arguments of the wrapped caller, and their time
belongs to the caller's layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "designio", "verify", "es2", "builder", "spectral", "core")


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _content(matrix) -> tuple:
    """Key of a SignMatrix by its entries, for distinct-input ratios."""
    entries = matrix.entries
    return entries.shape, hashlib.blake2b(entries.tobytes(), digest_size=16).digest()


def _count_csv_read(t, args, kwargs, result):
    t.count["designio.csv_read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_csv_write(t, args, kwargs, result):
    t.count["designio.csv_write_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_json(t, args, kwargs, result):
    t.count["designio.json_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_checks(t, args, kwargs, result):
    t.count["verify.checks"] += len(result)


def _count_verdict(t, args, kwargs, result):
    t.count["es2.verdict_calls"] += 1


def _count_build(t, args, kwargs, result):
    t.count["builder.builds"] += 1
    t.count["builder.cols_built"] += result.design.cols
    t.distinct("builder.distinct_builds_ratio", _content(_arg(args, kwargs, 0, "start")))


def _count_jsum(t, args, kwargs, result):
    design, s = _arg(args, kwargs, 0, "design"), _arg(args, kwargs, 1, "s")
    fixed = tuple(_arg(args, kwargs, 2, "fixed", ()))
    free, k = design.cols - len(fixed), s - len(fixed)
    t.count["spectral.jsum_calls"] += 1
    t.count["spectral.jsum_subsets"] += math.comb(free, k) if 0 <= k <= free else 0
    t.distinct("spectral.jsum_distinct_ratio", (_content(design), s, fixed))


def _count_gwp(t, args, kwargs, result):
    q = _arg(args, kwargs, 0, "design").cols
    t.count["spectral.gwp_terms"] += q * (q + 1)  # P_i(j; q) for i = 1..q, j = 0..q


def _count_gram(t, args, kwargs, result):
    matrix = args[0]
    t.count["core.gram_calls"] += 1
    t.count["core.gram_cells"] += matrix.cols * matrix.cols
    t.distinct("core.gram_distinct_ratio", _content(matrix))


def _count_oa(t, args, kwargs, result):
    t.count["core.oa_check_calls"] += 1
    t.distinct("core.oa_distinct_ratio", _content(_arg(args, kwargs, 0, "design")))


def _count_aliasing(t, args, kwargs, result):
    t.count["core.aliased_pairs"] += len(result)


# layer -> {function name in ssdopt.<layer>: (inclusive-time metric or None, counter or None)}
TRACED = {
    "cli": {"main": (None, None)},
    "designio": {
        "read_design_csv": ("designio.csv_read_s", _count_csv_read),
        "write_design_csv": ("designio.csv_write_s", _count_csv_write),
        "dump_json": ("designio.json_s", _count_json),
        "evaluate_report": (None, None),
        "report_json": (None, None),
        "sidecar_json": (None, None),
    },
    "verify": {
        "verify_lemma1": (None, _count_checks),
        "verify_lemma2": (None, _count_checks),
        "verify_theorems": (None, _count_checks),
    },
    "es2": {
        "verdict": (None, _count_verdict),
        "es2_direct": ("es2.direct_s", None),
        "es2_via_j": ("es2.via_j_s", None),
        "es2_closed_form": (None, None),
        "bound_details": ("es2.bound_s", None),
    },
    "builder": {
        "build_full": (None, _count_build),
        "build_minus_one": (None, _count_build),
        "build_interactions_only": (None, _count_build),
        "build_single_parent": (None, _count_build),
    },
    "spectral": {
        "sum_j_squared": ("spectral.jsum_s", _count_jsum),
        "sum_j_squared_filtered": ("spectral.jsum_s", _count_jsum),
        "gwp_via_krawtchouk": ("spectral.gwp_s", _count_gwp),
        "distance_distribution": ("spectral.distance_s", None),
        "d_parameter": (None, None),
    },
    "core": {
        "hadamard_design": ("core.hadamard_s", None),
        "drop_columns": (None, None),
        "verify_oa_strength2": ("core.oa_check_s", _count_oa),
        "aliasing_report": ("core.aliasing_s", _count_aliasing),
        "SignMatrix.gram": ("core.gram_s", _count_gram),
    },
}

# per-layer metric -> (unit, better), in the order they are reported
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
    METRICS[f"{_layer}.errors"] = ("count", "lower")
METRICS.update({
    "designio.csv_read_s": ("s", "lower"), "designio.csv_read_bytes": ("bytes", "lower"),
    "designio.csv_write_s": ("s", "lower"), "designio.csv_write_bytes": ("bytes", "lower"),
    "designio.json_s": ("s", "lower"), "designio.json_bytes": ("bytes", "lower"),
    "verify.checks": ("count", "higher"),
    "es2.verdict_calls": ("count", "lower"), "es2.direct_s": ("s", "lower"),
    "es2.via_j_s": ("s", "lower"), "es2.bound_s": ("s", "lower"),
    "builder.builds": ("count", "lower"), "builder.cols_built": ("count", "lower"),
    "builder.distinct_builds_ratio": ("ratio", "higher"),
    "spectral.jsum_calls": ("count", "lower"), "spectral.jsum_s": ("s", "lower"),
    "spectral.jsum_subsets": ("count", "lower"),
    "spectral.jsum_distinct_ratio": ("ratio", "higher"),
    "spectral.gwp_s": ("s", "lower"), "spectral.gwp_terms": ("count", "lower"),
    "spectral.distance_s": ("s", "lower"),
    "core.hadamard_s": ("s", "lower"), "core.gram_calls": ("count", "lower"),
    "core.gram_s": ("s", "lower"), "core.gram_cells": ("count", "lower"),
    "core.gram_distinct_ratio": ("ratio", "higher"),
    "core.oa_check_calls": ("count", "lower"), "core.oa_check_s": ("s", "lower"),
    "core.oa_distinct_ratio": ("ratio", "higher"),
    "core.aliasing_s": ("s", "lower"), "core.aliased_pairs": ("count", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
})

# distinct-ratio metric -> the call count it divides by
_RATIO_CALLS = {
    "builder.distinct_builds_ratio": "builder.builds",
    "spectral.jsum_distinct_ratio": "spectral.jsum_calls",
    "core.gram_distinct_ratio": "core.gram_calls",
    "core.oa_distinct_ratio": "core.oa_check_calls",
}


class Tracer:
    """Spans and per-layer totals of one traced pass."""

    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[tuple] = []
        self.count: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self._keys: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def distinct(self, metric: str, key) -> None:
        """Record one input; inputs are distinct per operation, as separate commands are."""
        self._keys[metric].add((self.op_id, key))

    def _wrap(self, layer: str, name: str, fn, timed: str | None, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0, 0]  # span id, child ns, descendant overhead ns
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(layer, name, frame, parent, start, timed, None, None, t0)
                raise
            tracer._close(layer, name, frame, parent, start, timed, counter,
                          (args, kwargs, result), t0)
            return result

        return wrapper

    def _close(self, layer, name, frame, parent, start, timed, counter, call, t0) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.ns[f"{layer}.self_s"] += (end - start) - frame[1]
        if timed:
            self.ns[timed] += (end - start) - frame[2]
        if call is None:
            self.count[f"{layer}.errors"] += 1
        elif counter is not None:
            counter(self, *call)
        self.spans.append((frame[0], f"{layer}.{name}", start, end,
                           parent[0] if parent else -1, self.op_id))
        t1 = perf_counter_ns()
        if parent is not None:
            parent[1] += t1 - t0
            parent[2] += (start - t0) + (t1 - end) + frame[2]

    def install(self) -> dict[str, int]:
        """Wrap every traced function; returns how many bindings each got."""
        modules = {layer: importlib.import_module(f"ssdopt.{layer}") for layer in TRACED}
        packages = [m for n, m in sys.modules.items() if n == "ssdopt" or n.startswith("ssdopt.")]
        bound = {}
        for layer, functions in TRACED.items():
            module = modules[layer]
            for name, (timed, counter) in functions.items():
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, attr, None)
                if fn is None or getattr(fn, "__module__", None) != module.__name__:
                    self.uninstall()
                    raise LookupError(f"ssdopt.{layer}.{name} is not defined there; "
                                      "the trace table in tracing.py needs updating")
                wrapper = self._wrap(layer, name, fn, timed, counter)
                for target in [owner] if owner_name else packages:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._saved.append((target, key, fn))
                            setattr(target, key, wrapper)
                bound[f"{layer}.{name}"] = sum(1 for t, _, f in self._saved if f is fn)
        return bound

    def uninstall(self) -> None:
        while self._saved:
            target, key, fn = self._saved.pop()
            setattr(target, key, fn)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_frac, for this pass."""
        out = {}
        for name, (unit, _) in METRICS.items():
            if name in _RATIO_CALLS:
                calls = self.count[_RATIO_CALLS[name]]
                out[name] = len(self._keys[name]) / calls if calls else 1.0
            elif unit == "s":
                out[name] = self.ns[name] / 1e9
            elif name != "trace_overhead_frac":
                out[name] = self.count[name]
        return out

    def write_spans(self, path, pass_no: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, (pass_no, *span))) + "\n")
