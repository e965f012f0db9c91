"""Traced and profiled passes for the per-layer breakdown.

The traced pass wraps public functions of synthkit from outside: each
wrapper records a span (name, start, end, parent, op id) in memory and
bumps exact counters. synthkit imports names into its modules
(``from .groebner import groebner_basis``), so a wrapper is bound under
every module name that holds the original, and IdealHandle methods are
patched on the class. Nothing in synthkit itself changes.

Layers too fine to wrap one call at a time (scalars, polynomials, ...)
come from a separate cProfile pass instead.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import os
import pstats
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb
from time import perf_counter


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self.built: dict = {}  # id -> IdealHandle whose basis was read this op

    def begin_op(self, op: int) -> None:
        self.op = op
        self.built.clear()

    def write(self, path: str, t0: float) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op])
                    + "\n"
                )

    def self_times(self):
        """Per span name: (calls, self seconds); self excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, seconds = Counter(), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            seconds[name] += end - start - child[i]
        return calls, seconds


# --- counter hooks: (recorder, args, kwargs, result, parent span name) ------


def _count_basis(rec, args, kwargs, result, parent):
    rec.counts["groebner.basis_size"] += len(result)


def _count_built(rec, args, kwargs, result, parent):
    handle = args[0]
    if id(handle) not in rec.built:
        rec.built[id(handle)] = handle
        rec.counts["groebner.ideals_built"] += 1


def _count_solve_at_root(rec, args, kwargs, result, parent):
    c = args[1] if len(args) > 1 else kwargs["c"]
    degbound = args[2] if len(args) > 2 else kwargs.get("degbound")
    if degbound is not None:
        rec.counts["synthesis.moment_columns"] += comb(degbound + c.dim, c.dim)
        rec.counts["synthesis.basis_elements"] += len(result.polys)


def _count_window(rec, args, kwargs, result, parent):
    rec.counts["synthesis.window_points"] += len(result.points)


def _count_roots(rec, args, kwargs, result, parent):
    coeffs = args[0] if args else kwargs["coeffs"]
    degree = max((i for i, c in enumerate(coeffs) if c), default=0)
    exact, approx = result
    rec.counts["univariate.degree_sum"] += degree
    rec.counts["univariate.exact_roots"] += len(exact)
    rec.counts["univariate.approx_roots"] += len(approx)
    rec.counts["univariate.certified_roots"] += sum(1 for a in approx if a.certified)


def _count_linalg(rec, args, kwargs, result, parent):
    if parent is not None and parent.startswith("linalg."):
        return  # rref inside nullspace or rank: counted by the outer call
    matrix = args[0] if args else kwargs["matrix"]
    width = args[1] if len(args) > 1 else kwargs["width"]
    rec.counts["linalg.calls"] += 1
    rec.counts["linalg.cells"] += len(matrix) * width


def _count_nullspace(rec, args, kwargs, result, parent):
    _count_linalg(rec, args, kwargs, result, parent)
    rec.counts["linalg.kernel_dim"] += len(result)


def _count_trials(rec, args, kwargs, result, parent):
    rec.counts["suites.trials"] += result.trials


@dataclass(frozen=True)
class Target:
    """A public function to wrap, and the workloads whose ops must reach it."""

    span: str
    module: str
    attr: str  # "name" or "Class.method"
    reach: tuple
    hook: object = None


ALL = ("solve-fat", "query-mix", "verify")
CLI = ("solve-fat", "query-mix")

TARGETS = (
    Target("cli.main", "synthkit.cli", "main", CLI),
    Target("dsl.parse", "synthkit.dsl", "parse", CLI),
    Target("synthesis.solve_system", "synthkit.synthesis", "solve_system", ALL),
    Target("synthesis.solve_at_root", "synthkit.synthesis", "solve_at_root", ALL, _count_solve_at_root),
    Target("synthesis.window_oracle", "synthkit.synthesis", "window_oracle", ("verify",), _count_window),
    Target("synthesis.biadditive_demo", "synthkit.synthesis", "biadditive_demo", ("query-mix", "verify")),
    Target("ideals.handle", "synthkit.ideals", "IdealHandle.__init__", ALL),
    Target("ideals.groebner", "synthkit.ideals", "IdealHandle.groebner", ALL, _count_built),
    Target("ideals.quotient_dimension", "synthkit.ideals", "IdealHandle.quotient_dimension", ALL),
    Target("ideals.zero_set", "synthkit.ideals", "IdealHandle.zero_set", ALL),
    Target("ideals.contains", "synthkit.ideals", "IdealHandle.contains", ("query-mix", "verify")),
    Target("ideals.root_order", "synthkit.ideals", "IdealHandle.root_order", ("query-mix",)),
    Target("ideals.local_dual_space", "synthkit.ideals", "IdealHandle.local_dual_space", ("query-mix", "verify")),
    Target("derivations.apply", "synthkit.derivations", "Derivation.apply", ("query-mix", "verify")),
    Target("groebner.basis", "synthkit.groebner", "groebner_basis", ALL, _count_basis),
    Target("groebner.eliminate", "synthkit.groebner", "eliminate", ALL),
    Target("groebner.normal_form", "synthkit.groebner", "normal_form", ("query-mix", "verify")),
    Target("univariate.find_roots", "synthkit.univariate", "find_roots", ALL, _count_roots),
    Target("linalg.nullspace", "synthkit.linalg", "nullspace", ALL, _count_nullspace),
    Target("linalg.rank", "synthkit.linalg", "rank", (), _count_linalg),
    Target("linalg.rref", "synthkit.linalg", "rref", ALL, _count_linalg),
    Target("suites.run_suite", "synthkit.suites", "run_suite", ("verify",), _count_trials),
)


def _wrap(rec: Recorder, target: Target, fn):
    name, hook = target.span, target.hook
    spans, stack, counts = rec.spans, rec.stack, rec.counts
    key = f"{target.module}.{target.attr}"

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        span = [name, 0.0, 0.0, parent, rec.op]
        stack.append(len(spans))
        spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        counts[key] += 1
        if hook is not None:
            hook(rec, args, kwargs, result, spans[parent][0] if parent >= 0 else None)
        return result

    return wrapper


class Installed:
    """The wrappers of one traced pass; uninstall() puts the originals back."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.undo: list = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "synthkit"]
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, _wrap(rec, target, getattr(cls, meth)))
                continue
            original = getattr(owner, target.attr)
            wrapper = _wrap(rec, target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, obj, attr, value):
        self.undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self.undo):
            setattr(obj, attr, original)
        self.undo.clear()


def missing_bindings(rec: Recorder, workload: str) -> list:
    """Wrapped functions that this workload must reach but never called."""
    return [
        f"{t.module}.{t.attr}"
        for t in TARGETS
        if workload in t.reach and not rec.counts[f"{t.module}.{t.attr}"]
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(rec: Recorder) -> dict:
    """Per-layer metrics from the spans and counters of a traced pass."""
    calls, secs = rec.self_times()
    n = rec.counts
    return {
        "cli.self_s": secs["cli.main"],
        "cli.out_bytes": n["cli.out_bytes"],
        "dsl.parse_s": secs["dsl.parse"],
        "dsl.parse_calls": calls["dsl.parse"],
        "synthesis.solve_system_s": secs["synthesis.solve_system"],
        "synthesis.solve_at_root_s": secs["synthesis.solve_at_root"],
        "synthesis.solve_at_root_calls": calls["synthesis.solve_at_root"],
        "synthesis.moment_columns": n["synthesis.moment_columns"],
        "synthesis.basis_per_column": _ratio(
            n["synthesis.basis_elements"], n["synthesis.moment_columns"]
        ),
        "synthesis.window_s": secs["synthesis.window_oracle"],
        "synthesis.window_points": n["synthesis.window_points"],
        "synthesis.demo_rank_s": secs["synthesis.biadditive_demo"],
        "ideals.handles": calls["ideals.handle"],
        "ideals.quotient_dimension_s": secs["ideals.quotient_dimension"],
        "ideals.zero_set_s": secs["ideals.zero_set"],
        "ideals.contains_s": secs["ideals.contains"],
        "ideals.contains_calls": calls["ideals.contains"],
        "ideals.local_dual_space_s": secs["ideals.local_dual_space"],
        "ideals.local_dual_space_calls": calls["ideals.local_dual_space"],
        "ideals.root_order_s": secs["ideals.root_order"],
        "groebner.basis_s": secs["groebner.basis"],
        "groebner.basis_calls": calls["groebner.basis"],
        "groebner.eliminate_calls": calls["groebner.eliminate"],
        "groebner.basis_size": n["groebner.basis_size"],
        "groebner.builds_per_ideal": _ratio(calls["groebner.basis"], n["groebner.ideals_built"]),
        "groebner.normal_form_s": secs["groebner.normal_form"],
        "groebner.normal_form_calls": calls["groebner.normal_form"],
        "univariate.find_roots_s": secs["univariate.find_roots"],
        "univariate.find_roots_calls": calls["univariate.find_roots"],
        "univariate.degree_sum": n["univariate.degree_sum"],
        "univariate.exact_roots": n["univariate.exact_roots"],
        "univariate.approx_roots": n["univariate.approx_roots"],
        "univariate.certified_ratio": _ratio(
            n["univariate.certified_roots"], n["univariate.approx_roots"]
        ),
        "linalg.nullspace_s": secs["linalg.nullspace"] + secs["linalg.rank"] + secs["linalg.rref"],
        "linalg.calls": n["linalg.calls"],
        "linalg.cells": n["linalg.cells"],
        "linalg.kernel_dim": n["linalg.kernel_dim"],
        "derivations.apply_s": secs["derivations.apply"],
        "suites.self_s": secs["suites.run_suite"],
        "suites.trials": n["suites.trials"],
    }


# --- cProfile pass -----------------------------------------------------------

PROFILED_LAYERS = ("scalars", "polynomials", "fourier", "measures", "exppoly", "derivations")


def _layer(filename: str):
    base = os.path.basename(filename)
    if base == "fractions.py":
        return "scalars"
    parent = os.path.basename(os.path.dirname(filename))
    if parent == "synthkit" and base[:-3] in PROFILED_LAYERS:
        return base[:-3]
    return None


def profile_metrics(profiler: cProfile.Profile) -> dict:
    """Calls and self time per fine-grained layer.

    scalars covers GaussianRational and fractions.Fraction. The time of a
    built-in (math.gcd, int.__new__, ...) goes to the layer of its caller.
    """
    calls, secs = Counter(), defaultdict(float)
    for (filename, _, _), (_, nc, tt, _, callers) in pstats.Stats(profiler).stats.items():
        layer = _layer(filename)
        if layer is not None:
            calls[layer] += nc
            secs[layer] += tt
        elif filename == "~":
            for (caller_file, _, _), edge in callers.items():
                caller_layer = _layer(caller_file)
                if caller_layer is not None:
                    secs[caller_layer] += edge[2]
    out = {}
    for layer in PROFILED_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = secs[layer]
    return out


EXACT_COUNTERS = (
    "dsl.parse_calls",
    "synthesis.solve_at_root_calls",
    "synthesis.moment_columns",
    "synthesis.window_points",
    "ideals.handles",
    "ideals.contains_calls",
    "ideals.local_dual_space_calls",
    "groebner.basis_calls",
    "groebner.eliminate_calls",
    "groebner.basis_size",
    "groebner.normal_form_calls",
    "univariate.find_roots_calls",
    "univariate.degree_sum",
    "univariate.exact_roots",
    "univariate.approx_roots",
    "linalg.calls",
    "linalg.cells",
    "linalg.kernel_dim",
    "suites.trials",
    "cli.out_bytes",
) + tuple(f"{layer}.calls" for layer in PROFILED_LAYERS)
