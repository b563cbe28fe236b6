"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a timing wrapper at every
place the package binds it: the defining module and every module that
imported the name (``polytope.count_box``, ``polytope.rat_rref``,
``faces.solve_integer``, the package namespace, ...).  Nothing under ``src/``
is edited.

Each call records a span (instance, id, name, parent id, start, end).  Self
time is the span's duration minus the time covered by its child spans.
Functions called thousands of times per instance are kept as an aggregate
time and call count per parent name instead of one span per call.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

INT64_SAFE = 2**62  # the counting dispatcher's int64 bound


def _box_points(lo, hi) -> int:
    return math.prod(max(0, h - l + 1) for l, h in zip(lo, hi))


def _fits_int64(lo, hi, ineqs, eqs) -> bool:
    corner = [max(abs(l), abs(h)) for l, h in zip(lo, hi)]
    for rows in (ineqs, eqs):
        for row, rhs in rows:
            if abs(rhs) >= INT64_SAFE or sum(abs(a) * c for a, c in zip(row, corner)) >= INT64_SAFE:
                return False
    return True


def _count_box_counters(default_backend: str) -> Callable:
    """Counters computed from count_box's arguments and return value."""

    def count(counters, args, kwargs, result):
        lo, hi, ineqs, eqs = args[:4]
        backend = (args[4] if len(args) > 4 else kwargs.get("backend")) or default_backend
        counters["kernels.count_box.box_points"] += _box_points(lo, hi)
        counters["kernels.count_box.lattice_points"] += result
        if backend != "python" and not _fits_int64(lo, hi, ineqs, eqs):
            counters["kernels.count_box.int64_fallbacks"] += 1

    return count


def _hrep_subsets(counters, args, kwargs, result):
    points = {tuple(p) for p in args[0]}
    k = len(args[0][0]) - len(result[1])
    counters["polytope.hrep_from_vrep.subsets"] += math.comb(len(points), k) if k else 0


def _fit_samples(counters, args, kwargs, result):
    counters["quasipoly.fit_from_samples.samples"] += len(args[0])


def _series_terms(counters, args, kwargs, result):
    counters["hilbert.series_coefficients.terms"] += args[1] + 1


def _faces_found(counters, args, kwargs, result):
    counters["faces.enumerate_faces.faces"] += len(result)


# Counters that the benchmark computes from arguments and return values; the
# program does not report them.
COMPUTED = (
    "kernels.count_box.box_points", "kernels.count_box.lattice_points",
    "kernels.count_box.hit_ratio", "kernels.count_box.int64_fallbacks",
    "polytope.hrep_from_vrep.subsets", "quasipoly.fit_from_samples.samples",
    "hilbert.series_coefficients.terms", "faces.enumerate_faces.faces",
)

# (module, function, aggregate per parent, counter).  Layer names drop the
# leading underscore of ``_kernels``.
TARGETS = (
    ("polytope", "from_point_cloud", False, None),
    ("polytope", "from_inequalities", False, None),
    ("polytope", "load_polytope", False, None),
    ("polytope", "hrep_from_vrep", False, _hrep_subsets),
    ("polytope", "vrep_from_hrep", False, None),
    ("polytope", "affine_hull", False, None),
    ("polytope", "ehrhart_quasipolynomial", False, None),
    ("polytope", "count_lattice_points", False, None),
    ("_kernels", "count_box", False, "count_box"),
    ("quasipoly", "fit_from_samples", False, _fit_samples),
    ("quasipoly", "evaluate", True, None),
    ("quasipoly", "minimal_period", False, None),
    ("quasipoly", "format_quasipolynomial", False, None),
    ("hilbert", "series_coefficients", False, _series_terms),
    ("hilbert", "hilbert_quasipolynomial", False, None),
    ("hilbert", "verify_grade_bound_weighted", False, None),
    ("faces", "enumerate_faces", False, _faces_found),
    ("faces", "affine_span_contains_lattice_point", False, None),
    ("faces", "min_delta_hypothesis", False, None),
    ("faces", "verify_ehrhart_grade_bound", False, None),
    ("faces", "format_report", False, None),
    ("exactmath", "rat_rref", True, None),
    ("exactmath", "solve_integer", False, None),
    ("cli", "main", False, None),
)

# Import sites that must be rebound for the layer split to be right.
REQUIRED_SITES = ("polytope.count_box", "polytope.rat_rref", "faces.solve_integer")

LAYERS = ("polytope", "kernels", "quasipoly", "hilbert", "faces", "exactmath", "cli")
ROOT = "instance"


class Tracer:
    """Span recorder for one traced phase of a workload process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.by_parent: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        self.counters: Counter = Counter()
        self.instance = -1
        self.rebound: list[str] = []
        self._patches: list[tuple] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, aggregate: bool = False, count: Callable | None = None) -> Callable:
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                self.self_s[name] += duration - frame[3]
                self.total_s[name] += duration
                self.calls[name] += 1
                if aggregate:
                    entry = self.by_parent[(name, parent[1] if parent else "")]
                    entry[0] += duration - frame[3]
                    entry[1] += 1
                else:
                    self.spans.append((self.instance, frame[0], name, parent[0] if parent else 0, frame[2], end))
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, default_backend: str) -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for mod_name, func, aggregate, count in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], func)
            if count == "count_box":
                count = _count_box_counters(default_backend)
            wrapper = self.wrap(f"{mod_name.lstrip('_')}.{func}", original, aggregate, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
                        self.rebound.append(f"{mod.__name__.split('.', 1)[-1]}.{attr}")
        missing = [s for s in REQUIRED_SITES if s not in self.rebound]
        if missing:
            raise RuntimeError(f"import sites not rebound: {missing}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for inst, sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"instance": inst, "id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            for (name, parent), (self_s, calls) in sorted(self.by_parent.items()):
                fh.write(json.dumps({"aggregate": name, "parent": parent, "self_s": self_s, "calls": calls}) + "\n")

    def metrics(self, instances: int) -> dict[str, float]:
        """Per-instance means of self time, calls and counters, plus shares of instance time.

        ``<function>.share`` is the function's inclusive time (children
        included) and ``layer.<module>.share`` the module's self time, both
        over the total time of the traced instances.
        """
        out: dict[str, float] = {}
        total = self.total_s[ROOT]
        for name in self.calls:
            out[f"{name}.self_s"] = self.self_s[name] / instances
            out[f"{name}.calls"] = self.calls[name] / instances
            out[f"{name}.share"] = self.total_s[name] / total if total else 0.0
        for (name, parent), (self_s, calls) in self.by_parent.items():
            if parent and parent != ROOT:
                out[f"{name}.{parent}.self_s"] = self_s / instances
                out[f"{name}.{parent}.calls"] = calls / instances
        for key, value in self.counters.items():
            out[key] = value / instances
        box = self.counters["kernels.count_box.box_points"]
        out["kernels.count_box.hit_ratio"] = self.counters["kernels.count_box.lattice_points"] / box if box else 0.0
        for layer in LAYERS:
            layer_s = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"layer.{layer}.share"] = layer_s / total if total else 0.0
        out["layer.unattributed.share"] = self.self_s[ROOT] / total if total else 0.0
        return out
