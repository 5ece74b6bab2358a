"""Span tracer for traced benchmark runs.

The tracer wraps every public function of each loja-lab module, plus the
methods of ``Polynomial`` and ``Substitution`` and the evaluators that
``numeric()``/``gradient_numeric()`` return, and replaces each function at
every place it is bound: a ``from .sampling import ball_points`` in ``snc``
binds its own name, so patching only ``sampling`` would miss those calls.
Nothing under ``src/`` is edited; ``install``/``uninstall`` swap the
module attributes in and out between jobs.

A span is ``[name, kind, start, end, parent, extra]``.  ``kind`` is the
layer, with ``poly`` split into ``poly.eval``, ``poly.compile`` and
``poly.exact``.  Calls made from inside the ``poly``, ``univar`` or
``reports`` layers back into the same layer are folded into the outer span
(they are the bulk of the call volume and carry no layer boundary).  A
span's self time is its duration minus the durations of its child spans.

Spans stay in memory for one job, are folded into per-layer totals when the
job ends, and the span list of the slowest job is kept for the trace file.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "sampling", "poly", "snc", "blowup", "univar", "morse", "flow", "estimate",
    "reports", "cli",
)
# Layers whose nested same-layer calls are folded into the outer span.
FOLDED = frozenset({"poly", "univar", "reports"})
POLY_EVAL_METHODS = frozenset({"evaluate"})
POLY_COMPILE_METHODS = frozenset({"numeric", "gradient_numeric"})
POLY_CLASSES = ("Polynomial", "Substitution")

def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _flow_counts(trajectory) -> tuple[int, int]:
    sol = trajectory.dense
    return (int(sol.nfev), len(sol.t) - 1) if sol is not None else (0, 0)


# Per-function counts read from a call's result and stored in the span.
EXTRA = {
    "sampling.halton": len,
    "sampling.sphere_directions": len,
    "sampling.geometric_radii": len,
    "sampling.subspace_grid": len,
    # Interior rows: the origin and the 2*dim axis anchors are not drawn.
    "sampling.ball_points": lambda points: points.shape[0] - 1 - 2 * points.shape[1],
    "blowup.resolve": lambda result: len(result.tree.nodes),
    "blowup.translated_chart_analysis": lambda result: len(result[0]),
    "flow.integrate_flow": _flow_counts,
    "estimate.estimate_theta": lambda result: (sum(result.kept_counts), len(result.radii)),
}


class Tracer:
    """Installs span-recording wrappers into the imported loja-lab modules."""

    def __init__(self, package) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.jobs = 0
        self.slowest: tuple[float, list] = (-1.0, [])
        self._plan(package)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str, post=None):
        spans, stack, layers = self.spans, self._stack, self._layers
        layer = kind.split(".")[0]
        fold = layer in FOLDED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            record = [name, kind, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            layers.append(layer)
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                layers.pop()
            if post is not None:
                result = post(record, args, result)
            return result

        return traced

    def _wrap_evaluator(self, record, args, evaluator):
        return self._wrap(evaluator, "poly.eval", "poly.eval", _rows_post)

    def _plan(self, package) -> None:
        """Build wrappers and find every binding site of each original."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        wrappers: dict[int, object] = {}
        found: set[str] = set()
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                kind = "poly.exact" if layer == "poly" else layer
                wrappers[id(fn)] = self._wrap(fn, name, kind, self._post_for(name))
                found.add(name)
        poly = modules["poly"]
        for cls_name in POLY_CLASSES:
            cls = getattr(poly, cls_name)
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                fn = member.__func__ if isinstance(member, classmethod) else member
                if not inspect.isfunction(fn):
                    continue
                name = f"poly.{cls_name}.{attr}"
                if attr in POLY_COMPILE_METHODS:
                    wrapped = self._wrap(fn, name, "poly.compile", self._wrap_evaluator)
                elif attr in POLY_EVAL_METHODS:
                    wrapped = self._wrap(fn, name, "poly.eval", _one_row)
                else:
                    wrapped = self._wrap(fn, name, "poly.exact")
                if isinstance(member, classmethod):
                    wrapped = classmethod(wrapped)
                self._patches.append((cls, attr, member, wrapped))
                found.add(name)
        self.names = frozenset(found)
        targets = [package, *modules.values()]
        for module in targets:
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value, wrapped))

    @staticmethod
    def _post_for(name: str):
        extra = EXTRA.get(name)
        if extra is None:
            return None

        def post(record, args, result):
            record[5] = extra(result)
            return result

        return post

    def install(self) -> None:
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------

    def begin_job(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._layers.clear()
        self._stack.append(0)
        self._layers.append("job")
        self.spans.append(["job", "job", time.perf_counter(), 0.0, -1, None])

    def end_job(self) -> float:
        """Close the job span, fold its spans, return the job's duration."""
        end = time.perf_counter()
        self.spans[0][3] = end
        self._stack.clear()
        self._layers.clear()
        duration = end - self.spans[0][2]
        fold_spans(self.spans, self.totals)
        self.jobs += 1
        if duration > self.slowest[0]:
            self.slowest = (duration, [tuple(s) for s in self.spans])
        self.spans.clear()
        return duration


def _one_row(record, args, result):
    record[5] = 1
    return result


def _rows_post(record, args, result):
    record[5] = _rows(args[0])
    return result


_DUNDERS = frozenset({
    "__init__", "__eq__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__pow__", "__str__",
})


def fold_spans(spans: list, totals: dict) -> None:
    """Add one job's spans to the running per-layer totals.

    Keys: ``self:<kind>`` (self seconds), ``count:<kind>`` and ``n:<name>``
    (span counts), ``dur:<name>`` (inclusive seconds), ``outer:<kind>``
    (inclusive seconds of spans not nested in the same kind),
    ``rows:poly.eval`` and a few counters named after the metrics they feed.
    """
    child_time = [0.0] * len(spans)
    child_names: list[dict[str, int]] = [{} for _ in spans]
    for s in spans:
        parent = s[4]
        if parent >= 0:
            child_time[parent] += s[3] - s[2]
            names = child_names[parent]
            names[s[0]] = names.get(s[0], 0) + 1
    for i, (name, kind, start, end, parent, extra) in enumerate(spans):
        duration = end - start
        parent_name, parent_kind = spans[parent][:2] if parent >= 0 else ("", "")
        totals[f"self:{kind}"] += duration - child_time[i]
        totals[f"count:{kind}"] += 1
        totals[f"n:{name}"] += 1
        totals[f"dur:{name}"] += duration
        if parent_kind != kind:
            totals[f"outer:{kind}"] += duration
        if name == "snc.compute_constants":
            draws = child_names[i].get("sampling.ball_points", 1)
            totals["snc.sigma_halvings"] += draws - 1
        elif name == "morse.verify_gmb_gradient_inequality":
            loops = child_names[i].get("sampling.subspace_grid", 1)
            totals["morse.cylinder_halvings"] += loops - 1
        if extra is None:  # no count to read, or the call raised
            continue
        if kind == "sampling":
            if parent_kind != "sampling":
                totals["sampling.outer_calls"] += 1
                totals["sampling.outer_rows"] += extra
            if name == "sampling.ball_points":
                totals["sampling.ball_interior"] += extra
            elif name == "sampling.halton" and parent_name == "sampling.ball_points":
                totals["sampling.ball_halton_rows"] += extra
        elif kind == "poly.eval":
            totals["rows:poly.eval"] += extra
        elif name == "blowup.resolve":
            totals["blowup.nodes"] += extra
        elif name == "blowup.translated_chart_analysis":
            totals["blowup.translated_points"] += extra
        elif name == "flow.integrate_flow":
            totals["flow.rhs_calls"] += extra[0]
            totals["flow.steps"] += extra[1]
        elif name == "estimate.estimate_theta":
            kept, radii = extra
            directions = [
                s for s in spans if s[4] == i and s[0] == "sampling.sphere_directions"
            ]
            totals["estimate.kept"] += kept
            totals["estimate.tried"] += radii * sum(s[5] for s in directions)
