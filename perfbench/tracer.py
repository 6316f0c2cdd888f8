"""Span tracer that wraps calls into the package's layers from outside.

Each boundary names a layer and one or more callables.  ``install`` replaces
every binding of such a callable (``from .core import eig_dense`` leaves a
separate name in each importing module, and ``epspect`` re-exports most of
them) with a wrapper that records a span; ``uninstall`` puts the originals
back.  A boundary that no longer exists is reported as absent instead of
failing, so the benchmark outlives refactors that delete private helpers.

Spans live in memory as ``[id, parent, layer, start, end, attrs]`` lists and
are written out as JSONL once the traced job has finished.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    """Callables whose calls are spans of ``layer``.

    ``targets`` are ``"module:attr"`` or ``"module:*Suffix.attr"``, the
    latter matching every class of the module whose name ends in ``Suffix``.
    ``select(args, kwargs)`` may return False to let a call through
    untraced; ``attrs(args, kwargs, result)`` adds counts to the span.
    """

    layer: str
    targets: tuple[str, ...]
    select: Callable | None = None
    attrs: Callable | None = None


@dataclass(frozen=True)
class Counter:
    """Calls of ``targets`` counted as ``key`` on the innermost open span of ``layer``."""

    layer: str
    key: str
    targets: tuple[str, ...]


def _precision_is_double(args, kwargs):
    precision = kwargs.get("precision", args[1] if len(args) > 1 else None)
    return precision is None or getattr(precision, "value", precision) == "double"


def _sweep_attrs(args, kwargs, result):
    return {
        "points": len(getattr(result, "grid", ())),
        "pairing_warnings": int(sum(bool(w) for w in getattr(result, "warnings", ()))),
    }


def _polish_attrs(args, kwargs, result):
    accepted = result is not None and getattr(result, "kind", "indeterminate") != "indeterminate"
    return {"accepted": int(accepted)}


def _build_attrs(args, kwargs, result):
    return {"auto": int(kwargs.get("precision", "auto") == "auto")}


def _write_attrs(args, kwargs, result):
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    return {"files": 1, "bytes": len(text.encode("utf-8"))}


E = "epspect"
BOUNDARIES = (
    Boundary("core.eig.double", (f"{E}.core.eig:eig_dense",), select=_precision_is_double),
    Boundary("core.eig.extended", ("mpmath:eig",)),
    Boundary("core.scalars.cluster", (f"{E}.core.scalars:cluster_points",)),
    Boundary("core.poly.roots", (f"{E}.core.poly:poly_roots",)),
    Counter("core.poly.roots", "fallbacks", ("numpy:roots",)),
    Boundary(
        "core.poly.bareiss",
        (f"{E}.core.poly:_det_bareiss_fraction", f"{E}.core.poly:_det_bareiss_poly"),
    ),
    Boundary(
        "core.poly.resultant",
        (
            f"{E}.core.poly:resultant",
            f"{E}.core.poly:discriminant",
            f"{E}.core.poly:discriminant_in_E",
        ),
    ),
    Boundary(
        "core.tridiag.charpoly",
        (f"{E}.core.tridiag:charpoly_from_parts", f"{E}.core.tridiag:charpoly_tridiag"),
    ),
    Boundary(
        "models.matrix",
        (
            f"{E}.models:*Model.matrix",
            f"{E}.models:*Model.matrix_mp",
            f"{E}.models:epn_matrix",
            f"{E}.models:bc_matrix",
            f"{E}.models:hermitian_demo",
        ),
    ),
    Boundary(
        "sturmian.secular",
        (f"{E}.sturmian:bivariate_secular", f"{E}.sturmian:bc_secular_parts"),
    ),
    Boundary("sturmian.r2", (f"{E}.sturmian:sturmian_r2",)),
    Boundary("sturmian.trace", (f"{E}.sturmian:branch_trace",)),
    Boundary("epfinder.sweep", (f"{E}.epfinder:sweep",), attrs=_sweep_attrs),
    Boundary("epfinder.signature", (f"{E}.epfinder:bc_reality_signature",)),
    Boundary(
        "epfinder.event_poly",
        (
            f"{E}.epfinder:_disc_in_y_at_p",
            f"{E}.epfinder:_pole_collision_poly",
            f"{E}.epfinder:_fold_event_poly",
        ),
    ),
    Boundary("epfinder.classify", (f"{E}.epfinder:classify_degeneracy",)),
    Boundary("epfinder.polish", (f"{E}.epfinder:_polish_candidate",), attrs=_polish_attrs),
    Boundary("epfinder.perturb", (f"{E}.epfinder:perturbation_exponent",)),
    Boundary("metric.build", (f"{E}.metric:build_metric",), attrs=_build_attrs),
    Counter("metric.build", "extended", (f"{E}.metric:_build_theta_extended",)),
    Boundary("cli.io", (f"{E}.cli:write_csv", f"{E}.cli:write_json")),
    Boundary("cli.io", (f"{E}.cli:_atomic_write",), attrs=_write_attrs),
)


def _resolve(target):
    """(owner, attr, original) triples for one target; empty when absent."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." not in path:
        value = getattr(module, path, None)
        return [(module, path, value)] if callable(value) else []
    cls_pattern, attr = path.split(".", 1)
    if cls_pattern.startswith("*"):
        owners = [
            c
            for name, c in sorted(vars(module).items())
            if isinstance(c, type) and name.endswith(cls_pattern[1:]) and c.__module__ == module.__name__
        ]
    else:
        owners = [c for c in [getattr(module, cls_pattern, None)] if isinstance(c, type)]
    return [(c, attr, c.__dict__[attr]) for c in owners if callable(c.__dict__.get(attr))]


@dataclass
class Tracer:
    """Install, record, uninstall; one instance per traced job."""

    boundaries: tuple = BOUNDARIES
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, boundary, original):
        stack_of = self._stack
        spans = self.spans

        if isinstance(boundary, Counter):

            def wrapper(*args, **kwargs):
                for span in reversed(stack_of()):
                    if span[2] == boundary.layer:
                        span[5][boundary.key] = span[5].get(boundary.key, 0) + 1
                        break
                return original(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                if boundary.select is not None and not boundary.select(args, kwargs):
                    return original(*args, **kwargs)
                stack = stack_of()
                span = [len(spans), stack[-1][0] if stack else -1, boundary.layer, 0.0, 0.0, {}]
                spans.append(span)
                stack.append(span)
                span[3] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[4] = time.perf_counter()
                    stack.pop()
                if boundary.attrs is not None:
                    span[5].update(boundary.attrs(args, kwargs, result))
                return result

        functools.update_wrapper(wrapper, original)
        return wrapper

    def install(self) -> None:
        """Wrap every boundary wherever a loaded ``epspect`` module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == E or name.startswith(E + "."))
        ]
        for boundary in self.boundaries:
            for target in boundary.targets:
                resolved = _resolve(target)
                if not resolved:
                    self.absent.append(target)
                for owner, attr, original in resolved:
                    wrapper = self._wrap(boundary, original)
                    self._patch(owner, attr, wrapper)
                    if isinstance(owner, type):
                        continue
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, name, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            setattr(owner, attr, previous)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, start, end, attrs in self.spans:
                record = {"id": sid, "parent": parent, "layer": layer, "start": start, "end": end}
                fh.write(json.dumps({**record, **attrs}, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

SPAN_LAYERS = (
    "core.eig.double",
    "core.eig.extended",
    "core.scalars.cluster",
    "core.poly.roots",
    "core.poly.bareiss",
    "core.poly.resultant",
    "core.tridiag.charpoly",
    "models.matrix",
    "sturmian.secular",
    "sturmian.r2",
    "epfinder.sweep",
    "epfinder.signature",
    "epfinder.event_poly",
    "epfinder.classify",
    "epfinder.perturb",
    "metric.build",
)

# name -> unit, in the order they are reported
LAYER_METRICS = {
    **{f"{layer}.{kind}": unit for layer in SPAN_LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{
        "core.poly.roots.fallbacks": "count",
        "sturmian.trace.self_s": "s",
        "epfinder.sweep.points": "count",
        "epfinder.sweep.pairing_warnings": "count",
        "epfinder.polish.candidates": "count",
        "epfinder.polish.accepted": "count",
        "epfinder.polish.accept_ratio": "ratio",
        "epfinder.polish.self_s": "s",
        "metric.build.escalations": "count",
        "cli.io.files": "count",
        "cli.io.bytes": "bytes",
        "cli.io.self_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    },
}


def inclusive_times(spans) -> dict:
    """Seconds inside each layer, children included; nested calls of one layer count once."""
    ancestors, total = {}, {}
    for sid, parent, layer, start, end, attrs in spans:
        outer = ancestors[parent] | {spans[parent][2]} if parent >= 0 else frozenset()
        ancestors[sid] = outer
        if layer not in outer:
            total[layer] = total.get(layer, 0.0) + (end - start)
    return total


def layer_metrics(spans, job_wall_s: float) -> dict:
    """Per-layer counts and self times from one traced job.

    ``trace.overhead_s`` needs an untraced run and is filled in by the caller.
    """
    child_time = {}
    for sid, parent, layer, start, end, attrs in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls, self_s, sums = {}, {}, {}
    top_level = 0.0
    for sid, parent, layer, start, end, attrs in spans:
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time.get(sid, 0.0)
        if parent < 0:
            top_level += end - start
        for key, value in attrs.items():
            sums[(layer, key)] = sums.get((layer, key), 0) + int(value)

    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    candidates = calls.get("epfinder.polish", 0)
    accepted = sums.get(("epfinder.polish", "accepted"), 0)
    escalations = sum(
        1
        for s in spans
        if s[2] == "metric.build" and s[5].get("auto") and s[5].get("extended", 0) > 0
    )
    out.update(
        {
            "core.poly.roots.fallbacks": sums.get(("core.poly.roots", "fallbacks"), 0),
            "sturmian.trace.self_s": self_s.get("sturmian.trace", 0.0),
            "epfinder.sweep.points": sums.get(("epfinder.sweep", "points"), 0),
            "epfinder.sweep.pairing_warnings": sums.get(("epfinder.sweep", "pairing_warnings"), 0),
            "epfinder.polish.candidates": candidates,
            "epfinder.polish.accepted": accepted,
            "epfinder.polish.accept_ratio": accepted / candidates if candidates else 0.0,
            "epfinder.polish.self_s": self_s.get("epfinder.polish", 0.0),
            "metric.build.escalations": escalations,
            "cli.io.files": sums.get(("cli.io", "files"), 0),
            "cli.io.bytes": sums.get(("cli.io", "bytes"), 0),
            "cli.io.self_s": self_s.get("cli.io", 0.0),
            "trace.overhead_s": 0.0,
            "trace.unattributed_s": job_wall_s - top_level,
        }
    )
    return out
