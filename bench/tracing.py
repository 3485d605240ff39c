"""Spans around walkfluct's layer boundaries, recorded from outside the package.

The traced run swaps the public functions at each boundary for wrappers that
record a span (name, start, end, parent, operation id, attributes) and then
call the original.  Names are patched where the caller looks them up, because
`fluct` and `cli` bind their imports at import time.  Every original is put
back when the run ends, so untraced runs never carry a wrapper.

Spans stay in memory; `per_layer_metrics` reduces them to the per-layer table
in README.md and `write_spans` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

import walkfluct.cli
import walkfluct.contour
import walkfluct.fluct
import walkfluct.oracle
import walkfluct.roots
from walkfluct.model import RationalKernel

CONTOUR_ENGINE = ("busy_period_transform", "idle_period_transform", "steps_pgf",
                  "transient_max_transform")
RATIONAL_ENGINE = ("busy_period_rational", "steps_pgf_rational", "max_transform_rational")
ESTIMATORS = ("estimate_functional", "spitzer_series", "max_n_estimate")
CLI_ENGINES = CONTOUR_ENGINE + RATIONAL_ENGINE + ESTIMATORS + (
    "invert_to_distribution", "find_kernel_roots")

LST_MODELS = ("product_mm1", "threshold_exp", "markov_2state", "det_uniform")
SAMPLER_MODELS = ("product_mm1", "threshold_exp", "markov_2state")
ROUTES = ("companion", "quadtree")


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory span store with a per-thread parent stack.

    Spans opened on a thread with an empty stack (the CLI's pool workers)
    take the current operation's root span as parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), parent, self._op, name, time.perf_counter(),
                    attrs=attrs or {})
        self.spans.append(span)
        stack.append(span.id)
        return span

    def end(self, span: Span, error: str | None = None) -> None:
        span.t1 = time.perf_counter()
        if error is not None:
            span.attrs["error"] = error
        self._stack().pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span shared by every span of one operation."""
        self._op = op_id
        root = self.begin("op")
        self._root = root.id
        error = None
        try:
            yield root
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.end(root, error)
            self._op = self._root = None

    def wrap(self, name: str, fn, attrs=None, **fixed):
        """fn wrapped in a span; attrs(args, kwargs) adds call attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = dict(fixed)
            if attrs is not None:
                extra.update(attrs(args, kwargs))
            span = self.begin(name, extra)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self.end(span, error)
        return wrapper


# --- call attributes -----------------------------------------------------------

def _lst_attrs(args, kwargs):
    model, s1, s2 = args[:3]
    return {"n": int(np.broadcast(np.asarray(s1), np.asarray(s2)).size),
            "model": model.label}


def _char_attrs(args, kwargs):
    model, xi = args[:2]
    return {"n": int(np.size(xi)), "model": model.label}


def _find_attrs(args, kwargs):
    kernel = args[0]
    return {"route": "companion" if kernel.clear_fn is not None else "quadtree"}


def _shifted_attrs(args, kwargs):
    return {"n": int(np.size(args[1]))}


def traced_model(tracer: Tracer, model):
    """Copy of model whose sampler records a span per draw."""
    if model.sampler is None:
        return model

    def size_attrs(args, kwargs):
        return {"n": int(args[1]), "model": model.label}
    return dataclasses.replace(
        model, sampler=tracer.wrap("model.sampler", model.sampler, size_attrs))


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the boundary wrappers; restore every original on exit."""
    saved = []

    def swap(owner, attr, name, attrs=None, **fixed):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, attrs, **fixed))

    try:
        fl = walkfluct.fluct
        swap(fl, "pv_axis", "contour.pv_axis")
        swap(fl, "pv_axis_singular", "contour.pv_axis_singular")
        swap(walkfluct.contour, "pv_axis", "contour.pv_axis")
        swap(fl, "lst_eval", "model.lst_eval", _lst_attrs)
        swap(fl, "increment_char", "model.increment_char", _char_attrs)
        swap(fl, "find_kernel_roots", "roots.find_kernel_roots", _find_attrs)
        swap(walkfluct.roots, "count_left_zeros", "roots.count_left_zeros")
        swap(RationalKernel, "eval_shifted", "model.eval_shifted", _shifted_attrs)
        for name in CONTOUR_ENGINE:
            swap(fl, name, f"fluct.{name}", engine="contour")
        for name in RATIONAL_ENGINE:
            swap(fl, name, f"fluct.{name}", engine="rational")
        swap(fl, "invert_to_distribution", "fluct.invert_to_distribution")
        for name in ESTIMATORS:
            swap(walkfluct.oracle, name, f"oracle.{name}")
        swap(walkfluct.cli, "load_model", "cli.load_model")
        swap(walkfluct.cli, "emit_csv", "cli.emit_csv")
        for name in CLI_ENGINES:
            layer = "oracle" if name in ESTIMATORS else (
                "roots" if name == "find_kernel_roots" else "fluct")
            engine = "contour" if name in CONTOUR_ENGINE else (
                "rational" if name in RATIONAL_ENGINE else None)
            fixed = {"cli": True}
            if engine:
                fixed["engine"] = engine
            swap(walkfluct.cli, name, f"{layer}.{name}", **fixed)
        yield saved
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- reduction ----------------------------------------------------------------

def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of interval covered by the union of parts (clipped to it)."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.t0, sp.t1))
    return {sp.id: sp.duration - covered((sp.t0, sp.t1), children.get(sp.id, []))
            for sp in spans}


def per_layer_metrics(spans: list[Span], rounds: int, *, timeouts: int,
                      excluded_ops: set[int], pooled_ops: set[int],
                      workers: int) -> dict[str, tuple[float, str]]:
    """Per-round per-layer metrics from the spans of `rounds` traced rounds.

    Spans of operations in excluded_ops (those cut by the time limit) are
    dropped, so every count covers whole, deterministic calls.
    """
    spans = [sp for sp in spans if sp.op not in excluded_ops]
    by_id = {sp.id: sp for sp in spans}
    own = self_times(spans)
    per = 1.0 / rounds

    def parent(sp):
        return by_id.get(sp.parent) if sp.parent is not None else None

    def under(sp, layer):
        p = parent(sp)
        while p is not None:
            if p.layer == layer:
                return True
            p = parent(p)
        return False

    m: dict[str, tuple[float, str]] = {}
    contour = [sp for sp in spans if sp.layer == "contour"]
    top_contour = [sp for sp in contour if not (parent(sp) and parent(sp).layer == "contour")]
    lst = [sp for sp in spans if sp.name in ("model.lst_eval", "model.increment_char")]
    m["contour.pv_calls"] = (len(top_contour) * per, "count")
    m["contour.nodes"] = (sum(sp.attrs["n"] for sp in lst if under(sp, "contour")) * per,
                          "count")
    m["contour.self_s"] = (sum(own[sp.id] for sp in contour) * per, "s")
    m["contour.no_convergence"] = (
        sum(sp.attrs.get("error") == "NoConvergence" for sp in top_contour) * per, "count")

    m["model.lst_points"] = (sum(sp.attrs["n"] for sp in lst) * per, "count")
    m["model.lst_s"] = (sum(sp.duration for sp in lst) * per, "s")
    for label in LST_MODELS:
        mine = [sp for sp in lst if sp.attrs["model"] == label]
        pts = sum(sp.attrs["n"] for sp in mine)
        m[f"model.lst_ns_per_point.{label}"] = (
            1e9 * sum(sp.duration for sp in mine) / pts if pts else 0.0, "ns")
    kern = [sp for sp in spans if sp.name == "model.eval_shifted"]
    m["model.kernel_points"] = (sum(sp.attrs["n"] for sp in kern) * per, "count")
    m["model.kernel_s"] = (sum(sp.duration for sp in kern) * per, "s")
    samp = [sp for sp in spans if sp.name == "model.sampler"]
    m["model.sampler_pairs"] = (sum(sp.attrs["n"] for sp in samp) * per, "count")
    m["model.sampler_s"] = (sum(sp.duration for sp in samp) * per, "s")
    for label in SAMPLER_MODELS:
        mine = [sp for sp in samp if sp.attrs["model"] == label]
        secs = sum(sp.duration for sp in mine)
        m[f"model.sampler_mpairs_per_s.{label}"] = (
            sum(sp.attrs["n"] for sp in mine) / secs / 1e6 if secs else 0.0, "Mpairs/s")

    finds = [sp for sp in spans if sp.name == "roots.find_kernel_roots"]
    certs = [sp for sp in spans if sp.name == "roots.count_left_zeros"]
    m["roots.find_calls"] = (len(finds) * per, "count")
    m["roots.find_s"] = (sum(sp.duration for sp in finds) * per, "s")
    m["roots.certify_calls"] = (len(certs) * per, "count")
    m["roots.certify_s"] = (sum(sp.duration for sp in certs) * per, "s")
    for route in ROUTES:
        mine = [sp for sp in finds if sp.attrs["route"] == route]
        ids = {sp.id for sp in mine}
        pts = sum(sp.attrs["n"] for sp in kern if _ancestor_in(sp, ids, by_id))
        m[f"roots.locate_s.{route}"] = (sum(own[sp.id] for sp in mine) * per, "s")
        m[f"roots.kernel_points_per_find.{route}"] = (pts / len(mine) if mine else 0.0,
                                                     "count")
    m["roots.timeouts"] = (timeouts * per, "count")

    fluct = [sp for sp in spans if sp.layer == "fluct"]
    inverts = [sp for sp in fluct if sp.name == "fluct.invert_to_distribution"]
    inv_ids = {sp.id for sp in inverts}
    for engine in ("contour", "rational"):
        m[f"fluct.calls.{engine}"] = (
            sum(sp.attrs.get("engine") == engine for sp in fluct) * per, "count")
    m["fluct.self_s"] = (sum(own[sp.id] for sp in fluct if sp.id not in inv_ids) * per, "s")
    m["fluct.invert_transform_calls"] = (
        sum(sp.parent in inv_ids for sp in fluct if sp.attrs.get("engine")) * per, "count")
    m["fluct.invert_self_s"] = (sum(own[sp.id] for sp in inverts) * per, "s")

    for est in ESTIMATORS:
        mine = [sp for sp in spans if sp.name == f"oracle.{est}"]
        ids = {sp.id for sp in mine}
        m[f"oracle.pairs.{est}"] = (
            sum(sp.attrs["n"] for sp in samp if _ancestor_in(sp, ids, by_id)) * per, "count")
        m[f"oracle.self_s.{est}"] = (sum(own[sp.id] for sp in mine) * per, "s")

    m["cli.load_model_s"] = (
        sum(sp.duration for sp in spans if sp.name == "cli.load_model") * per, "s")
    m["cli.emit_csv_s"] = (
        sum(sp.duration for sp in spans if sp.name == "cli.emit_csv") * per, "s")
    engine_spans = [sp for sp in spans if sp.attrs.get("cli") and sp.op in pooled_ops
                    and not (parent(sp) and parent(sp).attrs.get("cli"))]
    busy = sum(sp.duration for sp in engine_spans)
    sweep = 0.0
    by_op: dict[int, list[Span]] = defaultdict(list)
    for sp in engine_spans:
        by_op[sp.op].append(sp)
    for group in by_op.values():
        sweep += max(sp.t1 for sp in group) - min(sp.t0 for sp in group)
    m["cli.sweep_s"] = (sweep * per, "s")
    m["cli.engine_busy_s"] = (busy * per, "s")
    m["cli.pool_eff"] = (busy / (workers * sweep) if sweep else 0.0, "1")
    return m


def _ancestor_in(sp: Span, ids: set[int], by_id: dict[int, Span]) -> bool:
    p = sp.parent
    while p is not None:
        if p in ids:
            return True
        nxt = by_id.get(p)
        p = nxt.parent if nxt is not None else None
    return False


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps({"id": sp.id, "parent": sp.parent, "op": sp.op,
                                 "name": sp.name, "t0": sp.t0, "t1": sp.t1,
                                 **sp.attrs}) + "\n")
