"""Command-line front end: model files, operation dispatch, CSV reports.

Commands
  eval busy|idle|steps|max   transform values on a (z, s) grid, any engine
  roots                      certified left roots of the shifted kernel
  simulate                   Monte Carlo estimates (first descent, max at n)
  compare                    contour vs rational vs Monte Carlo report
  invert                     time distribution of the first-descent b-total
  verify-hewitt              inversion identity on random atomic measures

Exit codes: 0 success, 1 domain/validation/parse error, 2 numerical
non-convergence or IO failure.  Identical (config, seed) gives byte-identical
CSV.  WALKFLUCT_THREADS caps the grid-sweep thread pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import yaml

from .contour import ContourSpec, TransformValue
from .errors import (
    CountMismatch, DomainError, EvalError, InvalidSpec,
    NoConvergence, NonIntegerWinding, ParseError, PoleError,
    PreconditionViolated, StabilityError, UnsupportedModel, ZeroOnContour,
)
from .fluct import (
    _drift_flag, busy_period_rational, busy_period_transform, idle_period_transform,
    invert_to_distribution, max_transform_rational, steps_pgf,
    steps_pgf_rational, transient_max_transform, walk_functionals,
)
from .model import (
    Deterministic, DistributionSpec, Erlang, Exponential, Hyperexponential,
    IncrementModel, Uniform, build_markov_modulated, build_product_model,
    build_threshold_model,
)
from .oracle import (
    AtomicMeasure2D, BVFunctionSpec, _series_terms, default_cap,
    estimate_functional, max_n_estimate, spitzer_series, verify_hewitt_discrete,
)
from .roots import find_kernel_roots

__all__ = ["run", "main", "load_model", "emit_csv"]

_VALIDATION_ERRORS = (DomainError, InvalidSpec, ParseError, UnsupportedModel,
                      StabilityError, PreconditionViolated, PoleError, ValueError)
_NUMERIC_ERRORS = (NoConvergence, CountMismatch, ZeroOnContour,
                   NonIntegerWinding, EvalError, OSError)

_DEFAULT_Z = (0.3, 0.5, 0.7)
_DEFAULT_S = (0.5, 1.0, 2.0)


# --- model files -----------------------------------------------------------

_FAMILIES = {cls.__name__.lower(): cls
             for cls in (Exponential, Erlang, Hyperexponential, Deterministic, Uniform)}


def _need(mapping, key, context=""):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing required field '{key}'"
                         + (f" in {context}" if context else ""), field=key)
    return mapping[key]


def _parse_law(node, context) -> DistributionSpec:
    family = str(_need(node, "family", context))
    if family not in _FAMILIES:
        raise ParseError(f"unknown family '{family}' in {context}; "
                         f"expected one of {sorted(_FAMILIES)}", field="family")
    ctor = _FAMILIES[family]
    kwargs = {}
    for field in dataclasses.fields(ctor):
        raw = _need(node, field.name, context)
        kwargs[field.name] = tuple(raw) if isinstance(raw, (list, tuple)) else raw
    try:
        return ctor(**kwargs)
    except (TypeError, ValueError, InvalidSpec) as err:
        raise ParseError(f"bad {family} parameters in {context}: {err}",
                         field=context) from err


def load_model(path: str) -> IncrementModel:
    """Parse a schema_version-1 model file into an IncrementModel."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as err:
        raise ParseError(f"cannot read model file {path}: {err}") from err
    except yaml.YAMLError as err:
        line = None
        mark = getattr(err, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ParseError(f"model file is not valid YAML: {err}", line=line) from err
    if not isinstance(doc, dict):
        raise ParseError("model file must be a mapping")
    version = _need(doc, "schema_version")
    if version != 1:
        raise ParseError(f"unsupported schema_version {version};"
                         " this build reads version 1", field="schema_version")
    kind = str(_need(doc, "kind"))
    label = str(doc.get("label", os.path.splitext(os.path.basename(path))[0]))
    if kind == "product":
        return build_product_model(_parse_law(_need(doc, "b"), "b"),
                                   _parse_law(_need(doc, "a"), "a"), label=label)
    if kind == "threshold":
        return build_threshold_model(
            _parse_law(_need(doc, "f1"), "f1"), _parse_law(_need(doc, "f2"), "f2"),
            _parse_law(_need(doc, "a"), "a"), float(_need(doc, "l")), label=label)
    if kind == "markov_modulated":
        alpha = np.asarray(_need(doc, "alpha"), dtype=float)
        trans = np.asarray(_need(doc, "transitions"), dtype=float)
        absorb = np.asarray(_need(doc, "absorb"), dtype=float)
        return build_markov_modulated(alpha, trans, absorb,
                                      _parse_law(_need(doc, "f"), "f"),
                                      _parse_law(_need(doc, "g"), "g"), label=label)
    raise ParseError(f"unknown kind '{kind}'; expected product, threshold,"
                     " or markov_modulated", field="kind")


# --- CSV -------------------------------------------------------------------

def _fmt(cell) -> str:
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, complex):
        raise TypeError("split complex cells into _re/_im columns")
    if isinstance(cell, float):
        return "%.17g" % cell
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return str(cell)


def emit_csv(header: list[str], rows: list, dest: str | None) -> None:
    """Write header + rows as CSV; floats carry 17 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if dest is None:
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- grid plumbing ---------------------------------------------------------

def _parse_clist(raw: str | None, fallback) -> tuple[complex, ...]:
    if raw is None:
        return tuple(complex(v) for v in fallback)
    try:
        return tuple(complex(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as err:
        raise DomainError(f"cannot parse grid list '{raw}': {err}") from err


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("WALKFLUCT_THREADS", "1")))
    except ValueError:
        return 1


def _sweep(points, worker):
    workers = min(_threads(), max(1, len(points)))
    if workers == 1:
        return [worker(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, points))


def _spec_from(args) -> ContourSpec:
    return ContourSpec(T=args.T, nodes=args.nodes, tol=args.tol)


# --- eval ------------------------------------------------------------------

_EVAL_HEADER = ["z_re", "z_im", "s_re", "s_im", "value_re", "value_im",
                "abs_err", "method"]


def _validate_eval_grid(functional: str, engine: str, zs, ss) -> None:
    for z in zs:
        if engine in ("contour", "series") and abs(z) >= 1.0:
            raise DomainError(f"|z| = {abs(z):g} is outside the {engine} engine"
                              " domain |z| < 1")
        if abs(z) > 1.0 + 1e-12:
            raise DomainError(f"|z| = {abs(z):g} exceeds 1")
    if functional != "steps":
        for s in ss:
            if complex(s).real <= 0.0:
                raise DomainError(f"Re s = {complex(s).real:g} must be positive")


def _eval_point(functional, engine, wf, spec, args, z, s) -> TransformValue:
    model = wf.model
    if engine == "contour":
        if functional == "busy":
            return busy_period_transform(wf, z, s, spec)
        if functional == "idle":
            return idle_period_transform(wf, z, s, spec)
        if functional == "steps":
            return steps_pgf(wf, z, spec)
        return transient_max_transform(wf, z, s, spec)
    if engine == "rational":
        if functional == "busy":
            return busy_period_rational(wf, z, s)
        if functional == "steps":
            return steps_pgf_rational(wf, z)
        if functional == "max":
            return max_transform_rational(wf, z, s)
        raise UnsupportedModel("the rational engine does not cover 'idle';"
                               " use contour, mc, or series")
    pair = {"busy": (s, 0.0), "idle": (0.0, -s), "steps": (0.0, 0.0)}.get(functional)
    if pair is None:
        raise UnsupportedModel(f"engine '{engine}' does not cover 'max';"
                               " use contour or rational")
    s1, s2 = pair
    if engine == "mc":
        cap = args.cap if args.cap is not None else default_cap(z)
        est = estimate_functional(model, z, s1, s2, args.paths, cap, args.seed)
        return TransformValue(est.mean, est.std_err + est.truncation_bias_bound,
                              "montecarlo")
    n_max = args.cap if args.cap is not None else _series_terms(z)
    return spitzer_series(model, z, s1, s2, n_max, args.paths, args.seed)


def _cmd_eval(args) -> int:
    wf = walk_functionals(load_model(args.model))
    spec = _spec_from(args)
    zs = _parse_clist(args.z, _DEFAULT_Z)
    ss = _parse_clist(args.s, _DEFAULT_S) if args.functional != "steps" else (0.0,)
    _validate_eval_grid(args.functional, args.engine, zs, ss)
    points = [(z, s) for z in zs for s in ss]

    def worker(pt):
        z, s = pt
        tv = _eval_point(args.functional, args.engine, wf, spec, args, z, s)
        return [z.real, z.imag, complex(s).real, complex(s).imag,
                tv.value.real, tv.value.imag, tv.abs_err, tv.method]

    emit_csv(_EVAL_HEADER, _sweep(points, worker), args.out)
    return 0


# --- roots -----------------------------------------------------------------

def _cmd_roots(args) -> int:
    model = load_model(args.model)
    wf = walk_functionals(model)
    if model.rational is None:
        raise UnsupportedModel("model has no rational kernel")
    z, s = complex(args.z), complex(args.s)
    report = find_kernel_roots(model.rational, z, s, stable_drift=_drift_flag(wf, z, s))
    rows = [[i, r.real, r.imag, res, report.count_argument_principle,
             report.contour_radius, report.contour_offset_eps]
            for i, (r, res) in enumerate(zip(report.roots, report.residuals))]
    emit_csv(["index", "root_re", "root_im", "residual", "count",
              "contour_radius", "contour_offset_eps"], rows, args.out)
    return 0


# --- simulate ---------------------------------------------------------------

_SIM_HEADER = ["functional", "z_re", "z_im", "s1_re", "s1_im", "s2_re", "s2_im",
               "mean_re", "mean_im", "std_err", "paths", "cap", "bias_bound"]


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    rows = []
    if args.functional == "first-descent":
        z = complex(args.z)
        s1, s2 = complex(args.s1), complex(args.s2)
        cap = args.cap if args.cap is not None else default_cap(z)
        est = estimate_functional(model, z, s1, s2, args.paths, cap, args.seed)
        rows.append(["first-descent", z.real, z.imag, s1.real, s1.imag,
                     s2.real, s2.imag, est.mean.real, est.mean.imag,
                     est.std_err, est.paths, est.cap, est.truncation_bias_bound])
    else:
        s = complex(args.s1)
        est = max_n_estimate(model, args.n, s, args.paths, args.seed)
        rows.append(["max-n", 1.0, 0.0, s.real, s.imag, 0.0, 0.0,
                     est.mean.real, est.mean.imag, est.std_err, est.paths,
                     est.cap, est.truncation_bias_bound])
    emit_csv(_SIM_HEADER, rows, args.out)
    return 0


# --- compare ----------------------------------------------------------------

_COMPARE_HEADER = ["z_re", "z_im", "s_re", "s_im",
                   "contour_re", "contour_im", "contour_abs_err",
                   "rational_re", "rational_im", "engine_gap",
                   "mc_re", "mc_im", "mc_std_err", "mc_gap_over_se", "ok"]


def _cmd_compare(args) -> int:
    wf = walk_functionals(load_model(args.model))
    spec = _spec_from(args)
    zs = _parse_clist(args.z, _DEFAULT_Z)
    ss = _parse_clist(args.s, _DEFAULT_S)
    _validate_eval_grid("busy", "contour", zs, ss)
    has_kernel = wf.model.rational is not None
    points = [(z, s) for z in zs for s in ss]

    def worker(pt):
        z, s = pt
        ct = busy_period_transform(wf, z, s, spec)
        rt = busy_period_rational(wf, z, s).value if has_kernel else complex(math.nan, math.nan)
        gap = abs(ct.value - rt)
        eng_ok = not has_kernel or gap < 5.0 * ct.abs_err + 1e-9
        cap = args.cap if args.cap is not None else default_cap(z)
        mc = estimate_functional(wf.model, z, s, 0.0, args.paths, cap, args.seed)
        noise = mc.std_err + mc.truncation_bias_bound + ct.abs_err
        rel = abs(mc.mean - ct.value) / noise if noise > 0 else 0.0
        mc_ok = rel < 4.0
        return [z.real, z.imag, complex(s).real, complex(s).imag,
                ct.value.real, ct.value.imag, ct.abs_err,
                rt.real, rt.imag, gap,
                mc.mean.real, mc.mean.imag, mc.std_err, rel,
                eng_ok and mc_ok]

    rows = _sweep(points, worker)
    emit_csv(_COMPARE_HEADER, rows, args.out)
    if all(row[-1] for row in rows):
        return 0
    print("compare: at least one grid point exceeded its threshold",
          file=sys.stderr)
    return 2


# --- invert -----------------------------------------------------------------

def _cmd_invert(args) -> int:
    wf = walk_functionals(load_model(args.model))
    z = complex(args.z)
    ts = [float(complex(tok).real) for tok in args.t.split(",") if tok.strip()]
    if not ts:
        raise DomainError("empty t grid")

    def transform(s: complex) -> complex:
        return busy_period_rational(wf, z, s).value

    vals = invert_to_distribution(transform, ts)
    emit_csv(["t", "value"], [[t, v] for t, v in zip(ts, vals)], args.out)
    return 0


# --- verify-hewitt ----------------------------------------------------------

_DEFAULT_F = BVFunctionSpec(pieces=((0.0, math.inf, 1.0, 1.0),))


def random_atomic_measure(rng: np.random.Generator) -> AtomicMeasure2D:
    """Random measure mixing interior, boundary (y = u), and product atoms."""
    style = int(rng.integers(0, 3))
    atoms = []
    if style == 2:
        us = 1.0 + 2.5 * rng.random(int(rng.integers(1, 3)))
        ys = us[0] + rng.choice([-1.0, 1.0], 2) * (0.5 + 2.5 * rng.random(2))
        wu = rng.standard_normal(len(us)) + 1j * rng.standard_normal(len(us))
        wy = rng.standard_normal(len(ys)) + 1j * rng.standard_normal(len(ys))
        atoms = [(u, y, a * b) for u, a in zip(us, wu) for y, b in zip(ys, wy)]
    else:
        for _ in range(int(rng.integers(1, 6))):
            u = 1.0 + 2.5 * rng.random()
            if rng.random() < 0.3:
                y = u
            else:
                y = u + rng.choice([-1.0, 1.0]) * (0.5 + 2.5 * rng.random())
            atoms.append((u, y, complex(rng.standard_normal(),
                                        rng.standard_normal())))
    tv = sum(abs(w) for _, _, w in atoms)
    return AtomicMeasure2D(atoms=tuple((u, y, w / tv) for u, y, w in atoms))


def _cmd_verify_hewitt(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    rows = []
    final_ok = True
    for idx in range(args.count):
        H = random_atomic_measure(rng)
        last = None
        for T in (args.T / 8, args.T / 4, args.T / 2, args.T):
            spec = ContourSpec(T=T, nodes=args.nodes)
            lhs, rhs, gap = verify_hewitt_discrete(H, _DEFAULT_F, spec)
            rows.append([idx, T, lhs.real, lhs.imag, rhs.real, rhs.imag, gap])
            last = gap
        if last is not None and last >= 1e-3:
            final_ok = False
    emit_csv(["measure", "T", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "gap"],
             rows, args.out)
    if final_ok:
        return 0
    print("verify-hewitt: final gap above 1e-3 for at least one measure",
          file=sys.stderr)
    return 2


# --- argument grammar -------------------------------------------------------

def _add_common(p, model=True, seed=True):
    if model:
        p.add_argument("--model", required=True, help="model file path")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_contour(p, tol=True):
    p.add_argument("--T", type=float, default=120.0, help="truncation height")
    p.add_argument("--nodes", type=int, default=24, help="nodes per unit panel")
    if tol:
        p.add_argument("--tol", type=float, default=1e-5, help="contour tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkfluct",
        description="Fluctuation transforms of random walks with dependent"
                    " increment pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a transform on a (z, s) grid")
    p.add_argument("functional", choices=["busy", "idle", "steps", "max"])
    _add_common(p)
    _add_contour(p)
    p.add_argument("--engine", choices=["contour", "rational", "mc", "series"],
                   default="contour")
    p.add_argument("--z", default=None, help="comma list of z values")
    p.add_argument("--s", default=None, help="comma list of s values")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("roots", help="certified left kernel roots")
    _add_common(p, seed=False)
    p.add_argument("--z", required=True)
    p.add_argument("--s", required=True)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", help="Monte Carlo oracles")
    p.add_argument("functional", choices=["first-descent", "max-n"])
    _add_common(p)
    p.add_argument("--z", default="0.5")
    p.add_argument("--s1", default="0")
    p.add_argument("--s2", default="0")
    p.add_argument("--n", type=int, default=100, help="horizon for max-n")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="cross-engine discrepancy table")
    _add_common(p)
    _add_contour(p)
    p.add_argument("--z", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--paths", type=int, default=200_000)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("invert", help="first-descent b-total distribution")
    _add_common(p, seed=False)
    p.add_argument("--z", default="1")
    p.add_argument("--t", required=True, help="comma list of positive times")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify-hewitt", help="inversion identity spot checks")
    _add_common(p, model=False)
    _add_contour(p, tol=False)
    p.add_argument("--count", type=int, default=5,
                   help="number of random measures")
    p.set_defaults(func=_cmd_verify_hewitt)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
