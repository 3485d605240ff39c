"""The four benchmark workloads: seeded inputs, operations and their references.

A workload is a fixed round of operations built from the seed; the runner
repeats the round until its time is up.  One operation is one transform or
estimator call at one grid point, or one CLI invocation in cli_sweep.  Each
operation knows how to read its result and which reference checks it; the
references are computed lazily, after timing, and cached per run.

Operations call walkfluct through module attributes at call time, so the
traced run's wrappers (tracing.patched) see every call.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import walkfluct.cli
from walkfluct import fluct, oracle
from walkfluct.contour import ContourSpec
from walkfluct.model import (
    Deterministic, Erlang, Uniform, build_product_model, builtin_models,
)

import references as refs

WORKLOADS = ("contour_grid", "rational_invert", "oracle_mc", "cli_sweep")
BUILTINS = ("product_mm1", "threshold_exp", "markov_2state")
FUNCTIONALS = ("busy", "idle", "steps", "max")

# per-operation time limits, 2-4x the slowest operation of each workload in
# the machine's slow mode
TIME_LIMIT_S = {"contour_grid": 2.0, "rational_invert": 3.0,
                "oracle_mc": 6.0, "cli_sweep": 20.0}
# rational points per (functional, stratum): the quadtree's cost varies from
# point to point, so threshold_exp gets more of them to steady the tail, and
# markov_2state as many, so that the median stays inside the markov cluster
RATIONAL_POINTS = {"product_mm1": 1, "threshold_exp": 2, "markov_2state": 2}
CLI_THREADS = 2

SPITZER_TERMS, SPITZER_PATHS = 60, 2_000
DESCENT_PATHS = 400_000
MAXN_HORIZON, MAXN_PATHS = 200, 10_000
CLI_MC_PATHS = 20_000

DET_UNIFORM_DEFECT = ("NoConvergence: contour ladder does not settle on the "
                      "Deterministic/Uniform walk (ROADMAP item 3)")
ERLANG_DET_DEFECT = ("time limit: rational root location has no work bound on "
                     "Erlang(4, 8)/Deterministic(1) (ROADMAP item 4)")

Reading = tuple[complex, float, complex, float]   # value, abs_err, ref, ref_err


@dataclass(frozen=True)
class Op:
    """One timed operation of a round."""

    name: str                                 # group label, e.g. "contour busy threshold_exp"
    call: Callable[[], Any]
    check: Callable[[Any], list[Reading]]     # result -> readings against references
    known: str | None = None                  # documented baseline defect, if any
    mc: bool = False                          # error falls like 1/sqrt(time)
    pooled: bool = False                      # runs through the CLI thread-pool sweep


def all_models() -> dict:
    models = builtin_models()
    models["det_uniform"] = build_product_model(
        Deterministic(0.7), Uniform(0.2, 2.0), label="det_uniform")
    models["erlang_det"] = build_product_model(
        Erlang(4, 8.0), Deterministic(1.0), label="erlang_det")
    return models


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 16) + stream))


def _point(rng: np.random.Generator, stratum: str) -> tuple[complex, complex]:
    """A seeded (z, s) in one of three strata; 4 decimals so CLI lists round-trip.

    The strata are narrow so that cost and Monte Carlo error barely depend on
    the seed: run-to-run spread then measures the program, not the grid.  The
    series error grows like -log(1 - |z|) and mc_s_at_1e-3 with its square,
    so |z| varies by at most +-6% within a stratum.
    """
    if stratum == "low":
        z, s = rng.uniform(0.33, 0.37), rng.uniform(0.6, 0.7)
    elif stratum == "complex":
        z = rng.uniform(0.63, 0.67) * np.exp(1j * rng.uniform(-0.5, 0.5))
        s = complex(rng.uniform(0.9, 1.1), rng.uniform(-0.5, 0.5))
    elif stratum == "high":
        z, s = rng.uniform(0.92, 0.95), rng.uniform(1.6, 1.9)
    else:
        raise ValueError(stratum)
    z, s = complex(z), complex(s)
    return (complex(round(z.real, 4), round(z.imag, 4)),
            complex(round(s.real, 4), round(s.imag, 4)))


class Memo:
    """Reference values computed on first use and kept for the run."""

    def __init__(self) -> None:
        self._vals: dict = {}

    def get(self, key, compute: Callable[[], tuple[complex, float]]) -> tuple[complex, float]:
        if key not in self._vals:
            self._vals[key] = compute()
        return self._vals[key]


# --- reading results ---------------------------------------------------------

def _contour(functional: str, wf, z: complex, s: complex, spec: ContourSpec):
    if functional == "busy":
        return fluct.busy_period_transform(wf, z, s, spec)
    if functional == "idle":
        return fluct.idle_period_transform(wf, z, s, spec)
    if functional == "steps":
        return fluct.steps_pgf(wf, z, spec)
    return fluct.transient_max_transform(wf, z, s, spec)


def _rational(functional: str, wf, z: complex, s: complex):
    if functional == "busy":
        return fluct.busy_period_rational(wf, z, s)
    if functional == "steps":
        return fluct.steps_pgf_rational(wf, z)
    return fluct.max_transform_rational(wf, z, s)


def _transform(tv) -> tuple[complex, float]:
    return complex(tv.value), float(tv.abs_err)


def _estimate(est) -> tuple[complex, float]:
    return complex(est.mean), float(est.std_err + est.truncation_bias_bound)


def _closed(value: complex) -> tuple[complex, float]:
    return value, refs.CLOSED_FORM_ERR * (1.0 + abs(value))


class Workload:
    """Seeded set-up of one workload; `ops(models)` builds its round."""

    def __init__(self, name: str, seed: int, root: str) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.limit = TIME_LIMIT_S[name]
        self.models = all_models()
        self.wfs = {k: fluct.walk_functionals(m) for k, m in self.models.items()}
        self.spec = ContourSpec()
        self.memo = Memo()
        self.series = refs.SeriesReference(seed)
        self.workdir = None
        if name == "cli_sweep":
            os.environ["WALKFLUCT_THREADS"] = str(CLI_THREADS)
            base = os.path.join(root, ".bench-work")
            os.makedirs(base, exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="cli-", dir=base)
            self.yaml = _write_model_files(self.workdir)
            for path in self.yaml.values():
                walkfluct.cli.load_model(path)
        self.ops(self.models)   # generate the grid once, as part of set-up

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self, models: dict) -> list[Op]:
        """The round's operations on `models` (traced copies in the traced run)."""
        return getattr(self, "_" + self.name)(models)

    # --- references ----------------------------------------------------------

    def _ref_contour(self, functional, label, z, s) -> tuple[complex, float]:
        return self.memo.get(("contour", functional, label, z, s), lambda: _transform(
            _contour(functional, self.wfs[label], z, s, self.spec)))

    def _ref_rational(self, functional, label, z, s) -> tuple[complex, float]:
        """Rational-engine value in the contour engine's normalisation."""
        def compute():
            v, e = _transform(_rational(functional, self.wfs[label], z, s))
            if functional == "max":   # (1 - z) sum_n z^n E e^{-s M_n}
                return v / (1.0 - z), e / abs(1.0 - z)
            return v, e
        return self.memo.get(("rational", functional, label, z, s), compute)

    def _ref_series(self, functional, label, z, s) -> tuple[complex, float]:
        return self.memo.get(("series", functional, label, z, s),
                             lambda: self.series.value(self.models[label], functional, z, s))

    def _reference(self, functional, label, z, s, checked) -> tuple[complex, float]:
        """Independent reference for a value from the `checked` route.

        Closed forms for M/M/1, the series for the Deterministic/Uniform walk;
        otherwise the contour engine checks the other routes, and the rational
        engine (the series, for idle) checks the contour engine.
        """
        if label == "product_mm1":
            return _closed(refs.mm1(functional, z, s))
        if label == "det_uniform":
            return self._ref_series(functional, label, z, s)
        if checked != "contour":
            return self._ref_contour(functional, label, z, s)
        if functional == "idle":
            return self._ref_series(functional, label, z, s)
        return self._ref_rational(functional, label, z, s)

    # --- contour_grid ----------------------------------------------------------

    def _contour_op(self, models, functional, label, z, s, known=None) -> Op:
        wf = fluct.walk_functionals(models[label])

        def check(tv):
            return [(*_transform(tv), *self._reference(functional, label, z, s, "contour"))]
        return Op(f"contour {functional} {label}",
                  functools.partial(_contour, functional, wf, z, s, self.spec), check,
                  known=known)

    def _contour_grid(self, models) -> list[Op]:
        rng = _rng(self.seed, 1)
        ops = []
        for label in BUILTINS:
            for functional in FUNCTIONALS:
                for stratum in ("low", "complex", "high"):
                    z, s = _point(rng, stratum)
                    ops.append(self._contour_op(models, functional, label, z, s))
        # the non-rational walk on a minority share (3 of 39) of the round
        for functional, stratum in (("busy", "low"), ("idle", "complex"), ("steps", "high")):
            z, s = _point(rng, stratum)
            ops.append(self._contour_op(models, functional, "det_uniform", z, s,
                                        known=DET_UNIFORM_DEFECT))
        return ops

    # --- rational_invert -------------------------------------------------------

    def _rational_op(self, models, functional, label, z, s, known=None) -> Op:
        wf = fluct.walk_functionals(models[label])

        def check(tv):
            if label == "product_mm1":
                ref = refs.mm1(functional, z, s)
                if functional == "max":
                    ref *= 1.0 - z
                return [(*_transform(tv), *_closed(ref))]
            ref, err = self._ref_contour(functional, label, z, s)
            if functional == "max":
                ref, err = ref * (1.0 - z), err * abs(1.0 - z)
            return [(*_transform(tv), ref, err)]
        return Op(f"rational {functional} {label}",
                  functools.partial(_rational, functional, wf, z, s), check, known=known)

    def _rational_invert(self, models) -> list[Op]:
        rng = _rng(self.seed, 2)
        ops = []
        for label in BUILTINS:
            for functional in ("busy", "steps", "max"):
                for stratum in ("low", "complex", "high"):
                    for _ in range(RATIONAL_POINTS[label]):
                        z, s = _point(rng, stratum)
                        ops.append(self._rational_op(models, functional, label, z, s))
        wf = fluct.walk_functionals(models["product_mm1"])
        t = round(float(rng.uniform(0.5, 2.0)), 4)

        def invert():
            return fluct.invert_to_distribution(
                lambda s: fluct.busy_period_rational(wf, 1.0, s).value, [t])

        def check_invert(vals):
            v = vals[0]
            return [(v, refs.INVERT_REL_ERR * (1.0 + abs(v)), *_closed(refs.mm1_busy_density(t)))]
        ops.append(Op("invert busy product_mm1", invert, check_invert))
        z, s = round(float(rng.uniform(0.2, 0.4)), 4), round(float(rng.uniform(0.4, 0.6)), 4)
        ops.append(self._rational_op(models, "busy", "erlang_det", complex(z), complex(s),
                                     known=ERLANG_DET_DEFECT))
        return ops

    # --- oracle_mc ---------------------------------------------------------------

    def _oracle_mc(self, models) -> list[Op]:
        rng = _rng(self.seed, 3)
        ops = []
        k = 0

        def add(name, call, check):
            ops.append(Op(name, call, check, mc=True))

        for label in BUILTINS:
            model = models[label]
            for functional, stratum in (("busy", "low"), ("idle", "complex")):
                z, s = _point(rng, stratum)
                s1, s2 = (s, 0.0) if functional == "busy" else (0.0, -s)
                k += 1
                add(f"spitzer {functional} {label}",
                    lambda m=model, z=z, s1=s1, s2=s2, sd=self.seed * 100 + k:
                        oracle.spitzer_series(m, z, s1, s2, SPITZER_TERMS, SPITZER_PATHS, sd),
                    lambda tv, f=functional, lb=label, z=z, s=s:
                        [(*_transform(tv), *self._reference(f, lb, z, s, "oracle"))])
            for functional, stratum in (("busy", "high"), ("idle", "complex")):
                z, s = _point(rng, stratum)
                s1, s2 = (s, 0.0) if functional == "busy" else (0.0, -s)
                k += 1
                add(f"descent {functional} {label}",
                    lambda m=model, z=z, s1=s1, s2=s2, sd=self.seed * 100 + k:
                        oracle.estimate_functional(m, z, s1, s2, DESCENT_PATHS,
                                                   oracle.default_cap(z), sd),
                    lambda est, f=functional, lb=label, z=z, s=s:
                        [(*_estimate(est), *self._reference(f, lb, z, s, "oracle"))])
            s = round(float(rng.uniform(0.9, 1.1)), 4)
            k += 1
            add(f"max-n {label}",
                lambda m=model, s=s, sd=self.seed * 100 + k:
                    oracle.max_n_estimate(m, MAXN_HORIZON, s, MAXN_PATHS, sd),
                lambda est, lb=label, s=s: [(*_estimate(est), *self._stationary_max(lb, s))])
        return ops

    def _stationary_max(self, label, s) -> tuple[complex, float]:
        """E[e^{-sM}] with the horizon-200 slack added to its error."""
        if label == "product_mm1":
            v, e = _closed(refs.mm1_stationary_max(s))
        else:
            v, e = self.memo.get(("stationary", label, s), lambda: _transform(
                fluct.max_transform_rational(self.wfs[label], 1.0, s)))
        return v, e + refs.HORIZON_200_ERR

    # --- cli_sweep ---------------------------------------------------------------

    def _cli_sweep(self, models) -> list[Op]:
        rng = _rng(self.seed, 4)
        ops = []
        k = 0

        def grid():
            pts = [_point(rng, st) for st in ("low", "high")]
            zs = ",".join(f"{z.real:.4f}" for z, _ in pts)
            ss = ",".join(f"{s.real:.4f}" for _, s in pts)
            return zs, ss

        def out_path():
            nonlocal k
            k += 1
            return os.path.join(self.workdir, f"out-{k}.csv")

        for label in BUILTINS:
            zs, ss = grid()
            argv = ["eval", "busy", "--engine", "contour", "--model", self.yaml[label],
                    "--z", zs, "--s", ss, "--out", out_path()]
            ops.append(Op(f"cli eval contour {label}", _cli_call(argv),
                          self._eval_check(label, "contour"), pooled=True))
        for label in BUILTINS[1:]:
            zs, ss = grid()
            argv = ["eval", "busy", "--engine", "rational", "--model", self.yaml[label],
                    "--z", zs, "--s", ss, "--out", out_path()]
            ops.append(Op(f"cli eval rational {label}", _cli_call(argv),
                          self._eval_check(label, "rational"), pooled=True))
        for label in BUILTINS[1:]:
            zs, ss = grid()
            argv = ["compare", "--model", self.yaml[label], "--z", zs, "--s", ss,
                    "--paths", str(CLI_MC_PATHS), "--seed", str(self.seed), "--out", out_path()]
            ops.append(Op(f"cli compare {label}", _cli_call(argv),
                          self._compare_check(label), pooled=True))
        s = round(float(rng.uniform(0.9, 1.1)), 4)
        argv = ["simulate", "max-n", "--model", self.yaml["product_mm1"], "--n",
                str(MAXN_HORIZON), "--s1", f"{s:.4f}", "--paths", str(CLI_MC_PATHS),
                "--seed", str(self.seed), "--out", out_path()]
        ops.append(Op("cli simulate max-n product_mm1", _cli_call(argv),
                      lambda text, s=s: [(complex(float(r["mean_re"]), float(r["mean_im"])),
                                          float(r["std_err"]),
                                          *self._stationary_max("product_mm1", s))
                                         for r in _rows(text)], mc=True))
        t = round(float(rng.uniform(0.5, 2.0)), 4)
        argv = ["invert", "--model", self.yaml["product_mm1"], "--z", "1",
                "--t", f"{t:.4f}", "--out", out_path()]
        ops.append(Op("cli invert product_mm1", _cli_call(argv),
                      lambda text: [(float(r["value"]),
                                     refs.INVERT_REL_ERR * (1.0 + abs(float(r["value"]))),
                                     *_closed(refs.mm1_busy_density(float(r["t"]))))
                                    for r in _rows(text)]))
        return ops

    def _eval_check(self, label, engine):
        def check(text):
            out = []
            for r in _rows(text):
                z = complex(float(r["z_re"]), float(r["z_im"]))
                s = complex(float(r["s_re"]), float(r["s_im"]))
                value = complex(float(r["value_re"]), float(r["value_im"]))
                out.append((value, float(r["abs_err"]),
                            *self._reference("busy", label, z, s, engine)))
            return out
        return check

    def _compare_check(self, label):
        def check(text):
            out = []
            for r in _rows(text):
                z = complex(float(r["z_re"]), float(r["z_im"]))
                s = complex(float(r["s_re"]), float(r["s_im"]))
                value = complex(float(r["contour_re"]), float(r["contour_im"]))
                out.append((value, float(r["contour_abs_err"]),
                            *self._reference("busy", label, z, s, "contour")))
            return out
        return check


class CliFailed(RuntimeError):
    """A CLI invocation exited with a nonzero code."""


def _cli_call(argv: list[str]) -> Callable[[], str]:
    """One in-process invocation; returns the CSV it wrote to its --out file."""
    out = argv[argv.index("--out") + 1]

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = walkfluct.cli.run(argv)
        if code != 0:
            raise CliFailed(f"walkfluct {argv[0]} exited {code}: {err.getvalue().strip()}")
        with open(out, encoding="utf-8", newline="") as fh:
            return fh.read()
    return call


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


_MODEL_FILES = {
    "product_mm1": """\
schema_version: 1
kind: product
label: product_mm1
b: {family: exponential, rate: 2.0}
a: {family: exponential, rate: 1.0}
""",
    "threshold_exp": """\
schema_version: 1
kind: threshold
label: threshold_exp
f1: {family: exponential, rate: 3.0}
f2: {family: exponential, rate: 1.2}
a: {family: exponential, rate: 1.0}
l: 1.0
""",
    "markov_2state": """\
schema_version: 1
kind: markov_modulated
label: markov_2state
alpha: [0.6, 0.4]
transitions: [[0.3, 0.2], [0.1, 0.4]]
absorb: [0.5, 0.5]
f: {family: exponential, rate: 5.0}
g: {family: exponential, rate: 2.0}
""",
}


def _write_model_files(workdir: str) -> dict[str, str]:
    """The three built-ins as schema_version-1 YAML files."""
    paths = {}
    for label, text in _MODEL_FILES.items():
        paths[label] = os.path.join(workdir, f"{label}.yaml")
        with open(paths[label], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths
