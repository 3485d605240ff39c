"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test pins its tolerances and its wall-clock budget explicitly.  The
M/M/1 references are written out inline rather than imported so that this
file stays self-contained and readable as a checklist.
"""

import cmath
import math
import time

import numpy as np

from walkfluct.contour import ContourSpec, pv_axis, pv_axis_singular
from walkfluct.cli import random_atomic_measure
from walkfluct.fluct import (
    busy_period_rational,
    busy_period_transform,
    geometric_limit,
    idle_period_transform,
    max_transform_rational,
    steps_pgf,
    steps_pgf_rational,
    transient_max_transform,
    walk_functionals,
)
from walkfluct.model import builtin_models
from walkfluct.oracle import (
    BVFunctionSpec,
    max_n_estimate,
    spitzer_series,
    verify_hewitt_discrete,
)
from walkfluct.roots import count_left_zeros, verify_rouche

from test_roots import random_rational_model, regime_point

LAM, MU = 1.0, 2.0


def test_criterion_01_busy_period_mm1(mm1):
    # z -> 1 ladder of both busy-period engines against the classical
    # busy-period transform of the Exp(2)/Exp(1) walk
    t0 = time.monotonic()
    spec = ContourSpec(T=200.0, nodes=32)
    for s in (0.25, 0.5, 1.0, 2.0):
        ref = (LAM + MU + s - math.sqrt((LAM + MU + s) ** 2 - 4 * LAM * MU)) / (2 * LAM)
        # nine ladder levels keep the extrapolation residue well under 1e-8
        # even at s = 0.25, where the limit curve is at its steepest
        rat = geometric_limit(lambda h: busy_period_rational(mm1, 1.0 - h, s),
                              levels=9)
        assert abs(rat.value - ref) < 1e-8
        ct = geometric_limit(
            lambda h: busy_period_transform(mm1, 1.0 - h, s, spec), levels=9)
        assert abs(ct.value - ref) < 1e-4
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_step_count_mm1(mm1, spec):
    t0 = time.monotonic()
    for z in (0.1, 0.5, 0.9):
        ref = (LAM + MU - math.sqrt((LAM + MU) ** 2 - 4 * LAM * MU * z)) / (2 * LAM)
        assert abs(steps_pgf(mm1, z, spec).value - ref) < 1e-4
        assert abs(steps_pgf_rational(mm1, z).value - ref) < 1e-8
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_idle_memorylessness(mm1, spec):
    # the idle period of the stable M/M/1 walk is Exp(lambda) at z -> 1
    t0 = time.monotonic()
    for s in (0.5, 1.0, 2.0):
        lim = geometric_limit(
            lambda h: idle_period_transform(mm1, 1.0 - h, s, spec))
        assert abs(lim.value - LAM / (LAM + s)) < 1e-4
    assert time.monotonic() - t0 < 10.0


def test_criterion_04_stationary_maximum(mm1, models):
    t0 = time.monotonic()
    rho = LAM / MU
    for s in (0.5, 1.0, 2.0):
        ref = (1 - rho) + rho * (MU - LAM) / (MU - LAM + s)
        assert abs(max_transform_rational(mm1, 1.0, s).value - ref) < 1e-8
    est = max_n_estimate(models["product_mm1"], 200, 1.0, paths=10 ** 6, seed=17)
    ref = (1 - rho) + rho * (MU - LAM) / (MU - LAM + 1.0)
    assert abs(est.mean - ref) < 4.0 * est.std_err
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_dependent_increment_cross_engine(models, spec):
    # threshold and Markov-modulated walks: contour engine against the
    # simulated series oracle on a 3 x 3 interior grid, busy functional
    t0 = time.monotonic()
    grid = [(z, s) for z in (0.3, 0.5, 0.7) for s in (0.5, 1.0, 2.0)]
    for name in ("threshold_exp", "markov_2state"):
        wf = walk_functionals(models[name])
        for k, (z, s) in enumerate(grid):
            ct = busy_period_transform(wf, z, s, spec)
            sv = spitzer_series(wf.model, z, s, 0.0, n_max=60,
                                paths_per_n=10 ** 5, seed=500 + k)
            tol = max(1e-3, 4.0 * (ct.abs_err + sv.abs_err))
            assert abs(ct.value - sv.value) < tol, (name, z, s)
            if name == "markov_2state":
                rt = busy_period_rational(wf, z, s)
                assert abs(ct.value - rt.value) < 5.0 * ct.abs_err, (z, s)
    assert time.monotonic() - t0 < 600.0


def test_criterion_06_inversion_identity_random_measures():
    # 20 random atomic measures (complex weights, boundary atoms, product
    # grids): the truncation gap shrinks with T and ends below 1e-3
    t0 = time.monotonic()
    f = BVFunctionSpec(pieces=((0.0, math.inf, 1.0, 1.0),))
    rng = np.random.Generator(np.random.Philox(key=2026))
    boundary_atoms = 0
    product_grids = 0
    for _ in range(20):
        H = random_atomic_measure(rng)
        us = {u for u, _, _ in H.atoms}
        ys = {y for _, y, _ in H.atoms}
        boundary_atoms += any(y == u for u, y, _ in H.atoms)
        product_grids += (len(H.atoms) >= 2 and len(ys) == 2
                          and len(us) * len(ys) == len(H.atoms))
        gaps = [verify_hewitt_discrete(
                    H, f, ContourSpec(T=T, nodes=24))[2]
                for T in (100.0, 200.0, 400.0, 800.0)]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 1e-3
    # the sample must actually exercise the advertised measure classes
    assert boundary_atoms >= 1
    assert product_grids >= 1
    assert time.monotonic() - t0 < 300.0


def test_criterion_07_count_certification():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for trial in range(50):
        mdl = random_rational_model(rng)
        z, s = regime_point(rng, trial % 2)
        n_h2, n_shifted, equal = verify_rouche(mdl.rational, z, s)
        assert equal, (trial, mdl.label, z, s)
        assert n_h2 == mdl.rational.degree == n_shifted
    # counting contour radius is immaterial once all zeros are enclosed
    rng = np.random.default_rng(99)
    for _ in range(8):
        roots = [complex(-0.5 - 3.5 * rng.random(), rng.uniform(-2.0, 2.0))
                 for _ in range(3)]
        F = lambda x: (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        assert count_left_zeros(F, 8.0, 0.2) == 3
        assert count_left_zeros(F, 16.0, 0.2) == 3
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_wienerhopf_boundary_relation(models, spec):
    # the two factors come from independent discretizations, so their
    # product reproducing the kernel is a real consistency statement
    t0 = time.monotonic()
    from walkfluct.fluct import wienerhopf_factors
    for name, model in models.items():
        wf = walk_functionals(model)
        for z in (0.3, 0.7):
            for im in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0):
                _, _, res = wienerhopf_factors(wf, z, 1j * im, spec)
                assert res < 1e-3, (name, z, im)
    assert time.monotonic() - t0 < 300.0


def test_criterion_09_cauchy_kernel_trichotomy(spec):
    t0 = time.monotonic()
    pole_left = pv_axis(lambda xi: 1.0 / (xi - (-1.0)), spec, asymptotic_coeff=1.0)
    assert abs(pole_left.value - 2j * math.pi) < 1e-6
    pole_right = pv_axis(lambda xi: 1.0 / (xi - 1.0), spec, asymptotic_coeff=1.0)
    assert abs(pole_right.value) < 1e-6
    on_axis = pv_axis_singular(lambda xi: np.ones_like(xi), 0.5j, spec,
                               phi_at_infinity=1.0)
    assert abs(on_axis.value) < 1e-4
    assert time.monotonic() - t0 < 5.0


def test_criterion_10_degenerate_argument_identities(models, spec):
    # busy and idle transforms both collapse to the step-count pgf as s -> 0
    t0 = time.monotonic()
    for model in models.values():
        wf = walk_functionals(model)
        for z in (0.2, 0.5, 0.8):
            st = steps_pgf(wf, z, spec)
            busy = geometric_limit(
                lambda h: busy_period_transform(wf, z, h, spec))
            idle = geometric_limit(
                lambda h: idle_period_transform(wf, z, h, spec))
            assert abs(busy.value - st.value) < busy.abs_err + st.abs_err
            assert abs(idle.value - st.value) < idle.abs_err + st.abs_err
    assert time.monotonic() - t0 < 120.0
