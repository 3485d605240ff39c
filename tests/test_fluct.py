"""Walk functionals: both engines against M/M/1 closed forms, limits, inversion."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from walkfluct.contour import ContourSpec
from walkfluct.errors import DomainError, NoConvergence, StabilityError, UnsupportedModel
import walkfluct.fluct
from walkfluct.fluct import (
    busy_period_rational,
    busy_period_transform,
    first_descent_transform,
    geometric_limit,
    idle_period_transform,
    invert_to_distribution,
    max_transform_rational,
    steps_pgf,
    steps_pgf_rational,
    transient_max_transform,
    walk_functionals,
    wienerhopf_factors,
)
from walkfluct.model import (
    Deterministic,
    Exponential,
    IncrementModel,
    Uniform,
    build_product_model,
)
from walkfluct.oracle import spitzer_series


def _tol(tv, floor=1e-6):
    return max(5.0 * tv.abs_err, floor)


def test_busy_contour_matches_closed_form(mm1, mm1_refs, spec):
    tv = busy_period_transform(mm1, 0.5, 0.5, spec)
    assert tv.method == "contour"
    assert abs(tv.value - mm1_refs.busy(0.5, 0.5)) < _tol(tv)


@pytest.mark.parametrize("z,s", [(0.3, 0.5), (0.5, 0.5), (0.5, 2.0), (0.9, 1.0)])
def test_busy_rational_matches_closed_form(mm1, mm1_refs, z, s):
    tv = busy_period_rational(mm1, z, s)
    assert tv.method == "rational"
    assert abs(tv.value - mm1_refs.busy(z, s)) < 1e-10


def test_idle_contour_matches_closed_form(mm1, mm1_refs, spec):
    tv = idle_period_transform(mm1, 0.5, 1.0, spec)
    assert abs(tv.value - mm1_refs.idle(0.5, 1.0)) < _tol(tv)


@pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
def test_steps_both_engines(mm1, mm1_refs, spec, z):
    ct = steps_pgf(mm1, z, spec)
    assert abs(ct.value - mm1_refs.steps(z)) < _tol(ct)
    rt = steps_pgf_rational(mm1, z)
    assert abs(rt.value - mm1_refs.steps(z)) < 1e-10


def test_transient_max_contour(mm1, mm1_refs, spec):
    tv = transient_max_transform(mm1, 0.5, 1.0, spec)
    assert abs(tv.value - mm1_refs.transient_max(0.5, 1.0)) < _tol(tv)


def test_max_rational_transient_and_stationary(mm1, mm1_refs):
    # normalized by (1 - z); at z = 1 it is the stationary maximum transform
    tv = max_transform_rational(mm1, 0.5, 1.0)
    assert abs(tv.value - 0.5 * mm1_refs.transient_max(0.5, 1.0)) < 1e-10
    st = max_transform_rational(mm1, 1.0, 1.0)
    assert abs(st.value - 0.75) < 1e-10
    for s in (0.5, 2.0):
        st = max_transform_rational(mm1, 1.0, s)
        assert abs(st.value - mm1_refs.stationary_max(s)) < 1e-10


def test_wienerhopf_factors_match_analytic(mm1, mm1_refs, spec):
    z, s = 0.5, 0.3j
    pp, pm, res = wienerhopf_factors(mm1, z, s, spec)
    assert abs(pp - mm1_refs.psi_plus(z, s)) < 1e-5
    assert abs(pm - mm1_refs.psi_minus(z, s)) < 1e-5
    assert res < 10.0 * spec.tol


def test_wienerhopf_normalization_at_origin(mm1, spec):
    # psi_minus(0) = 1 - E z^N and the product recovers the kernel 1 - z
    z = 0.5
    pp, pm, _ = wienerhopf_factors(mm1, z, 0.0, spec)
    steps_val = steps_pgf(mm1, z, spec).value
    assert abs(pm - (1.0 - steps_val)) < 1e-5
    assert abs(pm * pp - (1.0 - z)) < 1e-5


def test_wienerhopf_rejects_off_axis(mm1, spec):
    with pytest.raises(DomainError):
        wienerhopf_factors(mm1, 0.5, 1.0 + 1j, spec)


def test_busy_rational_z_to_1_ladder(mm1, mm1_refs):
    lim = geometric_limit(lambda h: busy_period_rational(mm1, 1.0 - h, 1.0))
    assert abs(lim.value - mm1_refs.busy_z1(1.0)) < 1e-9


def test_idle_contour_z_to_1_ladder(mm1, mm1_refs, spec):
    lim = geometric_limit(lambda h: idle_period_transform(mm1, 1.0 - h, 1.0, spec))
    assert abs(lim.value - mm1_refs.lam / (mm1_refs.lam + 1.0)) < 1e-4


def test_steps_z_to_1_ladder_reaches_certainty(mm1, spec):
    lim = geometric_limit(lambda h: steps_pgf(mm1, 1.0 - h, spec))
    assert abs(lim.value - 1.0) < 1e-4


def test_busy_s_to_0_ladder_degenerates_to_steps(mm1, spec):
    z = 0.5
    steps_val = steps_pgf(mm1, z, spec).value
    lim = geometric_limit(lambda h: busy_period_transform(mm1, z, h, spec))
    assert abs(lim.value - steps_val) < max(5.0 * lim.abs_err, 1e-5)


def test_invert_exponential_density():
    vals = invert_to_distribution(lambda s: 1.0 / (1.0 + s), [1.0])
    assert abs(vals[0] - math.exp(-1.0)) < 1e-7
    lam, grid = 1.7, [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = invert_to_distribution(lambda s: lam / (lam + s), grid)
    for v, t in zip(vals, grid):
        assert abs(v - lam * math.exp(-lam * t)) < 1e-6


def _bessel_i1(x: float) -> float:
    term = x / 2.0
    out = 0.0
    for k in range(60):
        out += term
        term *= (x / 2.0) ** 2 / ((k + 1) * (k + 2))
    return out


def test_invert_busy_period_density(mm1, mm1_refs):
    # z = 1 collapses the joint transform to the duration transform alone;
    # its inverse has an elementary Bessel form
    lam, mu = mm1_refs.lam, mm1_refs.mu
    grid = [0.4, 1.0, 2.5]
    vals = invert_to_distribution(
        lambda s: busy_period_rational(mm1, 1.0, s).value, grid)
    for v, t in zip(vals, grid):
        ref = math.exp(-(lam + mu) * t) * _bessel_i1(2.0 * t * math.sqrt(lam * mu)) \
            / (t * math.sqrt(lam / mu))
        assert abs(v - ref) < 5e-7


def test_contour_engine_rejects_boundary_z(mm1, spec):
    with pytest.raises(DomainError):
        busy_period_transform(mm1, 1.0, 1.0, spec)
    with pytest.raises(DomainError):
        steps_pgf(mm1, 1.2, spec)
    for z, s1, s2 in ((1.0, 0.5, 0.0), (0.5, -0.1, 0.0), (0.5, 0.5, 0.1)):
        with pytest.raises(DomainError):
            first_descent_transform(mm1, z, s1, s2, spec)


def test_rational_engine_guards_unstable_boundary():
    wf = walk_functionals(build_product_model(Exponential(0.5), Exponential(2.0)))
    assert wf.stability == "unstable"
    with pytest.raises(StabilityError):
        max_transform_rational(wf, 1.0, 1.0)


def test_stability_classification(mm1):
    assert mm1.stability == "stable"
    crit = walk_functionals(build_product_model(Exponential(1.0), Exponential(1.0)))
    assert crit.stability == "critical"


def test_rational_engine_needs_kernel():
    bare = IncrementModel(kind="rational_custom", lst=lambda s1, s2: 1.0,
                          sampler=None, mean_b=1.0, mean_a=2.0)
    with pytest.raises(UnsupportedModel):
        busy_period_rational(walk_functionals(bare), 0.5, 1.0)


def test_z_zero_shortcuts(mm1, spec):
    assert busy_period_transform(mm1, 0.0, 1.0, spec).value == 0.0
    assert idle_period_transform(mm1, 0.0, 1.0, spec).value == 0.0
    assert steps_pgf(mm1, 0.0, spec).value == 0.0
    assert first_descent_transform(mm1, 0.0, 1.0, -1.0, spec).value == 0.0
    assert transient_max_transform(mm1, 0.0, 1.0, spec).value == 1.0
    pp, pm, res = wienerhopf_factors(mm1, 0.0, 0.5j, spec)
    assert (pp, pm, res) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize("name", ["threshold_exp", "markov_2state"])
def test_engines_agree_off_closed_forms(models, name, spec):
    # no elementary reference for these walks; the two engines are
    # independent computations of the same transforms
    wf = walk_functionals(models[name])
    for z in (0.3, 0.7):
        ct = steps_pgf(wf, z, spec)
        rt = steps_pgf_rational(wf, z)
        assert abs(ct.value - rt.value) < 5.0 * ct.abs_err + 1e-8
        for s in (0.5, 2.0):
            cb = busy_period_transform(wf, z, s, spec)
            rb = busy_period_rational(wf, z, s)
            assert abs(cb.value - rb.value) < 5.0 * cb.abs_err + 1e-8
            cm = transient_max_transform(wf, z, s, spec)
            rm = max_transform_rational(wf, z, s)
            assert abs((1.0 - z) * cm.value - rm.value) < 5.0 * (1 - z) * cm.abs_err + 1e-8


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp", "markov_2state"])
def test_busy_real_bounded_monotone(models, name):
    wf = walk_functionals(models[name])
    z = 0.6
    prev = None
    for s in (0.5, 1.0, 2.0, 4.0):
        v = busy_period_rational(wf, z, s).value
        assert abs(v.imag) < 1e-12
        assert 0.0 < v.real < z
        if prev is not None:
            assert v.real < prev
        prev = v.real


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp"])
def test_static_h2_base_roots_found_once(models, name, monkeypatch):
    # h2 has constant coefficients, so the z = 0 kernel is the same at every
    # s: its roots are found once per kernel and give the same values
    model = models[name]
    assert model.rational.static_h2
    plain = dataclasses.replace(model, rational=dataclasses.replace(model.rational,
                                                                    static_h2=False))
    calls = []
    real_find = walkfluct.fluct.find_kernel_roots

    def counting_find(kernel, z, s, **kw):
        calls.append(kernel.static_h2)
        return real_find(kernel, z, s, **kw)

    monkeypatch.setattr(walkfluct.fluct, "find_kernel_roots", counting_find)
    grid = [(0.4, 0.7), (0.6 + 0.2j, 1.0 - 0.4j), (0.9, 2.5)]
    for z, s in grid:
        a = busy_period_rational(walk_functionals(model), z, s)
        b = busy_period_rational(walk_functionals(plain), z, s)
        assert abs(a.value - b.value) < 1e-13
        assert a.abs_err == pytest.approx(b.abs_err, rel=1e-9)
    assert calls.count(True) <= len(grid) + 1
    assert calls.count(False) == 2 * len(grid)


# --- tol gates the returned transform ----------------------------------------


def test_no_convergence_carries_the_transform(mm1, spec):
    # the gate reads the error of the transform itself, and the exception
    # carries that transform and its error
    tv = busy_period_transform(mm1, 0.5, 0.5, spec)
    tight = dataclasses.replace(spec, tol=tv.abs_err / 2)
    with pytest.raises(NoConvergence) as info:
        busy_period_transform(mm1, 0.5, 0.5, tight)
    assert info.value.best == tv.value
    assert info.value.abs_err == tv.abs_err


def test_max_tol_scaled_by_one_minus_z(models, spec):
    # sum_n z^n E e^{-s M_n} grows like 1/(1 - z); tol applies to
    # (1 - z) times it, so this point returns although abs_err > tol
    wf = walk_functionals(models["markov_2state"])
    z = 0.93
    tv = transient_max_transform(wf, z, 1.7, spec)
    assert tv.abs_err > spec.tol
    assert (1 - z) * tv.abs_err <= spec.tol


_DET_UNIFORM = build_product_model(Deterministic(0.7), Uniform(0.2, 2.0),
                                   label="det_uniform")


@pytest.mark.parametrize("z,s", [(0.3, 0.5), (0.5 + 0.3j, 0.8 - 0.6j), (0.6, 3.0)])
@pytest.mark.parametrize("functional", ["busy", "idle", "steps"])
def test_det_uniform_contour_at_default_spec(spec, functional, z, s):
    # the non-rational walk returns at the default spec, and its error
    # covers the gap to a finer ladder; each wrapper is the joint transform
    # at its point (s, 0), (0, -s) or (0, 0)
    wf = walk_functionals(_DET_UNIFORM)
    call, (s1, s2) = {"busy": (lambda sp: busy_period_transform(wf, z, s, sp), (s, 0.0)),
                      "idle": (lambda sp: idle_period_transform(wf, z, s, sp), (0.0, -s)),
                      "steps": (lambda sp: steps_pgf(wf, z, sp), (0.0, 0.0))}[functional]
    tv = call(spec)
    joint = first_descent_transform(wf, z, s1, s2, spec)
    assert abs(tv.value - joint.value) <= 1e-15 * (1.0 + abs(joint.value))
    assert abs(tv.abs_err - joint.abs_err) <= 1e-15 * (1.0 + abs(joint.value))
    ref = call(ContourSpec(T=480.0, nodes=32))
    assert abs(tv.value - ref.value) <= tv.abs_err + ref.abs_err


@pytest.mark.xfail(strict=True, raises=NoConvergence,
                   reason="CHANGES.md line 'fluct.wienerhopf_factors on "
                          "Deterministic(0.7)/Uniform(0.2, 2) raises NoConvergence'")
def test_det_uniform_wienerhopf_at_default_spec(spec):
    # the ladder error at (0.7, 0) is 1.2e-5 against tol 1e-5; at tol 1e-4 the
    # factorization residual is 3.4e-6
    _, _, residual = wienerhopf_factors(walk_functionals(_DET_UNIFORM), 0.7, 0.0, spec)
    assert residual <= spec.tol


def test_mm1_contour_errors_are_honest(mm1, mm1_refs, spec):
    # 40 seeded random complex (z, s) points: every functional returns a
    # value within its reported abs_err of the closed form
    rng = np.random.default_rng(2026)
    for _ in range(40):
        z = 0.99 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        s = complex(0.01 + 2.99 * rng.random(), 5.0 * (2.0 * rng.random() - 1.0))
        for tv, ref in ((busy_period_transform(mm1, z, s, spec), mm1_refs.busy(z, s)),
                        (idle_period_transform(mm1, z, s, spec), mm1_refs.idle(z, s)),
                        (steps_pgf(mm1, z, spec), mm1_refs.steps(z)),
                        (transient_max_transform(mm1, z, s, spec),
                         mm1_refs.transient_max(z, s))):
            assert abs(tv.value - ref) <= tv.abs_err, (z, s)
    # far from the axis: a subtraction at i Im s that leaves a 1/xi tail
    # fails the ladder from Re s ~ 5
    for z in (0.5, 0.9):
        for s in (5.0, 10.0, 30.0):
            for tv, ref in ((busy_period_transform(mm1, z, s, spec), mm1_refs.busy(z, s)),
                            (idle_period_transform(mm1, z, s, spec), mm1_refs.idle(z, s)),
                            (transient_max_transform(mm1, z, s, spec),
                             mm1_refs.transient_max(z, s))):
                assert abs(tv.value - ref) <= tv.abs_err, (z, s)


@pytest.mark.parametrize("s", [1e-6, 1e-8, 1e-10, 1e-14])
@pytest.mark.parametrize("z", [0.5, 0.9])
def test_mm1_contour_errors_are_honest_at_tiny_s(mm1, mm1_refs, spec, z, s):
    # the descent exponent's pole p = s (or -s) lies within |s| of the axis;
    # each value must still be within its own abs_err of the closed form
    for tv, ref in ((busy_period_transform(mm1, z, s, spec), mm1_refs.busy(z, s)),
                    (idle_period_transform(mm1, z, s, spec), mm1_refs.idle(z, s)),
                    (transient_max_transform(mm1, z, s, spec),
                     mm1_refs.transient_max(z, s))):
        assert abs(tv.value - ref) <= tv.abs_err


# --- the joint first-descent transform -------------------------------------


# Re(s1 + s2) > 0, < 0 and = 0: the three cases of the descent exponent's pole
_JOINT_POINTS = [(0.5, 1.0, -0.4), (0.7, 0.5 + 0.3j, -1.2), (0.4 + 0.3j, 0.8, -0.8 + 0.5j)]


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp", "markov_2state"])
def test_first_descent_transform_matches_series(models, name, spec):
    # genuinely joint (z, s1, s2) points against the shared-path series
    # oracle, with the 4-standard-error rule of acceptance criterion 05
    model = models[name]
    wf = walk_functionals(model)
    for k, (z, s1, s2) in enumerate(_JOINT_POINTS):
        ct = first_descent_transform(wf, z, s1, s2, spec)
        sv = spitzer_series(model, z, s1, s2, n_max=60, paths_per_n=10 ** 5, seed=700 + k)
        tol = max(1e-3, 4.0 * (ct.abs_err + sv.abs_err))
        assert abs(ct.value - sv.value) < tol, (name, z, s1, s2)
