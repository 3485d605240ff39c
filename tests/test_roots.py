"""Left-half-plane zero counting and kernel root certification."""

import math
import time

import numpy as np
import pytest

from walkfluct.contour import ContourSpec
from walkfluct.errors import (
    CountMismatch,
    NoConvergence,
    NonIntegerWinding,
    PreconditionViolated,
    WalkfluctError,
    ZeroOnContour,
)
from walkfluct.fluct import busy_period_rational, busy_period_transform, walk_functionals
from walkfluct.model import (
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
    Uniform,
    build_markov_modulated,
    build_product_model,
    build_threshold_model,
)
from walkfluct.roots import (
    _ORDER,
    RootReport,
    _disc_moments,
    count_left_zeros,
    find_kernel_roots,
    verify_rouche,
)


def test_count_explicit_zeros():
    assert count_left_zeros(lambda x: (x + 1.0) ** 2, 3.0, 0.3) == 2
    assert count_left_zeros(lambda x: x - 1.0, 3.0, 0.3) == 0
    F = lambda x: (x + 1) * (x + 2) * (x + 0.7 + 0.9j)
    assert count_left_zeros(F, 8.0, 0.2) == 3


def test_count_invariant_under_radius_doubling():
    F = lambda x: (x + 1) * (x + 2) * (x + 0.7 + 0.9j)
    for radius in (6.0, 12.0, 24.0):
        assert count_left_zeros(F, radius, 0.2) == 3
    # zeros outside the smaller arc get picked up only once they fit
    assert count_left_zeros(lambda x: (x + 1) * (x + 30), 5.0, 0.2) == 1
    assert count_left_zeros(lambda x: (x + 1) * (x + 30), 80.0, 0.2) == 2


def test_zero_on_contour_detected():
    with pytest.raises(ZeroOnContour):
        count_left_zeros(lambda x: x + 0.3, 3.0, 0.3)


def test_branch_cut_gives_non_integer_winding():
    # sqrt has winding 1/2 around its branch point, never an integer
    with pytest.raises(NonIntegerWinding):
        count_left_zeros(lambda x: np.sqrt(x + 1.5 + 0j), 3.0, 0.3)


def test_mm1_kernel_roots(models):
    ker = models["product_mm1"].rational
    z, s = 0.5, 0.5
    rep = find_kernel_roots(ker, z, s)
    xi1 = ((1 + s - 2) - math.sqrt((1 + 2 + s) ** 2 - 4 * z * 2)) / 2.0
    assert rep.count_argument_principle == 1
    assert rep.roots[0] == pytest.approx(xi1, abs=1e-10)
    assert rep.residuals[0] < 1e-10

    rep0 = find_kernel_roots(ker, 0.0, s)
    assert rep0.roots[0] == pytest.approx(-2.0, abs=1e-10)

    rep1 = find_kernel_roots(ker, 1.0, 0.0, stable_drift=True)
    assert rep1.roots[0] == pytest.approx(-1.0, abs=1e-8)


def test_preconditions(models):
    ker = models["product_mm1"].rational
    with pytest.raises(PreconditionViolated):
        find_kernel_roots(ker, 1.0, 0.0)  # z=1, s=0 needs the drift flag
    with pytest.raises(PreconditionViolated):
        find_kernel_roots(ker, 1.2, 0.5)
    with pytest.raises(PreconditionViolated):
        find_kernel_roots(ker, 0.5, -0.2)


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp", "markov_2state"])
def test_builtin_kernel_roots_certified(models, name):
    ker = models[name].rational
    rep = find_kernel_roots(ker, 0.5, 0.7)
    assert rep.count_argument_principle == ker.degree
    assert max(rep.residuals) < 1e-8
    assert list(rep.roots) == sorted(rep.roots, key=lambda r: (r.real, r.imag))
    for r in rep.roots:
        assert r.real < -rep.contour_offset_eps / 2
        assert abs(complex(ker.eval_shifted(r, 0.5, 0.7))) < 1e-8


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp", "markov_2state"])
def test_rouche_builtins(models, name):
    ker = models[name].rational
    n_h2, n_shifted, equal = verify_rouche(ker, 0.5, 0.7)
    assert equal
    assert n_h2 == ker.degree == n_shifted


def test_rouche_boundary_z(models):
    n_h2, n_shifted, equal = verify_rouche(models["product_mm1"].rational, 1.0, 0.5)
    assert equal and n_h2 == 1


def test_root_report_validation():
    with pytest.raises(ValueError):
        RootReport(roots=(-1.0 + 0j,), residuals=(0.0, 0.0),
                   count_argument_principle=1, contour_radius=4.0,
                   contour_offset_eps=0.1)
    with pytest.raises(ValueError):
        RootReport(roots=(-1.0 + 0j, -2.0 + 0j), residuals=(0.0, 0.0),
                   count_argument_principle=1, contour_radius=4.0,
                   contour_offset_eps=0.1)
    with pytest.raises(ValueError):
        RootReport(roots=(-0.01 + 0j,), residuals=(0.0,),
                   count_argument_principle=1, contour_radius=4.0,
                   contour_offset_eps=0.1)


def random_rational_model(rng: np.random.Generator):
    """A random model whose kernel is rational in s1: product, Markov
    modulated, or threshold, with mixed a-laws."""
    def b_law():
        pick = rng.integers(0, 3)
        if pick == 0:
            return Exponential(0.5 + 3.5 * rng.random())
        if pick == 1:
            return Erlang(int(rng.integers(2, 4)), 1.0 + 3.0 * rng.random())
        p = 0.2 + 0.6 * rng.random()
        return Hyperexponential((p, 1 - p),
                                (0.5 + rng.random(), 2.0 + 3.0 * rng.random()))

    def a_law():
        if rng.random() < 0.3:
            lo = 0.1 + rng.random()
            return Uniform(lo, lo + 0.5 + 2.0 * rng.random())
        return Exponential(0.4 + 2.0 * rng.random())

    kind = rng.integers(0, 4)
    if kind == 3:
        return build_threshold_model(b_law(), b_law(), a_law(),
                                     0.5 + 1.5 * rng.random())
    if kind == 2:
        m = int(rng.integers(1, 4))
        raw = rng.random((m, m))
        T = 0.8 * raw / raw.sum(axis=1, keepdims=True)
        t = 1.0 - T.sum(axis=1)
        alpha = rng.random(m)
        alpha /= alpha.sum()
        return build_markov_modulated(alpha, T, t, b_law(), a_law())
    return build_product_model(b_law(), a_law())


def regime_point(rng: np.random.Generator, regime: int) -> tuple[complex, complex]:
    """Draw (z, s) in one of the two precondition regimes of the counting argument."""
    if regime == 0:
        # |z| < 1 with Re s >= 0, including the axis itself
        z = 0.9 * rng.random() * np.exp(2j * math.pi * rng.random())
        s = 1j * rng.uniform(-3.0, 3.0) if rng.random() < 0.5 \
            else rng.uniform(0.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
    else:
        # |z| <= 1 including the boundary circle, with Re s > 0
        z = np.exp(2j * math.pi * rng.random())
        if rng.random() < 0.3:
            z *= rng.random()
        s = rng.uniform(0.1, 2.0) + 1j * rng.uniform(-2.0, 2.0)
    return complex(z), complex(s)


def test_random_kernels_count_equals_degree():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        mdl = random_rational_model(rng)
        z, s = regime_point(rng, trial % 2)
        rep = find_kernel_roots(mdl.rational, z, s)
        assert rep.count_argument_principle == mdl.rational.degree, (
            f"trial {trial}: {mdl.label} at z={z:.3f}, s={s:.3f}")
        assert max(rep.residuals) < 1e-8 * max(
            1.0, abs(complex(mdl.rational.eval_shifted(0.0, z, s))))
        for r in rep.roots:
            assert sum(abs(r - d.center) < d.radius for d in rep.discs) == 1


def test_erlang_det_busy_returns_promptly():
    # the base kernel at z = 0 has a 4-fold root at -8; a locator without a
    # work bound never returned here
    wf = walk_functionals(build_product_model(Erlang(4, 8.0), Deterministic(1.0)))
    t0 = time.monotonic()
    try:
        rt = busy_period_rational(wf, 0.3, 0.5)
    except WalkfluctError:
        rt = None
    assert time.monotonic() - t0 < 5.0
    if rt is not None:
        ct = busy_period_transform(wf, 0.3, 0.5, ContourSpec())
        assert abs(rt.value - ct.value) <= 4.0 * (rt.abs_err + ct.abs_err)


def test_zero_just_off_the_locator_contour(models):
    # at z = 1, s = 0 the kernel vanishes at xi = 0, 1e-6 from the right edge
    # of the moment contour, where rounding noise in F limits every panel
    ker = models["threshold_exp"].rational
    t0 = time.monotonic()
    rep = find_kernel_roots(ker, 1.0, 0.0, stable_drift=True)
    assert time.monotonic() - t0 < 2.0
    assert rep.count_argument_principle == ker.degree
    assert max(rep.residuals) < 1e-8


def test_locator_budget_exhaustion_raises(models, monkeypatch):
    monkeypatch.setattr("walkfluct.roots._LOCATE_BUDGET", 10)
    t0 = time.monotonic()
    with pytest.raises((NoConvergence, CountMismatch)) as info:
        find_kernel_roots(models["threshold_exp"].rational, 0.5, 0.7)
    assert time.monotonic() - t0 < 1.0
    # the message carries what is needed to explain the failure afterwards
    for part in ("kernel evaluations", "enclosing count N", "panel level", "|p_0 - N|"):
        assert part in str(info.value)


def test_repeated_roots_come_back_with_multiplicity():
    # at z = 0 the kernel is the Erlang(3) denominator: a 3-fold root at -2.5
    ker = build_product_model(Erlang(3, 2.5), Uniform(0.3, 1.5)).rational
    rep = find_kernel_roots(ker, 0.0, 0.6)
    assert len(rep.roots) == 3
    assert rep.count_argument_principle == ker.degree
    for r in rep.roots:
        assert abs(r + 2.5) < 1e-3
    assert rep.product_err(0.6) < 1e-9


def test_near_triple_roots_error_is_honest():
    # at z = 0 the kernel has two triple roots 0.11 apart, whose discs sit in
    # rounding noise; the busy value must still agree within its error
    wf = walk_functionals(build_threshold_model(
        Erlang(3, 3.04), Erlang(3, 2.93), Exponential(1.43), 1.39))
    z, s = -0.72 + 0.29j, 1.8 + 0.23j
    rt = busy_period_rational(wf, z, s)
    ct = busy_period_transform(wf, z, s, ContourSpec())
    assert abs(rt.value - ct.value) <= 4.0 * (rt.abs_err + ct.abs_err)


def test_disc_moments_match_the_power_matrix_sum():
    # the moments are (1/n) sum_j g_j v_j^k, read through the inverse FFT
    # from one evaluation at 128 nodes; the power-matrix product below is
    # the same sum written out, with F evaluated at each node count
    F = lambda x: (x + 1.0) * (x + 1.2 - 0.3j) * (x + 3.0) * np.exp(0.2 * x)
    center, radius = -1.1 + 0.1j, 0.5
    for n, got in zip((64, 128), _disc_moments(F, center, radius)):
        v = np.exp(2j * math.pi * np.arange(n) / n)
        vals = F(center + radius * v)
        freq = np.fft.fftfreq(n, 1.0 / n)
        freq[n // 2] = 0.0
        g = np.fft.ifft(1j * freq * np.fft.fft(vals)) / vals
        want = (g @ v[:, None] ** np.arange(_ORDER + 1)) / (1j * n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
