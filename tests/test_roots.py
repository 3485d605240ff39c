"""Left-half-plane zero counting and kernel root certification."""

import dataclasses
import math
import time

import numpy as np
import pytest

from walkfluct import roots
from walkfluct.contour import ContourSpec
from walkfluct.errors import (
    CountMismatch,
    DomainError,
    NoConvergence,
    NonIntegerWinding,
    PreconditionViolated,
    WalkfluctError,
    ZeroOnContour,
)
from walkfluct.fluct import (
    busy_period_rational,
    busy_period_transform,
    invert_to_distribution,
    walk_functionals,
)
from walkfluct.model import (
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
    RationalKernel,
    Uniform,
    build_markov_modulated,
    build_product_model,
    build_threshold_model,
    builtin_models,
)
from walkfluct.roots import (
    _ORDER,
    RootReport,
    _disc_moments,
    _stable_count,
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
    for part in ("kernel evaluations", "root count N = 2 (the kernel degree)", "panel level",
                 "|p_0 - N|"):
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
    sums = _disc_moments(roots._Rows(lambda x, rows: F(x)), np.array([center]),
                         np.array([radius]), np.array([0]))
    for n, got in zip((64, 128), (row[0] for row in sums)):
        v = np.exp(2j * math.pi * np.arange(n) / n)
        vals = F(center + radius * v)
        freq = np.fft.fftfreq(n, 1.0 / n)
        freq[n // 2] = 0.0
        g = np.fft.ifft(1j * freq * np.fft.fft(vals)) / vals
        want = (g @ v[:, None] ** np.arange(_ORDER + 1)) / (1j * n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_companion_route_missing_root_fails_the_degree_count(models):
    # the companion solve loses the root at -3.16; the kernel degree still
    # says two zeros, so the discs settled against it come up one short
    ker = models["markov_2state"].rational

    def drop_one(z, s):
        p = ker.clear_fn(z, s)
        r = np.roots(p)
        lost = np.argmax(np.where(r.real < 0, r.real, -np.inf))  # the rightmost left root
        return p[0] * np.poly(np.delete(r, lost))

    with pytest.raises(CountMismatch, match="root discs hold 1 zeros, the kernel degree is 2"):
        find_kernel_roots(dataclasses.replace(ker, clear_fn=drop_one), 0.9, 0.0)


def test_certificate_agrees_with_the_full_count():
    # the one half-disc count against three agreeing counts under radius
    # doubling, offset at most 0.05 from the axis
    rng = np.random.default_rng(2026)
    for trial in range(10):
        mdl = random_rational_model(rng)
        for j in range(3):
            z, s = regime_point(rng, j % 2)
            rep = find_kernel_roots(mdl.rational, z, s)
            F = lambda xi: mdl.rational.eval_shifted(xi, z, s)
            full = _stable_count(F, rep.contour_radius, min(rep.contour_offset_eps, 0.05))
            assert rep.count_argument_principle == full, (
                f"trial {trial}: {mdl.label} at z={z:.3f}, s={s:.3f}")


def _count_kernel_points(monkeypatch) -> list:
    used = []
    plain = RationalKernel.eval_shifted

    def counted(self, xi, z, s):
        used.append(np.size(xi))
        return plain(self, xi, z, s)

    monkeypatch.setattr(RationalKernel, "eval_shifted", counted)
    return used


def test_markov_find_spends_few_kernel_points(models, monkeypatch):
    # certified by three doubling half-disc counts, this find took about
    # 129,000 kernel points, and 2,311 while an enclosing rectangle recounted
    # the kernel degree
    used = _count_kernel_points(monkeypatch)
    rep = find_kernel_roots(models["markov_2state"].rational,
                            0.65 * np.exp(0.3j), 1.0 + 0.2j)
    assert rep.count_argument_principle == 2
    assert sum(used) <= 2_000


def test_mm1_invert_spends_few_kernel_points(monkeypatch):
    # a fresh kernel, so the base roots are found here too; with separate
    # coarse and dense winding grids this took 145,260 kernel points, and
    # 117,612 while an enclosing rectangle recounted the kernel degree
    wf = walk_functionals(builtin_models()["product_mm1"])
    used = _count_kernel_points(monkeypatch)
    invert_to_distribution(lambda s: busy_period_rational(wf, 1.0, s).value, [1.0])
    assert sum(used) <= 70_000


def test_half_disc_count_reads_one_dense_grid():
    # n0 = 256 seeds: the coarse pass reads every 4th of the 1,024 dense
    # samples, where it once evaluated its own 256 first
    seen = []

    def F(xi):
        seen.append(np.size(xi))
        return xi + 1.0

    assert count_left_zeros(F, 3.0, 0.3) == 1
    assert sum(seen) == 1024


def _fake_windings(monkeypatch, count) -> list:
    sizes = []

    def fake(F, to_point, rows, ts, vals):
        assert vals.shape == (rows.size, ts.size)
        sizes.append(ts.size)
        return np.full(rows.size, float(count(ts.size)))

    monkeypatch.setattr(roots, "_windings", fake)
    return sizes


def _circle(ts, rows):
    return np.exp(2j * math.pi * np.asarray(ts)) * np.ones((len(rows), 1))


_IDENTITY = roots._Rows(lambda xi, rows: xi)


def test_density_disagreement_reseeds(monkeypatch):
    # n0 and 4 n0 disagree, 4 n0 and 16 n0 agree: one reseed, and the
    # 4 n0 pass is not run twice
    sizes = _fake_windings(monkeypatch, lambda n: 0 if n == 64 else 1)
    assert roots._verified_winding(_IDENTITY, _circle, np.array([64])) == [1]
    assert sizes == [64, 256, 1024]


def test_density_certificate_raises_at_the_cap(monkeypatch):
    sizes = _fake_windings(monkeypatch, lambda n: n)
    with pytest.raises(NonIntegerWinding, match="keeps changing"):
        roots._verified_winding(_IDENTITY, _circle, np.array([128]))
    assert sizes == [128, 512, 2048, 8192, 32768]


def test_moment_box_doubles_until_it_holds_the_degree(models, monkeypatch):
    # a Fujiwara radius 20x too small gives a first box R = 1 that misses a
    # zero; R doubles to 2 and 4, and the box three times the roots' spread
    # then refines the same roots
    kernel = models["threshold_exp"].rational
    assert kernel.clear_fn is None
    plain = find_kernel_roots(kernel, 0.5, 1.0)
    bound, box = roots._coeff_bound, roots._box_roots
    boxes = []

    def seen(F, x0, x1, y0, y1, count, noise):
        boxes.append((x0, x1, y0, y1))
        return box(F, x0, x1, y0, y1, count, noise)

    monkeypatch.setattr(roots, "_coeff_bound", lambda *a: 0.05 * bound(*a))
    monkeypatch.setattr(roots, "_box_roots", seen)
    rep = find_kernel_roots(kernel, 0.5, 1.0)
    assert boxes[:3] == [(-R, -1e-6, -R, R) for R in (1.0, 2.0, 4.0)]
    assert len(boxes) == 4 and boxes[3][0] != -4.0
    assert rep.count_argument_principle == plain.count_argument_principle == kernel.degree
    assert max(abs(a - b) for a, b in zip(rep.roots, plain.roots)) <= 1e-12


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp"])
@pytest.mark.parametrize("z, s", [(math.nan, 0.5), (0.5, math.nan), (0.5, math.inf),
                                  (complex(math.inf, math.inf), 0.5)])
def test_non_finite_point_raises_a_typed_error(models, name, z, s):
    # the companion solve once met a NaN polynomial here and raised LinAlgError
    kernel = models[name].rational
    with pytest.raises(DomainError, match="must be finite"):
        find_kernel_roots(kernel, z, s)
    with pytest.raises(DomainError, match="must be finite"):
        verify_rouche(kernel, z, s)


def test_kernel_with_a_right_zero_in_h2_fails_the_degree_count():
    # M/M/1 times (xi - 3): h2 = (xi - 3)(xi + 2) has degree 2 but one left
    # zero, so no find may settle for one root
    ker = RationalKernel(C1=[[0, 2], [0, -6]], C2=[[1, 0], [-1, 0], [-6, 0]],
                         basis=lambda s2: [1 / (1 + s2)])
    assert ker.degree == 2
    for z, s in [(0.5, 0.5), (0.0, 0.7), (0.9, 1j)]:
        t0 = time.monotonic()
        with pytest.raises(CountMismatch):
            find_kernel_roots(ker, z, s)
        assert time.monotonic() - t0 < 1.0
