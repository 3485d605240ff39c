"""Axis quadrature: Cauchy trichotomy, exponent formulas, the truncation ladder."""

import cmath
import math

import numpy as np
import pytest

from walkfluct import contour
from walkfluct.contour import (
    ContourSpec,
    TransformValue,
    _band,
    _panel_edges,
    pv_axis,
    pv_axis_singular,
)
from walkfluct.errors import EvalError, HoelderSuspect

LAM, MU = 1.0, 2.0
TWO_PI_I = 2j * math.pi


def _h(s1, s2):
    return (MU / (MU + s1)) * (LAM / (LAM + s2))


def _xi1_zs(z, s):
    return ((LAM + s - MU) - cmath.sqrt((LAM + MU + s) ** 2 - 4 * z * LAM * MU)) / 2


def _xi_pair_z(z):
    r = cmath.sqrt((LAM + MU) ** 2 - 4 * z * LAM * MU)
    return ((LAM - MU) - r) / 2, ((LAM - MU) + r) / 2


def test_trichotomy_interior(spec):
    v = pv_axis(lambda xi: 1.0 / (xi - (-1.0)), spec, asymptotic_coeff=1.0)
    assert v.value == pytest.approx(TWO_PI_I, abs=1e-6)


def test_trichotomy_exterior(spec):
    v = pv_axis(lambda xi: 1.0 / (xi - 1.0), spec, asymptotic_coeff=1.0)
    assert v.value == pytest.approx(0.0, abs=1e-6)


def test_trichotomy_on_axis(spec):
    v = pv_axis_singular(lambda xi: np.ones_like(xi), 0.5j, spec,
                         phi_at_infinity=1.0)
    assert v.value == pytest.approx(0.0, abs=1e-4)


def test_odd_density_integrates_to_zero(spec):
    v = pv_axis(lambda xi: xi * np.exp(xi ** 2), spec, asymptotic_coeff=0.0)
    assert abs(v.value) < 1e-9


def test_busy_exponent(spec):
    z, s = 0.5, 0.5
    want = cmath.log((s - _xi1_zs(z, s)) / (s + MU))
    v = pv_axis(lambda xi: np.log(1 - z * _h(xi, s - xi)) / (s - xi), spec,
                asymptotic_coeff=0.0, refine_near=(0.0, s))
    assert v.value / TWO_PI_I == pytest.approx(want, abs=1e-7)


def test_idle_exponent(spec):
    z, s = 0.5, 1.0
    _, xi2 = _xi_pair_z(z)
    want = cmath.log((s + xi2) / (s + LAM))
    v = pv_axis(lambda xi: np.log(1 - z * _h(xi, -xi)) / (s + xi), spec,
                asymptotic_coeff=0.0, refine_near=(0.0, s))
    assert v.value / TWO_PI_I == pytest.approx(want, abs=1e-7)


def test_steps_exponent_singular_at_zero(spec):
    z = 0.5
    xi1, _ = _xi_pair_z(z)
    want = cmath.log(MU / (-xi1))
    v = pv_axis_singular(lambda xi: np.log(1 - z * _h(xi, -xi)), 0.0, spec,
                         phi_at_infinity=0.0)
    assert v.value / TWO_PI_I == pytest.approx(want, abs=1e-7)


def test_max_exponent(spec):
    z, s = 0.5, 1.0
    xi1, _ = _xi_pair_z(z)
    want = cmath.log((MU + s) / (s - xi1))
    v = pv_axis(lambda xi: np.log(1 - z * _h(xi, -xi)) / (xi - s), spec,
                asymptotic_coeff=0.0, refine_near=(0.0, s))
    assert v.value / TWO_PI_I == pytest.approx(want, abs=1e-7)


def test_plus_factor_exponent_on_axis(spec):
    z, s = 0.5, 0.5j
    xi1, _ = _xi_pair_z(z)
    want = cmath.log((MU + s) / (s - xi1))
    v = pv_axis_singular(lambda xi: np.log(1 - z * _h(xi, -xi)), s, spec,
                         phi_at_infinity=0.0)
    assert v.value / TWO_PI_I == pytest.approx(want, abs=1e-7)


def test_reported_error_covers_truth_on_closed_forms(spec):
    z, s = 0.4, 0.8
    want = TWO_PI_I * cmath.log((s - _xi1_zs(z, s)) / (s + MU))
    v = pv_axis(lambda xi: np.log(1 - z * _h(xi, s - xi)) / (s - xi), spec,
                asymptotic_coeff=0.0, refine_near=(0.0, s))
    assert abs(v.value - want) <= 5 * v.abs_err


def test_richardson_levels_improve_truncation():
    # the extrapolated ladder beats the single closed [0, T] truncation
    dens = lambda xi: 1.0 / (xi - (-1.0))
    spec = ContourSpec(T=40.0, nodes=8, tol=1.0)
    flat = 1j * complex(np.sum(_band(dens, 0.0, spec.T, spec.nodes, None))) + 1j * math.pi
    deep = pv_axis(dens, spec, asymptotic_coeff=1.0)
    assert abs(deep.value - TWO_PI_I) < abs(flat - TWO_PI_I)


def test_ladder_evaluates_each_node_once():
    # the truncations at T, 2T and 4T share their nodes: 4T unit panels on
    # each half-axis, not T + 2T + 4T
    seen = []

    def dens(xi):
        seen.append(xi.size)
        return 1.0 / (xi + 1.0)

    pv_axis(dens, ContourSpec(T=120.0, nodes=24), asymptotic_coeff=1.0)
    assert sum(seen) == 2 * 480 * 24 == 23_040


@pytest.mark.parametrize("refine_near, points", [
    (None, 2 * 24 * 480),
    ((30.5, 1e-3), 24_528),  # 31 panels more than the plain layout
])
def test_node_layout_point_count(refine_near, points):
    count = 0

    def dens(xi):
        nonlocal count
        count += xi.size
        return 1.0 / (xi - (-1e-3 + 30.5j))

    pv_axis(dens, ContourSpec(), asymptotic_coeff=1.0, refine_near=refine_near)
    assert count == points


def _panel_edges_by_set(lo, hi, refine_near):
    # the set-and-sort construction the array version replaced
    n = max(1, math.ceil(hi - lo))
    edges = set(np.linspace(lo, hi, n + 1).tolist())
    if refine_near is not None:
        y0, scale = abs(refine_near[0]), abs(refine_near[1])
        if 0.0 < scale < 1.0:
            pts = [y0]
            off = scale / 16.0
            while off <= 2.0:
                pts.append(y0 - off)
                pts.append(y0 + off)
                off *= 2.0
            edges.update(p for p in pts if lo < p < hi)
    out = np.array(sorted(edges))
    keep = np.concatenate(([True], np.diff(out) > 1e-12 * max(hi, 1.0)))
    return out[keep]


def test_panel_edges_match_set_construction():
    rng = np.random.default_rng(7)
    cases = [(0.0, 120.0, None), (120.0, 240.0, None), (0.0, 0.5, None)]
    for _ in range(300):
        lo = float(rng.choice([0.0, 120.0, 240.0, rng.uniform(0.0, 50.0)]))
        hi = lo + float(rng.choice([120.0, 240.0, rng.uniform(0.1, 30.0)]))
        y0 = float(rng.choice([
            lo, hi,                                            # on an end
            lo + rng.uniform(-1e-13, 1e-13), hi + rng.uniform(-1e-13, 1e-13),
            rng.uniform(lo, hi),
            hi + rng.uniform(0.0, 3.0),                        # beyond hi
        ]))
        scale = float(rng.choice([0.0, rng.uniform(1e-4, 1.0), 10 ** rng.uniform(-6, 0),
                                  2.0 ** -int(rng.integers(1, 20)), 1.0, rng.uniform(1.0, 5.0)]))
        # refinement points landing on or next to an end: y0 +- off = lo or hi
        if rng.random() < 0.3 and 0.0 < scale < 1.0:
            off = scale / 16.0 * 2.0 ** int(rng.integers(0, 5))
            y0 = float(rng.choice([lo + off, hi - off, hi + off])) + float(
                rng.choice([0.0, 1e-13, -1e-13]))
        cases.append((lo, hi, (float(rng.choice([y0, -y0])), float(rng.choice([scale, -scale])))))
    for lo, hi, refine_near in cases:
        assert np.array_equal(_panel_edges(lo, hi, refine_near),
                              _panel_edges_by_set(lo, hi, refine_near)), (lo, hi, refine_near)


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_gauss_legendre_rule_is_shared_and_read_only(n):
    x, w = contour._gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    assert contour._gauss_legendre(n)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


@pytest.mark.parametrize("lo, hi, n", [(0.0, 120.0, 24), (240.0, 480.0, 24), (0.0, 0.5, 8)])
def test_band_layout_is_shared_and_read_only(lo, hi, n):
    edges, up, down, ws = contour._layout(lo, hi, n)
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)
    ys = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x[None, :]).ravel()
    assert np.array_equal(edges, _panel_edges(lo, hi, None))
    assert np.array_equal(up, 1j * ys) and np.array_equal(down, -1j * ys)
    assert np.array_equal(ws, (half[:, None] * w[None, :]).ravel())
    assert contour._layout(lo, hi, n)[1] is up
    for arr in (edges, up, down, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_band_layout_cache_is_bounded():
    maxsize = contour._layout.cache_info().maxsize
    first = contour._layout(1000.0, 1001.0, 8)
    for k in range(1, maxsize + 1):
        last = contour._layout(1000.0, 1001.0 + k, 8)
    assert contour._layout(1000.0, 1001.0 + maxsize, 8) is last
    assert contour._layout(1000.0, 1001.0, 8) is not first


@pytest.mark.parametrize("lo, hi, refine_near", [
    (0.0, 120.0, (0.0, 0.5)), (0.0, 120.0, (-0.3, 0.7)), (0.0, 120.0, (30.5, 1e-3)),
    (0.0, 120.0, (5.0, 0.5)),                 # refinement edges on unit edges
    (0.0, 120.0, (4.0 - 1e-13, 0.25)),        # one just below a unit edge, which it displaces
    (120.0, 240.0, (119.5, 0.5)), (0.0, 100.5, (7.3, 0.9)),
])
@pytest.mark.parametrize("conjugate_symmetric", [False, True])
def test_refined_band_terms_match_one_pass_over_its_panels(lo, hi, refine_near,
                                                           conjugate_symmetric):
    # refinement splices its sub-panels into the shared unit layout; the terms
    # are exactly those of one pass over all panels of the refined edges, for
    # a density that sees only the kept unit panels and for one handed the
    # whole layout
    def dens(xi):
        return np.log(1 - 0.6 * _h(xi, -xi)) / (xi - (0.3 + 0.2j))

    def whole(xi):
        return dens(xi)
    whole.whole_layout = True
    edges = _panel_edges(lo, hi, refine_near)
    x, w = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)
    ys = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    upper = dens(1j * ys)
    want = (ws * (2.0 * upper.real + 0j) if conjugate_symmetric
            else ws * (upper + dens(-1j * ys)))
    assert not np.array_equal(edges, contour._layout(lo, hi, 24)[0])
    for f in (dens, whole):
        assert np.array_equal(_band(f, lo, hi, 24, refine_near, conjugate_symmetric), want)


@pytest.mark.parametrize("s, want", [
    (1.0 + 0.5j, 0.0), (1e-9 + 0.5j, 0.0),
    (-1.0 + 0.5j, TWO_PI_I), (-1e-9 + 0.5j, TWO_PI_I),
], ids=["right", "right-near", "left", "left-near"])
def test_singular_trichotomy_off_axis(spec, s, want):
    # the axis integral of 1/(xi - s), closed at infinity, is 0 right of the
    # axis and 2 pi i left of it, however close s lies to the axis
    v = pv_axis_singular(lambda xi: np.ones_like(xi), s, spec,
                         phi_at_infinity=1.0)
    assert v.value == pytest.approx(want, abs=1e-4)


def test_scalar_only_density_rejected(spec):
    # densities are evaluated on whole arrays; one that only takes scalars is
    # an evaluation error, not a cue to switch to point-by-point calls
    with pytest.raises(EvalError):
        pv_axis(lambda xi: 1.0 / (complex(xi) + 1.0), spec, asymptotic_coeff=1.0)


def test_no_convergence_on_hopeless_resolution():
    # a pole at distance 1e-3 from the axis cannot be resolved by unit panels
    # without refinement; the truncation ladder must not report it as settled
    spec = ContourSpec(T=80.0, nodes=8, tol=1e-9)
    v = pv_axis(lambda xi: 1.0 / (xi - (-1e-3 + 30.5j)), spec,
                asymptotic_coeff=1.0)
    assert v.abs_err > 1e-9


def test_near_axis_pole_with_refine_near_is_honest():
    # the axis integral of 1/(xi - p) with Re p < 0, closed at infinity, is
    # 2 pi i; refine_near at the pole's ordinate resolves it at the default spec
    v = pv_axis(lambda xi: 1.0 / (xi - (-1e-3 + 30.5j)), ContourSpec(),
                asymptotic_coeff=1.0, refine_near=(30.5, 0.5))
    assert abs(v.value - 2j * math.pi) <= v.abs_err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md line 'contour.pv_axis under-reports its error when "
                          "a pole lies near the axis and no refine_near is given'")
def test_near_axis_pole_without_refine_near_is_honest():
    # without refine_near the same integral reports abs_err 0.0101 while its
    # error against 2 pi i is 2.99
    v = pv_axis(lambda xi: 1.0 / (xi - (-1e-3 + 30.5j)), ContourSpec(),
                asymptotic_coeff=1.0)
    assert abs(v.value - 2j * math.pi) <= v.abs_err


def test_hoelder_warning_on_jump_density():
    # a jump at s defeats the Hoelder condition outright; loose tol so the
    # quadrature itself still returns
    def phi(xi):
        xi = np.asarray(xi, dtype=complex)
        return np.where(xi.imag > 1.0, 1.0 + 0j, 0j)
    with pytest.warns(HoelderSuspect):
        pv_axis_singular(phi, 1j, ContourSpec(tol=1.0), phi_at_infinity=1.0)


def _counted(phi):
    seen = []

    def wrapped(xi):
        seen.append(np.size(xi))
        return phi(xi)
    return wrapped, seen


@pytest.mark.parametrize("s", [0.65, 0.0, -0.65, 1e-8])
def test_conjugate_symmetric_phi_needs_the_upper_half_axis_only(spec, s):
    # at real z the M/M/1 phi has phi(conj xi) = conj phi(xi), so at a real
    # pole the integrand's terms at -iy are the conjugates of those at +iy
    z = 0.5
    phi = lambda xi: np.log(1 - z * _h(xi, -xi))
    plain, n_plain = _counted(phi)
    reflected, n_reflected = _counted(phi)
    full = pv_axis_singular(plain, s, spec)
    half = pv_axis_singular(reflected, s, spec, conjugate_symmetric=True)
    assert abs(half.value - full.value) <= 1e-15 * (1.0 + abs(full.value))
    assert abs(half.abs_err - full.abs_err) <= 1e-15 * (1.0 + abs(full.value))
    # the smoothness probe at s0 = 0 takes 9 points on both routes
    assert n_plain[0] == n_reflected[0] == 9
    assert sum(n_reflected[1:]) * 2 == sum(n_plain[1:])


def test_poles_of_one_call_share_phi(spec):
    # a tuple of poles gives each pole's scalar value, from one phi table:
    # the bands [T, 2T] and [2T, 4T] are evaluated once, as is the probe at
    # the shared s0 = 0 of the real poles
    z = 0.6 + 0.2j
    phi = lambda xi: np.log(1 - z * _h(xi, -xi))
    poles = (1.0 + 0.3j, 0j, 0.7)
    alone = [pv_axis_singular(phi, p, spec) for p in poles]
    counted, seen = _counted(phi)
    shared = pv_axis_singular(counted, poles, spec)
    assert shared == tuple(alone)
    # the 120 unit panels of [0, T] are evaluated once too; the pole 0 adds
    # only the 6 sub-panels its refinement edges (scale 0.5) split [0, 1]
    # into, and the pole 0.7 the 6 + 2 it splits [0, 1] and [1, 2] into
    assert sum(seen) == 2 * 9 + 2 * 24 * (360 + 120 + 6 + 8)


def test_boundary_values_plemelj_consistency(spec):
    # the Cauchy transform of phi along the axis has the exterior limit
    # pv / (2 pi i) and the interior limit that plus phi(s); check both
    # against direct evaluation off the axis
    z, s = 0.5, 0.7j
    phi = lambda xi: np.log(1 - z * _h(xi, -xi))
    pv = pv_axis_singular(phi, s, spec, phi_at_infinity=0.0)
    exterior = pv.value / TWO_PI_I
    interior = exterior + complex(phi(s))

    def cauchy_at(point):
        return pv_axis(lambda xi: phi(xi) / (xi - point), spec,
                       asymptotic_coeff=0.0,
                       refine_near=(s.imag, 0.01)).value / TWO_PI_I

    for side, sign in ((interior, -1.0), (exterior, 1.0)):
        # linear extrapolation in the offset kills the O(eps) boundary bias
        limit = 2 * cauchy_at(s + sign * 0.01) - cauchy_at(s + sign * 0.02)
        assert side == pytest.approx(limit, abs=2e-3)


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(T=-1.0)
    with pytest.raises(ValueError):
        ContourSpec(nodes=0)
    with pytest.raises(ValueError):
        ContourSpec(T=2.0, nodes=4)  # resolution guard
    with pytest.raises(ValueError):
        ContourSpec(tol=0.0)


def test_transform_value_validation():
    with pytest.raises(ValueError):
        TransformValue(1.0 + 0j, -1.0, "contour")
    with pytest.raises(ValueError):
        TransformValue(1.0 + 0j, 0.0, "guesswork")
    with pytest.raises(ValueError):
        TransformValue(complex("inf"), 0.0, "contour")
    for err in (math.nan, math.inf, np.array([0.0, math.nan]), np.array([0.0, -1e-300])):
        with pytest.raises(ValueError, match="abs_err"):
            TransformValue(np.ones(np.shape(err), dtype=complex), err, "rational")
    with pytest.raises(ValueError, match="value must be finite"):
        TransformValue(np.array([1.0, complex(0, math.nan)]), np.zeros(2), "rational")
    assert TransformValue(np.ones(3, dtype=complex), np.zeros(3), "rational").value.shape == (3,)
