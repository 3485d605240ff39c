"""Increment models: transforms, kernels, samplers, constructors."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from walkfluct.errors import DomainError, InvalidSpec, PoleError
from walkfluct.model import (
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
    IncrementModel,
    RationalKernel,
    Uniform,
    _em,
    _kappa_cdf,
    build_markov_modulated,
    build_product_model,
    build_threshold_model,
    increment_char,
    lst_eval,
)

MODEL_NAMES = ["product_mm1", "threshold_exp", "markov_2state"]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_normalization(models, name):
    assert lst_eval(models[name], 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_mm1_hand_values(models):
    mm1 = models["product_mm1"]
    assert lst_eval(mm1, 1.0, 1.0) == pytest.approx((2 / 3) * (1 / 2), abs=1e-14)
    assert increment_char(mm1, 1j) == pytest.approx((2 / (2 + 1j)) * (1 / (1 - 1j)),
                                                    abs=1e-14)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_char_conjugate_symmetry(models, name):
    for y in (0.3, 1.0, 7.5):
        lo = increment_char(models[name], 1j * y)
        hi = increment_char(models[name], -1j * y)
        assert lo == pytest.approx(hi.conjugate(), abs=1e-13)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_lst_bounded_on_right_halfplanes(models, name):
    pts = [0.0, 0.2, 1.0, 4.0, 0.5 + 2.0j, 3.0 - 1.0j]
    for s1 in pts:
        for s2 in pts:
            assert abs(lst_eval(models[name], s1, s2)) <= 1.0 + 1e-12


def test_product_factorization(models):
    mm1 = models["product_mm1"]
    for s1 in (0.3, 1.0, 2.0 + 1.5j):
        for s2 in (0.1, 0.8 - 0.4j):
            joint = lst_eval(mm1, s1, s2)
            split = lst_eval(mm1, s1, 0.0) * lst_eval(mm1, 0.0, s2)
            assert joint == pytest.approx(split, abs=1e-12)


def _trapezoid(fn, edges, n=400001):
    # composite trapezoid rule over consecutive edges, so no kink or jump of
    # fn falls inside a panel
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        grid = np.linspace(lo, hi, n)
        total += np.trapezoid(fn(grid), grid)
    return total


def _erlang_density(k, rate):
    return lambda x: rate ** k * x ** (k - 1) * np.exp(-rate * x) / math.factorial(k - 1)


def _uniform_density(lo, hi):
    return lambda x: np.full_like(x, 1.0 / (hi - lo))


# A laws for the threshold model at l = 1: (law, density, edges), with the
# edges splitting the support (cut at 60 for unbounded laws) at l; a
# Deterministic law has no density and carries its atom instead
THRESHOLD_A_LAWS = {
    "exp": (Exponential(1.0), lambda x: np.exp(-x), (0.0, 1.0, 60.0)),
    "erlang": (Erlang(2, 2.0), _erlang_density(2, 2.0), (0.0, 1.0, 60.0)),
    "uniform": (Uniform(0.2, 1.9), _uniform_density(0.2, 1.9), (0.2, 1.0, 1.9)),
    "det_below": (Deterministic(0.7), None, None),
    "det_above": (Deterministic(1.3), None, None),
}


@pytest.mark.parametrize("a_key", list(THRESHOLD_A_LAWS))
def test_threshold_lst_matches_quadrature(a_key):
    # independent oracle: integrate f_i(s1) e^{-s2 a} over the law of A, with
    # f1 = Exp(3) below the threshold l = 1 and f2 = Exp(1.2) above it
    a_law, density, edges = THRESHOLD_A_LAWS[a_key]
    thr = build_threshold_model(Exponential(3.0), Exponential(1.2), a_law, 1.0)
    ker = thr.rational
    for s1, s2 in [(0.5, 0.7), (1.0, 2.0), (0.3 + 0.4j, 1.1 - 0.2j)]:
        f1v = 3.0 / (3.0 + s1)
        f2v = 1.2 / (1.2 + s1)
        if density is None:
            want = (f1v if a_law.value <= 1.0 else f2v) * np.exp(-s2 * a_law.value)
        else:
            want = sum(fv * _trapezoid(lambda x: np.exp(-s2 * x) * density(x), seg)
                       for fv, seg in [(f1v, [e for e in edges if e <= 1.0]),
                                       (f2v, [e for e in edges if e >= 1.0])])
        got = lst_eval(thr, s1, s2)
        assert got == pytest.approx(want, abs=5e-9)
        ratio = complex(np.asarray(ker.eval_h1(s1, s2) / ker.eval_h2(s1, s2)).reshape(()))
        assert ratio == pytest.approx(got, abs=1e-12)


def test_threshold_restricted_transform_split(models):
    # with A ~ Exp(1) and l = 1 the two restricted transforms are
    # a1(s2) = (1 - e^{-(1+s2)})/(1+s2) and a2(s2) = e^{-(1+s2)}/(1+s2)
    thr = models["threshold_exp"]
    for s1 in (0.0, 0.8, 2.0 + 1.0j):
        for s2 in (0.0, 0.6, 1.5 - 0.7j):
            a1 = (1 - np.exp(-(1 + s2))) / (1 + s2)
            a2 = np.exp(-(1 + s2)) / (1 + s2)
            want = 3.0 / (3.0 + s1) * a1 + 1.2 / (1.2 + s1) * a2
            assert lst_eval(thr, s1, s2) == pytest.approx(want, abs=1e-13)


def _random_chain(m: int, seed: int):
    rng = np.random.default_rng(seed)
    alpha = rng.dirichlet(np.ones(m))
    T = rng.random((m, m))
    T *= rng.uniform(0.2, 0.8, (m, 1)) / T.sum(axis=1, keepdims=True)
    return alpha, T, 1.0 - T.sum(axis=1)


@pytest.mark.parametrize("m", [0, 1, 2, 3], ids=["builtin", "m1", "m2", "m3"])
def test_markov_lst_matches_geometric_series(models, m):
    # condition on the visit count kappa: h = sum_k P(kappa = k) x^k with
    # x = f(s1) g(s2); the chains are small enough to sum directly.  The
    # resolvent x alpha (I - xT)^{-1} t, solved directly, is a second reference
    if m == 0:
        mar = models["markov_2state"]
        alpha, T = np.array([0.6, 0.4]), np.array([[0.3, 0.2], [0.1, 0.4]])
        t = np.array([0.5, 0.5])
    else:
        alpha, T, t = _random_chain(m, seed=10 + m)
        mar = build_markov_modulated(alpha, T, t, Exponential(5.0), Exponential(2.0))
    # the last point has Re s1 < 0, inside the kernel continuation
    for s1, s2 in [(0.5, 0.7), (1.0, 0.2), (0.9 + 0.3j, 0.4), (0.5 + 0.2j, 0.7 - 0.4j),
                   (1.0 - 2.0j, 0.2 + 3.0j), (-0.4 + 0.3j, 0.2 + 0.1j)]:
        x = (5.0 / (5.0 + s1)) * (2.0 / (2.0 + s2))
        acc, probs = 0j, alpha.copy()
        for k in range(1, 400):
            acc += (probs @ t) * x ** k
            probs = probs @ T
        got = lst_eval(mar, s1, s2)
        assert got == pytest.approx(acc, abs=1e-12)
        want = x * alpha @ np.linalg.solve(np.eye(len(alpha)) - x * T, t)
        assert abs(got - want) <= 1e-13


def test_single_state_markov_reduces_to_product():
    one = build_markov_modulated([1.0], [[0.0]], [1.0],
                                 Exponential(5.0), Exponential(2.0))
    assert lst_eval(one, 0.7, 0.9) == pytest.approx((5 / 5.7) * (2 / 2.9), abs=1e-12)


def test_markov_sampler_simulates_slow_chains():
    # the visit count kappa of this chain has tail 4.1e-12 after 65,536 terms,
    # too heavy to tabulate, so the sampler walks the chain instead
    mdl = build_markov_modulated([1.0], [[0.9996]], [0.0004],
                                 Exponential(6.25), Exponential(2.0))
    assert mdl.mean_b == pytest.approx(400.0, rel=1e-9)
    b, a = mdl.sampler(np.random.default_rng(3), 2000)
    assert abs(b.mean() - mdl.mean_b) < 4.0 * b.std() / math.sqrt(b.size)
    b2, a2 = mdl.sampler(np.random.default_rng(3), 2000)
    assert np.array_equal(b, b2) and np.array_equal(a, a2)


def test_kappa_cdf_stops_on_the_true_tail():
    # the tail alpha T^k 1 is read directly; 1 - sum p_k would stall near
    # 1e-16 from rounding and run a geometric(0.01) count to the table's cap
    cdf = _kappa_cdf(np.array([1.0]), np.array([[0.99]]), np.array([0.01]))
    assert len(cdf) == 3666 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)
    # the tail 0.9995^k stays above 1e-16 past the 65,536-term cap: no table
    assert _kappa_cdf(np.array([1.0]), np.array([[0.9995]]), np.array([0.0005])) is None
    two = _kappa_cdf(np.array([0.6, 0.4]), np.array([[0.3, 0.2], [0.1, 0.4]]),
                     np.array([0.5, 0.5]))
    assert len(two) == 54


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_kernel_ratio_matches_lst(models, name):
    ker = models[name].rational
    for s1 in (0.3, 1.0, 2.0 + 1.5j, 0.1j):
        for s2 in (0.0, 0.8, 1.7 - 0.6j):
            got = complex(np.asarray(ker.eval_h1(s1, s2) / ker.eval_h2(s1, s2)).reshape(()))
            assert got == pytest.approx(lst_eval(models[name], s1, s2), abs=1e-12)


@pytest.mark.parametrize("name", ["product_mm1", "markov_2state"])
def test_cleared_polynomial_roots_solve_kernel(models, name):
    ker = models[name].rational
    z, s = 0.5, 0.7
    roots = np.roots(ker.clear_fn(z, s))
    left = [r for r in roots if r.real < -1e-9]
    assert len(left) == ker.degree
    for r in left:
        assert abs(complex(ker.eval_shifted(r, z, s))) < 1e-9


def test_mm1_cleared_root_closed_form(models):
    z, s = 0.5, 0.5
    want = ((1 + s - 2) - math.sqrt((1 + 2 + s) ** 2 - 4 * z * 2)) / 2
    roots = np.roots(models["product_mm1"].rational.clear_fn(z, s))
    got = min(roots, key=lambda r: abs(r - want))
    assert got == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(-1.6861406616345072, abs=1e-12)


# product walks whose samplers draw from the other four families
_SAMPLER_PRODUCTS = {
    "erlang_hyperexp": (Erlang(3, 6.0), Hyperexponential((0.3, 0.7), (1.0, 4.0))),
    "det_uniform": (Deterministic(0.7), Uniform(0.2, 2.0)),
}


@pytest.mark.parametrize("name", MODEL_NAMES + list(_SAMPLER_PRODUCTS))
def test_sampler_moments_and_empirical_lst(models, name):
    mdl = models[name] if name in models else build_product_model(*_SAMPLER_PRODUCTS[name])
    rng = np.random.default_rng(7)
    b, a = mdl.sampler(rng, 200_000)
    assert (b >= 0).all() and (a >= 0).all()
    nsq = math.sqrt(b.size)
    for x, mean in ((b, mdl.mean_b), (a, mdl.mean_a)):
        if x.std() == 0.0:
            # a deterministic law: every draw is the mean itself
            assert (x == mean).all()
        else:
            assert abs(x.mean() - mean) < 4.5 * x.std() / nsq
    w = np.exp(-0.8 * b - 0.5 * a)
    assert abs(w.mean() - lst_eval(mdl, 0.8, 0.5)) < 4.5 * w.std() / nsq


def test_threshold_sampler_conditional_laws(models):
    rng = np.random.default_rng(12)
    b, a = models["threshold_exp"].sampler(rng, 200_000)
    below = a <= 1.0
    assert abs(b[below].mean() - 1 / 3) < 4.5 * b[below].std() / math.sqrt(below.sum())
    rest = ~below
    assert abs(b[rest].mean() - 1 / 1.2) < 4.5 * b[rest].std() / math.sqrt(rest.sum())


def test_sample_increment_deterministic(models):
    for mdl in models.values():
        b1, a1 = mdl.sampler(np.random.default_rng(99), 1)
        b2, a2 = mdl.sampler(np.random.default_rng(99), 1)
        assert (b1[0], a1[0]) == (b2[0], a2[0])
        assert b1[0] >= 0 and a1[0] >= 0


@pytest.mark.parametrize("law, density, support", [
    (Exponential(1.3), _erlang_density(1, 1.3), (0.0, math.inf)),
    (Erlang(3, 2.0), _erlang_density(3, 2.0), (0.0, math.inf)),
    (Hyperexponential((0.3, 0.7), (1.0, 4.0)),
     lambda x: 0.3 * np.exp(-x) + 2.8 * np.exp(-4.0 * x), (0.0, math.inf)),
    (Deterministic(0.7), None, None),
    (Uniform(0.2, 1.9), _uniform_density(0.2, 1.9), (0.2, 1.9)),
], ids=["exponential", "erlang", "hyperexponential", "deterministic", "uniform"])
def test_lower_lst_matches_quadrature(law, density, support):
    # E[e^{-sX}; X <= l] against a trapezoid integral of the density over
    # the support's part of [0, l], or against the atom, for l below, at and
    # above the atom and below, inside and above the Uniform support;
    # s = -1.2999 puts (1.3 + s) l on the series branch of _em
    for l in (0.1, 0.7, 1.1, 2.5):
        for s in (0.9 + 0.4j, -1.2999, 2.5 - 3.0j):
            if density is None:
                want = np.exp(-s * law.value) if law.value <= l else 0.0
            elif l > support[0]:
                want = _trapezoid(lambda x: np.exp(-s * x) * density(x),
                                  (support[0], min(l, support[1])))
            else:
                want = 0.0
            got = complex(np.asarray(law.lower_lst(s, l)).reshape(()))
            assert got == pytest.approx(want, abs=1e-9)


def _em_by_branches(w):
    # (1 - e^{-w})/w with the two branches split by masks before evaluation
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-2
    ws = w[small]
    acc = np.zeros_like(ws)
    for k in range(7, -1, -1):
        acc = acc * (-ws) + 1.0 / math.factorial(k + 1)
    out[small] = acc
    wb = w[~small]
    out[~small] = (1.0 - np.exp(-wb)) / wb
    return out


def test_em_at_zero_and_on_both_branches():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = _em(0.0)
    assert one == 1.0 and one.shape == ()
    assert _em(0.3 - 0.2j).shape == ()
    radii = 1e-2 * np.array([0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 100.0, 4000.0])
    w = np.concatenate([[0.0], np.outer(radii, np.exp(1j * np.linspace(-np.pi, np.pi, 13))).ravel()])
    assert np.array_equal(_em(w), _em_by_branches(w))
    grid = w[1:].reshape(7, 13)
    assert np.array_equal(_em(grid), _em_by_branches(grid))


def test_shared_atom_rejected():
    with pytest.raises(InvalidSpec):
        build_product_model(Deterministic(1.0), Deterministic(1.0))


def test_markov_builder_validation():
    f, g = Exponential(5.0), Exponential(2.0)
    with pytest.raises(InvalidSpec):
        build_markov_modulated([0.6, 0.3], [[0.3, 0.2], [0.1, 0.4]], [0.5, 0.5], f, g)
    with pytest.raises(InvalidSpec):
        build_markov_modulated([0.6, 0.4], [[0.3, 0.3], [0.1, 0.4]], [0.5, 0.5], f, g)
    with pytest.raises(InvalidSpec):
        # row sums plus exits reach 1 but the chain never exits from state 1
        build_markov_modulated([0.5, 0.5], [[1.0, 0.0], [0.0, 0.4]], [0.0, 0.6], f, g)


def test_threshold_builder_needs_rational_b_laws():
    with pytest.raises(InvalidSpec):
        build_threshold_model(Uniform(0.0, 1.0), Exponential(1.2),
                              Exponential(1.0), 1.0)


def test_kernel_validation():
    one = lambda s2: 1.0
    half = lambda s2: 0.5
    with pytest.raises(InvalidSpec):
        RationalKernel(h1_coeffs=(), h2_coeffs=(one,))  # degree 0
    with pytest.raises(InvalidSpec):
        RationalKernel(h1_coeffs=(half, half), h2_coeffs=(one, one))
    with pytest.raises(InvalidSpec):
        # leading h2 coefficient must be the constant 1
        RationalKernel(h1_coeffs=(half,), h2_coeffs=(half, one))
    assert RationalKernel(h1_coeffs=(half,), h2_coeffs=(one, one)).degree == 1


def test_static_h2_is_derived_from_the_coefficients(models):
    one = lambda s2: 1.0
    half = lambda s2: 0.5
    assert [models[n].rational.static_h2 for n in MODEL_NAMES] == [True, True, False]
    assert RationalKernel(h1_coeffs=(half,), h2_coeffs=(one, one)).static_h2
    moving = RationalKernel(h1_coeffs=(half,), h2_coeffs=(one, lambda s2: 1.0 + s2))
    assert not moving.static_h2
    with pytest.raises(TypeError):
        RationalKernel(h1_coeffs=(half,), h2_coeffs=(one, one), static_h2=True)
    with pytest.raises(TypeError):
        IncrementModel(kind="product", lst=lambda s1, s2: 1.0, sampler=None,
                       mean_b=1.0, mean_a=2.0)


def test_kernel_must_restate_lst(models):
    with pytest.raises(InvalidSpec):
        dataclasses.replace(models["markov_2state"], rational=models["product_mm1"].rational)


def test_lst_eval_domain_guards(models):
    mm1 = models["product_mm1"]
    with pytest.raises(DomainError):
        lst_eval(mm1, 0.5, -1.5)  # below the Exp(1) abscissa of A
    with pytest.raises(PoleError):
        lst_eval(mm1, -2.0, 0.0)  # pole of the Exp(2) marginal
    # continuation through the kernel is allowed left of the axis
    val = lst_eval(mm1, -0.5, 0.0)
    assert val == pytest.approx(2.0 / 1.5, abs=1e-12)


def test_lst_eval_scalar_matches_array(models):
    # one evaluation path: at the guard points a scalar call is the
    # one-element array call, bit for bit, and both fail alike, naming the
    # first offending point.  (At complex points numpy's array loops may round
    # complex division differently from its scalar arithmetic, by an ulp.)
    cases = dict(models, det_uniform=build_product_model(Deterministic(0.7),
                                                         Uniform(0.2, 2.0)))
    points = [(0.5, -1.5), (-2.0, 0.0), (-0.5, 0.0), (0.3, 0.8)]
    for mdl in cases.values():
        for s1, s2 in points:
            try:
                val = lst_eval(mdl, s1, s2)
            except Exception as exc:
                with pytest.raises(type(exc)) as info:
                    lst_eval(mdl, np.array([s1]), np.array([s2]))
                assert str(info.value) == str(exc)
                continue
            arr = lst_eval(mdl, np.array([s1]), np.array([s2]))
            assert type(val) is complex and arr.shape == (1,)
            assert (val.real, val.imag) == (arr[0].real, arr[0].imag)
    mm1 = models["product_mm1"]
    with pytest.raises(DomainError, match="-1.5"):
        lst_eval(mm1, 0.5, np.array([0.2, -1.5, -3.0]))
    with pytest.raises(PoleError, match="-2"):
        lst_eval(mm1, np.array([0.5, -2.0]), 0.0)


def test_mean_fields_match_closed_forms(models):
    thr = models["threshold_exp"]
    p_below = 1 - math.exp(-1.0)
    assert thr.mean_b == pytest.approx(p_below / 3 + (1 - p_below) / 1.2, abs=1e-12)
    assert thr.mean_a == pytest.approx(1.0, abs=1e-12)
    # mean_b weighs the two B laws by P(A <= l), read off the a-law
    f1, f2, l = Exponential(3.0), Erlang(2, 4.0), 1.0
    for a_law, p_below in [
        (Erlang(2, 2.0), 1 - math.exp(-2.0) * (1 + 2.0)),
        (Hyperexponential((0.3, 0.7), (1.0, 4.0)), 1 - 0.3 * math.exp(-1.0) - 0.7 * math.exp(-4.0)),
        (Deterministic(0.8), 1.0),
        (Deterministic(1.3), 0.0),
        (Uniform(0.2, 1.8), 0.5),
    ]:
        thr = build_threshold_model(f1, f2, a_law, l)
        assert thr.mean_b == pytest.approx(p_below / 3 + (1 - p_below) * 0.5, abs=1e-12)
    mar = models["markov_2state"]
    visits = np.array([0.6, 0.4]) @ np.linalg.inv(
        np.eye(2) - np.array([[0.3, 0.2], [0.1, 0.4]])) @ np.ones(2)
    assert mar.mean_b == pytest.approx(visits / 5.0, abs=1e-12)
    assert mar.mean_a == pytest.approx(visits / 2.0, abs=1e-12)
