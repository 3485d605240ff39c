"""Simulation oracles: path estimator, series oracle, and the atomic identity.

The M/M/1 closed forms from conftest give exact targets, so every Monte Carlo
check here is a fixed-seed estimate compared at 4 standard errors.
"""

import cmath
import itertools
import math
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from walkfluct.contour import ContourSpec
from walkfluct.errors import DomainError, EvalError, UnsupportedModel
from walkfluct.fluct import (
    busy_period_rational,
    busy_period_transform,
    idle_period_transform,
    max_transform_rational,
)
from walkfluct.model import IncrementModel, builtin_models
from walkfluct.oracle import (
    AtomicMeasure2D,
    BVFunctionSpec,
    MCEstimate,
    default_cap,
    estimate_functional,
    max_n_estimate,
    spitzer_series,
    verify_hewitt_discrete,
)


# ---------------------------------------------------------------- estimator


def test_busy_estimate_matches_rational(mm1):
    est = estimate_functional(mm1.model, 0.5, 0.5, 0.0,
                              paths=100_000, cap=default_cap(0.5), seed=7)
    ref = busy_period_rational(mm1, 0.5, 0.5).value
    assert est.std_err > 0
    assert abs(est.mean - ref) < 4.0 * est.std_err
    # real inputs, real functional
    assert est.mean.imag == 0.0
    # cap was chosen so the bias cannot dominate
    assert est.truncation_bias_bound < est.std_err


def test_same_seed_reproduces_bitwise(mm1):
    a = estimate_functional(mm1.model, 0.5, 0.5, 0.0, paths=5_000, cap=200, seed=7)
    b = estimate_functional(mm1.model, 0.5, 0.5, 0.0, paths=5_000, cap=200, seed=7)
    assert a.mean == b.mean
    assert a.std_err == b.std_err


def test_descent_is_certain_for_stable_walk(mm1):
    # z = 1, s = 0: the functional is P(N finite) = 1 under negative drift
    est = estimate_functional(mm1.model, 1.0, 0.0, 0.0,
                              paths=20_000, cap=10**6, seed=3)
    assert abs(est.mean - 1.0) < 1e-3 + 4.0 * est.std_err


def test_idle_period_via_overshoot(mm1, spec):
    # e^{-s I} = e^{s S_N}, so s2 = -s picks out the idle transform
    est = estimate_functional(mm1.model, 0.5, 0.0, -1.0,
                              paths=100_000, cap=1000, seed=11)
    tv = idle_period_transform(mm1, 0.5, 1.0, spec)
    assert abs(est.mean - tv.value) < 4.0 * est.std_err + tv.abs_err


def test_std_err_halves_at_four_times_paths(mm1):
    small = estimate_functional(mm1.model, 0.5, 0.5, 0.0,
                                paths=25_000, cap=200, seed=5)
    large = estimate_functional(mm1.model, 0.5, 0.5, 0.0,
                                paths=100_000, cap=200, seed=5)
    assert abs(small.std_err / large.std_err - 2.0) < 0.5


def test_tie_splitting_exact_mean():
    # deterministic (1,1) steps: every partial sum ties at zero, so the
    # half-weight rule gives the geometric sum of q = z e^{-s1} / 2 exactly
    model = IncrementModel(
        lst=lambda s1, s2: np.exp(-s1 - s2),
        sampler=lambda rng, size: (np.ones(size), np.ones(size)),
        mean_b=1.0, mean_a=1.0)
    cap = 30
    with pytest.warns(UserWarning):  # no path descends, so the bias dominates
        est = estimate_functional(model, 0.5, 0.3, 0.0,
                                  paths=64, cap=cap, seed=1)
    q = 0.5 * math.exp(-0.3) / 2.0
    expected = q * (1.0 - q ** cap) / (1.0 - q)
    assert abs(est.mean - expected) < 1e-13
    assert est.std_err < 1e-8  # identical paths, noise is pure rounding
    assert est.truncation_bias_bound == pytest.approx(0.5 ** cap)


_TIE_STEPS = (0.5, 0.0, -1.0)  # b - a for b = 1 and a in (0.5, 1, 2), exact in binary


def _enumerate_ties(z, s1, s2, cap):
    """The half-weight functional over all 3^cap equally likely step paths.

    Returns its exact mean at cap steps and the probability that a path has
    not descended by then.
    """
    total, alive = 0j, 0.0
    for steps in itertools.product(_TIE_STEPS, repeat=cap):
        S, weight, val = 0.0, 1.0, 0j
        for n, x in enumerate(steps, start=1):
            S += x
            contrib = z ** n * cmath.exp(-s1 * n - s2 * S)
            if S < 0.0:
                val += weight * contrib
                break
            if S == 0.0:
                val += 0.5 * weight * contrib
                weight *= 0.5
        total += val
        alive += S >= 0.0
    return total / 3 ** cap, alive / 3 ** cap


def test_tie_bookkeeping_matches_enumeration():
    # B = 1 and A uniform on {0.5, 1, 2}: paths tie at 0, keep half their
    # weight and descend later; at cap 6 the estimator's target is the exact
    # sum over 3^6 paths, and its unfinished fraction that of the enumeration
    model = IncrementModel(
        lst=lambda s1, s2: np.exp(-s1) * (np.exp(-0.5 * s2) + np.exp(-s2)
                                          + np.exp(-2.0 * s2)) / 3.0,
        sampler=lambda rng, size: (np.ones(size), rng.choice([0.5, 1.0, 2.0], size)),
        mean_b=1.0, mean_a=3.5 / 3.0)
    z, s1, s2, cap, paths = 0.7 + 0.2j, 0.4, -0.3 + 0.2j, 6, 100_000
    exact, alive = _enumerate_ties(z, s1, s2, cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cap is short on purpose
        est = estimate_functional(model, z, s1, s2, paths=paths, cap=cap, seed=9)
    assert est.std_err > 0
    assert abs(est.mean - exact) < 4.0 * est.std_err
    unfinished = est.truncation_bias_bound / abs(z) ** cap
    assert abs(unfinished - alive) < 4.0 * math.sqrt(alive * (1.0 - alive) / paths)


def test_truncation_bias_warning(mm1):
    with pytest.warns(UserWarning, match="truncation bias"):
        est = estimate_functional(mm1.model, 0.9, 0.0, 0.0,
                                  paths=2_000, cap=2, seed=21)
    assert est.truncation_bias_bound > est.std_err > 0


def test_estimator_rejects_bad_inputs(mm1):
    with pytest.raises(DomainError):
        estimate_functional(mm1.model, 1.2, 0.0, 0.0, paths=10, cap=10, seed=0)
    with pytest.raises(DomainError):
        estimate_functional(mm1.model, 0.5, -0.5, 0.0, paths=10, cap=10, seed=0)
    with pytest.raises(DomainError):
        estimate_functional(mm1.model, 0.5, 0.0, 0.5, paths=10, cap=10, seed=0)
    with pytest.raises(ValueError):
        estimate_functional(mm1.model, 0.5, 0.0, 0.0, paths=0, cap=10, seed=0)
    with pytest.raises(ValueError):
        estimate_functional(mm1.model, 0.5, 0.0, 0.0, paths=10, cap=0, seed=0)


def test_estimator_z_zero_is_exact(mm1):
    est = estimate_functional(mm1.model, 0.0, 0.5, 0.0, paths=10, cap=10, seed=0)
    assert est.mean == 0j
    assert est.std_err == 0.0
    assert est.truncation_bias_bound == 0.0


def test_estimator_needs_sampler():
    model = IncrementModel(lst=lambda s1, s2: 1.0, sampler=None, mean_b=1.0, mean_a=2.0)
    with pytest.raises(UnsupportedModel):
        estimate_functional(model, 0.5, 0.0, 0.0, paths=2, cap=2, seed=0)


# ------------------------------------------------------------- series oracle


def test_spitzer_series_matches_contour(mm1, spec):
    sv = spitzer_series(mm1.model, 0.5, 0.5, 0.0,
                        n_max=40, paths_per_n=20_000, seed=13)
    ct = busy_period_transform(mm1, 0.5, 0.5, spec)
    assert sv.method == "series"
    assert abs(sv.value - ct.value) < max(4.0 * (sv.abs_err + ct.abs_err), 1e-3)


def test_spitzer_series_guards(mm1):
    with pytest.raises(DomainError):
        spitzer_series(mm1.model, 1.0, 0.0, 0.0, n_max=3, paths_per_n=10, seed=0)
    with pytest.raises(ValueError):
        spitzer_series(mm1.model, 0.5, 0.0, 0.0, n_max=-1, paths_per_n=10, seed=0)
    tv = spitzer_series(mm1.model, 0.0, 0.5, 0.0, n_max=3, paths_per_n=10, seed=0)
    assert tv.value == 0j and tv.abs_err == 0.0


def test_spitzer_tail_enters_error(mm1):
    # truncating at n_max = 2 leaves a visible geometric remainder
    sv = spitzer_series(mm1.model, 0.5, 0.5, 0.0,
                        n_max=2, paths_per_n=50_000, seed=13)
    tail = 0.5 ** 3 / (3 * (1.0 - 0.5))
    assert sv.abs_err > 0.1 * tail


@pytest.mark.parametrize("functional, z, s", [
    ("busy", 0.5, 0.5),
    ("busy", 0.4 + 0.3j, 1.0 + 0.5j),
    ("idle", 0.7, 1.0),
    ("idle", 0.3 - 0.5j, 0.5 - 0.2j),
])
def test_spitzer_series_reproducible_and_covered(mm1, mm1_refs, functional, z, s):
    s1, s2 = (s, 0.0) if functional == "busy" else (0.0, -s)
    ref = getattr(mm1_refs, functional)(z, s)
    for seed in (1, 2, 3, 4):
        sv = spitzer_series(mm1.model, z, s1, s2, n_max=40, paths_per_n=4_000, seed=seed)
        again = spitzer_series(mm1.model, z, s1, s2, n_max=40, paths_per_n=4_000, seed=seed)
        assert (again.value, again.abs_err) == (sv.value, sv.abs_err)
        assert abs(sv.value - ref) < 4.0 * sv.abs_err, seed


# ------------------------------------------------------------ running maximum


def test_max_n_estimate_near_stationary(mm1):
    est = max_n_estimate(mm1.model, 200, 1.0, paths=200_000, seed=17)
    ref = max_transform_rational(mm1, 1.0, 1.0).value
    assert abs(est.mean - ref) < 4.0 * est.std_err + 1e-3


def test_max_n_estimate_degenerate_cases(mm1):
    assert max_n_estimate(mm1.model, 0, 1.0, paths=10, seed=1).mean == 1.0 + 0j
    assert max_n_estimate(mm1.model, 5, 0.0, paths=10, seed=1).mean == 1.0 + 0j


def test_max_n_estimate_guards(mm1):
    with pytest.raises(DomainError):
        max_n_estimate(mm1.model, 5, -1.0, paths=10, seed=0)
    with pytest.raises(ValueError):
        max_n_estimate(mm1.model, -1, 1.0, paths=10, seed=0)
    with pytest.raises(ValueError):
        max_n_estimate(mm1.model, 5, 1.0, paths=0, seed=0)


# ------------------------------------------------------------- block pool


def _three_estimates(model):
    # 100,000 paths are 4 first-descent blocks of 2^15; 30,000 paths of 40
    # steps are 3 series blocks of 2^19 // 40; 6,000 paths of 200 steps are 3
    # max-n blocks of 2^19 // 200
    ef = estimate_functional(model, 0.6 + 0.2j, 0.5, -0.3, paths=100_000, cap=40, seed=5)
    ss = spitzer_series(model, 0.6 + 0.2j, 0.0, -0.5 + 0.2j, n_max=40,
                        paths_per_n=30_000, seed=6)
    mx = max_n_estimate(model, 200, 0.8, paths=6_000, seed=7)
    return [(e.mean, e.std_err, e.truncation_bias_bound) for e in (ef, mx)] + [
        (ss.value, ss.abs_err)]


@pytest.mark.parametrize("label", ["product_mm1", "threshold_exp", "markov_2state"])
def test_pool_width_does_not_change_estimates(monkeypatch, models, label):
    monkeypatch.setenv("WALKFLUCT_THREADS", "1")
    serial = _three_estimates(models[label])
    monkeypatch.setenv("WALKFLUCT_THREADS", "4")
    assert _three_estimates(models[label]) == serial


def _slow_exponential_model(calls, delay, fail_at=None):
    """M/M/1 increments drawn after a sleep; the fail_at-th call raises."""
    lock = threading.Lock()
    raised = []

    def sampler(rng, size):
        with lock:
            calls.append(size)
            count = len(calls)
        if count == fail_at:
            raised.append(EvalError(f"sampler failed on call {count}"))
            raise raised[-1]
        time.sleep(delay)
        return rng.exponential(0.5, size), rng.exponential(1.0, size)

    mm1 = builtin_models()["product_mm1"]
    return IncrementModel(lst=mm1.lst, sampler=sampler, mean_b=0.5, mean_a=1.0), raised


def test_worker_error_reaches_caller_and_stops_the_blocks(monkeypatch):
    monkeypatch.setenv("WALKFLUCT_THREADS", "4")
    calls, k = [], 5
    model, raised = _slow_exponential_model(calls, 0.01, fail_at=k)
    before = threading.active_count()
    # 40 blocks of 2^19 // 1000 paths
    with pytest.raises(EvalError) as err:
        max_n_estimate(model, 1000, 1.0, paths=40 * 524, seed=1)
    assert err.value is raised[0]
    assert len(calls) <= k + 4
    assert threading.active_count() == before


class _Alarm(BaseException):
    pass


def test_interrupt_ends_the_call_within_one_block(monkeypatch):
    monkeypatch.setenv("WALKFLUCT_THREADS", "4")
    calls = []
    model, _ = _slow_exponential_model(calls, 0.1)
    before = threading.active_count()

    def alarm(signum, frame):
        raise _Alarm()

    previous = signal.signal(signal.SIGALRM, alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        # 64 blocks of 0.1 s on 4 threads take 1.6 s uninterrupted
        with pytest.raises(_Alarm):
            max_n_estimate(model, 1000, 1.0, paths=64 * 524, seed=1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1.0
    assert len(calls) < 64
    assert threading.active_count() == before


# ------------------------------------------------------------ atomic identity


def _gap(atoms, T):
    H = AtomicMeasure2D(atoms=atoms)
    f = BVFunctionSpec(pieces=((0.0, math.inf, 1.0, 1.0),))
    spec = ContourSpec(T=T, nodes=24)
    lhs, rhs, gap = verify_hewitt_discrete(H, f, spec)
    return lhs, rhs, gap


@pytest.mark.parametrize("atom,expected_rhs", [
    ((2.0, 1.0, 1.0), math.exp(-2.0)),        # y < u: both one-sided limits
    ((1.0, 3.0, 1.0), 0.0),                   # y > u: atom not seen
    ((1.0, 1.0, 1.0), 0.5 * math.exp(-1.0)),  # boundary atom y = u: half weight
])
def test_hewitt_boundary_atoms(atom, expected_rhs):
    lhs, rhs, gap = _gap((atom,), 800.0)
    assert abs(rhs - expected_rhs) < 1e-14
    assert gap < 1e-3


def test_hewitt_gap_shrinks_with_truncation():
    atoms = ((2.0, 1.0, 0.4 + 0.2j), (1.5, 1.5, 0.3), (1.2, 2.4, -0.1j))
    gaps = [_gap(atoms, T)[2] for T in (100.0, 200.0, 400.0, 800.0)]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-3


def test_hewitt_rhs_is_hand_sum():
    atoms = ((2.0, 1.0, 0.4 + 0.2j), (1.5, 1.5, 0.3), (1.2, 2.4, -0.1j))
    _, rhs, _ = _gap(atoms, 100.0)
    hand = ((0.4 + 0.2j) * math.exp(-2.0)
            + 0.3 * 0.5 * math.exp(-1.5))  # third atom has y > u
    assert abs(rhs - hand) < 1e-14


# ------------------------------------------------------------ small contracts


def test_default_cap_values():
    assert default_cap(1.0) == 10 ** 6
    assert default_cap(0.0) == 1000
    assert default_cap(0.5) == 1000  # floor
    cap = default_cap(0.99)
    assert cap > 1000
    assert 0.99 ** cap <= 1e-6 * (1.0 - 0.99)


def test_mc_estimate_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        MCEstimate(1.0 + 0j, -0.1, 10, 5, 0.0)
    with pytest.raises(ValueError, match="paths >= 1"):
        MCEstimate(1.0 + 0j, 0.0, 0, 5, 0.0)


def test_atomic_measure_validation():
    with pytest.raises(ValueError, match="finite"):
        AtomicMeasure2D(atoms=((math.inf, 0.0, 1.0),))
    H = AtomicMeasure2D(atoms=((1.0, 0.0, 3.0 + 4.0j), (2.0, 1.0, -1.0)))
    assert H.total_variation() == pytest.approx(6.0)


def test_bv_spec_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        BVFunctionSpec(pieces=((1.0, 1.0, 1.0, 1.0),))
    with pytest.raises(ValueError, match="Re rate > 0"):
        BVFunctionSpec(pieces=((0.0, math.inf, 1.0, -1.0),))
    with pytest.raises(ValueError, match="overlap"):
        BVFunctionSpec(pieces=((0.0, 2.0, 1.0, 1.0), (1.0, 3.0, 1.0, 1.0)))


def test_bv_spec_one_sided_limits():
    f = BVFunctionSpec(pieces=((0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 2.0, 0.0)))
    assert f.value_left(1.0) == 1.0
    assert f.value_right(1.0) == 2.0
    assert f.value_right(2.0) == 0.0  # past the support


def test_bv_truncated_transform_matches_quadrature():
    f = BVFunctionSpec(pieces=((0.0, 1.5, 2.0, 0.7), (1.5, math.inf, 0.5, 1.2)))
    xi = 0.3 + 0.4j
    # integrate each piece on its own grid; f jumps at 1.5
    t1 = np.linspace(0.6, 1.5, 20_001)
    t2 = np.linspace(1.5, 40.0, 200_001)
    numeric = (np.trapezoid(2.0 * np.exp(-(0.7 + xi) * t1), t1)
               + np.trapezoid(0.5 * np.exp(-(1.2 + xi) * t2), t2))
    assert abs(f.truncated_transform(np.array([xi]), 0.6)[0] - numeric) < 1e-7
