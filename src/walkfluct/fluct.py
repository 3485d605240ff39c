"""Fluctuation transforms of the reflected walk and its first descent.

There are two engines.  The contour engine turns the principal-value
representations into quadrature on the imaginary axis and works for any
model and every functional; the rational engine multiplies out left-root
products and is exact (up to root residuals) for models carrying a
RationalKernel, for busy, steps and the maximum but not yet idle.  The
orientation of the axis integrals, including the sign of the semicircular
correction, is frozen by convention tests against the M/M/1 closed forms.

Branch handling: on the imaginary axis every kernel value h is a transform
of a probability law, so |h| <= 1 and, for |z| < 1, Re(1 - z h) > 0.  The
kernels never reach the cut of the principal logarithm, which is therefore
continuous along each half-axis and is used as it is.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

# pv_axis is unused here; it stays bound because bench/tracing.py swaps fluct.pv_axis
from .contour import (ContourSpec, TransformValue, _extrapolate, _ladder, _layout, pv_axis,
                      pv_axis_singular)
from .errors import DomainError, NoConvergence, StabilityError, UnsupportedModel
from .model import IncrementModel, RationalKernel, increment_char, lst_eval
from .roots import RootReport, find_kernel_roots

__all__ = [
    "WalkFunctionals", "walk_functionals", "first_descent_transform",
    "busy_period_transform", "idle_period_transform", "steps_pgf",
    "transient_max_transform",
    "busy_period_rational", "max_transform_rational", "steps_pgf_rational",
    "wienerhopf_factors", "invert_to_distribution", "geometric_limit",
]

_TWO_PI = 2.0 * math.pi
_TWO_PI_I = 2j * math.pi
# Bromwich inversion: damping exponent, series terms and Euler depth
_DECAY, _TERMS, _EULER_DEPTH = 18.4, 40, 12

STABLE = "stable"
CRITICAL = "critical"
UNSTABLE = "unstable"


def _classify(mean_b: float, mean_a: float) -> str:
    tol = 1e-12 * (1.0 + abs(mean_a) + abs(mean_b))
    if mean_b < mean_a - tol:
        return STABLE
    if mean_b > mean_a + tol:
        return UNSTABLE
    return CRITICAL


@dataclass(frozen=True)
class WalkFunctionals:
    """An increment model bundled with its drift regime."""

    model: IncrementModel

    @property
    def stability(self) -> str:
        return _classify(self.model.mean_b, self.model.mean_a)


def walk_functionals(model: IncrementModel) -> WalkFunctionals:
    return WalkFunctionals(model)


def _log(w: np.ndarray) -> np.ndarray:
    # the principal logarithm from its real and imaginary parts, which is
    # several times faster than numpy's complex log on quadrature arrays
    return np.log(np.abs(w)) + 1j * np.angle(w)


def _check_interior(z: complex, s: complex) -> None:
    if abs(z) >= 1.0:
        raise DomainError("|z| must be strictly below 1 for the contour engine")
    if s.real <= 0.0:
        raise DomainError("Re s must be strictly positive for the contour engine")


def _contour_value(value: complex, abs_err: float, spec: ContourSpec,
                   scale: float = 1.0) -> TransformValue:
    """The returned quantity, or NoConvergence when scale * abs_err exceeds tol.

    scale normalises a quantity that grows without bound, such as the
    running-maximum generating function near z = 1.
    """
    if scale * abs_err > spec.tol:
        raise NoConvergence(
            f"contour ladder did not settle: error {scale * abs_err:.3g}"
            f" exceeds tol {spec.tol:g}",
            best=value, abs_err=abs_err)
    return TransformValue(value, abs_err, "contour")


def _h_shifted(model: IncrementModel, s1: complex, xi):
    # h(xi, s1 - xi); at s1 = 0 it is the step transform increment_char
    return increment_char(model, xi) if s1 == 0 else lst_eval(model, xi, s1 - xi)


@functools.lru_cache(maxsize=32)
def _step_table(model: IncrementModel, lo: float, hi: float, nodes: int) -> np.ndarray:
    # h(iy, -iy) on a band's upper-half layout, for every z and pole; at -iy h is its conjugate
    h = increment_char(model, _layout(lo, hi, nodes)[1])
    h.flags.writeable = False
    return h


def _descent_exponent(wf: WalkFunctionals, z: complex, s1: complex, poles: tuple,
                      spec: ContourSpec) -> list[tuple[complex, float]]:
    """(1/2 pi i) PV int log(1 - z h(xi, s1 - xi)) / (xi - p) dxi over the axis.

    Returns the exponent and its error at each pole p of poles, from one phi
    table.  pv_axis_singular takes every p, on, near or off the axis; on the
    axis (Re p = 0) it gives the exterior Plemelj limit, the value continued
    from Re p > 0.  h is the transform of a real pair, so at real z and s1
    phi is conjugate-symmetric and a real pole needs half the axis.
    """
    model = wf.model
    bands = _ladder(spec.T) if s1 == 0 else []

    def phi(xi):
        for lo, hi in bands:
            _, up, down, _ = _layout(lo, hi, spec.nodes)
            if xi is up or xi is down:
                upper = _step_table(model, lo, hi, spec.nodes)
                return _log(1.0 - z * (upper if xi is up else upper.conj()))
        return _log(1.0 - z * _h_shifted(model, s1, np.asarray(xi, dtype=complex)))

    symmetric = complex(z).imag == 0.0 and complex(s1).imag == 0.0
    pvs = pv_axis_singular(phi, poles, spec, phi_at_infinity=0.0,
                           conjugate_symmetric=symmetric)
    return [(pv.value / _TWO_PI_I, pv.abs_err / _TWO_PI) for pv in pvs]


def first_descent_transform(wf: WalkFunctionals, z: complex, s1: complex, s2: complex,
                            spec: ContourSpec) -> TransformValue:
    """E[z^N e^{-s1 b_N - s2 S_N}] over the first strict descent N of the walk.

    b_N is the b-total up to N and S_N < 0 the walk at N, with the sign
    convention of estimate_functional and spitzer_series; the domain is
    |z| < 1, Re s1 >= 0, Re s2 <= 0.  With p = s1 + s2 and J the descent
    exponent at (s1, p), the value is 1 - (1 - z h(p, s1 - p)) e^J when
    Re p >= 0 and 1 - e^J when Re p < 0.
    """
    z, s1, s2 = complex(z), complex(s1), complex(s2)
    if abs(z) >= 1.0 or s1.real < 0.0 or s2.real > 0.0:
        raise DomainError("the contour engine needs |z| < 1, Re s1 >= 0, Re s2 <= 0")
    if z == 0:
        return TransformValue(0j, 0.0, "contour")
    p = s1 + s2
    [(j, j_err)] = _descent_exponent(wf, z, s1, (p,), spec)
    front = 1.0 - z * _h_shifted(wf.model, s1, p) if p.real >= 0.0 else 1.0
    tail = front * cmath.exp(j)
    return _contour_value(1.0 - tail, abs(tail) * j_err, spec)


def busy_period_transform(wf: WalkFunctionals, z: complex, s: complex,
                          spec: ContourSpec) -> TransformValue:
    """E[z^N e^{-sP}] of the descent count and its b-total: the joint point (s, 0)."""
    _check_interior(complex(z), complex(s))
    return first_descent_transform(wf, z, s, 0.0, spec)


def idle_period_transform(wf: WalkFunctionals, z: complex, s: complex,
                          spec: ContourSpec) -> TransformValue:
    """E[z^N e^{-sI}] of the descent count and the overshoot: the joint point (0, -s)."""
    _check_interior(complex(z), complex(s))
    return first_descent_transform(wf, z, 0.0, -complex(s), spec)


def steps_pgf(wf: WalkFunctionals, z: complex, spec: ContourSpec) -> TransformValue:
    """PGF E[z^N] of the number of steps to the first strict descent: the point (0, 0)."""
    return first_descent_transform(wf, z, 0.0, 0.0, spec)


def transient_max_transform(wf: WalkFunctionals, z: complex, s: complex,
                            spec: ContourSpec) -> TransformValue:
    """Generating function sum_n z^n E[e^{-s M_n}] of the running maximum."""
    z, s = complex(z), complex(s)
    _check_interior(z, s)
    if z == 0:
        return TransformValue(1.0 + 0j, 0.0, "contour")
    (j_s, err_s), (j_0, err_0) = _descent_exponent(wf, z, 0.0, (s, 0j), spec)
    value = cmath.exp(j_s - j_0) / (1.0 - z)
    err = abs(value) * (err_s + err_0)
    # value grows like 1/(1 - z); tol applies to (1 - z) * value
    return _contour_value(value, err, spec, abs(1.0 - z))


def wienerhopf_factors(wf: WalkFunctionals, z: complex, s: complex,
                       spec: ContourSpec) -> tuple[complex, complex, float]:
    """Boundary Wiener-Hopf pair at Re s = 0 and the factorization residual.

    psi_plus extends the running-maximum factor from the right half-plane,
    psi_minus the overshoot factor from the left; each factor tends to 1 at
    infinity in its half-plane.  The two exponents come from deliberately
    different discretizations, so the residual |psi_minus psi_plus -
    (1 - z h(s,-s))| is an honest independent consistency check, not zero by
    construction.
    """
    z, s = complex(z), complex(s)
    if abs(z) >= 1.0:
        raise DomainError("|z| must be strictly below 1")
    if abs(s.real) > 1e-9 * (1.0 + abs(s)):
        raise DomainError("Wiener-Hopf factors live on Re s = 0")
    s = 1j * s.imag
    kernel_val = 1.0 - z * complex(lst_eval(wf.model, s, -s))
    if z == 0:
        return 1.0 + 0j, 1.0 + 0j, 0.0
    alt = ContourSpec(T=spec.T * 1.5, nodes=spec.nodes + max(1, spec.nodes // 3),
                      tol=spec.tol)
    q_main, q_alt = (_contour_value(*_descent_exponent(wf, z, 0.0, (s,), sp)[0], spec).value
                     for sp in (spec, alt))
    psi_plus = cmath.exp(-q_main)
    psi_minus = kernel_val * cmath.exp(q_alt)
    residual = abs(psi_minus * psi_plus - kernel_val)
    return psi_plus, psi_minus, residual


# --- rational engine -------------------------------------------------------

def _kernel_of(wf: WalkFunctionals) -> RationalKernel:
    if wf.model.rational is None:
        raise UnsupportedModel("model does not carry a rational kernel")
    return wf.model.rational


def _drift_flag(wf: WalkFunctionals, points: list[tuple]) -> bool | None:
    # Only the corner z = 1, Re s = 0 leans on the drift condition; the rest
    # of the unit circle at Re s = 0 is refused by find_kernel_roots.
    if any(abs(z - 1.0) <= 1e-12 and s.real <= 1e-12 for z, s in points):
        if wf.stability != STABLE:
            raise StabilityError("z = 1 at Re s = 0 requires E B < E A")
        return True
    return None


def _grid(names: str, *args) -> tuple[list, list[tuple], tuple | None]:
    """The arguments broadcast: flat, the points as tuples of Python complex
    numbers, and the call's shape.  A scalar call keeps Python complex
    numbers and shape None, so it passes scalars on.  A NaN or infinite
    argument is named before any root find sees it."""
    if all(np.ndim(a) == 0 for a in args):
        flat, shape = [complex(a) for a in args], None
        points = [tuple(flat)]
    else:
        arrays = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in args))
        flat, shape = [a.ravel() for a in arrays], arrays[0].shape
        points = list(zip(*(a.tolist() for a in flat)))
    for point in points:
        if not all(map(cmath.isfinite, point)):
            raise DomainError(" and ".join(f"{n} = {v:.6g}" for n, v in zip(names, point))
                              + " must be finite")
    return flat, points, shape


def _each(found, n: int) -> list:
    # one report per point, from a batch find or one report for all
    return found if isinstance(found, list) else [found] * n


def _stacked(values: list[TransformValue], shape: tuple | None) -> TransformValue:
    # a scalar call's one value, or the points' values as arrays of the call's shape
    if shape is None:
        return values[0]
    return TransformValue(np.array([tv.value for tv in values]).reshape(shape),
                          np.array([tv.abs_err for tv in values]).reshape(shape), "rational")


@functools.lru_cache(maxsize=16)
def _base_roots(kernel: RationalKernel) -> RootReport:
    """The left roots of the z = 0 kernel at s = 0, h2(xi, -xi), found once per kernel.

    Steps and max always read them: their roots are taken at s = 0.  Busy
    reads them only when kernel.static_h2 holds, since then h2(xi, s - xi)
    and its roots are the same at every s.
    """
    return find_kernel_roots(kernel, 0.0, 0.0)


_BASE_LOCK = threading.Lock()


def _shared_base_roots(kernel: RationalKernel) -> RootReport:
    # lru_cache holds no lock while it computes, so grid workers that miss
    # together would each find the same roots; here they wait for one find
    with _BASE_LOCK:
        return _base_roots(kernel)


def _root_ratio(top: RootReport, bottom: RootReport, p: complex) -> tuple[complex, float]:
    """prod(p - top roots) / prod(p - bottom roots), with the bound on |log|
    of its relative error that the reports' root discs give (product_err)."""
    num = den = 1.0 + 0j
    for r in top.roots:
        num *= p - r
    for r in bottom.roots:
        den *= p - r
    return num / den, top.product_err(p) + bottom.product_err(p)


def _rational_value(value: complex, part: complex, log_err: float) -> TransformValue:
    # part is the root-product term of value; log_err bounds |log| of its
    # relative error, summed over the disc of every root (RootReport.product_err)
    return TransformValue(value, abs(part) * math.expm1(log_err), "rational")


def busy_period_rational(wf: WalkFunctionals, z, s) -> TransformValue:
    """E[z^N e^{-sP}] as a ratio of left-root products of the shifted kernel.

    z and s broadcast.  At arrays the value and abs_err are arrays of their
    shape, and the points' root finds run as one batch."""
    (z, s), points, shape = _grid("zs", z, s)
    kernel = _kernel_of(wf)
    drift = _drift_flag(wf, points)
    base = _shared_base_roots(kernel) if kernel.static_h2 else find_kernel_roots(kernel, 0.0, s)
    shifted = find_kernel_roots(kernel, z, s, stable_drift=drift)
    out = []
    for (zi, si), b, sh in zip(points, _each(base, len(points)), _each(shifted, len(points))):
        ratio, log_err = _root_ratio(b, sh, si)
        front = 1.0 - zi * complex(lst_eval(wf.model, si, 0.0))
        out.append(_rational_value(1.0 - front * ratio, front * ratio, log_err))
    return _stacked(out, shape)


def max_transform_rational(wf: WalkFunctionals, z, s) -> TransformValue:
    """(1-z) sum_n z^n E[e^{-s M_n}]; at z = 1 the stationary maximum E[e^{-sM}].

    z and s broadcast, and at arrays the value and abs_err are arrays of
    their shape.  The roots depend on z alone, so each distinct z takes one
    find at s = 0, whatever the number of s values."""
    _, points, shape = _grid("zs", z, s)
    for _, si in points:
        if si.real <= 0.0:
            raise DomainError(f"Re s must be strictly positive, at s = {si:.6g}")
    kernel = _kernel_of(wf)
    distinct = list(dict.fromkeys(zi for zi, _ in points))
    drift = _drift_flag(wf, [(zi, 0j) for zi in distinct])
    base = _shared_base_roots(kernel)
    found = find_kernel_roots(kernel, distinct[0] if len(distinct) == 1 else np.array(distinct),
                              0.0, stable_drift=drift)
    shifted = dict(zip(distinct, _each(found, len(distinct))))
    out = []
    for zi, si in points:
        at_0, err_0 = _root_ratio(shifted[zi], base, 0.0)
        at_s, err_s = _root_ratio(base, shifted[zi], si)
        out.append(_rational_value(at_0 * at_s, at_0 * at_s, err_0 + err_s))
    return _stacked(out, shape)


def steps_pgf_rational(wf: WalkFunctionals, z) -> TransformValue:
    """E[z^N] as a ratio of left-root products at s = 0; z may be an array."""
    (z,), points, shape = _grid("z", z)
    if any(abs(zi) >= 1.0 for zi, in points):
        raise DomainError("|z| must be strictly below 1")
    kernel = _kernel_of(wf)
    base = _shared_base_roots(kernel)
    shifted = find_kernel_roots(kernel, z, 0.0)
    out = []
    for (zi,), sh in zip(points, _each(shifted, len(points))):
        ratio, log_err = _root_ratio(base, sh, 0.0)
        out.append(_rational_value(1.0 - (1.0 - zi) * ratio, (1.0 - zi) * ratio, log_err))
    return _stacked(out, shape)


# --- limits and inversion --------------------------------------------------

def geometric_limit(evaluate: Callable[[float], TransformValue], *,
                    levels: int = 7) -> TransformValue:
    """Extrapolate evaluate(h) to h -> 0 along the ladder h = 2^{-1-k}.

    Used for the z -> 1 and s -> 0 limits of the contour engine, which must
    not be evaluated at the boundary directly.  The reported abs_err adds the
    worst inner error to the extrapolation spread.
    """
    hs = np.array([0.5 * 2.0 ** (-k) for k in range(levels)])
    seen = [evaluate(float(h)) for h in hs]
    value, err = _extrapolate(hs, np.array([tv.value for tv in seen], dtype=complex))
    return TransformValue(value, err + max(tv.abs_err for tv in seen), seen[-1].method)


def invert_to_distribution(transform: Callable[[np.ndarray], np.ndarray],
                           t_grid: Sequence[float]) -> list[float]:
    """Invert a Laplace transform on a positive t grid.

    transform is called once, on the complex array of every Bromwich
    ordinate (one row per t, _TERMS + _EULER_DEPTH + 1 ordinates each), and
    must return its values as an array of that shape, as the rational
    engines' .value does; a transform written for scalars only (with cmath,
    say) does not work.  It must be the transform of a real function,
    f(conj s) = conj f(s): the series sums Re f(s) alone, so any other input
    gives a wrong value.  Every t is checked before the call: one that is
    not real, finite and positive raises DomainError.

    Damped alternating series on the Bromwich line with Euler (binomial)
    acceleration; _DECAY bounds the aliasing error by roughly e^{-_DECAY}.
    The error heuristic is the gap between the last two acceleration depths;
    a gap beyond 10^-2 of scale raises NoConvergence.
    """
    ts = []
    for t_raw in t_grid:
        t = complex(t_raw)
        if t.imag or not (math.isfinite(t.real) and t.real > 0.0):
            raise DomainError(f"inversion grid point t = {t_raw} must be real, finite "
                              "and positive")
        ts.append(t.real)
    if not ts:
        return []
    weights = np.array([math.comb(_EULER_DEPTH, k) for k in range(_EULER_DEPTH + 1)],
                       dtype=float)
    prev_w = np.array([math.comb(_EULER_DEPTH - 1, k) for k in range(_EULER_DEPTH)],
                      dtype=float)
    ks = np.arange(_TERMS + _EULER_DEPTH + 1)
    ordinates = (_DECAY + _TWO_PI * ks * 1j) / (2 * np.array(ts, dtype=float)[:, None])
    fvs = np.broadcast_to(np.asarray(transform(ordinates), dtype=complex), ordinates.shape)
    out: list[float] = []
    for t, fv in zip(ts, fvs):
        series = np.real(fv) * (-1.0) ** ks
        series[0] *= 0.5
        partial = np.cumsum(series)
        window = partial[_TERMS - 1: _TERMS + _EULER_DEPTH]
        accel = float(weights @ window) / 2.0 ** _EULER_DEPTH
        accel_prev = float(prev_w @ window[:-1]) / 2.0 ** (_EULER_DEPTH - 1)
        scale = math.exp(_DECAY / 2.0) / t
        value = scale * accel
        gap = scale * abs(accel - accel_prev)
        if not math.isfinite(value) or gap > 1e-2 * (1.0 + abs(value)):
            raise NoConvergence("Euler acceleration did not settle",
                                best=value, abs_err=gap)
        out.append(value)
    return out
