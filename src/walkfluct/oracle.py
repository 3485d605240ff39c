"""Independent ground-truth engines for the transform identities.

Three simulation oracles (first-descent functional, truncated series over
step counts, running-maximum at a fixed horizon) plus a direct numerical
check of the inversion identity on finite atomic measures.  Simulation uses
counter-based Philox streams, one per block, so results are bit-reproducible
from (seed, paths, cap) and safe to parallelize.

Walks that touch 0 exactly are scored with weight 1/2: the transform
identities carry the symmetric indicator (1{S <= 0} + 1{S < 0})/2, and the
path keeps its remaining half-weight until a strict descent.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .contour import ContourSpec, TransformValue, _band
from .errors import DomainError, NoConvergence, UnsupportedModel
from .model import IncrementModel, _em

__all__ = [
    "MCEstimate", "AtomicMeasure2D", "BVFunctionSpec", "default_cap",
    "estimate_functional", "spitzer_series", "max_n_estimate",
    "verify_hewitt_discrete",
]

_BLOCK = 1 << 15
_TWO_PI_I = 2j * math.pi
_TRUNC_TOL = 1e-6  # z-truncation bias of default_cap and tail of _series_terms


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its statistical and truncation uncertainty."""

    mean: complex
    std_err: float
    paths: int
    cap: int
    truncation_bias_bound: float

    def __post_init__(self) -> None:
        if self.std_err < 0 or self.truncation_bias_bound < 0:
            raise ValueError("uncertainties must be nonnegative")
        if self.paths < 1 or self.cap < 0:
            raise ValueError("need paths >= 1 and cap >= 0")


@dataclass(frozen=True)
class AtomicMeasure2D:
    """Finite list of weighted atoms (u, y, weight) on the plane."""

    atoms: tuple

    def __post_init__(self) -> None:
        cleaned = []
        for u, y, w in self.atoms:
            u, y, w = float(u), float(y), complex(w)
            if not (math.isfinite(u) and math.isfinite(y) and np.isfinite(w)):
                raise ValueError("atoms must be finite")
            cleaned.append((u, y, w))
        object.__setattr__(self, "atoms", tuple(cleaned))

    def total_variation(self) -> float:
        return sum(abs(w) for _, _, w in self.atoms)


@dataclass(frozen=True)
class BVFunctionSpec:
    """Piecewise-exponential f(y) = sum_p coeff_p e^{-rate_p y} on [lo_p, hi_p).

    Bounded variation with explicit one-sided limits everywhere; the pieces
    must not overlap, and any unbounded piece needs Re rate > 0 so that f
    stays integrable.
    """

    pieces: tuple

    def __post_init__(self) -> None:
        cleaned = []
        for lo, hi, coeff, rate in self.pieces:
            lo, hi, coeff, rate = float(lo), float(hi), complex(coeff), complex(rate)
            if not lo < hi:
                raise ValueError("piece needs lo < hi")
            if math.isinf(hi) and rate.real <= 0:
                raise ValueError("unbounded piece needs Re rate > 0")
            cleaned.append((lo, hi, coeff, rate))
        cleaned.sort(key=lambda p: p[0])
        for (_, hi_prev, _, _), (lo_next, _, _, _) in zip(cleaned, cleaned[1:]):
            if lo_next < hi_prev:
                raise ValueError("pieces overlap")
        object.__setattr__(self, "pieces", tuple(cleaned))

    def value_right(self, x: float) -> complex:
        return sum((c * np.exp(-r * x) for lo, hi, c, r in self.pieces
                    if lo <= x < hi), 0j)

    def value_left(self, x: float) -> complex:
        return sum((c * np.exp(-r * x) for lo, hi, c, r in self.pieces
                    if lo < x <= hi), 0j)

    def truncated_transform(self, xi: np.ndarray, y: float) -> np.ndarray:
        """integral_{max(y, lo_p)}^{hi_p} f(t) e^{-xi t} dt, summed over pieces."""
        xi = np.asarray(xi, dtype=complex)
        total = np.zeros(xi.shape, dtype=complex)
        for lo, hi, c, r in self.pieces:
            start = max(lo, y)
            if start >= hi:
                continue
            w = xi + r
            if math.isinf(hi):
                total += c * np.exp(-w * start) / w
            else:
                d = hi - start
                total += c * np.exp(-w * start) * d * _em(w * d)
        return total


def default_cap(z: complex) -> int:
    """Steps per path keeping the z-truncation bias below _TRUNC_TOL; 10^6 at |z| = 1."""
    az = abs(complex(z))
    if az >= 1.0:
        return 10 ** 6
    if az == 0.0:
        return 1000
    return max(1000, math.ceil(math.log(_TRUNC_TOL * (1.0 - az)) / math.log(az)))


def _stream(seed: int, jump: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    return np.random.Generator(bg.jumped(jump) if jump else bg)


def _draw(model: IncrementModel, rng: np.random.Generator,
          size: int) -> tuple[np.ndarray, np.ndarray]:
    if model.sampler is None:
        raise UnsupportedModel("model has no sampler")
    return model.sampler(rng, size)


def _mc_moments(total: complex, total_sq: float, n: int) -> tuple[complex, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(total_sq - n * abs(mean) ** 2, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_functional(model: IncrementModel, z: complex, s1: complex,
                        s2: complex, paths: int, cap: int,
                        seed: int) -> MCEstimate:
    """Monte Carlo mean of z^N e^{-s1 b_N - s2 S_N} over the first descent.

    Paths that have not descended within cap steps contribute 0; their worst
    missing mass |z|^cap times the unfinished fraction is reported as
    truncation_bias_bound (and warned about when it dominates the noise).
    """
    z, s1, s2 = complex(z), complex(s1), complex(s2)
    if abs(z) > 1.0 + 1e-12 or s1.real < -1e-12 or s2.real > 1e-12:
        raise DomainError("need |z| <= 1, Re s1 >= 0, Re s2 <= 0")
    if paths < 1 or cap < 1:
        raise ValueError("need paths >= 1 and cap >= 1")
    if z == 0:
        return MCEstimate(0j, 0.0, paths, cap, 0.0)
    total, total_sq = 0j, 0.0
    unfinished = 0
    done = 0
    block = 0
    while done < paths:
        m = min(_BLOCK, paths - done)
        rng = _stream(seed, block)
        vals = np.zeros(m, dtype=complex)
        weight = np.ones(m)
        S = np.zeros(m)
        B = np.zeros(m)
        alive = np.arange(m)
        zn = 1.0 + 0j
        for _ in range(cap):
            zn *= z
            b, a = _draw(model, rng, alive.size)
            S[alive] += b - a
            B[alive] += b
            s_al = S[alive]
            contrib = zn * np.exp(-s1 * B[alive] - s2 * s_al)
            neg = s_al < 0.0
            tie = s_al == 0.0
            hit = alive[neg]
            vals[hit] += weight[hit] * contrib[neg]
            if tie.any():
                tied = alive[tie]
                vals[tied] += 0.5 * weight[tied] * contrib[tie]
                weight[tied] *= 0.5
            alive = alive[~neg]
            if alive.size == 0:
                break
        unfinished += alive.size
        total += complex(vals.sum())
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m
        block += 1
    mean, std_err = _mc_moments(total, total_sq, paths)
    bias = (unfinished / paths) * abs(z) ** cap
    if bias > std_err > 0:
        warnings.warn("truncation bias bound exceeds the statistical error; "
                      "increase cap", UserWarning, stacklevel=2)
    return MCEstimate(mean, std_err, paths, cap, bias)


def _series_tail(az: float, n_max: int) -> float:
    """Bound on sum_{n > n_max} |z|^n / n, the part of the series left out."""
    return az ** (n_max + 1) / ((n_max + 1) * (1.0 - az))


def _series_terms(z: complex) -> int:
    """Fewest series terms whose tail is below _TRUNC_TOL, as default_cap's bias is."""
    az = abs(complex(z))
    n_max = 0
    while _series_tail(az, n_max) > _TRUNC_TOL:
        n_max += 1
    return n_max


def _path_blocks(model: IncrementModel, n: int, paths: int,
                 seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield prefix sums (B, S), each of shape (m, n), over blocks of m paths.

    B is the running b-total and S = cumsum(b - a) the walk; block k draws
    its m*n pairs from Philox stream k.
    """
    chunk = max(1, min(_BLOCK, 4_000_000 // n))
    for block, done in enumerate(range(0, paths, chunk)):
        m = min(chunk, paths - done)
        b, a = _draw(model, _stream(seed, block), m * n)
        b = np.asarray(b).reshape(m, n)
        S = np.cumsum(b - np.asarray(a).reshape(m, n), axis=1)
        yield np.cumsum(b, axis=1), S


def _block_moments(blocks: Iterable[np.ndarray], n: int) -> tuple[complex, float]:
    """Mean and standard error of n per-path values arriving in blocks."""
    total, total_sq = 0j, 0.0
    for vals in blocks:
        total += complex(vals.sum())
        total_sq += float(np.sum(np.abs(vals) ** 2))
    return _mc_moments(total, total_sq, n)


def spitzer_series(model: IncrementModel, z: complex, s1: complex, s2: complex,
                   n_max: int, paths_per_n: int, seed: int) -> TransformValue:
    """1 - exp{-sum_{n<=n_max} (z^n/n) E[e^{-s1 b_n - s2 S_n}; S_n < 0]} by MC.

    All terms share paths_per_n paths of n_max steps: each path scores
    sum_n (z^n/n) w(S_n) e^{-s1 B_n - s2 S_n}, w = 1{S < 0} + 1{S = 0}/2, so
    the standard error of that per-path value is the exact noise of the
    exponent.  abs_err propagates it, plus the geometric remainder of the
    series, through the exponential.
    """
    z, s1, s2 = complex(z), complex(s1), complex(s2)
    if abs(z) >= 1.0 or s1.real < -1e-12 or s2.real > 1e-12:
        raise DomainError("need |z| < 1, Re s1 >= 0, Re s2 <= 0")
    if n_max < 0 or paths_per_n < 1:
        raise ValueError("need n_max >= 0 and paths_per_n >= 1")
    if z == 0:
        return TransformValue(0j, 0.0, "series")
    ns = np.arange(1, n_max + 1)
    coef = z ** ns / ns

    def scores():
        for B, S in _path_blocks(model, n_max, paths_per_n, seed):
            w = (S < 0.0) + 0.5 * (S == 0.0)
            yield (w * np.exp(-s1 * B - s2 * S)) @ coef

    acc, noise = _block_moments(scores(), paths_per_n) if n_max else (0j, 0.0)
    damp = abs(np.exp(-acc))
    return TransformValue(1.0 - np.exp(-acc),
                          damp * (noise + _series_tail(abs(z), n_max)), "series")


def max_n_estimate(model: IncrementModel, n: int, s: complex, paths: int,
                   seed: int) -> MCEstimate:
    """Monte Carlo mean of e^{-s M_n} for the running maximum at horizon n."""
    s = complex(s)
    if s.real < -1e-12:
        raise DomainError("need Re s >= 0")
    if n < 0 or paths < 1:
        raise ValueError("need n >= 0 and paths >= 1")
    if n == 0 or s == 0:
        return MCEstimate(1.0 + 0j, 0.0, paths, n, 0.0)
    mean, std_err = _block_moments(
        (np.exp(-s * np.maximum(np.max(S, axis=1), 0.0))
         for _, S in _path_blocks(model, n, paths, seed)),
        paths)
    return MCEstimate(mean, std_err, paths, n, 0.0)


def verify_hewitt_discrete(H: AtomicMeasure2D, f: BVFunctionSpec,
                           spec: ContourSpec) -> tuple[complex, complex, float]:
    """Evaluate both sides of the atomic inversion identity at truncation spec.T.

    The left side is the plain symmetric truncation of the axis integral (no
    extrapolation: the identity is a statement about the T -> infinity limit,
    so the caller studies the gap as a function of spec.T); the inner y
    integral is in closed form per atom and piece.  The right side is the
    half-weighted boundary sum.  Only spec.T and spec.nodes are read.
    """
    rhs = 0j
    for u, y, w in H.atoms:
        if y <= u:
            rhs += 0.5 * w * f.value_right(u)
        if y < u:
            rhs += 0.5 * w * f.value_left(u)

    atoms = H.atoms

    def inner(xi):
        xi = np.asarray(xi, dtype=complex)
        out = np.zeros(xi.shape, dtype=complex)
        for u, y, w in atoms:
            out += w * np.exp(xi * u) * f.truncated_transform(xi, y)
        return out

    lhs = 1j * complex(np.sum(_band(inner, 0.0, spec.T, spec.nodes, None))) / _TWO_PI_I
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise NoConvergence("inversion quadrature produced a non-finite value")
    return complex(lhs), complex(rhs), abs(lhs - rhs)
