"""Independent ground-truth engines for the transform identities.

Three simulation oracles (first-descent functional, truncated series over
step counts, running-maximum at a fixed horizon) plus a direct numerical
check of the inversion identity on finite atomic measures.  Simulation uses
counter-based Philox streams, one per block of paths, and the blocks run on
a small thread pool (see _map and _threads), or inline when the caller is
itself a pool worker.  Block sizes are fixed: 2^15 paths for the
first-descent estimator, and min(2^15, 2^19 // n) paths of n steps for the
series and max-n estimators.  Each block is reduced to its sums before
it returns, and the sums are added in block order, so results are bit-
reproducible from (seed, paths, cap or n) whatever the number of threads.

Walks that touch 0 exactly are scored with weight 1/2: the transform
identities carry the symmetric indicator (1{S <= 0} + 1{S < 0})/2, and the
path keeps its remaining half-weight until a strict descent.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
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
_BLOCK_PAIRS = 1 << 19  # increment pairs per block of n-step paths
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


def _sums(vals: np.ndarray) -> tuple[complex, float]:
    return complex(vals.sum()), float(np.sum(np.abs(vals) ** 2))


def _threads(tasks: int) -> int:
    """Pool width for tasks independent jobs: WALKFLUCT_THREADS, else the usable CPUs."""
    try:
        cap = int(os.environ["WALKFLUCT_THREADS"])
    except (KeyError, ValueError):
        cap = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    return max(1, min(cap, tasks))


_in_worker = threading.local()  # .active is set on the threads of a _map pool


def _map(fn, *iterables) -> list:
    """list(map(fn, *iterables)), on a thread pool when there are several tasks.

    Results come back in task order.  Any exception, a task's or an
    interrupt of the caller's, cancels the tasks not yet started and waits
    for the running ones before it propagates, so no worker outlives the
    call.  A call from one of the pool's own workers runs inline, so pools
    never nest: a grid point's blocks run on its sweep worker.
    """
    args = list(zip(*iterables))
    workers = 1 if getattr(_in_worker, "active", False) else _threads(len(args))
    if workers == 1:
        return [fn(*a) for a in args]

    def task(*a):
        _in_worker.active = True
        return fn(*a)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(task, *a) for a in args]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [f.result() for f in futures]


def _blocks(paths: int, chunk: int, block) -> list:
    """[block(k, m) for each block k of m <= chunk paths], in block order."""
    sizes = [min(chunk, paths - done) for done in range(0, paths, chunk)]
    return _map(block, range(len(sizes)), sizes)


def _block_moments(parts: list, n: int) -> tuple[complex, float]:
    """Mean and standard error of n per-path values from per-block sums."""
    return _mc_moments(sum((p[0] for p in parts), 0j), sum(p[1] for p in parts), n)


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

    def block(k, m):
        # S, B and the tie weights are held for the alive paths only, in the
        # order of alive: B only when s1 reads it, the weights only once a
        # path ties, and the functional only where a path descends or ties
        rng = _stream(seed, k)
        vals = np.zeros(m, dtype=complex)
        alive = np.arange(m)
        S = np.zeros(m)
        B = np.zeros(m) if s1 else None
        weight = None
        zn = 1.0 + 0j
        for _ in range(cap):
            zn *= z
            b, a = _draw(model, rng, alive.size)
            S += b - a
            if B is not None:
                B += b
            neg = S < 0.0
            tie = S == 0.0
            at = np.flatnonzero(neg | tie)
            if at.size == 0:
                continue
            e = -s1 * B[at] - s2 * S[at] if B is not None else -s2 * S[at]
            contrib = zn * np.exp(e)
            if weight is None and tie.any():
                weight = np.ones(alive.size)
            if weight is not None:
                weight[tie] *= 0.5  # a tie scores half its weight and keeps the other half
                contrib *= weight[at]
            vals[alive[at]] += contrib
            keep = ~neg
            alive, S = alive[keep], S[keep]
            if B is not None:
                B = B[keep]
            if weight is not None:
                weight = weight[keep]
            if alive.size == 0:
                break
        return (*_sums(vals), alive.size)

    parts = _blocks(paths, _BLOCK, block)
    mean, std_err = _block_moments(parts, paths)
    bias = (sum(part[2] for part in parts) / paths) * abs(z) ** cap
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


def _walk_blocks(model: IncrementModel, n: int, paths: int, seed: int, score) -> list:
    """_blocks over paths of n steps, each block reduced by score(b, S).

    Block k draws its m*n pairs from Philox stream k; b holds the b draws
    and S = cumsum(b - a) the walk, both of shape (m, n).
    """
    def block(k, m):
        b, a = _draw(model, _stream(seed, k), m * n)
        b = np.asarray(b).reshape(m, n)
        return score(b, np.cumsum(b - np.asarray(a).reshape(m, n), axis=1))

    return _blocks(paths, max(1, min(_BLOCK, _BLOCK_PAIRS // n)), block)


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

    def score(b, S):
        # the prefix sums B = cumsum(b) only where s1 reads them
        w = (S < 0.0) + 0.5 * (S == 0.0)
        e = -s1 * np.cumsum(b, axis=1) - s2 * S if s1 else -s2 * S
        return _sums((w * np.exp(e)) @ coef)

    acc, noise = _block_moments(_walk_blocks(model, n_max, paths_per_n, seed, score),
                                paths_per_n) if n_max else (0j, 0.0)
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
    mean, std_err = _block_moments(_walk_blocks(
        model, n, paths, seed,
        lambda _, S: _sums(np.exp(-s * np.maximum(np.max(S, axis=1), 0.0)))), paths)
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
