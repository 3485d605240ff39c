"""Quadrature on the imaginary axis.

Every closed-form transform downstream is a limit of symmetric truncations
``int_{-iT}^{iT} f(xi) dxi``.  When f decays only like c1/xi, the truncations
alone settle halfway between the two closed-loop readings of the axis.  The
convention here completes the axis into a loop through infinity that encloses
the left half-plane:

    pv_axis(f) = lim_T [ int_{-iT}^{iT} f(xi) dxi  +  i*pi*c1 ],
    c1 = lim_{|xi| -> inf} xi * f(xi)  along the axis,

so that ``xi -> 1/(xi - s)`` integrates to 2*pi*i for Re s < 0 and to 0 for
Re s > 0, exactly as residue calculus over the left half-plane predicts.
Densities decaying faster than 1/|xi| have c1 = 0 and the correction drops
out.  The limit is taken by one fixed ladder: truncations at T, 2T and 4T,
nested so that every node is evaluated once, then 1/T-Richardson
extrapolation.  ``pv_axis_singular`` handles the additional on-axis
singularity of Cauchy densities phi(xi)/(xi - s) by the subtraction trick.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvalError, HoelderSuspect, WalkfluctError

__all__ = [
    "ContourSpec",
    "TransformValue",
    "pv_axis",
    "pv_axis_singular",
]

_METHODS = frozenset({"contour", "rational", "series", "montecarlo"})
# truncation heights of the ladder, in units of ContourSpec.T
_LADDER = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class ContourSpec:
    """Resolution parameters for axis quadrature.

    T is the base truncation height of the ladder T, 2T, 4T, nodes the
    Gauss-Legendre count per unit panel, and tol the absolute error target
    for the transform an engine returns: the engines raise NoConvergence
    when its abs_err exceeds tol.
    """

    T: float = 120.0
    nodes: int = 24
    tol: float = 1e-5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive and finite")
        if int(self.nodes) != self.nodes or self.nodes < 1:
            raise ValueError("nodes must be a positive integer")
        if self.nodes * self.T < 64:
            raise ValueError("resolution guard: nodes * T >= 64 required")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class TransformValue:
    """A computed transform value together with its error estimate."""

    value: complex
    abs_err: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {sorted(_METHODS)}")
        if not (math.isfinite(self.abs_err) and self.abs_err >= 0.0):
            raise ValueError("abs_err must be finite and nonnegative")
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError("value must be finite")


def _panel_edges(lo: float, hi: float, refine_near: tuple[float, float] | None) -> np.ndarray:
    """Panel edges on [lo, hi]: ceil(hi - lo) equal panels plus refinement.

    refine_near = (ordinate, scale) inserts edges accumulating geometrically
    toward |ordinate| down to width ~scale/16, which is what a density with a
    pole at distance ~scale from the axis needs.  Pairing folds the two
    half-axes onto the positive one, hence the abs().
    """
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


def _eval_density(density, xi: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized density on an array of axis points in one call.

    A WalkfluctError from the density propagates as it is; any other failure,
    including a density that only accepts scalars, raises EvalError.
    """
    with np.errstate(all="ignore"):
        try:
            raw = density(xi)
            vals = np.broadcast_to(np.asarray(raw, dtype=complex), xi.shape).astype(complex)
        except WalkfluctError:
            raise
        except Exception as exc:
            raise EvalError(f"density evaluation failed: {exc}") from exc
    bad = ~np.isfinite(vals)
    if bad.any():
        where = xi[bad][0]
        raise EvalError(f"density returned a non-finite value at xi = {where:.6g}")
    return vals


def _band(density, lo: float, hi: float, nodes: int,
          refine_near: tuple[float, float] | None) -> np.ndarray:
    """Quadrature terms of the density on the two axis bands lo <= |Im xi| <= hi.

    The terms w*(f(iy) + f(-iy)) sum to the band integral divided by i.
    """
    edges = _panel_edges(lo, hi, refine_near)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    ys = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ws * (_eval_density(density, 1j * ys) + _eval_density(density, -1j * ys))


def _neville_table(hs, vals):
    """Full Neville tableau for polynomial extrapolation to h = 0."""
    n = len(vals)
    cols = [list(map(complex, vals))]
    for j in range(1, n):
        prev = cols[-1]
        cols.append([
            (hs[i] * prev[i + 1] - hs[i + j] * prev[i]) / (hs[i] - hs[i + j])
            for i in range(n - j)
        ])
    return cols


def _extrapolate(hs, vals) -> tuple[complex, float]:
    """Limit at h = 0 with an error estimate from the two sub-tableaus."""
    if len(vals) == 1:
        return complex(vals[0]), abs(vals[0])
    cols = _neville_table(list(hs), list(vals))
    value = cols[-1][0]
    err = abs(value - cols[-2][0])
    if len(cols[-2]) > 1:
        err = max(err, abs(value - cols[-2][1]))
    return value, err


def pv_axis(density, spec: ContourSpec, *, asymptotic_coeff: complex,
            refine_near: tuple[float, float] | None = None) -> TransformValue:
    """Limit of symmetric truncations of the axis integral, closed at infinity.

    The truncations at heights T, 2T and 4T share their nodes: each adds one
    band [lo, hi] to the one below it, and their 1/T-Richardson limit is the
    value.  asymptotic_coeff is c1 = lim xi*density(xi), which every caller
    knows in closed form (0 for any density decaying faster than 1/|xi|).
    refine_near subdivides panels geometrically around an ordinate where the
    density peaks.

    abs_err is the extrapolation spread of the ladder only; the caller gates
    it against spec.tol on the quantity it returns.  The three truncations
    share the band next to the axis, so the spread cannot see a pole within
    about a panel of the axis unless refine_near names its ordinate; the
    engines always pass refine_near.
    """
    heights = [spec.T * k for k in _LADDER]
    c1 = complex(asymptotic_coeff)
    terms, vals = [], []
    for lo, hi in zip([0.0] + heights[:-1], heights):
        terms.append(_band(density, lo, hi, spec.nodes, refine_near))
        # one sum over all of [0, hi] rounds exactly as a single truncation would
        raw = 1j * complex(np.sum(np.concatenate(terms)))
        v = raw + 1j * math.pi * c1
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise EvalError(f"truncated integral at T = {hi:g} is not finite")
        vals.append(v)
    value, err = _extrapolate([1.0 / T for T in heights], vals)
    err = max(err, 1e-15 * (1.0 + abs(value)))
    return TransformValue(value=value, abs_err=err, method="contour")


def _hoelder_probe(phi, s: complex, phi_s: complex) -> None:
    # Finite-difference smoothness check along the axis near s.  A jump shows
    # up as increments that refuse to shrink with the probe scale.
    deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4]) * max(1.0, abs(s))
    pts = np.concatenate([s + 1j * deltas, s - 1j * deltas])
    vals = _eval_density(phi, pts)
    diffs = np.maximum(np.abs(vals[:4] - phi_s), np.abs(vals[4:] - phi_s))
    if diffs[-1] <= 1e-12 * (1.0 + abs(phi_s)):
        return
    with np.errstate(divide="ignore"):
        slopes = np.diff(np.log(np.maximum(diffs, 1e-300))) / np.diff(np.log(deltas))
    if slopes[-1] < 0.1:
        warnings.warn(
            f"local smoothness exponent near s = {s:.6g} estimated at "
            f"{slopes[-1]:.3f}; principal value may be unreliable",
            HoelderSuspect, stacklevel=3)


def pv_axis_singular(phi, s: complex, spec: ContourSpec, *,
                     phi_at_infinity: complex = 0.0) -> TransformValue:
    """Doubly dashed Cauchy value of phi(xi)/(xi - s) for s on the axis.

    Computed through the nonsingular subtraction form
    (phi(xi) - phi(s))/(xi - s), whose own 1/xi coefficient is
    phi_at_infinity - phi(s); suppliers of phi that does not vanish at i*inf
    must pass its limit.  Warns HoelderSuspect when a finite-difference probe
    suggests phi is too rough at s for the value to mean much.  Divided by
    2*pi*i, the value is the exterior (right half-plane) Plemelj limit of the
    Cauchy transform of phi at s; the interior limit exceeds it by phi(s).
    """
    s = complex(s)
    if abs(s.real) > 1e-9 * (1.0 + abs(s)):
        raise DomainError("pv_axis_singular requires Re s = 0")
    s = 1j * s.imag
    phi_s = complex(_eval_density(phi, np.array([s], dtype=complex))[0])
    _hoelder_probe(phi, s, phi_s)

    def density(xi: np.ndarray) -> np.ndarray:
        return (_eval_density(phi, xi) - phi_s) / (xi - s)

    return pv_axis(density, spec,
                   asymptotic_coeff=complex(phi_at_infinity) - phi_s,
                   refine_near=(s.imag, 0.5))
