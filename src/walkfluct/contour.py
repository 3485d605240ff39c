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
out.  ``pv_axis_singular`` handles the additional on-axis singularity of
Cauchy densities phi(xi)/(xi - s) by the subtraction trick, and
``boundary_values`` converts its output into the two Plemelj limits.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutHit,
    DomainError,
    EvalError,
    HoelderSuspect,
    NoConvergence,
    WalkfluctError,
)

__all__ = [
    "ContourSpec",
    "TransformValue",
    "pv_axis",
    "pv_axis_singular",
    "boundary_values",
    "log_branch",
]

_METHODS = frozenset({"contour", "rational", "series", "montecarlo"})


@dataclass(frozen=True)
class ContourSpec:
    """Resolution parameters for axis quadrature.

    T is the base truncation height, nodes the Gauss-Legendre count per unit
    panel, richardson_levels the number of extra T-doublings used for
    extrapolation in 1/T, and tol the absolute error target.
    """

    T: float = 120.0
    nodes: int = 24
    richardson_levels: int = 2
    tol: float = 1e-5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive and finite")
        if int(self.nodes) != self.nodes or self.nodes < 1:
            raise ValueError("nodes must be a positive integer")
        if self.nodes * self.T < 64:
            raise ValueError("resolution guard: nodes * T >= 64 required")
        if int(self.richardson_levels) != self.richardson_levels or self.richardson_levels < 0:
            raise ValueError("richardson_levels must be a nonnegative integer")
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


def _panel_edges(T: float, refine_near: tuple[float, float] | None) -> np.ndarray:
    """Panel edges on [0, T]: unit panels plus geometric refinement.

    refine_near = (ordinate, scale) inserts edges accumulating geometrically
    toward |ordinate| down to width ~scale/16, which is what a density with a
    pole at distance ~scale from the axis needs.  Pairing folds the two
    half-axes onto [0, T], hence the abs().
    """
    n = max(1, math.ceil(T))
    edges = set(np.linspace(0.0, T, n + 1).tolist())
    if refine_near is not None:
        y0, scale = abs(refine_near[0]), abs(refine_near[1])
        if 0.0 < scale < 1.0 and y0 < T:
            pts = [y0]
            off = scale / 16.0
            while off <= 2.0:
                pts.append(y0 - off)
                pts.append(y0 + off)
                off *= 2.0
            edges.update(p for p in pts if 0.0 < p < T)
    out = np.array(sorted(edges))
    keep = np.concatenate(([True], np.diff(out) > 1e-12 * max(T, 1.0)))
    return out[keep]


def _half_axis_rule(T: float, nodes: int,
                    refine_near: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    edges = _panel_edges(T, refine_near)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    ys = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ys, ws


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


def _level_value(density, T: float, nodes: int,
                 refine_near: tuple[float, float] | None,
                 asymptotic_coeff: complex | None) -> tuple[complex, float, float]:
    """One symmetric truncation at height T, with its 1/xi closure term.

    Returns (value, c1 spread across the outermost panel, outer-half tail
    magnitude).  The spread is zero when the caller supplied c1 exactly.
    """
    ys, ws = _half_axis_rule(T, nodes, refine_near)
    up = _eval_density(density, 1j * ys)
    dn = _eval_density(density, -1j * ys)
    contrib = ws * (up + dn)
    raw = 1j * complex(np.sum(contrib))
    tail = abs(1j * complex(np.sum(contrib[ys > 0.5 * T])))
    if asymptotic_coeff is None:
        # c1 = lim xi*f(xi).  The paired estimate (iy*f(iy) + (-iy)*f(-iy))/2
        # is an even series in 1/y, so fitting {1, 1/y^2} over the outermost
        # two panels leaves only an O(1/T^4) bias; a plain average would leak
        # an O(1/T^2) term into the extrapolation ladder.
        k = min(2 * nodes, len(ys))
        yy = ys[-k:]
        est = 0.5j * yy * (up[-k:] - dn[-k:])
        if k >= 4:
            basis = np.column_stack([np.ones(k), yy ** -2.0])
            coef, *_ = np.linalg.lstsq(basis, est, rcond=None)
            c1 = complex(coef[0])
            spread = float(np.max(np.abs(est - basis @ coef)))
        else:
            c1 = complex(np.mean(est))
            spread = float(np.max(np.abs(est - c1))) if k > 1 else abs(c1)
    else:
        c1 = complex(asymptotic_coeff)
        spread = 0.0
    return raw + 1j * math.pi * c1, spread, tail


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


def pv_axis(density, spec: ContourSpec, *,
            asymptotic_coeff: complex | None = None,
            refine_near: tuple[float, float] | None = None) -> TransformValue:
    """Limit of symmetric truncations of the axis integral, closed at infinity.

    asymptotic_coeff fixes c1 = lim xi*density(xi) exactly when the caller
    knows it (0 for any density decaying faster than 1/|xi|); pass None to
    estimate it from the outermost quadrature panel.  refine_near subdivides
    panels geometrically around an ordinate where the density peaks.
    """
    n_levels = spec.richardson_levels + 1
    heights = [spec.T * (2.0 ** k) for k in range(n_levels)]
    vals, spreads, tails = [], [], []
    for T in heights:
        v, spread, tail = _level_value(density, T, spec.nodes, refine_near, asymptotic_coeff)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise EvalError(f"truncated integral at T = {T:g} is not finite")
        vals.append(v)
        spreads.append(spread)
        tails.append(tail)
    if n_levels == 1:
        value, err = vals[0], tails[0]
    else:
        value, err = _extrapolate([1.0 / T for T in heights], vals)
    err += math.pi * spreads[-1]
    err = max(err, 1e-15 * (1.0 + abs(value)))
    if err > spec.tol:
        raise NoConvergence(
            f"truncation levels disagree: abs_err {err:.3g} exceeds tol {spec.tol:g}",
            best=value, abs_err=err)
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
                     phi_at_infinity: complex = 0.0,
                     refine_near: tuple[float, float] | None = None) -> TransformValue:
    """Doubly dashed Cauchy value of phi(xi)/(xi - s) for s on the axis.

    Computed through the nonsingular subtraction form
    (phi(xi) - phi(s))/(xi - s), whose own 1/xi coefficient is
    phi_at_infinity - phi(s); suppliers of phi that does not vanish at i*inf
    must pass its limit.  Warns HoelderSuspect when a finite-difference probe
    suggests phi is too rough at s for the value to mean much.
    """
    s = complex(s)
    if abs(s.real) > 1e-9 * (1.0 + abs(s)):
        raise DomainError("pv_axis_singular requires Re s = 0")
    s = 1j * s.imag
    phi_s = complex(_eval_density(phi, np.array([s], dtype=complex))[0])
    _hoelder_probe(phi, s, phi_s)
    if refine_near is None:
        refine_near = (s.imag, 0.5)

    def density(xi: np.ndarray) -> np.ndarray:
        return (_eval_density(phi, xi) - phi_s) / (xi - s)

    return pv_axis(density, spec,
                   asymptotic_coeff=complex(phi_at_infinity) - phi_s,
                   refine_near=refine_near)


def boundary_values(Phi_pv: complex, phi_at_s: complex) -> tuple[complex, complex]:
    """Plemelj limits (interior, exterior) of a Cauchy transform on the axis.

    Phi_pv is the principal value carrying the 1/(2*pi*i) prefactor; the
    interior (left half-plane) limit exceeds it by the full density value and
    the exterior limit equals it.
    """
    return (complex(Phi_pv) + complex(phi_at_s), complex(Phi_pv))


_CUT_ROT = cmath.exp(-0.25j * math.pi)


def log_branch(w: complex, mode: str = "principal") -> complex:
    """Single-valued logarithm on a declared cut plane.

    principal: cut along the negative real axis, Im log in (-pi, pi].
    negative_halfplane_cut: cut along the ray arg w = -3*pi/4, so the whole
    right half-plane and both imaginary half-axes sit in one sheet with
    Im log in (-3*pi/4, 5*pi/4].
    """
    w = complex(w)
    if w == 0:
        raise BranchCutHit("log of zero")
    if mode == "principal":
        if w.imag == 0.0 and w.real < 0.0:
            raise BranchCutHit("argument on the negative real axis cut")
        return cmath.log(w)
    if mode == "negative_halfplane_cut":
        u = w * _CUT_ROT
        if u.real < 0.0 and abs(u.imag) <= 1e-13 * abs(u.real):
            raise BranchCutHit("argument on the cut ray arg w = -3*pi/4")
        return cmath.log(u) + 0.25j * math.pi
    raise ValueError(f"unknown branch mode {mode!r}")
