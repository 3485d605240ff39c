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
extrapolation.  Each node count's Gauss-Legendre rule is built once per
process and shared with ``roots``, as is each band's panel layout, so a call
costs its density evaluations (at s1 = 0, ``fluct`` tabulates h per model).
``pv_axis_singular`` gives the Cauchy value of phi(xi)/(xi - s) at any s, on
or off the axis, by subtracting phi at the nearest axis point times a unit
Lorentzian whose own Cauchy value is known in closed form.  It takes a tuple
of poles too, and its poles share one table of phi.  A conjugate-symmetric
integrand, f(conj xi) = conj f(xi), is evaluated on the upper half-axis
only; phi(xi)/(xi - s) is one at a real s when phi(conj xi) = conj phi(xi).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, HoelderSuspect, WalkfluctError

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
    """A computed transform value together with its error estimate.

    An engine called on arrays of points returns arrays of one shape in value
    and abs_err, and the checks below hold elementwise."""

    value: complex
    abs_err: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {sorted(_METHODS)}")
        err = np.asarray(self.abs_err)
        if not (np.isfinite(err) & (err >= 0.0)).all():
            raise ValueError("abs_err must be finite and nonnegative")
        if not np.isfinite(self.value).all():
            raise ValueError("value must be finite")


def _refinement(lo: float, hi: float, refine_near: tuple[float, float] | None) -> np.ndarray:
    """The edges inside (lo, hi) that refine_near adds to the unit panels."""
    y0, scale = map(abs, refine_near or (0.0, 0.0))
    pts, off = [y0] if 0.0 < scale < 1.0 else [], scale / 16.0
    while pts and off <= 2.0:
        pts += [y0 - off, y0 + off]
        off *= 2.0
    pts = np.array(pts)
    return pts[(lo < pts) & (pts < hi)]


def _panel_edges(lo: float, hi: float, refine_near: tuple[float, float] | None) -> np.ndarray:
    """Panel edges on [lo, hi]: ceil(hi - lo) equal panels plus refinement.

    refine_near = (ordinate, scale) inserts edges accumulating geometrically
    toward |ordinate| down to width ~scale/16, which is what a density with a
    pole at distance ~scale from the axis needs.  Pairing folds the two
    half-axes onto the positive one, hence the abs().
    """
    edges = np.linspace(lo, hi, max(1, math.ceil(hi - lo)) + 1)
    out = np.unique(np.concatenate((edges, _refinement(lo, hi, refine_near))))
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


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Built once per n and read-only, so every caller shares one copy.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_nodes(a: np.ndarray, b: np.ndarray, nodes: int) -> tuple[np.ndarray, ...]:
    """Nodes iy and -iy and weights of the rule on the panels [a_j, b_j], in order."""
    x, w = _gauss_legendre(nodes)
    half = 0.5 * (b - a)
    ys = (0.5 * (b + a)[:, None] + half[:, None] * x).ravel()
    return 1j * ys, -1j * ys, (half[:, None] * w).ravel()


@functools.lru_cache(maxsize=32)
def _layout(lo: float, hi: float, nodes: int) -> tuple[np.ndarray, ...]:
    """Edges, nodes iy and -iy and weights of the band's unit panels; read-only."""
    edges = _panel_edges(lo, hi, None)
    layout = (edges, *_panel_nodes(edges[:-1], edges[1:], nodes))
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _ladder(T: float) -> list[tuple[float, float]]:
    """The bands [0, T], [T, 2T] and [2T, 4T] that the ladder adds in turn."""
    heights = [T * k for k in _LADDER]
    return list(zip([0.0] + heights[:-1], heights))


def _band(density, lo: float, hi: float, nodes: int,
          refine_near: tuple[float, float] | None,
          conjugate_symmetric: bool = False) -> np.ndarray:
    """Quadrature terms of the density on the two axis bands lo <= |Im xi| <= hi.

    The terms w*(f(iy) + f(-iy)) sum to the band integral divided by i.  A
    conjugate-symmetric density, f(conj xi) = conj f(xi), has f(-iy) =
    conj f(iy), so its terms are 2w*Re f(iy) and only the upper half-axis is
    evaluated.  Refinement splices sub-panels into the band's shared layout;
    the replaced panels are evaluated only for a density that sets whole_layout.
    """
    def terms(up, down, ws):
        upper = _eval_density(density, up)
        if conjugate_symmetric:
            # kept complex, so the ladder sums it exactly as it sums f(iy) + f(-iy)
            return ws * (2.0 * upper.real + 0j)
        return ws * (upper + _eval_density(density, down))

    layout = _layout(lo, hi, nodes)
    if not _refinement(lo, hi, refine_near).size:
        return terms(*layout[1:])
    edges, unit_edges = _panel_edges(lo, hi, refine_near), layout[0]
    k = np.minimum(np.searchsorted(unit_edges, edges[:-1]), len(unit_edges) - 2)
    unit = (unit_edges[k] == edges[:-1]) & (unit_edges[k + 1] == edges[1:])
    idx = (k[unit][:, None] * nodes + np.arange(nodes)).ravel()   # kept unit-panel nodes
    at_unit, out = np.repeat(unit, nodes), np.empty(len(unit) * nodes, dtype=complex)
    whole = getattr(density, "whole_layout", False)
    out[at_unit] = terms(*layout[1:])[idx] if whole else terms(*(a[idx] for a in layout[1:]))
    out[~at_unit] = terms(*_panel_nodes(edges[:-1][~unit], edges[1:][~unit], nodes))
    return out


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
            refine_near: tuple[float, float] | None = None,
            conjugate_symmetric: bool = False) -> TransformValue:
    """Limit of symmetric truncations of the axis integral, closed at infinity.

    The truncations at heights T, 2T and 4T share their nodes: each adds one
    band [lo, hi] to the one below it, and their 1/T-Richardson limit is the
    value.  asymptotic_coeff is c1 = lim xi*density(xi), which every caller
    knows in closed form (0 for any density decaying faster than 1/|xi|).
    refine_near subdivides panels geometrically around an ordinate where the
    density peaks.  conjugate_symmetric states that density(conj xi) =
    conj density(xi); the density is then evaluated on the upper half-axis
    only.

    abs_err is the extrapolation spread of the ladder only; the caller gates
    it against spec.tol on the quantity it returns.  The three truncations
    share the band next to the axis, so the spread cannot see a pole within
    about a panel of the axis unless refine_near names its ordinate; the
    engines always pass refine_near.
    """
    bands = _ladder(spec.T)
    c1 = complex(asymptotic_coeff)
    terms, vals = [], []
    for lo, hi in bands:
        terms.append(_band(density, lo, hi, spec.nodes, refine_near, conjugate_symmetric))
        # one sum over all of [0, hi] rounds exactly as a single truncation would
        raw = 1j * complex(np.sum(np.concatenate(terms)))
        v = raw + 1j * math.pi * c1
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise EvalError(f"truncated integral at T = {hi:g} is not finite")
        vals.append(v)
    value, err = _extrapolate([1.0 / hi for _, hi in bands], vals)
    err = max(err, 1e-15 * (1.0 + abs(value)))
    return TransformValue(value=value, abs_err=err, method="contour")


def _hoelder_probe(phi, s: complex) -> complex:
    """phi(s), from one call that also checks phi's smoothness along the axis at s.

    A jump shows up as finite-difference increments that refuse to shrink
    with the probe scale; it warns HoelderSuspect.
    """
    deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4]) * max(1.0, abs(s))
    vals = _eval_density(phi, np.concatenate([[s], s + 1j * deltas, s - 1j * deltas]))
    phi_s = complex(vals[0])
    diffs = np.maximum(np.abs(vals[1:5] - phi_s), np.abs(vals[5:] - phi_s))
    if diffs[-1] <= 1e-12 * (1.0 + abs(phi_s)):
        return phi_s
    with np.errstate(divide="ignore"):
        slopes = np.diff(np.log(np.maximum(diffs, 1e-300))) / np.diff(np.log(deltas))
    if slopes[-1] < 0.1:
        warnings.warn(
            f"local smoothness exponent near s = {s:.6g} estimated at "
            f"{slopes[-1]:.3f}; principal value may be unreliable",
            HoelderSuspect, stacklevel=3)
    return phi_s


def pv_axis_singular(phi, s: complex | tuple[complex, ...], spec: ContourSpec, *,
                     phi_at_infinity: complex = 0.0, conjugate_symmetric: bool = False
                     ) -> TransformValue | tuple[TransformValue, ...]:
    """Cauchy value of phi(xi)/(xi - s) over the axis, closed at infinity, at any s.

    Subtracting phi(s0) w(xi) at the nearest axis point s0 = i Im s, with
    w(xi) = 1/(1 - (xi - s0)^2), keeps the integrand bounded however close s
    lies to the axis; w decays like 1/xi^2, so the 1/xi coefficient is
    phi_at_infinity (a phi that does not vanish at i*inf must pass its limit)
    and no tail growing with Re s reaches the ladder.  Residues at s0 - 1 (and
    at s if Re s < 0) give the subtracted part: -pi*i phi(s0)/(1 + |Re s|)
    for Re s >= 0 and its negative for Re s < 0.  On the axis the value over
    2*pi*i is the exterior Plemelj limit; the interior one exceeds it by
    phi(s).  Warns HoelderSuspect when a probe finds phi too rough at s0.

    s may be one pole or a tuple of poles, for a TransformValue or a tuple of
    them.  The poles of one call share phi: it is evaluated once on each
    band's shared layout and probed once per distinct s0, and the table is
    freed when the call returns.  conjugate_symmetric states that phi(conj
    xi) = conj phi(xi); at a real pole the integrand then is conjugate-
    symmetric too, and pv_axis evaluates it on the upper half-axis only.
    """
    poles = tuple(map(complex, s)) if isinstance(s, tuple) else (complex(s),)
    phi_0s: dict[complex, complex] = {}
    table: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def shared_phi(xi: np.ndarray) -> np.ndarray:
        if id(xi) not in table:   # the entry keeps xi alive, so its id stays its own
            table[id(xi)] = (xi, _eval_density(phi, xi))
        return table[id(xi)][1]

    out = []
    for p in poles:
        s0 = 1j * p.imag
        if s0 not in phi_0s:
            phi_0s[s0] = _hoelder_probe(phi, s0)
        phi_0 = phi_0s[s0]

        def density(xi: np.ndarray, p=p, s0=s0, phi_0=phi_0) -> np.ndarray:
            return (shared_phi(xi) - phi_0 / (1.0 - (xi - s0) ** 2)) / (xi - p)
        density.whole_layout = len(poles) > 1   # the poles share phi on the whole layout

        pv = pv_axis(density, spec, asymptotic_coeff=phi_at_infinity,
                     refine_near=(p.imag, abs(p.real) or 0.5),
                     conjugate_symmetric=conjugate_symmetric and p.imag == 0.0)
        back = (1j if p.real < 0.0 else -1j) * math.pi * phi_0 / (1.0 + abs(p.real))
        out.append(TransformValue(pv.value + back, pv.abs_err, "contour"))
    return tuple(out) if isinstance(s, tuple) else out[0]
