"""Zero counting and location for shifted kernels in the left half-plane.

The counting contour is the segment Re xi = -eps closed by a left arc,
traversed counterclockwise; its winding number equals the number of enclosed
zeros.  In every regime _check_count_domain admits, Rouche's theorem gives
h2 - z h1 as many left zeros as h2, which are N = kernel.degree (Cohen, The
Single Server Queue, 1982, Part II), and every find settles its roots
against that N.  Kernels that clear to a polynomial get first root estimates
from a companion solve, the rest from a contour-moment locator (Delves &
Lyness 1967, Math. Comp. 21:543-560; Kravanja & Van Barel 2000, LNM 1727):
integrate the power sums (1/2 pi i) oint (xi - c)^k F'/F dxi, k <= N, on
adaptive Gauss-Legendre panels about the box [-R, -1e-6] x [-R, R], R from
the Fujiwara bound and doubled while the box holds fewer than N zeros, and
solve for them through Newton's identities.  Either way every estimate, or
group of near estimates, is checked on a disc of its own, the discs must
hold N zeros in all, and every disc reports the roots of its own power
sums.  Those average the kernel's rounding noise over the disc's circle,
where an iteration on F would stop at the first point that noise hides, and
stay accurate for numerically coincident zeros.  Every disc keeps the gap
between its moments and its reported roots' power sums, which bounds the
error in root products (Kravanja, Sakurai & Van Barel 1999, BIT
39:646-682).  Location spends at most _LOCATE_BUDGET kernel evaluations.

So the theorem gives the count and an independent count checks it: a single
count_left_zeros on the half-disc about the located roots, sized from them
and counted afresh, must agree.  A custom kernel whose h2 has a zero outside
the open left half-plane fails there or in the discs' total.  The roots are
also checked by their residuals.  verify_rouche adds a full count on top, at
three doubling radii and offset at most 0.05 from the axis.

Every count is certified by two sampling densities that agree, and one
dense grid serves both: the coarse pass reads every 4th dense sample.

One find_kernel_roots call takes many points (z, s) and runs each stage once
for all of them: the companion matrices of one size share one eigenvalue
call, every point's discs are one kernel evaluation and one row-wise FFT per
level, the half-disc counts are one count_left_zeros call on rows, and the
residuals are one evaluation.  Only the moment locator's adaptive boxes run
point by point.  Every point keeps every certificate and its own budget; a
point that fails raises for the whole call, and the message names it.  No
kernel call holds more than _BATCH_POINTS points.  A scalar call is a batch
of one.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .contour import _eval_density, _gauss_legendre
from .errors import (
    CountMismatch,
    DomainError,
    EvalError,
    NoConvergence,
    NonIntegerWinding,
    PreconditionViolated,
    WalkfluctError,
    ZeroOnContour,
)
from .model import RationalKernel

__all__ = ["RootReport", "count_left_zeros", "find_kernel_roots", "verify_rouche"]

_AXIS_TOL = 1e-9      # roots closer to the axis than this count as on-axis
_BATCH_POINTS = 8192  # kernel points one array call may hold


@dataclass(frozen=True)
class RootReport:
    """Certified left-half-plane roots of one shifted kernel, each in one of discs.

    count_argument_principle is the independent half-disc count:
    count_left_zeros on {Re xi < -contour_offset_eps, |xi| < contour_radius},
    with the radius 2(1 + max|r|) and the offset half the smallest |Re r|.
    It checks the kernel degree, the count Rouche's theorem gives and the
    roots were settled against.
    """

    roots: tuple
    residuals: tuple
    count_argument_principle: int
    contour_radius: float
    contour_offset_eps: float
    discs: tuple = ()

    def __post_init__(self) -> None:
        if len(self.roots) != self.count_argument_principle:
            raise ValueError("root list length disagrees with certified count")
        if len(self.roots) != len(self.residuals):
            raise ValueError("residual list length disagrees with root list")
        if not self.contour_offset_eps > 0:
            raise ValueError("contour offset must be positive")
        for r in self.roots:
            if not r.real < -self.contour_offset_eps / 2:
                raise ValueError(f"root {r:.6g} is not safely inside the left half-plane")

    def product_err(self, shift: complex) -> float:
        """Bound on |log| of the relative error of prod(shift - root)."""
        return sum(d.product_err(shift) for d in self.discs)


class _Rows:
    """F(xi, rows) on one row of points per entry of rows, in calls of at most
    _BATCH_POINTS points: whole rows while they fit, a longer row in pieces.
    where(row) names a row in error messages."""

    def __init__(self, F, where=lambda row: f" on contour {row}") -> None:
        self.F, self.where = F, where

    def __call__(self, xi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = np.empty(xi.shape, dtype=complex)
        step = max(1, _BATCH_POINTS // max(xi.shape[1], 1))
        with np.errstate(all="ignore"):
            for i in range(0, len(rows), step):
                for j in range(0, xi.shape[1], _BATCH_POINTS):
                    part = np.s_[i:i + step, j:j + _BATCH_POINTS]
                    try:
                        out[part] = self.F(xi[part], rows[i:i + step])
                    except WalkfluctError:
                        raise
                    except Exception as exc:
                        raise EvalError(f"density evaluation failed: {exc}"
                                        f"{self.where(rows[i])}") from exc
                    if not np.isfinite(out[part]).all():
                        a, b = np.argwhere(~np.isfinite(out[part]))[0]
                        raise EvalError(f"density returned a non-finite value at xi = "
                                        f"{xi[part][a, b]:.6g}{self.where(rows[i + a])}")
        return out


class _naming:
    """Name row's point in the message of any package error raised inside."""

    def __init__(self, F: _Rows, row: int) -> None:
        self.F, self.row = F, row

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, tb) -> None:
        if isinstance(err, WalkfluctError):
            where = self.F.where(self.row)
            msg = str(err.args[0]) if err.args else ""
            if not msg.endswith(where):
                err.args = (msg + where, *err.args[1:])


class _BudgetExceeded(NonIntegerWinding):
    """Refinement wants more samples than the seed density justifies."""


def _failure(vals: np.ndarray, budget: bool = False) -> Exception:
    # classify a winding failure; a contour zero drags refined samples toward
    # it, so min|F| collapses relative to the curve's typical magnitude
    mags = np.abs(vals)
    if float(mags.min()) < max(1e-12 * float(np.median(mags)), 1e-280):
        return ZeroOnContour("kernel magnitude vanishes on the counting contour")
    if budget:
        return _BudgetExceeded("phase refinement exceeded its sample budget")
    return NonIntegerWinding("phase steps failed to resolve under bisection")


def _ratios(a: np.ndarray) -> np.ndarray:
    # each sample over the one before it, cyclically along the last axis
    out = np.empty_like(a)
    np.divide(a[..., 1:], a[..., :-1], out=out[..., :-1])
    np.divide(a[..., :1], a[..., -1:], out=out[..., -1:])
    return out


def _log_steps(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase steps between cyclically consecutive samples along the last axis,
    where a complex-log step (phase and magnitude ratio jointly) is not
    finite or exceeds 0.8, and |vals|."""
    mags = np.abs(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _ratios(vals)
        # contiguous parts take numpy's vector loop
        steps = np.arctan2(np.ascontiguousarray(ratio.imag), np.ascontiguousarray(ratio.real))
        mag = np.log(_ratios(mags))
    return steps, ~(mag * mag + steps * steps <= 0.64), mags  # NaN fails the test too


def _cycle_winding(F, to_point, ts: np.ndarray, vals: np.ndarray) -> int:
    """Winding number of F along a closed curve, by adaptive phase tracking.

    to_point maps parameters in [0, 1) onto the curve, and vals holds F at
    the seed parameters ts; intervals whose complex-log step exceeds 0.8 are
    bisected until every step is resolved.  Watching the magnitude as well
    as the phase matters: a zero just off the curve concentrates a near-pi
    swing in a window far narrower than any fixed sampling, where the
    wrapped phase step alone can alias to something small, but the |F| dip
    cannot.

    Refinement is capped at a few multiples of the seed count: a curve that
    wants more is either undersampled (reseed denser), grazing a zero, or
    inside rounding noise where extra points only breed more unresolved
    steps, so grinding on would cost exponentially and settle nothing.
    """
    budget = 8 * ts.size + 1024
    for _ in range(48):
        if float(np.abs(vals).min()) < 1e-280:
            raise ZeroOnContour("kernel magnitude vanishes on the counting contour")
        steps, bad, _ = _log_steps(vals)
        if not bad.any():
            total = float(np.sum(steps)) / (2.0 * math.pi)
            if abs(total - round(total)) > 0.1:
                err = _failure(vals)
                if isinstance(err, ZeroOnContour):
                    raise err
                raise NonIntegerWinding(
                    f"accumulated argument / 2 pi = {total:.4f} is not an integer")
            return int(round(total))
        if ts.size + int(bad.sum()) > budget:
            raise _failure(vals, budget=True)
        nxt = np.concatenate([ts[1:], [1.0]])
        mids = 0.5 * (ts[bad] + nxt[bad])
        mid_vals = _eval_density(F, to_point(mids))
        ts = np.concatenate([ts, mids])
        vals = np.concatenate([vals, mid_vals])
        order = np.argsort(ts, kind="stable")
        ts, vals = ts[order], vals[order]
    raise _failure(vals)


def _windings(F: _Rows, to_point, rows: np.ndarray, ts: np.ndarray,
              vals: np.ndarray) -> np.ndarray:
    """Winding numbers of F along the curves of rows, sampled at ts into the
    rows of vals; NaN where a curve's refinement outgrew its budget.

    One pass takes the log steps of every row.  A row whose steps all resolve
    to an integer total keeps it; any other row goes on to _cycle_winding,
    which bisects its unresolved steps or raises."""
    total, unresolved = np.empty(len(rows)), np.empty(len(rows), dtype=bool)
    step = max(1, _BATCH_POINTS // ts.size)
    for i in range(0, len(rows), step):  # a call's worth of rows at a time, in cache
        steps, bad, mags = _log_steps(vals[i:i + step])
        if mags.min() < 1e-280:
            raise ZeroOnContour("kernel magnitude vanishes on the counting contour"
                                + F.where(rows[i + np.argmax(mags.min(axis=1) < 1e-280)]))
        total[i:i + step] = steps.sum(axis=1) / (2.0 * math.pi)
        unresolved[i:i + step] = bad.any(axis=1)
    out = total.round()
    for i in (unresolved | (abs(total - out) > 0.1)).nonzero()[0]:
        one = rows[i:i + 1]
        with _naming(F, rows[i]):
            try:
                out[i] = _cycle_winding(lambda xi: F(xi[None], one)[0],
                                        lambda t: to_point(t, one)[0], ts, vals[i])
            except _BudgetExceeded:
                out[i] = math.nan  # structure finer than the seeds; only density helps
    return out


@functools.lru_cache(maxsize=16)
def _seeds(n: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, n, endpoint=False)
    ts.flags.writeable = False
    return ts


def _verified_winding(F: _Rows, to_point, n0: np.ndarray) -> np.ndarray:
    """Windings of F along curves with a sampling-density certificate each.

    The adaptive refinement in _cycle_winding can be fooled when an entire
    near-pi swing and its matching |F| dip both hide strictly between two
    seed samples; reseeding 4x denser moves the sample grid into any such
    window, so two consecutive densities agreeing certifies the count.

    to_point(ts, rows) maps parameters onto the curves of rows, and n0 holds
    each curve's seed count.  Curves of equal n0 share one dense grid: F is
    evaluated on the 4 n0 seeds, and the n0 pass reads every 4th sample,
    since _seeds(4 n)[::4] equals _seeds(n) bit for bit.  A reseed evaluates
    only the curves whose densities disagree, on the next 4x grid, and
    compares it with their last dense count.
    """
    counts = np.empty(len(n0), dtype=int)
    for n in sorted(set(n0.tolist())):
        group = (n0 == n).nonzero()[0]
        step = max(1, _BATCH_POINTS // (4 * n))
        for i in range(0, len(group), step):  # a call's worth of curves at a time
            rows, ts = group[i:i + step], _seeds(4 * n)
            dense = F(to_point(ts, rows), rows)
            prev = _windings(F, to_point, rows, ts[::4], dense[:, ::4])
            while True:
                got = _windings(F, to_point, rows, ts, dense)
                done = got == prev  # NaN, a refinement over budget, never agrees
                counts[rows[done]] = got[done]
                if done.all():
                    break
                if ts.size >= 32768:
                    raise NonIntegerWinding("winding number keeps changing under sampling "
                                            "refinement" + F.where(rows[~done][0]))
                prev, rows, ts = got[~done], rows[~done], _seeds(4 * ts.size)
                dense = F(to_point(ts, rows), rows)
    return counts


def count_left_zeros(F, radius, eps):
    """Zeros of F (with multiplicity) in {Re xi < -eps, |xi| < radius}.

    F must be analytic on and inside the contour and zero-free on it.  radius
    and eps may instead be equal-length 1-D arrays, one half-disc each; F
    then takes (xi, rows), one row of points of xi on each half-disc numbered
    in the integer array rows, and the counts come back as an integer array.
    """
    one = np.ndim(radius) == 0
    radius, eps = np.array(radius, dtype=float, ndmin=1), np.array(eps, dtype=float, ndmin=1)
    if not (np.isfinite(radius) & (radius > eps) & (eps > 0)).all():
        raise ValueError("need radius > eps > 0")
    geometry = np.array([eps, radius, np.sqrt(radius * radius - eps * eps),
                         np.arcsin(eps / radius)])

    def to_point(ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # ts ascending: the segment takes ts < 0.5, the arc the rest
        e, r, hh, ph = geometry[:, rows, None]
        k = int(np.searchsorted(ts, 0.5))
        th = (math.pi / 2 + ph) + (ts[k:] - 0.5) * 2.0 * (math.pi - 2 * ph)
        pts = np.empty((len(rows), ts.size), dtype=complex)
        pts.real[:, :k], pts.imag[:, :k] = -e, -hh + 4.0 * hh * ts[:k]
        pts.real[:, k:], pts.imag[:, k:] = r * np.cos(th), r * np.sin(th)
        return pts

    if not isinstance(F, _Rows):
        F = _Rows((lambda xi, rows, G=F: G(xi[0])) if one else F)
    # seed finely enough that a dip from a zero at distance ~eps off the
    # segment cannot fall between samples
    n0 = np.minimum(16384, np.maximum(256, 16.0 * radius / eps)).astype(int)
    counts = _verified_winding(F, to_point, n0)
    return int(counts[0]) if one else counts


def _trim_poly(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    mags = np.abs(p)
    keep = mags > 1e-12 * mags.max()
    return p[int(np.argmax(keep)):]


def _roots_many(polys: list) -> list:
    """[np.roots(p) for p in polys]: the companion matrices of polynomials of
    one length with nonzero end coefficients share one eigenvalue call."""
    out, sizes = [None] * len(polys), {}
    for i, p in enumerate(polys):
        if len(p) > 1 and p[0] != 0 and p[-1] != 0:
            sizes.setdefault(len(p), []).append(i)
        else:
            out[i] = np.roots(p)  # zero end coefficients: np.roots strips them
    for size, idx in sizes.items():
        P = np.array([polys[i] for i in idx], dtype=complex)
        A = np.zeros((len(idx), size - 1, size - 1), dtype=complex)
        A.reshape(len(idx), -1)[:, size - 1::size] = 1.0  # the subdiagonal
        A[:, 0, :] = -P[:, 1:] / P[:, :1]
        for i, roots in zip(idx, np.linalg.eigvals(A)):
            out[i] = roots
    return out


def _check_count_domain(z: complex, s: complex, stable_drift) -> None:
    if not (cmath.isfinite(z) and cmath.isfinite(s)):
        raise DomainError("z and s must be finite")
    if s.real < -1e-12:
        raise PreconditionViolated("Re s must be nonnegative")
    az = abs(z)
    if az < 1.0 - 1e-12:
        return
    if az > 1.0 + 1e-12:
        raise PreconditionViolated("|z| must not exceed 1")
    if s.real > 1e-12:
        return
    if abs(z - 1.0) > 1e-12:
        raise PreconditionViolated(
            f"z = {z:.6g} on the unit circle at Re s = 0 is not covered; only z = 1 is")
    if not stable_drift:
        raise PreconditionViolated(
            "z = 1 at Re s = 0 requires E B < E A (pass stable_drift=True)")


def _shifted(kernel: RationalKernel, z: complex, s: complex):
    def F(xi):
        return kernel.eval_shifted(xi, z, s)
    return F


def _coeff_bound(kernel: RationalKernel, z: complex, s: complex) -> float:
    """Fujiwara radius 2 max_k M_k^(1/k) for the zeros of the shifted kernel.

    The kernel is read as a monic polynomial in xi whose k-th coefficient is
    bounded by M_k, sampled where s2 = s - xi actually lives (Re s2 >= Re s
    along the left contour); the moment box doubles it while it holds too
    few zeros.
    """
    probes = s + np.array([0.01, 1.0, 5.0, 20.0, 100.0,
                           0.01 + 3j, 0.01 - 3j, 1.0 + 10j, 1.0 - 10j])
    h1, h2 = (np.abs(c).max(axis=1) for c in kernel.coefficients(probes))
    lead = kernel.degree + 1 - len(h1)  # power offset of h1
    radius = 0.0
    for k in range(1, kernel.degree + 1):
        m = h2[k]
        if k >= lead:
            m += abs(z) * h1[k - lead]
        radius = max(radius, m ** (1.0 / k))
    return 2.0 * radius


# --- contour-moment locator --------------------------------------------------

_LOCATE_BUDGET = 60_000  # kernel evaluations one point's location may spend
_ORDER = 24              # power sums kept per root disc


@functools.cache
def _moment_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights, and the matrix taking values
    at the nodes to the derivative of their interpolant."""
    x, w = _gauss_legendre(16)
    gaps = x[:, None] - x + np.eye(16)
    bary = 1.0 / np.prod(gaps, axis=1)
    D = bary / bary[:, None] / gaps
    return x, w, D - np.diag(D.sum(axis=1))  # each row of a derivative sums to 0


class _Budget:
    """One point's kernel, with every evaluation charged to its location's budget."""

    def __init__(self, F, count: int) -> None:
        self.F, self.used, self.count, self.level, self.gap = F, 0, count, 0, None

    def charge(self, n: int) -> None:
        self.used += n
        if self.used > _LOCATE_BUDGET:
            raise NoConvergence(
                f"root location exceeded its budget: {self.used} of {_LOCATE_BUDGET} "
                f"kernel evaluations, root count N = {self.count} (the kernel degree), "
                f"panel level {self.level}, last |p_0 - N| = {self.gap}")

    def __call__(self, xi):
        self.charge(int(np.size(xi)))
        return self.F(xi)


def _power_sum_poly(p: np.ndarray) -> np.ndarray:
    """The monic polynomial whose zeros have power sums p_1..p_n."""
    e = [1.0 + 0j]
    for k in range(1, p.size):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return np.array(e) * (-1.0) ** np.arange(p.size)


def _box_roots(F: _Budget, x0: float, x1: float, y0: float, y1: float,
               count: int, noise: float) -> np.ndarray:
    """Zeros in [x0, x1] x [y0, y1] from their power sums about the centre.

    The moments (1/2 pi i) oint u^k F'/F dxi, k <= count, use 16-point
    Gauss-Legendre panels with F' from each panel's interpolant.  Each side
    starts as 8 panels; a panel is bisected until it agrees with its two
    halves to 1e-11, or to within what an absolute error `noise` in F can
    move it (near a zero just off the contour), and p_0 must then be within
    1e-6 of the root count.
    """
    center, scale = complex(x0 + x1, y0 + y1) / 2, abs(complex(x1 - x0, y1 - y0)) / 2
    nodes, weights, D = _moment_rule()
    spread = np.abs(D).sum(axis=1) * weights * noise  # weighted error of F' from noise

    def moments(a, b):
        xi = a[:, None] + (b - a)[:, None] * (0.5 * nodes + 0.5)
        vals = _eval_density(F, xi)
        if not np.all(vals):
            raise ZeroOnContour("kernel vanishes at a moment quadrature node")
        u = (xi - center) / scale
        return (np.einsum("pj,pjk->pk", (vals @ D.T) / vals * weights,
                          u[..., None] ** np.arange(count + 1)) / (2j * math.pi),
                np.sum(spread / np.abs(vals), axis=1))

    corners = np.array([x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1, x0 + 1j * y0])
    edges = corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * np.linspace(0, 1, 9)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    (est, est_noise), total = moments(a, b), np.zeros(count + 1, dtype=complex)
    while a.size:
        F.level += 1
        n, mid = a.size, 0.5 * (a + b)
        kids, kid_noise = moments(np.r_[a, mid], np.r_[mid, b])
        left, right = kids[:n], kids[n:]
        tol = 1e-11 + 8.0 * (est_noise + kid_noise[:n] + kid_noise[n:])
        ok = np.max(np.abs(left + right - est), axis=1) <= tol
        total += (left + right)[ok].sum(axis=0)
        a, b = np.r_[a[~ok], mid[~ok]], np.r_[mid[~ok], b[~ok]]
        est = np.concatenate([left[~ok], right[~ok]])
        est_noise = np.r_[kid_noise[:n][~ok], kid_noise[n:][~ok]]
        F.gap = abs(total[0] + est[:, 0].sum() - count)
    if F.gap > 1e-6:
        raise CountMismatch(f"moment p_0 misses the root count {count} (the kernel degree) "
                            f"by {F.gap:.3g}")
    return center + scale * np.roots(_power_sum_poly(total))


@functools.cache
def _disc_rule() -> tuple[np.ndarray, list]:
    """The 128 unit-circle nodes of a root disc, and i k, the spectral-
    derivative multipliers of its 64- and 128-node trapezoid sums."""
    mults = [1j * np.fft.fftfreq(n, 1.0 / n) for n in (64, 128)]
    for m in mults:
        m[m.size // 2] = 0.0
    return np.exp(2j * math.pi * np.arange(128) / 128), mults


def _disc_moments(F: _Rows, centers: np.ndarray, radii: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums of (1/2 pi i) oint ((xi - center)/radius)^k F'/F dxi,
    k <= _ORDER, with F' from the spectral derivative on the circle, at 64
    and at 128 nodes; the 64 nodes are every other one of the 128.  One row
    per disc, on the point numbered in rows, all from one evaluation."""
    unit, mults = _disc_rule()
    vals = F(centers[:, None] + radii[:, None] * unit, rows)
    zero = ~np.all(vals, axis=1)
    if zero.any():
        raise ZeroOnContour("kernel vanishes on a root disc" + F.where(rows[np.argmax(zero)]))
    sums = []
    for w, mult in zip((vals[:, ::2], vals), mults):
        g = np.fft.ifft(mult * np.fft.fft(w)) / w
        sums.append(np.fft.ifft(g)[:, :_ORDER + 1] / 1j)  # (1/n) sum_j g_j v_j^k
    return sums[0], sums[1]


@dataclass(frozen=True)
class RootDisc:
    """Zeros certified inside one disc, and the roots reported for them.

    terms[j-1] is (|q_j - Q_j| + e_j)/j: q_j is sum_i ((r_i - center)/radius)^j
    over the zeros r_i in the disc, e_j its quadrature error and Q_j the same
    sum over the reported roots.
    """

    center: complex
    radius: float
    roots: tuple
    terms: tuple

    def product_err(self, shift: complex) -> float:
        """Bound on |log(prod (shift - r_i) / prod (shift - reported))|.

        log prod (1 - (r - center)/d) = -sum_j P_j / (j d^j) with P_j the power
        sums about the centre; both root sets lie in the disc, which bounds
        the terms beyond the kept order.
        """
        x = self.radius / abs(shift - self.center)
        if x >= 1.0:
            return math.inf
        body = 0.0
        for t in reversed(self.terms):  # Horner, as polyval sums
            body = t + body * x
        body *= x
        return body + 2 * len(self.roots) * x ** (_ORDER + 1) / ((_ORDER + 1) * (1.0 - x))


def _disc_of(group: list, roots: list) -> tuple[complex, float]:
    # about the group mean, clear of the axis and of the other estimates
    c0 = group[0] if len(group) == 1 else complex(np.mean(group))
    gap = min((abs(r - c0) for r in roots if r not in group), default=math.inf)
    return c0, min(-c0.real / 4.0, gap / 3.0)


def _reported(F: _Rows, discs: list, owner: list) -> list:
    """Each disc's RootDisc: the m roots of its own power sums, and their error
    terms.  discs holds (center, radius, m, coarse, fine) for discs with m > 0,
    on the points numbered in owner; discs of one m are computed together."""
    out = [None] * len(discs)
    polys = _roots_many([_power_sum_poly(d[4][:d[2] + 1]) for d in discs])
    j = np.arange(1, _ORDER + 1)
    for m in {d[2] for d in discs}:
        idx = [k for k, d in enumerate(discs) if d[2] == m]
        c0 = np.array([discs[k][0] for k in idx])[:, None]
        radius = np.array([discs[k][1] for k in idx])[:, None]
        coarse, fine = (np.array([discs[k][i] for k in idx]) for i in (3, 4))
        local = c0 + radius * np.array([polys[k] for k in idx])
        u = (local - c0) / radius
        for n in np.flatnonzero(np.abs(u).max(axis=1) >= 1.0)[:1]:
            with _naming(F, owner[idx[n]]):
                raise CountMismatch(f"reported roots leave the disc about {c0[n, 0]:.8g}")
        err = 2.0 * np.abs(fine[:, 1:] - coarse[:, 1:]) + 1e-13  # the level gap, doubled
        gap = np.abs(fine[:, 1:] - (u[:, :, None] ** j).sum(axis=1))
        terms = (gap + err) / j
        for n, k in enumerate(idx):
            out[k] = RootDisc(discs[k][0], discs[k][1], tuple(local[n].tolist()),
                              tuple(terms[n].tolist()))
    return out


def _settle(F: _Rows, budgets: list, estimates: list) -> list:
    """Check every point's root estimates, or groups of near estimates, each
    on a disc of its own; returns each point's roots and discs.

    Estimates within 1e-3 (1 + |r|) of each other form a group.  Its disc,
    about the group mean and clear of the axis and of the other estimates,
    must hold an integer number m of zeros at 64 and at 128 trapezoid nodes;
    a disc that does not is in rounding noise, and its group joins the
    nearest one, so that point's discs are drawn again.  Every disc reports
    the m roots of its own power sums, which average the kernel's rounding
    noise over the circle and stay accurate for numerically coincident
    zeros.  The discs of every point still open are one evaluation per round.
    """
    groups = []
    for roots in estimates:
        gs: list[list[complex]] = []
        for r in roots:
            near = [g for g in gs if any(abs(r - q) <= 1e-3 * (1.0 + abs(r)) for q in g)]
            gs = [g for g in gs if g not in near] + [[r] + [q for g in near for q in g]]
        groups.append(gs)
    found: list = [[] for _ in estimates]
    todo = [i for i, gs in enumerate(groups) if gs]
    while todo:
        rows = np.array([i for i in todo for _ in groups[i]])
        shapes = [_disc_of(g, estimates[i]) for i in todo for g in groups[i]]
        for i in todo:
            with _naming(F, i):
                budgets[i].charge(128 * len(groups[i]))
        coarse, fine = _disc_moments(F, np.array([c for c, _ in shapes]),
                                     np.array([r for _, r in shapes]), rows)
        counts = np.round(fine[:, 0].real)
        whole = (np.maximum(np.abs(coarse[:, 0] - counts), np.abs(fine[:, 0] - counts))
                 <= 1e-6).tolist()
        retry, k = [], 0
        for i in todo:
            discs = []
            for g in groups[i]:
                if not whole[k]:
                    break
                discs.append((*shapes[k], int(counts[k]), coarse[k], fine[k]))
                k += 1
            else:
                found[i] = discs
                continue
            c0, p0 = shapes[k][0], fine[k, 0]
            k += len(groups[i]) - len(discs)
            with _naming(F, i):
                if len(groups[i]) == 1:
                    raise NoConvergence(f"the disc about {c0:.8g} gives no integer zero "
                                        f"count: p_0 = {p0:.6g}")
            # a disc in rounding noise: widen it by joining the nearest group
            near = min((h for h in groups[i] if h is not g),
                       key=lambda h: min(abs(r - c0) for r in h))
            groups[i] = [h for h in groups[i] if h is not g and h is not near] + [g + near]
            retry.append(i)
        todo = retry
    owner = [i for i, discs in enumerate(found) for d in discs if d[2] != 0]
    reported = _reported(F, [d for discs in found for d in discs if d[2] != 0], owner)
    mine: list[list] = [[] for _ in found]
    for d, i in zip(reported, owner):
        mine[i].append(d)
    out = []
    for i, settled in enumerate(map(tuple, mine)):
        roots = [r for d in settled for r in d.roots]
        if len(roots) != budgets[i].count:
            with _naming(F, i):
                raise CountMismatch(f"root discs hold {len(roots)} zeros, the kernel "
                                    f"degree is {budgets[i].count}")
        out.append((roots, settled))
    return out


def _moment_estimates(F: _Budget, kernel: RationalKernel, z: complex, s: complex,
                      scale: float) -> np.ndarray:
    """First estimates of the F.count left zeros from their power sums, first
    on [-R, -1e-6] x [-R, R] and then on a box three times their spread.  R
    starts at the Fujiwara bound and doubles while the box holds too few
    zeros, up to 7 radii."""
    if F.count == 0:
        return np.array([])
    noise = 1e-15 * scale  # rounding in F at the kernel's scale
    R = max(_coeff_bound(kernel, z, s), 1.0)
    for doublings in range(7):
        try:
            approx = _box_roots(F, -R, -1e-6, -R, R, F.count, noise)
            break
        except CountMismatch:
            if doublings == 6:
                raise
            R *= 2.0
    w = max(np.ptp(approx.real), np.ptp(approx.imag), 0.25 * (1.0 + np.abs(approx).max()))
    try:
        approx = _box_roots(F, approx.real.min() - w, min(approx.real.max() + w, -1e-6),
                            approx.imag.min() - w, approx.imag.max() + w, F.count, noise)
    except (CountMismatch, ZeroOnContour):
        pass  # a zero lies outside the smaller box: keep the first estimates
    return approx


def _locate(F: _Rows, kernel: RationalKernel, points: list, scale: np.ndarray) -> list:
    """Left zeros and discs at every point, each point on one budget.  Their
    number is the kernel degree, by Rouche's theorem; a kernel that clears to
    a polynomial takes its first estimates from companion solves, the rest
    from the contour-moment locator, and every estimate is settled against
    that number."""
    budgets = [_Budget(None, kernel.degree) for _ in points]
    if kernel.clear_fn is None:
        approx = []
        for i, (z, s) in enumerate(points):
            budgets[i].F = lambda xi, row=np.array([i]): F(xi.reshape(1, -1), row).reshape(xi.shape)
            with _naming(F, i):
                approx.append(_moment_estimates(budgets[i], kernel, z, s, scale[i]))
    else:
        approx = _roots_many([_trim_poly(kernel.clear_fn(z, s)) for z, s in points])
    return _settle(F, budgets, [[complex(r) for r in a if r.real < -_AXIS_TOL]
                                for a in approx])


def _contour_params(roots) -> tuple[float, float]:
    if roots:
        eps = min(-r.real for r in roots) / 2.0
        radius = 2.0 * (1.0 + max(abs(r) for r in roots))
    else:
        eps, radius = 0.01, 4.0
    return max(eps, 1e-9), radius


def _column(a: np.ndarray):
    # rows -> a[rows] as a column against a row of samples; a value shared by
    # every point stays a scalar, so the kernel combines its coefficients once
    if (a == a[0]).all():
        shared = complex(a[0])
        return lambda rows: shared
    return lambda rows: a[rows, None]


def find_kernel_roots(kernel: RationalKernel, z, s, stable_drift: bool | None = None):
    """All open-left-half-plane roots of h2(xi, s-xi) - z*h1(xi, s-xi).

    Their number is the kernel degree, the count Rouche's theorem gives in
    every admitted regime, and every root estimate is settled against it.
    An independent count checks it: RootReport.count_argument_principle is
    one count_left_zeros on the half-disc of radius 2(1 + max|r|), offset
    half the smallest |Re r| from the axis, and it must agree.  Every root is
    also checked against its kernel residual.  A NaN or infinite z or s
    raises DomainError.  Outside the regimes where the root count is
    guaranteed, raises PreconditionViolated; z = 1 with Re s = 0
    additionally needs the caller to assert negative drift via
    stable_drift=True.

    z and s broadcast.  Scalars give one RootReport; arrays give a list of
    them, one per point in C order, found with each stage run once for all
    the points.  A point that fails raises for the call, naming the point.
    """
    za, sa = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(s, dtype=complex))
    zs, ss = za.ravel(), sa.ravel()
    if not zs.size:
        return []
    zr, sr = _column(zs), _column(ss)
    F = _Rows(lambda xi, rows: kernel.eval_shifted(xi, zr(rows), sr(rows)),
              lambda row: f" at z = {complex(zs[row]):.6g}, s = {complex(ss[row]):.6g}")
    points = list(zip(zs.tolist(), ss.tolist()))
    for i, (zi, si) in enumerate(points):
        with _naming(F, i):
            _check_count_domain(zi, si, stable_drift)
    # |h2(0, s)| sizes the kernel; unlike |F(0)| it does not vanish at z = 1, s = 0
    scale = np.abs(kernel.eval_shifted(0.0, 0.0, ss))
    located = _locate(F, kernel, points, scale)
    refined = [sorted(roots, key=lambda r: (r.real, r.imag)) for roots, _ in located]
    params = [_contour_params(r) for r in refined]
    eps, radius = (np.array(v) for v in zip(*params))
    n_ap = count_left_zeros(F, radius, eps)
    res = np.abs(F(np.array(refined).reshape(len(points), -1), np.arange(len(points))))
    failed = res >= 1e-8 * scale[:, None]
    reports = []
    for i, (roots, (_, discs), n, r, bad) in enumerate(zip(
            refined, located, n_ap.tolist(), res.tolist(), failed.any(axis=1).tolist())):
        with _naming(F, i):
            if n != len(roots):
                raise CountMismatch(
                    f"located {len(roots)} roots but the argument principle counts {n}")
            if bad:
                raise CountMismatch(f"root {roots[np.argmax(failed[i])]:.8g} failed residual "
                                    "certification")
        reports.append(RootReport(roots=tuple(roots), residuals=tuple(r),
                                  count_argument_principle=n, contour_radius=params[i][1],
                                  contour_offset_eps=params[i][0], discs=discs))
    return reports[0] if za.ndim == 0 else reports


def _stable_count(F, radius: float, eps: float) -> int:
    """Count at growing radii until two consecutive doublings agree."""
    counts: list[int] = []
    for _ in range(10):
        counts.append(count_left_zeros(F, radius, eps))
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            return counts[-1]
        radius *= 2.0
    raise CountMismatch("zero count failed to stabilize under radius doubling")


def verify_rouche(kernel: RationalKernel, z: complex, s: complex) -> tuple[int, int, bool]:
    """Certified left-zero counts of h2(xi, s-xi) and of the z-shifted kernel.

    Each count comes from find_kernel_roots and is then checked by an
    independent full count: count_left_zeros at three doubling radii from the
    find's contour, offset at most 0.05 from the axis, must agree with it, or
    CountMismatch is raised."""
    counts = []
    for zz in (z, 0.0):
        rep = find_kernel_roots(kernel, zz, s)
        full = _stable_count(_shifted(kernel, complex(zz), complex(s)),
                             rep.contour_radius, min(rep.contour_offset_eps, 0.05))
        if full != rep.count_argument_principle:
            raise CountMismatch(f"the full count {full} disagrees with the find's "
                                f"{rep.count_argument_principle} at z = {zz:.6g}")
        counts.append(full)
    n_z, n_h2 = counts
    return n_h2, n_z, n_h2 == n_z
