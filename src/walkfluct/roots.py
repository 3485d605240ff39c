"""Zero counting and location for shifted kernels in the left half-plane.

The counting contour is the segment Re xi = -eps closed by a left arc,
traversed counterclockwise; its winding number equals the number of enclosed
zeros.  Kernels that clear to a polynomial get first root estimates from a
companion solve, the rest from a contour-moment locator (Delves & Lyness
1967, Math. Comp. 21:543-560; Kravanja & Van Barel 2000, LNM 1727): count
the N zeros inside an enclosing rectangle, integrate their power sums
(1/2 pi i) oint (xi - c)^k F'/F dxi, k <= N, on adaptive Gauss-Legendre
panels and solve for them through Newton's identities.  Either way the
estimates are polished and every root, or group of near roots, is checked
on a disc of its own.  A disc holding several zeros reports the roots of
its own power sums, which stay accurate for numerically coincident zeros.
Every disc keeps the gap between its moments and its reported roots' power
sums, which bounds the error in root products (Kravanja, Sakurai & Van Barel
1999, BIT 39:646-682).  Location spends at most _LOCATE_BUDGET kernel
evaluations.  The count is certified independently by the argument
principle on the uncleared kernel and the roots by their residuals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contour import _eval_density, _gauss_legendre
from .errors import (
    CountMismatch,
    NoConvergence,
    NonIntegerWinding,
    PreconditionViolated,
    ZeroOnContour,
)
from .model import RationalKernel

__all__ = ["RootReport", "count_left_zeros", "find_kernel_roots", "verify_rouche"]

_AXIS_TOL = 1e-9   # roots closer to the axis than this count as on-axis


@dataclass(frozen=True)
class RootReport:
    """Certified left-half-plane roots of one shifted kernel, each in one of discs."""

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


class _BudgetExceeded(NonIntegerWinding):
    """Refinement wants more samples than the seed density justifies."""


def _cycle_winding(F, to_point, n0: int) -> int:
    """Winding number of F along a closed curve, by adaptive phase tracking.

    to_point maps parameters in [0, 1) onto the curve; intervals whose
    complex-log step (phase and magnitude ratio jointly) exceeds 0.8 are
    bisected until every step is resolved.  Watching the magnitude as well as
    the phase matters: a zero just off the curve concentrates a near-pi swing
    in a window far narrower than any fixed sampling, where the wrapped phase
    step alone can alias to something small, but the |F| dip cannot.

    Refinement is capped at a few multiples of the seed count: a curve that
    wants more is either undersampled (reseed denser), grazing a zero, or
    inside rounding noise where extra points only breed more unresolved
    steps, so grinding on would cost exponentially and settle nothing.
    """
    def fail(vals: np.ndarray, budget: bool = False) -> Exception:
        # classify the failure; a contour zero drags refined samples toward
        # it, so min|F| collapses relative to the curve's typical magnitude
        mags = np.abs(vals)
        if float(mags.min()) < max(1e-12 * float(np.median(mags)), 1e-280):
            return ZeroOnContour("kernel magnitude vanishes on the counting contour")
        if budget:
            return _BudgetExceeded("phase refinement exceeded its sample budget")
        return NonIntegerWinding("phase steps failed to resolve under bisection")

    budget = 8 * n0 + 1024
    ts = np.linspace(0.0, 1.0, n0, endpoint=False)
    vals = _eval_density(F, to_point(ts))
    for _ in range(48):
        if float(np.abs(vals).min()) < 1e-280:
            raise ZeroOnContour("kernel magnitude vanishes on the counting contour")
        ratio = np.roll(vals, -1) / vals
        steps = np.angle(ratio)
        metric = np.hypot(np.log(np.abs(ratio)), steps)
        bad = ~np.isfinite(metric) | (metric > 0.8)
        if not bad.any():
            total = float(np.sum(steps)) / (2.0 * math.pi)
            if abs(total - round(total)) > 0.1:
                err = fail(vals)
                if isinstance(err, ZeroOnContour):
                    raise err
                raise NonIntegerWinding(
                    f"accumulated argument / 2 pi = {total:.4f} is not an integer")
            return int(round(total))
        if ts.size + int(bad.sum()) > budget:
            raise fail(vals, budget=True)
        nxt = np.concatenate([ts[1:], [1.0]])
        mids = 0.5 * (ts[bad] + nxt[bad])
        mid_vals = _eval_density(F, to_point(mids))
        ts = np.concatenate([ts, mids])
        vals = np.concatenate([vals, mid_vals])
        order = np.argsort(ts, kind="stable")
        ts, vals = ts[order], vals[order]
    raise fail(vals)


def _verified_winding(F, to_point, n0: int) -> int:
    """Winding with a sampling-density certificate.

    The adaptive refinement in _cycle_winding can be fooled when an entire
    near-pi swing and its matching |F| dip both hide strictly between two
    seed samples; reseeding 4x denser moves the sample grid into any such
    window, so two consecutive densities agreeing certifies the count.
    """
    prev: int | None = None
    while True:
        try:
            got = _cycle_winding(F, to_point, n0)
        except _BudgetExceeded:
            got = None  # structure finer than the seeds; only density helps
        if got is not None and got == prev:
            return got
        if n0 >= 32768:
            raise NonIntegerWinding(
                "winding number keeps changing under sampling refinement")
        prev, n0 = got, n0 * 4


def count_left_zeros(F, radius: float, eps: float) -> int:
    """Zeros of F (with multiplicity) in {Re xi < -eps, |xi| < radius}.

    F must be analytic on and inside the contour and zero-free on it.
    """
    if not (math.isfinite(radius) and math.isfinite(eps) and radius > eps > 0):
        raise ValueError("need radius > eps > 0")
    h = math.sqrt(radius * radius - eps * eps)
    phi = math.asin(eps / radius)

    def to_point(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts)
        pts = np.empty(ts.shape, dtype=complex)
        seg = ts < 0.5
        pts[seg] = -eps + 1j * (-h + 4.0 * h * ts[seg])
        th = (math.pi / 2 + phi) + (ts[~seg] - 0.5) * 2.0 * (math.pi - 2 * phi)
        pts[~seg] = radius * np.exp(1j * th)
        return pts

    # seed finely enough that a dip from a zero at distance ~eps off the
    # segment cannot fall between samples
    n0 = int(min(16384, max(256, 16.0 * radius / eps)))
    return _verified_winding(F, to_point, n0)


def _rect_winding(F, x0: float, x1: float, y0: float, y1: float) -> int:
    corners = np.array([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1])

    def to_point(ts: np.ndarray) -> np.ndarray:
        u = np.asarray(ts) * 4.0
        k = np.minimum(u.astype(int), 3)
        frac = u - k
        start = corners[k]
        return start + frac * (corners[(k + 1) % 4] - start)

    return _verified_winding(F, to_point, 128)


def _newton(F, x0: complex, tol_scale: float) -> complex:
    x = complex(x0)
    fx = complex(F(x))
    for _ in range(40):
        if abs(fx) <= 1e-15 * tol_scale:
            break
        d = 1e-6 * (1.0 + abs(x))
        fp = (complex(F(x + d)) - complex(F(x - d))) / (2.0 * d)
        if fp == 0:
            break
        step = fx / fp
        cand, fc = x, fx
        for _ in range(10):
            cand = x - step
            fc = complex(F(cand))
            if abs(fc) <= abs(fx):
                break
            step *= 0.5
        if abs(fc) >= abs(fx):
            break
        moved = abs(cand - x)
        x, fx = cand, fc
        if moved < 1e-15 * (1.0 + abs(x)):
            break
    return x


def _trim_poly(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    mags = np.abs(p)
    keep = mags > 1e-12 * mags.max()
    return p[int(np.argmax(keep)):]


def _check_count_domain(z: complex, s: complex, stable_drift) -> None:
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
    along the left contour); the caller confirms the radius by counting.
    """
    probes = s + np.array([0.01, 1.0, 5.0, 20.0, 100.0,
                           0.01 + 3j, 0.01 - 3j, 1.0 + 10j, 1.0 - 10j])

    def peak(c) -> float:
        return float(np.max(np.abs(np.asarray(c(probes), dtype=complex))))

    lead = kernel.degree + 1 - len(kernel.h1_coeffs)  # power offset of h1
    radius = 0.0
    for k in range(1, kernel.degree + 1):
        m = peak(kernel.h2_coeffs[k])
        if k >= lead:
            m += abs(z) * peak(kernel.h1_coeffs[k - lead])
        radius = max(radius, m ** (1.0 / k))
    return 2.0 * radius


# --- contour-moment locator --------------------------------------------------

_LOCATE_BUDGET = 60_000  # kernel evaluations one contour-moment location may spend
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
    """The kernel, with every evaluation charged to one location's budget."""

    def __init__(self, F) -> None:
        self.F, self.used, self.count, self.level, self.gap = F, 0, None, 0, None

    def __call__(self, xi):
        self.used += int(np.size(xi))
        if self.used > _LOCATE_BUDGET:
            raise NoConvergence(
                f"root location exceeded its budget: {self.used} of {_LOCATE_BUDGET} "
                f"kernel evaluations, enclosing count N = {self.count}, panel level "
                f"{self.level}, last |p_0 - N| = {self.gap}")
        return self.F(xi)


def _roots_from_power_sums(p: np.ndarray) -> np.ndarray:
    """Roots of the monic polynomial whose zeros have power sums p_1..p_n."""
    e = [1.0 + 0j]
    for k in range(1, p.size):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return np.roots(np.array(e) * (-1.0) ** np.arange(p.size))


def _box_roots(F: _Budget, x0: float, x1: float, y0: float, y1: float,
               count: int, noise: float) -> np.ndarray:
    """Zeros in [x0, x1] x [y0, y1] from their power sums about the centre.

    The moments (1/2 pi i) oint u^k F'/F dxi, k <= count, use 16-point
    Gauss-Legendre panels with F' from each panel's interpolant.  Each side
    starts as 8 panels; a panel is bisected until it agrees with its two
    halves to 1e-11, or to within what an absolute error `noise` in F can
    move it (near a zero just off the contour), and p_0 must then be within
    1e-6 of the winding count.
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
        raise CountMismatch(f"moment p_0 misses the enclosing count {count} by {F.gap:.3g}")
    return center + scale * _roots_from_power_sums(total)


def _disc_moments(F, center: complex, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums of (1/2 pi i) oint ((xi - center)/radius)^k F'/F dxi,
    k <= _ORDER, with F' from the spectral derivative on the circle, at 64
    and at 128 nodes; the 64 nodes are every other one of the 128."""
    vals = _eval_density(F, center + radius * np.exp(2j * math.pi * np.arange(128) / 128))
    if not np.all(vals):
        raise ZeroOnContour("kernel vanishes on a root disc")
    sums = []
    for w in (vals[::2], vals):
        freq = np.fft.fftfreq(w.size, 1.0 / w.size)
        freq[w.size // 2] = 0.0
        g = np.fft.ifft(1j * freq * np.fft.fft(w)) / w
        sums.append(np.fft.ifft(g)[:_ORDER + 1] / 1j)  # (1/n) sum_j g_j v_j^k
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
        body = x * float(np.polynomial.polynomial.polyval(x, self.terms))
        return body + 2 * len(self.roots) * x ** (_ORDER + 1) / ((_ORDER + 1) * (1.0 - x))


def _settle(F, roots: list[complex], count: int, scale: float) -> tuple[list, tuple]:
    """Check every polished root, or group of near roots, on a disc of its own.

    Roots within 1e-3 (1 + |r|) of each other form a group.  Its disc, about
    the group mean and clear of the axis and of the other roots, must hold an
    integer number m of zeros at 64 and at 128 trapezoid nodes; a disc that
    does not is in rounding noise, and its group joins the nearest one.
    A disc whose m zeros are not its one polished root reports the roots of
    its own power sums, polished only when m = 1: polishing numerically
    coincident roots one by one would scatter them through the noise.
    """
    groups: list[list[complex]] = []
    for r in roots:
        near = [g for g in groups if any(abs(r - q) <= 1e-3 * (1.0 + abs(r)) for q in g)]
        groups = [g for g in groups if g not in near] + [[r] + [q for g in near for q in g]]
    while True:
        discs = []
        for g in groups:
            c0 = complex(np.mean(g))
            gap = min((abs(r - c0) for r in roots if r not in g), default=math.inf)
            radius = min(-c0.real / 4.0, gap / 3.0)
            coarse, fine = _disc_moments(F, c0, radius)
            m = round(fine[0].real)
            if max(abs(coarse[0] - m), abs(fine[0] - m)) > 1e-6:
                break
            discs.append((g, c0, radius, m, coarse, fine))
        else:
            break
        if len(groups) == 1:
            raise NoConvergence(f"the disc about {c0:.8g} gives no integer zero count: "
                                f"p_0 = {fine[0]:.6g}")
        # a disc in rounding noise: widen it by joining the nearest group
        near = min((h for h in groups if h is not g),
                   key=lambda h: min(abs(r - c0) for r in h))
        groups = [h for h in groups if h is not g and h is not near] + [g + near]
    out: list[complex] = []
    settled = []
    j = np.arange(1, _ORDER + 1)
    for g, c0, radius, m, coarse, fine in discs:
        if m == 0:
            continue
        if m == 1:
            local = (g[0] if len(g) == 1 else _newton(F, c0 + radius * fine[1], scale),)
        else:
            local = tuple(c0 + radius * _roots_from_power_sums(fine[:m + 1]))
        u = (np.asarray(local) - c0) / radius
        if np.abs(u).max() >= 1.0:
            raise CountMismatch(f"reported roots leave the disc about {c0:.8g}")
        err = 2.0 * np.abs(fine[1:] - coarse[1:]) + 1e-13  # the level gap, doubled
        gap = np.abs(fine[1:] - (u[:, None] ** j).sum(axis=0))
        settled.append(RootDisc(c0, radius, local, tuple((gap + err) / j)))
        out.extend(local)
    if len(out) != count:
        raise CountMismatch(f"root discs hold {len(out)} zeros, the locator {count}")
    return out, tuple(settled)


def _moment_estimates(F: _Budget, kernel: RationalKernel, z: complex,
                      s: complex, scale: float) -> tuple[np.ndarray, int]:
    """First estimates of the N left zeros: count them inside an enclosing
    rectangle, then solve for them from their power sums, first on the
    rectangle and then on a box three times their spread."""
    R = max(_coeff_bound(kernel, z, s), 1.0)
    for _ in range(6):
        inner = _rect_winding(F, -R, -1e-6, -R, R)
        outer = _rect_winding(F, -2 * R, -1e-6, -2 * R, 2 * R)
        if inner == outer:
            break
        R *= 2.0
    else:
        raise CountMismatch("enclosing rectangle count failed to stabilize")
    F.count = inner
    if inner == 0:
        return np.array([]), 0
    noise = 1e-15 * scale  # rounding in F, as _newton reads it
    approx = _box_roots(F, -R, -1e-6, -R, R, inner, noise)
    w = max(np.ptp(approx.real), np.ptp(approx.imag), 0.25 * (1.0 + np.abs(approx).max()))
    try:
        approx = _box_roots(F, approx.real.min() - w, min(approx.real.max() + w, -1e-6),
                            approx.imag.min() - w, approx.imag.max() + w, inner, noise)
    except (CountMismatch, ZeroOnContour):
        pass  # a zero lies outside the smaller box: keep the first estimates
    return approx, inner


def _locate(F, kernel: RationalKernel, z: complex, s: complex,
            scale: float) -> tuple[list[complex], tuple]:
    """Polished left zeros of F and their discs, all on one budget.  A kernel
    that clears to a polynomial takes its first estimates, and their count,
    from a companion solve; the rest from the contour-moment locator."""
    F = _Budget(F)
    if kernel.clear_fn is None:
        approx, count = _moment_estimates(F, kernel, z, s, scale)
    else:
        approx, count = np.roots(_trim_poly(kernel.clear_fn(z, s))), None
    polished = [_newton(F, complex(r), scale) for r in approx if r.real < -_AXIS_TOL]
    polished = [r for r in polished if r.real < -_AXIS_TOL]
    return _settle(F, polished, len(polished) if count is None else count, scale)


def _contour_params(roots) -> tuple[float, float]:
    if roots:
        eps = min(min(-r.real for r in roots) / 2.0, 0.05)
        radius = 2.0 * (1.0 + max(abs(r) for r in roots))
    else:
        eps, radius = 0.01, 4.0
    return max(eps, 1e-9), radius


def _stable_count(F, radius: float, eps: float) -> tuple[int, float]:
    """Count at growing radii until two consecutive doublings agree."""
    counts: list[int] = []
    for _ in range(10):
        counts.append(count_left_zeros(F, radius, eps))
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            return counts[-1], radius
        radius *= 2.0
    raise CountMismatch("zero count failed to stabilize under radius doubling")


def find_kernel_roots(kernel: RationalKernel, z: complex, s: complex,
                      stable_drift: bool | None = None) -> RootReport:
    """All open-left-half-plane roots of h2(xi, s-xi) - z*h1(xi, s-xi).

    The count is certified against the argument principle and every root
    against its kernel residual.  Outside the regimes where the root count is
    guaranteed, raises PreconditionViolated; z = 1 with Re s = 0 additionally
    needs the caller to assert negative drift via stable_drift=True.
    """
    z, s = complex(z), complex(s)
    _check_count_domain(z, s, stable_drift)
    F = _shifted(kernel, z, s)
    scale = max(1.0, abs(complex(F(0.0))))
    refined, discs = _locate(F, kernel, z, s, scale)
    refined.sort(key=lambda r: (r.real, r.imag))
    eps, radius = _contour_params(refined)
    n_ap, radius = _stable_count(F, radius, eps)
    if n_ap != len(refined):
        raise CountMismatch(
            f"located {len(refined)} roots but the argument principle counts {n_ap}")
    residuals = tuple(abs(complex(F(r))) for r in refined)
    bad = [r for r, res in zip(refined, residuals) if res >= 1e-8 * scale]
    if bad:
        raise CountMismatch(f"root {bad[0]:.8g} failed residual certification")
    return RootReport(roots=tuple(refined), residuals=residuals,
                      count_argument_principle=n_ap,
                      contour_radius=radius, contour_offset_eps=eps,
                      discs=discs)


def verify_rouche(kernel: RationalKernel, z: complex, s: complex) -> tuple[int, int, bool]:
    """Certified left-zero counts of h2(xi, s-xi) and of the z-shifted kernel.

    Each count comes from find_kernel_roots, so the located roots and their
    residuals are checked against it as well."""
    n_z, n_h2 = (find_kernel_roots(kernel, zz, s).count_argument_principle
                 for zz in (z, 0.0))
    return n_h2, n_z, n_h2 == n_z
