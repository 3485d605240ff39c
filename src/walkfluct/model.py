"""Joint increment models (B, A): exact transforms, samplers, rational kernels.

A model packages the joint Laplace-Stieltjes transform h(s1, s2) of one
nonnegative increment pair, an exact sampler for Monte Carlo cross-checks,
the marginal means used by stability checks, and, when h is rational in s1,
the kernel form h = h1/h2 that the root-product engine consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvalError, InvalidSpec, PoleError

__all__ = [
    "DistributionSpec",
    "Exponential",
    "Erlang",
    "Hyperexponential",
    "Deterministic",
    "Uniform",
    "RationalKernel",
    "IncrementModel",
    "lst_eval",
    "increment_char",
    "build_product_model",
    "build_threshold_model",
    "build_markov_modulated",
    "builtin_models",
]


def _em(w):
    """(1 - exp(-w)) / w, complex-safe and stable near w = 0."""
    w = np.asarray(w, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((1.0 - np.exp(-w)) / w)
    small = np.abs(w) < 1e-2
    if small.any():
        ws = w[small]
        acc = np.zeros_like(ws)
        for k in range(7, -1, -1):
            acc = acc * (-ws) + 1.0 / math.factorial(k + 1)
        out[small] = acc
    return out


def _lower_reg_gamma(k: int, x):
    """Regularized lower incomplete gamma P(k, x) for integer k, complex x."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    xs = x[small]
    # P(k,x) = e^{-x} sum_{j>=k} x^j/j!; twenty terms cover |x| < 0.5 to
    # machine precision
    term = xs ** k / math.factorial(k)
    acc = term.copy()
    for j in range(k + 1, k + 21):
        term = term * xs / j
        acc += term
    out[small] = np.exp(-xs) * acc
    xb = x[~small]
    partial = np.zeros_like(xb)
    for j in range(k):
        partial += xb ** j / math.factorial(j)
    out[~small] = 1.0 - np.exp(-xb) * partial
    return out


class DistributionSpec:
    """Base for the built-in nonnegative increment families.

    Subclasses provide the transform on Re s > abscissa, the mean, an exact
    sampler, lower_lst, the one restricted transform (the part on {X > l}
    is lst - lower_lst), and the (num, den) polynomial pair when the
    transform is rational.
    """

    abscissa: float = -math.inf

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def lst(self, s):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def lower_lst(self, s, l: float):
        """E[e^{-sX}; X <= l]; entire in s (finite-interval integral)."""
        raise NotImplementedError

    def rational(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(num, den) with den monic, descending powers; None if not rational."""
        return None

    def atom_values(self) -> tuple[float, ...]:
        """Support points carrying positive probability."""
        return ()


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise InvalidSpec("exponential rate must be positive and finite")
        object.__setattr__(self, "abscissa", -self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def lst(self, s):
        return self.rate / (self.rate + np.asarray(s, dtype=complex))

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)

    def lower_lst(self, s, l):
        w = (self.rate + np.asarray(s, dtype=complex)) * l
        return self.rate * l * _em(w)

    def rational(self):
        return np.array([self.rate]), np.array([1.0, self.rate])


@dataclass(frozen=True)
class Erlang(DistributionSpec):
    shape: int
    rate: float

    def __post_init__(self) -> None:
        if int(self.shape) != self.shape or self.shape < 1:
            raise InvalidSpec("erlang shape must be a positive integer")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise InvalidSpec("erlang rate must be positive and finite")
        object.__setattr__(self, "abscissa", -self.rate)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def lst(self, s):
        return (self.rate / (self.rate + np.asarray(s, dtype=complex))) ** self.shape

    def sample(self, rng, size):
        return rng.gamma(float(self.shape), 1.0 / self.rate, size)

    def lower_lst(self, s, l):
        s = np.asarray(s, dtype=complex)
        return self.lst(s) * _lower_reg_gamma(self.shape, (self.rate + s) * l)

    def rational(self):
        return (np.array([self.rate ** self.shape]),
                np.poly([-self.rate] * self.shape))


@dataclass(frozen=True)
class Hyperexponential(DistributionSpec):
    probs: tuple
    rates: tuple

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        rates = tuple(float(r) for r in self.rates)
        if len(probs) != len(rates) or not probs:
            raise InvalidSpec("hyperexponential needs matching probs and rates")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise InvalidSpec("hyperexponential probs must be nonnegative and sum to 1")
        if any(not (math.isfinite(r) and r > 0) for r in rates):
            raise InvalidSpec("hyperexponential rates must be positive and finite")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "abscissa", -min(rates))

    @property
    def mean(self) -> float:
        return sum(p / r for p, r in zip(self.probs, self.rates))

    def lst(self, s):
        s = np.asarray(s, dtype=complex)
        return sum(p * r / (r + s) for p, r in zip(self.probs, self.rates))

    def sample(self, rng, size):
        idx = rng.choice(len(self.probs), size=size, p=self.probs)
        scales = np.asarray([1.0 / r for r in self.rates])
        return rng.exponential(scales[idx])

    def lower_lst(self, s, l):
        return sum(p * Exponential(r).lower_lst(s, l)
                   for p, r in zip(self.probs, self.rates))

    def rational(self):
        den = np.poly([-r for r in self.rates])
        num = np.zeros(len(self.rates), dtype=float)
        for i, (p, r) in enumerate(zip(self.probs, self.rates)):
            others = [-rr for j, rr in enumerate(self.rates) if j != i]
            num = np.polyadd(num, p * r * np.poly(others) if others else [p * r])
        return num, den


@dataclass(frozen=True)
class Deterministic(DistributionSpec):
    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0):
            raise InvalidSpec("deterministic value must be nonnegative and finite")

    @property
    def mean(self) -> float:
        return self.value

    def lst(self, s):
        return np.exp(-np.asarray(s, dtype=complex) * self.value)

    def sample(self, rng, size):
        return np.full(size, self.value)

    def lower_lst(self, s, l):
        shape = np.asarray(s, dtype=complex)
        return self.lst(s) if self.value <= l else np.zeros_like(shape)

    def atom_values(self):
        return (self.value,)


@dataclass(frozen=True)
class Uniform(DistributionSpec):
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi and math.isfinite(self.hi)):
            raise InvalidSpec("uniform support needs 0 <= lo < hi < inf")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def lst(self, s):
        s = np.asarray(s, dtype=complex)
        return np.exp(-s * self.lo) * _em(s * (self.hi - self.lo))

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

    def lower_lst(self, s, l):
        s = np.asarray(s, dtype=complex)
        c = min(max(l, self.lo), self.hi)
        frac = (c - self.lo) / (self.hi - self.lo)
        return frac * np.exp(-s * self.lo) * _em(s * (c - self.lo))


# ---------------------------------------------------------------------------
# polynomial helpers (descending coefficient arrays throughout)

def _poly_pow(p: np.ndarray, k: int) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for _ in range(k):
        out = np.convolve(out, p)
    return out


def _poly_sub_s_minus_xi(p: np.ndarray, s: complex) -> np.ndarray:
    """Coefficients in xi of p(s - xi), by Horner in the base (s - xi)."""
    base = np.array([-1.0, s], dtype=complex)
    acc = np.array([complex(p[0])])
    for c in p[1:]:
        acc = np.convolve(acc, base)
        acc[-1] += c
    return acc


def _pad_to(p: np.ndarray, length: int) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    return np.concatenate([np.zeros(length - len(p), dtype=complex), p])


def _cleared(pgf, n_f, d_f, a_rat) -> Callable:
    """clear_fn of h = N(x)/D(x) at x = (n_f/d_f)(s1) * (a_num/a_den)(s2).

    pgf = (N, D) holds ascending coefficients in x, with N[0] = 0 and
    deg D <= deg N = m.  At s2 = s - xi, with u = n_f * a_num(s - xi) and
    v = d_f * a_den(s - xi), the cleared kernel is
    sum_k D[k] u^k v^(m-k) - z sum_k N[k] u^k v^(m-k).  The D terms are summed
    first and the N terms subtracted after them in k order: one pass over
    D[k] - z N[k] rounds differently and moves roots of degree-6 kernels by
    about 1e-11.
    """
    N, D = pgf
    a_num, a_den = a_rat
    m = len(N) - 1

    def clear_fn(z, s):
        u = np.convolve(n_f, _poly_sub_s_minus_xi(a_num, s))
        v = np.convolve(d_f, _poly_sub_s_minus_xi(a_den, s))
        pu, pv = [np.array([1.0 + 0j])], [np.array([1.0 + 0j])]
        for _ in range(m):
            pu.append(np.convolve(pu[-1], u))
            pv.append(np.convolve(pv[-1], v))
        terms = [np.convolve(pu[k], pv[m - k]) for k in range(m + 1)]  # u^k v^(m-k)
        acc = np.array([0.0 + 0j])
        for k, c in enumerate(D):
            acc = np.polyadd(acc, c * terms[k])
        for k in range(1, m + 1):
            acc = np.polysub(acc, z * N[k] * terms[k])
        return acc
    return clear_fn


@dataclass(frozen=True, eq=False)
class RationalKernel:
    """h = h1/h2 with both polynomials in s1 and coefficients functions of s2.

    C1 and C2 hold the coefficients of h1 and h2 as matrices over one s2
    basis: row i is the coefficient of the i-th power of s1 from the top, and
    the rows of C1 align to the bottom of C2's, since deg h1 < deg h2 =
    degree = len(C2) - 1.  Column 0 is the constant term; column j >= 1
    multiplies the j-th array basis(s2) returns, so a kernel with one column
    has no basis.  C2[0] must be (1, 0, ..., 0).  clear_fn, when present, maps
    (z, s) to the descending coefficients in xi of a polynomial proportional
    to h2(xi, s-xi) - z*h1(xi, s-xi); the clearing factor vanishes only at
    points with Re xi > 0 whenever Re s >= 0, so it leaves left-half-plane
    zeros intact.  static_h2 (derived) holds when no basis column of C2 is
    nonzero: h2(xi, s-xi) is then the same at every s.  The matrices are
    read-only and the kernel hashes by identity.
    """

    C1: np.ndarray
    C2: np.ndarray
    basis: Callable | None = None
    clear_fn: Callable | None = None

    def __post_init__(self) -> None:
        C1, C2 = (np.array(C, dtype=complex) for C in (self.C1, self.C2))
        if C1.ndim != 2 or C2.ndim != 2 or len(C2) < 2:
            raise InvalidSpec("C1 and C2 must be matrices, and the degree at least 1")
        if len(C1) >= len(C2) or C1.shape[1] != C2.shape[1]:
            raise InvalidSpec("deg h1 must be strictly below deg h2, over the same basis")
        if (self.basis is None) != (C2.shape[1] == 1):
            raise InvalidSpec("a kernel has a basis exactly when C2 has more than one column")
        if C2[0, 0] != 1 or C2[0, 1:].any():
            raise InvalidSpec("leading h2 coefficient must be identically 1")
        C1.flags.writeable = C2.flags.writeable = False
        for name, value in (("C1", C1), ("C2", C2), ("degree", len(C2) - 1),
                            ("static_h2", not C2[:, 1:].any())):
            object.__setattr__(self, name, value)

    def _basis(self, s2):
        return () if self.basis is None else self.basis(s2)

    def coefficients(self, s2):
        """(h1, h2) coefficient values at a 1-D array s2, one row per power of s1."""
        s2 = np.asarray(s2, dtype=complex)
        B = np.array([np.ones_like(s2), *self._basis(s2)])
        return self.C1 @ B, self.C2 @ B

    def _horner(self, C, s1, s2):
        # one basis evaluation; a zero entry is skipped, so a constant row stays
        # finite where the basis has a pole.  C's axes past the first two hold
        # one coefficient per point, broadcast against s1 and s2, and an entry
        # that is zero at some points only is skipped there.
        s1 = np.asarray(s1, dtype=complex)
        b = self._basis(s2)
        acc = np.zeros(np.broadcast(s1, np.asarray(s2), C[0, 0]).shape, dtype=complex)
        for row in C:
            acc = acc * s1 + row[0]
            for c, bj in zip(row[1:], b):
                if not isinstance(c, np.ndarray):
                    if c:
                        acc += c * bj
                elif (live := c != 0).all():
                    acc += c * bj
                elif live.any():
                    np.add(acc, c * bj, out=acc, where=live)
        return acc

    def eval_h1(self, s1, s2):
        return self._horner(self.C1, s1, s2)

    def eval_h2(self, s1, s2):
        return self._horner(self.C2, s1, s2)

    def eval_shifted(self, xi, z, s):
        """h2(xi, s - xi) - z*h1(xi, s - xi), the root-product kernel.

        xi, z and s broadcast, so one call covers many points (z, s): z and
        s of shape (points, 1) against xi of shape (points, samples)."""
        xi, z = np.asarray(xi, dtype=complex), np.asarray(z, dtype=complex)
        lead = (1,) * z.ndim
        C = np.empty(self.C2.shape + z.shape, dtype=complex)
        C[...] = self.C2.reshape(self.C2.shape + lead)
        C[len(C) - len(self.C1):] -= self.C1.reshape(self.C1.shape + lead) * z
        return self._horner(C, xi, s - xi)


@dataclass(frozen=True)
class IncrementModel:
    """Immutable joint law of one increment pair.

    lst is vectorized over broadcastable complex arrays; sampler(rng, size)
    returns a pair of nonnegative float arrays, or is None for transform-only
    kernels.  A sampler draws only from the rng it is given: the oracles may
    call it from several threads at once, one Philox stream per block, and
    their results are reproducible only if it keeps no other state.
    b_abscissa/a_abscissa bound the analytic continuation of the
    marginal formulas below Re s = 0 (0.0 means no continuation is claimed).
    lst is the transform of a real pair, so h(conj s1, conj s2) =
    conj h(s1, s2); the contour engine relies on this to evaluate real-
    argument integrands on the upper half of the imaginary axis only.
    A rational kernel must restate lst: h1/h2 is checked against it at
    three probes with Re s1 >= 0 and Re s2 >= 0.
    """

    lst: Callable
    sampler: Callable | None
    mean_b: float
    mean_a: float
    rational: RationalKernel | None = None
    label: str = ""
    b_abscissa: float = 0.0
    a_abscissa: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mean_b >= 0 and self.mean_a >= 0):
            raise InvalidSpec("means must be nonnegative")
        norm = complex(np.asarray(self.lst(0.0, 0.0)).reshape(()))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidSpec(f"h(0,0) = {norm:.12g}, expected 1")
        if self.rational is not None:
            s1 = np.array([0.4, 1.3 + 0.8j, 0.1 - 2.2j])
            s2 = np.array([0.25, 0.6 - 0.45j, 1.5 + 0.2j])
            h = np.asarray(self.lst(s1, s2), dtype=complex)
            gap = np.abs(h - self.rational.eval_h1(s1, s2) / self.rational.eval_h2(s1, s2))
            if not (gap <= 1e-9 * (1.0 + np.abs(h))).all():
                raise InvalidSpec("lst and the rational kernel's h1/h2 disagree")


def lst_eval(model: IncrementModel, s1, s2):
    """h(s1, s2), with domain checks and pole detection.

    Points with Re s < 0 are allowed only where the model declares an
    analytic continuation: through the rational kernel in s1, and down to the
    marginal abscissa in s2.  Vectorized over broadcastable arrays; scalar
    input returns a plain complex.  Errors name the first offending point.
    """
    a1 = np.asarray(s1, dtype=complex)
    a2 = np.asarray(s2, dtype=complex)
    # each operand is checked as it is: the first offending entry of its own
    # is the first one broadcasting would reach
    re1, re2 = a1.real, a2.real
    below = (re2 < 0) & (re2 <= model.a_abscissa)
    if below.any():
        raise DomainError(f"Re s2 = {re2[below][0]:g} is below the continuation abscissa")
    if model.rational is None:
        outside = (re1 < 0) & (re1 <= model.b_abscissa)
        if outside.any():
            raise DomainError(f"Re s1 = {re1[outside][0]:g} outside the analyticity region")
    with np.errstate(all="ignore"):
        val = np.asarray(model.lst(a1, a2), dtype=complex)
    if not np.isfinite(val).all():
        p1, p2, pv = np.broadcast_arrays(a1, a2, val)
        k = np.flatnonzero(~np.isfinite(pv))[0]
        if model.rational is not None:
            raise PoleError(f"s1 = {p1.flat[k]:.6g} hits a pole of the kernel")
        raise EvalError(f"transform not finite at ({p1.flat[k]:.6g}, {p2.flat[k]:.6g})")
    return complex(val) if val.ndim == 0 else val


def increment_char(model: IncrementModel, xi):
    """h(xi, -xi), the two-sided transform of the step A - B along the axis.

    Vectorized over xi; scalar input returns a plain complex.
    """
    xi = np.asarray(xi, dtype=complex)
    return lst_eval(model, xi, -xi)


def _reject_shared_atoms(b_law: DistributionSpec, a_law: DistributionSpec) -> None:
    shared = set(b_law.atom_values()) & set(a_law.atom_values())
    if shared:
        raise InvalidSpec(
            f"P(B = A) > 0 (shared atom at {sorted(shared)[0]:g}); "
            "the transform identities assume a walk with no atom at zero")


def build_product_model(b_law: DistributionSpec, a_law: DistributionSpec,
                        label: str = "") -> IncrementModel:
    """Independent pair: h(s1, s2) = E e^{-s1 B} * E e^{-s2 A}."""
    _reject_shared_atoms(b_law, a_law)

    def lst(s1, s2):
        return b_law.lst(s1) * a_law.lst(s2)

    def sampler(rng, size):
        return b_law.sample(rng, size), a_law.sample(rng, size)

    kernel = None
    b_rat = b_law.rational()
    if b_rat is not None:
        num, den = b_rat
        a_rat = a_law.rational()
        # one visit: the visit-count PGF is x, so (N, D) = (x, 1)
        clear_fn = None if a_rat is None else _cleared(((0.0, 1.0), (1.0,)), num, den, a_rat)
        kernel = RationalKernel(C1=np.column_stack([np.zeros(len(num)), num]),
                                C2=np.column_stack([den, np.zeros(len(den))]),
                                basis=lambda s2: (a_law.lst(s2),), clear_fn=clear_fn)
    return IncrementModel(
        lst=lst, sampler=sampler,
        mean_b=b_law.mean, mean_a=a_law.mean, rational=kernel,
        label=label or "product", b_abscissa=b_law.abscissa, a_abscissa=a_law.abscissa)


def build_threshold_model(f1: DistributionSpec, f2: DistributionSpec,
                          a_law: DistributionSpec, l: float,
                          label: str = "") -> IncrementModel:
    """B drawn from f1's law while A <= l and from f2's law once A > l.

    h(s1, s2) = f2(s1)*a(s2) + (f1(s1) - f2(s1))*a_le(s2), with a the
    transform of A and a_le = a_law.lower_lst its restriction to [0, l]; the
    kernel's h1 coefficients take the same split.
    """
    if not (math.isfinite(l) and l > 0):
        raise InvalidSpec("threshold l must be positive and finite")
    r1, r2 = f1.rational(), f2.rational()
    if r1 is None or r2 is None:
        raise InvalidSpec("threshold branch transforms must be proper rational LSTs")
    p_low = float(np.real(a_law.lower_lst(0.0, l)))

    def lst(s1, s2):
        f2v = f2.lst(s1)
        return f2v * a_law.lst(s2) + (f1.lst(s1) - f2v) * a_law.lower_lst(s2, l)

    def sampler(rng, size):
        a = a_law.sample(rng, size)
        b1 = f1.sample(rng, size)
        b2 = f2.sample(rng, size)
        return np.where(a <= l, b1, b2), a

    n1, d1 = r1
    n2, d2 = r2
    h2_poly = np.polymul(d1, d2)
    n = len(h2_poly) - 1
    u = _pad_to(np.polymul(n1, d2), n)
    v = _pad_to(np.polymul(n2, d1), n)
    kernel = RationalKernel(C1=np.column_stack([np.zeros(n), v, u - v]),
                            C2=np.column_stack([h2_poly, np.zeros((n + 1, 2))]),
                            basis=lambda s2: (a_law.lst(s2), a_law.lower_lst(s2, l)))
    mean_b = f1.mean * p_low + f2.mean * (1.0 - p_low)
    return IncrementModel(
        lst=lst, sampler=sampler,
        mean_b=mean_b, mean_a=a_law.mean, rational=kernel,
        label=label or "threshold",
        b_abscissa=max(f1.abscissa, f2.abscissa), a_abscissa=a_law.abscissa)


def _faddeev_leverrier(T: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Characteristic polynomial of T (descending, monic) and adjugate slices.

    Returns cs with det(lam*I - T) = sum_k cs[k] lam^(m-k) and matrices M_j
    with adj(lam*I - T) = sum_j M_j lam^(m-1-j).
    """
    m = T.shape[0]
    cs = np.zeros(m + 1)
    cs[0] = 1.0
    Ms = [np.eye(m)]
    M = np.eye(m)
    for k in range(1, m + 1):
        TM = T @ M
        cs[k] = -np.trace(TM) / k
        M = TM + cs[k] * np.eye(m)
        if k < m:
            Ms.append(M)
    return cs, Ms


def _kappa_cdf(alpha: np.ndarray, T: np.ndarray, t: np.ndarray) -> np.ndarray | None:
    """Cdf table of the visit count, P(kappa = k) = alpha T^(k-1) t.

    The table stops at the first k whose tail alpha T^k 1 is below 1e-16,
    read from the propagated row vector rather than from 1 - sum p_k, which
    rounding would stall; None when that takes more than 65,536 terms (a
    near-critical chain, left to path simulation).
    """
    pmf, v = [], alpha
    while len(pmf) < 65536:
        pmf.append(float(v @ t))
        v = v @ T
        if v.sum() < 1e-16:
            cdf = np.cumsum(pmf)
            cdf[-1] = 1.0
            return cdf
    return None


def build_markov_modulated(alpha, T, t, f1_over_f2: DistributionSpec,
                           g0: DistributionSpec, label: str = "") -> IncrementModel:
    """Chain-modulated sum: kappa visits of a transient chain, each visit
    contributing an independent pair (B_i, A_i) with B per-visit transform
    f1/f2 and A per-visit transform g0.

    h(s1, s2) = N(x)/D(x) at x = f(s1) g0(s2): the probability generating
    function of kappa, with D(x) = det(I - xT) and N(x) = x alpha adj(I - xT) t.
    """
    alpha = np.asarray(alpha, dtype=float)
    T = np.asarray(T, dtype=float)
    t = np.asarray(t, dtype=float)
    m = alpha.size
    if T.shape != (m, m) or t.shape != (m,):
        raise InvalidSpec("alpha, T, t dimensions disagree")
    if alpha.min() < 0 or abs(alpha.sum() - 1.0) > 1e-12:
        raise InvalidSpec("alpha must be a probability vector")
    if T.min() < 0 or t.min() < 0:
        raise InvalidSpec("T and t must be nonnegative")
    rows = T.sum(axis=1)
    if (rows > 1 + 1e-12).any():
        raise InvalidSpec("row sums of T exceed 1")
    if np.max(np.abs(rows + t - 1.0)) > 1e-9:
        raise InvalidSpec("each row of T plus its exit mass must sum to 1")
    if np.max(np.abs(np.linalg.eigvals(T))) >= 1 - 1e-12:
        raise InvalidSpec("chain does not reach absorption almost surely")
    f_rat = f1_over_f2.rational()
    if f_rat is None:
        raise InvalidSpec("per-visit transform f1/f2 must be a proper rational LST")

    visits = alpha @ np.linalg.inv(np.eye(m) - T) @ np.ones(m)
    # E x^kappa = N(x)/D(x), both held in ascending powers of x
    cs, Ms = _faddeev_leverrier(T)
    pgf = (np.concatenate([[0.0], [alpha @ M @ t for M in Ms]]), cs)
    polyval = np.polynomial.polynomial.polyval

    # Near a zero of D, at x = 1/eigenvalue of T and so |x| > 1, the terms of
    # D(x) cancel and the ratio loses digits (1.3e-14 (1 + |h|) at |h| = 91,
    # s2 = -0.9, on a 3-state chain).  Only the continuation to Re s2 < 0
    # reaches such x.  No engine evaluates there: the contour axis keeps
    # |x| <= 1, and the rational engine calls lst(s, 0) with Re s >= 0.
    def lst(s1, s2):
        x = np.asarray(f1_over_f2.lst(s1) * g0.lst(s2), dtype=complex)
        return polyval(x, pgf[0]) / polyval(x, pgf[1])

    # per-visit increments are iid across states, so (B, A) depends on the
    # chain only through the visit count kappa
    kappa_cdf = _kappa_cdf(alpha, T, t)

    def _visit_counts(rng, size):
        if kappa_cdf is not None:
            return np.searchsorted(kappa_cdf, rng.random(size)) + 1
        trans = np.column_stack([T, t]).cumsum(axis=1)
        counts = np.zeros(size, dtype=np.int64)
        idx = np.arange(size)
        state = rng.choice(m, size=size, p=alpha)
        while idx.size:
            counts[idx] += 1
            nxt = (trans[state] < rng.random(idx.size)[:, None]).sum(axis=1)
            keep = nxt < m
            idx = idx[keep]
            state = nxt[keep]
        return counts

    def sampler(rng, size):
        counts = _visit_counts(rng, size)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(size), np.zeros(size)
        starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        b = np.add.reduceat(f1_over_f2.sample(rng, total), starts)
        a = np.add.reduceat(g0.sample(rng, total), starts)
        return b, a

    # kernel: with x = (n_f/d_f)(s1) g0(s2), clearing d_f^m turns each of N
    # and D into sum_k c[k] (n_f g0)^k d_f^(m-k); row k of W holds the s1
    # coefficients of n_f^k d_f^(m-k), so column k of C1 and C2 multiplies
    # g0(s2)^k, and N[0] = 0 keeps deg h1 below n
    n_f, d_f = f_rat
    lead = d_f[0]
    n_f = np.asarray(n_f, dtype=float) / lead
    d_f = np.asarray(d_f, dtype=float) / lead
    n = m * (len(d_f) - 1)
    W = np.stack([_pad_to(np.polymul(_poly_pow(n_f, k), _poly_pow(d_f, m - k)), n + 1)
                  for k in range(m + 1)])

    g_rat = g0.rational()
    clear_fn = None if g_rat is None else _cleared(pgf, n_f, d_f, g_rat)
    kernel = RationalKernel(
        C1=W[:, 1:].T * pgf[0], C2=W.T * pgf[1], clear_fn=clear_fn,
        basis=lambda s2: np.cumprod([np.asarray(g0.lst(s2), dtype=complex)] * m, axis=0))
    return IncrementModel(
        lst=lst, sampler=sampler,
        mean_b=visits * f1_over_f2.mean, mean_a=visits * g0.mean, rational=kernel,
        label=label or "markov_modulated",
        b_abscissa=f1_over_f2.abscissa, a_abscissa=g0.abscissa)


def builtin_models() -> dict[str, IncrementModel]:
    """The three reference models used across tests and the CLI.

    product_mm1 is the M/M/1 walk (B ~ Exp(2) service, A ~ Exp(1) spacing);
    threshold_exp switches the B rate at A = 1; markov_2state runs a
    two-state transient chain.  All three are stable (E B < E A).
    """
    return {
        "product_mm1": build_product_model(
            Exponential(2.0), Exponential(1.0), label="product_mm1"),
        "threshold_exp": build_threshold_model(
            Exponential(3.0), Exponential(1.2), Exponential(1.0), 1.0,
            label="threshold_exp"),
        "markov_2state": build_markov_modulated(
            [0.6, 0.4], [[0.3, 0.2], [0.1, 0.4]], [0.5, 0.5],
            Exponential(5.0), Exponential(2.0), label="markov_2state"),
    }
