"""Independent references for every value the benchmark checks.

Three sources, none of which shares code with the route being checked:

- closed forms of the M/M/1 walk (B ~ Exp(2), A ~ Exp(1)), written out here
  the way tests/conftest.py writes them;
- the other engine of walkfluct (contour for rational values and oracle
  values, rational for contour values), for models that carry a kernel;
- a shared-path Spitzer series drawn here from the model's own sampler, for
  transforms that have neither (idle on dependent models, and any value the
  Deterministic/Uniform walk ever returns).

A reference is a pair (value, err): err is the reference's own error scale,
which the checker adds to the checked value's abs_err.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

LAM, MU = 1.0, 2.0

# closed forms are exact up to rounding
CLOSED_FORM_ERR = 1e-12
# the rational engine reports 1e-12 (1 + |value|) as its own abs_err
# invert_to_distribution returns no error estimate; its Bromwich aliasing term
# is ~e^{-decay} = 1e-8 relative at the default decay 18.4, taken with 10x slack
INVERT_REL_ERR = 10.0 * math.exp(-18.4)
# E[e^{-s M_200}] is checked against the stationary E[e^{-s M}]; the horizon
# bias measured below 3e-4 on all three built-ins at 4e5 paths
HORIZON_200_ERR = 1e-3

SERIES_PATHS = 20_000
SERIES_TERMS = 160      # geometric tail |z|^161 / (161 (1 - |z|)) < 4e-5 at |z| = 0.95
_PATH_CHUNK = 2_000


# --- M/M/1 closed forms ------------------------------------------------------

def _xi1(z: complex, s: complex) -> complex:
    # left zero of (mu + xi)(lam + s - xi) - z*mu*lam in xi
    return ((LAM + s - MU) - cmath.sqrt((LAM + MU + s) ** 2 - 4 * z * LAM * MU)) / 2.0


def _xi2(z: complex) -> complex:
    # right zero of the same kernel at s = 0
    return ((LAM - MU) + cmath.sqrt((LAM - MU) ** 2 + 4 * LAM * MU * (1 - z))) / 2.0


def mm1_busy(z: complex, s: complex) -> complex:
    return 1 - (1 - z * MU / (MU + s)) * (s + MU) / (s - _xi1(z, s))


def mm1_idle(z: complex, s: complex) -> complex:
    return 1 - (s + _xi2(z)) / (s + LAM)


def mm1_steps(z: complex) -> complex:
    return 1 - (1 - z) * MU / (-_xi1(z, 0.0))


def mm1_transient_max(z: complex, s: complex) -> complex:
    """sum_n z^n E e^{-s M_n}."""
    x = _xi1(z, 0.0)
    return (MU + s) * (-x) / ((s - x) * MU) / (1 - z)


def mm1_stationary_max(s: complex) -> complex:
    rho = LAM / MU
    return (1 - rho) + rho * (MU - LAM) / (MU - LAM + s)


def _bessel_i1(x: float) -> float:
    term = acc = x / 2.0
    k = 0
    while term > 1e-17 * acc:
        k += 1
        term *= (x / 2.0) ** 2 / (k * (k + 1))
        acc += term
    return acc


def mm1_busy_density(t: float) -> float:
    """Density of the M/M/1 busy period, the inverse of E e^{-sP} at z = 1."""
    return math.sqrt(MU / LAM) * math.exp(-(LAM + MU) * t) \
        * _bessel_i1(2.0 * t * math.sqrt(LAM * MU)) / t


def mm1(functional: str, z: complex, s: complex) -> complex:
    if functional == "busy":
        return mm1_busy(z, s)
    if functional == "idle":
        return mm1_idle(z, s)
    if functional == "steps":
        return mm1_steps(z)
    if functional == "max":
        return mm1_transient_max(z, s)
    raise ValueError(functional)


# --- shared-path Spitzer series ---------------------------------------------

class SeriesReference:
    """Spitzer-series values from one block of sampled paths per model.

    Each path of SERIES_TERMS steps gives every term n of the series from its
    prefix sums, and the per-path sum over n is the estimator whose standard
    error is reported.  The block is drawn once per model and reused for every
    point, so a reference costs one pass over the block.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._blocks: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _block(self, model) -> tuple[np.ndarray, np.ndarray]:
        if model.label not in self._blocks:
            rng = np.random.Generator(np.random.Philox(key=[self._seed, 0x5E71E5]))
            b, a = model.sampler(rng, SERIES_PATHS * SERIES_TERMS)
            b = np.asarray(b).reshape(SERIES_PATHS, SERIES_TERMS)
            a = np.asarray(a).reshape(SERIES_PATHS, SERIES_TERMS)
            bn = np.cumsum(b, axis=1)
            self._blocks[model.label] = (bn, bn - np.cumsum(a, axis=1))
        return self._blocks[model.label]

    def value(self, model, functional: str, z: complex, s: complex) -> tuple[complex, float]:
        """(value, standard error + geometric tail) of one transform."""
        z, s = complex(z), complex(s)
        bn, sn = self._block(model)
        n = np.arange(1, SERIES_TERMS + 1)
        coef = z ** n / n
        per_path = np.empty(SERIES_PATHS, dtype=complex)
        for lo in range(0, SERIES_PATHS, _PATH_CHUNK):
            b, w = bn[lo:lo + _PATH_CHUNK], sn[lo:lo + _PATH_CHUNK]
            below = (w < 0.0) + 0.5 * (w == 0.0)
            if functional == "busy":
                terms = below * np.exp(-s * b)
            elif functional == "idle":
                terms = below * np.exp(s * w)
            elif functional == "steps":
                terms = below.astype(complex)
            elif functional == "max":
                terms = np.exp(-s * np.maximum(w, 0.0))
            else:
                raise ValueError(functional)
            per_path[lo:lo + _PATH_CHUNK] = terms @ coef
        acc = complex(per_path.mean())
        se = float(np.std(per_path, ddof=1)) / math.sqrt(SERIES_PATHS)
        az = abs(z)
        tail = az ** (SERIES_TERMS + 1) / ((SERIES_TERMS + 1) * (1.0 - az))
        if functional == "max":
            # Spitzer-Baxter: sum_n z^n E e^{-s M_n} = exp(sum_n z^n/n E e^{-s S_n^+})
            value = cmath.exp(acc)
            return value, abs(value) * (se + tail)
        damp = abs(cmath.exp(-acc))
        return 1.0 - cmath.exp(-acc), damp * (se + tail)
