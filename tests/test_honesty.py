"""Does the reported abs_err bound the true error?

Each case compares an engine value with an independent reference and allows
only the two reported errors: the engine's abs_err and the reference's own,
with no slack on top.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from walkfluct.contour import ContourSpec
from walkfluct.errors import CountMismatch
from walkfluct.fluct import (
    busy_period_rational,
    busy_period_transform,
    max_transform_rational,
    steps_pgf,
    steps_pgf_rational,
    transient_max_transform,
    walk_functionals,
)
from walkfluct.model import Erlang, Exponential, Uniform, build_markov_modulated

TIGHT = ContourSpec(T=960, nodes=48)


def seeded_markov(rng: np.random.Generator, states: int, a_law):
    raw = rng.random((states, states))
    T = 0.8 * raw / raw.sum(axis=1, keepdims=True)
    alpha = rng.random(states)
    return build_markov_modulated(alpha / alpha.sum(), T, 1.0 - T.sum(axis=1),
                                  Erlang(2, 8.0), a_law)


def seeded_point(rng: np.random.Generator) -> tuple[complex, complex]:
    z = 0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
    return complex(z), complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))


def test_rational_uniform_a_law_against_tight_contour():
    # a Uniform A law has no rational transform, so the moment locator finds
    # these roots; each disc reports the roots of its own power sums, which
    # average the kernel's rounding noise over the disc, so abs_err stays
    # below 5e-7 here
    rng = np.random.default_rng(4)
    wf = walk_functionals(seeded_markov(rng, int(rng.integers(2, 5)), Uniform(0.1, 1.5)))
    z, s = seeded_point(rng)
    for got, ref, weight in (
            (busy_period_rational(wf, z, s), busy_period_transform(wf, z, s, TIGHT), 1.0),
            (steps_pgf_rational(wf, z), steps_pgf(wf, z, TIGHT), 1.0),
            (max_transform_rational(wf, z, s), transient_max_transform(wf, z, s, TIGHT),
             1.0 - z)):
        gap = abs(got.value - weight * ref.value)
        assert gap <= got.abs_err + abs(weight) * ref.abs_err, (gap, got.abs_err)
        assert got.abs_err <= 5e-7, got.abs_err


@pytest.mark.xfail(strict=True, raises=CountMismatch,
                   reason="CHANGES.md line 'roots._settle raises CountMismatch on a "
                          "Markov kernel whose 8 left roots crowd near Re xi = -8'")
def test_crowded_markov_uniform_busy_settles_every_root():
    # 4 states, degree 8; the (z, s) find raises "root discs hold 6 zeros,
    # the kernel degree is 8"
    rng = np.random.default_rng(105)
    lo = rng.uniform(0.05, 0.3)
    w = rng.uniform(0.8, 2.0)
    mdl = seeded_markov(rng, int(rng.integers(2, 5)), Uniform(lo, lo + w))
    assert mdl.rational.degree == 8
    tv = busy_period_rational(walk_functionals(mdl), -0.5639 - 0.4806j, 1.0385 + 0.5652j)
    assert math.isfinite(tv.abs_err)


@pytest.mark.parametrize("seed", [0, 1])
def test_companion_and_moment_routes_agree_within_abs_err(seed):
    # an Exp(2) A law clears to a polynomial; without clear_fn the same kernel
    # goes through the moment locator, an independent computation.  The last
    # pair sits at the drift corner z = 1, s = 0, where F(0) = 0
    rng = np.random.default_rng(seed)
    mdl = seeded_markov(rng, 3, Exponential(2.0))
    moment = dataclasses.replace(mdl, rational=dataclasses.replace(mdl.rational, clear_fn=None))
    for _ in range(2):
        z, s = seeded_point(rng)
        a = busy_period_rational(walk_functionals(mdl), z, s)
        b = busy_period_rational(walk_functionals(moment), z, s)
        assert abs(a.value - b.value) <= a.abs_err + b.abs_err, (z, s)
    a, b = (max_transform_rational(walk_functionals(m), 1.0, 0.5) for m in (mdl, moment))
    assert abs(a.value - b.value) <= a.abs_err + b.abs_err


def test_mm1_rational_against_closed_forms(mm1, mm1_refs):
    # only rounding in the final arithmetic, 4e-16 (1 + |v|), is allowed
    # beyond abs_err
    rng = np.random.default_rng(11)
    for _ in range(40):
        z, s = seeded_point(rng)
        for got, want in (
                (busy_period_rational(mm1, z, s), mm1_refs.busy(z, s)),
                (steps_pgf_rational(mm1, z), mm1_refs.steps(z)),
                (max_transform_rational(mm1, z, s), (1 - z) * mm1_refs.transient_max(z, s))):
            assert abs(got.value - want) <= got.abs_err + 4e-16 * (1 + abs(want)), (z, s)
