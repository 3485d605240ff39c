"""Batched root finds: one call on arrays of points equals its scalar calls.

find_kernel_roots, and the rational engines above it, take arrays of z and
s and run each stage once for all the points.  Every value and error bound
must be the one the scalar call gives, bit for bit; every point keeps its own
certificates and budget, and a failing point names itself.
"""

import math

import numpy as np
import pytest

import walkfluct.fluct
from walkfluct import roots
from walkfluct.errors import DomainError, PreconditionViolated
from walkfluct.fluct import (
    busy_period_rational,
    invert_to_distribution,
    max_transform_rational,
    steps_pgf_rational,
    walk_functionals,
)
from walkfluct.model import (
    Deterministic, Erlang, RationalKernel, build_product_model, builtin_models,
)
from walkfluct.roots import find_kernel_roots

from test_roots import random_rational_model


def _models() -> dict:
    out = dict(builtin_models())
    out["erlang_det"] = build_product_model(Erlang(4, 8.0), Deterministic(1.0))
    rng = np.random.default_rng(31)
    for k in range(10):
        out[f"random_{k}"] = random_rational_model(rng)
    return out


MODELS = _models()
# a mixed array of points, one of them near the unit circle
Z = np.array([0.3, 0.5 + 0.2j, 0.8, 0.999, -0.4 + 0.1j])
S = np.array([0.7, 1.2 + 0.5j, 2.0, 0.3 - 0.4j, 1.5])


def _each(call, *columns) -> list:
    # call at each point alone, with Python scalars
    return [call(*(complex(c) for c in point)) for point in zip(*columns)]


def _assert_same(batch, scalar):
    assert batch.value.shape == batch.abs_err.shape == (len(scalar),)
    assert batch.value.tolist() == [tv.value for tv in scalar]
    assert batch.abs_err.tolist() == [tv.abs_err for tv in scalar]


@pytest.mark.parametrize("label", sorted(MODELS))
def test_busy_array_call_equals_scalar_calls(label):
    # markov_2state's h2 is not static, so its (0, s) base finds batch too
    wf = walk_functionals(MODELS[label])
    scalar = _each(lambda z, s: busy_period_rational(wf, z, s), Z, S)
    _assert_same(busy_period_rational(wf, Z, S), scalar)


@pytest.mark.parametrize("label", sorted(MODELS))
def test_max_and_steps_array_calls_equal_scalar_calls(label):
    wf = walk_functionals(MODELS[label])
    inside = Z[np.abs(Z) < 1.0]
    _assert_same(max_transform_rational(wf, Z, S),
                 _each(lambda z, s: max_transform_rational(wf, z, s), Z, S))
    _assert_same(max_transform_rational(wf, 0.6, S),
                 _each(lambda s: max_transform_rational(wf, 0.6, s), S))
    _assert_same(steps_pgf_rational(wf, inside),
                 _each(lambda z: steps_pgf_rational(wf, z), inside))


@pytest.mark.parametrize("label", ["product_mm1", "threshold_exp", "markov_2state"])
def test_batch_reports_equal_scalar_reports(label):
    # z = 0 beside other z zeroes a combined coefficient of the kernel at
    # that point alone, which the batch evaluation must skip there only
    kernel = MODELS[label].rational
    zs, ss = np.append(Z, 0.0), np.append(S, 0.9)
    batch = find_kernel_roots(kernel, zs, ss)
    assert isinstance(batch, list) and len(batch) == len(zs)
    for rep, z, s in zip(batch, zs, ss):
        one = find_kernel_roots(kernel, complex(z), complex(s))
        assert rep == one
        assert rep.count_argument_principle == kernel.degree


def test_arrays_keep_their_shape():
    wf = walk_functionals(MODELS["product_mm1"])
    s = (1.0 + np.arange(6) * 0.5j).reshape(2, 3)
    tv = busy_period_rational(wf, 0.5, s)
    assert tv.value.shape == tv.abs_err.shape == (2, 3)
    assert tv.value[1, 2] == busy_period_rational(wf, 0.5, complex(s[1, 2])).value
    for empty in (busy_period_rational(wf, 0.5, np.array([])),
                  max_transform_rational(wf, 0.5, np.array([]))):
        assert empty.value.shape == empty.abs_err.shape == (0,)


def test_a_point_outside_the_domain_raises_and_is_named():
    kernel = MODELS["product_mm1"].rational
    with pytest.raises(PreconditionViolated, match=r"at z = 1\.2\+0j, s = 0\.5\+0j"):
        find_kernel_roots(kernel, np.array([0.3, 1.2, 0.5]), 0.5)
    wf = walk_functionals(MODELS["markov_2state"])
    with pytest.raises(DomainError, match=r"z = 0\.5\+0j and s = nan\+0j must be finite"):
        busy_period_rational(wf, 0.5, np.array([0.7, math.nan, 1.1]))
    with pytest.raises(DomainError, match=r"s = inf"):
        max_transform_rational(wf, 0.5, np.array([0.7, 1.1, math.inf]))


@pytest.mark.parametrize("name", ["product_mm1", "threshold_exp", "markov_2state"])
@pytest.mark.parametrize("s", [math.nan, math.inf, complex(math.inf, math.inf),
                               complex(math.nan, 0.0)])
def test_max_rejects_a_non_finite_s(name, s):
    # this once raised ValueError from TransformValue
    with pytest.raises(DomainError, match="must be finite"):
        max_transform_rational(walk_functionals(MODELS[name]), 0.5, s)


def test_invert_calls_the_transform_once_per_grid():
    wf = walk_functionals(MODELS["product_mm1"])
    shapes = []

    def transform(s):
        shapes.append(np.shape(s))
        return busy_period_rational(wf, 1.0, s).value

    grid = [0.4, 1.0, 2.5]
    vals = invert_to_distribution(transform, grid)
    assert shapes == [(3, 53)]
    for t, v in zip(grid, vals):
        assert v == invert_to_distribution(transform, [t])[0]


def test_kernel_calls_stay_under_the_batch_bound(monkeypatch):
    sizes = []
    plain = RationalKernel.eval_shifted

    def counted(self, xi, z, s):
        sizes.append(np.size(xi))
        return plain(self, xi, z, s)

    monkeypatch.setattr(RationalKernel, "eval_shifted", counted)
    wf = walk_functionals(builtin_models()["markov_2state"])
    invert_to_distribution(lambda s: busy_period_rational(wf, 0.9, s).value, [0.5, 1.5])
    assert max(sizes) <= roots._BATCH_POINTS
    assert sum(sizes) > 4 * roots._BATCH_POINTS  # the grid did span many calls


def test_budget_is_charged_per_point(monkeypatch):
    # each point's discs take 128 kernel points; a budget charged per batch
    # would run out on 53 points
    monkeypatch.setattr(roots, "_LOCATE_BUDGET", 200)
    kernel = MODELS["product_mm1"].rational
    s = (18.4 + 2.0 * math.pi * np.arange(53) * 1j) / 2.0
    assert len(find_kernel_roots(kernel, 1.0, s)) == 53


def test_scalar_calls_pass_scalars_to_the_find(monkeypatch):
    seen = []
    real_find = walkfluct.fluct.find_kernel_roots

    def spy(kernel, z, s, **kw):
        seen.extend((z, s))
        return real_find(kernel, z, s, **kw)

    monkeypatch.setattr(walkfluct.fluct, "find_kernel_roots", spy)
    busy_period_rational(walk_functionals(MODELS["markov_2state"]), 0.5, 0.7)
    assert len(seen) == 4 and all(isinstance(v, (float, complex)) for v in seen)
