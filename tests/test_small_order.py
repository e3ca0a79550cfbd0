"""The Python-float reductions of a fit, Wald tests at extreme response
scales, and the continuation's crawl past a branch end.

Both forms of ``sigma_n``, per entry up to order ``numerics._SMALL_ORDER``
and one array expression above it, are checked against a scalar reference in
``tests/test_estimation.py``; no fit reads ``sigma_n``, and a Wald statistic
is a function of the fit and ``sigma_n`` alone.  Here the tests meet
responses scaled by 1e-150 and 1e150, where they must not change, and two
strict expected failures state the stage counts that the continuation must
come down to once it stops retrying its target past a branch end."""

import math

import numpy as np
import pytest

from renyireg import estimation
from renyireg.data import load_dataset
from renyireg.estimation import _max_abs, fit_mle, fit_rp, fit_rp_path
from renyireg.exceptions import DegenerateFitError
from renyireg.inference import LinearHypothesis, wald_composite, wald_simple
from renyireg.model import ModelData, Theta


def bits(value):
    """``value`` as comparable bits: numbers by ``float.hex``, every NaN
    alike, arrays and sequences entry by entry."""
    if isinstance(value, np.ndarray):
        return [value.shape, bits(value.ravel().tolist())]
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return "nan" if value != value else value.hex()
    return value


def problem(p, n, seed, scale, contaminated):
    gen = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    y = x @ np.linspace(1.0, -1.0, p) + gen.normal(size=n)
    if contaminated:
        y[: n // 8] += 5.0
    return x, scale * y


def wald_outcomes(p, scale):
    """Statistics and p-values of ``wald_simple`` against the
    maximum-likelihood fit and of ``wald_composite`` on every coordinate and,
    at p = 2, on two coordinates, for the fits of a path and of an ``init=``
    run on 40 contaminated rows at response scale ``scale``.  Every
    hypothesis's value scales with the response, so no outcome depends on
    ``scale``."""
    x, y = problem(p, 40, 7, scale, contaminated=True)
    data = ModelData(x, y)
    hyps = [LinearHypothesis.coordinates([i], [0.0], p + 1) for i in range(p + 1)]
    if p > 1:
        hyps.append(LinearHypothesis.coordinates([0, p], [0.0, scale], p + 1))
    fits = fit_rp_path(data, [0.0, 0.3, 1.0])
    mle = fits[0.0].theta_hat
    fits[-1.0] = fit_rp(data, 0.3, init=Theta(beta=mle.beta * 1.01, sigma=mle.sigma * 0.9))
    outcomes = []
    for fit in fits.values():
        assert fit.converged
        tests = [wald_composite(data, fit, h) for h in hyps] + [wald_simple(data, fit, mle)]
        outcomes += [value for t in tests for value in (t.statistic, t.p_value)]
    return outcomes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("p", [1, 2])
def test_wald_tests_do_not_change_with_response_scale(p, scale):
    np.testing.assert_allclose(wald_outcomes(p, scale), wald_outcomes(p, 1.0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_mle_reductions_are_numpy_reductions(scale):
    # the maximum-likelihood fit's scale and gradient norm are the bits of
    # np.mean and np.max(np.abs(...)), which it no longer calls
    x, y = problem(3, 50, 5, scale, contaminated=True)
    data = ModelData(x, y)
    fit = fit_mle(data)
    resid = y - x @ fit.theta_hat.beta
    sigma = float(np.sqrt(np.mean(resid * resid)))
    grad = np.concatenate([x.T @ resid / (50 * sigma**2), [0.0]])
    assert bits([fit.theta_hat.sigma, fit.gradient_norm]) == bits(
        [sigma, float(np.max(np.abs(grad)))]
    )


@pytest.mark.parametrize(
    "values",
    [[0.0], [-0.0, 0.0], [1.0, -3.0, 2.0], [1.0, math.nan, -math.inf], [-math.inf, math.nan]],
)
def test_max_abs_is_numpy_max_abs(values):
    with np.errstate(invalid="ignore"):
        assert bits(_max_abs(values)) == bits(float(np.max(np.abs(values))))


def count_stages(monkeypatch):
    """A list that grows by one entry per ``_newton_stage`` call."""
    stages = []
    stage = estimation._newton_stage

    def counting(*args):
        stages.append(None)
        return stage(*args)

    monkeypatch.setattr(estimation, "_newton_stage", counting)
    return stages


CRAWL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="after an accepted halved stage the continuation retries the target, "
    "so its stages grow with alpha past a branch end",
)


@CRAWL
def test_path_past_branch_end_takes_few_stages(monkeypatch):
    # 1,062 stages: past the branch end near alpha 2.24 each round retries
    # 100 and halves back
    stages = count_stages(monkeypatch)
    fit_rp_path(ModelData(*problem(1, 12, 3, 1.0, False)), [100.0])
    assert len(stages) <= 100


@CRAWL
def test_collapse_is_refused_in_few_stages(monkeypatch):
    # 107 stages before the step reaches its floor and the collapse raises
    stages = count_stages(monkeypatch)
    with pytest.raises(DegenerateFitError, match="scale collapsed"):
        fit_rp_path(load_dataset("first_word").data, [10.0])
    assert len(stages) <= 30
