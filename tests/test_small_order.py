"""The small-order form of ``sigma_n`` and the Python-float reductions of a
fit.  Up to order p + 1 = ``numerics._SMALL_ORDER`` ``sigma_n`` is formed
entry by entry in Python floats, above it in one array expression; both make
the same products in the same order, so every fit and test must agree bit for
bit.  The array form is the reference: patching ``numerics._SMALL_ORDER`` to
0 sends every order there, while ``solve_spd`` still factors at its own
order, as it does unpatched."""

import math
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyireg import numerics
from renyireg.estimation import _max_abs, fit_mle, fit_rp, fit_rp_path
from renyireg.inference import LinearHypothesis, wald_composite, wald_simple
from renyireg.model import ModelData, Theta

SMALL = numerics._SMALL_ORDER
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@contextmanager
def array_form():
    """Run the library on its array side at every order.  A patch of the
    module attributes, not the ``monkeypatch`` fixture, so that it can
    enter and leave within one ``hypothesis`` example."""
    solve = numerics.solve_spd

    def solve_at_its_order(a, b):
        numerics._SMALL_ORDER = SMALL
        try:
            return solve(a, b)
        finally:
            numerics._SMALL_ORDER = 0

    numerics._SMALL_ORDER, numerics.solve_spd = 0, solve_at_its_order
    try:
        yield
    finally:
        numerics._SMALL_ORDER, numerics.solve_spd = SMALL, solve


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


def both_forms(call):
    """``call``'s outcome on the Python-float side and on the array side:
    its result, or the type and message of what it raised.  Both run under
    the tests' error state, in which a numpy warning fails the test."""
    outcomes = []
    for form in (nullcontext(), array_form()):
        with form:
            try:
                outcomes.append(call())
            except (ArithmeticError, RuntimeError, ValueError) as err:
                outcomes.append((type(err), str(err)))
    return outcomes


def fit_bits(fit):
    theta = fit.theta_hat
    return bits([
        theta.beta, theta.sigma, fit.alpha, fit.converged, fit.iterations,
        fit.gradient_norm, fit.sigma_n, fit.objective_value,
    ])


def problem(p, n, seed, scale, contaminated):
    gen = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    y = x @ np.linspace(1.0, -1.0, p) + gen.normal(size=n)
    if contaminated:
        y[: n // 8] += 5.0
    return x, scale * y


ORDERS = st.integers(1, SMALL - 1)
SCALES = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)
# generated paths stop at 2; the examples below reach 1e4, where the path
# ends as it does at scale 1 at every response scale: converged on 12 rows
# without outliers, collapsed on 40 rows with them
PATH_ALPHAS = st.floats(1e-3, 2.0)


@PROPERTY
@given(
    p=ORDERS,
    n=st.integers(12, 60),
    seed=st.integers(0, 2**32 - 1),
    scale=SCALES,
    alphas=st.lists(PATH_ALPHAS, min_size=1, max_size=3),
    contaminated=st.booleans(),
)
@example(p=2, n=40, seed=7, scale=1e-150, alphas=[0.3, 0.7, 1.0], contaminated=True)
@example(p=3, n=60, seed=451, scale=1e150, alphas=[1.0], contaminated=True)
@example(p=2, n=40, seed=3, scale=1.0, alphas=[0.5, 1e2, 1e4], contaminated=True)
@example(p=1, n=12, seed=3, scale=1e150, alphas=[1e4], contaminated=False)
def test_fits_and_tests_match_array_form(p, n, seed, scale, alphas, contaminated):
    x, y = problem(p, n, seed, scale, contaminated)
    hyps = [LinearHypothesis.coordinates([i], [0.0], p + 1) for i in range(p + 1)]
    if p > 1:
        hyps.append(LinearHypothesis.coordinates([0, p], [0.0, scale], p + 1))

    def fits_and_tests():
        # a fresh ModelData, so that no cached design product crosses sides
        data = ModelData(x, y)
        fits = fit_rp_path(data, [0.0, *alphas])
        mle = fits[0.0].theta_hat
        init = Theta(beta=mle.beta * 1.01, sigma=mle.sigma * 0.9)
        fits[-1.0] = fit_rp(data, alphas[0], init=init)
        out = []
        for a, fit in fits.items():
            tests = [wald_composite(data, fit, h) for h in hyps] + [wald_simple(data, fit, mle)]
            out.append([a, fit_bits(fit), [bits([t.statistic, t.df, t.p_value]) for t in tests]])
        return out

    small, array = both_forms(fits_and_tests)
    assert small == array


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
