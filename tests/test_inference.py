"""Wald-type tests, power approximation, sample size, local alternatives."""

import csv
import dataclasses
import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyireg import load_dataset, numerics
from renyireg.cli import EXIT_OK, main
from renyireg.estimation import covariance_mlrm, fit_mle, fit_rp, fit_rp_path
from renyireg.exceptions import DecompositionError, DomainError
from renyireg.inference import (
    UNBOUNDED_SAMPLE_SIZE,
    LinearHypothesis,
    WaldOutcome,
    _coordinate_p_value,
    approx_power,
    contiguous_power,
    required_sample_size,
    wald_composite,
    wald_simple,
    wald_statistic,
)
from renyireg.model import ModelData, Theta


def make_data(rng, n=40):
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = x @ np.array([1.0, 1.0]) + rng.normal(size=n)
    return ModelData(design=x, response=y)


class TestLinearHypothesis:
    def test_rank_check(self):
        with pytest.raises(DomainError):
            LinearHypothesis(m_matrix=np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
                             m_vector=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("c", [1e12, 1e-12])
    def test_rank_rule_has_no_units(self, c):
        # pinning beta1 = -1.1 on first_word, with M and m divided by c
        data = load_dataset("first_word").data
        fit = fit_rp(data, 0.5)
        base = LinearHypothesis.coordinates([1], [-1.1], 3)
        scaled = LinearHypothesis(m_matrix=base.m_matrix / c, m_vector=base.m_vector / c)
        want = wald_composite(data, fit, base).statistic
        assert wald_composite(data, fit, scaled).statistic == pytest.approx(want, rel=1e-12)

    def test_needs_fewer_restrictions_than_params(self):
        with pytest.raises(DomainError):
            LinearHypothesis(m_matrix=np.eye(3), m_vector=np.zeros(3))

    def test_coordinates(self):
        hyp = LinearHypothesis.coordinates([1], [0.73], 3)
        assert hyp.n_restrictions == 1
        assert hyp.m_matrix[1, 0] == 1.0


class TestWaldStatistic:
    def test_zero_difference(self):
        assert wald_statistic(np.zeros(3), np.eye(3), 50) == 0.0

    def test_scalar_hand_case(self):
        # n * d^2 / v = 100 * 0.04 / 0.8 = 5; chi-square(1) tail of 5
        stat = wald_statistic(np.array([0.2]), np.array([[0.8]]), 100)
        assert stat == pytest.approx(5.0, rel=1e-12)
        assert numerics.chisq_sf(stat, 1) == pytest.approx(0.0253, abs=1e-4)

    def test_reparameterization_invariance(self, rng):
        d = rng.normal(size=3)
        m = rng.normal(size=(3, 3))
        cov = m @ m.T + np.eye(3)
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        w1 = wald_statistic(d, cov, 10)
        w2 = wald_statistic(a @ d, a @ cov @ a.T, 10)
        assert w1 == pytest.approx(w2, rel=1e-9)

    def test_singular_covariance(self):
        with pytest.raises(DecompositionError):
            wald_statistic(np.ones(2), np.ones((2, 2)), 10)


class TestWaldTests:
    def test_simple_at_null_point(self, rng):
        data = make_data(rng)
        fit = fit_mle(data)
        outcome = wald_simple(data, fit, fit.theta_hat)
        assert outcome.statistic == 0.0
        assert outcome.p_value == 1.0
        assert outcome.df == 3

    def test_composite_exact_null(self, rng):
        data = make_data(rng)
        fit = fit_rp(data, 0.4)
        hyp = LinearHypothesis.coordinates([1], [fit.theta_hat.beta[1]], 3)
        outcome = wald_composite(data, fit, hyp)
        assert outcome.statistic == pytest.approx(0.0, abs=1e-18)
        assert outcome.df == 1

    def test_composite_agrees_with_direct_quadratic_form(self, rng):
        data = make_data(rng)
        fit = fit_rp(data, 0.3)
        hyp = LinearHypothesis.coordinates([0, 1], [0.9, 1.1], 3)
        outcome = wald_composite(data, fit, hyp)
        sigma = covariance_mlrm(data, fit.theta_hat, 0.3).sigma_n
        diff = fit.theta_hat.to_array()[:2] - np.array([0.9, 1.1])
        direct = data.n_obs * diff @ np.linalg.solve(sigma[:2, :2], diff)
        assert outcome.statistic == pytest.approx(direct, rel=1e-12)

    def test_full_restriction_equals_simple(self, rng):
        # the simple statistic is the same quadratic form with the
        # covariance held at the null point
        data = make_data(rng)
        fit = fit_rp(data, 0.2)
        theta0 = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        simple = wald_simple(data, fit, theta0)
        sigma0 = covariance_mlrm(data, theta0, 0.2).sigma_n
        diff = fit.theta_hat.to_array() - theta0.to_array()
        assert simple.statistic == pytest.approx(
            wald_statistic(diff, sigma0, data.n_obs), rel=1e-12
        )

    def test_reject_monotone_in_level(self, rng):
        data = make_data(rng)
        fit = fit_mle(data)
        outcome = wald_simple(data, fit, Theta(beta=np.array([0.5, 0.5]), sigma=1.4))
        rejections = [outcome.reject_at(nu) for nu in (0.01, 0.05, 0.1, 0.5)]
        assert rejections == sorted(rejections)
        assert 0.0 <= outcome.p_value <= 1.0


class TestRejectAt:
    """``reject_at`` decides by the reported p-value."""

    LEVELS = (0.001, 0.01, 0.05, 0.1, 0.5, 0.9)

    @staticmethod
    def _outcome(stat, df):
        return WaldOutcome(statistic=float(stat), df=df, p_value=numerics.chisq_sf(stat, df))

    def test_agrees_with_p_value(self, rng):
        for df in range(1, 5):
            for stat in rng.chisquare(df, size=200) * rng.uniform(0.2, 3.0, size=200):
                outcome = self._outcome(stat, df)
                for level in self.LEVELS:
                    assert outcome.reject_at(level) == (outcome.p_value < level)

    def test_agrees_with_critical_value_off_the_ulp_band(self, rng):
        for df in range(1, 5):
            for level in self.LEVELS:
                crit = numerics.chisq_quantile(df, level)
                near = crit * (1.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6]))
                for stat in np.concatenate([rng.chisquare(df, size=100), near]):
                    if abs(stat - crit) > 1e-12 * crit:
                        assert self._outcome(stat, df).reject_at(level) == (stat > crit), (
                            df, level, stat,
                        )

    def test_level_domain(self):
        outcome = self._outcome(3.0, 2)
        for bad in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                outcome.reject_at(bad)

    def test_cli_reject_column_matches_p_value(self, tmp_path):
        decisions = set()
        for data, null in (("brain_weight", "beta1=0.73"), ("first_word", "sigma=9.0")):
            for level in ("0.05", "0.2"):
                out = tmp_path / f"{data}-{level}"
                args = ["test", "--data", data, "--null", null, "--level", level]
                assert main(args + ["--output", str(out)]) == EXIT_OK
                with open(out / "test.csv") as handle:
                    for row in csv.DictReader(handle):
                        reject = float(row["p_value"]) < float(level)
                        assert row[f"reject_at_{level}"] == str(reject), (data, level, row)
                        decisions.add(reject)
        assert decisions == {True, False}


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@contextmanager
def tail_statistics():
    """The statistics of the chi-square tails evaluated inside, in order.  A
    patch of the module attribute, which inference calls, so that it can
    enter and leave within one ``hypothesis`` example."""
    seen = []
    sf = numerics.chisq_sf
    numerics.chisq_sf = lambda x, df: seen.append(x) or sf(x, df)
    try:
        yield seen
    finally:
        numerics.chisq_sf = sf


class TestCoordinatePValue:
    """A study decides each hypothesis ``theta[index] = value`` from the
    fitted coordinate and its ``sigma_n`` diagonal entry: the test that
    ``wald_composite`` makes, bit for bit."""

    @PROPERTY
    @given(
        p=st.integers(1, 3),
        n=st.integers(12, 80),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
        alpha=st.floats(0.0, 2.0),
        # nulls this many standard errors from the estimate, 0 included
        shifts=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
    )
    @example(p=2, n=40, seed=0, scale=1e-100, alpha=0.5, shifts=[0.0, 1.96, -1.96, 4.0])
    @example(p=3, n=12, seed=1, scale=1e100, alpha=0.0, shifts=[-0.0, 2.0, -3.0, 0.5])
    def test_equals_wald_composite(self, p, n, seed, scale, alpha, shifts):
        gen = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
        y = x @ np.linspace(1.0, -1.0, p) + gen.normal(size=n)
        y[: n // 8] += 5.0
        data = ModelData(x, scale * y)
        fit = fit_rp_path(data, [alpha])[alpha]
        theta = fit.theta_hat.to_array()
        for index in range(p + 1):
            se = math.sqrt(fit.sigma_n[index, index] / n)
            value = theta[index] + shifts[index] * se
            hyp = LinearHypothesis.coordinates([index], [value], p + 1)
            with tail_statistics() as stats:
                got = _coordinate_p_value(fit, index, value, n)
                want = wald_composite(data, fit, hyp)
            assert [v.hex() for v in stats] == [want.statistic.hex()] * 2
            assert got.hex() == want.p_value.hex()
            for level in (0.01, 0.05, 0.5):
                assert (got < level) == want.reject_at(level)

    @pytest.mark.parametrize(
        "entry,index,bad",
        [
            # an entry off the tested coordinate, either sign of infinity or NaN
            ((0, 1), 2, math.inf),
            ((2, 0), 1, -math.inf),
            ((2, 2), 0, math.nan),
            # the variance itself: zero, negative, infinite
            ((1, 1), 1, 0.0),
            ((0, 0), 0, -1.0),
            ((2, 2), 2, math.inf),
        ],
    )
    def test_refuses_what_wald_composite_refuses(self, rng, entry, index, bad):
        data = make_data(rng)
        fit = fit_rp(data, 0.5)
        sigma_n = fit.sigma_n.copy()
        sigma_n[entry] = bad
        broken = dataclasses.replace(fit, sigma_n=sigma_n)
        value = fit.theta_hat.to_array()[index] + 0.1
        hyp = LinearHypothesis.coordinates([index], [value], 3)
        # refused before M' sigma_n M, which would multiply the non-finite
        # entry by 0 with a numpy warning
        with pytest.raises(DecompositionError) as want, warnings.catch_warnings():
            warnings.simplefilter("error")
            wald_composite(data, broken, hyp)
        with pytest.raises(DecompositionError) as got:
            _coordinate_p_value(broken, index, value, data.n_obs)
        assert str(got.value) == str(want.value)


def identity_sigma_provider(theta):
    return np.eye(theta.dim)


class TestApproxPower:
    def test_at_null_returns_level(self):
        theta = Theta(beta=np.array([1.0]), sigma=1.0)
        report = approx_power(theta, theta, 0.3, 100, 0.05, identity_sigma_provider)
        assert report.approx_power == 0.05

    def test_hand_case(self):
        # ell = 0.04, sigma_w = 0.4, df = 1 needs a one-parameter model,
        # realized through a scalar-covariance provider on (sigma) only.
        # Here: theta differs in one coordinate by 0.2 with unit variance
        # except scaled so ell and sigma_w match the hand numbers.
        # ell = d' S^{-1} d = 0.04 with d = 0.2 gives S = 1.0; sigma_w^2 =
        # 4 d' S^{-1} S S^{-1} d = 4 * 0.04 = 0.16 -> sigma_w = 0.4.
        theta0 = Theta(beta=np.array([0.0]), sigma=1.0)
        theta1 = Theta(beta=np.array([0.2]), sigma=1.0)

        def provider(theta):
            return np.eye(2)

        report = approx_power(theta1, theta0, 0.0, 100, 0.05, provider)
        assert report.ell == pytest.approx(0.04, rel=1e-12)
        assert report.sigma_w == pytest.approx(0.4, rel=1e-12)
        # df = 2 here; the scalar reference value uses df = 1:
        crit1 = numerics.chisq_quantile(1, 0.05)
        arg = math.sqrt(100) / 0.4 * (crit1 / 100 - 0.04)
        assert float(1 - numerics.normal_cdf(arg)) == pytest.approx(0.516, abs=5e-4)

    def test_monotone_in_n(self):
        theta0 = Theta(beta=np.array([0.0]), sigma=1.0)
        theta1 = Theta(beta=np.array([0.3]), sigma=1.0)
        powers = [
            approx_power(theta1, theta0, 0.2, n, 0.05, identity_sigma_provider).approx_power
            for n in range(50, 1001, 50)
        ]
        assert all(p2 >= p1 for p1, p2 in zip(powers, powers[1:]))
        assert powers[-1] > 0.8


class TestRequiredSampleSize:
    def test_inverts_power(self):
        theta0 = Theta(beta=np.array([0.0]), sigma=1.0)
        theta1 = Theta(beta=np.array([0.2]), sigma=1.0)
        for target in (0.5, 0.8, 0.9):
            n = required_sample_size(theta1, theta0, 0.0, target, 0.05, identity_sigma_provider)
            at_n = approx_power(theta1, theta0, 0.0, n, 0.05, identity_sigma_provider)
            below = approx_power(theta1, theta0, 0.0, n - 1, 0.05, identity_sigma_provider)
            assert at_n.approx_power >= target - 1e-9
            assert below.approx_power < target

    def test_monotone_in_target(self):
        theta0 = Theta(beta=np.array([0.0]), sigma=1.0)
        theta1 = Theta(beta=np.array([0.2]), sigma=1.0)
        n_half = required_sample_size(theta1, theta0, 0.0, 0.5, 0.05, identity_sigma_provider)
        n_ninety = required_sample_size(theta1, theta0, 0.0, 0.9, 0.05, identity_sigma_provider)
        assert n_half < n_ninety

    def test_unbounded_signal(self):
        theta0 = Theta(beta=np.array([0.0]), sigma=1.0)
        theta1 = Theta(beta=np.array([1e-6]), sigma=1.0)
        n = required_sample_size(theta1, theta0, 0.0, 0.9, 0.05, identity_sigma_provider)
        assert n == UNBOUNDED_SAMPLE_SIZE

    def test_degenerate_direction(self):
        theta = Theta(beta=np.array([0.0]), sigma=1.0)
        with pytest.raises(DomainError):
            required_sample_size(theta, theta, 0.0, 0.9, 0.05, identity_sigma_provider)


class TestContiguousPower:
    def sigma_for(self, alpha, sigma=1.0):
        # unit covariate second moment, so the slope entry of the covariance
        # is the scalar factor
        out = np.zeros((3, 3))
        fac = sigma**2 * (1 + alpha) ** 3 / (2 * alpha + 1) ** 1.5
        out[:2, :2] = fac * np.eye(2)
        out[2, 2] = 1.0
        return out

    def test_zero_shift_gives_level(self):
        hyp = LinearHypothesis.coordinates([1], [1.0], 3)
        p = contiguous_power(hyp, np.zeros(3), 0.05, self.sigma_for(0.4))
        assert p == pytest.approx(0.05, abs=1e-10)

    def test_published_values(self):
        hyp = LinearHypothesis.coordinates([1], [1.0], 3)
        p0 = contiguous_power(hyp, np.array([0.0, math.sqrt(10.0), 0.0]), 0.05, self.sigma_for(0.0))
        assert p0 == pytest.approx(0.88, abs=0.01)
        p5 = contiguous_power(hyp, np.array([0.0, math.sqrt(10.0), 0.0]), 0.05, self.sigma_for(0.5))
        assert p5 == pytest.approx(0.81, abs=0.02)

    def test_monotone_in_shift_and_alpha(self):
        hyp = LinearHypothesis.coordinates([1], [1.0], 3)
        shifts = [0.5, 1.0, 2.0, 4.0, 8.0]
        powers = [
            contiguous_power(hyp, np.array([0.0, s, 0.0]), 0.05, self.sigma_for(0.3))
            for s in shifts
        ]
        assert all(p2 > p1 for p1, p2 in zip(powers, powers[1:]))
        alphas = [0.0, 0.3, 0.6, 0.9, 1.2, 1.5]
        by_alpha = [
            contiguous_power(hyp, np.array([0.0, 3.0, 0.0]), 0.05, self.sigma_for(a))
            for a in alphas
        ]
        assert all(p2 < p1 for p1, p2 in zip(by_alpha, by_alpha[1:]))



def _zero_at_alternative(theta):
    # the covariance vanishes away from the null point beta = 0
    return np.eye(theta.dim) * float(theta.beta[0] == 0.0)


_SMALL = make_data(np.random.default_rng(0))
_NULL, _ALTERNATIVE = Theta(beta=np.array([0.0]), sigma=1.0), Theta(beta=np.array([0.2]), sigma=1.0)
REFUSALS = {
    "hypothesis values": (
        lambda: LinearHypothesis(m_matrix=np.eye(3)[:, :1], m_vector=[1.0, 2.0]),
        "dimensions differ",
    ),
    "wald_composite": (
        lambda: wald_composite(
            _SMALL, fit_mle(_SMALL), LinearHypothesis.coordinates([1], [1.0], 4)
        ),
        "restriction matrix does not match parameter dimension: 4 against 3",
    ),
    "contiguous_power": (
        lambda: contiguous_power(
            LinearHypothesis.coordinates([1], [1.0], 3), np.ones(4), 0.05, np.eye(3)
        ),
        "shift vector does not match parameter dimension: 4 against 3",
    ),
    "contiguous_power sigma_n": (
        lambda: contiguous_power(
            LinearHypothesis.coordinates([1], [1.0], 3), np.ones(3), 0.05, np.eye(4)
        ),
        "sigma_n does not match parameter dimension: 4 against 3",
    ),
    "wald_simple": (
        lambda: wald_simple(_SMALL, fit_mle(_SMALL), Theta(beta=np.zeros(3), sigma=1.0)),
        "theta0 does not match parameter dimension: 4 against 3",
    ),
    "approx_power dimensions": (
        lambda: approx_power(
            Theta(beta=np.zeros(2), sigma=1.0), _NULL, 0.3, 100, 0.05, _zero_at_alternative
        ),
        "theta_star does not match theta0's dimension: 3 against 2",
    ),
    "required_sample_size dimensions": (
        lambda: required_sample_size(
            _ALTERNATIVE, Theta(beta=np.zeros(2), sigma=1.0), 0.3, 0.9, 0.05, _zero_at_alternative
        ),
        "theta_star does not match theta0's dimension: 2 against 3",
    ),
    "approx_power zero variance": (
        lambda: approx_power(_ALTERNATIVE, _NULL, 0.3, 100, 0.05, _zero_at_alternative),
        "zero variance",
    ),
    "required_sample_size zero variance": (
        lambda: required_sample_size(_ALTERNATIVE, _NULL, 0.3, 0.9, 0.05, _zero_at_alternative),
        "zero variance",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refused(case):
    call, named = REFUSALS[case]
    with pytest.raises(DomainError, match=named):
        call()
