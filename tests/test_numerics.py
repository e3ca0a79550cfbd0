"""Special functions, quadrature, linear algebra, and RNG streams.

Reference values are either textbook constants, closed forms evaluated in
the test, or brute-force numerical oracles (trapezoid integration, Monte
Carlo frequencies) run inline.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from renyireg import numerics
from renyireg.exceptions import DecompositionError, DomainError, NonFiniteIntegrandError
from renyireg.simulation import contiguous_table


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _trapezoid(f, x):
    """Trapezoid rule; ``np.trapezoid`` is numpy >= 2 only, and pyproject.toml
    allows numpy 1.24."""
    return float(np.sum((f[1:] + f[:-1]) * np.diff(x)) / 2)


class TestNormal:
    def test_cdf_at_zero(self):
        assert numerics.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_symmetry(self):
        for x in (0.5, 1.0, 3.0):
            assert numerics.normal_cdf(-x) + numerics.normal_cdf(x) == pytest.approx(1.0, abs=1e-14)

    def test_quantile_975(self):
        # cross-checked below against a trapezoid integral of the density
        assert numerics.normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_quantile_against_trapezoid_cdf(self):
        # brute-force oracle: integrate the density up to q and compare mass
        q = numerics.normal_quantile(0.975)
        grid = np.linspace(-12.0, q, 400001)
        dens = np.exp(-0.5 * grid * grid) / math.sqrt(2 * math.pi)
        mass = _trapezoid(dens, grid)
        assert mass == pytest.approx(0.975, abs=1e-9)

    def test_round_trip(self, rng):
        p = rng.uniform(1e-6, 1 - 1e-6, size=1000)
        back = numerics.normal_cdf(numerics.normal_quantile(p))
        assert np.max(np.abs(back - p)) < 1e-10

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                numerics.normal_quantile(bad)

    def test_cdf_monotone(self, rng):
        x = np.sort(rng.normal(size=500))
        assert np.all(np.diff(numerics.normal_cdf(x)) >= 0)


class TestChisq:
    def test_quantile_frozen(self):
        # verified against the regularized incomplete gamma by bisection
        assert numerics.chisq_quantile(1, 0.05) == pytest.approx(3.841459, abs=5e-7)
        assert numerics.chisq_quantile(2, 0.05) == pytest.approx(5.991465, abs=5e-7)
        assert numerics.chisq_quantile(1, 0.5) == pytest.approx(0.454936, abs=5e-7)

    def test_df2_closed_form(self):
        # chi-square with 2 df is exponential: upper quantile is -2 log(tail)
        assert numerics.chisq_quantile(2, 0.05) == pytest.approx(-2 * math.log(0.05), rel=1e-12)

    def test_bisection_oracle(self):
        # independent root-find on the survival function
        from scipy.optimize import brentq

        for df, tail in ((1, 0.05), (3, 0.2), (5, 0.01)):
            root = brentq(lambda x: numerics.chisq_sf(x, df) - tail, 1e-9, 200.0, xtol=1e-12)
            assert numerics.chisq_quantile(df, tail) == pytest.approx(root, abs=1e-9)

    def test_monte_carlo_tail(self):
        gen = numerics.RngStream(901, 0).generator
        draws = gen.standard_normal((1_000_000, 1)) ** 2
        q = numerics.chisq_quantile(1, 0.05)
        freq = float(np.mean(draws.sum(axis=1) > q))
        assert freq == pytest.approx(0.05, abs=3 * math.sqrt(0.05 * 0.95 / 1e6))

    def test_round_trip(self, rng):
        p = rng.uniform(1e-5, 1 - 1e-5, size=1000)
        df = 3
        x = np.array([numerics.chisq_quantile(df, t) for t in p])
        back = numerics.chisq_sf(x, df)
        assert np.max(np.abs(back - p)) < 1e-9

    def test_extreme_tails(self):
        # the tail is solved in log space: tiny targets need no rescaling
        for df in (1, 2, 3, 30):
            for tail in (1e-300, 1e-100):
                x = numerics.chisq_quantile(df, tail)
                assert numerics.chisq_sf(x, df) == pytest.approx(tail, rel=1e-12, abs=0)
        # a subnormal target still gives a finite point in the far tail
        assert 1400.0 < numerics.chisq_quantile(1, 5e-324) < 1600.0
        assert -39.0 < numerics.normal_quantile(5e-324) < -38.0

    def test_domain(self):
        with pytest.raises(DomainError):
            numerics.chisq_quantile(1, 0.0)
        with pytest.raises(DomainError):
            numerics.chisq_quantile(0, 0.5)


class TestChisqSurvival:
    """The closed-form tail against scipy's regularized incomplete gamma."""

    @staticmethod
    def _assert_matches_scipy(x, df):
        ref = scipy.stats.chi2.sf(x, df)
        mine = numerics.chisq_sf(x, df)
        keep = ref >= 1e-300
        np.testing.assert_allclose(mine[keep], ref[keep], rtol=1e-12, atol=0, err_msg=f"df={df}")

    def test_against_scipy(self):
        for df in range(1, 201):
            self._assert_matches_scipy(np.linspace(0.0, 4.0 * df + 200.0, 121), df)

    def test_against_scipy_where_exp_underflows(self):
        # e^{-x/2} is 0 in double precision beyond x = 1490, yet the tails of
        # 1600 degrees of freedom there run from 0.997 down to 3e-7
        x = np.linspace(1450.0, 1900.0, 46)
        assert math.exp(-x[-1] / 2) == 0.0
        for df in (1599, 1600):
            self._assert_matches_scipy(x, df)

    def test_large_df_below_the_mean(self):
        # below the mean the tail is 1 minus the lower series, about
        # sqrt(df) terms; the finite sum's df / 2 took 2.2 s at df 1e7.
        # Rounding in the log of the first term, whose parts are near 1e8
        # there, costs up to 1.3e-8 relative
        for df in (10**4, 10**7):
            x = np.array([0.9 * df, df - 3.0 * math.sqrt(2.0 * df), df - 0.5])
            np.testing.assert_allclose(
                numerics.chisq_sf(x, df), scipy.stats.chi2.sf(x, df), rtol=5e-8, atol=0
            )

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3), (1, 4, 1)])
    def test_array_shape_preserved(self, shape):
        x = np.arange(math.prod(shape), dtype=float).reshape(shape) + 0.5
        out = numerics.chisq_sf(x, 3)
        if shape == ():
            assert isinstance(out, float)
        else:
            assert isinstance(out, np.ndarray) and out.shape == shape
        np.testing.assert_allclose(out, scipy.stats.chi2.sf(x, 3), rtol=1e-12)

    def test_nonpositive_x_gives_one(self):
        for df in (1, 2, 7):
            for x in (0.0, -0.0, -1.0, -math.inf):
                assert numerics.chisq_sf(x, df) == 1.0
            assert numerics.chisq_sf(np.array([-2.0, 0.0]), df).tolist() == [1.0, 1.0]

    def test_infinite_and_nan_x(self):
        assert numerics.chisq_sf(math.inf, 3) == 0.0
        assert math.isnan(numerics.chisq_sf(math.nan, 2))

    def test_subnormal_x(self):
        # x / 2 underflows to 0: the tail is 1, not a log of zero
        for df in (1, 2, 3):
            assert numerics.chisq_sf(5e-324, df) == 1.0
            assert numerics._chisq_cdf_scalar(0.0, df) == 0.0
            assert numerics.noncentral_chisq_sf(5e-324, df, 2.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("df", [0, 1.5, -1, 2.0, True, np.float64(3.0)])
    def test_domain(self, df):
        # one rule for the three chi-square functions, whatever delta is
        for call in (
            lambda: numerics.chisq_sf(1.0, df),
            lambda: numerics.chisq_quantile(df, 0.5),
            lambda: numerics.noncentral_chisq_sf(1.0, df, 0.0),
            lambda: numerics.noncentral_chisq_sf(1.0, df, 2.0),
        ):
            with pytest.raises(DomainError):
                call()

    def test_numpy_integer_df(self):
        assert numerics.chisq_sf(2.5, np.int64(3)) == numerics.chisq_sf(2.5, 3)


class TestNoncentralChisq:
    def test_reduces_to_central(self):
        q = numerics.chisq_quantile(1, 0.05)
        assert numerics.noncentral_chisq_sf(q, 1, 0.0) == pytest.approx(0.05, abs=1e-10)

    def test_monotone_in_delta(self):
        q = numerics.chisq_quantile(1, 0.05)
        vals = [numerics.noncentral_chisq_sf(q, 1, d) for d in np.linspace(0, 40, 41)]
        assert np.all(np.diff(vals) > 0)

    def test_one_df_does_not_fall_from_zero_noncentrality(self):
        # one formula at every delta, also where delta / 2 underflows: the
        # tail starts at its central value and does not fall as delta grows
        q = numerics.chisq_quantile(1, 0.05)
        deltas = [0.0, 5e-324, 1e-300, *np.logspace(-40, 2, 400)]
        vals = [numerics.noncentral_chisq_sf(q, 1, d) for d in deltas]
        assert np.all(np.diff(vals) >= 0.0)
        # the expansion used for small delta agrees with the normal pair
        for d in np.logspace(-14, -8.01, 13):
            rx, rd = math.sqrt(q), math.sqrt(d)
            pair = scipy.special.ndtr(rd - rx) + scipy.special.ndtr(-rd - rx)
            assert numerics.noncentral_chisq_sf(q, 1, d) == pytest.approx(pair, abs=1e-16)
        # are_beta underflows at alpha 1e250: a positive shift keeps the level
        assert contiguous_table([1e250], [0.0, 30.0], 1.0, 0.05)[1e250][30.0] >= 0.05

    def test_known_values(self):
        # published power values at these noncentralities are 0.88 and 0.59
        assert numerics.noncentral_chisq_sf(3.841459, 1, 10) == pytest.approx(0.885, abs=0.01)
        assert numerics.noncentral_chisq_sf(3.841459, 1, 5) == pytest.approx(0.609, abs=0.03)

    def test_against_scipy(self, rng):
        cells = [
            (rng.uniform(0.1, 30), int(rng.integers(1, 8)), rng.uniform(0, 50))
            for _ in range(50)
        ]
        # noncentralities past 1490, where e^{-delta/2} underflows
        cells += [
            (x, df, delta)
            for x in (3.84, 1500.0)
            for df in (1, 3)
            for delta in (1491.0, 5000.0)
        ]
        for x, df, delta in cells:
            assert numerics.noncentral_chisq_sf(x, df, delta) == pytest.approx(
                scipy.stats.ncx2.sf(x, df, delta), abs=1e-10
            ), (x, df, delta)

    @pytest.mark.parametrize(
        "x, delta", [(-1.0, 1.0), (math.nan, 1.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_domain(self, x, delta):
        for df in (1, 3):
            with pytest.raises(DomainError):
                numerics.noncentral_chisq_sf(x, df, delta)

    def test_edges(self):
        for df in (1, 3):
            assert numerics.noncentral_chisq_sf(0.0, df, 4.0) == 1.0
            assert numerics.noncentral_chisq_sf(math.inf, df, 4.0) == 0.0
            # delta / 2 underflows: the central tail
            assert numerics.noncentral_chisq_sf(2.0, df, 5e-324) == numerics.chisq_sf(2.0, df)

    def test_huge_noncentrality(self):
        # the Poisson window starts near delta / 2 terms up, where the
        # central tail is already 1: so is every later one and the mixture,
        # without a pass over the window's 20 sqrt(delta / 2) terms
        for delta in (1e5, 1e8, 1e12):
            assert numerics.noncentral_chisq_sf(5.0, 3, delta) == 1.0

    def test_power_at_large_shift(self):
        table = contiguous_table((0.0, 0.5), (1600,), 1.0, 0.05)
        assert all(row[1600.0] > 0.999 for row in table.values())

    def test_mixture_equals_monte_carlo(self):
        # simulate (Z + sqrt(delta))^2 + chi2_{df-1}
        gen = numerics.RngStream(902, 0).generator
        df, delta, x = 3, 7.5, 9.0
        n = 1_000_000
        z = (gen.standard_normal(n) + math.sqrt(delta)) ** 2
        extra = gen.standard_normal((n, df - 1)) ** 2
        freq = float(np.mean(z + extra.sum(axis=1) > x))
        sf = numerics.noncentral_chisq_sf(x, df, delta)
        assert abs(freq - sf) < 3 * math.sqrt(sf * (1 - sf) / n)


class TestAgainstScipy:
    """The numpy-only special functions against scipy's, over the grids on
    which their accuracy is stated in docs/MATH.md."""

    def test_normal_cdf(self):
        x = np.linspace(-37.0, 9.0, 20001)
        np.testing.assert_allclose(
            numerics.normal_cdf(x), scipy.special.ndtr(x), rtol=1e-12, atol=0
        )

    def test_normal_quantile(self):
        p = np.concatenate([
            np.logspace(-300, -1, 3000),
            np.linspace(0.01, 0.99, 3001),
            1.0 - np.logspace(-16, -1, 3000),
        ])
        np.testing.assert_allclose(
            numerics.normal_quantile(p), scipy.special.ndtri(p), rtol=1e-14, atol=1e-300
        )

    def test_chisq_quantile(self):
        tails = np.concatenate([np.logspace(-8, -1, 120), np.linspace(0.1, 0.99, 120)])
        for df in range(1, 31):
            mine = [numerics.chisq_quantile(df, t) for t in tails]
            ref = 2.0 * scipy.special.gammainccinv(0.5 * df, tails)
            np.testing.assert_allclose(mine, ref, rtol=1e-13, atol=0, err_msg=f"df={df}")

    def test_chisq_quantile_near_one(self):
        # upper tails above 1/2 invert the lower tail 1 - q, exact there
        tails = np.concatenate([np.linspace(0.5, 0.99, 50), 1.0 - np.logspace(-16, -2, 57)])
        for df in (1, 2, 3, 10, 30, 100):
            mine = [numerics.chisq_quantile(df, t) for t in tails]
            ref = 2.0 * scipy.special.gammaincinv(0.5 * df, 1.0 - tails)
            np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=0, err_msg=f"df={df}")

    def test_noncentral_chisq_sf(self):
        gen = np.random.default_rng(17)
        cells = list(zip(
            gen.uniform(0.0, 1500.0, 3000),
            gen.integers(1, 12, 3000),
            gen.uniform(0.0, 2000.0, 3000),
        ))
        # half the cells where the power tables live: tails away from 0 and 1
        cells[::2] = zip(
            gen.uniform(0.0, 40.0, 1500), gen.integers(1, 12, 1500), gen.uniform(0.0, 60.0, 1500)
        )
        mine = [numerics.noncentral_chisq_sf(x, int(df), d) for x, df, d in cells]
        x, df, d = map(np.array, zip(*cells))
        np.testing.assert_allclose(mine, scipy.stats.ncx2.sf(x, df, d), rtol=0, atol=1e-11)


class TestRoundTripProperties:
    @PROPERTY
    @given(p=st.floats(min_value=1e-300, max_value=1.0 - 1e-16))
    def test_normal_cdf_inverts_quantile(self, p):
        back = numerics.normal_cdf(numerics.normal_quantile(p))
        assert back == pytest.approx(p, rel=1e-12, abs=0)

    @PROPERTY
    @given(df=st.integers(1, 40), tail=st.floats(min_value=1e-200, max_value=0.99))
    def test_chisq_sf_inverts_quantile(self, df, tail):
        x = numerics.chisq_quantile(df, tail)
        assert numerics.chisq_sf(x, df) == pytest.approx(tail, rel=1e-12, abs=0)

    @PROPERTY
    @given(
        df=st.integers(1, 11),
        x=st.floats(0.0, 200.0),
        dx=st.floats(1e-3, 50.0),
        delta=st.floats(0.0, 200.0),
        d_delta=st.floats(1e-3, 50.0),
    )
    def test_noncentral_sf_monotone(self, df, x, dx, delta, d_delta):
        sf = numerics.noncentral_chisq_sf(x, df, delta)
        # decreasing in x, increasing in delta, up to the mixture's rounding
        # (within 5.4e-13 of scipy's in docs/MATH.md)
        assert numerics.noncentral_chisq_sf(x + dx, df, delta) <= sf + 1e-12
        assert numerics.noncentral_chisq_sf(x, df, delta + d_delta) >= sf - 1e-12


def _std_normal_pdf(y):
    return np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)


class TestIntegrate:
    def test_density_normalization(self):
        val = numerics.integrate(_std_normal_pdf, 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_power_of_density_closed_form(self):
        # closed form for int N(y;0,1)^{1+a} dy is ((2 pi)^{a/2} sqrt(1+a))^{-1};
        # cross-checked here against a plain trapezoid integral
        a = 0.5
        closed = 1.0 / ((2 * math.pi) ** (a / 2) * math.sqrt(1 + a))
        grid = np.linspace(-14, 14, 200001)
        trap = _trapezoid(
            (np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)) ** (1 + a), grid
        )
        assert closed == pytest.approx(trap, abs=1e-10)
        val = numerics.integrate(lambda y: _std_normal_pdf(y) ** (1 + a), 0.0, 1.0)
        assert val == pytest.approx(closed, abs=1e-10)

    def test_odd_function(self):
        val = numerics.integrate(lambda y: (y - 2.0) * _std_normal_pdf(y - 2.0), 2.0, 1.0)
        assert abs(val) < 1e-12

    def test_linearity(self):
        f = lambda y: _std_normal_pdf(y)
        g = lambda y: y * y * _std_normal_pdf(y)
        combo = numerics.integrate(lambda y: 2.0 * f(y) + 3.0 * g(y), 0.0, 1.0)
        parts = 2.0 * numerics.integrate(f, 0.0, 1.0) + 3.0 * numerics.integrate(g, 0.0, 1.0)
        assert combo == pytest.approx(parts, rel=1e-13)

    def test_array_integrand_is_entrywise(self):
        parts = [
            lambda y: _std_normal_pdf(y - 1.0),
            lambda y: y * _std_normal_pdf(y - 1.0),
            lambda y: y * y * _std_normal_pdf(y - 1.0),
            lambda y: _std_normal_pdf(y - 1.0) ** 1.7,
        ]
        stacked = numerics.integrate(
            lambda y: np.moveaxis(
                np.array([[f(y) for f in parts[:2]], [f(y) for f in parts[2:]]]), -1, 0
            ),
            1.0, 1.0,
        )
        singles = np.array([numerics.integrate(f, 1.0, 1.0) for f in parts])
        assert stacked.shape == (2, 2)
        np.testing.assert_allclose(stacked.ravel(), singles, rtol=1e-14)
        np.testing.assert_allclose(singles[:3], [1.0, 1.0, 2.0], rtol=1e-12)

    def test_nonfinite_integrand_reports_node(self):
        with pytest.raises(NonFiniteIntegrandError) as err:
            numerics.integrate(lambda y: np.where(y > 0.5, math.nan, 1.0), 0.0, 1.0)
        assert err.value.node is not None and err.value.node > 0.5

    def test_nonfinite_entry_reports_node(self):
        with pytest.raises(NonFiniteIntegrandError) as err:
            numerics.integrate(
                lambda y: np.stack([np.ones_like(y), np.where(y < -0.5, math.inf, y)], -1),
                0.0, 1.0,
            )
        assert err.value.node is not None and err.value.node < -0.5

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            numerics.integrate(_std_normal_pdf, 0.0, 0.0)

    @pytest.mark.parametrize(
        "center, scale",
        [
            (0.0, -1.0),
            (0.0, math.inf),
            (0.0, math.nan),
            (math.nan, 1.0),
            (-math.inf, 1.0),
            (np.zeros(3), np.array([1.0, math.inf, 1.0])),
            (np.zeros(3), np.array([1.0, 2.0, 0.0])),
            (np.array([0.0, 1.0, math.nan]), 1.0),
            (np.zeros(3), np.ones(2)),
            (np.zeros((2, 2)), 1.0),
        ],
    )
    def test_nonfinite_or_misshapen_center_or_scale(self, center, scale):
        with pytest.raises(DomainError):
            numerics.integrate(_std_normal_pdf, center, scale)

    def test_per_direction_center_and_scale(self):
        centers = np.array([-1.0, 0.5, 2.0])
        scales = np.array([0.5, 1.0, 3.0])
        shapes = []

        def moments(c, s):
            def fn(y):
                shapes.append(y.shape)
                z = (y - c) / s
                dens = np.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * s)
                return np.stack([dens, y * dens, y * y * dens], axis=-1)

            return fn

        got = numerics.integrate(moments(centers[:, None], scales[:, None]), centers, scales)
        assert shapes == [(3, 64)] and got.shape == (3, 3)
        singles = np.array(
            [numerics.integrate(moments(c, s), c, s) for c, s in zip(centers, scales)]
        )
        np.testing.assert_array_equal(got, singles)
        np.testing.assert_allclose(got[:, 2], scales**2 + centers**2, rtol=1e-12)
        # a scalar scale is shared by every direction, and a scalar integrand
        # gives one float per direction
        mass = numerics.integrate(lambda y: _std_normal_pdf(y - centers[:, None]), centers, 1.0)
        assert mass.shape == (3,)
        np.testing.assert_allclose(mass, 1.0, rtol=1e-12)

    def test_nonfinite_entry_of_one_direction_reports_node(self):
        centers = np.array([0.0, 10.0])
        with pytest.raises(NonFiniteIntegrandError) as err:
            numerics.integrate(
                lambda y: np.where(y > 10.5, math.nan, _std_normal_pdf(y - centers[:, None])),
                centers, 1.0,
            )
        assert err.value.node is not None and err.value.node > 10.5

    def test_rule_is_cached_and_read_only(self):
        rule = numerics._gauss_hermite()
        assert numerics._gauss_hermite() is rule
        assert [arr.size for arr in rule] == [64, 64]
        for arr in rule:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_integrand_called_once_on_all_nodes(self):
        shapes = []

        def fn(y):
            shapes.append(y.shape)
            return _std_normal_pdf(y)

        assert numerics.integrate(fn, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert shapes == [(64,)]

    def test_integrand_without_points_axis_rejected(self):
        with pytest.raises(DomainError):
            numerics.integrate(lambda y: 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            numerics.integrate(lambda y: np.ones(3), 0.0, 1.0)
        with pytest.raises(DomainError):
            numerics.integrate(lambda y: np.ones(64), np.zeros(2), 1.0)


class _SpdContract:
    """The error contract of ``solve_spd`` at order ``ORDER``: the
    subclasses run it at every order of the Python-float Cholesky (the
    unrolled order 3 and the row loop) and above the cut, where LAPACK
    solves.  An entry or block that the order does not hold is taken modulo
    the order."""

    ORDER: int

    def test_not_spd_reports_pivot(self):
        k = self.ORDER
        j = 1 % k
        a = np.eye(k)
        a[j, j] = -2.0
        with pytest.raises(DecompositionError) as err:
            numerics.solve_spd(a, np.ones(k))
        assert err.value.pivot == j
        assert f"pivot {j}" in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0), (2, 2), (0, 2), (-1, 1)])
    def test_non_finite_entry_raises(self, bad, where):
        k = self.ORDER
        where = tuple(i % k for i in where)
        a = np.eye(k) * 2.0
        a[where] = bad
        with pytest.raises(DecompositionError) as err:
            numerics.solve_spd(a, np.ones(k))
        # the first leading block holding the entry fails, whichever
        # triangle the entry is in
        assert err.value.pivot == max(where)

    def test_pivot_zero_and_last(self):
        k = self.ORDER
        a = np.diag(np.arange(1.0, k + 1))
        a[0, 0] = -1.0
        with pytest.raises(DecompositionError) as err:
            numerics.solve_spd(a, np.ones(k))
        assert err.value.pivot == 0
        # the leading block is the identity; the last Schur complement is
        # 2 - k, or 0 where the last diagonal entry is k - 1 (at order 1,
        # the one entry is the last)
        for last in (k - 1.0,) if k == 1 else (1.0, k - 1.0):
            a = np.eye(k)
            a[-1, :] = a[:, -1] = 1.0
            a[-1, -1] = last
            with pytest.raises(DecompositionError) as err:
                numerics.solve_spd(a, np.ones(k))
            assert err.value.pivot == k - 1

    def test_numerically_singular_raises(self):
        # a negated Newton Hessian met in a multistart run, in the leading
        # block: a Cholesky passes it by rounding; the working-precision
        # pivot rule rejects it, or above the cut the LU solve's exact zero
        # pivot.  Either way the pivot is the working-precision rule's
        k = self.ORDER
        m = min(k, 3)
        a = np.eye(k)
        a[:m, :m] = np.array([
            [1.0098650625722085e22, -1.1229909170978357e22, 1.4575280775018532e06],
            [-1.1229909170978357e22, 1.2487892161276397e22, -1.6208014843890255e06],
            [1.4575280775018532e06, -1.6208014843890255e06, 8.1428110171251155e03],
        ])[:m, :m]
        b = np.ones(k)
        b[:m] = [5.6e5, -6.2e5, -3.1e3][:m]
        with pytest.raises(DecompositionError) as err:
            numerics.solve_spd(a, b)
        assert err.value.pivot == 1

    def test_shapes_refused(self):
        k = self.ORDER
        with pytest.raises(DomainError, match="square"):
            numerics.solve_spd(np.eye(k, k + 1), np.ones(k))
        with pytest.raises(DomainError, match="dimension mismatch"):
            numerics.solve_spd(np.eye(k), np.ones(k + 1))

    def test_matrix_right_hand_side_matches_inverse(self, rng):
        for order in (1, 2, self.ORDER):
            m = rng.normal(size=(order, order))
            a = m @ m.T + 0.5 * np.eye(order)
            inv = numerics.spd_inverse(a)
            ref = np.linalg.inv(a)
            assert np.max(np.abs(inv - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestLinearAlgebra(_SpdContract):
    ORDER = 3

    def test_identity(self):
        x = numerics.solve_spd(np.eye(2), np.array([3.0, 4.0]))
        assert x == pytest.approx([3.0, 4.0], abs=1e-15)

    def test_hand_elimination(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        x = numerics.solve_spd(a, np.array([1.0, 2.0]))
        assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-14)
        resid = a @ x - np.array([1.0, 2.0])
        assert np.max(np.abs(resid)) <= 1e-10 * (1 + 2.0)

    def test_residual_battery(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 8))
            m = rng.normal(size=(k, k))
            a = m @ m.T + 0.5 * np.eye(k)
            b = rng.normal(size=k)
            x = numerics.solve_spd(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))

    def test_agrees_with_lapack(self, rng):
        for k in range(1, 9):
            m = rng.normal(size=(k, k))
            a = m @ m.T + k * np.eye(k)
            for b in (rng.normal(size=k), rng.normal(size=(k, 2))):
                x = numerics.solve_spd(a, b)
                assert x.shape == b.shape and x.dtype == np.float64
                assert x.flags.c_contiguous
                np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-14)

    def test_small_orders_make_no_lapack_call(self, monkeypatch):
        def lapack(*args):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(numerics.np.linalg, "cholesky", lapack)
        monkeypatch.setattr(numerics.np.linalg, "solve", lapack)
        small = numerics._SMALL_ORDER
        for k in range(1, small + 1):
            assert numerics.solve_spd(2.0 * np.eye(k), np.ones(k)) == pytest.approx(0.5)
        with pytest.raises(AssertionError, match="LAPACK"):
            numerics.solve_spd(2.0 * np.eye(small + 1), np.ones(small + 1))

    def test_min_eigenvalue_diagonal(self):
        assert numerics.min_eigenvalue(np.diag([2.0, 5.0])) == pytest.approx(2.0, abs=1e-12)

    def test_min_eigenvalue_battery(self, rng):
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            a = 0.5 * (m + m.T)
            mine = numerics.min_eigenvalue(a)
            ref = float(np.min(np.linalg.eigvalsh(a)))
            assert mine == pytest.approx(ref, abs=1e-8)


class TestSpdContractOrder1(_SpdContract):
    ORDER = 1

    def test_numerically_singular_raises(self):
        # at order 1 the working-precision rule a > eps * a is a > 0
        for a in (0.0, -0.0, -5e-324, math.nan):
            with pytest.raises(DecompositionError) as err:
                numerics.solve_spd(np.array([[a]]), np.ones(1))
            assert err.value.pivot == 0
        assert numerics.solve_spd(np.array([[5e-324]]), np.array([0.0])) == [0.0]


class TestSpdContractOrder2(_SpdContract):
    ORDER = 2


class TestSpdContractOrder4(_SpdContract):
    ORDER = 4


class TestSpdContractAboveCut(_SpdContract):
    ORDER = numerics._SMALL_ORDER + 2

    def test_lapack_failure_passed_by_pivot_rule_reports_last_index(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(numerics.np.linalg, "solve", singular)
        with pytest.raises(DecompositionError) as err:
            numerics.solve_spd(2.0 * np.eye(self.ORDER), np.ones(self.ORDER))
        assert err.value.pivot == self.ORDER - 1


class TestRngStream:
    def test_reproducible(self):
        a = numerics.RngStream(42, 7).normal(16)
        b = numerics.RngStream(42, 7).normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = numerics.RngStream(42, 0).normal(16)
        b = numerics.RngStream(42, 1).normal(16)
        assert not np.allclose(a, b)

    def test_streams_roughly_independent(self):
        n = 200_000
        a = numerics.RngStream(7, 1).normal(n)
        b = numerics.RngStream(7, 2).normal(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(DomainError):
            numerics.RngStream(-1, 0)


class TestGaussHermiteExactness:
    def test_polynomial_times_gaussian_kernel(self):
        # degree-9 polynomial against a normal kernel: the transformed rule
        # must integrate it to machine precision (closed form via moments)
        c, s = 1.3, 0.7
        coeffs = [0.5, -1.0, 2.0, 0.25, -0.125, 0.3, 0.0, 0.01, 0.0, 0.002]
        # E[(y - c)^k] for y ~ N(c, s^2): 0 for odd k, s^k (k-1)!! for even k
        moments = {0: 1.0, 2: s**2, 4: 3 * s**4, 6: 15 * s**6, 8: 105 * s**8}
        expected = sum(
            a * moments.get(k, 0.0) for k, a in enumerate(coeffs)
        )

        def fn(y):
            z = y - c
            dens = np.exp(-0.5 * (z / s) ** 2) / (math.sqrt(2 * math.pi) * s)
            return sum(a * z**k for k, a in enumerate(coeffs)) * dens

        got = numerics.integrate(fn, c, s)
        assert got == pytest.approx(expected, rel=1e-13)
