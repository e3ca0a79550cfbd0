"""Density family contract, objective, weights, and score."""

import math

import numpy as np
import pytest

from renyireg import numerics
from renyireg.exceptions import DomainError
from renyireg.model import (
    DensityFamily,
    Design,
    ModelData,
    NormalLinearFamily,
    QuadratureFamily,
    Theta,
    objective,
    rp_loss_single,
    score,
    v_weight,
)


def toy_data(rng, n=6, p=2, sigma=1.0):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    beta = rng.normal(size=p)
    y = x @ beta + sigma * rng.normal(size=n)
    return ModelData(design=x, response=y), Theta(beta=beta, sigma=sigma)


def record_integrate_sizes(monkeypatch):
    """The number of directions of each later ``numerics.integrate`` call."""
    sizes = []
    integrate = numerics.integrate

    def recording(fn, center, scale):
        sizes.append(np.size(center))
        return integrate(fn, center, scale)

    monkeypatch.setattr(numerics, "integrate", recording)
    return sizes


class TestTypes:
    def test_theta_validation(self):
        with pytest.raises(DomainError):
            Theta(beta=np.array([1.0]), sigma=0.0)
        with pytest.raises(DomainError):
            Theta(beta=np.array([np.inf]), sigma=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_theta_refuses_non_finite_beta_entry(self, bad, where):
        beta = [0.5, -1.0, 2.0]
        beta[where] = bad
        for given in (beta, np.array(beta), np.array([beta])):
            with pytest.raises(DomainError, match="^beta must be finite$"):
                Theta(beta=given, sigma=1.0)

    @pytest.mark.parametrize(
        "sigma",
        [0.0, -0.0, -1.5, 0, -2, np.float64(0.0), np.float64(-1.0), np.int64(0), False,
         math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf)],
    )
    def test_theta_refuses_sigma(self, sigma):
        with pytest.raises(DomainError) as err:
            Theta(beta=[0.0, 1.0], sigma=sigma)
        assert str(err.value) == f"sigma must be positive, got {sigma}"

    @pytest.mark.parametrize(
        "sigma", [1e-300, 5e-324, 2.0, 3, np.float64(0.5), np.float32(2.5), np.int64(4), True]
    )
    def test_theta_keeps_positive_sigma(self, sigma):
        theta = Theta(beta=np.array([0.0, 1.0]), sigma=sigma)
        assert theta.sigma is sigma

    def test_theta_round_trip(self):
        t = Theta(beta=np.array([1.0, -2.0]), sigma=0.5)
        back = Theta.from_array(t.to_array())
        assert np.array_equal(back.beta, t.beta) and back.sigma == t.sigma

    def test_model_data_validation(self):
        with pytest.raises(DomainError):
            ModelData(design=np.ones((2, 2)), response=np.array([1.0, 2.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="^response must be finite$"):
                ModelData(design=np.ones((3, 1)), response=np.array([1.0, bad, 2.0]))

    def test_design_validation(self):
        for bad in (np.ones((2, 2)), np.array([[1.0, 0.0], [1.0, np.inf], [1.0, 2.0]])):
            with pytest.raises(DomainError):
                Design(bad)
        shared = Design(np.ones((3, 1)))
        with pytest.raises(DomainError):
            ModelData(shared, np.array([1.0, np.nan, 2.0]))
        with pytest.raises(DomainError):
            ModelData(shared, np.ones(4))

    def test_responses_share_one_design(self, rng):
        x = np.column_stack([np.ones(6), rng.normal(size=6)])
        shared = Design(x)
        first, second = (ModelData(shared, rng.normal(size=6)) for _ in range(2))
        # the array itself, not a copy, and no Design object where callers read the array
        assert first.design is x and second.design is x
        assert first.fixed_design is shared and second.fixed_design is shared
        assert first.xtx_over_n is second.xtx_over_n
        assert first.xtx_over_n_inverse is second.xtx_over_n_inverse
        assert not first.xtx_over_n.flags.writeable
        assert not first.xtx_over_n_inverse.flags.writeable
        # an array gets a Design of its own, with equal products
        own = ModelData(x, first.response)
        assert own.fixed_design is not shared
        assert np.array_equal(own.xtx_over_n, first.xtx_over_n)
        assert np.array_equal(own.xtx_over_n_inverse, first.xtx_over_n_inverse)


class TestNormalFamilyIntegrals:
    """Closed forms against the quadrature route."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_power_integral(self, alpha, sigma):
        x = np.array([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]])
        fam = NormalLinearFamily(x)
        quad = QuadratureFamily(fam)
        theta = Theta(beta=np.array([0.3, -0.7]), sigma=sigma)
        c = alpha + 1.0
        for i in range(3):
            assert fam.power_integral(i, theta, c) == pytest.approx(
                quad.power_integral(i, theta, c), abs=1e-8, rel=1e-8
            )
        assert fam.power_integral(0, theta, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_score_integrals_match_quadrature(self, rng):
        x = np.column_stack([np.ones(4), rng.normal(size=4)])
        fam = NormalLinearFamily(x)
        quad = QuadratureFamily(fam)
        theta = Theta(beta=rng.normal(size=2), sigma=1.3)
        c = 1.4
        for i in range(2):
            np.testing.assert_allclose(
                fam.power_score_integral(i, theta, c),
                quad.power_score_integral(i, theta, c),
                atol=1e-8,
            )
            np.testing.assert_allclose(
                fam.power_score_outer_integral(i, theta, c),
                quad.power_score_outer_integral(i, theta, c),
                atol=1e-8,
            )
            np.testing.assert_allclose(
                fam.power_score_jacobian_integral(i, theta, c),
                quad.power_score_jacobian_integral(i, theta, c),
                atol=1e-8,
            )

    def test_score_jacobian_is_score_derivative(self, rng):
        x = np.column_stack([np.ones(3), rng.normal(size=3)])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=rng.normal(size=2), sigma=0.8)
        y = 1.7
        h = 1e-6
        arr = theta.to_array()
        jac_fd = np.empty((3, 3))
        for j in range(3):
            hi, lo = arr.copy(), arr.copy()
            hi[j] += h
            lo[j] -= h
            jac_fd[:, j] = (
                fam.score_vector(1, y, Theta.from_array(hi))
                - fam.score_vector(1, y, Theta.from_array(lo))
            ) / (2 * h)
        np.testing.assert_allclose(fam.score_jacobian(1, y, theta), jac_fd, atol=1e-5)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("quadrature", [False, True])
    @pytest.mark.parametrize(
        "integral",
        [
            "power_integral",
            "power_score_integral",
            "power_score_outer_integral",
            "power_score_jacobian_integral",
        ],
    )
    def test_exponent_must_be_finite_and_positive(self, integral, quadrature, c):
        # int f^c diverges at c <= 0; the quadrature route once returned
        # 3.09e7 for int f^0
        fam = NormalLinearFamily(np.array([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]]))
        if quadrature:
            fam = QuadratureFamily(fam)
        theta = Theta(beta=np.array([0.3, -0.7]), sigma=1.2)
        for i in (0, np.array([0, 2])):
            with pytest.raises(DomainError, match="power exponent"):
                getattr(fam, integral)(i, theta, c)


class TestLogPowerIntegral:
    @pytest.mark.parametrize("c", [0.5, 1.8, 40.0])
    @pytest.mark.parametrize("sigma", [0.3, 7.0])
    def test_closed_form_is_log_of_integral(self, c, sigma):
        fam = NormalLinearFamily(np.array([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]]))
        theta = Theta(beta=np.array([0.3, -0.7]), sigma=sigma)
        expected = math.log(fam.power_integral(0, theta, c))
        assert fam.log_power_integral(0, theta, c) == pytest.approx(expected, rel=1e-14, abs=1e-15)
        many = fam.log_power_integral(np.array([0, 2]), theta, c)
        assert many.shape == (2,) and np.all(many == fam.log_power_integral(1, theta, c))
        # the contract's default takes the logarithm of the family's integral
        quad = QuadratureFamily(fam)
        assert quad.log_power_integral(0, theta, c) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_finite_where_the_integral_is_not(self):
        fam = NormalLinearFamily(np.ones((2, 1)))
        theta = Theta(beta=np.array([0.0]), sigma=0.8)
        c = 1e4 + 1.0
        # (2 pi)^{(1-c)/2} underflows and 0.8^{1-c} overflows
        expected = (1.0 - c) * (0.5 * math.log(2 * math.pi) + math.log(0.8)) - 0.5 * math.log(c)
        assert fam.log_power_integral(0, theta, c) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(DomainError):
            fam.log_power_integral(0, theta, 0.0)


class TestArrayContract:
    """Pointwise functions accept a 1-D array of responses and add a leading
    points axis, and an index array of directions adds a leading directions
    axis; the quadrature route evaluates them once per integral."""

    def test_array_calls_equal_stacked_scalar_calls(self, rng):
        x = np.column_stack([np.ones(4), rng.normal(size=(4, 2))])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=rng.normal(size=3), sigma=0.7)
        ys = rng.normal(scale=3.0, size=9)
        for i in range(4):
            for name in ("log_density", "score_vector", "score_jacobian"):
                fn = getattr(fam, name)
                stacked = np.array([fn(i, float(y), theta) for y in ys])
                got = fn(i, ys, theta)
                assert got.shape == stacked.shape
                np.testing.assert_array_equal(got, stacked)

    def test_index_array_equals_stacked_scalar_calls(self, rng):
        x = np.column_stack([np.ones(5), rng.normal(size=(5, 2))])
        fam = NormalLinearFamily(x)
        quad = QuadratureFamily(fam)
        theta = Theta(beta=rng.normal(size=3), sigma=0.7)
        idx = np.array([4, 0, 2, 2])
        ys = rng.normal(scale=3.0, size=(idx.size, 6))
        for name in ("log_density", "score_vector", "score_jacobian"):
            fn = getattr(fam, name)
            # m points per direction, one point per direction, shared points
            for y, single in (
                (ys, lambda d: ys[d]),
                (ys[:, 0], lambda d: float(ys[d, 0])),
                (ys[:1], lambda d: ys[0]),
            ):
                got = fn(idx, y, theta)
                stacked = np.array([fn(int(i), single(d), theta) for d, i in enumerate(idx)])
                assert got.shape == stacked.shape, (name, np.shape(y))
                np.testing.assert_array_equal(got, stacked)
        for name in ("center", "scale"):
            got = getattr(fam, name)(idx, theta)
            np.testing.assert_array_equal(
                got, [getattr(fam, name)(int(i), theta) for i in idx]
            )
        for family in (fam, quad):
            for name in (
                "power_integral",
                "power_score_integral",
                "power_score_outer_integral",
                "power_score_jacobian_integral",
            ):
                fn = getattr(family, name)
                got = fn(idx, theta, 1.6)
                stacked = np.array([fn(int(i), theta, 1.6) for i in idx])
                assert got.shape == stacked.shape, (type(family).__name__, name)
                np.testing.assert_array_equal(got, stacked)

    def test_quadrature_pointwise_functions_are_the_base_family(self, rng):
        x = np.column_stack([np.ones(5), rng.normal(size=(5, 2))])
        fam = NormalLinearFamily(x)
        quad = QuadratureFamily(fam)
        theta = Theta(beta=rng.normal(size=3), sigma=0.7)
        ys = rng.normal(scale=3.0, size=(3, 6))
        for i, y in ((1, ys[0]), (np.array([4, 0, 2]), ys)):
            for name in ("log_density", "score_vector", "score_jacobian"):
                got = getattr(quad, name)(i, y, theta)
                np.testing.assert_array_equal(got, getattr(fam, name)(i, y, theta))
            for name in ("center", "scale"):
                np.testing.assert_array_equal(
                    getattr(quad, name)(i, theta), getattr(fam, name)(i, theta)
                )

    def test_missing_contract_method_is_named(self):
        class Unfinished(DensityFamily):
            n_directions = 1
            param_dim = 2

            def center(self, i, theta):
                return 0.0

            def scale(self, i, theta):
                return 1.0

        theta = Theta(beta=np.zeros(1), sigma=1.0)
        with pytest.raises(AttributeError, match="log_density"):
            QuadratureFamily(Unfinished()).power_integral(0, theta, 1.5)
        with pytest.raises(AttributeError, match="power_integral"):
            Unfinished().log_power_integral(0, theta, 1.5)

    def test_quadrature_integrals_evaluate_base_once(self, rng):
        calls = []

        class Counting(NormalLinearFamily):
            def log_density(self, i, y, theta):
                calls.append(("log_density", np.shape(y)))
                return super().log_density(i, y, theta)

            def score_vector(self, i, y, theta):
                calls.append(("score_vector", np.shape(y)))
                return super().score_vector(i, y, theta)

            def score_jacobian(self, i, y, theta):
                calls.append(("score_jacobian", np.shape(y)))
                return super().score_jacobian(i, y, theta)

        x = np.column_stack([np.ones(3), rng.normal(size=3)])
        quad = QuadratureFamily(Counting(x))
        theta = Theta(beta=rng.normal(size=2), sigma=1.2)
        expected = {
            "power_integral": ["log_density"],
            "power_score_integral": ["log_density", "score_vector"],
            "power_score_outer_integral": ["log_density", "score_vector"],
            "power_score_jacobian_integral": ["log_density", "score_jacobian"],
        }
        # one direction, then a block of directions on one (k, 64) node array
        for i, nodes in ((1, (64,)), (np.array([0, 2, 1]), (3, 64))):
            for method, names in expected.items():
                calls.clear()
                getattr(quad, method)(i, theta, 1.6)
                assert sorted(calls) == [(name, nodes) for name in names], (method, nodes)

    def test_quadrature_blocks_change_no_bit(self, rng, monkeypatch):
        # 3000 directions are integrated in blocks of at most 1024 directions
        x = np.column_stack([np.ones(3000), rng.normal(size=3000)])
        quad = QuadratureFamily(NormalLinearFamily(x))
        theta = Theta(beta=rng.normal(size=2), sigma=0.9)
        idx = np.arange(3000)
        sizes = record_integrate_sizes(monkeypatch)
        whole = quad.power_integral(idx, theta, 1.6)
        assert sizes == [1024, 1024, 952]
        blocks = [quad.power_integral(idx[s : s + 1000], theta, 1.6) for s in range(0, 3000, 1000)]
        np.testing.assert_array_equal(whole, np.concatenate(blocks))


class TestLossAndWeight:
    def test_loss_zero_residual_alpha0(self):
        x = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 1.0]])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.5, 1.5]), sigma=2.0)
        y = float(x[0] @ theta.beta)
        expected = 0.5 * math.log(2 * math.pi * theta.sigma**2)
        assert rp_loss_single(fam, 0, y, theta, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_loss_alpha_half_vs_quadrature(self):
        # oracle: evaluate the integral term by quadrature instead of the
        # family's closed form
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.0, 0.0]), sigma=1.0)
        alpha = 0.5
        mass = numerics.integrate(
            lambda yy: np.exp((alpha + 1) * fam.log_density(0, yy, theta)), 0.0, 1.0
        )
        expected = math.log(mass) / (alpha + 1) - fam.log_density(0, 0.0, theta)
        assert rp_loss_single(fam, 0, 0.0, theta, alpha) == pytest.approx(expected, rel=1e-10)
        # frozen value of the same quantity
        assert rp_loss_single(fam, 0, 0.0, theta, alpha) == pytest.approx(0.4774707, abs=1e-6)

    def test_loss_monotone_in_density(self):
        x = np.array([[1.0], [1.0], [1.0]])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.0]), sigma=1.0)
        losses = [rp_loss_single(fam, 0, y, theta, 0.7) for y in (0.0, 0.5, 1.5, 3.0)]
        assert np.all(np.diff(losses) > 0)

    def test_v_weight_zero_residual(self):
        x = np.array([[1.0], [1.0]])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.0]), sigma=1.0)
        # ((1+a)/2pi)^{a/(2(a+1))} at a=1 is (1/pi)^{1/4}
        assert v_weight(fam, 0, 0.0, theta, 1.0) == pytest.approx(
            (1.0 / math.pi) ** 0.25, rel=1e-12
        )

    def test_v_weight_vs_quadrature_normalizer(self):
        x = np.array([[1.0, 0.5], [1.0, -0.5]])
        fam = NormalLinearFamily(x)
        quad = QuadratureFamily(fam)
        theta = Theta(beta=np.array([0.2, 0.9]), sigma=1.7)
        alpha = 0.8
        y = 1.1
        log_f = fam.log_density(0, y, theta)
        mass = quad.power_integral(0, theta, alpha + 1.0)
        expected = math.exp(alpha * log_f) / mass ** (alpha / (alpha + 1.0))
        assert v_weight(fam, 0, y, theta, alpha) == pytest.approx(expected, rel=1e-9)

    def test_v_weight_gaussian_tail(self):
        x = np.array([[1.0], [1.0]])
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.0]), sigma=1.0)
        vals = [v_weight(fam, 0, y, theta, 0.5) for y in (0.0, 5.0, 20.0, 100.0)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-300 or vals[-1] == 0.0

    def test_v_weight_scale_equivariance(self):
        # scaling residual and sigma by c multiplies the weight by c^{-a/(a+1)}
        x = np.array([[1.0], [1.0]])
        fam = NormalLinearFamily(x)
        alpha, c = 0.6, 2.0
        v1 = v_weight(fam, 0, 1.3, Theta(beta=np.array([0.0]), sigma=1.0), alpha)
        v2 = v_weight(fam, 0, c * 1.3, Theta(beta=np.array([0.0]), sigma=c), alpha)
        assert v2 == pytest.approx(v1 * c ** (-alpha / (alpha + 1)), rel=1e-12)

    @pytest.mark.parametrize("quadrature", [False, True])
    def test_index_array_equals_int_directions(self, rng, quadrature):
        data, theta = toy_data(rng, n=9)
        fam = NormalLinearFamily(data.design)
        if quadrature:
            fam = QuadratureFamily(fam)
        idx = np.array([3, 0, 8, 3])
        y = data.response[idx]
        for fn, alpha in ((rp_loss_single, 0.0), (rp_loss_single, 0.6), (v_weight, 0.6)):
            single = [fn(fam, int(i), float(y[d]), theta, alpha) for d, i in enumerate(idx)]
            assert all(type(value) is float for value in single)
            got = fn(fam, idx, y, theta, alpha)
            assert got.shape == idx.shape
            np.testing.assert_array_equal(got, single)

    def test_alpha_zero_rejected(self):
        fam = NormalLinearFamily(np.ones((2, 1)))
        with pytest.raises(DomainError):
            v_weight(fam, 0, 0.0, Theta(beta=np.array([0.0]), sigma=1.0), 0.0)


class TestObjective:
    def test_constant_average(self):
        x = np.ones((5, 1))
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([2.0]), sigma=1.5)
        data = ModelData(design=x, response=np.full(5, 2.0))
        alpha = 0.7
        assert objective(fam, data, theta, alpha) == pytest.approx(
            v_weight(fam, 0, 2.0, theta, alpha), rel=1e-14
        )

    def test_loglik_branch(self, rng):
        data, theta = toy_data(rng)
        fam = NormalLinearFamily(data.design)
        r = (data.response - data.design @ theta.beta) / theta.sigma
        expected = float(
            np.mean(-0.5 * np.log(2 * np.pi * theta.sigma**2) - 0.5 * r * r)
        )
        assert objective(fam, data, theta, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_brute_force_five_points(self):
        # independent scalar recomputation of the alpha = 0.5 objective
        x = np.column_stack([np.ones(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0])])
        y = np.array([0.1, 1.2, 1.8, 3.3, 3.9])
        data = ModelData(design=x, response=y)
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.2, 0.9]), sigma=0.8)
        alpha = 0.5
        total = 0.0
        for i in range(5):
            resid = (y[i] - (0.2 + 0.9 * x[i, 1])) / 0.8
            const = ((1 + alpha) / (2 * math.pi)) ** (alpha / (2 * (1 + alpha)))
            total += const * 0.8 ** (-alpha / (1 + alpha)) * math.exp(-0.5 * alpha * resid**2)
        assert objective(fam, data, theta, alpha) == pytest.approx(total / 5, rel=1e-12)

    def test_permutation_invariance(self, rng):
        data, theta = toy_data(rng, n=8)
        fam = NormalLinearFamily(data.design)
        perm = rng.permutation(8)
        data2 = ModelData(design=data.design[perm], response=data.response[perm])
        fam2 = NormalLinearFamily(data2.design)
        for alpha in (0.0, 0.4):
            assert objective(fam, data, theta, alpha) == pytest.approx(
                objective(fam2, data2, theta, alpha), rel=1e-12
            )

    def test_quadrature_route_makes_one_call_per_integral(self, rng, monkeypatch):
        data, theta = toy_data(rng, n=200)
        fam = NormalLinearFamily(data.design)
        quad = QuadratureFamily(fam)
        calls = record_integrate_sizes(monkeypatch)
        value = objective(quad, data, theta, 0.5)
        gradient = score(quad, data, theta, 0.5)
        # one for the objective's weights; the score's two integrals and its weights
        assert calls == [200] * 4
        assert value == pytest.approx(objective(fam, data, theta, 0.5), rel=1e-10)
        assert gradient == pytest.approx(score(fam, data, theta, 0.5), rel=1e-10)


class TestScore:
    def test_zero_at_ols_alpha0(self, rng):
        data, _ = toy_data(rng, n=12)
        x, y = data.design, data.response
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        sigma = float(np.sqrt(np.mean((y - x @ beta) ** 2)))
        fam = NormalLinearFamily(x)
        g = score(fam, data, Theta(beta=beta, sigma=sigma), 0.0)
        assert np.max(np.abs(g)) < 1e-10

    def test_symmetric_residuals_cancel(self):
        x = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0, 0.0])  # residuals +r, -r, 0 around beta = 0
        data = ModelData(design=x, response=y)
        fam = NormalLinearFamily(x)
        theta = Theta(beta=np.array([0.0, 0.0]), sigma=1.0)
        g = score(fam, data, theta, 0.3)
        assert abs(g[0]) < 1e-14  # intercept component cancels by oddness

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_finite_difference_battery(self, alpha, rng):
        fd_step = 1e-6
        for _ in range(5):
            data, theta0 = toy_data(rng, n=7)
            fam = NormalLinearFamily(data.design)
            theta = Theta(beta=theta0.beta + 0.3 * rng.normal(size=2), sigma=theta0.sigma * 1.2)
            g = score(fam, data, theta, alpha)
            arr = theta.to_array()
            for j in range(arr.size):
                hi, lo = arr.copy(), arr.copy()
                hi[j] += fd_step
                lo[j] -= fd_step
                fd = (
                    objective(fam, data, Theta.from_array(hi), alpha)
                    - objective(fam, data, Theta.from_array(lo), alpha)
                ) / (2 * fd_step)
                scale = max(1e-8, abs(fd), abs(g[j]))
                assert abs(g[j] - fd) / scale < 1e-5

    def test_alpha_to_zero_continuity(self, rng):
        data, theta = toy_data(rng, n=9)
        fam = NormalLinearFamily(data.design)
        eps = 1e-8
        lim = (objective(fam, data, theta, eps) - 1.0) / eps
        base = objective(fam, data, theta, 0.0)
        assert lim == pytest.approx(base, abs=1e-5)
        g_lim = score(fam, data, theta, eps) / eps
        g0 = score(fam, data, theta, 0.0)
        np.testing.assert_allclose(g_lim, g0, atol=1e-5)

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            Theta(beta=np.array([0.0]), sigma=-1.0)


class TestEstimatingEquations:
    def test_score_proportional_to_weighted_sums(self, rng):
        # the gradient components are positive multiples of the two
        # weighted estimating sums in (r, x) form
        data, theta = toy_data(rng, n=10)
        fam = NormalLinearFamily(data.design)
        alpha = 0.45
        g = score(fam, data, theta, alpha)
        x, y = data.design, data.response
        r = (y - x @ theta.beta) / theta.sigma
        w = np.exp(-0.5 * alpha * r * r)
        sum_beta = x.T @ (w * r)
        sum_sigma = float(np.sum(w * (r * r - 1.0 / (1.0 + alpha))))
        ratios = g[:2] / sum_beta
        assert np.all(ratios > 0)
        assert np.max(ratios) / np.min(ratios) == pytest.approx(1.0, rel=1e-10)
        assert g[2] / sum_sigma > 0
