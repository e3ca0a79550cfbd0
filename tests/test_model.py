"""Density family contract, objective, weights, and score."""

import math

import numpy as np
import pytest

from renyireg import numerics
from renyireg.exceptions import DomainError
from renyireg.model import (
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


class TestTypes:
    def test_theta_validation(self):
        with pytest.raises(DomainError):
            Theta(beta=np.array([1.0]), sigma=0.0)
        with pytest.raises(DomainError):
            Theta(beta=np.array([np.inf]), sigma=1.0)

    def test_theta_round_trip(self):
        t = Theta(beta=np.array([1.0, -2.0]), sigma=0.5)
        back = Theta.from_array(t.to_array())
        assert np.array_equal(back.beta, t.beta) and back.sigma == t.sigma

    def test_model_data_validation(self):
        with pytest.raises(DomainError):
            ModelData(design=np.ones((2, 2)), response=np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            ModelData(design=np.ones((3, 1)), response=np.array([1.0, np.nan, 2.0]))


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
