"""Fitting, covariance matrices, and design diagnostics."""

import copy
import dataclasses
import itertools
import math
import pickle
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from renyireg import estimation, numerics
from renyireg.data import exclude_rows, load_dataset
from renyireg.estimation import (
    MAX_ITER,
    FitResult,
    SolverOptions,
    _objective_grad_hess,
    covariance_mlrm,
    design_diagnostics,
    fit_mle,
    fit_rp,
    fit_rp_path,
)
from renyireg.exceptions import DecompositionError, DegenerateFitError, DomainError
from renyireg.model import Design, ModelData, NormalLinearFamily, Theta, objective
from renyireg.numerics import RngStream
from renyireg.simulation import DesignSpec, StudyConfig, generate_data, make_design, run_study


def stage_unit(data):
    """The unit of the response that Newton stages run on.  A stage's value
    times ``unit ** (-a / (1 + a))`` is the fit's, in the response's units."""
    return estimation._centred_problem(data, fit_mle(data))[2]


def random_instance(rng, n=30, p=2, sigma=1.0):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    beta = rng.normal(size=p)
    y = x @ beta + sigma * rng.normal(size=n)
    return ModelData(design=x, response=y)


class TestFitMle:
    def test_matches_normal_equations(self, rng):
        data = random_instance(rng)
        fit = fit_mle(data)
        x, y = data.design, data.response
        beta_ref = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(fit.theta_hat.beta, beta_ref, atol=1e-10)
        resid = y - x @ beta_ref
        assert fit.theta_hat.sigma == pytest.approx(
            math.sqrt(float(np.mean(resid**2))), rel=1e-12
        )
        assert fit.gradient_norm <= 1e-8
        assert fit.converged

    def test_perfect_fit_is_degenerate(self):
        x = np.column_stack([np.ones(4), np.arange(4.0)])
        y = 2.0 + 3.0 * np.arange(4.0)
        with pytest.raises(DegenerateFitError):
            fit_mle(ModelData(design=x, response=y))

    def test_rank_deficient_design_refused(self):
        x = np.column_stack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])
        y = np.arange(6.0) + np.array([0.1, -0.2, 0.3, 0.0, -0.1, 0.2])
        with pytest.raises(DecompositionError):
            fit_mle(ModelData(design=x, response=y))

    def test_duplicate_and_zero_columns_refused(self):
        gen = np.random.default_rng(5)
        x1 = gen.normal(size=20)
        y = 1.0 + x1 + gen.normal(size=20)
        for x in (
            np.column_stack([np.ones(20), x1, x1]),
            np.column_stack([np.ones(20), x1, np.zeros(20)]),
        ):
            data = ModelData(design=x, response=y)
            with pytest.raises(DecompositionError):
                fit_mle(data)
            with pytest.raises(DecompositionError):
                fit_rp(data, 0.5)
            assert design_diagnostics(data).max_scaled_leverage == math.inf

    def test_rank_check_ignores_covariate_units(self):
        # X -> X diag(1, u) leaves the fit unchanged up to units: the slope
        # becomes beta_1 / u
        gen = np.random.default_rng(8)
        n = 80
        x = np.column_stack([np.ones(n), gen.uniform(size=n)])
        y = x @ np.array([1.0, 2.0]) + 0.3 * gen.normal(size=n)
        y[:8] += 2.0
        alphas = (0.0, 0.3, 1.0)
        ref = fit_rp_path(ModelData(design=x, response=y), alphas)
        for units in (np.array([1.0, 1e-6]), np.array([1.0, 1e6])):
            scaled = fit_rp_path(ModelData(design=x * units, response=y), alphas)
            for a in alphas:
                assert scaled[a].converged
                np.testing.assert_allclose(
                    scaled[a].theta_hat.beta * units, ref[a].theta_hat.beta, rtol=1e-10
                )
                assert scaled[a].theta_hat.sigma == pytest.approx(
                    ref[a].theta_hat.sigma, rel=1e-10
                )

    def test_brain_weight_table_row(self):
        # exact closed form on the bundled data; the published row drifts a
        # few 1e-3 from the exact optimum (see notes in the acceptance suite)
        data = load_dataset("brain_weight").data
        fit = fit_mle(data)
        assert fit.theta_hat.sigma == pytest.approx(1.4714, abs=5e-3)
        assert fit.theta_hat.beta[0] == pytest.approx(2.5523, abs=5e-3)
        assert fit.theta_hat.beta[1] == pytest.approx(0.4958, abs=5e-3)

    def test_first_word_table_row(self):
        data = load_dataset("first_word").data
        fit = fit_mle(data)
        assert fit.theta_hat.sigma == pytest.approx(10.4845, abs=1e-3)
        assert fit.theta_hat.beta[0] == pytest.approx(109.8730, abs=1e-3)
        assert fit.theta_hat.beta[1] == pytest.approx(-1.1269, abs=1e-3)


class TestSharedDesign:
    def test_path_on_a_shared_design_is_bit_identical(self, rng):
        data = random_instance(rng, n=60)
        shared = Design(data.design)
        for response in (data.response, data.response + 3.0 * (rng.random(60) < 0.2)):
            own = fit_rp_path(ModelData(data.design, response), [0.0, 0.3, 1.0])
            on_shared = fit_rp_path(ModelData(shared, response), [0.0, 0.3, 1.0])
            for a, fit in own.items():
                other = on_shared[a]
                assert np.array_equal(fit.theta_hat.to_array(), other.theta_hat.to_array())
                assert np.array_equal(fit.sigma_n, other.sigma_n)
                assert (fit.converged, fit.iterations, fit.gradient_norm, fit.objective_value) == (
                    other.converged, other.iterations, other.gradient_norm, other.objective_value
                )

    def test_rank_check_runs_once_per_design(self, rng, monkeypatch):
        calls = []
        real = estimation.numerics.scaled_min_eigenvalue
        monkeypatch.setattr(
            estimation.numerics, "scaled_min_eigenvalue", lambda g: calls.append(1) or real(g)
        )
        shared = Design(random_instance(rng).design)
        for _ in range(3):
            data = ModelData(shared, rng.normal(size=30))
            fit_mle(data)
            design_diagnostics(data)
        assert len(calls) == 1


class TestFitRp:
    def test_tiny_alpha_matches_mle(self, rng):
        for _ in range(10):
            data = random_instance(rng, n=20)
            mle = fit_mle(data)
            fit = fit_rp(data, 1e-8)
            np.testing.assert_allclose(
                fit.theta_hat.to_array(), mle.theta_hat.to_array(), atol=1e-4
            )

    def test_alpha_zero_is_mle(self, rng):
        data = random_instance(rng)
        assert fit_rp(data, 0.0).theta_hat.sigma == fit_mle(data).theta_hat.sigma

    @pytest.mark.parametrize("alpha", ["0.5", "0", np.float64(0.5)])
    def test_alpha_is_read_as_fit_rp_path_reads_it(self, alpha):
        # the fit is looked up by the checked tuning value, as the path keys it
        data = load_dataset("first_word").data
        want = fit_rp_path(data, [alpha])[float(alpha)]
        for init in (None, want.theta_hat):
            fit = fit_rp(data, alpha, init=init)
            assert fit.alpha == float(alpha) and type(fit.alpha) is float
            np.testing.assert_array_equal(fit.theta_hat.to_array(), want.theta_hat.to_array())

    def test_brain_alpha_one(self):
        data = load_dataset("brain_weight").data
        fit = fit_rp(data, 1.0)
        assert fit.converged and fit.gradient_norm <= 1e-8
        assert fit.theta_hat.sigma == pytest.approx(0.3378, abs=5e-3)
        assert fit.theta_hat.beta[0] == pytest.approx(1.8142, abs=5e-3)
        assert fit.theta_hat.beta[1] == pytest.approx(0.7731, abs=5e-3)

    def test_first_word_alpha_06(self):
        data = load_dataset("first_word").data
        fit = fit_rp(data, 0.6)
        assert fit.theta_hat.sigma == pytest.approx(9.0319, abs=5e-3)
        assert fit.theta_hat.beta[0] == pytest.approx(111.7370, abs=5e-3)
        assert fit.theta_hat.beta[1] == pytest.approx(-1.2710, abs=5e-3)

    def test_grid_search_oracle_tiny_instance(self):
        # brute force: refine a full grid over (b0, b1, log sigma) down to
        # 1e-3 resolution and compare with the solver
        x = np.column_stack([np.ones(6), np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])])
        y = np.array([-0.8, -0.2, 0.1, 0.6, 1.2, 1.9])
        data = ModelData(design=x, response=y)
        alpha = 0.5
        fam = NormalLinearFamily(x)

        def obj(b0, b1, s):
            return objective(fam, data, Theta(beta=np.array([b0, b1]), sigma=s), alpha)

        center = np.array([0.0, 1.0, math.log(0.5)])
        width = np.array([1.0, 1.0, 1.5])
        best = None
        for _ in range(8):
            grids = [np.linspace(c - w, c + w, 11) for c, w in zip(center, width)]
            best = max(
                itertools.product(*grids),
                key=lambda t: obj(t[0], t[1], math.exp(t[2])),
            )
            center = np.array(best)
            width = width * 0.25
        fit = fit_rp(data, alpha)
        assert fit.theta_hat.beta[0] == pytest.approx(best[0], abs=1e-3)
        assert fit.theta_hat.beta[1] == pytest.approx(best[1], abs=1e-3)
        assert fit.theta_hat.sigma == pytest.approx(math.exp(best[2]), abs=1e-3)

    def test_init_never_hurts(self, rng):
        data = random_instance(rng, n=25)
        init = Theta(beta=np.zeros(2), sigma=2.0)
        fit = fit_rp(data, 0.8, init=init)
        fam = NormalLinearFamily(data.design)
        assert fit.objective_value >= objective(fam, data, init, 0.8) - 1e-12

    def test_objective_at_solution_is_local_max(self, rng):
        # numerical Hessian at the fit is negative semidefinite
        data = random_instance(rng, n=40)
        fit = fit_rp(data, 0.6)
        fam = NormalLinearFamily(data.design)
        arr = fit.theta_hat.to_array()
        h = 1e-4
        dim = arr.size
        hess = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                pp, pm, mp, mm = (arr.copy() for _ in range(4))
                pp[i] += h; pp[j] += h
                pm[i] += h; pm[j] -= h
                mp[i] -= h; mp[j] += h
                mm[i] -= h; mm[j] -= h
                hess[i, j] = (
                    objective(fam, data, Theta.from_array(pp), 0.6)
                    - objective(fam, data, Theta.from_array(pm), 0.6)
                    - objective(fam, data, Theta.from_array(mp), 0.6)
                    + objective(fam, data, Theta.from_array(mm), 0.6)
                ) / (4 * h * h)
        eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
        assert eigs.max() < 1e-6

    def test_affine_equivariance(self, rng):
        data = random_instance(rng, n=24)
        c, d = 2.5, np.array([1.0, -3.0])
        data2 = ModelData(
            design=data.design, response=c * data.response + data.design @ d
        )
        for alpha in (0.0, 0.4, 1.0):
            f1 = fit_rp(data, alpha)
            f2 = fit_rp(data2, alpha)
            np.testing.assert_allclose(
                f2.theta_hat.beta, c * f1.theta_hat.beta + d, atol=1e-6
            )
            assert f2.theta_hat.sigma == pytest.approx(c * f1.theta_hat.sigma, abs=1e-6)

    def test_alpha_validation(self, rng):
        data = random_instance(rng)
        with pytest.raises(DomainError):
            fit_rp(data, -0.1)

    def test_path_matches_single_fits(self, rng):
        data = random_instance(rng)
        path = fit_rp_path(data, [0.0, 0.3, 0.7])
        for a in (0.0, 0.3, 0.7):
            single = fit_rp(data, a)
            np.testing.assert_allclose(
                path[a].theta_hat.to_array(), single.theta_hat.to_array(), atol=1e-9
            )

    def test_monotone_robustness_brain(self):
        # the robust slope moves toward the clean-data slope as alpha grows
        descriptor = load_dataset("brain_weight")
        dirty = descriptor.data
        clean = exclude_rows(dirty, descriptor.outlier_rows)
        alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        fits_dirty = fit_rp_path(dirty, alphas)
        fits_clean = fit_rp_path(clean, alphas)
        gaps = [
            abs(fits_dirty[a].theta_hat.beta[1] - fits_clean[a].theta_hat.beta[1])
            for a in alphas
        ]
        assert all(g2 <= g1 + 1e-9 for g1, g2 in zip(gaps, gaps[1:]))


class TestCovariance:
    def test_classical_limit(self, rng):
        data = random_instance(rng)
        theta = Theta(beta=np.zeros(2), sigma=1.7)
        cov = covariance_mlrm(data, theta, 0.0)
        s = data.design.T @ data.design / data.n_obs
        np.testing.assert_allclose(
            cov.sigma_n[:2, :2], theta.sigma**2 * np.linalg.inv(s), rtol=1e-10
        )
        assert cov.sigma_n[2, 2] == pytest.approx(theta.sigma**2 / 2, rel=1e-12)

    def test_identity_design_value(self):
        # direct arithmetic: (1.5)^3 / 2^{1.5} at alpha = 1/2, sigma = 1
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        data = ModelData(design=x, response=np.array([0.1, 0.2, -0.1, 0.3]))
        theta = Theta(beta=np.zeros(2), sigma=1.0)
        cov = covariance_mlrm(data, theta, 0.5)
        expected = 1.5**3 / 2**1.5
        np.testing.assert_allclose(
            cov.sigma_n[:2, :2], expected * np.eye(2) * 2.0, rtol=1e-12
        )
        # (1/n) X'X = I/2 here, so the block is twice the unit-design value
        assert expected == pytest.approx(1.19324, abs=1e-5)

    def test_sandwich_identity(self, rng):
        data = random_instance(rng)
        theta = Theta(beta=rng.normal(size=2), sigma=0.9)
        for alpha in (0.0, 0.3, 0.8, 1.5):
            cov = covariance_mlrm(data, theta, alpha)
            sandwich = np.linalg.solve(
                cov.psi_n, np.linalg.solve(cov.psi_n, cov.omega_n).T
            ).T
            np.testing.assert_allclose(sandwich, cov.sigma_n, atol=1e-8)

    def test_positive_definite_grid(self, rng):
        data = random_instance(rng)
        theta = Theta(beta=np.zeros(2), sigma=2.2)
        for alpha in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
            cov = covariance_mlrm(data, theta, alpha)
            assert np.all(np.linalg.eigvalsh(cov.sigma_n) > 0)
            assert np.all(np.linalg.eigvalsh(cov.psi_n) > 0)
            assert np.all(np.linalg.eigvalsh(cov.omega_n) > 0)

    def test_block_diagonal(self, rng):
        data = random_instance(rng)
        cov = covariance_mlrm(data, Theta(beta=np.zeros(2), sigma=1.0), 0.7)
        assert np.all(cov.sigma_n[:2, 2] == 0.0) and np.all(cov.sigma_n[2, :2] == 0.0)

    @pytest.mark.parametrize("small_order", [0, 6])
    def test_sandwich_equals_one_factor_per_entry(self, small_order, monkeypatch):
        """The coefficient block, per entry up to order
        ``numerics._SMALL_ORDER`` and in one array expression above it, has
        the bits of one factor call per entry in Python floats, from p = 1
        to 5, sigma from 1e-150 to 1e150 and alpha from 0 to 1e300, with
        exact zeros: inf where a product overflows, and no warning.  The
        order is patched to 0, which sends p = 1 to 5 to the array form, and
        to 6, which sends them to the per-entry form."""
        monkeypatch.setattr(numerics, "_SMALL_ORDER", small_order)
        gen = np.random.default_rng(2023)
        for case in range(5000):
            p = int(gen.integers(1, 6))
            inverse = gen.normal(size=(p, p)) * 10.0 ** gen.uniform(-30.0, 30.0, size=(p, p))
            inverse[gen.random((p, p)) < 0.2] = 0.0
            sigma = float(10.0 ** gen.uniform(-150.0, 150.0))
            a = 0.0 if case % 10 == 0 else float(10.0 ** gen.uniform(-3.0, 300.0))
            factors = estimation._normal_factors
            want = np.zeros((p + 1, p + 1))
            want[:p, :p].flat = [factors(a, sigma * s * sigma)[0] for s in inverse.ravel().tolist()]
            want[p, p] = factors(a, sigma * sigma)[1]
            np.testing.assert_array_equal(estimation._sigma_n(inverse, sigma, a), want)


class TestDiagnostics:
    def test_orthonormal_scaled(self):
        n = 8
        x = np.zeros((n, 2))
        x[: n // 2, 0] = math.sqrt(2.0)
        x[n // 2 :, 1] = math.sqrt(2.0)
        data = ModelData(design=x, response=np.arange(float(n)))
        diag = design_diagnostics(data)
        assert diag.min_eigenvalue_xtx_over_n == pytest.approx(1.0, rel=1e-12)

    def test_duplicate_column(self):
        x = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0)])
        data = ModelData(design=x, response=np.arange(6.0))
        diag = design_diagnostics(data)
        assert diag.min_eigenvalue_xtx_over_n <= 1e-12

    def test_two_point_design_closed_form(self):
        # 2x2 moment matrix [[1, m], [m, q]] has eigenvalues
        # ((1+q) +- sqrt((1-q)^2 + 4 m^2)) / 2
        a, b, n = 1.0, 5.0, 100
        x1 = np.concatenate([np.full(n // 2, a), np.full(n // 2, b)])
        x = np.column_stack([np.ones(n), x1])
        data = ModelData(design=x, response=np.linspace(0, 1, n))
        diag = design_diagnostics(data)
        m = (a + b) / 2
        q = (a * a + b * b) / 2
        lam = ((1 + q) - math.sqrt((1 - q) ** 2 + 4 * m * m)) / 2
        assert diag.min_eigenvalue_xtx_over_n == pytest.approx(lam, rel=1e-12)
        # leverage of a two-point design: each half shares it equally
        xtx_inv = np.linalg.inv(x.T @ x)
        lev = max(float(r @ xtx_inv @ r) for r in (x[0], x[-1]))
        assert diag.max_scaled_leverage == pytest.approx(n * lev, rel=1e-12)
        assert diag.max_abs_covariate == 5.0


def assert_kernel_matches_central_differences(x, y, point, alpha):
    """The kernel's gradient and Hessian at ``point = (beta, log sigma)``
    against central differences of its value and gradient."""
    p = x.shape[1]

    def kernel(t):
        return _objective_grad_hess(x, y, t[:p], t[p], alpha)

    val, grad, hess = kernel(point)
    h = 1e-5
    fd_grad = np.empty(p + 1)
    fd_hess = np.empty((p + 1, p + 1))
    for i in range(p + 1):
        e = np.zeros(p + 1)
        e[i] = h
        up, down = kernel(point + e), kernel(point - e)
        fd_grad[i] = (up[0] - down[0]) / (2 * h)
        fd_hess[:, i] = (up[1] - down[1]) / (2 * h)
    assert np.max(np.abs(grad)) > 1e-3
    np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(hess, fd_hess, rtol=1e-6, atol=1e-9)
    np.testing.assert_array_equal(hess, hess.T)


class TestSolverKernel:
    """Finite-difference checks of the vectorized kernel the Newton solver
    runs on, in its own (beta, log sigma) coordinates."""

    @staticmethod
    def instance(outliers):
        gen = np.random.default_rng(7)
        n = 200
        x = np.column_stack([np.ones(n), gen.normal(size=n)])
        y = x @ np.array([1.0, 2.0]) + gen.normal(size=n)
        if outliers:
            y[: n // 10] += 6.0
        # off the optimum, so the gradient is not near zero
        beta0 = np.linalg.lstsq(x, y, rcond=None)[0] + np.array([0.1, -0.05])
        return x, y, np.append(beta0, math.log(1.2))

    @pytest.mark.parametrize("outliers", [False, True])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_derivatives_match_central_differences(self, outliers, alpha):
        assert_kernel_matches_central_differences(*self.instance(outliers), alpha)

    def test_saddle_free_direction_without_a_metric(self):
        # X'X / n of a zero column makes the metric singular, and numpy
        # refuses its Cholesky: there is no direction
        neg = np.diag([1.0, -1.0])
        direction = estimation._saddle_free_direction(np.zeros((1, 1)), 0.0, 1.0, neg, np.ones(2))
        assert direction is None

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_non_finite_value_is_minus_inf(self, alpha):
        # the line search rejects such a trial point by its value alone
        x, y, point = self.instance(True)
        beta = point[:-1].copy()
        beta[1] = np.nan
        val, _, _ = _objective_grad_hess(x, y, beta, point[-1], alpha)
        assert val == -math.inf

    def test_stage_with_nothing_to_ascend_ends_unconverged(self):
        # at sigma 1e-3 every weight of residuals near 100 underflows: value,
        # gradient and Hessian are 0, and there is no saddle-free direction
        x = np.asfortranarray(np.column_stack([np.ones(6), np.arange(6.0)]))
        y = 100.0 * np.array([1.0, -1.0, 2.0, -2.0, 1.0, -1.0])
        stage = estimation._newton_stage(
            x, y, np.zeros(2), math.log(1e-3), 1.0, 1e-12, x.T @ x / 6
        )
        assert (stage.converged, stage.iterations, stage.value) == (False, 0, 0.0)

    # per unconverged exit of a stage: the kernel's values, the stage's
    # iterations and its kernel calls.  Three steps are accepted and then
    # no trial point, or every step is accepted and the decrement never falls
    STAGE_EXITS = {
        "line_search": (
            lambda: itertools.chain([1.0, 2.0, 3.0, 4.0], itertools.repeat(-math.inf)),
            3,
            1 + 3 + 60,
        ),
        "max_iter": (lambda: itertools.count(1.0), MAX_ITER, 1 + MAX_ITER),
    }

    @staticmethod
    def scripted_kernel(monkeypatch, values):
        """Replace the kernel by one whose gradient (1, 1, 0) and Hessian -I
        give the Newton step (1, 1, 0), with a decrement of 2, everywhere;
        ``values`` gives the value at each call.  Returns the list of calls."""
        calls = []

        def kernel(x, y, beta, s, a):
            calls.append(a)
            return next(values), np.array([1.0, 1.0, 0.0]), -np.eye(3)

        monkeypatch.setattr(estimation, "_objective_grad_hess", kernel)
        return calls

    @pytest.mark.parametrize("exit", STAGE_EXITS)
    def test_unconverged_stage_exits(self, exit, monkeypatch):
        values, iterations, calls = self.STAGE_EXITS[exit]
        kernel_calls = self.scripted_kernel(monkeypatch, values())
        x = np.asfortranarray(np.column_stack([np.ones(6), np.arange(6.0)]))
        stage = estimation._newton_stage(
            x, np.arange(6.0), np.zeros(2), 0.0, 0.5, 1e-12, x.T @ x / 6
        )
        # iterations counts the accepted steps
        assert (stage.converged, stage.iterations) == (False, iterations)
        assert stage.value == iterations + 1.0
        np.testing.assert_array_equal(stage.beta, [iterations, iterations])
        assert len(kernel_calls) == calls

    @pytest.mark.parametrize("exit", STAGE_EXITS)
    def test_path_reports_unconverged_stage(self, exit, monkeypatch):
        data = TestSolverEvaluations.contaminated()
        values, iterations, _ = self.STAGE_EXITS[exit]
        self.scripted_kernel(monkeypatch, values())
        # a step of at most _MIN_ALPHA_STEP runs one stage and keeps it
        fit = fit_rp_path(data, [0.01])[0.01]
        assert (fit.converged, fit.iterations) == (False, iterations)
        # the scripted values are the stage's, at unit response scale
        assert fit.objective_value == (iterations + 1.0) * stage_unit(data) ** (-0.01 / 1.01)


class TestBlockedKernel:
    """The kernel sums over blocks of ``_ROWS`` rows; on a design of two full
    blocks and a short one it agrees with a single block over every row."""

    N = 2 * estimation._ROWS + 17
    ALPHAS = (0.3, 0.7, 1.0)

    @classmethod
    def instance(cls):
        gen = np.random.default_rng(29)
        n = cls.N
        x = np.asfortranarray(np.column_stack([np.ones(n), gen.normal(size=(n, 2))]))
        y = x @ np.array([1.0, 2.0, -1.0]) + gen.normal(size=n)
        y[gen.choice(n, size=n // 10, replace=False)] += 6.0
        # off the optimum, so the gradient is not near zero
        beta0 = np.linalg.lstsq(x, y, rcond=None)[0] + np.array([0.1, -0.05, 0.02])
        return x, y, np.append(beta0, math.log(1.2))

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_blocks_match_one_block(self, alpha, monkeypatch):
        x, y, point = self.instance()
        blocked = _objective_grad_hess(x, y, point[:-1], point[-1], alpha)
        monkeypatch.setattr(estimation, "_ROWS", self.N)
        whole = _objective_grad_hess(x, y, point[:-1], point[-1], alpha)
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_derivatives_match_central_differences(self, alpha):
        assert_kernel_matches_central_differences(*self.instance(), alpha)

    def test_non_finite_row_in_last_block_is_minus_inf(self):
        x, y, point = self.instance()
        y = y.copy()
        y[-1] = np.nan
        assert self.N - 1 >= 2 * estimation._ROWS
        val, _, _ = _objective_grad_hess(x, y, point[:-1], point[-1], 0.5)
        assert val == -math.inf

    def test_path_does_not_depend_on_block_size(self, monkeypatch):
        x, y, _ = self.instance()
        data = ModelData(design=x, response=y)
        blocked = fit_rp_path(data, self.ALPHAS)
        monkeypatch.setattr(estimation, "_ROWS", self.N)
        whole = fit_rp_path(data, self.ALPHAS)
        for a in self.ALPHAS:
            assert blocked[a].converged and whole[a].converged
            assert blocked[a].iterations == whole[a].iterations
            np.testing.assert_allclose(
                blocked[a].theta_hat.to_array(), whole[a].theta_hat.to_array(), rtol=1e-12
            )


class TestCentredProblemLayout:
    """The kernel hands a design of one block to ``ndarray.dot``, which
    reaches BLAS without a copy only on a column-major contiguous design and
    a contiguous response; ``_centred_problem`` returns both at every size
    and from every input layout."""

    @pytest.mark.parametrize("n", [50, estimation._ROWS, estimation._ROWS + 1])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_design_and_response_are_contiguous(self, n, layout):
        gen = np.random.default_rng(n)
        rows = 2 * n if layout == "strided" else n
        x = np.column_stack([np.ones(rows), gen.normal(size=(rows, 2))])
        y = x @ np.array([1.0, 2.0, -1.0]) + gen.normal(size=rows)
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x, y = x[::2], y[::2]
        data = ModelData(design=x, response=y)
        xc, yc, *_ = estimation._centred_problem(data, fit_mle(data))
        assert xc.shape == (n, 3) and xc.flags.f_contiguous
        assert yc.shape == (n,) and yc.flags.c_contiguous


class TestMultistart:
    @staticmethod
    def contaminated(n=60):
        gen = np.random.default_rng(3)
        x = np.column_stack([np.ones(n), gen.normal(size=n)])
        y = x @ np.array([1.0, 1.0]) + gen.normal(size=n)
        y[: n // 5] += 5.0
        return ModelData(design=x, response=y)

    def test_same_seed_same_fit(self):
        data = self.contaminated()
        opts = SolverOptions(multistart=3, multistart_seed=11)
        first, second = fit_rp(data, 0.8, options=opts), fit_rp(data, 0.8, options=opts)
        np.testing.assert_array_equal(first.theta_hat.to_array(), second.theta_hat.to_array())
        assert first.objective_value == second.objective_value
        assert first.iterations == second.iterations
        assert first.converged == second.converged

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5])
    def test_never_below_continuation(self, alpha):
        data = self.contaminated()
        plain = fit_rp(data, alpha)
        for seed in range(4):
            opts = SolverOptions(multistart=3, multistart_seed=seed)
            multi = fit_rp(data, alpha, options=opts)
            assert multi.converged
            assert multi.objective_value >= plain.objective_value

    def test_start_with_singular_hessian(self):
        # 45% of the rows follow another line; one restart meets a Newton
        # matrix that is singular to working precision and must regularize
        gen = np.random.default_rng(1)
        n, bad = 40, 18
        x = np.column_stack([np.ones(n), gen.normal(size=n)])
        y = x @ np.array([1.0, 1.0]) + gen.normal(size=n)
        y[:bad] = x[:bad] @ np.array([10.0, -2.0]) + gen.normal(size=bad)
        data = ModelData(design=x, response=y)
        plain = fit_rp(data, 1.5)
        multi = fit_rp(data, 1.5, options=SolverOptions(multistart=4, multistart_seed=0))
        assert multi.converged
        assert multi.objective_value >= plain.objective_value

    def test_singular_and_exact_subsamples_are_skipped(self, monkeypatch):
        # rows 0-5 share one covariate value, so their subsample has a
        # singular X'X; rows 6-11 lie on a line, so theirs fits exactly and
        # its scale is below the collapse floor.  Only the third, mixed
        # subsample starts a Newton run
        x1 = np.array([1.0] * 6 + [2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        y = np.concatenate([[0.4, 3.1, 1.7, 4.2, 2.5, 3.6], 1.0 + 2.0 * x1[6:]])
        data = ModelData(design=np.column_stack([np.ones(12), x1]), response=y)
        subsets = iter([np.arange(6), np.arange(6, 12), np.array([0, 2, 6, 8, 10, 11])])
        draws = SimpleNamespace(choice=lambda n, size, replace: next(subsets), random=lambda: 0.5)
        scripted = SimpleNamespace(generator=draws)
        monkeypatch.setattr(numerics, "RngStream", lambda seed, stream_id: scripted)
        stages = []
        stage = estimation._newton_stage

        def recording(x, y, beta, s, a, *args):
            stages.append(a)
            return stage(x, y, beta, s, a, *args)

        monkeypatch.setattr(estimation, "_newton_stage", recording)
        fit = fit_rp_path(data, [0.3], SolverOptions(multistart=3))[0.3]
        # the continuation stage and one restart
        assert stages == [0.3, 0.3]
        assert fit.converged


class TestMultistartTies:
    """A restart that reaches the continuation fit's point ties with it on
    objective value to rounding; the continuation fit is then kept as is."""

    @pytest.mark.parametrize("name", ["brain_weight", "first_word"])
    @pytest.mark.parametrize("without_outliers", [False, True])
    def test_tied_restart_keeps_continuation_fit(self, name, without_outliers, monkeypatch):
        desc = load_dataset(name)
        data = exclude_rows(desc.data, desc.outlier_rows) if without_outliers else desc.data
        alphas = tuple(round(0.1 * k, 1) for k in range(1, 11))
        plain = fit_rp_path(data, alphas)

        restarts = {}
        refine, stage = estimation._multistart_refine, estimation._newton_stage

        def recording_refine(x, y, a, st, *args):
            restarts[a] = []
            return refine(x, y, a, st, *args)

        def recording_stage(x, y, beta, s, a, *args):
            out = stage(x, y, beta, s, a, *args)
            if a in restarts:
                restarts[a].append(out)
            return out

        monkeypatch.setattr(estimation, "_multistart_refine", recording_refine)
        monkeypatch.setattr(estimation, "_newton_stage", recording_stage)
        multi = fit_rp_path(data, alphas, SolverOptions(multistart=2))
        # stages run on (y - X beta_MLE) / unit, their coefficients offsets
        # from beta_MLE in that unit
        beta_mle, unit = fit_mle(data).theta_hat.beta, stage_unit(data)

        ties = 0
        for a in alphas:
            ref = plain[a].theta_hat.to_array()

            def at_continuation(st):
                point = np.append(beta_mle + unit * st.beta, unit * math.exp(st.s))
                return np.max(np.abs(point - ref) / np.abs(ref)) <= 1e-6

            def below_continuation(st):
                return st.value * unit ** (-a / (1 + a)) < plain[a].objective_value

            converged = [st for st in restarts[a] if st.converged]
            if any(at_continuation(st) for st in converged) and all(
                at_continuation(st) or below_continuation(st) for st in converged
            ):
                ties += 1
                assert multi[a].iterations == plain[a].iterations
                np.testing.assert_array_equal(multi[a].theta_hat.beta, plain[a].theta_hat.beta)
                assert multi[a].theta_hat.sigma == plain[a].theta_hat.sigma
        assert ties > 0


class TestInitTies:
    """A run from ``init`` that reaches the continuation fit's point ties with
    it on objective value to rounding; ``fit_rp`` then keeps the continuation
    fit as it is, by the rule that multistart uses."""

    @pytest.mark.parametrize("name", ["brain_weight", "first_word"])
    @pytest.mark.parametrize("without_outliers", [False, True])
    def test_tied_init_keeps_continuation_fit(self, name, without_outliers):
        desc = load_dataset(name)
        data = exclude_rows(desc.data, desc.outlier_rows) if without_outliers else desc.data
        for a in (round(0.1 * k, 1) for k in range(1, 11)):
            plain = fit_rp(data, a)
            init = Theta(beta=plain.theta_hat.beta * 1.0001, sigma=plain.theta_hat.sigma * 1.01)
            fit = fit_rp(data, a, init=init)
            assert fit.iterations == plain.iterations
            np.testing.assert_array_equal(fit.theta_hat.to_array(), plain.theta_hat.to_array())

    def test_acceptance_rule(self):
        value = 0.5
        tie = value * (1 + 0.5 * estimation.MULTISTART_MARGIN)
        better = value * (1 + 2 * estimation.MULTISTART_MARGIN)
        assert estimation._replaces(True, better, True, value)
        assert not estimation._replaces(True, tie, True, value)
        assert estimation._replaces(True, value - 1.0, False, value)
        assert not estimation._replaces(False, better, False, value)
        assert not estimation._replaces(False, better, True, value)

    def test_better_init_replaces_continuation_fit(self):
        # first_word at alpha 1.0: the path stays on the wide branch (sigma
        # 4.42); a run from the fit at 1.1 reaches the narrow one (sigma
        # 0.79) at a higher objective, and replaces the path's fit
        data = load_dataset("first_word").data
        plain = fit_rp(data, 1.0)
        fit = fit_rp(data, 1.0, init=fit_rp(data, 1.1).theta_hat)
        assert plain.theta_hat.sigma == pytest.approx(4.419, abs=1e-3)
        assert fit.converged
        assert fit.theta_hat.sigma == pytest.approx(0.795, abs=1e-3)
        assert estimation._replaces(True, fit.objective_value, True, plain.objective_value)


class TestSolverEvaluations:
    """Each Newton point costs one kernel evaluation, and the reported
    objective and gradient belong to the returned estimate."""

    ALPHAS = (0.0, 0.3, 0.7, 1.0)

    @staticmethod
    def contaminated(design=None):
        gen = np.random.default_rng(11)
        n = 200
        x = np.column_stack([np.ones(n), gen.normal(size=n)])
        if design is not None:
            x = design
        y = x @ np.array([1.0, 2.0]) + gen.normal(size=n)
        y[: n // 10] += 6.0
        return ModelData(design=x, response=y)

    @staticmethod
    def record_calls(monkeypatch):
        """Record each kernel call as ``(inside, point)``, where ``point`` is
        ``(beta bytes, s, a)`` and ``inside`` whether a Newton stage made the
        call; each stage's ``converged`` flag; and the closing points of the
        converged stages."""
        rec = SimpleNamespace(calls=[], outcomes=[], closing=set())
        depth = []
        kernel, stage = estimation._objective_grad_hess, estimation._newton_stage

        def recording_kernel(x, y, beta, s, a):
            rec.calls.append((bool(depth), (beta.tobytes(), s, a)))
            return kernel(x, y, beta, s, a)

        def recording_stage(x, y, beta, s, a, *args):
            depth.append(None)
            try:
                out = stage(x, y, beta, s, a, *args)
            finally:
                depth.pop()
            rec.outcomes.append(out.converged)
            if out.converged:
                rec.closing.add((out.beta.tobytes(), out.s, a))
            return out

        monkeypatch.setattr(estimation, "_objective_grad_hess", recording_kernel)
        monkeypatch.setattr(estimation, "_newton_stage", recording_stage)
        return rec

    def test_path_evaluates_no_point_twice(self, monkeypatch):
        data = self.contaminated()
        rec = self.record_calls(monkeypatch)
        fits = fit_rp_path(data, self.ALPHAS)
        assert all(f.converged for f in fits.values())
        points = [point for _, point in rec.calls]
        assert len(points) > len(self.ALPHAS)
        assert len(set(points)) == len(points)

    def test_multistart_evaluates_no_point_twice(self, monkeypatch):
        data = self.contaminated()
        rec = self.record_calls(monkeypatch)
        fit = fit_rp(data, 0.7, options=SolverOptions(multistart=2))
        assert fit.converged
        points = [point for _, point in rec.calls]
        assert len(set(points)) == len(points)

    def test_closing_points_only_outside_stages(self, monkeypatch):
        # every kernel call inside a stage evaluates a new point: a converged
        # stage ends at its closing point without evaluating it.  A path
        # evaluates no closing point; only the multistart comparison, outside
        # the stages, evaluates closing points
        rec = self.record_calls(monkeypatch)
        data = self.contaminated()
        fit_rp_path(data, self.ALPHAS)
        # the path to alpha 1 halves its first step here (TestUnitFreeConvergence)
        gen = np.random.default_rng(451)
        x = np.column_stack([np.ones(60), gen.normal(size=(60, 2))])
        y = x @ np.array([1.0, 2.0, -1.0]) + gen.normal(size=60)
        y[:6] += 6.0
        fit_rp_path(ModelData(design=x, response=y), [1.0])
        assert True in rec.outcomes and False in rec.outcomes
        assert rec.calls and all(inside for inside, _ in rec.calls)
        points = [point for _, point in rec.calls]
        assert len(set(points)) == len(points)
        assert not rec.closing.intersection(points)
        del rec.calls[:]
        fit_rp(data, 0.7, options=SolverOptions(multistart=2))
        inside = [point for within, point in rec.calls if within]
        outside = [point for within, point in rec.calls if not within]
        assert len(set(inside)) == len(inside)
        assert not rec.closing.intersection(inside)
        assert outside and rec.closing.issuperset(outside)

    def test_fit_inside_caller_error_state(self):
        # rows 100 sigma out have weights that underflow to 0; each stage
        # sets its own error state, so a caller's does not reach the kernel
        data = self.contaminated()
        y = data.response.copy()
        y[:10] += 100.0
        data = ModelData(design=data.design, response=y)
        x = np.asfortranarray(data.design)
        ref = fit_rp_path(data, self.ALPHAS)
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError):
                _objective_grad_hess(x, y, ref[1.0].theta_hat.beta, 0.0, 1.0)
            fits = fit_rp_path(data, self.ALPHAS)
        for a in self.ALPHAS:
            assert fits[a].converged
            np.testing.assert_array_equal(
                fits[a].theta_hat.to_array(), ref[a].theta_hat.to_array()
            )

    def test_layout_of_design_does_not_matter(self):
        base = self.contaminated().design
        wide = np.zeros((base.shape[0], 2 * base.shape[1]))
        wide[:, ::2] = base
        designs = {
            "C": np.ascontiguousarray(base),
            "F": np.asfortranarray(base),
            "strided": wide[:, ::2],
        }
        assert not designs["strided"].flags.c_contiguous
        assert not designs["strided"].flags.f_contiguous
        paths = {
            name: fit_rp_path(self.contaminated(x), self.ALPHAS) for name, x in designs.items()
        }
        ref = paths["C"]
        for fits in paths.values():
            for a in self.ALPHAS:
                assert fits[a].iterations == ref[a].iterations
                assert fits[a].converged == ref[a].converged
                np.testing.assert_allclose(
                    fits[a].theta_hat.to_array(), ref[a].theta_hat.to_array(), rtol=1e-12
                )

    def test_reported_values_belong_to_estimate(self):
        data = self.contaminated()
        init = Theta(beta=np.array([1.0, 2.0]), sigma=1.0)
        fits = list(fit_rp_path(data, self.ALPHAS[1:]).values())
        fits.append(fit_rp(data, 0.7, options=SolverOptions(multistart=2)))
        fits.append(fit_rp(data, 1.0, init=init))
        # the solver's layout, so that a near-zero gradient is compared
        # without rounding from another order of summation
        x = np.asfortranarray(data.design)
        for fit in fits:
            s = math.log(fit.theta_hat.sigma)
            assert math.exp(s) == fit.theta_hat.sigma
            val, grad, _ = _objective_grad_hess(
                x, data.response, fit.theta_hat.beta, s, fit.alpha
            )
            g = grad.copy()
            g[-1] /= fit.theta_hat.sigma
            assert fit.objective_value == pytest.approx(val, rel=1e-12)
            assert fit.gradient_norm == pytest.approx(float(np.max(np.abs(g))), rel=1e-12)
            # the final Newton step leaves a gradient at rounding level; the
            # stopping rule alone leaves about 1e-9 on these data (sigma ~ 1)
            assert fit.gradient_norm <= 1e-13 * fit.objective_value

    @staticmethod
    def study_clean_draw():
        """One null draw of the benchmark's clean study: two-point design,
        n = 200, beta = (1, 1), sigma = 1."""
        design = make_design(DesignSpec(kind="two_point", n=200, a=1.0, b=5.0))
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        return ModelData(design, generate_data(design, theta, None, RngStream(0, stream_id=0)))

    @pytest.mark.parametrize("draw", ["contaminated", "study_clean_draw"])
    def test_fit_does_not_depend_on_ladder(self, draw):
        data = getattr(self, draw)()
        direct = fit_rp_path(data, [1.0])[1.0]
        fine = fit_rp_path(data, [0.01 * k for k in range(1, 101)])[1.0]
        assert direct.converged and fine.converged
        np.testing.assert_allclose(
            direct.theta_hat.to_array(), fine.theta_hat.to_array(), rtol=1e-12
        )


class TestPendingClosingPoint:
    """A converged stage's fit evaluates its value and gradient norm at the
    stage's closing point when either is first read, with the bits of the
    evaluation at the end of the stage."""

    ALPHAS = (0.2, 0.6, 1.0)

    @staticmethod
    def eager_closing(monkeypatch):
        """Record, per alpha, the closing value and scaled gradient norm of
        the last converged stage, evaluated as the stage ends, at unit
        response scale."""
        closing = {}
        stage = estimation._newton_stage

        def recording(x, y, beta, s, a, *args):
            out = stage(x, y, beta, s, a, *args)
            if out.converged:
                with np.errstate(under="ignore"):
                    val, grad, _ = _objective_grad_hess(x, y, out.beta, out.s, a)
                closing[a] = (val, estimation._scaled_gradient_norm(grad, out.s))
            return out

        monkeypatch.setattr(estimation, "_newton_stage", recording)
        return closing

    @staticmethod
    def bits(fit):
        return fit.objective_value.hex(), fit.gradient_norm.hex()

    @pytest.mark.parametrize(
        "draw,alphas",
        [
            ("brain_weight", ALPHAS),
            ("first_word", ALPHAS),
            ("study_clean", (0.0, 0.3, 0.7, 1.0)),
        ],
    )
    def test_read_gives_eager_bits(self, draw, alphas, monkeypatch):
        if draw == "study_clean":
            data = TestSolverEvaluations.study_clean_draw()
        else:
            data = load_dataset(draw).data
        closing = self.eager_closing(monkeypatch)
        fits = fit_rp_path(data, alphas)
        assert all(fit.converged for fit in fits.values())
        # the maximum-likelihood fit has no stage; the stage's values are
        # mapped to the response's units as the fit maps them
        unit = stage_unit(data)
        for a in set(alphas) - {0.0}:
            factor = unit ** (-a / (1 + a))
            value, gnorm = closing[a]
            assert self.bits(fits[a]) == ((value * factor).hex(), (gnorm * factor / unit).hex())

    def test_kernel_calls(self, monkeypatch):
        rec = TestSolverEvaluations.record_calls(monkeypatch)

        def outside():
            return [point for inside, point in rec.calls if not inside]

        data = TestSolverEvaluations.contaminated()
        fits = fit_rp_path(data, TestSolverEvaluations.ALPHAS)
        assert rec.calls and not outside()
        converged = [fit for a, fit in fits.items() if a > 0 and fit.converged]
        assert len(converged) == 3
        for k, fit in enumerate(converged, 1):
            # the first read evaluates the closing point, once
            fit.gradient_norm
            assert len(outside()) == k and outside()[-1] in rec.closing
            fit.objective_value
            fit.gradient_norm
            assert len(outside()) == k
        # the maximum-likelihood fit carries its values
        fits[0.0].objective_value
        assert len(outside()) == 3

    def test_study_evaluates_no_closing_point(self, monkeypatch):
        rec = TestSolverEvaluations.record_calls(monkeypatch)
        config = StudyConfig(
            design=DesignSpec(kind="two_point", n=200, a=1.0, b=5.0), replications=3, seed=11
        )
        result = run_study(config)
        assert result.non_convergence_count == 0
        assert rec.calls and all(inside for inside, _ in rec.calls)
        assert not rec.closing.intersection(point for _, point in rec.calls)

    def test_copies_carry_the_values(self):
        data = load_dataset("first_word").data
        ref = fit_rp_path(data, self.ALPHAS)
        for op in (lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy, copy.copy,
                   dataclasses.replace):
            fits = fit_rp_path(data, self.ALPHAS)
            for a in self.ALPHAS:
                copied = op(fits[a])
                # the copy carries both values, not the pending state
                assert set(vars(copied)) == {f.name for f in dataclasses.fields(FitResult)}
                assert self.bits(copied) == self.bits(ref[a])
        fit = fit_rp_path(data, self.ALPHAS)[1.0]
        assert dataclasses.replace(fit) == fit
        assert self.bits(fit) == self.bits(ref[1.0])
        with pytest.raises(AttributeError, match="'FitResult' object has no attribute 'value'"):
            fit_rp_path(data, self.ALPHAS)[1.0].value

    def test_late_reader_gets_the_value(self):
        # a reader that found the value unset enters __getattr__ after
        # another reader set it and dropped the pending state
        fit = fit_rp_path(load_dataset("first_word").data, self.ALPHAS)[1.0]
        want = self.bits(fit)
        late = [FitResult.__getattr__(fit, name) for name in ("objective_value", "gradient_norm")]
        assert tuple(v.hex() for v in late) == want
        assert set(vars(fit)) == {f.name for f in dataclasses.fields(FitResult)}

    def test_concurrent_readers_get_the_value(self):
        # eight threads read each fresh pending fit at once, with a thread
        # switch every microsecond; a late reader left unserved loses about
        # one round in thirty to AttributeError
        data = load_dataset("first_word").data
        want = self.bits(fit_rp_path(data, [1.0])[1.0])
        readers, rounds = 8, 200
        got = []

        def read(fit, barrier):
            barrier.wait(timeout=30)
            try:
                got.append(self.bits(fit))
            except Exception as err:  # recorded, and compared below
                got.append(repr(err))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                args = (fit_rp_path(data, [1.0])[1.0], threading.Barrier(readers))
                threads = [threading.Thread(target=read, args=args) for _ in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * (rounds * readers)

    def test_read_inside_caller_error_state(self):
        # rows 100 sigma out have weights that underflow to 0
        data = TestSolverEvaluations.contaminated()
        y = data.response.copy()
        y[:10] += 100.0
        data = ModelData(design=data.design, response=y)
        ref = fit_rp_path(data, TestSolverEvaluations.ALPHAS)
        fits = fit_rp_path(data, TestSolverEvaluations.ALPHAS)
        with np.errstate(all="raise"):
            for a, fit in fits.items():
                assert self.bits(fit) == self.bits(ref[a])


class TestOwnResponse:
    """A fit's data own their response, so a value first read after the
    caller changes its array is the value at the data that were fitted."""

    @staticmethod
    def fitted():
        gen = np.random.default_rng(0)
        x = np.column_stack([np.ones(50), gen.standard_normal(50)])
        y = x @ [1.0, 2.0] + gen.standard_normal(50)
        return ModelData(x, y), y

    @pytest.mark.parametrize("change", [False, True])
    def test_value_ignores_the_callers_array(self, change):
        data, y = self.fitted()
        fit = fit_rp_path(data, [0.5])[0.5]
        if change:
            y[0] += 10.0
        assert fit.objective_value == 0.6344810621642172

    def test_response_is_read_only(self):
        data, y = self.fitted()
        assert not np.shares_memory(data.response, y)
        with pytest.raises(ValueError, match="read-only"):
            data.response[0] = 1.0


class TestDegenerateCollapse:
    def test_near_interpolating_start_raises(self):
        # five of seven points exactly collinear; a start inside the
        # concentrated spike collapses the scale and must be reported
        x = np.column_stack([np.ones(7), np.arange(7.0)])
        y = 2.0 + 0.5 * np.arange(7.0)
        y[5] += 4.0
        y[6] -= 3.0
        data = ModelData(design=x, response=y)
        init = Theta(beta=np.array([2.0, 0.5]), sigma=1e-7)
        with pytest.raises(DegenerateFitError):
            fit_rp(data, 1.5, init=init)


class TestUnitFreeConvergence:
    """The stopping rule and the degenerate-scale floor have no units: the
    fit of c * y is c times the fit of y, found in the same iterations."""

    @staticmethod
    def contaminated():
        gen = np.random.default_rng(0)
        n = 300
        x = np.column_stack([np.ones(n), gen.normal(size=n)])
        y = x @ np.array([1.0, 2.0]) + gen.normal(size=n)
        y[:30] += 8.0
        return x, y

    def test_response_units(self):
        x, y = self.contaminated()
        ref = fit_rp_path(ModelData(design=x, response=y), [0.7])[0.7]
        assert ref.converged
        for c in 10.0 ** np.arange(-6, 9):
            fit = fit_rp_path(ModelData(design=x, response=c * y), [0.7])[0.7]
            assert fit.converged
            assert fit.iterations == ref.iterations
            np.testing.assert_allclose(
                fit.theta_hat.to_array() / c, ref.theta_hat.to_array(), rtol=1e-10
            )

    def test_response_offset(self):
        # the collapse floor is 1e-10 of the maximum-likelihood scale, which
        # does not move with y -> y + X d; 1e-10 rms(y) would be 1.0 at an
        # offset of 1e10, above the robust scale of these data.  The stages
        # run on y - X beta_MLE, so the offset never enters the kernel's
        # residuals, where its rounding, eps * offset (2e-6 at 1e10), is
        # above what the stopping rule resolves
        x, y = self.contaminated()
        ref = fit_rp_path(ModelData(design=x, response=y), [0.7])[0.7]
        for offset in 10.0 ** np.arange(0, 11):
            fit = fit_rp_path(ModelData(design=x, response=y + offset), [0.7])[0.7]
            shifted = fit.theta_hat.to_array() - np.array([offset, 0.0, 0.0])
            assert fit.converged
            assert fit.iterations == ref.iterations
            np.testing.assert_allclose(shifted, ref.theta_hat.to_array(), rtol=1e-6, atol=1e-6)

    def test_init_run_is_centred(self, monkeypatch):
        # the fit_rp(init=...) run works on y - X beta_MLE as the path does
        x, y = self.contaminated()
        offset = 1e10
        ref = fit_rp_path(ModelData(design=x, response=y), [0.7])[0.7]
        stages = []
        stage = estimation._newton_stage

        def recording(*args):
            stages.append(stage(*args))
            return stages[-1]

        monkeypatch.setattr(estimation, "_newton_stage", recording)
        init = Theta(beta=ref.theta_hat.beta + [offset, 0.0], sigma=1.2 * ref.theta_hat.sigma)
        fit = fit_rp(ModelData(design=x, response=y + offset), 0.7, init=init)
        assert stages[-1].converged
        shifted = fit.theta_hat.to_array() - np.array([offset, 0.0, 0.0])
        np.testing.assert_allclose(shifted, ref.theta_hat.to_array(), rtol=1e-6, atol=1e-6)

    def test_indefinite_newton_steps_have_no_units(self, monkeypatch):
        # the Newton matrix at alpha = 1 is indefinite at the
        # maximum-likelihood fit: the path halves its step there, and a run
        # started there takes saddle-free steps.  An absolute regulariser
        # (mu * I) left c >= 1e4 unconverged after 200 iterations, 67% off
        # from c >= 1e6
        gen = np.random.default_rng(451)
        n = 60
        x = np.column_stack([np.ones(n), gen.normal(size=(n, 2))])
        y = x @ np.array([1.0, 2.0, -1.0]) + gen.normal(size=n)
        y[:6] += 6.0
        saddle_free = []
        direction = estimation._saddle_free_direction

        def counting(*args):
            saddle_free.append(args)
            return direction(*args)

        monkeypatch.setattr(estimation, "_saddle_free_direction", counting)

        def fits(c):
            data = ModelData(design=x, response=c * y)
            saddle_free.clear()
            from_mle = fit_rp(data, 1.0, init=fit_mle(data).theta_hat)
            return fit_rp_path(data, [1.0])[1.0], from_mle, len(saddle_free)

        ref, ref_init, ref_steps = fits(1.0)
        assert ref.converged and ref_init.converged
        assert ref_steps > 0
        for c in (1e-8, 1e-4, 1e4, 1e6, 1e8):
            fit, from_mle, steps = fits(c)
            assert fit.converged and from_mle.converged
            assert fit.iterations == ref.iterations
            assert steps == ref_steps
            for got, want in ((fit, ref), (from_mle, ref_init)):
                np.testing.assert_allclose(
                    got.theta_hat.to_array() / c, want.theta_hat.to_array(), rtol=1e-10
                )

    def test_tiny_response_scale_fits(self):
        x, y = self.contaminated()
        ref = fit_rp(ModelData(design=x, response=y), 0.7)
        fit = fit_rp(ModelData(design=x, response=1e-12 * y), 0.7)
        assert fit.converged
        np.testing.assert_allclose(
            fit.theta_hat.to_array() * 1e12, ref.theta_hat.to_array(), rtol=1e-10
        )

    def test_zero_response_is_degenerate(self):
        x, _ = self.contaminated()
        data = ModelData(design=x, response=np.zeros(x.shape[0]))
        with pytest.raises(DegenerateFitError):
            fit_mle(data)
        with pytest.raises(DegenerateFitError):
            fit_rp_path(data, [0.0, 0.5])


class TestExtremeResponseScales:
    """40 rows, five of them shifted by 5, at response scales where the
    kernel's numbers in the response's units would leave the range of a
    double.  The stages run at unit response scale, so a path ends there as
    it does at scale 1, with no warning; a response whose sum of squares
    overflows is refused with a DomainError."""

    @staticmethod
    def rows():
        gen = np.random.default_rng(0)
        x = np.column_stack([np.ones(40), gen.standard_normal(40)])
        y = x @ np.array([1.0, 2.0]) + gen.standard_normal(40)
        y[:5] += 5.0
        return x, y

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_path_ends_as_at_unit_scale(self, scale):
        x, y = self.rows()
        ref = fit_rp_path(ModelData(design=x, response=y), (0.5, 1.0))
        fits = fit_rp_path(ModelData(design=x, response=scale * y), (0.5, 1.0))
        assert [ref[a].iterations for a in (0.5, 1.0)] == [5, 7]
        for a in (0.5, 1.0):
            assert fits[a].converged and ref[a].converged
            assert fits[a].iterations == ref[a].iterations
            np.testing.assert_allclose(
                fits[a].theta_hat.to_array() / scale, ref[a].theta_hat.to_array(), rtol=1e-14
            )
            # the value scales as sigma^(-a/(1+a))
            assert fits[a].objective_value * scale ** (a / (1 + a)) == pytest.approx(
                ref[a].objective_value, rel=1e-14
            )
        # on to 1e4 the path collapses at scale 1, and below a floor scale
        # times as high here
        floors = []
        for c in (1.0, scale):
            with pytest.raises(DegenerateFitError, match="scale collapsed below") as err:
                fit_rp_path(ModelData(design=x, response=c * y), (0.5, 1.0, 1e4))
            floors.append(float(str(err.value).split()[3]) / c)
        assert floors[1] == pytest.approx(floors[0], rel=1e-3)

    def test_line_search_slack_has_no_units(self):
        # the slack 1e-14 (1 + |V|) is taken on the unit-scale V; on the
        # response's V it exceeded V at large scales and let poor steps in
        gen = np.random.default_rng(646)
        y = gen.normal(size=12)
        y[0] += 5.0
        fit = fit_rp_path(ModelData(design=np.ones((12, 1)), response=y), [1.3125])[1.3125]
        assert (fit.converged, fit.iterations) == (True, 3)
        for exponent in range(-160, 141, 20):
            c = 10.0**exponent
            moved = fit_rp_path(ModelData(design=np.ones((12, 1)), response=c * y), [1.3125])
            assert (moved[1.3125].converged, moved[1.3125].iterations) == (True, 3)
            assert moved[1.3125].theta_hat.sigma / c == pytest.approx(fit.theta_hat.sigma, rel=1e-13)

    @pytest.mark.parametrize(
        "response",
        [
            # the residuals' sum of squares overflows
            lambda x, y: 1e155 * y,
            # only the response's: an exact line, its residuals rounding
            lambda x, y: 1e160 * (x @ np.array([1.0, 2.0])),
        ],
    )
    def test_overflowing_sum_of_squares_is_refused(self, response):
        # an overflow RuntimeWarning would fail the test too
        data = ModelData(design=self.rows()[0], response=response(*self.rows()))
        with pytest.raises(DomainError, match="sum of squares overflows"):
            fit_mle(data)
        with pytest.raises(DomainError, match="sum of squares overflows"):
            fit_rp_path(data, [0.5])


@pytest.mark.parametrize("p, n", [(1, 12), (2, 40)])
def test_subnormal_alpha_ends_with_a_flag(p, n):
    # at alpha 5e-324 the kernel's a * c underflows: the Newton matrix and
    # every curvature of the saddle-free metric are 0, so there is no
    # direction, and the stage ends unconverged at the maximum-likelihood fit
    gen = np.random.default_rng(0)
    x = np.column_stack([np.ones(n), gen.standard_normal((n, p - 1))])
    data = ModelData(design=x, response=x @ np.arange(1.0, p + 1) + gen.standard_normal(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_rp_path(data, [5e-324])[5e-324]
    assert not fit.converged
    assert fit.iterations == 0
    mle = fit_mle(data).theta_hat
    assert np.array_equal(fit.theta_hat.beta, mle.beta)
    assert fit.theta_hat.sigma == pytest.approx(mle.sigma, rel=1e-15)


class TestStepControl:
    """The path steps straight to each target and halves a step whose stage
    fails; it then ends on the branch that a 0.01 ladder follows."""

    ALPHAS = (0.2, 0.5, 1.0)
    LADDER = tuple(0.01 * k for k in range(1, 101))
    # (n, p, share of rows shifted, shift)
    SETS = {"A": (30, 2, 0.2, 5.0), "B": (50, 3, 0.3, 4.0)}

    @classmethod
    def draw(cls, name, seed):
        n, p, share, shift = cls.SETS[name]
        gen = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
        y = x @ np.ones(p) + gen.normal(size=n)
        y[: int(share * n)] += shift
        return ModelData(design=x, response=y)

    @staticmethod
    def record_stages(monkeypatch):
        stages = []
        stage = estimation._newton_stage

        def recording(x, y, beta, s, a, floor, xtx, saddle_free=True):
            stages.append((a, saddle_free))
            return stage(x, y, beta, s, a, floor, xtx, saddle_free)

        monkeypatch.setattr(estimation, "_newton_stage", recording)
        return stages

    # without halving, stages straight to the targets leave the branch or
    # collapse on each of these seeds but B 94, where a fixed 0.1 ladder
    # collapsed
    @pytest.mark.parametrize(
        "name,seed",
        [("A", 96), ("A", 289), ("B", 22), ("B", 90), ("B", 94), ("B", 130), ("B", 223),
         ("B", 256)],
    )
    def test_hard_seeds_follow_fine_ladder(self, name, seed):
        data = self.draw(name, seed)
        fits = fit_rp_path(data, self.ALPHAS)
        ref = fit_rp_path(data, self.LADDER)
        for a in self.ALPHAS:
            assert fits[a].converged == ref[a].converged
            np.testing.assert_allclose(
                fits[a].theta_hat.to_array(), ref[a].theta_hat.to_array(), rtol=1e-6
            )

    def test_clean_data_steps_straight_to_targets(self, monkeypatch, rng):
        data = random_instance(rng, n=200, p=3)
        stages = self.record_stages(monkeypatch)
        fits = fit_rp_path(data, (0.0,) + self.ALPHAS)
        assert all(f.converged for f in fits.values())
        assert stages == [(a, False) for a in self.ALPHAS]

    def test_halving_reaches_floor(self, monkeypatch):
        data = self.draw("A", 289)
        ref = fit_rp_path(data, self.LADDER)
        stages = self.record_stages(monkeypatch)
        fits = fit_rp_path(data, self.ALPHAS)
        # only a stage whose step was halved down to the floor may take
        # saddle-free steps
        assert any(saddle_free for _, saddle_free in stages)
        assert len(stages) > len(self.ALPHAS)
        for a in self.ALPHAS:
            assert fits[a].converged
            np.testing.assert_allclose(
                fits[a].theta_hat.to_array(), ref[a].theta_hat.to_array(), rtol=1e-6
            )

    def test_collapsed_stage_is_retried_with_half_the_step(self, monkeypatch, rng):
        # a stage over a step above the floor that collapses is abandoned
        # as an unconverged one is: the path retries from the last fit
        data = random_instance(rng, n=200, p=3)
        stages = []
        stage = estimation._newton_stage

        def collapsing_once(x, y, beta, s, a, *args):
            stages.append(a)
            if len(stages) == 1:
                raise DegenerateFitError("scale collapsed")
            return stage(x, y, beta, s, a, *args)

        monkeypatch.setattr(estimation, "_newton_stage", collapsing_once)
        fit = fit_rp_path(data, [1.0])[1.0]
        assert stages == [1.0, 0.5, 1.0]
        monkeypatch.undo()
        ref = fit_rp_path(data, [0.5, 1.0])[1.0]
        np.testing.assert_array_equal(fit.theta_hat.to_array(), ref.theta_hat.to_array())


class TestSolverOptions:
    def test_only_restart_settings(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "multistart",
            "multistart_seed",
        ]

    def test_negative_multistart_refused(self):
        with pytest.raises(DomainError):
            SolverOptions(multistart=-3)
