"""Influence functions, gross-error sensitivity, and relative efficiency."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from renyireg import numerics, robustness
from renyireg.estimation import covariance_mlrm
from renyireg.exceptions import DomainError
from renyireg.inference import LinearHypothesis
from renyireg.model import ModelData, NormalLinearFamily, QuadratureFamily, Theta
from renyireg.robustness import (
    IFRequest,
    UNBOUNDED_SENSITIVITY,
    are,
    gross_error_sensitivity,
    if2_composite,
    if2_simple,
    if_general,
    if_mlrm_closed,
)


def small_data(rng, n=8):
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = x @ np.array([1.0, 1.0]) + rng.normal(size=n)
    return ModelData(design=x, response=y)


class TestFirstOrder:
    def test_quadrature_route_matches_closed_form(self, rng):
        # 20-case battery over random grids of 1 to 3 contamination points,
        # parameters, tuning values, and single or all directions; the
        # general route goes through numerical integrals
        data = small_data(rng)
        quad = QuadratureFamily(NormalLinearFamily(data.design))
        for case in range(20):
            theta = Theta(beta=rng.normal(size=2), sigma=float(rng.uniform(0.5, 2.5)))
            alpha = float(rng.uniform(0.05, 1.5))
            points = rng.normal(scale=4.0, size=1 + case % 3)
            direction = "all" if case % 2 else int(rng.integers(0, data.n_obs))
            req = IFRequest(
                contamination_points=points, theta=theta, alpha=alpha, direction=direction
            )
            general = if_general(quad, data, req).first_order
            closed = if_mlrm_closed(data, req).first_order
            assert general.shape == closed.shape == (points.size, 3)
            scale = np.maximum(np.abs(closed), 1e-12)
            assert np.max(np.abs(general - closed) / scale) < 1e-6, (case, direction)

    def test_three_quadrature_calls_per_block(self, rng, monkeypatch):
        calls = []
        integrate = numerics.integrate

        def counting(fn, center, scale):
            calls.append(np.shape(center))
            return integrate(fn, center, scale)

        monkeypatch.setattr(numerics, "integrate", counting)
        data = small_data(rng, n=8)
        quad = QuadratureFamily(NormalLinearFamily(data.design))
        theta = Theta(beta=np.array([1.0, 0.5]), sigma=1.3)
        for direction in ("all", 5):
            req = IFRequest(np.linspace(-4, 4, 11), theta, 0.4, direction)
            calls.clear()
            whole = if_general(quad, data, req).first_order
            assert calls == [(8,)] * 3
            # a budget of 256 evaluation points holds four directions of 64
            # nodes; a budget of 1 still takes one direction per block
            for block, sizes in ((256, [(4,)] * 6), (1, [(1,)] * 24)):
                with monkeypatch.context() as patch:
                    patch.setattr(robustness, "_STACKED_BLOCK_RESIDUALS", block)
                    calls.clear()
                    blocked = if_general(quad, data, req).first_order
                assert calls == sizes
                assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_many_directions_match_closed_form(self, rng):
        # several blocks of directions at the default block size
        data = small_data(rng, n=3000)
        quad = QuadratureFamily(NormalLinearFamily(data.design))
        theta = Theta(beta=np.array([0.9, 1.1]), sigma=0.8)
        req = IFRequest(np.linspace(-3.0, 5.0, 7), theta, 0.5, "all")
        general = if_general(quad, data, req).first_order
        closed = if_mlrm_closed(data, req).first_order
        scale = np.maximum(np.abs(closed), 1e-12)
        assert np.max(np.abs(general - closed) / scale) < 1e-6

    def test_family_must_cover_the_data(self, rng):
        data = small_data(rng, n=8)
        quad = QuadratureFamily(NormalLinearFamily(data.design[:5]))
        req = IFRequest([1.0, 3.0], Theta(beta=np.ones(2), sigma=1.0), 0.5, direction=2)
        with pytest.raises(DomainError):
            if_general(quad, data, req)

    def test_zero_residual_beta_component_vanishes(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        t = float(data.design[3] @ theta.beta)
        req = IFRequest(contamination_points=[t], theta=theta, alpha=0.5, direction=3)
        report = if_mlrm_closed(data, req)
        assert np.max(np.abs(report.first_order[0][:2])) < 1e-12

    def test_all_directions_is_sum_of_singles(self, rng):
        data = small_data(rng, n=5)
        theta = Theta(beta=np.array([0.8, 1.2]), sigma=1.1)
        t = 2.7
        total = if_mlrm_closed(
            data, IFRequest(contamination_points=[t], theta=theta, alpha=0.4)
        ).first_order[0]
        parts = sum(
            if_mlrm_closed(
                data,
                IFRequest(contamination_points=[t], theta=theta, alpha=0.4, direction=i),
            ).first_order[0]
            for i in range(5)
        )
        np.testing.assert_allclose(total, parts, rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 100])
    @pytest.mark.parametrize("direction", ["all", 3])
    def test_stacked_scores_independent_of_block_size(self, rng, monkeypatch, block, direction):
        # the default block holds all 25 x 40 residuals at once; 1 takes one
        # point per block, 100 two points with a short last block
        data = small_data(rng, n=40)
        theta = Theta(beta=np.array([0.8, 1.2]), sigma=1.1)
        points = rng.normal(scale=4.0, size=25)
        req = IFRequest(contamination_points=points, theta=theta, alpha=0.6, direction=direction)
        whole = robustness._stacked_scores(data, req)
        monkeypatch.setattr(robustness, "_STACKED_BLOCK_RESIDUALS", block)
        blocked = robustness._stacked_scores(data, req)
        assert blocked.shape == whole.shape == (25, 3)
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_mle_influence_unbounded(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        mean0 = float(data.design[0] @ theta.beta)
        beta_norms = []
        full_norms = []
        for k in (10.0, 100.0, 1000.0):
            req = IFRequest(
                contamination_points=[mean0 + k * theta.sigma],
                theta=theta,
                alpha=0.0,
                direction=0,
            )
            report = if_mlrm_closed(data, req)
            beta_norms.append(float(np.linalg.norm(report.first_order[0][:2])))
            full_norms.append(report.sup_norm)
        # the coefficient part grows linearly in the residual; the full norm
        # grows without bound as well (the scale part is quadratic)
        assert beta_norms[1] / beta_norms[0] == pytest.approx(10.0, rel=1e-6)
        assert beta_norms[2] / beta_norms[1] == pytest.approx(10.0, rel=1e-6)
        assert full_norms[0] < full_norms[1] < full_norms[2]

    def test_robust_influence_bounded(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        grid = np.linspace(-1e6, 1e6, 20001)
        for alpha in (0.25, 0.75):
            req = IFRequest(contamination_points=grid, theta=theta, alpha=alpha, direction=0)
            report = if_mlrm_closed(data, req)
            assert np.isfinite(report.sup_norm)
            # supremum attained well inside the grid, not at its edge
            norms = np.linalg.norm(report.first_order, axis=1)
            assert norms[0] < 1e-12 and norms[-1] < 1e-12

    def test_classical_mle_form(self, rng):
        # at alpha = 0 the influence is sigma * r * S^{-1} x for beta
        data = small_data(rng)
        theta = Theta(beta=np.array([0.5, -0.5]), sigma=1.3)
        i0, t = 2, 3.11
        req = IFRequest(contamination_points=[t], theta=theta, alpha=0.0, direction=i0)
        out = if_mlrm_closed(data, req).first_order[0]
        s = data.design.T @ data.design / data.n_obs
        r = (t - data.design[i0] @ theta.beta) / theta.sigma
        expected_beta = theta.sigma * r * np.linalg.solve(s, data.design[i0])
        np.testing.assert_allclose(out[:2], expected_beta, rtol=1e-10)


class TestSecondOrder:
    def test_identity_with_first_order(self, rng):
        # reference: 2 IF' Sigma^{-1} IF from the first-order output by a
        # direct solve
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        req = IFRequest(
            contamination_points=[0.3, 2.5, -4.0], theta=theta, alpha=0.6, direction=1
        )
        report = if2_simple(data, req)
        sigma = covariance_mlrm(data, theta, 0.6).sigma_n
        for vec, second in zip(report.first_order, report.second_order_simple):
            direct = 2.0 * vec @ np.linalg.solve(sigma, vec)
            assert second == pytest.approx(direct, rel=1e-10)
            assert second >= 0.0

    def test_simple_is_composite_with_identity(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        req = IFRequest(contamination_points=[0.3, 2.5, -4.0], theta=theta, alpha=0.6)
        simple = if2_simple(data, req)
        # LinearHypothesis needs r < dim(theta); M = I is the simple null
        composite = if2_composite(data, req, SimpleNamespace(m_matrix=np.eye(3)))
        np.testing.assert_array_equal(simple.first_order, composite.first_order)
        np.testing.assert_array_equal(
            simple.second_order_simple, composite.second_order_composite
        )
        assert simple.second_order_composite is None
        assert composite.second_order_simple is None

    def test_zero_score_point(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        # at r^2 = 1/(1+alpha) both beta and sigma parts... only beta is 0
        # at r = 0; pick the hypothesis selecting beta only
        t = float(data.design[0] @ theta.beta)
        req = IFRequest(contamination_points=[t], theta=theta, alpha=0.5, direction=0)
        hyp = LinearHypothesis.coordinates([0, 1], [1.0, 1.0], 3)
        report = if2_composite(data, req, hyp)
        assert report.second_order_composite[0] == pytest.approx(0.0, abs=1e-20)

    def test_composite_below_simple_for_coordinate_projection(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        pts = [1.7, -2.2, 4.0]
        req = IFRequest(contamination_points=pts, theta=theta, alpha=0.4, direction=0)
        simple = if2_simple(data, req).second_order_simple
        hyp = LinearHypothesis.coordinates([2], [1.0], 3)  # sigma selector
        composite = if2_composite(data, req, hyp).second_order_composite
        # the sigma coordinate is orthogonal to the beta block, so the
        # projected quadratic form cannot exceed the full one
        assert np.all(composite <= simple + 1e-12)


class TestGrossError:
    def test_closed_form_matches_numeric_sup(self, rng):
        data = small_data(rng)
        for sigma, alpha in ((1.0, 0.5), (2.0, 0.3), (0.7, 1.0)):
            theta = Theta(beta=np.array([1.0, -0.4]), sigma=sigma)
            gb, gs = gross_error_sensitivity(data, 2, theta, alpha)
            mean2 = float(data.design[2] @ theta.beta)
            grid = mean2 + sigma * np.linspace(-20, 20, 40001)
            req = IFRequest(contamination_points=grid, theta=theta, alpha=alpha, direction=2)
            values = if_mlrm_closed(data, req).first_order
            sup_beta = float(np.max(np.linalg.norm(values[:, :2], axis=1)))
            sup_sigma = float(np.max(np.abs(values[:, 2])))
            assert gb == pytest.approx(sup_beta, rel=1e-3)
            assert gs == pytest.approx(sup_sigma, rel=1e-3)

    def test_sigma_part_value_at_alpha_one(self, rng):
        # direct substitution: 2^{5/2} e^{-5/4} at sigma = 1
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        _, gs = gross_error_sensitivity(data, 0, theta, 1.0)
        assert gs == pytest.approx(2.0**2.5 * math.exp(-1.25), rel=1e-12)
        assert gs == pytest.approx(1.6207, abs=5e-4)

    def test_beta_part_linear_in_sigma(self, rng):
        data = small_data(rng)
        a = 0.6
        g1, _ = gross_error_sensitivity(data, 1, Theta(beta=np.zeros(2), sigma=1.0), a)
        g3, _ = gross_error_sensitivity(data, 1, Theta(beta=np.zeros(2), sigma=3.0), a)
        assert g3 == pytest.approx(3.0 * g1, rel=1e-12)

    def test_unbounded_at_mle(self, rng):
        data = small_data(rng)
        gb, gs = gross_error_sensitivity(data, 0, Theta(beta=np.zeros(2), sigma=1.0), 0.0)
        assert gb == UNBOUNDED_SENSITIVITY and gs == UNBOUNDED_SENSITIVITY

    def test_optimal_alpha_locations(self, rng):
        # golden-section search over alpha for each component's sensitivity
        data = small_data(rng)
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)

        def golden_min(fn, lo, hi, tol=1e-6):
            ratio = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, hi
            c, d = b - ratio * (b - a), a + ratio * (b - a)
            while abs(b - a) > tol:
                if fn(c) < fn(d):
                    b, d = d, c
                    c = b - ratio * (b - a)
                else:
                    a, c = c, d
                    d = a + ratio * (b - a)
            return 0.5 * (a + b)

        amin_beta = golden_min(
            lambda a: gross_error_sensitivity(data, 0, theta, a)[0], 0.05, 2.0
        )
        amin_sigma = golden_min(
            lambda a: gross_error_sensitivity(data, 0, theta, a)[1], 0.05, 2.0
        )
        assert amin_beta == pytest.approx(0.5, abs=1e-3)
        assert amin_sigma == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-3)


class TestEfficiency:
    def test_mle_reference(self):
        assert are(0.0) == (1.0, 1.0)

    def test_published_table_cells(self):
        eb, es = are(0.5)
        assert eb == pytest.approx(0.8381, abs=5e-5)
        assert es == pytest.approx(0.7057, abs=5e-5)
        eb, es = are(1.5)
        assert eb == pytest.approx(0.5120, abs=5e-5)
        assert es == pytest.approx(0.2777, abs=5e-5)

    def test_monotone_and_ordered(self):
        grid = np.linspace(0.0, 1.5, 31)
        vals = [are(a) for a in grid]
        betas = [v[0] for v in vals]
        sigmas = [v[1] for v in vals]
        assert all(b2 < b1 for b1, b2 in zip(betas[:-1], betas[1:]))
        assert all(s2 < s1 for s1, s2 in zip(sigmas[:-1], sigmas[1:]))
        assert all(s <= b for b, s in vals)
        assert all(0.0 < v <= 1.0 for pair in vals for v in pair)

    def test_domain(self):
        for alpha in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                are(alpha)


class TestRequestValidation:
    def test_bad_direction(self, rng):
        data = small_data(rng)
        theta = Theta(beta=np.zeros(2), sigma=1.0)
        req = IFRequest(contamination_points=[0.0], theta=theta, alpha=0.3, direction=99)
        with pytest.raises(DomainError):
            if_mlrm_closed(data, req)

    def test_needs_points(self):
        with pytest.raises(DomainError):
            IFRequest(
                contamination_points=[], theta=Theta(beta=np.zeros(1), sigma=1.0), alpha=0.3
            )

    @pytest.mark.parametrize(
        "points, alpha, direction",
        [
            ([0.0], 0.3, True),
            ([0.0], 0.3, np.bool_(False)),
            ([0.0], 0.3, 1.0),
            ([0.0], 0.3, "All"),
            ([0.0], math.nan, 0),
            ([0.0], math.inf, "all"),
            ([0.0], -0.1, 0),
            ([0.0, math.nan], 0.3, 0),
            ([math.inf], 0.3, "all"),
        ],
    )
    def test_rejects_malformed_request(self, points, alpha, direction):
        with pytest.raises(DomainError):
            IFRequest(points, Theta(beta=np.zeros(2), sigma=1.0), alpha, direction)

    @pytest.mark.parametrize(
        "i0, alpha", [(True, 0.5), (1.0, 0.5), (-1, 0.5), (0, math.nan), (0, math.inf)]
    )
    def test_gross_error_rejects_malformed_arguments(self, rng, i0, alpha):
        data = small_data(rng)
        with pytest.raises(DomainError):
            gross_error_sensitivity(data, i0, Theta(beta=np.zeros(2), sigma=1.0), alpha)
