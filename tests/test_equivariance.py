"""Property tests: the estimator, the Wald test and the influence function
do not depend on the units of the data or on the order of its rows.

Under y -> c y + X d the estimate maps to (c beta + d, c sigma); under
X -> X A to (A^{-1} beta, sigma); a row permutation leaves it unchanged.
Each fit of the transformed data is compared with the fit of the original
after mapping back.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from renyireg.estimation import fit_rp_path
from renyireg.exceptions import DegenerateFitError
from renyireg.inference import LinearHypothesis, wald_composite
from renyireg.model import ModelData
from renyireg.robustness import IFRequest, if_mlrm_closed

ALPHAS = (0.0, 0.3, 0.7, 1.0)
N, P = 60, 3
# equivariance of the estimates, relative to the largest entry of theta
RTOL = 1e-10
# the Wald statistic and the influence function amplify an estimate's
# relative error by at most the statistic's size and the squared
# standardized residual of the farthest contamination point (< 1e2 here)
RTOL_DERIVED = 1e-7

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def analyse(x, y, hyp, direction, points):
    """Fits over ALPHAS, and at each alpha the Wald p-value of ``hyp`` and the
    closed-form influence function of row ``direction`` at ``points``; None
    when the continuation collapses onto an interpolating fit."""
    data = ModelData(design=x, response=y)
    try:
        fits = fit_rp_path(data, ALPHAS)
    except DegenerateFitError:
        return None
    out = {}
    for a in ALPHAS:
        fit = fits[a]
        req = IFRequest(
            contamination_points=points, theta=fit.theta_hat, alpha=a, direction=direction
        )
        out[a] = (
            (fit.converged, fit.iterations),
            fit.theta_hat.to_array(),
            wald_composite(data, fit, hyp).p_value,
            if_mlrm_closed(data, req).first_order,
        )
    return out


def check(base, moved, t_inv, shift):
    """The moved problem's parameter is theta' = T theta + shift; its
    estimates map back through ``t_inv`` = T^{-1} after removing the shift,
    and its influence functions, as derivatives, through ``t_inv`` alone."""
    assert (moved is None) == (base is None)
    for a in ALPHAS if base else ():
        flags, theta, p_value, influence = base[a]
        flags2, theta2, p_value2, influence2 = moved[a]
        assert flags2 == flags
        gap = np.max(np.abs(t_inv @ (theta2 - shift) - theta))
        assert gap <= RTOL * np.max(np.abs(theta))
        assert abs(p_value2 - p_value) <= RTOL_DERIVED * p_value
        gap = np.max(np.abs(influence2 @ t_inv.T - influence))
        assert gap <= RTOL_DERIVED * np.max(np.abs(influence))


def setting(seed):
    """Three-column design with 10% of the responses shifted by 6 sigma, a
    joint test of beta1 and sigma at the values that generated the data, and
    contamination points spanning the responses."""
    gen = np.random.default_rng(seed)
    x = np.column_stack([np.ones(N), gen.normal(size=(N, P - 1))])
    y = x @ np.array([1.0, 2.0, -1.0]) + gen.normal(size=N)
    y[: N // 10] += 6.0
    hyp = LinearHypothesis.coordinates([1, P], [2.0, 1.0], P + 1)
    points = np.linspace(y.min() - 3.0, y.max() + 3.0, 9)
    return x, y, hyp, points


@PROPERTY
@given(
    seed=seeds,
    log_c=st.floats(-150.0, 150.0),
    d=st.lists(st.floats(-5.0, 5.0), min_size=P, max_size=P),
)
def test_response_affine_equivariance(seed, log_c, d):
    x, y, hyp, points = setting(seed)
    c = 10.0**log_c
    d = c * np.asarray(d)  # a shift in the units of c * y
    direction = 0
    base = analyse(x, y, hyp, direction, points)
    # theta' = c theta + (d, 0): M' theta = m  <=>  (M / c)' theta' = m + M' (d / c, 0)
    shift = np.append(d, 0.0)
    hyp2 = LinearHypothesis(hyp.m_matrix / c, hyp.m_vector + hyp.m_matrix.T @ shift / c)
    points2 = c * points + x[direction] @ d
    moved = analyse(x, c * y + x @ d, hyp2, direction, points2)
    check(base, moved, np.eye(P + 1) / c, shift)


@PROPERTY
@given(seed=seeds, log_scales=st.lists(st.floats(-1.0, 1.0), min_size=P, max_size=P))
def test_design_linear_equivariance(seed, log_scales):
    x, y, hyp, points = setting(seed)
    # a random rotation times scales in [0.1, 10]: condition number <= 100
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(P, P)))
    a_mat = q @ np.diag(10.0 ** np.asarray(log_scales))
    direction = 1
    base = analyse(x, y, hyp, direction, points)
    # theta' = T theta with T = diag(A^{-1}, 1): M' theta = m  <=>  (T^{-T} M)' theta' = m
    t_inv = np.eye(P + 1)
    t_inv[:P, :P] = a_mat
    hyp2 = LinearHypothesis(t_inv.T @ hyp.m_matrix, hyp.m_vector)
    moved = analyse(x @ a_mat, y, hyp2, direction, points)
    check(base, moved, t_inv, 0.0)


@PROPERTY
@given(seed=seeds, perm=st.permutations(range(N)))
def test_row_permutation_invariance(seed, perm):
    x, y, hyp, points = setting(seed)
    perm = np.asarray(perm)
    direction = 2
    base = analyse(x, y, hyp, direction, points)
    # row ``direction`` of the original is row argsort(perm)[direction] after
    moved = analyse(x[perm], y[perm], hyp, int(np.argsort(perm)[direction]), points)
    check(base, moved, np.eye(P + 1), 0.0)
