"""Influence analysis of the estimator and of the Wald-type tests:
first-order influence functions (generic quadrature route and the normal
closed form), second-order influence of the test functionals, gross-error
sensitivity, and asymptotic relative efficiency.

Conventions.  The influence function in direction ``i0`` is the Gateaux
derivative of the estimating functional under contamination of that single
direction, scaled by n:

    IF(t) = Psi_n^{-1} psi_{i0}(t),

where ``psi_i`` is the per-observation estimating score and ``Psi_n`` the
averaged sensitivity matrix in the same normalization (the one returned by
``covariance_mlrm``).  For the normal family both components then carry the
physically correct units (response units for the coefficient part, scale
units for the sigma part), and the coefficient part of the gross-error
sensitivity is ``sigma (1+a)^{3/2} a^{-1/2} e^{-1/2} ||S^{-1} x_{i0}||``;
the sigma part is ``sigma (1+a)^{5/2} a^{-1} exp(-(3a+2)/(2(a+1)))``, i.e.
proportional to sigma like every scale statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .estimation import _normal_factors, _sigma_n
from .exceptions import DecompositionError, DomainError, _check_dimension, check_alpha, is_index
from .inference import LinearHypothesis
from .model import DensityFamily, ModelData, Theta, _check_family, _power_mass

__all__ = [
    "IFRequest",
    "IFReport",
    "if_general",
    "if_mlrm_closed",
    "if2_simple",
    "if2_composite",
    "gross_error_sensitivity",
    "are",
    "UNBOUNDED_SENSITIVITY",
]

UNBOUNDED_SENSITIVITY = math.inf


@dataclass(frozen=True)
class IFRequest:
    """Which direction to contaminate and where.

    ``direction`` is an observation index, or ``"all"`` to contaminate every
    direction at the same point.
    """

    contamination_points: np.ndarray
    theta: Theta
    alpha: float
    direction: int | str = "all"

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.contamination_points, dtype=float))
        object.__setattr__(self, "contamination_points", pts)
        if pts.ndim != 1:
            raise DomainError(f"contamination_points must be a vector, got shape {pts.shape}")
        if pts.size < 1:
            raise DomainError("need at least one contamination point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("contamination points must be finite")
        check_alpha(self.alpha)
        direction = self.direction
        if not (is_index(direction) or isinstance(direction, str) and direction == "all"):
            raise DomainError("direction must be an observation index or 'all'")


@dataclass(frozen=True)
class IFReport:
    points: np.ndarray
    first_order: np.ndarray
    sup_norm: float
    second_order_simple: np.ndarray | None = None
    second_order_composite: np.ndarray | None = None


def _report(req: IFRequest, first_order: np.ndarray) -> IFReport:
    return IFReport(
        points=req.contamination_points,
        first_order=first_order,
        sup_norm=float(np.max(np.hypot.reduce(first_order, axis=1))),
    )


def _direction_indices(req: IFRequest, n: int) -> np.ndarray:
    if isinstance(req.direction, str):
        return np.arange(n)
    if not is_index(req.direction, n):
        raise DomainError(f"direction {req.direction} outside 0..{n - 1}")
    return np.array([int(req.direction)])


# ---------------------------------------------------------------------------
# general (integral-contract) route
# ---------------------------------------------------------------------------

def if_general(family: DensityFamily, data: ModelData, req: IFRequest) -> IFReport:
    """First-order influence through the family's integral contract.

    Works for any family (quadrature-backed or closed-form) whose directions
    are the observations of ``data``.  The directions are taken in blocks,
    each one index array for the family: per block three integrals give the
    block's share of the averaged sensitivity matrix, and the contaminated
    directions in it add their estimating scores.  The matrix is the
    difference of the two per-direction curvature blocks of the estimating
    equations; at the model they share every integral, with exponent
    alpha + 1 throughout, the score-Jacobian integral cancels, and what is
    left is the tilted score covariance j2 / j0 - m m', m = j1 / j0.  Where
    j0 is not a positive normal double, ``ArithmeticError`` names alpha.
    """
    theta, alpha, n = req.theta, req.alpha, data.n_obs
    _check_family(family, data, theta)
    c = alpha + 1.0
    pts = req.contamination_points
    hit = np.zeros(n, dtype=bool)
    hit[_direction_indices(req, n)] = True
    total = np.zeros((family.param_dim, family.param_dim))
    num = np.zeros((pts.size, family.param_dim))
    size = max(1, numerics.BLOCK_POINTS // max(numerics.QUADRATURE_NODES, pts.size))
    for start in range(0, n, size):
        block = np.arange(start, min(start + size, n))
        j0 = _power_mass(family, block, theta, alpha)
        m = family.power_score_integral(block, theta, c) / j0[:, None]
        j2 = family.power_score_outer_integral(block, theta, c)
        total += np.sum(j2 / j0[:, None, None] - m[:, :, None] * m[:, None, :], axis=0)
        sel = hit[block]
        if sel.any():
            # the estimating score of direction i at t, f_i(t)^alpha (u_i(t) - m_i) / j0_i,
            # is 1/sqrt(1+alpha)-tilted relative to the psi normalization; the
            # matrix carries the same factor, so scaling cancels.  f^alpha / j0
            # is one exponential: f^alpha alone underflows at huge alpha
            i = block[sel]
            u = family.score_vector(i, pts[None, :], theta)
            log_f = family.log_density(i, pts[None, :], theta)
            weight = np.exp(alpha * log_f - np.log(j0[sel, None]))
            num += np.sum(weight[..., None] * (u - m[sel, None, :]), axis=0)
    try:
        m_inv = numerics.spd_inverse(total / n)
    except DecompositionError as err:
        raise DecompositionError(f"sensitivity matrix singular: {err}") from err
    return _report(req, num @ m_inv.T)


# ---------------------------------------------------------------------------
# normal-family closed form
# ---------------------------------------------------------------------------

def _stacked_scores(data: ModelData, req: IFRequest) -> np.ndarray:
    """Sum over the contaminated directions of sigma psi_i(t) at each point,
    for the normal linear family in the estimating-equation normalization:
    psi_i(t) = exp(-a r^2/2) (r x_i, r^2 - 1/(1+a)) / sigma.

    The residuals form one points x directions matrix, taken in blocks of
    whole points of at most ``numerics.BLOCK_POINTS`` entries (one point
    when a point alone is larger), so memory stays O(n p).
    """
    x = data.design[_direction_indices(req, data.n_obs)]
    sig, alpha = req.theta.sigma, req.alpha
    fitted = x @ req.theta.beta
    pts = req.contamination_points
    out = np.empty((pts.size, data.n_params + 1))
    rows = max(1, numerics.BLOCK_POINTS // fitted.size)
    for start in range(0, pts.size, rows):
        block = slice(start, start + rows)
        r = (pts[block, None] - fitted) / sig
        w = np.exp(-0.5 * alpha * r * r)
        out[block, :-1] = (w * r) @ x
        out[block, -1] = np.sum(w * (r * r - 1.0 / (1.0 + alpha)), axis=1)
    return out


def if_mlrm_closed(data: ModelData, req: IFRequest) -> IFReport:
    """Closed-form first-order influence for the normal linear model.

    ``IF = psi_n^{-1} psi_{i0}(t)``; the coefficient part is
    ``sigma (1+a)^{3/2} e^{-a r^2/2} r S^{-1} x_{i0}`` and the sigma part
    ``sigma (1+a)^{5/2}/2 e^{-a r^2/2} (r^2 - 1/(1+a))``.  At ``alpha = 0``
    the coefficient part grows linearly in the residual (the unbounded
    maximum-likelihood case); for ``alpha > 0`` both parts vanish at extreme
    contamination.  ``S^{-1}`` is applied first, then ``sigma^2`` times the
    scores are the factors' scale: an underflowed score gives 0, and an
    influence beyond the double range inf, without a warning.
    """
    _check_dimension("theta", req.theta.dim, data.n_params + 1)
    with np.errstate(over="ignore"):
        scores = _stacked_scores(data, req) * req.theta.sigma
        scores[:, :-1] = scores[:, :-1] @ data.xtx_over_n_inverse
        sandwich_beta, sandwich_sigma, ratio_beta, ratio_sigma = _normal_factors(req.alpha, scores)
        first_order = np.column_stack(
            [sandwich_beta[:, :-1] / ratio_beta, sandwich_sigma[:, -1] / ratio_sigma]
        )
    return _report(req, first_order)


# ---------------------------------------------------------------------------
# second-order influence of the Wald functionals
# ---------------------------------------------------------------------------

def _second_order(data: ModelData, req: IFRequest, m: np.ndarray):
    """The first-order report and ``2 IF' M (M' sigma_n M)^{-1} M' IF`` for
    the restriction matrix ``M``.  A ``sigma_n`` with a non-finite entry is
    refused as ``spd_inverse`` refuses the NaN or inf system it would give."""
    base = if_mlrm_closed(data, req)
    sigma_n = _sigma_n(data.xtx_over_n_inverse, req.theta.sigma, req.alpha)
    if not np.isfinite(sigma_n).all():
        raise numerics._not_positive_definite(0)
    inner = m.T @ sigma_n @ m
    projected = base.first_order @ m
    return base, 2.0 * np.einsum(
        "ki,ij,kj->k", projected, numerics.spd_inverse(inner), projected
    )


def if2_simple(data: ModelData, req: IFRequest) -> IFReport:
    """Second-order influence of the simple-null Wald functional.

    The first-order term vanishes at the null, leaving the quadratic
    ``2 psi' psi_n^{-1} sigma_n^{-1} psi_n^{-1} psi = 2 IF' sigma_n^{-1} IF``,
    the ``M = I`` case of the composite null.
    """
    base, second = _second_order(data, req, np.eye(data.n_params + 1))
    return replace(base, second_order_simple=second)


def if2_composite(data: ModelData, req: IFRequest, hyp: LinearHypothesis) -> IFReport:
    """Second-order influence of the composite-null Wald functional:
    ``2 [psi_n^{-1} psi]' M (M' sigma_n M)^{-1} M' [psi_n^{-1} psi]``."""
    _check_dimension("restriction matrix", hyp.m_matrix.shape[0], data.n_params + 1)
    base, second = _second_order(data, req, hyp.m_matrix)
    return replace(base, second_order_composite=second)


# ---------------------------------------------------------------------------
# gross-error sensitivity and efficiency
# ---------------------------------------------------------------------------

def gross_error_sensitivity(data: ModelData, i0: int, theta: Theta, alpha: float):
    """Supremum over contamination points of the influence norm, split into
    the coefficient and scale components.

    Closed forms: ``psi_n^{-1}`` applied to the scores at their peaks,
    standardized residual ``1/sqrt(a)`` and ``r^2 = (3a+2)/(a(a+1))``.  Both
    are infinite at ``alpha = 0``.
    """
    if not is_index(i0, data.n_obs):
        raise DomainError(f"direction {i0!r} is not an index in 0..{data.n_obs - 1}")
    _check_dimension("theta", theta.dim, data.n_params + 1)
    a = check_alpha(alpha)
    if a == 0.0:
        return UNBOUNDED_SENSITIVITY, UNBOUNDED_SENSITIVITY
    sig = theta.sigma
    s_inv_x = numerics.solve_spd(data.xtx_over_n, data.design[i0])
    # sigma^2 times each peak, e^{-1/2} / sqrt(a) |S^{-1} x| / sigma and
    # 2 e^{-(3a+2)/(2(a+1))} / (a sigma), as the factors' scale
    peak_beta = sig * math.exp(-0.5) / math.sqrt(a) * float(np.linalg.norm(s_inv_x))
    peak_sigma = 2.0 * sig * math.exp(0.5 / (1.0 + a) - 1.5) / a
    sandwich_beta, _, ratio_beta, _ = _normal_factors(a, peak_beta)
    _, sandwich_sigma, _, ratio_sigma = _normal_factors(a, peak_sigma)
    return sandwich_beta / ratio_beta, sandwich_sigma / ratio_sigma


def are(alpha: float):
    """Asymptotic efficiency of the robust estimator relative to maximum
    likelihood, as variance ratios in [0, 1]: one value for the coefficients
    and one for the scale, 0 only where the exact value is below about
    2e-308.  A value that rounding puts above 1 (alpha below 1e-7) is 1."""
    sandwich_beta, sandwich_sigma, _, _ = _normal_factors(check_alpha(alpha))
    return min(1.0, 1.0 / sandwich_beta), min(1.0, 0.5 / sandwich_sigma)
