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
from .estimation import covariance_mlrm
from .exceptions import DecompositionError, DomainError
from .inference import LinearHypothesis
from .model import DensityFamily, ModelData, Theta

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

# residuals per block of the points x directions matrix in _stacked_scores,
# and evaluation points (quadrature nodes or contamination points) per block
# of directions in if_general
_STACKED_BLOCK_RESIDUALS = 1 << 16


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_alpha(alpha):
    if not (math.isfinite(alpha) and alpha >= 0):
        raise DomainError(f"alpha must be finite and nonnegative, got {alpha}")


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
        if pts.size < 1:
            raise DomainError("need at least one contamination point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("contamination points must be finite")
        _check_alpha(self.alpha)
        direction = self.direction
        if not (_is_index(direction) or isinstance(direction, str) and direction == "all"):
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
        sup_norm=float(np.max(np.linalg.norm(first_order, axis=1))),
    )


def _direction_indices(req: IFRequest, n: int) -> np.ndarray:
    if isinstance(req.direction, str):
        return np.arange(n)
    i0 = int(req.direction)
    if not 0 <= i0 < n:
        raise DomainError(f"direction {i0} outside 0..{n - 1}")
    return np.array([i0])


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
    left is the tilted score covariance (j2 j0 - j1 j1') / j0^2.
    """
    n = family.n_directions
    if n != data.n_obs:
        raise DomainError(f"family has {n} directions but the data {data.n_obs} observations")
    theta, alpha = req.theta, req.alpha
    c = alpha + 1.0
    pts = req.contamination_points
    hit = np.zeros(n, dtype=bool)
    hit[_direction_indices(req, n)] = True
    total = np.zeros((family.param_dim, family.param_dim))
    num = np.zeros((pts.size, family.param_dim))
    size = max(1, _STACKED_BLOCK_RESIDUALS // max(numerics.QUADRATURE_NODES, pts.size))
    for start in range(0, n, size):
        block = np.arange(start, min(start + size, n))
        j0 = family.power_integral(block, theta, c)
        j1 = family.power_score_integral(block, theta, c)
        j2 = family.power_score_outer_integral(block, theta, c)
        total += np.sum(
            (j2 * j0[:, None, None] - j1[:, :, None] * j1[:, None, :]) / (j0**2)[:, None, None],
            axis=0,
        )
        sel = hit[block]
        if sel.any():
            # the estimating score of direction i at t, f_i(t)^alpha (u_i(t) j0 - j1) / j0^2,
            # is 1/sqrt(1+alpha)-tilted relative to the psi normalization; the
            # matrix carries the same factor, so scaling cancels
            i = block[sel]
            u = family.score_vector(i, pts[None, :], theta)
            f_alpha = np.exp(alpha * family.log_density(i, pts[None, :], theta))
            k0, k1 = j0[sel, None, None], j1[sel, None, :]
            num += np.sum(f_alpha[..., None] * (u * k0 - k1) / k0**2, axis=0)
    try:
        m_inv = numerics.spd_inverse(total / n)
    except DecompositionError as err:
        raise DecompositionError(f"sensitivity matrix singular: {err}") from err
    return _report(req, num @ m_inv.T)


# ---------------------------------------------------------------------------
# normal-family closed form
# ---------------------------------------------------------------------------

def _stacked_scores(data: ModelData, req: IFRequest) -> np.ndarray:
    """Sum over the contaminated directions of psi_i(t) at each point, for the
    normal linear family in the estimating-equation normalization:
    psi_i(t) = exp(-a r^2/2) (r x_i, r^2 - 1/(1+a)) / sigma.

    The residuals form one points x directions matrix, taken in blocks of
    whole points of at most ``_STACKED_BLOCK_RESIDUALS`` entries (one point
    when a point alone is larger), so memory stays O(n p).
    """
    x = data.design[_direction_indices(req, data.n_obs)]
    sig, alpha = req.theta.sigma, req.alpha
    fitted = x @ req.theta.beta
    pts = req.contamination_points
    out = np.empty((pts.size, data.n_params + 1))
    rows = max(1, _STACKED_BLOCK_RESIDUALS // fitted.size)
    for start in range(0, pts.size, rows):
        block = slice(start, start + rows)
        r = (pts[block, None] - fitted) / sig
        w = np.exp(-0.5 * alpha * r * r)
        out[block, :-1] = (w * r) @ x / sig
        out[block, -1] = np.sum(w * (r * r - 1.0 / (1.0 + alpha)), axis=1) / sig
    return out


def if_mlrm_closed(data: ModelData, req: IFRequest) -> IFReport:
    """Closed-form first-order influence for the normal linear model.

    ``IF = psi_n^{-1} psi_{i0}(t)``; the coefficient part is
    ``sigma (1+a)^{3/2} e^{-a r^2/2} r S^{-1} x_{i0}`` and the sigma part
    ``sigma (1+a)^{5/2}/2 e^{-a r^2/2} (r^2 - 1/(1+a))``.  At ``alpha = 0``
    the coefficient part grows linearly in the residual (the unbounded
    maximum-likelihood case); for ``alpha > 0`` both parts vanish at extreme
    contamination.
    """
    psi = covariance_mlrm(data, req.theta, req.alpha).psi_n
    scores = _stacked_scores(data, req)
    return _report(req, np.linalg.solve(psi, scores.T).T)


# ---------------------------------------------------------------------------
# second-order influence of the Wald functionals
# ---------------------------------------------------------------------------

def _second_order(data: ModelData, req: IFRequest, m: np.ndarray):
    """The first-order report and ``2 IF' M (M' sigma_n M)^{-1} M' IF`` for
    the restriction matrix ``M``."""
    cov = covariance_mlrm(data, req.theta, req.alpha)
    base = if_mlrm_closed(data, req)
    inner = m.T @ cov.sigma_n @ m
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
    base, second = _second_order(data, req, hyp.m_matrix)
    return replace(base, second_order_composite=second)


# ---------------------------------------------------------------------------
# gross-error sensitivity and efficiency
# ---------------------------------------------------------------------------

def gross_error_sensitivity(data: ModelData, i0: int, theta: Theta, alpha: float):
    """Supremum over contamination points of the influence norm, split into
    the coefficient and scale components.

    Closed forms: the coefficient part peaks at standardized residual
    ``1/sqrt(a)``, the scale part at ``r^2 = (3a+2)/(a(a+1))``.  Both are
    infinite at ``alpha = 0``.
    """
    if not (_is_index(i0) and 0 <= i0 < data.n_obs):
        raise DomainError(f"direction {i0!r} is not an index in 0..{data.n_obs - 1}")
    _check_alpha(alpha)
    if alpha == 0.0:
        return UNBOUNDED_SENSITIVITY, UNBOUNDED_SENSITIVITY
    a = alpha
    sig = theta.sigma
    s_inv_x = numerics.solve_spd(data.xtx_over_n, data.design[i0])
    gamma_beta = (
        sig * (1 + a) ** 1.5 / math.sqrt(a) * math.exp(-0.5) * float(np.linalg.norm(s_inv_x))
    )
    gamma_sigma = sig * (1 + a) ** 2.5 / a * math.exp(-(3 * a + 2) / (2 * (a + 1)))
    return gamma_beta, gamma_sigma


def are(alpha: float):
    """Asymptotic efficiency of the robust estimator relative to maximum
    likelihood, as variance ratios in (0, 1]: one value for the coefficients
    and one for the scale."""
    _check_alpha(alpha)
    a = alpha
    are_beta = (2 * a + 1) ** 1.5 / (1 + a) ** 3
    are_sigma = 2.0 * (2 * a + 1) ** 2.5 / ((1 + a) ** 3 * (3 * a * a + 4 * a + 2))
    return float(are_beta), float(are_sigma)
