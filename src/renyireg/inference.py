"""Wald-type tests, asymptotic power, sample-size planning, and power under
local alternatives.

All statistics weight parameter deviations by the inverse of the asymptotic
covariance of ``sqrt(n)(theta_hat - theta)`` (``sigma_n`` from the estimation
module), so each statistic is asymptotically chi-square under its null.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .estimation import FitResult, _sigma_n
from .exceptions import DecompositionError, DomainError, _check_dimension, check_count
from .exceptions import check_probability, is_index
from .model import ModelData, Theta

__all__ = [
    "LinearHypothesis",
    "WaldOutcome",
    "PowerReport",
    "wald_statistic",
    "wald_simple",
    "wald_composite",
    "approx_power",
    "required_sample_size",
    "contiguous_power",
    "UNBOUNDED_SAMPLE_SIZE",
]

UNBOUNDED_SAMPLE_SIZE = math.inf
_MAX_SAMPLE_SIZE = 1e9


@dataclass(frozen=True)
class LinearHypothesis:
    """Linear restriction M' theta = m with full-column-rank M (on M'M, by
    ``numerics.scaled_min_eigenvalue``)."""

    m_matrix: np.ndarray
    m_vector: np.ndarray

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.m_matrix, dtype=float))
        vec = np.atleast_1d(np.asarray(self.m_vector, dtype=float))
        object.__setattr__(self, "m_matrix", mat)
        object.__setattr__(self, "m_vector", vec)
        if mat.ndim != 2 or mat.shape[1] < 1:
            raise DomainError(
                f"m_matrix must be a matrix of one or more columns, got shape {mat.shape}"
            )
        if mat.shape[1] != vec.size:
            raise DomainError("restriction matrix and value dimensions differ")
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(vec))):
            raise DomainError("restriction matrix and values must be finite")
        if mat.shape[1] >= mat.shape[0]:
            raise DomainError("need r < dim(theta) restrictions")
        if numerics.scaled_min_eigenvalue(mat.T @ mat) <= numerics.MIN_SCALED_EIGENVALUE:
            raise DomainError("restriction matrix is rank deficient")

    @property
    def n_restrictions(self) -> int:
        return self.m_matrix.shape[1]

    @classmethod
    def coordinates(cls, indices, values, dim):
        """Restriction pinning ``theta[indices] = values``, indices in 0..dim-1."""
        indices = np.atleast_1d(indices)
        mat = np.zeros((dim, len(indices)))
        for col, idx in enumerate(indices):
            if not is_index(idx, dim):
                raise DomainError(f"parameter index {idx} outside 0..{dim - 1}")
            mat[idx, col] = 1.0
        return cls(m_matrix=mat, m_vector=np.atleast_1d(values))


@dataclass(frozen=True)
class WaldOutcome:
    statistic: float
    df: int
    p_value: float

    def reject_at(self, level: float) -> bool:
        """Whether the test rejects at ``level``: ``p_value < level``, the
        decision ``statistic > chisq_quantile(df, level)`` without the
        quantile, and never at odds with the reported p-value."""
        check_probability(level, "level")
        return self.p_value < level


@dataclass(frozen=True)
class PowerReport:
    ell: float
    sigma_w: float
    approx_power: float
    n_used: int


def wald_statistic(diff: np.ndarray, covariance: np.ndarray, n: int) -> float:
    """Quadratic form ``n * diff' covariance^{-1} diff``, for a sample size
    ``n >= 1``.

    Invariant under any joint invertible linear reparameterization of the
    difference and its covariance.
    """
    check_count(n, "n")
    diff = np.atleast_1d(np.asarray(diff, dtype=float))
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    try:
        solved = numerics.solve_spd(cov, diff)
    except DecompositionError as err:
        raise DecompositionError(f"covariance not positive definite: {err}") from err
    return float(n * diff @ solved)


def _indefinite_covariance() -> DecompositionError:
    """``wald_statistic``'s refusal of ``M' sigma_n M`` where ``sigma_n`` has
    a non-finite entry: every entry of that system is then NaN or inf, and
    ``solve_spd`` refuses it at pivot 0."""
    return DecompositionError(
        "covariance not positive definite: matrix is not positive definite (pivot 0)"
    )


def _outcome(stat: float, df: int) -> WaldOutcome:
    return WaldOutcome(statistic=stat, df=df, p_value=float(numerics.chisq_sf(stat, df)))


def wald_simple(data: ModelData, fit: FitResult, theta0: Theta) -> WaldOutcome:
    """Test theta = theta0 for the full parameter vector.

    The weighting covariance is evaluated at the null point; degrees of
    freedom equal dim(theta) = p + 1.
    """
    _check_dimension("theta0", theta0.dim, data.n_params + 1)
    sigma0 = _sigma_n(data.xtx_over_n_inverse, theta0.sigma, fit.alpha)
    diff = fit.theta_hat.to_array() - theta0.to_array()
    stat = wald_statistic(diff, sigma0, data.n_obs)
    return _outcome(stat, diff.size)


def wald_composite(data: ModelData, fit: FitResult, hyp: LinearHypothesis) -> WaldOutcome:
    """Test M' theta = m with the covariance plugged in at the estimate
    (``fit.sigma_n``, which the fit evaluated on ``data``)."""
    theta = fit.theta_hat
    m = hyp.m_matrix
    _check_dimension("restriction matrix", m.shape[0], theta.dim)
    if not np.isfinite(fit.sigma_n).all():
        raise _indefinite_covariance()
    diff = m.T @ theta.to_array() - hyp.m_vector
    stat = wald_statistic(diff, m.T @ fit.sigma_n @ m, data.n_obs)
    return _outcome(stat, hyp.n_restrictions)


def _coordinate_p_value(fit: FitResult, index: int, value: float, n: int) -> float:
    """P-value of the Wald test of ``theta[index] = value``, index in 0..p,
    on ``fit`` from ``n`` observations: the p-value of ``wald_composite``
    with ``LinearHypothesis.coordinates([index], [value], p + 1)``, bit for
    bit, from two Python floats.  With ``d = theta_hat[index] - value`` and
    ``r = sqrt(sigma_n[index, index])`` the statistic ``(n d) ((d / r) / r)``
    repeats the operations of ``solve_spd`` on that test's 1 x 1 system
    ``M' sigma_n M`` (docs/MATH.md).  Raises ``wald_statistic``'s
    DecompositionError where that system is not positive definite: where the
    variance is not positive, or where an entry of ``sigma_n`` is not finite.
    """
    rows = fit.sigma_n.tolist()
    var = rows[index][index]
    if not (var > 0.0 and all(map(math.isfinite, itertools.chain.from_iterable(rows)))):
        raise _indefinite_covariance()
    theta = fit.theta_hat
    estimate = theta.sigma if index == theta.beta.size else theta.beta[index]
    d = float(estimate) - float(value)
    r = math.sqrt(var)
    return numerics.chisq_sf((n * d) * ((d / r) / r), 1)


def _power_terms(theta_star: Theta, theta0: Theta, sigma_provider) -> tuple:
    """``(ell, sigma_w)`` of the power expansion; ``(0, 0)`` when theta* = theta0."""
    _check_dimension("theta_star", theta_star.dim, theta0.dim, "theta0's")
    diff = theta_star.to_array() - theta0.to_array()
    if not np.any(diff != 0.0):
        return 0.0, 0.0
    inv_diff = numerics.solve_spd(np.atleast_2d(sigma_provider(theta0)), diff)
    ell = float(diff @ inv_diff)
    var_w = float(4.0 * inv_diff @ np.atleast_2d(sigma_provider(theta_star)) @ inv_diff)
    if var_w <= 0.0:
        raise DomainError("degenerate direction: the power expansion has zero variance")
    return ell, math.sqrt(var_w)


def approx_power(
    theta_star: Theta,
    theta0: Theta,
    alpha: float,
    n: int,
    level: float,
    sigma_provider,
) -> PowerReport:
    """First-order approximation to the power of the simple test at theta*.

    ``sigma_provider(theta)`` must return the asymptotic covariance matrix at
    a parameter point.  With ``ell = (theta*-theta0)' Sigma(theta0)^{-1}
    (theta*-theta0)`` and the delta-method standard deviation ``sigma_w``,
    the approximation is ``1 - Phi(sqrt(n)/sigma_w * (chi2_quantile/n - ell))``,
    for a sample size ``n >= 1``.
    """
    check_count(n, "n")
    check_probability(level, "level")
    ell, sigma_w = _power_terms(theta_star, theta0, sigma_provider)
    if sigma_w == 0.0:
        return PowerReport(ell=0.0, sigma_w=0.0, approx_power=level, n_used=n)
    crit = numerics.chisq_quantile(theta_star.dim, level)
    arg = math.sqrt(n) / sigma_w * (crit / n - ell)
    return PowerReport(
        ell=ell,
        sigma_w=sigma_w,
        approx_power=float(1.0 - numerics.normal_cdf(arg)),
        n_used=n,
    )


def required_sample_size(
    theta_star: Theta,
    theta0: Theta,
    alpha: float,
    target_power: float,
    level: float,
    sigma_provider,
):
    """Smallest n at which the power approximation reaches ``target_power``.

    Solves the quadratic (in sqrt(n)) power equation and rounds up, so the
    reported size guarantees the target under the approximation.  Returns
    ``UNBOUNDED_SAMPLE_SIZE`` when the solution exceeds 1e9 (no detectable
    effect).
    """
    check_probability(target_power, "target power")
    check_probability(level, "level")
    ell, sigma_w = _power_terms(theta_star, theta0, sigma_provider)
    if ell <= 0.0 or sigma_w <= 0.0:
        raise DomainError("theta* must differ from theta0 along a non-degenerate direction")
    crit = numerics.chisq_quantile(theta_star.dim, level)
    a_term = sigma_w**2 * numerics.normal_quantile(target_power) ** 2
    b_term = 2.0 * ell * crit
    value = (a_term + b_term + math.sqrt(a_term * (a_term + 2.0 * b_term))) / (2.0 * ell**2)
    if value > _MAX_SAMPLE_SIZE:
        return UNBOUNDED_SAMPLE_SIZE
    return max(1, int(math.ceil(value - 1e-12)))


def contiguous_power(
    hyp: LinearHypothesis,
    d: np.ndarray,
    level: float,
    sigma_n: np.ndarray,
) -> float:
    """Asymptotic power against the local alternative theta0 + d/sqrt(n).

    Under that drifting alternative the statistic is noncentral chi-square
    with r degrees of freedom and noncentrality
    ``delta = (M'd)' [M' sigma_n M]^{-1} (M'd)``.
    """
    check_probability(level, "level")
    d = np.atleast_1d(np.asarray(d, dtype=float))
    m = hyp.m_matrix
    sigma_n = np.atleast_2d(sigma_n)
    _check_dimension("shift vector", d.size, m.shape[0])
    for side in sigma_n.shape:
        _check_dimension("sigma_n", side, m.shape[0])
    d_star = m.T @ d
    inner = m.T @ sigma_n @ m
    delta = float(d_star @ numerics.solve_spd(inner, d_star))
    r = hyp.n_restrictions
    crit = numerics.chisq_quantile(r, level)
    return numerics.noncentral_chisq_sf(crit, r, delta)
