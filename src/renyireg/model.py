"""Density families for independent, non-identically-distributed samples and
the Renyi-pseudodistance objective built on them.

The estimator maximizes the sample average of the per-observation weights

    V_i(y_i, theta) = f_i(y_i, theta)^alpha / (int f_i(y, theta)^{alpha+1} dy)^{alpha/(alpha+1)},

which at ``alpha = 0`` degenerates to a constant; the ``alpha = 0`` branch of
the objective is the average log-likelihood instead, and the two branches are
linked by ``(objective_alpha - 1)/alpha -> objective_0`` as ``alpha -> 0``.

Only the normal linear regression family ships with closed-form integrals;
any other family can be used through :class:`QuadratureFamily`, which
evaluates the required integrals by Gauss-Hermite quadrature
(:func:`renyireg.numerics.integrate`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .exceptions import DomainError, check_alpha

__all__ = [
    "Theta",
    "Design",
    "ModelData",
    "DensityFamily",
    "NormalLinearFamily",
    "QuadratureFamily",
    "rp_loss_single",
    "v_weight",
    "objective",
    "score",
]

LOG_2PI = math.log(2.0 * math.pi)
# directions per quadrature call: one block of evaluation points, the
# largest block that robustness.if_general takes
_QUADRATURE_DIRECTIONS = numerics.BLOCK_POINTS // numerics.QUADRATURE_NODES


@dataclass(frozen=True, eq=False)
class Theta:
    """Parameter point of the normal linear model: coefficients and scale."""

    beta: np.ndarray
    sigma: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        if not all(map(math.isfinite, beta.ravel().tolist())):
            raise DomainError("beta must be finite")
        if beta.ndim != 1:
            raise DomainError(f"beta must be a vector, got shape {beta.shape}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    @property
    def dim(self) -> int:
        return self.beta.size + 1

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.beta, [self.sigma]])

    @classmethod
    def from_array(cls, arr) -> "Theta":
        arr = np.asarray(arr, dtype=float)
        return cls(beta=arr[:-1], sigma=float(arr[-1]))


@dataclass(frozen=True, eq=False)
class Design:
    """Fixed design matrix, validated once and shared by every response
    fitted on it.

    The array is treated as immutable and is not copied: X'X/n, its inverse
    and the rank check below are computed on first use and cached, so every
    :class:`ModelData` built on one ``Design`` reads the same objects.
    """

    matrix: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", x)
        if x.ndim != 2 or x.shape[1] < 1:
            raise DomainError(
                f"design must be a matrix of one or more columns, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise DomainError("design must be finite")
        if x.shape[0] < x.shape[1] + 1:
            raise DomainError(
                f"need at least p+1 = {x.shape[1] + 1} observations, got {x.shape[0]}"
            )

    @functools.cached_property
    def xtx_over_n(self) -> np.ndarray:
        """X'X/n, read-only."""
        x = self.matrix
        s = x.T @ x / x.shape[0]
        s.setflags(write=False)
        return s

    @functools.cached_property
    def xtx_over_n_inverse(self) -> np.ndarray:
        """(X'X/n)^{-1}, read-only; raises ``DecompositionError`` when X'X/n
        is not positive definite."""
        inv = numerics.spd_inverse(self.xtx_over_n)
        inv.setflags(write=False)
        return inv

    @functools.cached_property
    def scaled_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of X'X/n scaled to unit diagonal: the design
        has full column rank when it exceeds
        ``numerics.MIN_SCALED_EIGENVALUE``."""
        return numerics.scaled_min_eigenvalue(self.xtx_over_n)


@dataclass(frozen=True, eq=False)
class ModelData:
    """Fixed design matrix and observed responses.

    ``design`` is a :class:`Design`, shared with other responses on it, or
    an array, which gets a ``Design`` of its own; either way ``design``
    reads as the float array afterwards and ``fixed_design`` holds the
    ``Design``, whose cached products the properties below return.
    ``response`` is a read-only copy of the given array.
    """

    design: np.ndarray
    response: np.ndarray
    fixed_design: Design = field(init=False, repr=False)

    def __post_init__(self):
        shared = self.design if isinstance(self.design, Design) else Design(self.design)
        y = np.asarray(self.response, dtype=float)
        if y.ndim > 2 or (y.ndim == 2 and y.shape[1] != 1):
            raise DomainError(f"response must be one column, got shape {y.shape}")
        # the data's own copy: a fit's value read later sees what was fitted
        y = y.flatten()
        y.setflags(write=False)
        object.__setattr__(self, "fixed_design", shared)
        object.__setattr__(self, "design", shared.matrix)
        object.__setattr__(self, "response", y)
        if shared.matrix.shape[0] != y.shape[0]:
            raise DomainError("design and response row counts differ")
        if not np.isfinite(y).all():
            raise DomainError("response must be finite")

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def n_params(self) -> int:
        return self.design.shape[1]

    @property
    def xtx_over_n(self) -> np.ndarray:
        """X'X/n of the shared design, read-only."""
        return self.fixed_design.xtx_over_n

    @property
    def xtx_over_n_inverse(self) -> np.ndarray:
        """(X'X/n)^{-1} of the shared design, read-only."""
        return self.fixed_design.xtx_over_n_inverse

    def subset(self, keep) -> "ModelData":
        keep = np.asarray(keep)
        return ModelData(self.design[keep], self.response[keep])


def _check_exponent(c):
    """The power integrals ``int f^c ...`` diverge or are undefined unless
    ``c`` is finite and positive."""
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"power exponent must be finite and positive, got {c}")


def _outer(v):
    """Outer product of the last axis, ``v v'``, for every leading index."""
    return v[..., :, None] * v[..., None, :]


def _per_direction(i, value):
    """A float for an int direction ``i``, else ``value`` once per direction."""
    return float(value) if np.ndim(i) == 0 else np.full(np.shape(i), value)


class DensityFamily:
    """Contract for a family of densities sharing a common parameter.

    Subclasses provide the pointwise quantities

        log_density(i, y, theta)    = log f_i(y, theta)
        score_vector(i, y, theta)   = u_i = d log f_i / d theta
        score_jacobian(i, y, theta) = du_i / dtheta

    each evaluated at a response ``y`` that is a scalar or an array of
    points.  For an array of shape ``s`` the outputs gain those leading
    axes: ``log_density`` returns shape ``s``, ``score_vector``
    ``s + (dim,)`` and ``score_jacobian`` ``s + (dim, dim)``; for a scalar
    they return a number, ``(dim,)`` and ``(dim, dim)``.  They also provide
    ``center(i, theta)`` and ``scale(i, theta)``, the location and width
    hints that quadrature centres and scales its nodes by.

    The direction ``i`` is an int or a 1-D index array of k directions.  An
    index array adds a leading directions axis: ``y`` then carries the
    directions on its first axis, of length k or 1, so ``y[d]`` holds the
    responses of direction ``i[d]`` (shape ``(k,)`` for one point each,
    ``(k, m)`` for m points each, ``(1, m)`` for the same m points in every
    direction), and ``center``, ``scale`` and the power integrals return
    one entry per direction along a leading axis of length k.
    :class:`QuadratureFamily` evaluates a base family once per integral on
    the whole ``(k, 64)`` node array, so it needs both forms.

    They also provide the power integrals

        power_integral(i, theta, c)               = int f_i^c dy
        power_score_integral(i, theta, c)         = int f_i^c u_i dy
        power_score_outer_integral(i, theta, c)   = int f_i^c u_i u_i' dy
        power_score_jacobian_integral(i, theta, c)= int f_i^c (du_i/dtheta) dy

    all with respect to the dominating measure on the response line, and
    ``log_power_integral``, the logarithm of the first; by default the
    logarithm of ``power_integral``, which a family with a closed form
    overrides to stay finite where the integral over- or underflows.
    """

    n_directions: int
    param_dim: int

    def log_power_integral(self, i, theta, c):
        return np.log(self.power_integral(i, theta, c))


class NormalLinearFamily(DensityFamily):
    """Normal linear regression with fixed design: y_i ~ N(x_i' beta, sigma^2).

    The parameter is theta = (beta, sigma) and all power integrals have
    closed forms: f_i^c, up to normalization, is again a normal density with
    the same mean and variance sigma^2 / c.
    """

    def __init__(self, design):
        self.design = np.atleast_2d(np.asarray(design, dtype=float))
        self.n_directions = self.design.shape[0]
        self.param_dim = self.design.shape[1] + 1

    def _rows(self, i, ndim):
        """Design row of direction ``i``, or the rows of an index array
        shaped ``(k, 1, ..., p)`` to broadcast against ``ndim`` axes."""
        x = self.design[i]
        if x.ndim == 1:
            return x
        return x.reshape(x.shape[:1] + (1,) * max(ndim - 1, 0) + x.shape[1:])

    @staticmethod
    def _mean(x, theta):
        # one dot product per row, so k directions get the bits of k int calls
        return (x[..., None, :] @ theta.beta)[..., 0]

    def _resid(self, x, y, theta):
        return (np.asarray(y, dtype=float) - self._mean(x, theta)) / theta.sigma

    def log_density(self, i, y, theta):
        r = self._resid(self._rows(i, np.ndim(y)), y, theta)
        return -0.5 * LOG_2PI - math.log(theta.sigma) - 0.5 * r * r

    def score_vector(self, i, y, theta):
        x = self._rows(i, np.ndim(y))
        r = self._resid(x, y, theta)[..., None]
        sig = theta.sigma
        return np.concatenate([r * x / sig, (r * r - 1.0) / sig], axis=-1)

    def score_jacobian(self, i, y, theta):
        x = self._rows(i, np.ndim(y))
        r = self._resid(x, y, theta)
        sig = theta.sigma
        p = x.shape[-1]
        cross = -2.0 * r[..., None] * x / sig**2
        jac = np.zeros(cross.shape[:-1] + (p + 1, p + 1))
        jac[..., :p, :p] = -_outer(x) / sig**2
        jac[..., :p, p] = cross
        jac[..., p, :p] = cross
        jac[..., p, p] = (1.0 - 3.0 * r * r) / sig**2
        return jac

    def center(self, i, theta):
        return _per_direction(i, self._mean(self.design[i], theta))

    def scale(self, i, theta):
        return _per_direction(i, theta.sigma)

    # closed-form integrals ------------------------------------------------
    # For c > 0, f^c = K_c * N(mu, sigma^2/c), where the logarithm
    # log K_c = (1-c) log(sqrt(2 pi) sigma) - log(c)/2 is finite for every c.

    @staticmethod
    def _log_mass(theta, c):
        _check_exponent(c)
        return (1.0 - c) * (0.5 * LOG_2PI + math.log(theta.sigma)) - 0.5 * math.log(c)

    def _mass(self, theta, c):
        return math.exp(self._log_mass(theta, c))

    def power_integral(self, i, theta, c):
        return _per_direction(i, self._mass(theta, c))

    def log_power_integral(self, i, theta, c):
        return _per_direction(i, self._log_mass(theta, c))

    def power_score_integral(self, i, theta, c):
        # under N(mu, sigma^2/c): E[u_beta] = 0, E[u_sigma] = (1/c - 1)/sigma
        k = self._mass(theta, c)
        out = np.zeros(np.shape(i) + (self.param_dim,))
        out[..., -1] = k * (1.0 / c - 1.0) / theta.sigma
        return out

    def power_score_outer_integral(self, i, theta, c):
        k = self._mass(theta, c)
        sig = theta.sigma
        x = self.design[i]
        p = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (p + 1, p + 1))
        out[..., :p, :p] = _outer(x) / (c * sig**2)
        # E[(r^2 - 1)^2] with r^2 averaging 1/c and E r^4 = 3/c^2
        out[..., p, p] = (3.0 / c**2 - 2.0 / c + 1.0) / sig**2
        return k * out

    def power_score_jacobian_integral(self, i, theta, c):
        k = self._mass(theta, c)
        sig = theta.sigma
        x = self.design[i]
        p = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (p + 1, p + 1))
        out[..., :p, :p] = -_outer(x) / sig**2
        out[..., p, p] = (1.0 - 3.0 / c) / sig**2
        return k * out


class QuadratureFamily(DensityFamily):
    """Wraps a family's pointwise functions and supplies the power integrals
    by 64-node Gauss-Hermite quadrature.

    Used as the generic backend for families without closed forms, and as an
    independent evaluation route when validating closed-form families.
    """

    def __init__(self, base: DensityFamily):
        self.base = base
        self.n_directions = base.n_directions
        self.param_dim = base.param_dim

    def log_density(self, i, y, theta):
        return self.base.log_density(i, y, theta)

    def score_vector(self, i, y, theta):
        return self.base.score_vector(i, y, theta)

    def score_jacobian(self, i, y, theta):
        return self.base.score_jacobian(i, y, theta)

    def center(self, i, theta):
        return self.base.center(i, theta)

    def scale(self, i, theta):
        return self.base.scale(i, theta)

    def _integrate(self, i, theta, c, weight=None):
        """int f_i^c weight dy; ``weight(i, y, theta)`` maps the node array
        (``(64,)`` for an int ``i``, ``(k, 64)`` for k directions, in blocks
        of ``_QUADRATURE_DIRECTIONS``) to one value or array per node, and
        each function is evaluated once on all nodes of a block."""
        _check_exponent(c)
        if np.ndim(i) == 1 and len(i) > _QUADRATURE_DIRECTIONS:
            blocks = np.split(i, range(_QUADRATURE_DIRECTIONS, len(i), _QUADRATURE_DIRECTIONS))
            return np.concatenate([self._integrate(b, theta, c, weight) for b in blocks])
        center = self.base.center(i, theta)
        # f^c concentrates like the base density narrowed by sqrt(c)
        scale = self.base.scale(i, theta) / math.sqrt(c)

        def fn(y):
            f_c = np.exp(c * self.base.log_density(i, y, theta))
            if weight is None:
                return f_c
            w = weight(i, y, theta)
            return f_c.reshape(f_c.shape + (1,) * (w.ndim - f_c.ndim)) * w

        return numerics.integrate(fn, center, scale)

    def power_integral(self, i, theta, c):
        return self._integrate(i, theta, c)

    def power_score_integral(self, i, theta, c):
        return self._integrate(i, theta, c, self.base.score_vector)

    def power_score_outer_integral(self, i, theta, c):
        return self._integrate(i, theta, c, lambda j, y, t: _outer(self.base.score_vector(j, y, t)))

    def power_score_jacobian_integral(self, i, theta, c):
        return self._integrate(i, theta, c, self.base.score_jacobian)


# ---------------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------------

def rp_loss_single(family: DensityFamily, i, y, theta: Theta, alpha: float):
    """Per-observation divergence loss, dropping the theta-free constant:
    ``log(int f_i^{alpha+1})/(alpha+1) - log f_i(y)`` for ``alpha > 0``, the
    negative log-density at ``alpha = 0``, infinite where ``log f_i(y)`` is
    not finite.  A float for an int ``i``, one loss per direction for an
    index array (``i`` and ``y`` as in the contract)."""
    check_alpha(alpha)
    log_f = family.log_density(i, y, theta)
    norm = family.log_power_integral(i, theta, alpha + 1.0) / (alpha + 1.0) if alpha else 0.0
    loss = np.where(np.isfinite(log_f), norm - log_f, np.inf)
    return float(loss) if loss.ndim == 0 else loss


def v_weight(family: DensityFamily, i, y, theta: Theta, alpha: float):
    """The per-observation objective weight V_i, constants retained.

    Equals ``exp(-alpha * rp_loss_single(...))`` and, for the normal family,
    ``((1+alpha)/2pi)^{alpha/(2(alpha+1))} sigma^{-alpha/(alpha+1)}
    exp(-alpha r^2 / 2)`` with standardized residual r.
    """
    if alpha <= 0:
        raise DomainError(f"v_weight requires alpha > 0, got {alpha}")
    with np.errstate(over="raise"):  # a weight past the double range raises, never reads inf
        v = np.exp(-alpha * rp_loss_single(family, i, y, theta, alpha))
    return float(v) if v.ndim == 0 else v


def objective(family: DensityFamily, data: ModelData, theta: Theta, alpha: float) -> float:
    """Sample objective whose maximizer is the estimator.

    Average of ``v_weight`` over observations for ``alpha > 0``; average
    log-likelihood at ``alpha = 0``.  One family call on all observations.
    """
    check_alpha(alpha)
    i, y = np.arange(data.n_obs), data.response
    if alpha == 0.0:
        return float(np.mean(family.log_density(i, y, theta)))
    return float(np.mean(v_weight(family, i, y, theta, alpha)))


def _power_mass(family: DensityFamily, i, theta: Theta, alpha: float) -> np.ndarray:
    """``int f_i^{1+alpha}`` for the directions ``i``, the divisor of every tilted
    mean; ``ArithmeticError`` where it is not a positive normal double."""
    j0 = family.power_integral(i, theta, alpha + 1.0)
    if not np.all((j0 >= np.finfo(float).tiny) & (j0 < math.inf)):
        raise ArithmeticError(f"int f^(1+alpha) at alpha {alpha} is not a positive normal double")
    return j0


def score(family: DensityFamily, data: ModelData, theta: Theta, alpha: float) -> np.ndarray:
    """Gradient of :func:`objective` with respect to (beta, sigma).

    ``d V_i / d theta = alpha V_i (u_i(y_i) - m_i)``, ``m_i`` the mean of u_i
    under f_i^{1+alpha}; for the normal family the components are positive
    multiples of ``sum e^{-alpha r_i^2/2} r_i x_i`` and
    ``sum e^{-alpha r_i^2/2} (r_i^2 - 1/(1+alpha))``.  ``m_i`` is lost, and
    ``ArithmeticError`` raised, where :func:`_power_mass` is.
    """
    check_alpha(alpha)
    i, y = np.arange(data.n_obs), data.response
    u = family.score_vector(i, y, theta)
    if alpha == 0.0:
        return np.mean(u, axis=0)
    j0 = _power_mass(family, i, theta, alpha)
    tilted = family.power_score_integral(i, theta, alpha + 1.0) / j0[:, None]
    return alpha * np.mean(v_weight(family, i, y, theta, alpha)[:, None] * (u - tilted), axis=0)
