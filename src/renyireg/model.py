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
from dataclasses import dataclass

import numpy as np

from . import numerics
from .exceptions import DomainError

__all__ = [
    "Theta",
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


@dataclass(frozen=True, eq=False)
class Theta:
    """Parameter point of the normal linear model: coefficients and scale."""

    beta: np.ndarray
    sigma: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        if not np.all(np.isfinite(beta)):
            raise DomainError("beta must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
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
class ModelData:
    """Fixed design matrix and observed responses.

    Both arrays are treated as immutable: the p x p design products below
    are computed once per instance and cached.
    """

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.design, dtype=float))
        y = np.asarray(self.response, dtype=float).ravel()
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "response", y)
        if x.shape[0] != y.shape[0]:
            raise DomainError("design and response row counts differ")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("design and response must be finite")
        if x.shape[0] < x.shape[1] + 1:
            raise DomainError(
                f"need at least p+1 = {x.shape[1] + 1} observations, got {x.shape[0]}"
            )

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def n_params(self) -> int:
        return self.design.shape[1]

    @functools.cached_property
    def xtx_over_n(self) -> np.ndarray:
        """X'X/n, read-only."""
        s = self.design.T @ self.design / self.n_obs
        s.setflags(write=False)
        return s

    @functools.cached_property
    def xtx_over_n_inverse(self) -> np.ndarray:
        """(X'X/n)^{-1}, read-only; raises ``DecompositionError`` when X'X/n
        is not positive definite."""
        inv = numerics.spd_inverse(self.xtx_over_n)
        inv.setflags(write=False)
        return inv

    def subset(self, keep) -> "ModelData":
        keep = np.asarray(keep)
        return ModelData(self.design[keep], self.response[keep])


def _outer(v):
    """Outer product of the last axis, ``v v'``, for every leading index."""
    return v[..., :, None] * v[..., None, :]


class DensityFamily:
    """Contract for a family of densities sharing a common parameter.

    Subclasses provide the pointwise quantities (log-density, score vector
    u_i = d log f_i / d theta, and its Jacobian), each evaluated at a response
    ``y`` that is a scalar or an array of points.  For an array of shape
    ``s`` the outputs gain those leading axes: ``log_density`` returns shape
    ``s``, ``score_vector`` ``s + (dim,)`` and ``score_jacobian``
    ``s + (dim, dim)``; for a scalar they return a number, ``(dim,)`` and
    ``(dim, dim)``.

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

    all with respect to the dominating measure on the response line.
    """

    n_directions: int
    param_dim: int

    def log_density(self, i: int, y, theta: Theta):
        raise NotImplementedError

    def score_vector(self, i: int, y, theta: Theta) -> np.ndarray:
        raise NotImplementedError

    def score_jacobian(self, i: int, y, theta: Theta) -> np.ndarray:
        raise NotImplementedError

    def center(self, i: int, theta: Theta) -> float:
        """Location hint for quadrature."""
        raise NotImplementedError

    def scale(self, i: int, theta: Theta) -> float:
        """Width hint for quadrature."""
        raise NotImplementedError

    def power_integral(self, i, theta, c):
        raise NotImplementedError

    def power_score_integral(self, i, theta, c):
        raise NotImplementedError

    def power_score_outer_integral(self, i, theta, c):
        raise NotImplementedError

    def power_score_jacobian_integral(self, i, theta, c):
        raise NotImplementedError


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
        mu = self._mean(self.design[i], theta)
        return float(mu) if np.ndim(i) == 0 else mu

    def scale(self, i, theta):
        return theta.sigma if np.ndim(i) == 0 else np.full(np.shape(i), theta.sigma)

    # closed-form integrals ------------------------------------------------
    # For c > 0, f^c = K_c * N(mu, sigma^2/c) with
    # K_c = (2 pi)^{(1-c)/2} sigma^{1-c} c^{-1/2}.

    def _mass(self, theta, c):
        sig = theta.sigma
        return (2.0 * math.pi) ** ((1.0 - c) / 2.0) * sig ** (1.0 - c) / math.sqrt(c)

    def power_integral(self, i, theta, c):
        if c <= 0:
            raise DomainError(f"power exponent must be positive, got {c}")
        mass = self._mass(theta, c)
        return mass if np.ndim(i) == 0 else np.full(np.shape(i), mass)

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
        """int f_i^c weight dy; ``weight`` maps the node array to one value
        or array per node, and each function is evaluated once on all nodes
        (``(64,)`` for an int ``i``, ``(k, 64)`` for k directions)."""
        center = self.base.center(i, theta)
        # f^c concentrates like the base density narrowed by sqrt(c)
        scale = self.base.scale(i, theta) / math.sqrt(max(c, 1e-12))

        def fn(y):
            f_c = np.exp(c * self.base.log_density(i, y, theta))
            if weight is None:
                return f_c
            w = weight(y)
            return f_c.reshape(f_c.shape + (1,) * (w.ndim - f_c.ndim)) * w

        return numerics.integrate(fn, center, scale)

    def power_integral(self, i, theta, c):
        return self._integrate(i, theta, c)

    def power_score_integral(self, i, theta, c):
        return self._integrate(i, theta, c, lambda y: self.base.score_vector(i, y, theta))

    def power_score_outer_integral(self, i, theta, c):
        return self._integrate(i, theta, c, lambda y: _outer(self.base.score_vector(i, y, theta)))

    def power_score_jacobian_integral(self, i, theta, c):
        return self._integrate(i, theta, c, lambda y: self.base.score_jacobian(i, y, theta))


# ---------------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------------

def _check_alpha(alpha):
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")


def rp_loss_single(family: DensityFamily, i: int, y: float, theta: Theta, alpha: float) -> float:
    """Per-observation divergence loss, dropping the theta-free constant.

    For ``alpha > 0`` this is ``log(int f_i^{alpha+1})/(alpha+1) - log f_i(y)``;
    at ``alpha = 0`` it is the negative log-density.
    """
    _check_alpha(alpha)
    log_f = family.log_density(i, y, theta)
    if not np.isfinite(log_f) or log_f == -np.inf:
        return math.inf
    if alpha == 0.0:
        return -log_f
    mass = family.power_integral(i, theta, alpha + 1.0)
    return math.log(mass) / (alpha + 1.0) - log_f


def v_weight(family: DensityFamily, i: int, y: float, theta: Theta, alpha: float) -> float:
    """The per-observation objective weight V_i, constants retained.

    Equals ``exp(-alpha * rp_loss_single(...))`` and, for the normal family,
    ``((1+alpha)/2pi)^{alpha/(2(alpha+1))} sigma^{-alpha/(alpha+1)}
    exp(-alpha r^2 / 2)`` with standardized residual r.
    """
    if alpha <= 0:
        raise DomainError(f"v_weight requires alpha > 0, got {alpha}")
    return math.exp(-alpha * rp_loss_single(family, i, y, theta, alpha))


def objective(family: DensityFamily, data: ModelData, theta: Theta, alpha: float) -> float:
    """Sample objective whose maximizer is the estimator.

    Average of ``v_weight`` over observations for ``alpha > 0``; average
    log-likelihood at ``alpha = 0``.
    """
    _check_alpha(alpha)
    y = data.response
    if alpha == 0.0:
        return float(
            np.mean([family.log_density(i, y[i], theta) for i in range(data.n_obs)])
        )
    return float(
        np.mean([v_weight(family, i, y[i], theta, alpha) for i in range(data.n_obs)])
    )


def score(family: DensityFamily, data: ModelData, theta: Theta, alpha: float) -> np.ndarray:
    """Gradient of :func:`objective` with respect to (beta, sigma).

    For the normal family the components are positive multiples of the sums
    ``sum e^{-alpha r_i^2/2} r_i x_i`` and
    ``sum e^{-alpha r_i^2/2} (r_i^2 - 1/(1+alpha))``.
    """
    _check_alpha(alpha)
    y = data.response
    n = data.n_obs
    if alpha == 0.0:
        grad = np.zeros(theta.dim)
        for i in range(n):
            grad += family.score_vector(i, y[i], theta)
        return grad / n
    grad = np.zeros(theta.dim)
    for i in range(n):
        v = v_weight(family, i, y[i], theta, alpha)
        u = family.score_vector(i, y[i], theta)
        c = family.power_score_integral(i, theta, alpha + 1.0) / family.power_integral(
            i, theta, alpha + 1.0
        )
        # d V_i / d theta = alpha * V_i * (u_i(y) - tilted mean of u_i)
        grad += alpha * v * (u - c)
        # (for the normal family the tilted-mean term is the -1/(1+alpha)
        #  part of the sigma component and zero for beta)
    return grad / n
