"""Special functions, quadrature rules, reproducible RNG streams, and small
dense linear algebra.

Everything here is deterministic: identical inputs produce bit-identical
outputs, and RNG streams are fully specified by ``(seed, stream_id)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .exceptions import DecompositionError, DomainError, NonFiniteIntegrandError

__all__ = [
    "QuadratureRule",
    "RngStream",
    "normal_cdf",
    "normal_quantile",
    "chisq_quantile",
    "chisq_sf",
    "noncentral_chisq_sf",
    "gauss_hermite_rule",
    "adaptive_rule",
    "integrate",
    "solve_spd",
    "min_eigenvalue",
]


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def normal_cdf(x):
    """Standard normal distribution function Phi(x)."""
    return _sp.ndtr(x)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` on (0, 1).

    Raises
    ------
    DomainError
        If ``p`` is not strictly inside (0, 1).
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError(f"quantile probability must lie in (0, 1), got {p}")
    out = _sp.ndtri(p_arr)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def chisq_sf(x, df):
    """Survival function P(chi2_df > x)."""
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    return _sp.gammaincc(df / 2.0, np.maximum(np.asarray(x, dtype=float), 0.0) / 2.0)


def chisq_quantile(df, upper_tail):
    """Point x with P(chi2_df > x) = upper_tail.

    Parameters
    ----------
    df : int
        Degrees of freedom, >= 1.
    upper_tail : float
        Upper-tail probability, strictly inside (0, 1).
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if not 0.0 < upper_tail < 1.0:
        raise DomainError(f"upper-tail probability must lie in (0, 1), got {upper_tail}")
    return float(2.0 * _sp.gammainccinv(df / 2.0, upper_tail))


def noncentral_chisq_sf(x, df, delta):
    """Survival function of the noncentral chi-square distribution.

    Evaluates ``P(chi2_df(delta) > x)`` by the Poisson mixture over central
    chi-square terms,

        sum_k  e^{-delta/2} (delta/2)^k / k!  *  P(chi2_{df + 2k} > x),

    truncated once the remaining Poisson mass falls below 1e-12.  At
    ``delta = 0`` this reduces to the central survival function.
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if x < 0 or delta < 0:
        raise DomainError("x and delta must be nonnegative")
    if delta == 0.0:
        return float(chisq_sf(x, df))
    half = delta / 2.0
    weight = math.exp(-half)
    total = 0.0
    accumulated = weight
    k = 0
    while True:
        total += weight * float(chisq_sf(x, df + 2 * k))
        if 1.0 - accumulated < 1e-12 or k > 100_000:
            break
        k += 1
        weight *= half / k
        accumulated += weight
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

GAUSS_HERMITE_KIND = "gauss-hermite-transformed"
ADAPTIVE_KIND = "adaptive-interval"


@dataclass(frozen=True)
class QuadratureRule:
    """Abscissas and positive weights for integration over the real line.

    For the Gauss-Hermite kind, ``nodes`` are the standardized abscissas x_j
    and ``weights`` the combined factors w_j e^{x_j^2} sqrt(2), so that

        integral of g  ~=  scale * sum_j weights[j] * g(center + scale * sqrt(2)... )

    (the affine transform is applied by :func:`integrate`).  The adaptive
    kind stores its standardized interval endpoints instead and integrates
    by recursive Simpson subdivision.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = GAUSS_HERMITE_KIND
    rel_tol: float = 1e-12

    def __post_init__(self):
        if len(self.nodes) != len(self.weights) or len(self.nodes) < 2:
            raise DomainError("nodes and weights must have equal length >= 2")
        if np.any(np.asarray(self.weights) <= 0):
            raise DomainError("quadrature weights must all be positive")


def gauss_hermite_rule(n_nodes: int = 64) -> QuadratureRule:
    """Gauss-Hermite rule with ``n_nodes`` points, transformed so that
    integrating a unit-mass density centered at the rule's center gives 1.
    """
    if n_nodes < 16:
        raise DomainError(f"need at least 16 nodes, got {n_nodes}")
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    # fold the e^{x^2} de-weighting and the sqrt(2) substitution Jacobian in
    combined = np.exp(np.log(w) + x * x) * math.sqrt(2.0)
    return QuadratureRule(nodes=x, weights=combined, kind=GAUSS_HERMITE_KIND)


def adaptive_rule(half_width: float = 12.0, rel_tol: float = 1e-12) -> QuadratureRule:
    """Adaptive Simpson rule over ``center +- half_width * scale``.

    The stored nodes are a coarse standardized grid used only as the initial
    panels; subdivision happens inside :func:`integrate`.
    """
    grid = np.linspace(-half_width, half_width, 49)
    weights = np.full(grid.shape, 2.0 * half_width / (len(grid) - 1))
    return QuadratureRule(nodes=grid, weights=weights, kind=ADAPTIVE_KIND, rel_tol=rel_tol)


def _simpson_adaptive(fn, lo, hi, f_lo, f_mid, f_hi, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    f_lm = fn(lm)
    f_rm = fn(rm)
    if not (np.isfinite(f_lm) and np.isfinite(f_rm)):
        raise NonFiniteIntegrandError("integrand not finite", node=lm if not np.isfinite(f_lm) else rm)
    left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
    right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_rm + f_hi)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (
        _simpson_adaptive(fn, lo, mid, f_lo, f_lm, f_mid, left, tol / 2.0, depth - 1)
        + _simpson_adaptive(fn, mid, hi, f_mid, f_rm, f_hi, right, tol / 2.0, depth - 1)
    )


def integrate(fn, rule: QuadratureRule, center: float, scale: float) -> float:
    """Integrate ``fn`` over the real line.

    The rule is recentered and rescaled: it is accurate for integrands that
    are concentrated around ``center`` with width of order ``scale`` (e.g.
    powers of a normal density with mean ``center`` and sd ``scale``).

    Raises
    ------
    NonFiniteIntegrandError
        If ``fn`` is non-finite at an evaluation point; the offending
        location is attached to the exception.
    """
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    if rule.kind == GAUSS_HERMITE_KIND:
        points = center + math.sqrt(2.0) * scale * rule.nodes
        values = np.asarray([fn(p) for p in points], dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            raise NonFiniteIntegrandError(
                "integrand not finite at a quadrature node", node=float(points[bad][0])
            )
        return float(scale * np.dot(rule.weights, values))
    if rule.kind == ADAPTIVE_KIND:
        def g(t):
            return fn(center + scale * t)

        total = 0.0
        knots = rule.nodes
        f_knots = [g(t) for t in knots]
        if not np.all(np.isfinite(f_knots)):
            i = int(np.flatnonzero(~np.isfinite(np.asarray(f_knots)))[0])
            raise NonFiniteIntegrandError(
                "integrand not finite at a quadrature node",
                node=float(center + scale * knots[i]),
            )
        for i in range(len(knots) - 1):
            lo, hi = knots[i], knots[i + 1]
            mid = 0.5 * (lo + hi)
            f_mid = g(mid)
            whole = (hi - lo) / 6.0 * (f_knots[i] + 4.0 * f_mid + f_knots[i + 1])
            total += _simpson_adaptive(
                g, lo, hi, f_knots[i], f_mid, f_knots[i + 1], whole, rule.rel_tol, 48
            )
        return float(scale * total)
    raise DomainError(f"unknown quadrature kind {rule.kind!r}")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _has_cholesky(a: np.ndarray) -> bool:
    """Whether ``a`` is finite and has a Cholesky factor."""
    if not np.isfinite(a).all():
        return False
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Raises
    ------
    DecompositionError
        If ``a`` has a non-finite entry or is not positive definite to
        working precision. The attached pivot is the last index of the first
        leading block without a Cholesky factor, or the last index when only
        the solve finds ``a`` singular.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise DomainError("dimension mismatch between matrix and right-hand side")
    if _has_cholesky(a):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            # Cholesky can pass by rounding on a matrix that is singular to
            # working precision; the LU step then meets a zero pivot
            pass
    last = a.shape[0] - 1
    j = next((k for k in range(last) if not _has_cholesky(a[: k + 1, : k + 1])), last)
    raise DecompositionError(f"matrix is not positive definite (pivot {j})", pivot=j)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via solve_spd."""
    a = np.asarray(a, dtype=float)
    return solve_spd(a, np.eye(a.shape[0]))


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by ``(seed, stream_id)``.

    Backed by the counter-based Philox bit generator keyed through
    ``SeedSequence(seed, spawn_key=(stream_id,))``; normal variates use
    numpy's ziggurat sampler.  The same pair always replays the identical
    sequence, and distinct stream ids give statistically independent
    streams, so parallel workers can each own one stream without
    coordination.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.seed < 2**64) or not (0 <= self.stream_id < 2**64):
            raise DomainError("seed and stream_id must be unsigned 64-bit integers")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.Philox(ss)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        return self._gen.random(size)
