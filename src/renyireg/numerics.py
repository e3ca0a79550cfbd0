"""Special functions, Gauss-Hermite quadrature, reproducible RNG streams,
and small dense linear algebra.

Everything here is deterministic: identical inputs produce bit-identical
outputs, and RNG streams are fully specified by ``(seed, stream_id)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .exceptions import DecompositionError, DomainError, NonFiniteIntegrandError

__all__ = [
    "RngStream",
    "normal_cdf",
    "normal_quantile",
    "chisq_quantile",
    "chisq_sf",
    "noncentral_chisq_sf",
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
    """Survival function of the noncentral chi-square distribution,
    ``P(chi2_df(delta) > x)``, as the complement of
    ``scipy.special.chndtr``.  At ``delta = 0`` this is the central survival
    function.
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if x < 0 or delta < 0:
        raise DomainError("x and delta must be nonnegative")
    if delta == 0.0:
        return float(chisq_sf(x, df))
    return min(max(1.0 - float(_sp.chndtr(x, df, delta)), 0.0), 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# nodes of the Gauss-Hermite rule that ``integrate`` uses
QUADRATURE_NODES = 64


@functools.cache
def _gauss_hermite() -> tuple:
    """The ``QUADRATURE_NODES``-node Gauss-Hermite rule as read-only
    ``(nodes, weights)``.

    ``nodes`` are the standardized abscissas x_j and ``weights`` the combined
    factors w_j e^{x_j^2} sqrt(2), so that

        integral of g  ~=  scale * sum_j weights[j] * g(center + sqrt(2) * scale * nodes[j]).

    Built on first use; every later call returns the same arrays.
    """
    x, w = np.polynomial.hermite.hermgauss(QUADRATURE_NODES)
    # fold the e^{x^2} de-weighting and the sqrt(2) substitution Jacobian in
    combined = np.exp(np.log(w) + x * x) * math.sqrt(2.0)
    for arr in (x, combined):
        arr.setflags(write=False)
    return x, combined


def _first_bad(values: np.ndarray, ok: np.ndarray) -> float:
    return float(values[~ok][0])


def integrate(fn, center, scale):
    """Integrate ``fn`` over the real line by the 64-node Gauss-Hermite rule.

    ``fn`` is called once, on the array of transformed nodes, and returns
    one value per node along the nodes' axes: shape ``(m,)`` for a scalar
    integrand, ``(m, ...)`` for an array-valued one.  An array integrand is
    integrated entrywise and returned with its trailing shape, a scalar one
    as a float.  The rule is recentered and rescaled: it is accurate for
    integrands that are concentrated around ``center`` with width of order
    ``scale`` (e.g. powers of a normal density with mean ``center`` and sd
    ``scale``).

    ``center`` and ``scale`` may also be 1-D arrays of shape ``(k,)``, one
    entry per direction (a scalar broadcasts against the other).  ``fn``
    then gets the nodes as ``(k, m)``, row d placed by ``center[d]`` and
    ``scale[d]``, returns ``(k, m, ...)``, and the result is ``(k, ...)``:
    k integrals from one call.

    Raises
    ------
    DomainError
        If an entry of ``center`` is not finite, an entry of ``scale`` is
        not finite and positive, the two are not scalars or 1-D arrays of
        one shape, or ``fn`` does not return one value per node on the
        nodes' leading axes.
    NonFiniteIntegrandError
        If any entry of ``fn`` is non-finite at a node; the first such node
        (directions first, then nodes) is attached to the exception.
    """
    try:
        center, scale = np.broadcast_arrays(
            np.asarray(center, dtype=float), np.asarray(scale, dtype=float)
        )
    except ValueError as err:
        raise DomainError(f"center and scale do not broadcast: {err}") from err
    if center.ndim > 1:
        raise DomainError(f"center and scale must be scalars or 1-D, got shape {center.shape}")
    ok = np.isfinite(scale) & (scale > 0)
    if not ok.all():
        raise DomainError(f"scale must be finite and positive, got {_first_bad(scale, ok)}")
    ok = np.isfinite(center)
    if not ok.all():
        raise DomainError(f"center must be finite, got {_first_bad(center, ok)}")
    nodes, weights = _gauss_hermite()
    points = center[..., None] + math.sqrt(2.0) * scale[..., None] * nodes
    values = np.asarray(fn(points), dtype=float)
    if values.shape[: points.ndim] != points.shape:
        raise DomainError(
            f"integrand must return one value per node on leading axes of shape "
            f"{points.shape}, got shape {values.shape}"
        )
    ok = np.isfinite(values).all(axis=tuple(range(points.ndim, values.ndim)))
    if not ok.all():
        raise NonFiniteIntegrandError(
            "integrand not finite at a quadrature node", node=_first_bad(points, ok)
        )
    trailing = values.shape[points.ndim:]
    # one weights-row product per direction, as for a single direction
    flat = weights @ values.reshape(points.shape + (math.prod(trailing),))
    total = scale[..., None] * flat
    total = total.reshape(center.shape + trailing)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

# orders up to which solve_spd factors in Python floats: at these sizes two
# LAPACK dispatches cost more than the arithmetic
_SMALL_ORDER = 4
_EPS = float(np.finfo(float).eps)


def _not_positive_definite(j: int) -> DecompositionError:
    return DecompositionError(f"matrix is not positive definite (pivot {j})", pivot=j)


def _small_solve(rows: list, cols: list) -> list:
    """Solve ``a @ x = c`` in Python floats for each column ``c`` in
    ``cols`` (lists, overwritten with the solutions), where ``rows`` are the
    rows of ``a``.

    Row ``j`` of the lower Cholesky factor completes the factor of the
    leading ``j + 1`` block and advances every forward substitution by one
    step, so the first row that fails is the pivot.  A row fails when that
    block holds a non-finite entry (upper triangle included) or its pivot
    ``d`` is at or below ``order * eps * a[j][j]``: the matrix is then not
    positive definite to working precision.
    """
    n = len(rows)
    bad = n  # first index whose leading block holds a non-finite entry
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        bad = min(
            max(i, j)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if not math.isfinite(v)
        )
    low = []
    for j in range(n):
        if j == bad:
            raise _not_positive_definite(j)
        row = rows[j]
        lj = []
        for k in range(j):
            lk = low[k]
            t = row[k]
            for i in range(k):
                t -= lj[i] * lk[i]
            lj.append(t / lk[k])
        d = row[j]
        for u in lj:
            d -= u * u
        if not d > n * _EPS * row[j]:
            raise _not_positive_definite(j)
        r = math.sqrt(d)
        lj.append(r)
        low.append(lj)
        for x in cols:
            t = x[j]
            for k in range(j):
                t -= lj[k] * x[k]
            x[j] = t / r
    for x in cols:
        for j in range(n - 1, -1, -1):
            lj = low[j]
            xj = x[j] = x[j] / lj[j]
            for k in range(j):
                x[k] -= lj[k] * xj
    return cols


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    Up to order ``_SMALL_ORDER`` the matrix is factored once by a Cholesky in
    Python floats (see ``_small_solve``); larger orders go to LAPACK, with
    a Cholesky as the check and an LU solve.

    Raises
    ------
    DecompositionError
        If ``a`` has a non-finite entry or is not positive definite to
        working precision.  The attached pivot is the row at which
        ``_small_solve``'s working-precision rule fails (on the LAPACK path,
        the last index when that rule passes a matrix LAPACK rejected).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise DomainError("dimension mismatch between matrix and right-hand side")
    if a.shape[0] <= _SMALL_ORDER and b.ndim <= 2:
        if b.ndim == 1:
            return np.array(_small_solve(a.tolist(), [b.tolist()])[0])
        # one solve per column of b, transposed back to b's layout
        cols = _small_solve(a.tolist(), b.T.tolist())
        return np.array(cols).reshape(b.shape[::-1]).T.copy()
    if np.isfinite(a).all():
        try:
            np.linalg.cholesky(a)
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            # Cholesky can pass by rounding on a matrix that is singular to
            # working precision; the LU step then meets a zero pivot
            pass
    _small_solve(a.tolist(), [])
    raise _not_positive_definite(a.shape[0] - 1)


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
