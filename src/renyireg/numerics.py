"""Normal and chi-square distribution functions on ``math.erf``, ``erfc``
and ``lgamma`` alone, Gauss-Hermite quadrature, reproducible RNG streams,
and small dense linear algebra.

Everything here is deterministic: identical inputs produce bit-identical
outputs, and RNG streams are fully specified by ``(seed, stream_id)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DecompositionError, DomainError, NonFiniteIntegrandError
from .exceptions import check_count, check_probability, check_seed

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

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _entrywise(fn, x):
    """``fn`` on each entry of ``x``: a float for a scalar, else an array of x's shape."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return fn(float(arr))
    return np.array([fn(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def _tail_inverse(tail, log_density, log_target: float, x: float) -> float:
    """Root of ``tail(x) = e^{log_target}`` for a decreasing tail with density
    ``e^{log_density(x)}``: Newton steps on ``log tail`` until a step stops
    shrinking.  On a log-concave tail they fall to the root from above."""
    last = math.inf
    for _ in range(60):
        t = tail(x)
        if not t > 0.0:  # the tail underflowed: a subnormal target
            break
        dx = (math.log(t) - log_target) * math.exp(math.log(t) - log_density(x))
        if not 0.0 < abs(dx) < last:
            break
        x, last = x + dx, abs(dx)
    return x


def normal_cdf(x):
    """Standard normal distribution function Phi(x) = erfc(-x / sqrt 2) / 2;
    a scalar ``x`` gives a float, an array one an array of its shape."""
    return _entrywise(lambda v: 0.5 * math.erfc(-v / _SQRT2), x)


def _normal_upper_quantile(log_q: float) -> float:
    """z with 1 - Phi(z) = e^{log_q} <= 1/2, from Abramowitz-Stegun 26.2.23."""
    t = math.sqrt(-2.0 * log_q)
    t -= (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    tail = lambda z: 0.5 * math.erfc(z / _SQRT2)  # noqa: E731
    return _tail_inverse(tail, lambda z: -0.5 * z * z - _LOG_SQRT_2PI, log_q, t)


def _normal_quantile_scalar(p: float) -> float:
    check_probability(p, "quantile probability")
    r = p - 0.5
    if abs(r) > 0.25:
        return math.copysign(_normal_upper_quantile(math.log(min(p, 1.0 - p))), r)
    # Newton on erf(z / sqrt 2) / 2 = p - 1/2, exact here; four steps reach the root
    z = r * math.sqrt(2.0 * math.pi)
    for _ in range(5):
        z += (r - 0.5 * math.erf(z / _SQRT2)) * math.exp(0.5 * z * z + _LOG_SQRT_2PI)
    return z


def normal_quantile(p):
    """Inverse of :func:`normal_cdf`, entrywise like it; an entry of ``p``
    outside (0, 1) raises :class:`DomainError`."""
    return _entrywise(_normal_quantile_scalar, p)


def _log_gamma_term(s: float, h: float) -> float:
    """``log(h^s e^{-h} / Gamma(s + 1))``, finite where e^{-h} underflows."""
    return s * math.log(h) - h - math.lgamma(s + 1.0)


def _chisq_sf_scalar(x: float, df: int) -> float:
    h = 0.5 * x
    if h <= 0.0:  # x <= 0, or x / 2 underflows
        return 1.0
    if h == math.inf:
        return 0.0
    if df > 2 and x < df:
        # below the mean the lower series is short, about sqrt(df) terms
        # against the sum's df / 2, and 1 - P is above 0.39
        return 1.0 - _chisq_cdf_scalar(x, df)
    # Q(a, h) = Q(a - 1, h) + h^{a-1} e^{-h} / Gamma(a) down to Q(1, h) = e^{-h}
    # (even df) or Q(1/2, h) = erfc(sqrt h) (odd df)
    start = 0.5 * (df % 2)
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for k in range(df // 2):
        total += math.exp(_log_gamma_term(start + k, h))
    return min(total, 1.0)


def chisq_sf(x, df):
    """Survival function P(chi2_df > x) for an integer ``df >= 1``.

    Evaluated by the exact finite sum of the upper incomplete gamma function
    at integer and half-integer order, each term in log space, so the tail
    stays accurate where ``e^{-x/2}`` underflows; below the mean, ``x < df``
    with ``df > 2``, as 1 minus the lower series.  ``x <= 0`` gives 1.  A
    scalar ``x`` gives a float, an array one an array of its shape.

    Raises
    ------
    DomainError
        If ``df`` is not an integer >= 1.
    """
    df = check_count(df, "df")
    return _entrywise(lambda v: _chisq_sf_scalar(v, df), x)


def _chisq_log_pdf(x: float, df: int) -> float:
    return _log_gamma_term(0.5 * df - 1.0, 0.5 * x) - math.log(2.0)


def _chisq_cdf_scalar(x: float, df: int) -> float:
    """P(chi2_df <= x) by the series ``P(a, h) = sum_k h^{a+k} e^{-h} /
    Gamma(a+k+1)``, a = df/2, h = x/2: the first term in log space times the
    sum of the terms' ratios to it, which fall from 1 for h below a + 1."""
    a, h = 0.5 * df, 0.5 * x
    if h <= 0.0:
        return 0.0
    total = term = 1.0
    k = 1
    while term > 1e-17 * total:
        term *= h / (a + k)
        total += term
        k += 1
    return math.exp(_log_gamma_term(a, h)) * total


def chisq_quantile(df, upper_tail):
    """Point x with P(chi2_df > x) = upper_tail, for an integer ``df >= 1``
    and ``upper_tail`` strictly inside (0, 1).

    Above 1/2 the lower tail ``1 - upper_tail``, exact there, is inverted by
    Newton steps on ``log P(chi2_df <= x)`` that rise from a lower bound of
    the root.  At or below 1/2 it is a squared normal quantile at one df,
    else Newton steps on ``log chisq_sf`` from the Wilson-Hilferty point.
    """
    df = check_count(df, "df")
    check_probability(upper_tail, "upper-tail probability")
    a = 0.5 * df
    if upper_tail > 0.5:
        # P(a, h) <= h^a / Gamma(a + 1) bounds the root from below; P is
        # log-concave, so steps from there rise to the root, and mirrored in
        # x they fall to it as _tail_inverse takes them
        lower = 1.0 - upper_tail
        x = 2.0 * math.exp((math.lgamma(a + 1.0) + math.log(lower)) / a)
        return -_tail_inverse(
            lambda y: _chisq_cdf_scalar(-y, df),
            lambda y: _chisq_log_pdf(-y, df),
            math.log(lower),
            -x,
        )
    log_q = math.log(upper_tail)
    if df == 1:
        return _normal_upper_quantile(log_q - math.log(2.0)) ** 2
    c = 2.0 / (9.0 * df)
    wh = df * (1.0 - c - _normal_quantile_scalar(upper_tail) * math.sqrt(c)) ** 3
    # lower bounds of the root (Q(a, h) >= e^{-h}, 1 - Q(a, h) <= h^a / Gamma(a + 1))
    x = 2.0 * max(-log_q, math.exp((math.lgamma(a + 1.0) + math.log1p(-upper_tail)) / a))
    if wh > x and _chisq_sf_scalar(wh, df) > 0.0:
        x = wh
    log_pdf = lambda x: _chisq_log_pdf(x, df)  # noqa: E731
    return _tail_inverse(lambda x: _chisq_sf_scalar(x, df), log_pdf, log_q, x)


def noncentral_chisq_sf(x, df, delta):
    """Survival function of the noncentral chi-square distribution,
    ``P(chi2_df(delta) > x)``, for an integer ``df >= 1``.

    One df gives ``Phi(sqrt delta - sqrt x) + Phi(-sqrt delta - sqrt x)`` at
    every delta, 0 included, so the tail does not fall as delta grows.
    Other df sum the Poisson(delta/2) mixture of central tails within
    ``10 sqrt(delta/2) + 20`` terms of its mode, the masses in log space, so
    the sum holds where ``e^{-delta/2}`` underflows.  A negative or NaN
    ``x``, or a negative or infinite ``delta``, raises :class:`DomainError`.
    """
    df = check_count(df, "df")
    if not (x >= 0.0 and 0.0 <= delta < math.inf):
        raise DomainError(f"need x >= 0 and finite delta >= 0, got x={x}, delta={delta}")
    lam, h = 0.5 * delta, 0.5 * x
    if not 0.0 < h < math.inf:
        return chisq_sf(x, df)
    if df == 1:
        rx, rd = math.sqrt(x), math.sqrt(delta)
        if delta < 1e-8:
            # the pair's value at delta = 0 plus the leading term of its rise,
            # phi(sqrt x) sqrt(x) delta (the next is below 0.012 delta^2), so
            # that rounding in the pair cannot take the tail below its value at 0
            rise = math.exp(-h - _LOG_SQRT_2PI) * rx * delta
            return min(math.erfc(rx / _SQRT2) + rise, 1.0)
        return min(0.5 * (math.erfc((rx - rd) / _SQRT2) + math.erfc((rx + rd) / _SQRT2)), 1.0)
    if lam == 0.0:
        return chisq_sf(x, df)
    half = int(10.0 * math.sqrt(lam) + 20.0)
    lo = max(0, int(lam) - half)
    tail, total, mass = _chisq_sf_scalar(x, df + 2 * lo), 0.0, 0.0
    if tail >= 1.0:
        # every later tail is larger, so the mixture over its mass is 1 too
        return 1.0
    for j in range(lo, int(lam) + half + 1):
        p = math.exp(_log_gamma_term(j, lam))
        total, mass = total + p * tail, mass + p
        tail += math.exp(_log_gamma_term(0.5 * df + j, h))  # Q(df/2 + j + 1, x/2)
    # over the window's mass, which cancels the masses' common rounding
    return min(total / mass, 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# nodes of the Gauss-Hermite rule that ``integrate`` uses
QUADRATURE_NODES = 64
# evaluation points (quadrature nodes, residuals) per block of an array-valued
# integrand or score matrix, so that memory stays bounded in n
BLOCK_POINTS = 1 << 16


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
# LAPACK dispatches cost more than the arithmetic, even of the row loop
_SMALL_ORDER = 4
_EPS = float(np.finfo(float).eps)


def _not_positive_definite(j: int) -> DecompositionError:
    return DecompositionError(f"matrix is not positive definite (pivot {j})", pivot=j)


def _cholesky_solve(rows: list, cols: list) -> list:
    """Solve ``a @ x = c`` for each list ``c`` in ``cols``, in place, by a
    Cholesky in Python floats of the matrix ``a`` with rows ``rows``.

    Row ``j`` of the factor completes the factor of the leading ``j + 1``
    block, so the first row that fails is the pivot raised, with ``cols``
    empty too.  A row fails when that block holds a non-finite entry (upper
    triangle included) or its pivot ``d`` is at or below ``order * eps *
    a[j][j]``: the matrix is then not positive definite to working precision.
    """
    n = len(rows)
    # the first index whose leading block holds a non-finite entry
    bad = min(
        (max(i, j) for i, r in enumerate(rows) for j, v in enumerate(r) if not math.isfinite(v)),
        default=n,
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
        lj.append(math.sqrt(d))
        low.append(lj)
    for x in cols:
        for j, lj in enumerate(low):
            t = x[j]
            for k in range(j):
                t -= lj[k] * x[k]
            x[j] = t / lj[j]
        for j in range(n - 1, -1, -1):
            lj = low[j]
            xj = x[j] = x[j] / lj[j]
            for k in range(j):
                x[k] -= lj[k] * xj
    return cols


# Order 3, an intercept and one covariate as in every study, unrolled:
# ``_cholesky_solve``'s operations in its order.  Only the upper triangle of
# a leading block is tested for a non-finite entry; one in row j's lower
# triangle or diagonal makes d_j NaN or -inf (or a_jj is +inf), failing at j.

def _solve3(rows: list, cols: list) -> list:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    tol = 3 * _EPS
    if not a00 > tol * a00:
        raise _not_positive_definite(0)
    l00 = math.sqrt(a00)
    l10 = a10 / l00
    d = a11 - l10 * l10
    if not (d > tol * a11 and math.isfinite(a01)):
        raise _not_positive_definite(1)
    l11 = math.sqrt(d)
    l20 = a20 / l00
    l21 = (a21 - l20 * l10) / l11
    d = a22 - l20 * l20 - l21 * l21
    if not (d > tol * a22 and math.isfinite(a02) and math.isfinite(a12)):
        raise _not_positive_definite(2)
    l22 = math.sqrt(d)
    out = []
    for b0, b1, b2 in cols:
        y0 = b0 / l00
        y1 = (b1 - l10 * y0) / l11
        x2 = (b2 - l20 * y0 - l21 * y1) / l22 / l22
        x1 = (y1 - l21 * x2) / l11
        out.append([(y0 - l20 * x2 - l10 * x1) / l00, x1, x2])
    return out


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive-definite ``a``.

    At orders 1 to ``_SMALL_ORDER`` the matrix is factored once in Python
    floats: by the unrolled ``_solve3`` at order 3, the order of an
    intercept and one covariate, else by the row loop ``_cholesky_solve``.
    Larger orders go to LAPACK, with a Cholesky as the check and an LU
    solve.

    Raises
    ------
    DecompositionError
        If ``a`` has a non-finite entry or is not positive definite to
        working precision.  The attached pivot is the row at which
        ``_cholesky_solve``'s factor fails (on the LAPACK path, the last
        index when that factor passes a matrix LAPACK rejected).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise DomainError("dimension mismatch between matrix and right-hand side")
    if 0 < a.shape[0] <= _SMALL_ORDER and b.ndim <= 2:
        solve = _solve3 if a.shape[0] == 3 else _cholesky_solve
        if b.ndim == 1:
            return np.array(solve(a.tolist(), [b.tolist()])[0])
        # one solve per column of b, transposed back to b's layout
        cols = solve(a.tolist(), b.T.tolist())
        return np.array(cols).reshape(b.shape[::-1]).T.copy()
    if np.isfinite(a).all():
        try:
            np.linalg.cholesky(a)
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            # Cholesky can pass by rounding on a matrix that is singular to
            # working precision; the LU step then meets a zero pivot
            pass
    _cholesky_solve(a.tolist(), [])
    raise _not_positive_definite(a.shape[0] - 1)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via solve_spd."""
    a = np.asarray(a, dtype=float)
    return solve_spd(a, np.eye(a.shape[0]))


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])


MIN_SCALED_EIGENVALUE = 1e-12


def scaled_min_eigenvalue(gram: np.ndarray) -> float:
    """Smallest eigenvalue of a Gram matrix ``A'A`` scaled to unit diagonal,
    in no units of ``A``'s columns, 0 when a column is zero: ``A`` has full
    column rank when it exceeds ``MIN_SCALED_EIGENVALUE``."""
    d = np.sqrt(np.diag(gram))
    if not np.all(d > 0):
        return 0.0
    return min_eigenvalue(gram / np.outer(d, d))


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
        check_seed(self.seed, "seed")
        check_seed(self.stream_id, "stream_id")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.Philox(ss)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def normal(self, size=None):
        return self._gen.standard_normal(size)
