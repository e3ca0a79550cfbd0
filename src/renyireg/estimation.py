"""Point estimation for the normal linear model: closed-form maximum
likelihood, the robust divergence-based estimator for alpha > 0, and the
asymptotic covariance matrices of both.

The alpha > 0 objective is non-concave, so the solver tracks the branch
rooted at the maximum-likelihood solution by continuation: starting from the
closed-form fit at alpha = 0, it runs a damped Newton stage straight to each
requested alpha in turn, warm-started from the previous one, and halves a
step whose stage fails.  Every converged stage ends with one full Newton
step.  An optional multistart pass probes other basins.  Every stage runs at
unit response scale, whatever the scale of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .exceptions import DecompositionError, DegenerateFitError, DomainError, check_alpha
from .exceptions import _check_dimension, _check_numbers, check_seed, is_index
from .model import ModelData, Theta

__all__ = [
    "FitResult",
    "CovarianceTriple",
    "DesignDiagnostics",
    "SolverOptions",
    "design_diagnostics",
    "fit_mle",
    "fit_rp",
    "fit_rp_path",
    "covariance_mlrm",
]

MULTISTART_MARGIN = 1e-12
DEGENERATE_SCALE_FACTOR = 1e-10
TOL = 1e-8
MAX_ITER = 200
# a Newton stage over an alpha step of at most this length is never halved
# and may take saddle-free steps
_MIN_ALPHA_STEP = 0.0125
# rows per block of the Newton kernel's sums: a block's temporaries fit in L2
_ROWS = 8192


@dataclass(frozen=True)
class FitResult:
    """One fit.  A robust fit evaluates its ``objective_value`` and
    ``gradient_norm`` where either is first read, at the end of its Newton
    stage, with the bits an evaluation at fit time would give
    (docs/MATH.md).  Until then it holds its ``ModelData``, whose response
    is its own, the maximum-likelihood fit and that stage; pickling,
    copying, ``dataclasses.replace`` and ``==`` read both values first."""

    theta_hat: Theta
    alpha: float
    converged: bool
    iterations: int
    gradient_norm: float
    sigma_n: np.ndarray
    objective_value: float

    def __getattr__(self, name):
        # reached only where ``name`` is not set: a robust fit's two values
        if name not in ("objective_value", "gradient_norm"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # the stage's end, on the problem it ran on, in the response's units,
        # where both scale as sigma^(-a/(1+a)) and the gradient norm by a
        # further 1/sigma
        data, mle, stage = self._closing
        x, y, unit, _ = _centred_problem(data, mle)
        _close(x, y, self.alpha, stage)
        factor = unit ** (-self.alpha / (1 + self.alpha))
        value = stage.value * factor
        gnorm = _scaled_gradient_norm(stage.gradient, stage.s) * factor / unit
        object.__setattr__(self, "objective_value", value)
        object.__setattr__(self, "gradient_norm", gnorm)
        # two threads may both have read the pending state
        vars(self).pop("_closing", None)
        return value if name == "objective_value" else gnorm

    def __getstate__(self):
        # a pickle or copy carries the two values, not the pending state
        self.objective_value
        return vars(self)


@dataclass(frozen=True)
class CovarianceTriple:
    """Sensitivity matrix, score variance, and the sandwich they compose.

    Stored in the positive-definite convention, normalized so that
    ``psi_n^{-1} omega_n psi_n^{-1} = sigma_n`` holds exactly.
    """

    psi_n: np.ndarray
    omega_n: np.ndarray
    sigma_n: np.ndarray


@dataclass(frozen=True)
class DesignDiagnostics:
    min_eigenvalue_xtx_over_n: float
    max_scaled_leverage: float
    max_abs_covariate: float


@dataclass(frozen=True)
class SolverOptions:
    """Random restarts per tuning value (0: continuation only) and their seed."""

    multistart: int = 0
    multistart_seed: int = 0

    def __post_init__(self):
        if not is_index(self.multistart) or self.multistart < 0:
            raise DomainError(f"multistart must be a nonnegative integer, got {self.multistart!r}")
        check_seed(self.multistart_seed, "multistart_seed")


def design_diagnostics(data: ModelData) -> DesignDiagnostics:
    """Conditioning summary of the fixed design.

    Fitting requires X'X/n to have full rank, judged on its columns scaled
    to unit diagonal (see ``_require_full_rank``); the reported eigenvalue is
    that of X'X/n itself.  The scaled leverage n * max_i x_i' (X'X)^{-1} x_i
    flags designs whose asymptotics are driven by a few rows.
    """
    x = data.design
    n = data.n_obs
    lam = numerics.min_eigenvalue(data.xtx_over_n)
    if data.fixed_design.scaled_min_eigenvalue > numerics.MIN_SCALED_EIGENVALUE:
        xtx_inv = data.xtx_over_n_inverse / n
        leverage = np.einsum("ij,jk,ik->i", x, xtx_inv, x)
        max_lev = float(n * leverage.max())
    else:
        max_lev = math.inf
    return DesignDiagnostics(
        min_eigenvalue_xtx_over_n=lam,
        max_scaled_leverage=max_lev,
        max_abs_covariate=float(np.abs(x).max()),
    )


def _require_full_rank(data: ModelData) -> None:
    lam = data.fixed_design.scaled_min_eigenvalue
    if lam <= numerics.MIN_SCALED_EIGENVALUE:
        raise DecompositionError(
            f"design is rank deficient: min eigenvalue of X'X/n scaled to unit "
            f"diagonal is {lam:.3e}"
        )


def _normal_factors(a: float, scale=1.0):
    """The normal model's asymptotic factors at tuning value ``a``
    (docs/MATH.md): ``(scale c_beta, scale c_sigma, ratio_beta,
    ratio_sigma)``, where ``sigma_n = sigma^2 diag(c_beta (X'X/n)^{-1},
    c_sigma)``, ``psi_n^{-1} = sigma_n / ratio`` and ``omega_n = ratio
    psi_n``, block by block.  ``scale`` is a float or an array; each
    multiplier is a product taken from it up, inf only where its exact value
    is."""
    t = 1.0 + a
    u = 0.5 * t / (a + 0.5)
    root_u = math.sqrt(u)
    ratio_beta = u * root_u
    ratio_sigma = 0.5 * (3.0 - 2.0 / t + 1.0 / t / t) * u * u * root_u
    sandwich_beta = scale * (ratio_beta * math.sqrt(t)) * t
    sandwich_sigma = sandwich_beta * (0.5 * ratio_sigma / ratio_beta * t)
    return sandwich_beta, sandwich_sigma, ratio_beta, ratio_sigma


def covariance_mlrm(data: ModelData, theta: Theta, alpha: float) -> CovarianceTriple:
    """Asymptotic covariance of sqrt(n)(theta_hat - theta) and its factors.

    The coefficient block is ``sigma^2 (1+a)^3 / (2a+1)^{3/2} (X'X/n)^{-1}``
    and the scale entry ``sigma^2 (1+a)^3 (3a^2+4a+2) / (4 (2a+1)^{5/2})``;
    the blocks are asymptotically independent.  At ``alpha = 0`` this is the
    classical ``diag(sigma^2 (X'X/n)^{-1}, sigma^2/2)``.
    """
    a = check_alpha(alpha)
    sig2 = theta.sigma * theta.sigma
    sandwich_beta, sandwich_sigma, ratio_beta, ratio_sigma = _normal_factors(a, sig2)
    p = data.n_params
    psi = np.zeros((p + 1, p + 1))
    psi[:p, :p] = ratio_beta / sandwich_beta * data.xtx_over_n
    psi[p, p] = ratio_sigma / sandwich_sigma
    # the blocks of psi are its column blocks
    omega = psi * np.append(np.full(p, ratio_beta), ratio_sigma)
    sigma_n = _sigma_n(data.xtx_over_n_inverse, theta.sigma, a)
    return CovarianceTriple(psi_n=psi, omega_n=omega, sigma_n=sigma_n)


def _sigma_n(xtx_over_n_inverse: np.ndarray, sigma: float, a: float) -> np.ndarray:
    """The sandwich ``sigma_n`` of :func:`covariance_mlrm` alone, from
    ``(X'X/n)^{-1}``, the scale and a valid tuning value; each entry is the
    factor at its own scale ``(sigma s) sigma``, inf where a product
    overflows, as the Python floats of a per-entry form would give.  Up to
    order ``numerics._SMALL_ORDER`` it is that per-entry form, above it one
    array expression, which costs about the same at every order while the
    per-entry form grows as ``p^2`` (docs/MATH.md)."""
    p = xtx_over_n_inverse.shape[0]
    if p + 1 <= numerics._SMALL_ORDER:
        # one evaluation of the factors; _normal_factors multiplies a scale
        # by ratio_beta sqrt(t) and then by t, t = 1 + a
        t = 1.0 + a
        _, corner, ratio_beta, _ = _normal_factors(a, sigma * sigma)
        per_beta = ratio_beta * math.sqrt(t)
        rows = [
            [sigma * v * sigma * per_beta * t for v in row] + [0.0]
            for row in xtx_over_n_inverse.tolist()
        ]
        rows.append([0.0] * p + [corner])
        return np.array(rows)
    sigma_n = np.zeros((p + 1, p + 1))
    with np.errstate(over="ignore"):
        sigma_n[:p, :p] = _normal_factors(a, sigma * xtx_over_n_inverse * sigma)[0]
    sigma_n[p, p] = _normal_factors(a, sigma * sigma)[1]
    return sigma_n


# ---------------------------------------------------------------------------
# vectorized objective internals (beta, s = log sigma parameterization)
# ---------------------------------------------------------------------------

def _block_sums(x, y, beta, sig, a, k, dot):
    """The kernel's six sums over the rows of ``x`` and ``y``: ``m_0``,
    ``m_2``, the gradient product, ``m_4``, the cross column and ``X'(X
    w)``, with ``dot`` for the products."""
    r = y - dot(x, beta)
    r /= sig
    r2 = r * r
    v = np.exp(-0.5 * a * r2)
    vr = v * r
    vr2 = vr * r
    return [
        float(np.add.reduce(v)),
        float(np.add.reduce(vr2)),
        dot(vr, x),
        float(dot(vr2, r2)),
        dot(vr * (a * r2 - (a * k + 2.0)), x),
        dot(x.T, x * (a * vr2 - v)[:, None]),
    ]


def _objective_grad_hess(x, y, beta, s, a):
    """Objective value, gradient and Hessian at ``(beta, s)``.

    With ``r = (y - x beta) / sigma`` and ``v = exp(-a r^2 / 2)``, every entry
    is a constant times one of three moments ``sum v r^{0,2,4}`` or one of
    three weighted design products.  They are summed over blocks of ``_ROWS``
    rows, so that each block's temporaries stay in cache.  A design of one
    block is ``_centred_problem``'s contiguous column-major array: one
    ``_block_sums`` call forms its sums, with products through
    ``ndarray.dot``, which hands them to BLAS past matmul's dispatch.  The
    blocks of a larger design are strided views, which ``ndarray.dot`` would
    copy first, so they keep matmul (docs/MATH.md).  The gradient and
    Hessian are assembled from the sums entry by entry in Python floats,
    with the array assembly's operations in its order, so with its bits,
    and returned as arrays.

    A non-finite value is returned as ``-inf``, so a line search rejects the
    point; the derivatives are then meaningless.  Weights that underflow to
    0 are what the sums need, so callers run the kernel under
    ``np.errstate(under="ignore")``.
    """
    n, p = x.shape
    sig = math.exp(s)
    k = 1.0 / (1 + a)
    if n <= _ROWS:
        sums = _block_sums(x, y, beta, sig, a, k, np.ndarray.dot)
    else:
        sums = None
        for start in range(0, n, _ROWS):
            block = _block_sums(
                x[start : start + _ROWS], y[start : start + _ROWS], beta, sig, a, k, np.matmul
            )
            sums = block if sums is None else [total + part for total, part in zip(sums, block)]
    m0, m2, g, m4, cross, h = sums
    c = ((1 + a) / (2 * math.pi)) ** (a / (2 * (1 + a))) * sig ** (-a / (1 + a))
    val = c * m0 / n
    if not math.isfinite(val):
        val = -math.inf
    f_beta, f_beta2, f_s = a * c / (n * sig), a * c / (n * sig**2), a * c / n
    grad = [f_beta * v for v in g.tolist()]
    grad.append(f_s * (m2 - k * m0))
    # the entries of 0.5 (H + H') in row order; H's last row and column are
    # the scaled cross column
    side = [0.5 * (v * f_beta + v * f_beta) for v in cross.tolist()]
    corner = f_s * (a * (m4 - 2.0 * k * m2 + k * k * m0) - 2.0 * m2)
    h = h.tolist()
    hess = []
    for i, row in enumerate(h):
        for j, u in enumerate(row):
            hess.append(0.5 * (f_beta2 * u + f_beta2 * h[j][i]))
        hess.append(side[i])
    hess += side
    hess.append(0.5 * (corner + corner))
    return val, np.array(grad), np.array(hess).reshape(p + 1, p + 1)


def _scaled_gradient_norm(grad, s):
    """Max-norm of the gradient in (beta, sigma) coordinates."""
    *g_beta, g_s = grad.tolist()
    return _max_abs([*g_beta, g_s / math.exp(s)])


def _max_abs(values) -> float:
    """``float(np.max(np.abs(values)))`` of a few numbers, without an array:
    the largest absolute value, or NaN where an entry is NaN."""
    norm = 0.0
    for v in values:
        v = abs(v)
        if v != v:
            return float(v)
        if v > norm:
            norm = v
    return float(norm)


def _saddle_free_direction(xtx, s, val, neg, grad):
    """Ascent direction where ``neg`` (minus the Hessian) is not positive
    definite, or None where the derivatives are not finite, numpy refuses
    the metric or no curvature is nonzero: each generalised eigenvector of
    ``neg`` against ``val * diag(X'X / (n sigma^2), 2)``, a metric that
    changes with the units of y and X as the Hessian does, gets the absolute
    value of its curvature, floored at 1e-8 of the largest.  ``xtx`` is
    X'X / n.  At a subnormal alpha ``neg`` is 0."""
    if not (val > 0 and np.all(np.isfinite(neg)) and np.all(np.isfinite(grad))):
        return None
    p = xtx.shape[0]
    metric = np.zeros((p + 1, p + 1))
    metric[:p, :p] = xtx / math.exp(2.0 * s)
    metric[p, p] = 2.0
    try:
        root_inv = np.linalg.inv(np.linalg.cholesky(val * metric))
        curvature, vectors = np.linalg.eigh(root_inv @ neg @ root_inv.T)
    except np.linalg.LinAlgError:
        return None
    curvature = np.abs(curvature)
    top = float(curvature.max())
    if not top > 0.0:
        return None
    curvature = np.maximum(curvature, 1e-8 * top)
    return root_inv.T @ (vectors @ ((vectors.T @ (root_inv @ grad)) / curvature))


@dataclass(slots=True)
class _Stage:
    """Where a Newton stage ended, with the kernel's value and gradient there;
    at a converged stage's closing point both are None until ``_close``
    fills them in.  ``iterations`` counts the steps the line search
    accepted; a converged stage's closing full step is not among them."""

    beta: np.ndarray
    s: float
    converged: bool
    iterations: int
    value: float | None = None
    gradient: np.ndarray | None = None


def _newton_stage(x, y, beta, s, a, scale_floor, xtx, saddle_free=True) -> _Stage:
    """Damped Newton ascent at fixed alpha.

    Each point costs one kernel evaluation: the line search evaluates value,
    gradient and Hessian at every trial point and the accepted one carries
    them into the next iteration.  The stage has converged when a Newton step
    on a concave neighbourhood predicts a relative gain of at most ``TOL**2``:
    the decrement ``grad.dot(direction)`` does not change under X -> XA, and it
    scales with the objective value under y -> c y, so the rule has no units.
    A converged stage then takes that full Newton step and returns its end
    unevaluated, so that the fit does not depend on where the stage
    started; ``_close`` evaluates the value and gradient there where they
    are read.  Where the Newton matrix is not positive definite the stage
    takes a saddle-free step (``xtx`` is X'X / n), or with ``saddle_free``
    false ends there unconverged.  The kernel's weights may underflow, so
    the stage runs under ``np.errstate(under="ignore")``, set once for all
    its points.
    """
    beta = beta.copy()
    s = float(s)
    with np.errstate(under="ignore"):
        val, grad, hess = _objective_grad_hess(x, y, beta, s, a)
        for it in range(MAX_ITER):
            if math.exp(s) < scale_floor:
                # _continue reports the floor in the response's units
                raise DegenerateFitError
            neg = -hess
            try:
                direction = numerics.solve_spd(neg, grad)
            except DecompositionError:
                if not saddle_free:
                    return _Stage(beta, s, False, it, val, grad)
                direction = _saddle_free_direction(xtx, s, val, neg, grad)
                if direction is None:
                    return _Stage(beta, s, False, it, val, grad)
                slope = float(grad.dot(direction))
            else:
                # the decrement is also the line search's slope
                slope = float(grad.dot(direction))
                if slope <= TOL**2 * val:
                    beta = beta + direction[:-1]
                    s = s + float(direction[-1])
                    return _Stage(beta, s, True, it)
            ds = float(direction[-1])
            # keep single stages from tunnelling into the degenerate spike
            if abs(ds) > 1.0:
                direction = direction / abs(ds)
                ds = float(direction[-1])
                slope = float(grad.dot(direction))
            # near the optimum the predicted gain drops below the objective's
            # float resolution; the slack keeps the search from stalling there
            slack = 1e-14 * (1.0 + abs(val))
            step = 1.0
            for _ in range(60):
                cand_beta = beta + step * direction[:-1]
                cand_s = s + step * ds
                cand = _objective_grad_hess(x, y, cand_beta, cand_s, a)
                if cand[0] >= val + 1e-4 * step * slope - slack:
                    beta, s = cand_beta, cand_s
                    val, grad, hess = cand
                    break
                step *= 0.5
            else:
                return _Stage(beta, s, False, it, val, grad)
        return _Stage(beta, s, False, MAX_ITER, val, grad)


def _close(x, y, a, stage) -> _Stage:
    """Fill in the value and gradient at a converged stage's closing point,
    once: the kernel as the stage calls it, on the ``x`` and ``y`` the stage
    ran on and under its error state, with the Hessian dropped.  Returns
    ``stage``."""
    if stage.value is None:
        with np.errstate(under="ignore"):
            stage.value, stage.gradient, _ = _objective_grad_hess(x, y, stage.beta, stage.s, a)
    return stage


def fit_mle(data: ModelData) -> FitResult:
    """Closed-form maximum-likelihood fit: OLS coefficients and the
    1/n-denominator scale estimate.  Raises DomainError where the response's
    or the residuals' sum of squares overflows."""
    _require_full_rank(data)
    x, y = data.design, data.response
    n = data.n_obs
    beta = numerics.solve_spd(data.xtx_over_n, x.T @ y / n)
    resid = y - x @ beta
    # np.mean's own sums, of the residuals and of the response; one that
    # overflows is refused here, not read as a vanishing residual
    with np.errstate(over="ignore"):
        rss = float(np.add.reduce(resid * resid))
        yy = float(np.add.reduce(y * y))
    if not (math.isfinite(rss) and math.isfinite(yy)):
        raise DomainError("the response is too large: its sum of squares overflows")
    sigma = math.sqrt(rss / n)
    # <= keeps a zero response (rms 0, sigma 0) a degenerate fit
    if sigma <= DEGENERATE_SCALE_FACTOR * math.sqrt(yy / n):
        raise DegenerateFitError(
            "residuals vanish: the likelihood is unbounded as sigma -> 0"
        )
    theta = Theta(beta=beta, sigma=sigma)
    # the sigma component of the gradient is exactly zero at the 1/n solution
    scale = n * sigma**2
    gnorm = _max_abs([v / scale for v in (x.T @ resid).tolist()])
    loglik = -0.5 * math.log(2 * math.pi) - math.log(sigma) - 0.5
    return FitResult(
        theta_hat=theta,
        alpha=0.0,
        converged=True,
        iterations=0,
        gradient_norm=gnorm,
        sigma_n=_sigma_n(data.xtx_over_n_inverse, sigma, 0.0),
        objective_value=loglik,
    )


def _continue(x, y, xtx, beta, s, a_from, a_to, scale_floor, unit) -> _Stage:
    """Newton stages from ``(beta, s)``, the fit at ``a_from`` or a start at
    ``a_from = a_to``, to ``a_to``, on ``_centred_problem``'s ``x``, ``y``,
    ``scale_floor`` and ``unit``.

    Each stage steps straight to ``a_to``.  A stage whose alpha step is
    longer than ``_MIN_ALPHA_STEP`` is abandoned when it meets a Newton
    matrix that is not positive definite, ends unconverged or collapses, and
    is retried from the last accepted fit with half the step.  A stage at or
    below that length takes saddle-free steps and is accepted as it ends; its
    collapse raises, with the floor in the response's units.
    """
    a = a_to
    while True:
        # the slack keeps a step halved down to the floor from rounding above it
        may_halve = a - a_from > _MIN_ALPHA_STEP * (1 + 1e-9)
        try:
            stage = _newton_stage(x, y, beta, s, a, scale_floor, xtx, not may_halve)
        except DegenerateFitError:
            if not may_halve:
                raise DegenerateFitError(
                    f"scale collapsed below {scale_floor * unit:.3e} during fitting"
                ) from None
            stage = None
        if may_halve and (stage is None or not stage.converged):
            a = a_from + 0.5 * (a - a_from)
        elif a == a_to:
            return stage
        else:
            beta, s, a_from, a = stage.beta, stage.s, a, a_to


def fit_rp_path(data: ModelData, alphas, options: SolverOptions | None = None):
    """Fit the estimator at every alpha in ``alphas`` along one continuation
    run from the maximum-likelihood solution; returns ``{alpha: FitResult}``.
    Raises DomainError unless every alpha is finite and >= 0.
    """
    _check_numbers(alphas, "alphas")
    opts = options or SolverOptions()
    mle = fit_mle(data)
    x, y, unit, floor = _centred_problem(data, mle)
    xtx = data.xtx_over_n
    results: dict[float, FitResult] = {}
    beta = np.zeros(data.n_params)
    s = math.log(mle.theta_hat.sigma / unit)
    prev = 0.0
    for a in sorted(set(check_alpha(a) for a in alphas)):
        if a == 0.0:
            results[0.0] = mle
            continue
        stage = _continue(x, y, xtx, beta, s, prev, a, floor, unit)
        beta, s, prev = stage.beta, stage.s, a
        if opts.multistart > 0:
            stage = _multistart_refine(x, y, a, stage, opts, floor, xtx)
        results[a] = _package_fit(data, a, stage, mle, unit)
    return results


def _centred_problem(data: ModelData, mle: FitResult):
    """What Newton stages run on, ``(x, y, unit, floor)``: a column-major
    copy of X, on which the kernel's design products run faster, and the
    residuals ``y - X beta_MLE`` divided exactly by ``unit``, the power of two
    nearest the maximum-likelihood scale (docs/MATH.md).  Stage coefficients
    are offsets from ``beta_MLE`` in that unit, so that a response offset
    ``X d`` never enters the kernel's residuals, where it would round
    ``eps |X d|`` into every gradient.  ``floor``, the scale below which a
    stage collapses, is 1e-10 of the maximum-likelihood scale in that unit."""
    beta_mle, sigma = mle.theta_hat.beta, mle.theta_hat.sigma
    unit = math.ldexp(1.0, round(math.log2(sigma)))
    x = np.asfortranarray(data.design)
    return x, (data.response - x @ beta_mle) / unit, unit, DEGENERATE_SCALE_FACTOR * sigma / unit


def _package_fit(data, a, stage, mle, unit):
    """The fit at ``a`` from a stage run on ``_centred_problem`` of ``data``
    and ``mle``, its value and gradient norm pending until read
    (``FitResult``).  Its fields and ``_closing``, ``(data, mle, stage)``,
    are entries of its instance dictionary, as any fit's fields are."""
    theta = Theta(beta=mle.theta_hat.beta + unit * stage.beta, sigma=unit * math.exp(stage.s))
    fit = object.__new__(FitResult)
    vars(fit).update(
        theta_hat=theta,
        alpha=a,
        converged=stage.converged,
        iterations=stage.iterations,
        sigma_n=_sigma_n(data.xtx_over_n_inverse, theta.sigma, a),
        _closing=(data, mle, stage),
    )
    return fit


def _replaces(converged, value, current_converged, current_value) -> bool:
    """Whether a candidate fit replaces the current one: only a converged
    candidate does, when the current fit did not converge or the candidate's
    objective is higher by more than ``MULTISTART_MARGIN`` relative.  Runs
    that reach the same point tie on value to rounding, so ties keep the
    current fit."""
    return converged and (
        not current_converged
        or value > current_value + MULTISTART_MARGIN * abs(current_value)
    )


def _multistart_refine(x, y, a, stage, opts, floor, xtx):
    """Probe other basins from subsample starting points; keep the best
    stationary point by ``_replaces``, ``stage`` included.  ``x`` and ``y``
    are the path's ``_centred_problem``, and ``floor`` is in its units, so
    restarts start and end in its coordinates too."""
    n, p = x.shape
    best = stage
    stream = numerics.RngStream(opts.multistart_seed, stream_id=0)
    gen = stream.generator
    m = max(p + 2, n // 2)
    for _ in range(opts.multistart):
        idx = gen.choice(n, size=m, replace=False)
        xs, ys = x[idx], y[idx]
        try:
            b0 = np.linalg.solve(xs.T @ xs, xs.T @ ys)
        except np.linalg.LinAlgError:
            continue
        resid = ys - xs @ b0
        sd = float(np.sqrt(np.mean(resid * resid)))
        if sd < floor:
            continue
        s0 = math.log(sd * (0.3 + 0.9 * gen.random()))
        try:
            cand = _close(x, y, a, _newton_stage(x, y, b0, s0, a, floor, xtx))
        except DegenerateFitError:
            continue
        if cand.converged:
            best = _close(x, y, a, best)
        if _replaces(cand.converged, cand.value, best.converged, best.value):
            best = cand
    return best


def fit_rp(
    data: ModelData,
    alpha: float,
    init: Theta | None = None,
    options: SolverOptions | None = None,
) -> FitResult:
    """Fit the minimum-divergence estimator at a single alpha.

    ``alpha = 0`` returns the closed-form fit.  For ``alpha > 0`` the default
    start is the alpha-continuation path from the maximum-likelihood fit; an
    explicit ``init`` adds a direct Newton run from that point, which
    replaces the path's fit by the rule of ``_replaces``.  A non-converged
    run is returned flagged, never silently.
    """
    alpha = check_alpha(alpha)
    if init is not None:
        _check_dimension("init", init.dim, data.n_params + 1)
    if alpha == 0.0:
        return fit_mle(data)
    # the path's alpha = 0 fit sets the init run's problem
    fits = fit_rp_path(data, [0.0, alpha], options)
    mle, result = fits[0.0], fits[alpha]
    if init is not None:
        x, y, unit, floor = _centred_problem(data, mle)
        beta0, s0 = (init.beta - mle.theta_hat.beta) / unit, math.log(init.sigma / unit)
        stage = _continue(x, y, data.xtx_over_n, beta0, s0, alpha, alpha, floor, unit)
        # compared in the response's units, as the path's fit is
        fit = _package_fit(data, alpha, stage, mle, unit)
        if _replaces(fit.converged, fit.objective_value, result.converged, result.objective_value):
            result = fit
    return result
