"""Point estimation for the normal linear model: closed-form maximum
likelihood, the robust divergence-based estimator for alpha > 0, and the
asymptotic covariance matrices of both.

The alpha > 0 objective is non-concave, so the solver tracks the branch
rooted at the maximum-likelihood solution by continuation: starting from the
closed-form fit at alpha = 0, it runs a damped Newton stage straight to each
requested alpha in turn, warm-started from the previous one, and halves a
step whose stage fails.  Every converged stage ends with one full Newton
step.  An optional multistart pass probes other basins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .exceptions import DecompositionError, DegenerateFitError, DomainError, check_alpha
from .exceptions import check_seed, is_index
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
    theta_hat: Theta
    alpha: float
    converged: bool
    iterations: int
    gradient_norm: float
    sigma_n: np.ndarray
    objective_value: float


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


def _collapse_floor(mle: FitResult) -> float:
    """Scale below which a Newton stage counts as collapsed: ``1e-10`` of the
    maximum-likelihood scale, which moves with the fit under y -> c y + X d."""
    return DEGENERATE_SCALE_FACTOR * mle.theta_hat.sigma


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
    overflows, as the Python floats of a per-entry form would give."""
    p = xtx_over_n_inverse.shape[0]
    sigma_n = np.zeros((p + 1, p + 1))
    with np.errstate(over="ignore"):
        sigma_n[:p, :p] = _normal_factors(a, sigma * xtx_over_n_inverse * sigma)[0]
    sigma_n[p, p] = _normal_factors(a, sigma * sigma)[1]
    return sigma_n


# ---------------------------------------------------------------------------
# vectorized objective internals (beta, s = log sigma parameterization)
# ---------------------------------------------------------------------------

def _objective_grad_hess(x, y, beta, s, a, hessian=True):
    """Objective value, gradient and Hessian at ``(beta, s)``.

    With ``r = (y - x beta) / sigma`` and ``v = exp(-a r^2 / 2)``, every entry
    is a constant times one of three moments ``sum v r^{0,2,4}`` or one of
    three weighted design products.  They are summed over blocks of ``_ROWS``
    rows, so that each block's temporaries stay in cache.  With ``hessian``
    false the Hessian's moment and products are skipped and ``None`` is
    returned in its place; the value and gradient are the same bits.

    A non-finite value is returned as ``-inf``, so a line search rejects the
    point; the derivatives are then meaningless.  Weights that underflow to
    0 are what the sums need, so callers run the kernel under
    ``np.errstate(under="ignore")``.
    """
    n, p = x.shape
    sig = math.exp(s)
    k = 1.0 / (1 + a)
    sums = None
    for start in range(0, n, _ROWS):
        xb = x[start : start + _ROWS]
        r = y[start : start + _ROWS] - xb @ beta
        r /= sig
        r2 = r * r
        v = np.exp(-0.5 * a * r2)
        vr = v * r
        vr2 = vr * r
        block = [float(v.sum()), float(vr2.sum()), vr @ xb]
        if hessian:
            block += [
                float(vr2 @ r2),
                (vr * (a * r2 - (a * k + 2.0))) @ xb,
                xb.T @ (xb * (a * vr2 - v)[:, None]),
            ]
        sums = block if sums is None else [total + part for total, part in zip(sums, block)]
    m0, m2, g = sums[:3]
    c = ((1 + a) / (2 * math.pi)) ** (a / (2 * (1 + a))) * sig ** (-a / (1 + a))
    val = c * m0 / n
    if not math.isfinite(val):
        val = -math.inf
    grad = np.empty(p + 1)
    grad[:p] = a * c / (n * sig) * g
    grad[p] = a * c / n * (m2 - k * m0)
    if not hessian:
        return val, grad, None
    m4, cross, h = sums[3:]
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = a * c / (n * sig**2) * h
    cross *= a * c / (n * sig)
    hess[:p, p] = cross
    hess[p, :p] = cross
    hess[p, p] = a * c / n * (a * (m4 - 2.0 * k * m2 + k * k * m0) - 2.0 * m2)
    return val, grad, 0.5 * (hess + hess.T)


def _scaled_gradient_norm(grad, s):
    """Max-norm of the gradient in (beta, sigma) coordinates."""
    g_check = grad.copy()
    g_check[-1] /= math.exp(s)
    return float(np.max(np.abs(g_check)))


def _saddle_free_direction(xtx, s, val, neg, grad):
    """Ascent direction where ``neg`` (minus the Hessian) is not positive
    definite, or None where the derivatives are not finite: each generalised
    eigenvector of ``neg`` against ``val * diag(X'X / (n sigma^2), 2)``, a
    metric that changes with the units of y and X as the Hessian does, gets
    the absolute value of its curvature, floored at 1e-8 of the largest.
    ``xtx`` is X'X / n."""
    if not (val > 0 and np.all(np.isfinite(neg)) and np.all(np.isfinite(grad))):
        return None
    p = xtx.shape[0]
    metric = np.zeros((p + 1, p + 1))
    metric[:p, :p] = xtx / math.exp(2.0 * s)
    metric[p, p] = 2.0
    root_inv = np.linalg.inv(np.linalg.cholesky(val * metric))
    curvature, vectors = np.linalg.eigh(root_inv @ neg @ root_inv.T)
    curvature = np.maximum(np.abs(curvature), 1e-8 * np.max(np.abs(curvature)))
    return root_inv.T @ (vectors @ ((vectors.T @ (root_inv @ grad)) / curvature))


class _Stage(NamedTuple):
    """Where a Newton stage ended, with the kernel's value and gradient there.
    ``iterations`` counts the steps the line search accepted; a converged
    stage's closing full step is not among them."""

    beta: np.ndarray
    s: float
    converged: bool
    iterations: int
    value: float
    gradient: np.ndarray


def _newton_stage(x, y, beta, s, a, scale_floor, xtx, saddle_free=True) -> _Stage:
    """Damped Newton ascent at fixed alpha.

    Each point costs one kernel evaluation: the line search evaluates value,
    gradient and Hessian at every trial point and the accepted one carries
    them into the next iteration.  The stage has converged when a Newton step
    on a concave neighbourhood predicts a relative gain of at most ``TOL**2``:
    the decrement ``grad @ direction`` does not change under X -> XA, and it
    scales with the objective value under y -> c y, so the rule has no units.
    A converged stage then takes that full Newton step and reports the value
    and gradient at its end, which it evaluates without the Hessian, so that
    the fit does not depend on where the stage started.  Where the Newton
    matrix is not positive definite the stage takes a saddle-free step
    (``xtx`` is X'X / n), or with ``saddle_free`` false ends there
    unconverged.  The kernel's weights may underflow, so the stage runs
    under ``np.errstate(under="ignore")``, set once for all its points.
    """
    beta = beta.copy()
    s = float(s)
    with np.errstate(under="ignore"):
        val, grad, hess = _objective_grad_hess(x, y, beta, s, a)
        for it in range(MAX_ITER):
            if math.exp(s) < scale_floor:
                raise DegenerateFitError(
                    f"scale collapsed below {scale_floor:.3e} during fitting"
                )
            neg = -hess
            try:
                direction = numerics.solve_spd(neg, grad)
            except DecompositionError:
                if not saddle_free:
                    return _Stage(beta, s, False, it, val, grad)
                direction = _saddle_free_direction(xtx, s, val, neg, grad)
                if direction is None:
                    return _Stage(beta, s, False, it, val, grad)
                slope = float(grad @ direction)
            else:
                # the decrement is also the line search's slope
                slope = float(grad @ direction)
                if slope <= TOL**2 * val:
                    beta = beta + direction[:-1]
                    s = s + float(direction[-1])
                    val, grad, _ = _objective_grad_hess(x, y, beta, s, a, hessian=False)
                    return _Stage(beta, s, True, it, val, grad)
            ds = float(direction[-1])
            # keep single stages from tunnelling into the degenerate spike
            if abs(ds) > 1.0:
                direction = direction / abs(ds)
                ds = float(direction[-1])
                slope = float(grad @ direction)
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


def fit_mle(data: ModelData) -> FitResult:
    """Closed-form maximum-likelihood fit: OLS coefficients and the
    1/n-denominator scale estimate."""
    _require_full_rank(data)
    x, y = data.design, data.response
    n = data.n_obs
    beta = numerics.solve_spd(data.xtx_over_n, x.T @ y / n)
    resid = y - x @ beta
    sigma = float(np.sqrt(np.mean(resid * resid)))
    # <= keeps a zero response (rms 0, sigma 0) a degenerate fit
    if sigma <= DEGENERATE_SCALE_FACTOR * float(np.sqrt(np.mean(y * y))):
        raise DegenerateFitError(
            "residuals vanish: the likelihood is unbounded as sigma -> 0"
        )
    theta = Theta(beta=beta, sigma=sigma)
    grad = np.concatenate([x.T @ resid / (n * sigma**2), [0.0]])
    # sigma component is exactly zero at the 1/n solution by construction
    gnorm = float(np.max(np.abs(grad)))
    loglik = float(-0.5 * math.log(2 * math.pi) - math.log(sigma) - 0.5)
    return FitResult(
        theta_hat=theta,
        alpha=0.0,
        converged=True,
        iterations=0,
        gradient_norm=gnorm,
        sigma_n=_sigma_n(data.xtx_over_n_inverse, sigma, 0.0),
        objective_value=loglik,
    )


def _continue(x, y, xtx, beta, s, a_from, a_to, scale_floor) -> _Stage:
    """Newton stages from ``(beta, s)``, the fit at ``a_from``, to ``a_to``.

    Each stage steps straight to ``a_to``.  A stage whose alpha step is
    longer than ``_MIN_ALPHA_STEP`` is abandoned when it meets a Newton
    matrix that is not positive definite, ends unconverged or collapses, and
    is retried from the last accepted fit with half the step.  A stage at or
    below that length takes saddle-free steps and is accepted as it ends.
    """
    a = a_to
    while True:
        # the slack keeps a step halved down to the floor from rounding above it
        may_halve = a - a_from > _MIN_ALPHA_STEP * (1 + 1e-9)
        try:
            stage = _newton_stage(x, y, beta, s, a, scale_floor, xtx, not may_halve)
        except DegenerateFitError:
            if not may_halve:
                raise
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
    opts = options or SolverOptions()
    mle = fit_mle(data)
    x, y = _centred_problem(data, mle)
    xtx = data.xtx_over_n
    floor = _collapse_floor(mle)
    results: dict[float, FitResult] = {}
    beta = np.zeros(data.n_params)
    s = math.log(mle.theta_hat.sigma)
    prev = 0.0
    for a in sorted(set(check_alpha(a) for a in alphas)):
        if a == 0.0:
            results[0.0] = mle
            continue
        stage = _continue(x, y, xtx, beta, s, prev, a, floor)
        beta, s, prev = stage.beta, stage.s, a
        if opts.multistart > 0:
            stage = _multistart_refine(x, y, a, stage, opts, floor, xtx)
        results[a] = _package_fit(data, a, stage, mle)
    return results


def _centred_problem(data: ModelData, mle: FitResult):
    """The design and response that Newton stages run on: a column-major copy
    of X, on which the kernel's design products run faster, and the residuals
    ``y - X beta_MLE``.  Stage coefficients are offsets from ``beta_MLE``, so
    that a response offset ``X d`` never enters the kernel's residuals, where
    it would round ``eps |X d|`` into every gradient."""
    x = np.asfortranarray(data.design)
    return x, data.response - x @ mle.theta_hat.beta


def _package_fit(data, a, stage, mle):
    """The fit at ``a`` from a stage run on ``_centred_problem(data, mle)``."""
    theta = Theta(beta=mle.theta_hat.beta + stage.beta, sigma=math.exp(stage.s))
    return FitResult(
        theta_hat=theta,
        alpha=a,
        converged=stage.converged,
        iterations=stage.iterations,
        gradient_norm=_scaled_gradient_norm(stage.gradient, stage.s),
        sigma_n=_sigma_n(data.xtx_over_n_inverse, theta.sigma, a),
        objective_value=stage.value,
    )


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
    are the path's ``_centred_problem``, so restarts start and end in its
    coordinates too."""
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
            cand = _newton_stage(x, y, b0, s0, a, floor, xtx)
        except DegenerateFitError:
            continue
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
    if alpha == 0.0:
        return fit_mle(data)
    # the path's alpha = 0 fit centres the init run and sets its collapse floor
    fits = fit_rp_path(data, [0.0, alpha], options)
    result = fits[alpha]
    if init is not None:
        mle = fits[0.0]
        x, y = _centred_problem(data, mle)
        start = init.beta - mle.theta_hat.beta
        stage = _newton_stage(
            x, y, start, math.log(init.sigma), alpha, _collapse_floor(mle), data.xtx_over_n
        )
        if _replaces(stage.converged, stage.value, result.converged, result.objective_value):
            result = _package_fit(data, alpha, stage, mle)
    return result
