"""Output checks computed by the benchmark itself, independently of the
library's own convergence flags and gradient norms."""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager

import numpy as np

# Largest normalised estimating-equation residual accepted at a returned fit.
# The seed commit reaches at most about 2e-7 (the first_word data, whose
# response scale of about 10 meets an absolute gradient tolerance of 1e-8);
# the silent maximum-likelihood fallback on a response scaled by 1e6 gives
# residuals of order 1e-2 and above.
RESIDUAL_TOL = 1e-6

# if_general (quadrature oracle) against if_mlrm_closed, relative to the
# largest closed-form component on the grid.
INFLUENCE_TOL = 1e-6


def eq_residual(data, fit) -> float:
    """Largest residual of the normal estimating equations at ``fit``.

    With standardized residuals ``r`` and weights ``w = exp(-a r^2 / 2)``
    the equations are ``mean(w r x_j) = 0`` and
    ``mean(w (r^2 - 1/(1+a))) = 0``.  Each is divided by a scale of its own
    terms (``sqrt(mean(w x_j^2))`` and ``mean(w)``), so the value does not
    depend on the units of the response or of any covariate.
    """
    x = np.asarray(data.design, dtype=float)
    y = np.asarray(data.response, dtype=float)
    theta, a = fit.theta_hat, float(fit.alpha)
    r = (y - x @ theta.beta) / theta.sigma
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        w = np.exp(-0.5 * a * r * r)
        n = y.size
        coef = np.abs(x.T @ (w * r) / n) / np.sqrt((x * x).T @ w / n)
        scale = abs(np.mean(w * (r * r - 1.0 / (1.0 + a)))) / np.mean(w)
    value = float(max(np.max(coef), scale))
    return value if np.isfinite(value) else float("inf")


def check_fits(data, fits, label: str):
    """Residual of every fit in a ``{alpha: FitResult}`` path.

    Returns ``(largest residual, failed fit count, messages)``; a fit fails
    when it is flagged non-converged or its residual exceeds the tolerance.
    """
    worst, failed, messages = 0.0, 0, []
    for alpha, fit in fits.items():
        res = eq_residual(data, fit)
        worst = max(worst, res)
        if not fit.converged:
            failed += 1
            messages.append(f"{label}: fit at alpha={alpha} not converged")
        elif not res <= RESIDUAL_TOL:
            failed += 1
            messages.append(f"{label}: residual {res:.3e} at alpha={alpha} above {RESIDUAL_TOL:g}")
    return worst, failed, messages


@contextmanager
def capture_fits(module):
    """Record every ``(data, fits)`` pair returned through ``module.fit_rp_path``."""
    original = module.fit_rp_path
    seen = []

    def recording(data, alphas, options=None):
        fits = original(data, alphas, options)
        seen.append((data, fits))
        return fits

    module.fit_rp_path = recording
    try:
        yield seen
    finally:
        module.fit_rp_path = original


def influence_gap(general, closed) -> float:
    """Largest difference between two influence reports, relative to the
    largest closed-form component."""
    g = np.asarray(general.first_order)
    c = np.asarray(closed.first_order)
    return float(np.max(np.abs(g - c)) / max(np.max(np.abs(c)), 1e-300))


def study_rows(csv_bytes: bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def contamination_ordering(rows, n: int, alpha_lo: float, alpha_hi: float):
    """Under contamination the robust fit must beat maximum likelihood:
    RMSE at ``alpha_hi`` below RMSE at ``alpha_lo`` in the size-``n`` cells.
    Returns an error message or None."""
    rmse = {
        float(row["alpha"]): float(row["rmse_theta"]) for row in rows if int(row["n"]) == n
    }
    if alpha_lo not in rmse or alpha_hi not in rmse:
        return f"study.csv has no n={n} rows for alphas {alpha_lo} and {alpha_hi}"
    if not rmse[alpha_hi] < rmse[alpha_lo]:
        return (
            f"n={n}: RMSE at alpha={alpha_hi} ({rmse[alpha_hi]:.4f}) not below "
            f"alpha={alpha_lo} ({rmse[alpha_lo]:.4f}) under contamination"
        )
    return None
