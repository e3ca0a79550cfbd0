"""Monte Carlo harness: fixed designs, data generation with optional
contamination, and replicated studies of estimation error, test level, and
test power.

Reproducibility: every replication draws from its own stream addressed by
``(seed, replication_index)``, so a study result is a pure function of its
configuration and is bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimation import SolverOptions, fit_rp_path
from .exceptions import DegenerateFitError, DomainError
from .inference import LinearHypothesis, contiguous_power, wald_composite
from .model import ModelData, Theta
from .numerics import RngStream

__all__ = [
    "DesignSpec",
    "ContaminationSpec",
    "StudyConfig",
    "StudyResult",
    "make_design",
    "generate_data",
    "run_study",
    "contiguous_table",
    "study_result_rows",
    "write_study_csv",
    "write_study_json",
]


@dataclass(frozen=True)
class DesignSpec:
    """Fixed design for the univariate regression: intercept plus one
    covariate, either two-point (half at ``a``, half at ``b``) or drawn once
    from a standard normal and then held fixed."""

    kind: str = "two_point"
    n: int = 200
    a: float = 1.0
    b: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("two_point", "fixed_normal"):
            raise DomainError(f"unknown design kind {self.kind!r}")
        if self.n < 4:
            raise DomainError("need n >= 4")
        if self.kind == "two_point" and self.n % 2 != 0:
            raise DomainError("two-point design requires even n")

    def with_n(self, n: int) -> "DesignSpec":
        return DesignSpec(kind=self.kind, n=n, a=self.a, b=self.b, seed=self.seed)


@dataclass(frozen=True)
class ContaminationSpec:
    """Swap the regression vector on a fraction of the sample.

    The contaminated block keeps the error scale; only the mean shifts.
    Placement is the deterministic first block by default, or a seeded
    random subset.
    """

    fraction: float = 0.10
    contaminating_beta: tuple = (1.5, 2.0)
    placement: str = "first_block"
    placement_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction < 0.5:
            raise DomainError("contamination fraction must lie in [0, 0.5)")
        if self.placement not in ("first_block", "random_indices"):
            raise DomainError(f"unknown placement {self.placement!r}")

    def indices(self, n: int) -> np.ndarray:
        count = int(math.floor(self.fraction * n))
        if count == 0:
            return np.empty(0, dtype=int)
        if self.placement == "first_block":
            return np.arange(count)
        gen = RngStream(self.placement_seed, stream_id=2**32).generator
        return np.sort(gen.choice(n, size=count, replace=False))


@dataclass(frozen=True)
class StudyConfig:
    design: DesignSpec = field(default_factory=DesignSpec)
    true_beta: tuple = (1.0, 1.0)
    true_sigma: float = 1.0
    alphas: tuple = (0.0, 0.3, 0.7, 1.0)
    replications: int = 1000
    level: float = 0.05
    seed: int = 0
    contamination: ContaminationSpec | None = None
    sample_sizes: tuple | None = None
    # hypothesis name -> (index into theta, null value, alternative value or None)
    hypotheses: tuple = (("beta1", 1, 1.0, 0.45), ("sigma", 2, 1.0, 0.8))
    n_workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("need at least one replication")
        if any(a < 0 for a in self.alphas):
            raise DomainError("alphas must be nonnegative")
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must lie in (0, 1)")

    @property
    def ns(self) -> tuple:
        return self.sample_sizes if self.sample_sizes else (self.design.n,)


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    # keys: (alpha, n) -> dict with rmse, level per hypothesis, power per hypothesis
    cells: dict
    non_convergence_count: int
    excluded_replications: int


def make_design(spec: DesignSpec) -> np.ndarray:
    """Materialize the design matrix of a specification."""
    if spec.kind == "two_point":
        half = spec.n // 2
        x1 = np.concatenate([np.full(half, spec.a), np.full(spec.n - half, spec.b)])
    else:
        gen = RngStream(spec.seed, stream_id=2**33).generator
        x1 = gen.standard_normal(spec.n)
    return np.column_stack([np.ones(spec.n), x1])


def generate_data(
    design: np.ndarray,
    theta: Theta,
    contamination: ContaminationSpec | None,
    rng: RngStream,
) -> np.ndarray:
    """Draw one response vector; contaminated rows use the swapped
    regression vector with the same error scale."""
    n = design.shape[0]
    mean = design @ theta.beta
    if contamination is not None and contamination.fraction > 0.0:
        idx = contamination.indices(n)
        if idx.size:
            bad_beta = np.asarray(contamination.contaminating_beta, dtype=float)
            mean = mean.copy()
            mean[idx] = design[idx] @ bad_beta
    return mean + theta.sigma * rng.normal(n)


def _replication(args):
    """One replication: fit every alpha on the null draw and on each
    alternative draw, evaluate every hypothesis.  Returns per-alpha arrays
    or None when a fit fails (excluded upstream)."""
    (config, n, rep) = args
    design = make_design(config.design.with_n(n))
    theta_true = Theta(beta=np.asarray(config.true_beta, dtype=float), sigma=config.true_sigma)
    rng = RngStream(config.seed, stream_id=rep)
    y_null = generate_data(design, theta_true, config.contamination, rng)
    alt_draws = {}
    for name, index, null_value, alt_value in config.hypotheses:
        if alt_value is None:
            continue
        arr = theta_true.to_array()
        arr[index] = alt_value
        alt_draws[name] = generate_data(
            design, Theta.from_array(arr), config.contamination, rng
        )
    options = SolverOptions()
    out = {}
    try:
        data_null = ModelData(design, y_null)
        fits_null = fit_rp_path(data_null, config.alphas, options)
        alt_fits = {}
        for name, y_alt in alt_draws.items():
            data_alt = ModelData(design, y_alt)
            alt_fits[name] = (data_alt, fit_rp_path(data_alt, config.alphas, options))
    except DegenerateFitError:
        return rep, None
    hyps = {
        name: LinearHypothesis.coordinates([index], [null_value], theta_true.dim)
        for name, index, null_value, _ in config.hypotheses
    }
    for a in config.alphas:
        fit = fits_null[float(a)]
        if not fit.converged:
            out[a] = ("nonconverged",)
            continue
        err = fit.theta_hat.to_array() - theta_true.to_array()
        rejections = {}
        powers = {}
        ok = True
        for name, _, _, alt_value in config.hypotheses:
            hyp = hyps[name]
            rejections[name] = wald_composite(data_null, fit, hyp).reject_at(config.level)
            if alt_value is None:
                continue
            data_alt, fits_alt = alt_fits[name]
            fit_alt = fits_alt[float(a)]
            if not fit_alt.converged:
                ok = False
                break
            powers[name] = wald_composite(data_alt, fit_alt, hyp).reject_at(config.level)
        if not ok:
            out[a] = ("nonconverged",)
            continue
        out[a] = (float(err @ err), rejections, powers)
    return rep, out


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full replicated study.

    Per (alpha, n) cell: root-mean-square estimation error against the clean
    generating parameter, empirical level per hypothesis under the null
    draw, and empirical power per hypothesis under the alternative draw.
    Replications whose fit degenerates are excluded and counted; a
    non-converged fit excludes only its own (alpha, n) cell contribution.
    """
    cells = {}
    total_nonconv = 0
    total_excluded = 0
    for n in config.ns:
        jobs = [(config, n, rep) for rep in range(config.replications)]
        if config.n_workers > 1:
            with ProcessPoolExecutor(max_workers=config.n_workers) as pool:
                raw = list(pool.map(_replication, jobs, chunksize=32))
        else:
            raw = [_replication(job) for job in jobs]
        # deterministic aggregation order, independent of completion order
        raw.sort(key=lambda pair: pair[0])
        for a in config.alphas:
            sq_errors = []
            counts = {name: 0 for name, *_ in config.hypotheses}
            power_counts = {name: 0 for name, *_ in config.hypotheses}
            power_totals = {name: 0 for name, *_ in config.hypotheses}
            used = 0
            nonconv = 0
            for rep, payload in raw:
                if payload is None:
                    continue
                cell = payload[a]
                if cell[0] == "nonconverged":
                    nonconv += 1
                    continue
                sq, rejections, powers = cell
                used += 1
                sq_errors.append(sq)
                for name, rejected in rejections.items():
                    counts[name] += rejected
                for name, rejected in powers.items():
                    power_counts[name] += rejected
                    power_totals[name] += 1
            excluded = config.replications - used - nonconv
            total_nonconv += nonconv
            total_excluded += excluded
            if used == 0:
                raise DegenerateFitError("all replications failed; study is empty")
            cells[(float(a), int(n))] = {
                "rmse": float(np.sqrt(np.mean(sq_errors))),
                "level": {name: counts[name] / used for name in counts},
                "power": {
                    name: (power_counts[name] / power_totals[name])
                    for name in power_counts
                    if power_totals[name] > 0
                },
                "replications_used": used,
                "non_converged": nonconv,
            }
    result = StudyResult(
        config=config,
        cells=cells,
        non_convergence_count=total_nonconv,
        excluded_replications=total_excluded,
    )
    frac = total_nonconv / max(1, config.replications * len(config.ns) * len(config.alphas))
    if frac > 0.01:
        warnings.warn(
            f"{100 * frac:.1f}% of fits did not converge and were excluded",
            stacklevel=2,
        )
    return result


def contiguous_table(alphas, d_values, sigma: float, level: float) -> dict:
    """Analytic power of the slope test against local alternatives.

    ``d_values`` are design-normalized squared shifts; the noncentrality at
    tuning value a is ``d (2a+1)^{3/2} / (sigma^2 (1+a)^3)``, evaluated
    through the general local-alternative machinery on a reference design
    whose covariate second-moment equals one.
    """
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    hyp = LinearHypothesis.coordinates([1], [1.0], 3)
    table = {}
    for a in alphas:
        sigma_n = np.zeros((3, 3))
        fac = sigma**2 * (1 + a) ** 3 / (2 * a + 1) ** 1.5
        sigma_n[:2, :2] = fac * np.eye(2)
        sigma_n[2, 2] = 1.0
        row = {}
        for d in d_values:
            if d < 0:
                raise DomainError("shift values must be nonnegative")
            shift = np.array([0.0, math.sqrt(d), 0.0])
            row[float(d)] = (
                level if d == 0.0 else contiguous_power(hyp, shift, a, level, sigma_n)
            )
        table[float(a)] = row
    return table


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def study_result_rows(result: StudyResult):
    """Flatten a study result to one row per (alpha, n, hypothesis)."""
    rows = []
    for (a, n), cell in sorted(result.cells.items()):
        for name, *_ in result.config.hypotheses:
            rows.append(
                {
                    "alpha": a,
                    "n": n,
                    "hypothesis": name,
                    "rmse_theta": cell["rmse"],
                    "empirical_level": cell["level"][name],
                    "empirical_power": cell["power"].get(name, ""),
                    "replications_used": cell["replications_used"],
                    "non_converged": cell["non_converged"],
                }
            )
    return rows


_CSV_COLUMNS = [
    "alpha",
    "n",
    "hypothesis",
    "rmse_theta",
    "empirical_level",
    "empirical_power",
    "replications_used",
    "non_converged",
]


def write_study_csv(result: StudyResult, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for row in study_result_rows(result):
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def write_study_json(result: StudyResult, path) -> None:
    payload = {
        "rows": study_result_rows(result),
        "non_convergence_count": result.non_convergence_count,
        "excluded_replications": result.excluded_replications,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
