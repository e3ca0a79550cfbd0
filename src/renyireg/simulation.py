"""Monte Carlo harness: fixed designs, data generation with optional
contamination, and replicated studies of estimation error, test level, and
test power.

A study runs in blocks of consecutive replications at one sample size.  A
block builds what every replication of a study shares once: the design with
its X'X/n, inverse and rank check (a :class:`~renyireg.model.Design`), the
generating parameters and each draw's mean vector.  Each replication then
only draws, fits, and decides each hypothesis, which pins one coordinate of
theta, from that fitted coordinate and its entry of ``sigma_n``.

Reproducibility: every replication draws from its own stream addressed by
``(seed, replication_index)``, so a study result is a pure function of its
configuration and is bit-identical for any worker count and block size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import write_csv, write_json
from .estimation import fit_rp_path
from .exceptions import DegenerateFitError, DomainError, check_alpha, check_probability
from .exceptions import _check_dimension, _check_numbers, check_seed, is_index
from .inference import _coordinate_p_value
from .model import Design, ModelData, Theta
from .numerics import RngStream, chisq_quantile, noncentral_chisq_sf
from .robustness import are

__all__ = [
    "DesignSpec",
    "ContaminationSpec",
    "StudyConfig",
    "StudyResult",
    "make_design",
    "generate_data",
    "run_study",
    "contiguous_table",
    "write_study_csv",
    "write_study_json",
]

# replications per block, the unit of work of a pool task; records come back
# in (n, replication) order, so the study output does not depend on it
_BLOCK = 32


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
        if not is_index(self.n) or self.n < 4:
            raise DomainError(f"need an integer n >= 4, got {self.n!r}")
        check_seed(self.seed, "design seed")
        if self.kind == "two_point" and self.n % 2 != 0:
            raise DomainError(f"two-point design requires even n, got {self.n}")


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
        check_seed(self.placement_seed, "placement_seed")

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
        if not is_index(self.replications) or self.replications < 1:
            raise DomainError(f"need at least one replication, got {self.replications!r}")
        check_seed(self.seed, "seed")
        _check_numbers(self.alphas, "alphas")
        if self.sample_sizes is not None:
            _check_numbers(self.sample_sizes, "sample_sizes")
        _check_numbers(self.hypotheses, "hypotheses", of="4-value entries")
        if not self.alphas or not self.hypotheses:
            raise DomainError("need at least one alpha and one hypothesis")
        for a in self.alphas:
            check_alpha(a)
        if len(set(self.alphas)) != len(self.alphas):
            raise DomainError(f"alphas repeat: {self.alphas}")
        check_probability(self.level, "level")
        # every design has an intercept and one covariate: theta is (beta0, beta1, sigma)
        betas = {"true_beta": self.true_beta}
        if self.contamination is not None:
            betas["contaminating_beta"] = self.contamination.contaminating_beta
        for name, beta in betas.items():
            if np.shape(beta) != (2,):
                raise DomainError(f"{name} needs 2 entries, one per design column, got {beta}")
            if not np.all(np.isfinite(beta)):
                raise DomainError(f"{name} must be finite, got {beta}")
        if not (math.isfinite(self.true_sigma) and self.true_sigma > 0):
            raise DomainError(f"true_sigma must be finite and positive, got {self.true_sigma}")
        for hypothesis in self.hypotheses:
            if not isinstance(hypothesis, (tuple, list)) or len(hypothesis) != 4:
                raise DomainError(
                    "each hypotheses entry needs 4 values (name, index, null value, "
                    f"alternative or None), got {hypothesis!r}"
                )
            name, index, null_value, alt_value = hypothesis
            if not is_index(index, 3):
                raise DomainError(f"hypothesis {name}: parameter index {index} outside 0..2")
            values = (null_value,) if alt_value is None else (null_value, alt_value)
            if not all(math.isfinite(v) for v in values):
                raise DomainError(f"hypothesis {name}: values must be finite, got {values}")
            # an alternative is a generating parameter, and the scale is index 2
            if index == 2 and alt_value is not None and not alt_value > 0:
                raise DomainError(
                    f"hypothesis {name}: the scale alternative must be positive, got {alt_value}"
                )
        names = tuple(name for name, *_ in self.hypotheses)
        if len(set(names)) != len(names):
            raise DomainError(f"hypothesis names repeat: {names}")
        if not is_index(self.n_workers) or self.n_workers < 1:
            raise DomainError(f"need at least one worker, got {self.n_workers}")
        if len(set(self.ns)) != len(self.ns):
            raise DomainError(f"sample sizes repeat: {self.ns}")
        for n in self.ns:
            replace(self.design, n=n)  # the design refuses an n it cannot build

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


def _means(design: np.ndarray, thetas, contamination: ContaminationSpec | None) -> list:
    """Mean response of a draw at each of ``thetas``; contaminated rows,
    placed once for all of them, use the swapped regression vector."""
    means = [design @ theta.beta for theta in thetas]
    if contamination is not None:
        idx = contamination.indices(design.shape[0])
        if idx.size:
            bad_mean = design[idx] @ np.asarray(contamination.contaminating_beta, dtype=float)
            for mean in means:
                mean[idx] = bad_mean
    return means


def generate_data(
    design: np.ndarray,
    theta: Theta,
    contamination: ContaminationSpec | None,
    rng: RngStream,
) -> np.ndarray:
    """Draw one response vector; contaminated rows use the swapped
    regression vector with the same error scale."""
    _check_dimension("theta", theta.dim, design.shape[1] + 1)
    return _means(design, [theta], contamination)[0] + theta.sigma * rng.normal(design.shape[0])


def _replication_block(task):
    """Outcome records of replications ``start .. stop - 1`` at sample size
    ``n``, in replication order.

    The block builds the design, the generating parameters (the truth, then
    one alternative per hypothesis that has one, in ``config.hypotheses``
    order) and each draw's mean once.  Replication ``rep`` draws one
    response per parameter from ``RngStream(config.seed, rep)`` and fits
    every alpha on each draw.  Its record is None when a fit
    degenerates, which excludes the replication; otherwise one entry per
    alpha: None when a fit at that alpha did not converge, else ``(squared
    error, rejections under the null per hypothesis, rejections under each
    alternative)``.
    """
    config, n, start, stop = task
    design = Design(make_design(replace(config.design, n=n)))
    theta_true = Theta(beta=np.asarray(config.true_beta, dtype=float), sigma=config.true_sigma)
    truth = theta_true.to_array()
    thetas, nulls, alt_nulls = [theta_true], [], []
    for _, index, null_value, alt_value in config.hypotheses:
        nulls.append((index, null_value))
        if alt_value is not None:
            alt = truth.copy()
            alt[index] = alt_value
            thetas.append(Theta.from_array(alt))
            alt_nulls.append(nulls[-1])
    means = _means(design.matrix, thetas, config.contamination)
    records = []
    for rep in range(start, stop):
        rng = RngStream(config.seed, stream_id=rep)
        draws = [
            ModelData(design, mean + theta.sigma * rng.normal(n))
            for mean, theta in zip(means, thetas)
        ]
        try:
            paths = [fit_rp_path(data, config.alphas) for data in draws]
        except DegenerateFitError:
            records.append(None)
            continue
        outcomes = []
        for a in config.alphas:
            fits = [path[float(a)] for path in paths]
            if not all(fit.converged for fit in fits):
                outcomes.append(None)
                continue
            err = fits[0].theta_hat.to_array() - truth
            # each hypothesis pins one coordinate: wald_composite's decision, bit for bit
            level = [_coordinate_p_value(fits[0], i, v, n) < config.level for i, v in nulls]
            power = [
                _coordinate_p_value(fit, i, v, n) < config.level
                for fit, (i, v) in zip(fits[1:], alt_nulls)
            ]
            outcomes.append((float(err @ err), level, power))
        records.append(outcomes)
    return records


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full replicated study.

    Every ``(n, rep)`` replication returns its outcome record (see
    ``_replication_block``); the study only counts them.  Per (alpha, n)
    cell: root-mean-square estimation error against the clean generating
    parameter, and empirical level and power per hypothesis, each the
    rejection count over the ``replications_used``.  A degenerate fit
    excludes its whole replication; a non-converged fit excludes the
    replication from that cell only.  All blocks run in one pass, on at most
    one process pool.
    """
    reps = config.replications
    tasks = [
        (config, n, start, min(start + _BLOCK, reps))
        for n in config.ns
        for start in range(0, reps, _BLOCK)
    ]
    if config.n_workers > 1:
        # the pool's modules load here, not on import nor at one worker; a
        # pool starts all its workers at its first task, so none beyond the blocks
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.n_workers, len(tasks))) as pool:
            blocks = list(pool.map(_replication_block, tasks, chunksize=1))
    else:
        blocks = [_replication_block(task) for task in tasks]
    records = [record for block in blocks for record in block]
    names = [name for name, *_ in config.hypotheses]
    alt_names = [name for name, *_, alt_value in config.hypotheses if alt_value is not None]
    cells = {}
    total_nonconv = 0
    total_excluded = 0
    for k, n in enumerate(config.ns):
        kept = [record for record in records[k * reps : (k + 1) * reps] if record is not None]
        for i, a in enumerate(config.alphas):
            used = [record[i] for record in kept if record[i] is not None]
            total_nonconv += len(kept) - len(used)
            total_excluded += reps - len(kept)
            if not used:
                raise DegenerateFitError("all replications failed; study is empty")
            sq_errors, levels, powers = zip(*used)
            # counts are Python sums in replication order, as rejections arrive
            cells[(float(a), int(n))] = {
                "rmse": float(np.sqrt(np.mean(sq_errors))),
                "level": {name: sum(c) / len(used) for name, c in zip(names, zip(*levels))},
                "power": {name: sum(c) / len(used) for name, c in zip(alt_names, zip(*powers))},
                "replications_used": len(used),
                "non_converged": len(kept) - len(used),
            }
    frac = total_nonconv / max(1, reps * len(config.ns) * len(config.alphas))
    if frac > 0.01:
        warnings.warn(
            f"{100 * frac:.1f}% of fits did not converge and were excluded",
            stacklevel=2,
        )
    return StudyResult(
        config=config,
        cells=cells,
        non_convergence_count=total_nonconv,
        excluded_replications=total_excluded,
    )


def contiguous_table(alphas, d_values, sigma: float, level: float) -> dict:
    """Analytic power of the slope test against local alternatives.

    ``d_values`` are design-normalized squared shifts: with ``X'X/n = I``
    the statistic is noncentral chi-square with one degree of freedom and
    noncentrality ``d / sigma_n[1, 1] = d are_beta / sigma^2``.
    """
    _check_numbers(alphas, "alphas")
    _check_numbers(d_values, "d_values")
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be positive, got {sigma}")
    check_probability(level, "level")
    crit = chisq_quantile(1, level)
    table = {}
    for a in alphas:
        per_shift = are(a)[0] / sigma / sigma
        row = {}
        for d in d_values:
            if not (math.isfinite(d) and d >= 0):
                raise DomainError(f"shift values must be finite and nonnegative, got {d}")
            row[float(d)] = level if d == 0.0 else noncentral_chisq_sf(crit, 1, d * per_shift)
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


def write_study_csv(result: StudyResult, path) -> None:
    rows = study_result_rows(result)
    write_csv(path, list(rows[0]), [row.values() for row in rows])


def write_study_json(result: StudyResult, path) -> None:
    payload = {
        "rows": study_result_rows(result),
        "non_convergence_count": result.non_convergence_count,
        "excluded_replications": result.excluded_replications,
    }
    write_json(path, payload)
