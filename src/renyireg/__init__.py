"""Robust estimation and inference for normal linear regression with fixed
design, built on the minimum Renyi-pseudodistance estimator.

The tuning parameter ``alpha >= 0`` trades efficiency for robustness:
``alpha = 0`` is exact maximum likelihood, larger values downweight
observations with large standardized residuals.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .data import DatasetDescriptor, exclude_rows, load_csv, load_dataset
from .estimation import (
    CovarianceTriple,
    DesignDiagnostics,
    FitResult,
    SolverOptions,
    covariance_mlrm,
    design_diagnostics,
    fit_mle,
    fit_rp,
    fit_rp_path,
)
from .exceptions import (
    DecompositionError,
    DegenerateFitError,
    DomainError,
    NonFiniteIntegrandError,
)
from .inference import (
    LinearHypothesis,
    PowerReport,
    WaldOutcome,
    approx_power,
    contiguous_power,
    required_sample_size,
    wald_composite,
    wald_simple,
    wald_statistic,
    UNBOUNDED_SAMPLE_SIZE,
)
from .model import (
    DensityFamily,
    Design,
    ModelData,
    NormalLinearFamily,
    QuadratureFamily,
    Theta,
    objective,
    rp_loss_single,
    score,
    v_weight,
)
from .numerics import (
    RngStream,
    chisq_quantile,
    chisq_sf,
    integrate,
    min_eigenvalue,
    noncentral_chisq_sf,
    normal_cdf,
    normal_quantile,
    solve_spd,
)
from .robustness import (
    IFReport,
    IFRequest,
    UNBOUNDED_SENSITIVITY,
    are,
    gross_error_sensitivity,
    if2_composite,
    if2_simple,
    if_general,
    if_mlrm_closed,
)
from .simulation import (
    ContaminationSpec,
    DesignSpec,
    StudyConfig,
    StudyResult,
    contiguous_table,
    generate_data,
    make_design,
    run_study,
    write_study_csv,
    write_study_json,
)

# the names imported above, not the submodules that importing them binds here
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
