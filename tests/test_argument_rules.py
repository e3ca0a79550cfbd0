"""The argument rules: a tuning value is finite and >= 0, a probability
lies in (0, 1), a parameter index lies in 0..dim-1, and a count or a seed is
an int, not a bool, from its least value up (a seed below 2^64).  Every
public entry point that takes such an argument raises DomainError exactly
when the rule fails, and the command line exits 1 on it instead of hanging,
crashing or writing NaN."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renyireg
from renyireg.data import exclude_rows
from renyireg.estimation import SolverOptions, covariance_mlrm, fit_rp, fit_rp_path
from renyireg.exceptions import DecompositionError, DomainError
from renyireg.inference import (
    LinearHypothesis,
    WaldOutcome,
    approx_power,
    contiguous_power,
    required_sample_size,
    wald_composite,
    wald_simple,
    wald_statistic,
)
from renyireg.model import (
    ModelData,
    NormalLinearFamily,
    QuadratureFamily,
    Theta,
    objective,
    rp_loss_single,
    score,
    v_weight,
)
from renyireg.numerics import RngStream, chisq_quantile, normal_quantile
from renyireg.robustness import (
    IFRequest,
    are,
    gross_error_sensitivity,
    if_general,
    if_mlrm_closed,
)
from renyireg.simulation import (
    ContaminationSpec,
    DesignSpec,
    StudyConfig,
    contiguous_table,
    generate_data,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ALPHAS = st.floats()
PROBABILITIES = st.floats()

DATA = ModelData(
    design=np.column_stack([np.ones(8), np.arange(8.0)]),
    response=np.array([0.3, 1.1, 2.4, 2.9, 4.2, 5.1, 5.8, 7.3]),
)
THETA = Theta(beta=np.array([0.1, 1.0]), sigma=0.8)
THETA_STAR = Theta(beta=np.array([0.1, 1.3]), sigma=0.8)
HYP = LinearHypothesis.coordinates([1], [1.0], 3)


def alpha_valid(a):
    return math.isfinite(a) and a >= 0.0


def raises_domain_error(call) -> bool:
    """Whether ``call`` raises DomainError; any other error is outside the
    rules and counts as not raising it."""
    try:
        call()
    except DomainError:
        return True
    except (ArithmeticError, ValueError):
        return False
    return False


def sigma_at(theta):
    return covariance_mlrm(DATA, theta, 0.5).sigma_n


ALPHA_TAKERS = {
    "covariance_mlrm": lambda a: covariance_mlrm(DATA, THETA, a),
    "are": are,
    "IFRequest": lambda a: IFRequest(contamination_points=[0.0], theta=THETA, alpha=a),
    "gross_error_sensitivity": lambda a: gross_error_sensitivity(DATA, 0, THETA, a),
    "objective": lambda a: objective(NormalLinearFamily(DATA.design), DATA, THETA, a),
    "StudyConfig": lambda a: StudyConfig(alphas=(a,)),
}

PROBABILITY_TAKERS = {
    "reject_at": lambda p: WaldOutcome(statistic=1.0, df=1, p_value=0.3).reject_at(p),
    "approx_power": lambda p: approx_power(THETA_STAR, THETA, 0.5, 50, p, sigma_at),
    "required_sample_size.level": lambda p: required_sample_size(
        THETA_STAR, THETA, 0.5, 0.8, p, sigma_at
    ),
    "required_sample_size.target_power": lambda p: required_sample_size(
        THETA_STAR, THETA, 0.5, p, 0.05, sigma_at
    ),
    "contiguous_power": lambda p: contiguous_power(HYP, [0.0, 1.0, 0.0], p, np.eye(3)),
    "chisq_quantile": lambda p: chisq_quantile(1, p),
    "normal_quantile": normal_quantile,
    "StudyConfig.level": lambda p: StudyConfig(level=p),
}


# least value and exclusive bound of each count and seed; the designs are
# fixed-normal, which takes an odd n
COUNT_TAKERS = {
    "StudyConfig.replications": (1, math.inf, lambda v: StudyConfig(replications=v)),
    "StudyConfig.n_workers": (1, math.inf, lambda v: StudyConfig(n_workers=v)),
    "StudyConfig.sample_sizes": (
        4,
        math.inf,
        lambda v: StudyConfig(design=DesignSpec(kind="fixed_normal"), sample_sizes=(v,)),
    ),
    "DesignSpec.n": (4, math.inf, lambda v: DesignSpec(kind="fixed_normal", n=v)),
    "SolverOptions.multistart": (0, math.inf, lambda v: SolverOptions(multistart=v)),
    "StudyConfig.seed": (0, 2**64, lambda v: StudyConfig(seed=v)),
    "DesignSpec.seed": (0, 2**64, lambda v: DesignSpec(seed=v)),
    "ContaminationSpec.placement_seed": (0, 2**64, lambda v: ContaminationSpec(placement_seed=v)),
    "SolverOptions.multistart_seed": (0, 2**64, lambda v: SolverOptions(multistart_seed=v)),
    "RngStream.seed": (0, 2**64, lambda v: RngStream(v)),
    "RngStream.stream_id": (0, 2**64, lambda v: RngStream(0, stream_id=v)),
}
COUNTS = st.one_of(
    st.integers(-3, 2**66), st.integers(-3, 2**62).map(np.int64), st.floats(), st.booleans()
)


def positive(v) -> bool:
    return math.isfinite(v) and v > 0


# the rule and a taker of each value of a study hypothesis: null values and
# alternatives are finite, and an alternative of the scale (index 2) is a
# generating parameter, so it is positive too
HYPOTHESIS_VALUE_TAKERS = {
    "beta1.null": (math.isfinite, lambda v: StudyConfig(hypotheses=(("beta1", 1, v, 0.45),))),
    "beta1.alternative": (math.isfinite, lambda v: StudyConfig(hypotheses=(("beta1", 1, 1.0, v),))),
    "sigma.null": (math.isfinite, lambda v: StudyConfig(hypotheses=(("sigma", 2, v, 0.8),))),
    "sigma.alternative": (positive, lambda v: StudyConfig(hypotheses=(("sigma", 2, 1.0, v),))),
}


@pytest.mark.parametrize("name", sorted(ALPHA_TAKERS))
@PROPERTY
@given(a=ALPHAS)
def test_alpha_rule(name, a):
    assert raises_domain_error(lambda: ALPHA_TAKERS[name](a)) == (not alpha_valid(a))


@pytest.mark.parametrize("name", sorted(PROBABILITY_TAKERS))
@PROPERTY
@given(p=PROBABILITIES)
def test_probability_rule(name, p):
    assert raises_domain_error(lambda: PROBABILITY_TAKERS[name](p)) == (not 0.0 < p < 1.0)


@pytest.mark.parametrize("name", sorted(COUNT_TAKERS))
@PROPERTY
@given(v=COUNTS)
@example(v=2.5)
@example(v=200.0)
@example(v=201.5)
@example(v=True)
@example(v=-1)
@example(v=2**64 - 1)
@example(v=2**64)
def test_count_and_seed_rule(name, v):
    least, bound, taker = COUNT_TAKERS[name]
    integer = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    assert raises_domain_error(lambda: taker(v)) == (not (integer and least <= v < bound))


@pytest.mark.parametrize("name", sorted(HYPOTHESIS_VALUE_TAKERS))
@PROPERTY
@given(v=st.floats())
@example(v=-0.5)
@example(v=0.0)
@example(v=5e-324)
@example(v=math.nan)
@example(v=-math.inf)
def test_hypothesis_value_rule(name, v):
    # refused when the configuration is built, not inside a replication block
    valid, taker = HYPOTHESIS_VALUE_TAKERS[name]
    assert raises_domain_error(lambda: taker(v)) == (not valid(v))


def test_normal_quantile_checks_every_entry():
    assert normal_quantile(np.array([])).shape == (0,)
    for bad in ([0.5, math.nan], [0.2, 1.0], [[0.5], [0.0]]):
        with pytest.raises(DomainError):
            normal_quantile(np.array(bad))


@pytest.mark.parametrize("a", [math.nan, math.inf, -0.5])
def test_fit_path_refuses_before_fitting(a):
    with pytest.raises(DomainError, match="alpha"):
        fit_rp_path(DATA, [0.0, 0.5, a])
    with pytest.raises(DomainError, match="alpha"):
        fit_rp(DATA, a)


def test_fit_path_keys_stay_floats():
    fits = fit_rp_path(DATA, [0, np.float64(0.5), 1])
    assert list(fits) == [0.0, 0.5, 1.0]
    assert all(type(key) is float for key in fits)


@pytest.mark.parametrize("index", [-1, 3, True, 1.0])
def test_coordinates_refuse_non_indices(index):
    with pytest.raises(DomainError, match="index"):
        LinearHypothesis.coordinates([index], [1.0], 3)


@pytest.mark.parametrize(
    "matrix, vector",
    [([[0.0], [1.0], [0.0]], [math.nan]), ([[0.0], [math.inf], [0.0]], [1.0])],
)
def test_hypothesis_entries_are_finite(matrix, vector):
    with pytest.raises(DomainError, match="finite"):
        LinearHypothesis(m_matrix=matrix, m_vector=vector)


@pytest.mark.parametrize("d", [math.nan, math.inf, -1.0])
def test_contiguous_table_refuses_bad_shifts(d):
    with pytest.raises(DomainError, match="shift"):
        contiguous_table([0.0], [5.0, d], sigma=1.0, level=0.05)


# ---------------------------------------------------------------------------
# huge tuning values: the normal model's closed forms stay in range
# ---------------------------------------------------------------------------

LOG_MAX = math.log(1.7e308)
# 1.1 is the fitted value of row 1 at THETA
POINTS = np.array([-1.0, 1.1, 2.5, 9.0])
XTX_INV = np.linalg.inv(DATA.design.T @ DATA.design / DATA.n_obs)


def in_range(values, log_exact) -> bool:
    """No NaN, and finite wherever the exact value, given by its logarithm
    or a bound of it, is below 1.7e308."""
    values, log_exact = np.broadcast_arrays(np.asarray(values, float), np.asarray(log_exact, float))
    return not np.isnan(values).any() and bool(np.isfinite(values[log_exact < LOG_MAX]).all())


def log_exact_factors(a):
    """Logarithms of the exact sandwich blocks and gross-error sensitivities
    of DATA at THETA, summed from the logarithms of 1 + a, 2a + 1 and a."""
    lt, lw, la = math.log1p(a), math.log(2.0) + math.log(a + 0.5), math.log(a)
    log_q = math.log(3.0) + 2 * la + math.log1p((4 / a + 2 / (a * a)) / 3)  # 3a^2+4a+2
    log_sig = math.log(THETA.sigma)
    block = 2 * log_sig + 3 * lt - 1.5 * lw + np.log(np.abs(XTX_INV))
    scale = 2 * log_sig + 3 * lt + log_q - math.log(4.0) - 2.5 * lw
    s_inv_x = math.log(np.linalg.norm(XTX_INV @ DATA.design[0]))
    gross = [
        log_sig + 1.5 * lt - 0.5 * la - 0.5 + s_inv_x,
        log_sig + 2.5 * lt - la - 1.5 + 0.5 / (1 + a),  # e^{-(3a+2)/(2(a+1))}
    ]
    return block, scale, gross


def log_influence_bound(a):
    """Logarithms of bounds on the entries of ``if_mlrm_closed`` over all
    directions at POINTS: n times the largest term of ``sigma (1+a)^{3/2}
    sum_i e^{-a r^2/2} |r| |S^{-1} x_i|`` and of ``sigma (1+a)^{5/2} / 2
    sum_i e^{-a r^2/2} |r^2 - 1/(1+a)|``."""
    x = DATA.design
    r = (POINTS[:, None] - x @ THETA.beta) / THETA.sigma
    with np.errstate(over="ignore", divide="ignore"):
        tilt = -0.5 * a * r * r
        beta = tilt[..., None] + np.log(np.abs(r))[..., None] + np.log(np.abs(x @ XTX_INV))
        scale = tilt + np.log(np.abs(r * r - 1.0 / (1.0 + a)))
    head = math.log(THETA.sigma) + math.log(DATA.n_obs) + 1.5 * math.log1p(a)
    return np.column_stack([
        head + beta.max(axis=1), head + math.log1p(a) - math.log(2.0) + scale.max(axis=1)
    ])


def test_huge_alphas_stay_in_range():
    """At alpha = 10^k, k = 0..308, with every warning an error: nothing
    raises, nothing is NaN, every value is finite where its exact value is
    below 1.7e308, and the efficiencies lie in [0, 1]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(309):
            a = 10.0**k
            assert all(0.0 <= e <= 1.0 for e in are(a)), k
            cov = covariance_mlrm(DATA, THETA, a)
            block, scale, gross = log_exact_factors(a)
            # psi_n and omega_n fall with alpha from their finite alpha = 0 values
            assert in_range(cov.psi_n, -math.inf) and in_range(cov.omega_n, -math.inf), k
            assert in_range(cov.sigma_n[:2, :2], block) and in_range(cov.sigma_n[2, 2], scale), k
            assert in_range(gross_error_sensitivity(DATA, 0, THETA, a), gross), k
            req = IFRequest(contamination_points=POINTS, theta=THETA, alpha=a)
            assert in_range(if_mlrm_closed(DATA, req).first_order, log_influence_bound(a)), k
            powers = list(contiguous_table([a], [0.0, 5.0, 30.0], 1.0, 0.05)[a].values())
            assert in_range(powers, -math.inf) and all(0.0 <= p <= 1.0 for p in powers), k


@pytest.mark.parametrize("a", [1e2, 1e3, 1e4])
def test_generic_route_at_huge_alpha(a):
    # the normal power integral under- or overflows here, its logarithm does not:
    # V_i = ((1+a)/2pi)^{a/(2(1+a))} sigma^{-a/(1+a)} e^{-a r_i^2/2}
    family = NormalLinearFamily(DATA.design)
    sigma = THETA.sigma
    r = (DATA.response - DATA.design @ THETA.beta) / sigma
    log_v = a / (1 + a) * (0.5 * math.log((1 + a) / (2 * math.pi)) - math.log(sigma)) - 0.5 * a * r * r
    # d V_i / d beta = a V_i r_i x_i / sigma, d V_i / d sigma = a V_i (r_i^2 - 1/(1+a)) / sigma
    terms = np.column_stack([r[:, None] * DATA.design, r * r - 1.0 / (1.0 + a)])
    gradient = a * np.mean(np.exp(log_v)[:, None] * terms, axis=0) / sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, y in enumerate(DATA.response):
            loss = rp_loss_single(family, i, y, THETA, a)
            assert loss == pytest.approx(-log_v[i] / a, rel=1e-12), i
            assert v_weight(family, i, y, THETA, a) == pytest.approx(math.exp(log_v[i]), rel=1e-10), i
        value = objective(family, DATA, THETA, a)
        if a < 1e4:
            assert score(family, DATA, THETA, a) == pytest.approx(gradient, rel=1e-12)
        else:
            # int f^{1+a} underflows to 0, and with it the score's tilted mean
            with pytest.raises(ArithmeticError, match="alpha"):
                score(family, DATA, THETA, a)
    assert value == pytest.approx(float(np.mean(np.exp(log_v))), rel=1e-10)


@pytest.mark.parametrize("direction", ["all", 3])
@pytest.mark.parametrize("quadrature", [False, True], ids=["closed_form", "quadrature"])
@pytest.mark.parametrize("a", [540.0, 1e3, 1e4])
def test_generic_influence_at_huge_alpha(a, quadrature, direction):
    # int f^{1+a} is a tiny normal double at 540 and 1e3, and 0 at 1e4
    family = NormalLinearFamily(DATA.design)
    if quadrature:
        family = QuadratureFamily(family)
    req = IFRequest(contamination_points=POINTS, theta=THETA, alpha=a, direction=direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if a < 1e4:
            general = if_general(family, DATA, req).first_order
            closed = if_mlrm_closed(DATA, req).first_order
            assert np.max(np.abs(general - closed)) <= 1e-9 * np.max(np.abs(closed))
        else:
            refusal = f"alpha {a} is not a positive normal double"
            with pytest.raises(ArithmeticError, match=refusal):
                if_general(family, DATA, req)


def test_huge_alpha_values():
    # at alpha = 1e70 only the leading powers of alpha count:
    # sigma_n[2, 2] = 3 sigma^2 alpha^{5/2} / 2^{9/2}, are_sigma = 2^{7/2} / (3 alpha^{5/2})
    data = renyireg.load_dataset("first_word").data
    theta = Theta(beta=np.array([110.0, -1.1]), sigma=11.0)
    sigma_n = covariance_mlrm(data, theta, 1e70).sigma_n
    assert sigma_n[2, 2] == pytest.approx(3 * 121.0 / 2**4.5 * 1e175, rel=1e-12)
    assert sigma_n[2, 2] == pytest.approx(1.604e176, rel=1e-3)
    assert are(1e70)[1] == pytest.approx(2**3.5 / 3 * 1e-175, rel=1e-12)


# ---------------------------------------------------------------------------
# the command line: each case exits 1 with an error naming the argument
# ---------------------------------------------------------------------------

SRC = str(Path(renyireg.__file__).resolve().parents[1])

CLI_CASES = [
    *(
        ([cmd, "--data", "first_word", "--alphas", value, *extra], "alpha")
        for cmd, extra in (("fit", []), ("test", ["--null", "beta1=1"]), ("influence", []))
        for value in ("nan", "inf")
    ),
    (["fit", "--data", "first_word", "--alphas=-0.5"], "alpha"),
    (["simulate", "--config", "{config}"], "alpha"),
    (["power", "--alphas", "nan"], "alpha"),
    (["test", "--data", "first_word", "--null", "beta-1=1"], "beta-1"),
    (["test", "--data", "first_word", "--null", "beta1=nan"], "finite"),
    (["power", "--dx", "nan"], "shift"),
    (["influence", "--data", "first_word", "--direction", "-2"], "--direction"),
    (["influence", "--data", "first_word", "--t-grid", "0,1,2.5"], "--t-grid"),
]


@pytest.mark.parametrize("argv, named", CLI_CASES, ids=[" ".join(argv) for argv, _ in CLI_CASES])
def test_cli_refuses_bad_argument(argv, named, tmp_path):
    config = tmp_path / "study.cfg"
    config.write_text("alphas = 0,nan\nreplications = 4\n")
    argv = [arg.format(config=config) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "renyireg.cli", *argv, "--output", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1, proc.stderr
    error = proc.stderr.strip().splitlines()[-1]
    assert error.startswith("error: ") and named in error, error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [-5, 0, 2.5])
def test_wald_statistic_refuses_non_sizes(n):
    with pytest.raises(DomainError, match="^n must"):
        wald_statistic(np.ones(2), np.eye(2), n)


def test_approx_power_refuses_zero_size():
    with pytest.raises(DomainError, match="^n must"):
        approx_power(THETA_STAR, THETA, 0.5, 0, 0.05, lambda t: np.eye(3))


def sigma_with(value, at):
    """``sigma_at``, but every entry ``value`` at the point ``at``."""
    return lambda theta: np.full((3, 3), value) if theta is at else sigma_at(theta)


# a non-finite covariance is refused as wald_composite refuses a non-finite
# sigma_n, and a non-finite shift by name, each before a product with it
# could warn or carry NaN into the answer
COVARIANCE = (DecompositionError, "^covariance not positive definite")
SHIFT = (DomainError, "^contiguous_power needs a finite shift vector d")
NON_FINITE_POWER_INPUTS = {
    "approx_power.theta_star": (
        *COVARIANCE,
        lambda: approx_power(THETA_STAR, THETA, 0.5, 50, 0.05, sigma_with(math.inf, THETA_STAR)),
    ),
    "approx_power.theta0": (
        *COVARIANCE,
        lambda: approx_power(THETA_STAR, THETA, 0.5, 50, 0.05, sigma_with(math.inf, THETA)),
    ),
    "required_sample_size.inf": (
        *COVARIANCE,
        lambda: required_sample_size(
            THETA_STAR, THETA, 0.5, 0.8, 0.05, sigma_with(math.inf, THETA_STAR)
        ),
    ),
    "required_sample_size.nan": (
        *COVARIANCE,
        lambda: required_sample_size(
            THETA_STAR, THETA, 0.5, 0.8, 0.05, sigma_with(math.nan, THETA_STAR)
        ),
    ),
    "contiguous_power.sigma_n": (
        *COVARIANCE,
        lambda: contiguous_power(HYP, [0.0, 1.0, 0.0], 0.05, np.diag([1.0, 1.0, math.inf])),
    ),
    "contiguous_power.d_nan": (
        *SHIFT,
        lambda: contiguous_power(HYP, [0.0, math.nan, 0.0], 0.05, np.eye(3)),
    ),
    "contiguous_power.d_inf": (
        *SHIFT,
        lambda: contiguous_power(HYP, [math.inf, 1.0, 0.0], 0.05, np.eye(3)),
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(NON_FINITE_POWER_INPUTS))
def test_power_refuses_non_finite_inputs(name):
    error, message, call = NON_FINITE_POWER_INPUTS[name]
    with pytest.raises(error, match=message):
        call()


def test_fit_init_of_wrong_dimension():
    with pytest.raises(DomainError, match="^init does not match"):
        fit_rp(DATA, 0.5, init=Theta(beta=[0.0, 0.0, 0.0], sigma=1.0))


@pytest.mark.parametrize(
    "field,value", [("alphas", "05"), ("alphas", "0.5"), ("sample_sizes", "200")]
)
def test_study_config_refuses_strings(field, value):
    with pytest.raises(DomainError, match=f"^{field} must"):
        StudyConfig(**{field: value})


def test_response_is_one_column():
    x = DATA.design
    with pytest.raises(DomainError, match="^response must be one column"):
        ModelData(x, np.column_stack([DATA.response, DATA.response]))
    column = ModelData(x, DATA.response[:, None])
    assert np.array_equal(column.response, DATA.response)


@pytest.mark.parametrize("alphas", ["05", "0.5", b"0.5"])
def test_fit_path_refuses_strings(alphas):
    with pytest.raises(DomainError, match="^alphas must be a sequence of numbers"):
        fit_rp_path(DATA, alphas)


def test_hypothesis_matrix_has_columns():
    with pytest.raises(DomainError, match=r"^m_matrix .* shape \(3, 0\)"):
        LinearHypothesis(np.zeros((3, 0)), np.zeros(0))


@pytest.mark.parametrize("shape", [(3, 2, 2), (3, 0)])
def test_design_is_a_matrix_with_columns(shape):
    named = r"^design must be a matrix .* got shape " + re.escape(str(shape))
    with pytest.raises(DomainError, match=named):
        ModelData(np.zeros(shape), np.zeros(3))


def test_theta_beta_is_a_vector():
    with pytest.raises(DomainError, match=r"^beta must be a vector, got shape \(2, 2\)"):
        Theta(beta=np.zeros((2, 2)), sigma=1.0)


@pytest.mark.parametrize("entry", [("x", 1, 1.0), ("x", 1, 1.0, None, 0.5), "beta"])
def test_study_hypotheses_have_four_values(entry):
    with pytest.raises(DomainError, match="^each hypotheses entry needs 4 values"):
        StudyConfig(hypotheses=(entry,))


# a 2-D array where a vector belongs, and a scalar where a sequence belongs:
# each is refused with its argument's name, not with numpy's TypeError or
# matmul ValueError, or "object is not iterable"
SHAPE_TAKERS = {
    "m_vector": lambda: LinearHypothesis(np.eye(3)[:, :1], np.zeros((1, 1))),
    "diff": lambda: wald_statistic(np.ones((2, 1)), np.eye(2), 3),
    "contamination_points": lambda: IFRequest(np.zeros((2, 2)), THETA, 0.5),
}

SEQUENCE_TAKERS = {
    "fit_rp_path.alphas": ("alphas", lambda: fit_rp_path(DATA, 0.5)),
    "StudyConfig.alphas": ("alphas", lambda: StudyConfig(alphas=5)),
    "StudyConfig.sample_sizes": ("sample_sizes", lambda: StudyConfig(sample_sizes=5)),
    "StudyConfig.hypotheses": ("hypotheses", lambda: StudyConfig(hypotheses=5)),
    "contiguous_table.alphas": ("alphas", lambda: contiguous_table(0.5, [5.0], 1.0, 0.05)),
    "contiguous_table.d_values": ("d_values", lambda: contiguous_table([0.5], 5, 1.0, 0.05)),
    "exclude_rows": ("rows_1based", lambda: exclude_rows(DATA, 3)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(SHAPE_TAKERS))
def test_wrong_shapes_are_refused(name):
    with pytest.raises(DomainError, match=rf"^{name} must be a vector, got shape"):
        SHAPE_TAKERS[name]()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(SEQUENCE_TAKERS))
def test_scalars_are_refused_as_sequences(name):
    named, call = SEQUENCE_TAKERS[name]
    with pytest.raises(DomainError, match=rf"^{named} must be a sequence of"):
        call()


# a parameter, fit or family of another dimension than the data's, and a
# non-finite Wald difference: each is refused by name, not answered from
# the entries that happen to line up, nor with matmul's or broadcasting's
# ValueError, nor with NaN
THETA_4 = Theta(beta=[1.0, 2.0, 3.0, 4.0], sigma=1.0)


def intercept_fit():
    return fit_rp(ModelData(DATA.design[:, :1], DATA.response), 0.5)


DIMENSION_TAKERS = {
    "covariance_mlrm": ("theta does not match", lambda: covariance_mlrm(DATA, THETA_4, 0.5)),
    "gross_error_sensitivity": (
        "theta does not match",
        lambda: gross_error_sensitivity(DATA, 0, THETA_4, 0.5),
    ),
    "wald_simple": ("fit does not match", lambda: wald_simple(DATA, intercept_fit(), THETA)),
    "wald_composite": (
        "fit does not match",
        lambda: wald_composite(DATA, intercept_fit(), LinearHypothesis.coordinates([0], [0.0], 2)),
    ),
    "wald_statistic.nan": ("diff must be finite", lambda: wald_statistic([math.nan], [[1.0]], 3)),
    "wald_statistic.inf": (
        "diff must be finite",
        lambda: wald_statistic([1.0, -math.inf], np.eye(2), 3),
    ),
    "generate_data": (
        "theta does not match",
        lambda: generate_data(DATA.design, THETA_4, None, RngStream(0)),
    ),
    "objective.directions": (
        "family has 5 directions",
        lambda: objective(NormalLinearFamily(DATA.design[:5]), DATA, THETA, 0.5),
    ),
    "objective.theta": (
        "theta does not match",
        lambda: objective(NormalLinearFamily(DATA.design), DATA, THETA_4, 0.5),
    ),
    "score.directions": (
        "family has 5 directions",
        lambda: score(NormalLinearFamily(DATA.design[:5]), DATA, THETA, 0.5),
    ),
    "score.theta": (
        "theta does not match",
        lambda: score(QuadratureFamily(NormalLinearFamily(DATA.design)), DATA, THETA_4, 0.5),
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(DIMENSION_TAKERS))
def test_wrong_dimensions_are_refused(name):
    named, call = DIMENSION_TAKERS[name]
    with pytest.raises(DomainError, match=f"^{named}"):
        call()
