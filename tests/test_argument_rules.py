"""The three argument rules: a tuning value is finite and >= 0, a
probability lies in (0, 1), a parameter index lies in 0..dim-1.  Every
public entry point that takes such an argument raises DomainError exactly
when the rule fails, and the command line exits 1 on it instead of hanging,
crashing or writing NaN."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renyireg
from renyireg.estimation import covariance_mlrm, fit_rp, fit_rp_path
from renyireg.exceptions import DomainError
from renyireg.inference import (
    LinearHypothesis,
    WaldOutcome,
    approx_power,
    contiguous_power,
    required_sample_size,
)
from renyireg.model import ModelData, NormalLinearFamily, Theta, objective
from renyireg.numerics import chisq_quantile, normal_quantile
from renyireg.robustness import IFRequest, are, gross_error_sensitivity
from renyireg.simulation import StudyConfig, contiguous_table

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
    """Whether ``call`` raises DomainError.  Other errors are outside the
    rules: a valid but huge tuning value overflows the closed forms
    (``(1 + alpha)^3`` beyond about 1e102, the normal power integral's
    logarithm from about 1e3 on)."""
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
    "StudyConfig": lambda a: StudyConfig(alphas=(0.0, a)),
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
