"""The Newton point in Python floats: the kernel's assembly of ``V``, ``g``
and ``K`` from its six sums against the array assembly it replaces, bit for
bit (``float.hex``); and the stage's solves and a study's tails still made
through ``numerics.solve_spd`` and ``numerics.chisq_sf``, where a trace
counts them."""

import math

import numpy as np
import pytest

from renyireg import estimation, numerics
from renyireg.simulation import DesignSpec, StudyConfig, run_study


def array_assembly(x, y, beta, s, a):
    """The kernel with its gradient and Hessian assembled in arrays, the
    reference for the Python-float assembly."""
    n, p = x.shape
    sig = math.exp(s)
    k = 1.0 / (1 + a)
    dot = np.ndarray.dot if n <= estimation._ROWS else np.matmul
    sums = None
    for start in range(0, n, estimation._ROWS):
        block = estimation._block_sums(
            x[start : start + estimation._ROWS], y[start : start + estimation._ROWS],
            beta, sig, a, k, dot,
        )
        sums = block if sums is None else [total + part for total, part in zip(sums, block)]
    m0, m2, g, m4, cross, h = sums
    c = ((1 + a) / (2 * math.pi)) ** (a / (2 * (1 + a))) * sig ** (-a / (1 + a))
    val = c * m0 / n
    if not math.isfinite(val):
        val = -math.inf
    grad = np.empty(p + 1)
    grad[:p] = a * c / (n * sig) * g
    grad[p] = a * c / n * (m2 - k * m0)
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = a * c / (n * sig**2) * h
    cross *= a * c / (n * sig)
    hess[:p, p] = cross
    hess[p, :p] = cross
    hess[p, p] = a * c / n * (a * (m4 - 2.0 * k * m2 + k * k * m0) - 2.0 * m2)
    return val, grad, 0.5 * (hess + hess.T)


def bits(value):
    if isinstance(value, np.ndarray):
        return [value.shape, [v.hex() for v in value.ravel().tolist()]]
    return value.hex()


@pytest.mark.parametrize("p", [1, 2, 3, 5, 11])
@pytest.mark.parametrize("n_rows", ["p+2", 200, 8191, 8192, 8193, 20000])
def test_kernel_matches_array_assembly(p, n_rows):
    n = p + 2 if n_rows == "p+2" else n_rows
    gen = np.random.default_rng(p * 100_003 + n)
    x = np.asfortranarray(np.column_stack([np.ones(n), gen.standard_normal((n, p - 1))]))
    y = 1.3 * gen.standard_normal(n)
    y[: n // 10] += 5.0
    for a in (0.1, 0.5, 1.0, 3.0):
        beta, s = 0.1 * gen.standard_normal(p), float(gen.uniform(-0.5, 0.5))
        with np.errstate(under="ignore"):
            got = estimation._objective_grad_hess(x, y, beta, s, a)
            want = array_assembly(x, y, beta, s, a)
        assert [bits(v) for v in got] == [bits(v) for v in want]


def counting(monkeypatch, name):
    """Calls of ``numerics.<name>`` from here on, counted in a one-entry list."""
    calls, fn = [0], getattr(numerics, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(numerics, name, counted)
    return calls


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_each_newton_step_is_one_solve_spd_call(monkeypatch, p):
    """A converged stage solves once per accepted step and once for its
    closing step, each through ``solve_spd``: orders 2 to 4 take the
    straight-line solve, order 6 LAPACK."""
    n = 200
    gen = np.random.default_rng(p)
    x = np.asfortranarray(np.column_stack([np.ones(n), gen.standard_normal((n, p - 1))]))
    y = gen.standard_normal(n)
    y[:20] += 6.0
    solves = counting(monkeypatch, "solve_spd")
    stage = estimation._newton_stage(x, y, np.zeros(p), 0.0, 0.5, 1e-10, x.T @ x / n)
    assert stage.converged and stage.iterations > 0
    assert solves[0] == stage.iterations + 1


def test_study_p_values_are_chisq_sf_calls(monkeypatch):
    """One ``chisq_sf`` call per study decision: 2 replications of 4 alphas
    and two hypotheses, each at its null and its alternative."""
    tails = counting(monkeypatch, "chisq_sf")
    run_study(StudyConfig(design=DesignSpec(n=200), replications=2, seed=5))
    assert tails[0] == 2 * 4 * 2 * 2
