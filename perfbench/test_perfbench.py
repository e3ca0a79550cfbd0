"""Tests of the benchmark itself.

Every workload runs at smoke size, traced and untraced, and must emit
exactly the metric names and units declared in BENCHMARK.json; traced call
counts must repeat exactly; the residual check must reject the silent
maximum-likelihood fallback on a response scaled by 1e6.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._use_checkout_sources()

import checks  # noqa: E402
import speed  # noqa: E402
import renyireg  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(workload, trace, seed=1):
    args = run.parse_args([
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", "smoke",
    ])
    return run.run(args)["result"]


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_metrics_match_spec(workload, trace):
    result = _smoke(workload, trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_normalised_times_scale_raw_times_by_reference_speed():
    args = run.parse_args([
        "--workload", "dataset_analysis", "--seed", "2", "--seconds", "0",
        "--trace", "0", "--size", "smoke",
    ])
    record = run.run(args)
    details, metrics = record["details"], record["result"]["metrics"]
    blocks = details["reference_call_ms"]
    assert len(blocks) == details["rounds"] + 1 and min(blocks) > 0
    # a round of two ops, one per dataset, is one latency sample
    raw = details["round_latencies_ms"]
    assert len(raw) == details["rounds"] == 1
    expected = raw[0] * 2e3 * speed.NOMINAL_S / (blocks[0] + blocks[1])
    assert metrics["norm_latency_p50_ms"]["value"] == pytest.approx(expected)
    assert metrics["norm_ops_per_s"]["value"] == pytest.approx(2e3 / expected)


def test_traced_counts_repeat_exactly():
    first = _smoke("fit_large_n", 1)["metrics"]
    second = _smoke("fit_large_n", 1)["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    # one fit path per op over the whole smoke input cycle of two responses
    assert first["estimation.fit_rp_path.calls"]["value"] == 2
    assert first["estimation.solves_per_fit"]["value"] > 0
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_tracer_restores_bindings():
    simulation = sys.modules["renyireg.simulation"]
    before = (simulation.fit_rp_path, renyireg.fit_rp_path, renyireg.numerics.solve_spd)
    tracer = Tracer()
    with tracer:
        assert simulation.fit_rp_path is not before[0]
        data = renyireg.ModelData(np.column_stack([np.ones(6), np.arange(6.0)]),
                                  np.array([0.1, 1.2, 1.9, 3.2, 3.9, 5.1]))
        renyireg.fit_rp_path(data, [0.0, 0.2])
    assert (simulation.fit_rp_path, renyireg.fit_rp_path, renyireg.numerics.solve_spd) == before
    names = {span[0] for span in tracer.spans}
    assert {"estimation.fit_rp_path", "estimation.fit_mle", "numerics.solve_spd"} <= names


def _contaminated(scale):
    gen = np.random.default_rng(3)
    n = 300
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    y = x @ np.array([1.0, 1.0]) + gen.standard_normal(n)
    y[:30] += 10.0
    return renyireg.ModelData(x, scale * y)


def test_residual_check_rejects_silent_ml_fallback():
    clean = _contaminated(1.0)
    reference = renyireg.fit_rp_path(clean, [0.7])[0.7]
    assert checks.eq_residual(clean, reference) <= checks.RESIDUAL_TOL

    scaled = _contaminated(1e6)
    # the maximum-likelihood fit returned as the alpha=0.7 answer
    fallback = dataclasses.replace(renyireg.fit_mle(scaled), alpha=0.7)
    assert checks.eq_residual(scaled, fallback) > 1e-3
    worst, failed, messages = checks.check_fits(scaled, {0.7: fallback}, "scaled")
    assert failed == 1 and messages

    # whatever the library returns, the check passes it only when it is the
    # rescaled fit of the unscaled data
    fit = renyireg.fit_rp_path(scaled, [0.7])[0.7]
    right = np.allclose(
        fit.theta_hat.to_array(), 1e6 * reference.theta_hat.to_array(), rtol=1e-5
    )
    assert right == (checks.eq_residual(scaled, fit) <= checks.RESIDUAL_TOL)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_clean", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
