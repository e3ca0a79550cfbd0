"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times) and then runs ops.  An op is timed around
the library calls only; its output checks run after the clock stops.
Inputs repeat with period ``cycle`` ops, so a traced pass over one cycle
makes exactly the same calls on every run with the same seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import renyireg as api
import renyireg.cli as cli

import checks
from tracer import OP, PARENT

HERE = Path(__file__).resolve().parent


@dataclasses.dataclass
class OpResult:
    latency_s: float
    attempted: int
    failed: int
    messages: list = dataclasses.field(default_factory=list)
    residual: float = 0.0
    child_maxrss_kb: int = 0


def _failed(attempted, err):
    return OpResult(0.0, attempted, attempted, [f"{type(err).__name__}: {err}"])


# ---------------------------------------------------------------------------
# replicated studies
# ---------------------------------------------------------------------------

def _cells(config):
    """Number of (replication, n, alpha) cells of a study."""
    return config.replications * len(config.ns) * len(config.alphas)


REFERENCE_SEED = 0


class StudyClean:
    """In-process ``run_study``: two-point design, n=200, a=1, b=5, alphas
    (0, 0.3, 0.7, 1.0), default hypotheses with alternatives (3 fit paths
    and 16 Wald tests per replication), one worker."""

    name = "study_clean"
    in_process = True
    round_size = 1
    cycle = 1
    reference_rows = 200  # size of the speed reference kernel (speed.py)

    def __init__(self, seed, smoke, workdir):
        self.config = api.StudyConfig(
            design=api.DesignSpec(kind="two_point", n=200, a=1.0, b=5.0),
            alphas=(0.0, 0.3, 0.7, 1.0),
            replications=2 if smoke else 20,
            seed=seed,
            n_workers=1,
        )
        self.reference_config = dataclasses.replace(
            self.config, replications=2 if smoke else 128, seed=REFERENCE_SEED
        )
        self.units_per_round = self.config.replications * len(self.config.ns)
        self.reference = None

    def op(self, k, trace_spans=None):
        try:
            start = perf_counter()
            result = api.run_study(self.config)
            latency = perf_counter() - start
        except Exception as err:  # an op that raises is counted, not fatal
            return _failed(_cells(self.config), err)
        attempted = _cells(self.config)
        failed = result.non_convergence_count + result.excluded_replications
        out = OpResult(latency, attempted, failed)
        if failed:
            out.messages.append(f"{failed} non-converged or excluded study cells")
        if self.reference is None:
            self.reference = result.cells
        elif result.cells != self.reference:
            out.failed = attempted
            out.messages.append("run_study result differs between repeats of one config")
        return out

    def finish(self):
        """Check the estimating equations at every fit of the timed config
        and of a reference study: 128 replications under a fixed seed.

        ``eq_residual_max`` comes from the reference study alone.  The
        largest residual over the fits of one seed's study varies by a
        factor of two between seeds (even over 1000 fits), so it would
        report the seed rather than the solver."""
        simulation = sys.modules["renyireg.simulation"]
        with checks.capture_fits(simulation) as timed:
            api.run_study(self.config)
        with checks.capture_fits(simulation) as reference:
            api.run_study(self.reference_config)
        report, gate = _fit_report(reference), _fit_report(timed)
        for key in ("attempted", "failed", "messages"):
            report[key] += gate[key]
        return report


def _fit_report(seen):
    """Residual check of every captured ``(data, fits)`` path."""
    worst, failed, messages = 0.0, 0, []
    for data, fits in seen:
        res, bad, msgs = checks.check_fits(data, fits, "study fit")
        worst, failed = max(worst, res), failed + bad
        messages += msgs
    return {
        "eq_residual_max": worst,
        "attempted": sum(len(fits) for _, fits in seen),
        "failed": failed,
        "messages": messages[:10],
    }


CLI_CONFIG = """\
design = fixed_normal
design_seed = 7
alphas = 0.0,0.5,1.0
replications = {replications}
seed = {seed}
contamination_fraction = 0.10
placement = random_indices
sample_sizes = 200,2000
"""


class StudyContaminatedCli:
    """``renyireg simulate`` as a subprocess from a config file with
    ``--workers 2``: fixed-normal design (design seed 7), n in (200, 2000),
    10% contamination at random indices, alphas (0, 0.5, 1.0)."""

    name = "study_contaminated_cli"
    in_process = False
    round_size = 1
    cycle = 1
    reference_rows = 200
    workers = 2

    def __init__(self, seed, smoke, workdir):
        # 64 replications fill both pool workers: run_study hands out jobs in
        # chunks of 32
        self.replications = 4 if smoke else 64
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "study.cfg"
        self.config_path.write_text(CLI_CONFIG.format(replications=self.replications, seed=seed))
        self.reference_path = self.workdir / "reference.cfg"
        self.reference_path.write_text(
            CLI_CONFIG.format(replications=2 if smoke else 16, seed=REFERENCE_SEED)
        )
        self.ns = (200, 2000)
        self.alphas = (0.0, 0.5, 1.0)
        self.units_per_round = self.replications * len(self.ns)
        self.csv_bytes = None
        src = str(HERE.parent / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _args(self, out_dir, workers, config=None):
        return [
            "simulate", "--config", str(config or self.config_path),
            "--output", str(out_dir), "--workers", str(workers),
        ]

    def op(self, k, trace_spans=None):
        attempted = self.replications * len(self.ns) * len(self.alphas)
        out_dir = self.workdir / "op"
        spans_path = self.workdir / "spans.json"
        if trace_spans is None:
            cmd = [sys.executable, "-m", "renyireg.cli"]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path)]
        cmd += self._args(out_dir, self.workers)
        with open(self.workdir / "stderr.txt", "wb") as err_file:
            start = perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err_file)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = OpResult(latency, attempted, 0, child_maxrss_kb=usage.ru_maxrss)
        if proc.returncode != 0:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-500:]
            return OpResult(latency, attempted, attempted, [f"exit {proc.returncode}: {tail}"])
        if trace_spans is not None:
            _merge_spans(trace_spans, json.loads(spans_path.read_text()), k)
        csv_bytes = (out_dir / "study.csv").read_bytes()
        summary = json.loads((out_dir / "study.json").read_text())
        out.failed = summary["non_convergence_count"] + summary["excluded_replications"]
        if out.failed:
            out.messages.append(f"{out.failed} non-converged or excluded study cells")
        if self.csv_bytes is None:
            self.csv_bytes = csv_bytes
            message = checks.contamination_ordering(
                checks.study_rows(csv_bytes), max(self.ns), self.alphas[0], self.alphas[-1]
            )
            if message:
                out.failed = attempted
                out.messages.append(message)
        elif csv_bytes != self.csv_bytes:
            out.failed = attempted
            out.messages.append("study.csv differs between repeats of one config")
        return out

    def finish(self):
        """Run the same config in-process with one worker through
        ``cli.main``; its study.csv must match the pooled runs byte for byte
        (worker-count invariance), and every fit must satisfy the estimating
        equations.  ``eq_residual_max`` comes from a second in-process run,
        of 16 replications under the fixed seed 0, so that it reports the
        solver rather than the seed."""
        simulation = sys.modules["renyireg.simulation"]
        out_dir = self.workdir / "workers1"
        with checks.capture_fits(simulation) as timed, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._args(out_dir, 1))
        with checks.capture_fits(simulation) as reference, \
                contextlib.redirect_stdout(io.StringIO()):
            reference_code = cli.main(self._args(self.workdir / "reference", 1, self.reference_path))
        report, gate = _fit_report(reference), _fit_report(timed)
        for key in ("attempted", "failed", "messages"):
            report[key] += gate[key]
        report["attempted"] += 2
        report["study_csv_sha256"] = hashlib.sha256(self.csv_bytes or b"").hexdigest()
        messages = []
        if code != 0:
            messages.append(f"renyireg simulate --workers 1 exited {code}")
        elif (out_dir / "study.csv").read_bytes() != self.csv_bytes:
            messages.append("study.csv differs between --workers 2 and --workers 1")
        if reference_code != 0:
            messages.append(f"renyireg simulate of the reference config exited {reference_code}")
        report["failed"] += len(messages)
        report["messages"] += messages
        return report


def _merge_spans(sink, spans, op):
    """Append a child process's spans, renumbering parents and op ids."""
    offset = len(sink)
    for span in spans:
        if span[PARENT] >= 0:
            span[PARENT] += offset
        span[OP] = op
        sink.append(span)


# ---------------------------------------------------------------------------
# one large fit
# ---------------------------------------------------------------------------

class FitLargeN:
    """``fit_rp_path`` at n=100000, p=5 (intercept plus 4 standard-normal
    covariates), 10% mean-shift outliers, alphas (0.2, 0.5, 1.0), then one
    ``wald_composite`` per fit.  Each op gets a fresh response on the same
    design, drawn in set-up."""

    name = "fit_large_n"
    in_process = True
    round_size = 1
    reference_rows = 100_000
    alphas = (0.2, 0.5, 1.0)
    beta = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
    shift = 6.0

    def __init__(self, seed, smoke, workdir):
        self.n = 2000 if smoke else 100_000
        self.cycle = 2 if smoke else 32
        self.reference_count = 1 if smoke else 4
        self.data = self._responses(seed, self.cycle)
        self.hyp = api.LinearHypothesis.coordinates([1], [self.beta[1]], 6)
        self.units_per_round = 1

    def _responses(self, seed, count):
        gen = np.random.default_rng(seed)
        n = self.n
        x = np.column_stack([np.ones(n), gen.standard_normal((n, 4))])
        mean = x @ self.beta
        data = []
        for _ in range(count):
            y = mean + gen.standard_normal(n)
            y[gen.choice(n, size=n // 10, replace=False)] += self.shift
            data.append(api.ModelData(x, y))
        return data

    def op(self, k, trace_spans=None):
        data = self.data[k % self.cycle]
        attempted = len(self.alphas)
        try:
            start = perf_counter()
            fits = api.fit_rp_path(data, self.alphas)
            tests = [api.wald_composite(data, fits[a], self.hyp) for a in self.alphas]
            latency = perf_counter() - start
        except Exception as err:
            return _failed(attempted, err)
        worst, failed, messages = checks.check_fits(data, fits, f"response {k % self.cycle}")
        # the robust fits must ignore the shifted rows
        error = np.max(np.abs(fits[1.0].theta_hat.beta - self.beta))
        if not error < 0.05:
            failed, messages = attempted, messages + [f"alpha=1 coefficient error {error:.3g}"]
        if not all(0.0 <= t.p_value <= 1.0 for t in tests):
            failed, messages = attempted, messages + ["Wald p-value outside [0, 1]"]
        return OpResult(latency, attempted, failed, messages, residual=worst)

    def finish(self):
        """Fit and check four responses drawn under the fixed seed 0; they
        give ``eq_residual_max``, which then does not vary with the seed."""
        report = {"eq_residual_max": 0.0, "attempted": 0, "failed": 0, "messages": []}
        for i, data in enumerate(self._responses(REFERENCE_SEED, self.reference_count)):
            worst, failed, messages = checks.check_fits(
                data, api.fit_rp_path(data, self.alphas), f"reference response {i}"
            )
            report["eq_residual_max"] = max(report["eq_residual_max"], worst)
            report["attempted"] += len(self.alphas)
            report["failed"] += failed
            report["messages"] += messages
        return report


# ---------------------------------------------------------------------------
# real-data analysis
# ---------------------------------------------------------------------------

# beta1 nulls tested on each bundled dataset (the README's first_word null and
# the brain_weight slope of the acceptance tables)
NULLS = {"brain_weight": 0.73, "first_word": -1.28}
POWER_SHIFTS = (0, 2, 5, 10, 15, 20, 25, 30)
LEVEL = 0.05


class DatasetAnalysis:
    """The real-data pipeline, one op per bundled dataset, alternating
    ``brain_weight`` and ``first_word``: fits over the CLI default alphas
    with and without the conventional outlier rows, a Wald test of the slope,
    second-order influence over every direction on a 101-point grid,
    gross-error sensitivity, efficiency, local power, sample-size planning,
    and the quadrature ``if_general`` oracle at 11 points."""

    name = "dataset_analysis"
    in_process = True
    round_size = 2
    cycle = 2
    reference_rows = 200
    oracle_alpha = 0.4

    def __init__(self, seed, smoke, workdir):
        # the bundled data are fixed; the seed only picks which dataset an
        # op starts from, so it still changes the order of the work
        names = ["brain_weight", "first_word"]
        if seed % 2:
            names.reverse()
        self.datasets = [api.load_dataset(name) for name in names]
        self.grid_points = 11 if smoke else 101
        self.oracle_points = 2 if smoke else 11
        self.alphas = tuple(cli.DEFAULT_ALPHAS)
        self.units_per_round = 2

    def _analyse(self, desc):
        data, alphas = desc.data, self.alphas
        fits = api.fit_rp_path(data, alphas)
        clean = api.exclude_rows(data, desc.outlier_rows)
        fits_clean = api.fit_rp_path(clean, alphas)
        hyp = api.LinearHypothesis.coordinates([1], [NULLS[desc.name]], 3)
        tests = [api.wald_composite(data, fits[a], hyp) for a in alphas]
        y = data.response
        grid = np.linspace(y.min(), y.max(), self.grid_points)
        influence = [
            api.if2_simple(data, api.IFRequest(grid, fits[a].theta_hat, a, "all"))
            for a in alphas
        ]
        sensitivity = [
            api.gross_error_sensitivity(data, 0, fits[a].theta_hat, a) for a in alphas if a > 0
        ]
        efficiency = [api.are(a) for a in alphas]
        power = api.contiguous_table(alphas, POWER_SHIFTS, 1.0, LEVEL)
        sizes = []
        for a in alphas:
            theta0 = fits[a].theta_hat
            shifted = theta0.beta.copy()
            shifted[1] += 0.5 * theta0.sigma
            theta1 = api.Theta(beta=shifted, sigma=theta0.sigma)

            def provider(theta, a=a):
                return api.covariance_mlrm(data, theta, a).sigma_n

            sizes.append(api.required_sample_size(theta1, theta0, a, 0.9, LEVEL, provider))
        req = api.IFRequest(
            np.linspace(y.min(), y.max(), self.oracle_points),
            fits[self.oracle_alpha].theta_hat,
            self.oracle_alpha,
            direction=0,
        )
        family = api.QuadratureFamily(api.NormalLinearFamily(data.design))
        oracle = api.if_general(family, data, req)
        closed = api.if_mlrm_closed(data, req)
        return (fits, clean, fits_clean, tests, influence, sensitivity, efficiency,
                power, sizes, oracle, closed)

    def op(self, k, trace_spans=None):
        desc = self.datasets[k % 2]
        attempted = 1
        try:
            start = perf_counter()
            out = self._analyse(desc)
            latency = perf_counter() - start
        except Exception as err:
            return _failed(attempted, err)
        worst, messages = self._check(desc, *out)
        return OpResult(latency, attempted, 1 if messages else 0, messages, residual=worst)

    def _check(self, desc, fits, clean, fits_clean, tests, influence, sensitivity,
               efficiency, power, sizes, oracle, closed):
        name = desc.name
        worst, _, messages = checks.check_fits(desc.data, fits, name)
        worst_clean, _, more = checks.check_fits(clean, fits_clean, name + " without outliers")
        messages += more
        x, y = desc.data.design, desc.data.response
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        if not np.allclose(fits[0.0].theta_hat.beta, ols, rtol=1e-8, atol=1e-10):
            messages.append(f"{name}: alpha=0 fit is not least squares")
        if not all(0.0 <= t.p_value <= 1.0 for t in tests):
            messages.append(f"{name}: Wald p-value outside [0, 1]")
        for report in influence:
            second = report.second_order_simple
            if not (np.all(np.isfinite(report.first_order)) and np.all(second >= -1e-9)):
                messages.append(f"{name}: second-order influence not finite and nonnegative")
                break
        if not all(0 < g < np.inf for pair in sensitivity for g in pair):
            messages.append(f"{name}: gross-error sensitivity not finite for alpha > 0")
        if efficiency[0] != (1.0, 1.0) or not all(0 < e <= 1 for pair in efficiency for e in pair):
            messages.append(f"{name}: efficiencies outside (0, 1] or not 1 at alpha=0")
        for a, row in power.items():
            values = [row[float(d)] for d in POWER_SHIFTS]
            if values[0] != LEVEL or any(b < c for b, c in zip(values[1:], values)) or values[-1] > 1:
                messages.append(f"{name}: local power at alpha={a} not rising from the level")
        if not all(isinstance(s, int) and s >= 1 for s in sizes):
            messages.append(f"{name}: required sample size not a positive integer")
        gap = checks.influence_gap(oracle, closed)
        if not gap <= checks.INFLUENCE_TOL:
            messages.append(f"{name}: if_general differs from if_mlrm_closed by {gap:.3e}")
        return max(worst, worst_clean), messages

    def finish(self):
        return {}


WORKLOADS = {
    cls.name: cls for cls in (StudyClean, StudyContaminatedCli, FitLargeN, DatasetAnalysis)
}
