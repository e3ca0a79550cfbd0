"""renyireg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
(see README.md beside this file).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record, with the environment, goes to
``perfbench/out/``.  ``--size smoke`` shrinks every workload for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread per process, set before numpy loads (nothing above imports
# it): the CLI workload's two pool workers then use the two CPUs without
# oversubscribing them, and no idle BLAS thread spins beside the timed one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("study_clean", "study_contaminated_cli", "fit_large_n", "dataset_analysis")

# (name, unit) of the end-to-end metrics, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("norm_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
    ("eq_residual_max", "1"),
)

# set-up probes before the timed loop and again after it: set-up time runs
# in phases of several seconds, and two groups 20 seconds apart see more
# than one of them
SETUP_REPEATS = 4
# a reference block's length as a share of a round's
REFERENCE_SHARE = 0.1
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import plus input generation once and print it")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2^32)")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def _use_checkout_sources():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "renyireg" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _import_library():
    import renyireg
    import renyireg.cli  # noqa: F401  (traced and used by the workloads)

    if Path(renyireg.__file__).resolve().parent != SRC / "renyireg":
        raise SystemExit(f"benchmark: renyireg imported from {renyireg.__file__}, not {SRC}")


def setup_probe(args) -> float:
    """Seconds to import the library and build the workload's inputs."""
    start = perf_counter()
    _import_library()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.size == "smoke", _workdir(args))
    return perf_counter() - start


def _workdir(args) -> Path:
    return OUT / "work" / f"{args.workload}-{args.seed}-trace{args.trace}"


def measure_setup(args, repeats: int) -> list:
    """Set-up time in fresh interpreters, since an import is cached after
    the first one in a process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "renyireg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _blas_threads(numpy):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def tail(latencies):
    """Highest order statistic with ``TAIL_BEYOND`` samples beyond it, as
    (value, percentile, samples beyond).  With fewer than twice that many
    samples such a point would sit at or below the median, so the slowest
    sample is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def run_round(wl, r, tracer=None):
    ops = []
    for j in range(wl.round_size):
        k = r * wl.round_size + j
        if tracer is None:
            ops.append(wl.op(k))
        elif wl.in_process:
            tracer.op = k
            with tracer:
                ops.append(wl.op(k))
        else:
            ops.append(wl.op(k, trace_spans=tracer.spans))
    return ops


def run(args) -> dict:
    _use_checkout_sources()
    _import_library()
    import workloads
    from tracer import PER_LAYER, Tracer, layer_metrics, unit_of

    smoke = args.size == "smoke"
    workdir = _workdir(args)
    setup_repeats = 0 if args.trace else 1 if smoke else SETUP_REPEATS
    setup_times = measure_setup(args, setup_repeats)
    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None and cls.in_process:
        with tracer:
            wl = cls(args.seed, smoke, workdir)
    else:
        wl = cls(args.seed, smoke, workdir)

    warmup = run_round(wl, 0)  # caches and lazy imports settle before timing
    reference, blocks = None, []
    if tracer is None:
        import speed

        reference = speed.Reference(wl.reference_rows)
        per_call = reference.block(3)
        calls = max(1, round(REFERENCE_SHARE * sum(op.latency_s for op in warmup) / per_call))
        blocks.append(reference.block(calls))
    plain, traced, kept = [], [], None
    start = perf_counter()
    r = 0
    # at least one full input cycle, so per-run maxima and traced counts
    # cover the same inputs on every run with the same seed
    while r * wl.round_size < wl.cycle or perf_counter() - start < args.seconds:
        plain.append(run_round(wl, r))
        if reference is not None:
            blocks.append(reference.block(calls))
        if tracer is not None:
            traced.append(run_round(wl, r, tracer))
            if kept is None and (r + 1) * wl.round_size >= wl.cycle:
                kept = list(tracer.spans)  # set-up plus one full input cycle
            if kept is not None:
                tracer.spans.clear()
        r += 1
    extra = wl.finish()
    setup_times += measure_setup(args, setup_repeats)

    ops = [op for rnd in [warmup] + plain + traced for op in rnd]
    messages = [m for op in ops for m in op.messages] + extra.get("messages", [])
    attempted = sum(op.attempted for op in ops) + extra.get("attempted", 0)
    failed = sum(op.failed for op in ops) + extra.get("failed", 0)
    failed_ratio = failed / attempted if attempted else 1.0

    def timed(rounds):
        """Indices and times of the rounds all of whose ops returned (an op
        that raised has no latency)."""
        return [(i, sum(op.latency_s for op in rnd)) for i, rnd in enumerate(rounds)
                if all(op.latency_s > 0 for op in rnd)]

    def throughput(rounds):
        """Work units per second of op time."""
        times = [t for _, t in timed(rounds)]
        return wl.units_per_round * len(times) / sum(times)

    latencies = [op.latency_s for rnd in plain for op in rnd if op.latency_s > 0]
    rounds = timed(plain)
    if not rounds:
        raise SystemExit("benchmark: every op failed: " + "; ".join(messages[:5]))
    details = {
        "rounds": len(plain),
        "ops": len(latencies),
        "units_per_round": wl.units_per_round,
        "latencies_ms": [1e3 * t for t in latencies],
        "setup_samples_s": setup_times,
        "failed_ops_ratio": failed_ratio,
        "messages": messages[:20],
    }
    details.update({k: v for k, v in extra.items() if k not in ("messages", "attempted", "failed")})

    if tracer is None:
        # each round's time at nominal machine speed: divided by the mean of
        # the reference call times of the blocks on either side of it
        norm = [t * 2 * speed.NOMINAL_S / (blocks[i] + blocks[i + 1]) for i, t in rounds]
        child_kb = max([op.child_maxrss_kb for op in ops], default=0)
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_times),
            "norm_ops_per_s": wl.units_per_round * len(norm) / sum(norm),
            "norm_latency_p50_ms": 1e3 * statistics.median(norm),
            "peak_rss_mb": (self_kb + child_kb) / 1024.0,
            "ok_ops_ratio": 1.0 - failed_ratio,
            # from fixed reference inputs where the workload has them
            "eq_residual_max": extra.get("eq_residual_max", max(op.residual for op in ops)),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        details.update({
            "round_latencies_ms": [1e3 * t for _, t in rounds],
            "norm_round_latencies_ms": [1e3 * t for t in norm],
            "reference_calls_per_block": calls,
            "reference_call_ms": [1e3 * t for t in blocks],
            "raw_ops_per_s": throughput(plain),
            "raw_latency_p50_ms": 1e3 * statistics.median(t for _, t in rounds),
        })
        # recorded, not a metric: with 5 to 15 rounds a run, the tail of the
        # CLI and dataset workloads is their slowest round and too unsteady
        # for a bound
        value, percentile, beyond = tail(norm)
        details.update({
            "norm_latency_tail_ms": 1e3 * value,
            "tail_percentile": percentile,
            "tail_samples_beyond": beyond,
        })
    else:
        values = layer_metrics(kept)
        values["failed_ops_ratio"] = failed_ratio
        values["trace.overhead_ratio"] = throughput(traced) / throughput(plain)
        metrics = {name: {"value": values[name], "unit": unit_of(name)[0]} for name in PER_LAYER}
        details["traced_rounds"] = len(traced)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}.spans.json").write_text(json.dumps(kept))

    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(args.seed),
        "details": details,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_checkout_sources()
    if args.setup_probe:
        print(repr(setup_probe(args)))
        return 0
    record = run(args)
    details, result = record["details"], record["result"]
    print(f"workload {args.workload}, seed {args.seed}, {details['rounds']} rounds, "
          f"{details['ops']} ops")
    for message in details["messages"]:
        print(f"check failed: {message}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
