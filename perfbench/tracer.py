"""Layer tracing from outside the library.

The tracer wraps the public functions of each ``renyireg`` module at every
module attribute that binds them, because that is where callers look them
up: ``fit_rp_path`` is bound in ``estimation``, ``simulation`` and ``cli``,
``covariance_mlrm`` in ``estimation``, ``inference`` and ``robustness``.
Each binding gets its own wrapper, so a span records the module that made
the call (its *site*).  The library source is not edited.

Spans are kept in memory as lists ``[name, site, start, end, parent, op,
ok, info]`` and aggregated or written out after the run.  Spans are only
recorded in the process that installed the tracer; forked pool workers
inherit the wrappers but record nothing, so their time shows up as waiting
in the caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" wraps a method
# at its class.  ``model`` is reached through ``if_general``; its per-node
# pointwise methods are left alone because tens of thousands of spans per op
# would measure the tracer rather than the quadrature.
TARGETS = (
    ("simulation", "run_study"),
    ("simulation", "make_design"),
    ("simulation", "generate_data"),
    ("simulation", "write_study_csv"),
    ("simulation", "write_study_json"),
    ("estimation", "fit_rp_path"),
    ("estimation", "fit_mle"),
    ("estimation", "design_diagnostics"),
    ("estimation", "covariance_mlrm"),
    ("numerics", "solve_spd"),
    ("numerics", "spd_inverse"),
    ("numerics", "min_eigenvalue"),
    ("numerics", "chisq_quantile"),
    ("numerics", "chisq_sf"),
    ("numerics", "noncentral_chisq_sf"),
    ("numerics", "integrate"),
    ("inference", "wald_composite"),
    ("inference", "contiguous_power"),
    ("inference", "required_sample_size"),
    ("robustness", "if_mlrm_closed"),
    ("robustness", "if2_simple"),
    ("robustness", "if_general"),
    ("robustness", "gross_error_sensitivity"),
    ("model", "QuadratureFamily.power_integral"),
    ("model", "QuadratureFamily.power_score_integral"),
    ("model", "QuadratureFamily.power_score_outer_integral"),
    ("model", "QuadratureFamily.power_score_jacobian_integral"),
    ("cli", "main"),
    ("data", "load_dataset"),
    ("data", "exclude_rows"),
)

NAME, SITE, START, END, PARENT, OP, OK, INFO = range(8)


PACKAGE = "renyireg"


def _fit_info(args, kwargs, result):
    """Rows and non-converged fits of one ``fit_rp_path`` call."""
    data = args[0] if args else kwargs["data"]
    return data.n_obs, sum(not fit.converged for fit in result.values())


class Tracer:
    """Install wrappers, collect spans, restore the original bindings."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []
        self._pid = os.getpid()

    def _wrap(self, name, site, fn):
        spans, stack = self.spans, self._stack
        info = _fit_info if name == "estimation.fit_rp_path" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each binding in the loaded package modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer, attr in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(name, layer, original))
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        site = mod.__name__.rpartition(".")[2]
                        self._patch(mod, key, self._wrap(name, site, original))

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _stat_names(function, stats):
    return [f"{function}.{stat}" for stat in stats]


# every per-layer metric, in output order; the unit follows from the suffix
PER_LAYER = (
    _stat_names("estimation.fit_rp_path", ("calls", "total_s", "self_s", "p50_us"))
    + ["estimation.solves_per_fit", "estimation.ns_per_row_solve"]
    + _stat_names("estimation.fit_mle", ("calls", "total_s"))
    + _stat_names("estimation.design_diagnostics", ("calls", "total_s"))
    + [f"estimation.covariance_mlrm.calls.from_{site}"
       for site in ("estimation", "inference", "robustness")]
    + ["estimation.covariance_mlrm.total_s", "estimation.nonconverged"]
    + _stat_names("numerics.solve_spd", ("calls", "failures", "total_s", "self_s"))
    + _stat_names("numerics.spd_inverse", ("calls", "total_s"))
    + ["numerics.min_eigenvalue.calls", "numerics.chisq_quantile.calls", "numerics.chisq_sf.calls"]
    + _stat_names("numerics.noncentral_chisq_sf", ("calls", "total_s"))
    + _stat_names("numerics.integrate", ("calls", "total_s"))
    + _stat_names("inference.wald_composite", ("calls", "total_s", "self_s"))
    + _stat_names("inference.contiguous_power", ("calls", "total_s"))
    + _stat_names("inference.required_sample_size", ("calls", "total_s"))
    + ["simulation.run_study.total_s", "simulation.pool_wait_s", "simulation.make_design.calls"]
    + _stat_names("simulation.generate_data", ("calls", "total_s"))
    + ["simulation.write_study_csv.total_s", "simulation.write_study_json.total_s"]
    + _stat_names("cli.main", ("total_s", "self_s"))
    + _stat_names("robustness.if2_simple", ("calls", "total_s", "self_s"))
    + _stat_names("robustness.if_mlrm_closed", ("calls", "total_s", "self_s"))
    + _stat_names("robustness.if_general", ("calls", "total_s", "self_s"))
    + ["robustness.gross_error_sensitivity.calls"]
    + _stat_names("model.QuadratureFamily", ("calls", "total_s"))
    + ["data.load_dataset.total_s", "data.exclude_rows.calls"]
    + ["failed_ops_ratio", "trace.overhead_ratio"]
)


def unit_of(name: str):
    """(unit, better) of a per-layer metric."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("p50_us"):
        return "us", "lower"
    if name.endswith("ns_per_row_solve"):
        return "ns", "lower"
    if name == "trace.overhead_ratio":
        return "ratio", "higher"
    if name.endswith("ratio"):
        return "ratio", "lower"
    return "count", "lower"


def layer_metrics(spans) -> dict:
    """Aggregate spans into the per-layer metrics named in ``PER_LAYER``
    (except the two ratios, which the runner supplies).

    ``calls`` counts every call and ``failures`` those that raised (for
    ``solve_spd`` these are the regularisation retries); ``self_s`` is the
    span's duration minus that of its direct child spans.
    """
    child = [0.0] * len(spans)
    fit_of = [-1] * len(spans)  # enclosing fit_rp_path span
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
            fit_of[i] = fit_of[parent]
        if span[NAME] == "estimation.fit_rp_path":
            fit_of[i] = i
    calls, failures, total, own, durations = {}, {}, {}, {}, {}
    sites = {}
    solves = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        if name.startswith("model.QuadratureFamily."):
            name = "model.QuadratureFamily"
        dur = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        failures[name] = failures.get(name, 0) + (not span[OK])
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[i]
        durations.setdefault(name, []).append(dur)
        sites[(name, span[SITE])] = sites.get((name, span[SITE]), 0) + 1
        if name == "numerics.solve_spd" and span[OK] and fit_of[i] >= 0:
            solves[fit_of[i]] = solves.get(fit_of[i], 0) + 1

    fits = [i for i, s in enumerate(spans) if s[NAME] == "estimation.fit_rp_path" and s[OK]]
    row_solves = sum(spans[i][INFO][0] * solves.get(i, 0) for i in fits)
    fit_self = sum(spans[i][END] - spans[i][START] - child[i] for i in fits)
    derived = {
        "estimation.solves_per_fit": sum(solves.get(i, 0) for i in fits) / len(fits) if fits else 0.0,
        "estimation.ns_per_row_solve": 1e9 * fit_self / row_solves if row_solves else 0.0,
        "estimation.nonconverged": sum(spans[i][INFO][1] for i in fits),
        "simulation.pool_wait_s": own.get("simulation.run_study", 0.0),
        "estimation.fit_rp_path.p50_us": (
            1e6 * statistics.median(durations["estimation.fit_rp_path"])
            if "estimation.fit_rp_path" in durations else 0.0
        ),
    }
    for site in ("estimation", "inference", "robustness"):
        derived[f"estimation.covariance_mlrm.calls.from_{site}"] = sites.get(
            ("estimation.covariance_mlrm", site), 0
        )
    stats = {"calls": calls, "failures": failures, "total_s": total, "self_s": own}
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        function, _, stat = metric.rpartition(".")
        if stat in stats:
            out[metric] = stats[stat].get(function, 0.0 if stat.endswith("_s") else 0)
    return out
