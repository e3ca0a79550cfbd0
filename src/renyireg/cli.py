"""Command-line front end.

Subcommands: ``fit``, ``test``, ``influence``, ``are``, ``power``,
``simulate``.  Every command writes its reports under ``--output`` (CSV for
tables, JSON for summaries, switchable with ``--format``; ``simulate``
always writes both ``study.csv`` and ``study.json``) and accompanies
each output file with ``<file>.manifest.json`` recording the command, all
resolved options, the library version, and checksums of any input files, so
a run can be reproduced exactly.  ``--seed`` seeds ``--multistart`` on the
data subcommands and overrides the config file's seed for ``simulate``,
whose absent config keys take the dataclass defaults.

Exit codes: 0 on success, 1 on errors (printed as ``error: ...``), 3 when at
least one requested fit did not converge (reports are still written, with
the failure noted).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .data import BUNDLED_DATASETS, exclude_rows, load_csv, load_dataset, write_csv, write_json
from .estimation import SolverOptions, fit_rp_path
from .exceptions import DecompositionError, DegenerateFitError, DomainError, check_probability
from .exceptions import is_index
from .inference import LinearHypothesis, wald_composite
from .model import ModelData
from .robustness import IFRequest, are, gross_error_sensitivity, if2_simple
from .simulation import (
    ContaminationSpec,
    DesignSpec,
    StudyConfig,
    contiguous_table,
    run_study,
    write_study_csv,
    write_study_json,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONVERGED = 3

DEFAULT_ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _float_list(text, parse=float):
    """Comma-separated values, empty tokens skipped; a list with no value
    raises ValueError, which argparse and the config reader report."""
    values = tuple(parse(tok) for tok in text.split(",") if tok.strip() != "")
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _int_list(text):
    return _float_list(text, int)


def _emit(args, name, write, inputs=()):
    """Write ``--output``/``name`` through ``write(path)``, then its
    ``<file>.manifest.json``, and print the path written."""
    out = Path(args.output) / name
    out.parent.mkdir(parents=True, exist_ok=True)
    write(out)
    manifest = {
        "command": args.command,
        "options": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "library_version": __version__,
        "input_checksums": {
            str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs
        },
    }
    write_json(Path(f"{out}.manifest.json"), manifest)
    print(f"wrote {out}")


def _write_table(args, stem, columns, rows, inputs=(), **extra):
    """Emit ``<stem>.csv`` or ``<stem>.json`` (per ``--format``);
    ``extra`` adds top-level JSON keys."""
    if args.format == "csv":
        write = partial(write_csv, columns=columns, rows=rows)
    else:
        write = partial(write_json, payload={"columns": columns, "rows": rows, **extra})
    _emit(args, f"{stem}.{args.format}", write, inputs)


def _status(*paths) -> int:
    """EXIT_NONCONVERGED when a fit of any of the ``{alpha: FitResult}``
    paths did not converge, else EXIT_OK."""
    if all(fit.converged for path in paths for fit in path.values()):
        return EXIT_OK
    return EXIT_NONCONVERGED


def _resolve_data(args):
    """Return (ModelData, input paths)."""
    if args.data in BUNDLED_DATASETS:
        return load_dataset(args.data).data, []
    path = Path(args.data)
    if not path.exists():
        raise DomainError(f"no such dataset or file: {args.data}")
    if args.response is None or args.covariates is None:
        raise DomainError("user CSV files need --response and --covariates")

    def column(token):
        token = token.strip()
        return int(token) if token.lstrip("-").isdigit() else token

    data = load_csv(
        path,
        response_column=column(args.response),
        covariate_columns=[column(tok) for tok in args.covariates.split(",")],
        header=not args.no_header,
        add_intercept=not args.no_intercept,
        transform=args.transform,
    )
    return data, [path]


def _parse_hypothesis(spec: str, dim: int) -> LinearHypothesis:
    """Parse 'beta0=1.98,beta1=0.73' or 'sigma=1' into a linear restriction."""
    indices, values = [], []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise DomainError(f"bad hypothesis token {token!r}; use name=value")
        name, _, value = token.partition("=")
        name = name.strip().lower()
        if name == "sigma":
            idx = dim - 1
        elif name.startswith("beta") and name[4:].isdecimal():
            idx = int(name[4:])
            if not is_index(idx, dim - 1):
                raise DomainError(f"{name} out of range for {dim - 1} coefficients")
        else:
            raise DomainError(f"unknown parameter in hypothesis token {token!r}")
        try:
            values.append(float(value))
        except ValueError:
            raise DomainError(f"bad value in hypothesis token {token!r}") from None
        indices.append(idx)
    if not indices:
        raise DomainError("empty hypothesis")
    return LinearHypothesis.coordinates(indices, values, dim)


def _fit_block(data: ModelData, args):
    """Continuation from the maximum-likelihood fit defines the reported
    solution; restarts are opt-in because the objective rewards concentrated
    fits at large tuning values."""
    options = SolverOptions(multistart=args.multistart, multistart_seed=args.seed)
    return fit_rp_path(data, args.alphas, options)


def cmd_fit(args) -> int:
    data, inputs = _resolve_data(args)
    blocks = [("all_rows", data)]
    if args.exclude:
        label = "excluded_" + "_".join(map(str, args.exclude))
        blocks.append((label, exclude_rows(data, args.exclude)))
    paths = []
    rows = []
    for label, block in blocks:
        fits = _fit_block(block, args)
        paths.append(fits)
        for a in args.alphas:
            fit = fits[float(a)]
            rows.append(
                [
                    label,
                    a,
                    fit.theta_hat.sigma,
                    *fit.theta_hat.beta.tolist(),
                    fit.objective_value,
                    fit.converged,
                ]
            )
    p = data.n_params
    columns = ["subset", "alpha", "sigma", *[f"beta{i}" for i in range(p)], "objective", "converged"]
    _write_table(args, "fit", columns, rows, inputs)
    return _status(*paths)


def cmd_test(args) -> int:
    check_probability(args.level, "--level")
    data, inputs = _resolve_data(args)
    if args.exclude:
        data = exclude_rows(data, args.exclude)
    hyp = _parse_hypothesis(args.null, data.n_params + 1)
    fits = _fit_block(data, args)
    rows = []
    for a in args.alphas:
        fit = fits[float(a)]
        outcome = wald_composite(data, fit, hyp)
        rows.append(
            [a, outcome.statistic, outcome.df, outcome.p_value, outcome.reject_at(args.level), fit.converged]
        )
    columns = ["alpha", "statistic", "df", "p_value", f"reject_at_{args.level}", "converged"]
    _write_table(args, "test", columns, rows, inputs, null=args.null)
    return _status(fits)


def cmd_influence(args) -> int:
    *bounds, count = args.t_grid
    if len(bounds) != 2 or not (count >= 1 and float(count).is_integer()):
        raise DomainError("--t-grid expects lo,hi,count with an integer count >= 1")
    grid = np.linspace(*bounds, int(count))
    data, inputs = _resolve_data(args)
    if args.exclude:
        data = exclude_rows(data, args.exclude)
    if not (args.direction == -1 or is_index(args.direction, data.n_obs)):
        raise DomainError(
            f"--direction must be an index in 0..{data.n_obs - 1} or -1, got {args.direction}"
        )
    fits = _fit_block(data, args)
    rows = []
    summary = {}
    direction = "all" if args.direction < 0 else args.direction
    for a in args.alphas:
        fit = fits[float(a)]
        req = IFRequest(
            contamination_points=grid, theta=fit.theta_hat, alpha=float(a), direction=direction
        )
        report = if2_simple(data, req)
        for t, vec, second in zip(grid, report.first_order, report.second_order_simple):
            rows.append([a, t, float(np.linalg.norm(vec)), *vec.tolist(), second])
        gross = (None, None)  # no closed form covers all directions at once
        if direction != "all":
            gross = [
                "unbounded" if math.isinf(g) else g
                for g in gross_error_sensitivity(data, direction, fit.theta_hat, float(a))
            ]
        summary[str(a)] = {
            "sup_norm_on_grid": report.sup_norm,
            "gross_error_beta": gross[0],
            "gross_error_sigma": gross[1],
            "bounded": bool(a > 0),
            "converged": fit.converged,
        }
    p = data.n_params
    columns = ["alpha", "t", "if_norm", *[f"if_beta{i}" for i in range(p)], "if_sigma", "if2_simple"]
    _write_table(args, "influence", columns, rows, inputs)
    _emit(args, "influence_summary.json", partial(write_json, payload=summary), inputs)
    return _status(fits)


def cmd_are(args) -> int:
    rows = []
    for a in args.alphas:
        eb, es = are(float(a))
        rows.append([a, 100.0 * eb, 100.0 * es])
    _write_table(args, "are", ["alpha", "are_beta_x100", "are_sigma_x100"], rows)
    return EXIT_OK


def cmd_power(args) -> int:
    table = contiguous_table(args.alphas, args.dx, args.sigma, args.level)
    rows = [
        [a, d, power]
        for a, row in sorted(table.items())
        for d, power in sorted(row.items())
    ]
    _write_table(args, "power", ["alpha", "d_x", "power"], rows)
    return EXIT_OK


# config key -> (what it sets, field name, parser).  "design",
# "contamination" and "study" are the keyword arguments of DesignSpec,
# ContaminationSpec and StudyConfig; "beta1" and "sigma" override entries of
# StudyConfig's default hypotheses.  An absent key is not passed, so the
# dataclass default holds.
_CONFIG_KEYS = {
    "design": ("design", "kind", str),
    "n": ("design", "n", int),
    "a": ("design", "a", float),
    "b": ("design", "b", float),
    "design_seed": ("design", "seed", int),
    "contamination_fraction": ("contamination", "fraction", float),
    "contaminating_beta": ("contamination", "contaminating_beta", _float_list),
    "placement": ("contamination", "placement", str),
    "placement_seed": ("contamination", "placement_seed", int),
    "true_beta": ("study", "true_beta", _float_list),
    "true_sigma": ("study", "true_sigma", float),
    "alphas": ("study", "alphas", _float_list),
    "replications": ("study", "replications", int),
    "level": ("study", "level", float),
    "seed": ("study", "seed", int),
    "sample_sizes": ("study", "sample_sizes", _int_list),
    "beta1_null": ("beta1", "null", float),
    "beta1_alternative": ("beta1", "alternative", float),
    "sigma_null": ("sigma", "null", float),
    "sigma_alternative": ("sigma", "alternative", float),
}


def _parse_config_file(path, seed_override=None, workers=1) -> StudyConfig:
    """Flat key=value file mapping onto the study configuration;
    contamination is on when ``contamination_fraction > 0``."""
    specs = {"design": {}, "contamination": {}, "study": {}, "beta1": {}, "sigma": {}}
    first_line = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise DomainError(
                f"{path}:{lineno}: repeated key {key!r} (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        spec, name, parse = _CONFIG_KEYS[key]
        try:
            specs[spec][name] = parse(value)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    if seed_override is not None:
        specs["study"]["seed"] = seed_override
    contamination = specs["contamination"]
    hypotheses = tuple(
        (name, index, specs[name].get("null", null), specs[name].get("alternative", alt))
        for name, index, null, alt in StudyConfig.hypotheses
    )
    return StudyConfig(
        design=DesignSpec(**specs["design"]),
        contamination=(
            ContaminationSpec(**contamination) if contamination.get("fraction", 0.0) > 0 else None
        ),
        hypotheses=hypotheses,
        n_workers=workers,
        **specs["study"],
    )


def cmd_simulate(args) -> int:
    config = _parse_config_file(args.config, seed_override=args.seed, workers=args.workers)
    result = run_study(config)
    _emit(args, "study.csv", partial(write_study_csv, result), [args.config])
    _emit(args, "study.json", partial(write_study_json, result), [args.config])
    return EXIT_NONCONVERGED if result.non_convergence_count > 0 else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyireg",
        description="Robust linear regression by minimum Renyi pseudodistance.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=False):
        p.add_argument("--alphas", type=_float_list, default=DEFAULT_ALPHAS,
                       help="comma-separated tuning values (default 0,0.2,...,1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=".", help="output directory")
        if data:
            p.add_argument("--data", required=True,
                           help="brain_weight, first_word, or a CSV path")
            p.add_argument("--response", default=None, help="response column for CSV input")
            p.add_argument("--covariates", default=None,
                           help="comma-separated covariate columns for CSV input")
            p.add_argument("--transform", choices=("none", "log_log"), default="none")
            p.add_argument("--no-header", action="store_true")
            p.add_argument("--no-intercept", action="store_true")
            p.add_argument("--exclude", type=_int_list, default=None,
                           help="1-based rows: fit adds a second block without them; "
                                "test and influence drop them")
            p.add_argument("--multistart", type=int, default=0,
                           help="random restarts per tuning value (0 = continuation only)")
            p.add_argument("--seed", type=int, default=0, help="seed of the restarts")

    p_fit = sub.add_parser("fit", help="estimate over a grid of tuning values")
    add_common(p_fit, data=True)
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="Wald-type tests of linear restrictions")
    add_common(p_test, data=True)
    p_test.add_argument("--null", required=True,
                        help="e.g. 'beta1=0.73' or 'beta0=1.98,beta1=0.73' or 'sigma=1'")
    p_test.add_argument("--level", type=float, default=0.05)
    p_test.set_defaults(func=cmd_test)

    p_inf = sub.add_parser("influence", help="influence curves over a contamination grid")
    add_common(p_inf, data=True)
    p_inf.add_argument("--direction", type=int, default=0,
                       help="0-based observation index; -1 for all directions")
    p_inf.add_argument("--t-grid", type=_float_list, default=(-10.0, 10.0, 101),
                       help="lo,hi,count")
    p_inf.set_defaults(func=cmd_influence)

    p_are = sub.add_parser("are", help="asymptotic relative efficiency table")
    add_common(p_are)
    p_are.set_defaults(func=cmd_are)

    p_pow = sub.add_parser("power", help="power against local alternatives")
    add_common(p_pow)
    p_pow.add_argument("--dx", type=_float_list, default=(0, 2, 5, 10, 15, 20, 25, 30),
                       help="design-normalized squared shifts")
    p_pow.add_argument("--sigma", type=float, default=1.0)
    p_pow.add_argument("--level", type=float, default=0.05)
    p_pow.set_defaults(func=cmd_power)

    p_sim = sub.add_parser("simulate", help="run a replicated study from a config file")
    p_sim.add_argument("--config", required=True, help="key = value study configuration")
    p_sim.add_argument("--output", default=".")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the seed in the config file")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand's --alphas, before any work; simulate's config
        # alphas are refused by StudyConfig
        for k, a in enumerate(getattr(args, "alphas", ())):
            if a in args.alphas[:k]:
                raise DomainError(f"repeated tuning value {a!r} in --alphas")
        return args.func(args)
    except (DomainError, DecompositionError, DegenerateFitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
