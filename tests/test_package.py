"""Package-level properties: what importing renyireg costs."""

import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import renyireg


def test_import_and_wald_path_load_no_scipy():
    # a fresh interpreter: this test session itself imports scipy.stats
    src = str(Path(renyireg.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = """
import json, sys
import numpy as np
import renyireg, renyireg.cli
from renyireg import (
    LinearHypothesis, ModelData, StudyConfig, Theta, chisq_quantile, contiguous_table, fit_rp,
    noncentral_chisq_sf, normal_cdf, normal_quantile, required_sample_size, run_study,
    wald_composite,
)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {"import": loaded()}
run_study(StudyConfig(replications=2, seed=3))
x = np.column_stack([np.ones(30), np.linspace(-1.0, 1.0, 30)])
data = ModelData(x, x @ [1.0, 2.0] + np.sin(np.arange(30.0)))
outcome = wald_composite(data, fit_rp(data, 0.5), LinearHypothesis.coordinates([1], [2.0], 3))
report["wald"] = loaded()
report["p_value"] = outcome.p_value
report["power"] = noncentral_chisq_sf(3.84, 1, 5.0) + noncentral_chisq_sf(7.81, 3, 5.0)
report["table"] = contiguous_table((0.0, 0.5), (5.0,), 1.0, 0.05)[0.0][5.0]
report["size"] = required_sample_size(
    Theta(beta=np.array([1.0, 0.5]), sigma=1.0), Theta(beta=np.array([1.0, 0.0]), sigma=1.0),
    0.0, 0.9, 0.05, lambda theta: np.eye(3),
)
report["quantiles"] = chisq_quantile(3, 0.05) + normal_quantile(0.9) + normal_cdf(1.0)
report["after_power"] = loaded()
print(json.dumps(report))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    # the runtime needs numpy alone: no call of the library imports scipy
    assert report["import"] == []
    assert report["wald"] == []
    assert report["after_power"] == []
    assert 0.0 < report["p_value"] < 1.0
    assert 1.0 < report["power"] < 2.0
    assert 0.5 < report["table"] < 0.7
    assert report["size"] >= 1
    assert math.isfinite(report["quantiles"])


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from renyireg.<module> import *`
    modules = [renyireg] + [
        importlib.import_module(f"renyireg.{info.name}")
        for info in pkgutil.iter_modules(renyireg.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_star_import_binds_no_module():
    namespace = {}
    exec("from renyireg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(renyireg.__all__)
    assert [name for name, value in namespace.items() if inspect.ismodule(value)] == []
    assert {"fit_rp", "ModelData", "run_study"} <= set(renyireg.__all__)


def test_all_is_the_union_of_the_modules_all():
    # the package declares no name itself; a name in two modules' __all__
    # would let one star import shadow the other
    modules = ["data", "estimation", "exceptions", "inference", "model", "numerics",
               "robustness", "simulation"]
    names = Counter(
        name for module in modules for name in importlib.import_module(f"renyireg.{module}").__all__
    )
    assert [name for name, count in names.items() if count > 1] == []
    assert renyireg.__all__ == sorted(names)
