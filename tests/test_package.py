"""Package-level properties: what importing renyireg costs."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
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
    LinearHypothesis, ModelData, StudyConfig, fit_rp, noncentral_chisq_sf, run_study,
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
# the power functions still reach scipy, imported on their first call
report["power"] = noncentral_chisq_sf(3.84, 1, 5.0)
report["after_power"] = "scipy.special" in sys.modules
print(json.dumps(report))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    # scipy.special alone adds about 0.3 s of start-up to every run
    assert report["import"] == []
    assert report["wald"] == []
    assert 0.0 < report["p_value"] < 1.0
    assert 0.5 < report["power"] < 0.7
    assert report["after_power"]


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
