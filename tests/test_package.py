"""Package-level properties: what importing renyireg costs."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import renyireg


def test_import_loads_no_scipy_linalg_or_stats():
    # a fresh interpreter: this test session itself imports scipy.stats
    src = str(Path(renyireg.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import json, sys, renyireg, renyireg.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'linalg'], ['scipy', 'stats']))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # scipy.linalg adds about 6 MB of resident memory, scipy.stats about
    # 45 MB and a second of start-up
    assert json.loads(out.stdout) == []


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
