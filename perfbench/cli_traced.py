"""Run ``renyireg`` under the layer tracer and write its spans as JSON.

Usage: python3 perfbench/cli_traced.py SPANS.json <renyireg arguments>

The exit code is the command's own.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import renyireg.cli  # noqa: E402  (the tracer wraps loaded modules only)

from tracer import Tracer  # noqa: E402


def main(argv):
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.op = 0
    with tracer:
        code = renyireg.cli.main(args)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
