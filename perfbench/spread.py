"""Run one workload over several seeds and report each metric's median and
quartile spread (IQR / median), the figure the benchmark's bounds are set
against.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3,4,5 --seconds 20 \
        [--trace 0|1] [--json SUMMARY.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", help="also write the per-metric summary here")
    args = parser.parse_args(argv)
    values, walls = {}, []
    for seed in args.seeds.split(","):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", seed, "--seconds", args.seconds, "--trace", args.trace,
        ]
        start = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        walls.append(perf_counter() - start)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall", flush=True)
    print(f"{'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"{name:<48} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
    print(f"run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
            "trace": args.trace, "run_wall_s": walls, "metrics": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
