"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 perfbench/repeat.py --workloads audit,certify --seeds 1-10 --out baseline.json

For every workload it runs ``run.py`` once per seed, one run at a time,
echoes each run's report (every figure by name and unit, and the output
checks), and then reports each metric's median, quartiles and spread (the
distance between the first and third quartile as a share of the median, from
``statistics.quantiles(values, n=4)``). It exits 1 if any run fails a check.
``--out`` also records the git revision, Python, numpy and requests versions
and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def environment() -> dict:
    import numpy
    import requests

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"git_rev": rev, "python": platform.python_version(), "numpy": numpy.__version__,
            "requests": requests.__version__, "nproc": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        table = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            table[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": vals}
            print(f"{workload:12s} {name:40s} median {med:12.6g} {units[name]:6s} "
                  f"spread {spread:6.3f}  n={len(vals)}", flush=True)
        summary["workloads"][workload] = table
    if args.out:
        summary["environment"] = environment()
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
