"""Steadiness check: repeat the benchmark and report each metric's spread.

    python3 repobench/steady.py --runs 10 [--workloads NAME ...]

Runs ``run.py`` once per seed (1 .. ``runs``) on each workload for
``run_seconds`` of ``BENCHMARK.json``, one run at a time, then prints
for every end-to-end metric its median, min-max, and the distance
between the first and third quartile as a share of the median next to
the metric's bound.  A spread of a third of the bound or more is marked
``!`` (the target for a steady benchmark), ``setup_s`` included.  Raw
results go to ``.repobench/steady-*.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    out_dir = ROOT / ".repobench"
    out_dir.mkdir(exist_ok=True)
    failed = False
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(config["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["wall_s"] = time.perf_counter() - started
            result["header"] = lines[:-1]
            runs.append(result)
            print("%s seed %d: %.1f s wall, correct=%s" % (
                workload, seed, result["wall_s"], result["correct"]),
                flush=True)
        (out_dir / ("steady-%s-%d.json" % (workload, int(time.time())))
         ).write_text(json.dumps(runs, indent=1))
        print("%-14s %-12s %12s %12s %12s %8s %6s" % (
            workload, "metric", "median", "min", "max", "IQR/med",
            "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flag = "" if spread < bound / 3 else " !"
            failed |= bool(flag)
            print("%-14s %-12s %12.5g %12.5g %12.5g %8.4f %6.2f%s" % (
                "", name, median, min(values), max(values), spread, bound,
                flag))
        failed |= not all(r["correct"] for r in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
