"""Run the benchmark over several seeds and summarise each end-to-end metric.

Usage: python3 benchmarks/repeat.py [--workload NAME ...] [--seeds 1-10]
                                    [--problems default|held-out] [--out FILE]

Runs `run.py` once per workload and seed, one run at a time, with the
`run_seconds` of BENCHMARK.json.  For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the quartile distance as
a share of the median, next to the metric's bound.  `--out` also writes the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import harness
from workloads import WORKLOADS


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append", dest="workloads")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--problems", default="default", choices=("default", "held-out"))
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary: dict = {"python": platform.python_version(), "machine": platform.machine(), "workloads": {}}
    for name in args.workloads or list(WORKLOADS):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            command = [sys.executable, str(harness.BENCH / "run.py"), "--workload", name, "--seed", str(seed)]
            command += ["--seconds", str(spec["run_seconds"]), "--trace", "0", "--problems", args.problems]
            proc = subprocess.run(command, capture_output=True, text=True, cwd=harness.ROOT)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} requests failed")
                return 1
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
        rows = {}
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            low, _, high = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            rows[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": low,
                "q3": high,
                "spread": (high - low) / median,
                "bound": metric["bound"],
                "runs": series,
            }
            print(f"  {metric['name']:<14} median {median:.5g} {metric['unit']}, spread {(high - low) / median:.3f} (bound {metric['bound']})")
        summary["workloads"][name] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
