"""Self-check of the benchmark harness.

Usage: python3 benchmarks/selfcheck.py

Each workload is run at a tiny size: its cheapest recorded request alone.
A timed run of it must report every end-to-end metric with no failed
request; a traced run of it, made twice, must print the golden stdout traced
and untraced, report every per-layer metric, and repeat every deterministic
count exactly.  On
dense-classify and high-k-index the zero-sum search must not run at all.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import harness
import run
from workloads import WORKLOADS

NO_ZERO_SUM = ("dense-classify", "high-k-index")


def _fail(message: str) -> None:
    print(f"selfcheck failed: {message}")
    sys.exit(1)


def _deterministic(values: dict) -> dict:
    return {name: value for name, value in values.items() if not name.endswith("_s") and name != "trace.overhead_frac"}


def main() -> None:
    harness.probe()
    harness.WORK.mkdir(exist_ok=True)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        _fail("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        tiny = [min(harness.load_items("default", name), key=lambda item: item["seed_commit_s"])]
        values, _, failed = run.timed_run(name, 0, tiny, seconds=0)
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in values]
        if failed or missing:
            _fail(f"{name}: timed request failed or metrics missing: {missing}")
        first, _, failed_first = run.traced_run(name, 0, tiny, 1)
        second, _, failed_second = run.traced_run(name, 0, tiny, 1)
        if failed_first or failed_second:
            _fail(f"{name}: traced request did not print the golden stdout")
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in first]
        if missing:
            _fail(f"{name}: per-layer metrics missing: {missing}")
        if _deterministic(first) != _deterministic(second):
            changed = sorted(k for k in _deterministic(first) if first[k] != second.get(k))
            _fail(f"{name}: counts differ between two identical runs: {changed}")
        zero_sum_calls = first["bifurcation.exists_zero_sum_subset.calls"] + first["bifurcation.any_zero_sum_subset.calls"]
        if name in NO_ZERO_SUM and (zero_sum_calls or first["bifurcation.zero_sum.adds"]):
            _fail(f"{name}: the zero-sum search ran")
        if name not in NO_ZERO_SUM and not first["bifurcation.zero_sum.adds"]:
            _fail(f"{name}: the zero-sum search did no work")
        print(
            f"{name}: ok; bif_index.per_level {first['bifurcation.bif_index.per_level']},"
            f" star.calls {first['euler.star.calls']}, zero_sum.adds {first['bifurcation.zero_sum.adds']}"
        )


if __name__ == "__main__":
    main()
