"""The torbif benchmark: one run of one workload.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--problems default|held-out]

Load model: a closed loop with one client.  This process sends one request at
a time and waits for it; each request is a fresh interpreter (so torbif's
caches start cold, as for every real CLI call) that times
`torbif.cli.main(argv)` with stdout captured; times are scaled to a reference
CPU speed (see harness.REFERENCE_CALIBRATION_S).  A cycle sends every problem
of the recorded problem set once; the seed sets the order of the problems,
the order of each problem's spectra and each interpreter's hash seed.  A run
starts a new cycle only while a whole cycle still fits in --seconds, so every
run measures the same work.  Every stdout is compared with its golden.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs a
fixed number of requests, each once untraced and once traced, checks that
both print the golden, and reports the per-layer metrics of BENCHMARK.json
computed from the spans (also written to work/trace-<workload>.json) plus
`trace.overhead_frac`, the traced request time against the untraced one.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Exits 2 without a result when the checkout's
torbif package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import harness
from workloads import WORKLOADS

SETUP_PROBES = 5
HARD_LIMIT_S = 150  # a run must end within 180 s whatever the program does


def _requests(name: str, seed: int, items: list[dict]):
    """The seeded request sequence of (item, argv, hash seed), cycle after cycle."""
    rng = random.Random(f"{name}/{seed}")
    path = harness.WORK / f"input-{name}.json"
    while True:
        for item in harness.cycle(items, rng):
            yield item, harness.write_input(item, rng, path), rng.randrange(2**32)


def timed_run(name: str, seed: int, items: list[dict], seconds: int) -> tuple[dict, int, int]:
    start = time.monotonic()
    setups = [harness.probe() for _ in range(SETUP_PROBES)]
    sequence = _requests(name, seed, items)
    done: list[tuple[dict, dict]] = []
    cycle_walls: list[float] = []
    while not cycle_walls or time.monotonic() + statistics.mean(cycle_walls) <= start + seconds:
        began = time.monotonic()
        for _ in items:
            item, argv, hash_seed = next(sequence)
            timeout = start + HARD_LIMIT_S - time.monotonic()
            done.append((item, harness.request(argv, timeout=timeout, hash_seed=hash_seed)))
            if time.monotonic() > start + HARD_LIMIT_S:
                break
        cycle_walls.append(time.monotonic() - began)
        if time.monotonic() > start + HARD_LIMIT_S:
            break

    checks = [harness.check(item, report) for item, report in done]
    request_s = [harness.request_seconds(r) for _, r in done if "end" in r]
    setups += [harness.setup_seconds(r) for _, r in done if "ready" in r]
    failed = sum(1 for ok, _ in checks if not ok)
    values = {
        "levels_per_s": sum(levels for _, levels in checks) / sum(request_s) if request_s else 0.0,
        "request_p50_s": statistics.median(request_s) if request_s else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max((r["maxrss_kb"] for _, r in done if "maxrss_kb" in r), default=0) / 1024,
        "failed_frac": failed / len(done),
    }
    for (item, report), (ok, _) in zip(done, checks):
        if not ok:
            print(f"failed: {' '.join(item['argv'])}: {report.get('error') or 'stdout differs from golden'}")
    return values, len(done), failed


def traced_run(name: str, seed: int, items: list[dict], attempted: int) -> tuple[dict, int, int]:
    deadline = time.monotonic() + HARD_LIMIT_S
    sequence = _requests(name, seed, items)
    span_path = harness.WORK / f"spans-{name}.json"
    totals = harness.TraceTotals()
    plain_s = traced_s = 0.0
    levels = failed = 0
    for request_id in range(attempted):
        item, argv, hash_seed = next(sequence)
        plain = harness.request(argv, timeout=deadline - time.monotonic(), hash_seed=hash_seed)
        traced = harness.request(argv, trace=str(span_path), timeout=deadline - time.monotonic(), hash_seed=hash_seed)
        if not (harness.check(item, plain)[0] and harness.check(item, traced)[0]):
            failed += 1
            print(f"failed: {' '.join(item['argv'])}: {plain.get('error') or traced.get('error') or 'stdout differs'}")
            continue
        totals.add(request_id, json.loads(span_path.read_text(encoding="utf-8")))
        span_path.unlink()
        levels += item["levels"]
        plain_s += harness.request_seconds(plain)
        traced_s += harness.request_seconds(traced)
    if not levels:
        return {}, attempted, failed
    totals.dump(harness.WORK / f"trace-{name}.json")
    values = totals.metrics(levels)
    values["trace.overhead_frac"] = traced_s / plain_s - 1
    return values, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one torbif benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--problems", default="default", choices=("default", "held-out"))
    args = parser.parse_args()

    try:
        harness.probe()
        items = harness.load_items(args.problems, args.workload)
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (harness.SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.WORK.mkdir(exist_ok=True)
    if args.trace:
        values, attempted, failed = traced_run(args.workload, args.seed, items, WORKLOADS[args.workload].traced_requests)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = timed_run(args.workload, args.seed, items, args.seconds)
        wanted = spec["end_to_end"] + [{"name": "failed_frac", "unit": "ratio"}]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    print(f"{args.workload} seed {args.seed}: {attempted} requests, {failed} failed")
    for metric, entry in metrics.items():
        print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    # failed_frac is 0 on a correct run, so the JSON carries it as failed/attempted.
    metrics.pop("failed_frac", None)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
