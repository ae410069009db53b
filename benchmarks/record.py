"""Draw the benchmark's problem sets and record their golden stdout.

Usage: python3 benchmarks/record.py [--set default|held-out] [--workload NAME]

Each problem set is drawn by the generators in `workloads.py` from a fixed
generator seed: "default" (seed 0) is the set `run.py` measures, "held-out"
(seed 1) is kept for checking a claimed gain on problems not used while the
change was written.  Every request is run once through the CLI, and its
stdout becomes the golden that later runs must reproduce byte for byte;
record at the commit whose outputs are the reference.  The request time is
kept as `seed_commit_s` for reference.  Writes problems/<set>/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import harness
from workloads import WORKLOADS

SETS = {"default": 0, "held-out": 1}


def _check_shape(workload: str, group: str, stdout: str) -> None:
    lines = stdout.splitlines()
    if workload == "dense-classify":
        expected = {"c1": "NonCompactGuaranteed(c1)", "c2": "NonCompactGuaranteed(c2)"}[group]
        assert lines[0] == f"classification: {expected}", lines[0]
        assert lines[-1] == "zero-sum check: skipped (more than 20 levels)", lines[-1]
    elif workload == "zero-sum-classify":
        assert lines[0] == "classification: Alternative", lines[0]
        assert lines[-1].startswith("zero-sum subset"), lines[-1]
    else:
        assert len(lines) == 2 and lines[1].startswith("certificate: "), lines


def record(problem_set: str, name: str) -> list[dict]:
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{SETS[problem_set]}")
    path = harness.WORK / f"record-{name}.json"
    items = []
    for group in workload.groups:
        drawn: list[dict] = []
        while len(drawn) < workload.per_group:
            problem, argv, levels = workload.generate(rng, group)
            if any(item["problem"] == problem and item["argv"] == argv for item in drawn):
                continue
            item = {"group": group, "problem": problem, "argv": argv, "levels": levels}
            report = harness.request(harness.write_input(item, random.Random(0), path))
            if report.get("error") or report.get("rc") != 0:
                raise SystemExit(f"{name}/{group}: request failed: {report.get('error') or report.get('rc')}")
            _check_shape(name, group, report["stdout"])
            item.update(golden=report["stdout"], seed_commit_s=round(report["end"] - report["start"], 3))
            drawn.append(item)
            print(f"{name} {group} #{len(drawn)}: {item['seed_commit_s']} s", file=sys.stderr)
        items.extend(drawn)
    path.unlink()
    return items


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", choices=sorted(SETS), action="append", dest="sets")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append", dest="workloads")
    args = parser.parse_args()
    harness.probe()
    harness.WORK.mkdir(exist_ok=True)
    for problem_set in args.sets or sorted(SETS):
        for name in args.workloads or list(WORKLOADS):
            items = record(problem_set, name)
            out = harness.PROBLEMS / problem_set / f"{name}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(items, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
