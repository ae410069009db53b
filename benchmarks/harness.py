"""Shared machinery: spawning requests, writing inputs, checking outputs,
and turning trace files into per-layer figures."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
PROBLEMS = BENCH / "problems"
WORK = BENCH / "work"
REQUEST_TIMEOUT_S = 150
# On a shared host the speed at which one core runs Python drifts by a third
# for tens of seconds at a time, longer than a run.  Every child times a fixed
# loop (child.calibrate) next to its work, and times are scaled to the speed at
# which that loop takes REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.100
ZERO_SUM_SPANS = ("bifurcation.exists_zero_sum_subset", "bifurcation.any_zero_sum_subset")


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def request(
    argv: list[str] | None, trace: str | None = None, timeout: float = REQUEST_TIMEOUT_S, hash_seed: int | None = None
) -> dict:
    """Run one CLI request (or, with argv None, only the import) in a fresh
    interpreter and return the child's report.

    The string-hash seed changes dict layouts and with them the request's
    time, so runs pass a seeded value to make each request reproducible."""
    spec = json.dumps({"argv": argv, "trace": trace})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), spec],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"spawned": spawned, "error": f"timed out after {max(timeout, 1.0):.0f} s"}
    exited = time.monotonic()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"spawned": spawned, "exited": exited, "error": tail[0]}
    report = json.loads(lines[-1])
    report.update(spawned=spawned, exited=exited)
    return report


def probe() -> float:
    """Start an interpreter that only imports torbif.cli; return the set-up
    time, or raise SetupError if the checkout's package cannot be imported."""
    if not (ROOT / "src" / "torbif" / "cli.py").is_file():
        raise SetupError(f"no torbif package under {ROOT / 'src'}")
    report = request(None)
    if "ready" not in report:
        raise SetupError(f"cannot import torbif.cli: {report['error']}")
    if not Path(report["module"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"torbif.cli was imported from {report['module']}, not from {ROOT / 'src'}")
    return setup_seconds(report)


def setup_seconds(report: dict) -> float:
    """Spawn to `import torbif.cli` done, scaled to the reference speed."""
    return (report["ready"] - report["spawned"]) * REFERENCE_CALIBRATION_S / report["calibration"]


def request_seconds(report: dict) -> float:
    """Time around `torbif.cli.main`, scaled to the reference speed by the
    calibration loops run just before and just after it."""
    gauge = (report["calibration"] + report["calibration_after"]) / 2
    return (report["end"] - report["start"]) * REFERENCE_CALIBRATION_S / gauge


def write_input(item: dict, rng: random.Random, path: Path) -> list[str]:
    """Write the item's problem with its spectra in a seeded order (the
    output does not depend on it) and return the argv that reads it."""
    spectra = list(item["problem"]["spectra"])
    rng.shuffle(spectra)
    path.write_text(json.dumps(dict(item["problem"], spectra=spectra), indent=2) + "\n", encoding="utf-8")
    return [str(path) if arg == "{problem}" else arg for arg in item["argv"]]


def check(item: dict, report: dict) -> tuple[bool, int]:
    """Whether the request succeeded with the golden stdout, and how many of
    its levels printed the golden line."""
    if report.get("error") or report.get("rc") != 0 or "stdout" not in report:
        return False, 0
    if report["stdout"] == item["golden"]:
        return True, item["levels"]
    pairs = zip(report["stdout"].splitlines(), item["golden"].splitlines())
    return False, sum(1 for out, gold in pairs if out == gold and out.startswith("k="))


def load_items(problem_set: str, workload: str) -> list[dict]:
    with open(PROBLEMS / problem_set / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def cycle(items: list[dict], rng: random.Random) -> list[dict]:
    """Every item once: each group in a seeded order, the groups interleaved."""
    groups: dict[str, list[dict]] = {}
    for item in items:
        groups.setdefault(item["group"], []).append(item)
    for members in groups.values():
        rng.shuffle(members)
    return [item for row in itertools.zip_longest(*groups.values()) for item in row if item is not None]


class TraceTotals:
    """Per-layer figures summed over the requests of a traced run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.sizes: dict[str, int] = {}
        self.spans: list[list] = []
        self.installed: set[str] = set()

    def add(self, request_id: int, trace: dict) -> None:
        self.installed.update(trace["installed"])
        spans = trace["spans"]
        covered = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_ns[name] += end - start - covered[index]
            if name == "euler.add" and parent >= 0 and spans[parent][0] in ZERO_SUM_SPANS:
                self.counts["bifurcation.zero_sum.adds"] += 1
            self.spans.append([name, start, end, parent, request_id])
        self.counts.update(trace["counts"])
        for name, value in trace["caches"].items():
            if name.endswith(".size"):
                self.sizes[name] = max(self.sizes.get(name, 0), value)
            else:
                self.counts[name] += value

    def metrics(self, levels: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.installed:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(self.counts)
        out.update(self.sizes)
        out["bifurcation.bif_index.per_level"] = self.calls["bifurcation.bif_index"] / levels
        out.setdefault("bifurcation.zero_sum.adds", 0)
        hits, misses = "euler.generator_product.hits", "euler.generator_product.misses"
        if hits in out:
            lookups = out[hits] + out[misses]
            out["euler.generator_product.hit_ratio"] = out[hits] / lookups if lookups else 0.0
        return out

    def dump(self, path: Path) -> None:
        payload = {
            "span_fields": ["name", "start_ns", "end_ns", "parent index within the request", "request"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "sizes": self.sizes,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
