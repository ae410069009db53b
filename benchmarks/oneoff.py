"""One-off check of the seed-commit figures quoted in ROADMAP.md.

Usage: python3 benchmarks/oneoff.py

Times, once each and with the benchmark's request harness (a fresh
interpreter per request, timer around `torbif.cli.main`, unscaled wall
seconds as in the ROADMAP), the worked example
at `index --k 1600 --alpha 2` and `classify` at 16, 18 and 20 levels.  These
are reference points, not workloads; the script checks the outputs the
ROADMAP states (the index is -1*F(1,0;0,1600), and no zero-sum subset
exists) and takes about two minutes at the seed commit.
"""

from __future__ import annotations

import sys

import harness

CASES = (
    (["index", "--problem", "{problem}", "--k", "1600", "--alpha", "2"], "-1*F(1,0;0,1600)\n"),
    (["classify", "--problem", "{problem}", "--max-k", "16"], "zero-sum subsets among computed levels: none\n"),
    (["classify", "--problem", "{problem}", "--max-k", "18"], "zero-sum subsets among computed levels: none\n"),
    (["classify", "--problem", "{problem}", "--max-k", "20"], "zero-sum subsets among computed levels: none\n"),
)


def main() -> int:
    harness.probe()
    harness.WORK.mkdir(exist_ok=True)
    path = str(harness.WORK / "worked-example.json")
    if harness.request(["example", path]).get("rc") != 0:
        print("could not write the worked example")
        return 1
    status = 0
    for argv, expected in CASES:
        argv = [path if arg == "{problem}" else arg for arg in argv]
        report = harness.request(argv, timeout=600)
        ok = report.get("rc") == 0 and expected in report.get("stdout", "")
        status |= not ok
        seconds = report["end"] - report["start"] if "end" in report else float("nan")
        print(f"{' '.join(argv[:1] + argv[3:]):<32} {seconds:8.2f} s  {'ok' if ok else 'UNEXPECTED OUTPUT'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
