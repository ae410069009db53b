"""One benchmark request, run in a fresh interpreter so every cache starts cold.

Usage: python3 child.py SPEC, where SPEC is a JSON object with

    argv   the torbif argv to run, or null to stop after the import
    trace  where to write spans and counters, or null to run untraced

`torbif` must be importable (the harness puts the checkout's `src` on
PYTHONPATH).  The child prints one JSON line: `ready`, the monotonic clock
when `import torbif.cli` finished, `module`, the file it came from, and
`calibration`, the seconds a fixed pure-Python loop takes right after the
import; for a request also `start` and `end` around `torbif.cli.main(argv)`,
the loop's time again after the request as `calibration_after`, the return
code `rc`, any exception as `error`, the captured `stdout` and the process's
`maxrss_kb`.
"""

import contextlib
import io
import json
import resource
import sys
import time

import torbif.cli

READY = time.monotonic()

# About 0.1 s in all.  Rounds stay small so the gauge does not raise the
# process's peak RSS above the request's own.
CALIBRATION_ROUNDS = 3
CALIBRATION_KEYS = 16_000


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work like torbif's own (tuple
    keys, dict merges, a keyed sort): a gauge of how fast this CPU runs such
    code at the moment, used to scale request times."""
    begin = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        counts: dict = {}
        for i in range(CALIBRATION_KEYS):
            key = ((i % 97, i // 97), (i % 13, 1))
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return time.perf_counter() - begin


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = {"ready": READY, "module": torbif.cli.__file__, "calibration": calibrate()}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        captured = io.StringIO()
        rc, error = None, None
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(captured):
                rc = torbif.cli.main(spec["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising request is recorded as failed
            error = repr(exc)
        end = time.monotonic()
        # Read before the second calibration, whose allocations would add to it.
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["calibration_after"] = calibrate()
        if tracer is not None:
            tracer.dump(spec["trace"])
        report.update(
            start=start,
            end=end,
            rc=rc,
            error=error,
            stdout=captured.getvalue(),
            maxrss_kb=maxrss_kb,
        )
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
