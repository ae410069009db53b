"""Hostile and huge inputs end in bounded work with a documented exit.

Each case runs `python -m torbif` in a child whose address space and CPU
time are capped by `resource.setrlimit` in `preexec_fn`, so the caps hold
for the child alone.  A case passes when the child exits 0, 2, 3 or 141,
writes at most one line to stderr, and prints no traceback.  A case that
the caps end (a negative exit, the signal) is a fault of the program; the
known ones are marked `xfail(strict=True)` with the ROADMAP item that
mends them, so the mend shows as an unexpected pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torbif

resource = pytest.importorskip("resource")

ADDRESS_SPACE = 2 << 30
CPU_SECONDS = 20
HUGE = "9" * 999


def run_capped(argv, cpu_seconds=CPU_SECONDS, stdout=subprocess.PIPE):
    """`python -m torbif *argv` under the caps: (exit code, stderr)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    src = str(Path(torbif.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "torbif", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=cap,
        timeout=10 * cpu_seconds,
    )
    return result.returncode, result.stderr.decode("utf-8", "replace")


def assert_bounded(code, err):
    assert code in (0, 2, 3, 141), (code, err[-300:])
    assert err.count("\n") <= 1 and "Traceback" not in err, err[-300:]


def problem(spectra, degree):
    return json.dumps({"spectra": spectra, "deg_s1": degree, "unique_critical_point": True})


def eigenvalue(alpha, isotypic):
    return {"alpha": alpha, "isotypic": [{"m": m, "k": k} for m, k in isotypic]}


S1 = [{"subgroup": "S1", "coeff": 1}]
ONE = problem([eigenvalue(1, [(0, 1), (1, 1)])], S1)
SPEEDS = problem([eigenvalue(1, [(m, 1) for m in range(1, 1001)])], [{"subgroup": "Z1", "coeff": 1}])

# name: (problem file text or None, argv after the command, expected exit)
CASES = {
    "index-k-of-999-digits": (ONE, ["index", "--k", HUGE, "--alpha", "1"], 2),
    "index-alpha-of-999-digits": (ONE, ["index", "--k", "1", "--alpha", HUGE], 3),
    "index-lambda-sq-of-999-digits": (ONE, ["index", "--lambda-sq", "1/" + HUGE], 3),
    "index-k-of-a-million": (
        problem(
            [eigenvalue(1, [(0, 1), (1, 2)]), eigenvalue(3, [(2, 1)])],
            S1 + [{"subgroup": "Z2", "coeff": -1}],
        ),
        ["index", "--k", "1000000", "--alpha", "1"],
        2,
    ),
    "arrays-200000-deep": ("[" * 200_000 + "]" * 200_000, ["levels"], 2),
    "objects-100000-deep": ('{"a":' * 100_000 + "1" + "}" * 100_000, ["levels"], 2),
    "index-1000-speeds-at-one-eigenvalue": (SPEEDS, ["index", "--k", "1", "--alpha", "1"], 2),
    "classify-1000-speeds-at-one-eigenvalue": (SPEEDS, ["classify"], 2),
    "multiplicity-and-coefficient-of-10**999": (
        problem([eigenvalue(1, [(0, 1), (1, 10**999)])], [{"subgroup": "S1", "coeff": 10**999}]),
        ["classify"],
        0,
    ),
    "star-of-1199-by-899-line-terms": (
        None,
        [
            "star",
            " + ".join(f"H({m},1)" for m in range(1, 1200)),
            " + ".join(f"H({m},2)" for m in range(1, 900)),
        ],
        2,
    ),
    "star-with-999-digit-coefficients": (
        None,
        ["star", f"{HUGE}*H(1,1) + {HUGE}*T", f"{HUGE}*H(2,1) - {HUGE}*T"],
        0,
    ),
}


def argv_for(tmp_path, text, argv):
    if text is None:
        return argv
    path = tmp_path / "problem.json"
    path.write_text(text)
    return [argv[0], "--problem", str(path), *argv[1:]]


@pytest.mark.parametrize("name", list(CASES))
def test_hostile_input_ends_in_a_documented_exit(tmp_path, name):
    text, argv, expected = CASES[name]
    code, err = run_capped(argv_for(tmp_path, text, argv))
    assert_bounded(code, err)
    assert code == expected


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_problem_file_ends_in_exit_2():
    code, err = run_capped(["levels", "--problem", "/dev/zero"])
    assert_bounded(code, err)
    assert code == 2


def test_closed_stdout_ends_in_141(tmp_path):
    # the read end is closed before the child starts, so its first write
    # fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = run_capped(argv_for(tmp_path, ONE, ["classify"]), stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (141, "")


# Shapes whose total work has no bound yet: they run until the CPU cap,
# kept at 2 s so the suite stays fast.
UNBOUNDED = {
    "classify-max-k-100000-at-one-eigenvalue": (ONE, ["classify", "--max-k", "100000"]),
    "classify-2000-eigenvalues-at-max-k-50": (
        problem([eigenvalue(alpha, [(0, 1)]) for alpha in range(1, 2001)], S1),
        ["classify", "--max-k", "50"],
    ),
}


@pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="classify's total work is unbounded (ROADMAP item 5)"
)
@pytest.mark.parametrize("name", list(UNBOUNDED))
def test_unbounded_classify_ends_in_a_documented_exit(tmp_path, name):
    text, argv = UNBOUNDED[name]
    assert_bounded(*run_capped(argv_for(tmp_path, text, argv), cpu_seconds=2))
