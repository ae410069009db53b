"""Replay every recorded benchmark request in-process and compare its stdout
byte for byte with the golden recorded for it.

The requests live under `benchmarks/problems/{default,held-out}`; each
names a problem, the `torbif` argv (with `{problem}` standing for the
problem file) and the golden stdout.  The files are only read.
"""

import json
from pathlib import Path

import pytest

from torbif.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "benchmarks" / "problems"

REQUESTS = [
    pytest.param(item, id=f"{path.parent.name}/{path.stem}/{pos}")
    for path in sorted(PROBLEMS.glob("*/*.json"))
    for pos, item in enumerate(json.loads(path.read_text(encoding="utf-8")))
]


def test_problem_sets_are_present():
    assert REQUESTS


@pytest.mark.parametrize("item", REQUESTS)
def test_recorded_golden(item, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(item["problem"]), encoding="utf-8")
    argv = [str(path) if arg == "{problem}" else arg for arg in item["argv"]]
    assert main(argv) == 0
    assert capsys.readouterr().out == item["golden"]
