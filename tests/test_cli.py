import ast
import io
import json
import math
import os
import re
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import torbif
import torbif.bifurcation
import torbif.cli
import torbif.euler
import torbif.problem_io
import torbif.rationals
import torbif.spectral
import torbif.subgroups
from torbif import (
    BifurcationLevel,
    CriticalPointProblem,
    EulerElementS1,
    EulerElementT2,
    S1Representation,
    SpectralDatum,
    TorusSubgroup,
    build_report,
    deg_minus_id_t2,
    example_problem,
    format_element,
    lambda_set,
    parse_problem,
    write_problem,
)
from torbif.cli import main
from torbif.euler import _generator_product
from torbif.spectral import _Walk
from torbif.subgroups import _interned

from oracles import NEGATIVE_NUMBER, argparse_reference_parser, cross_direction_pairs, random_problem


def module_env():
    """Environment in which `python -m torbif` imports this checkout's package."""
    src = str(Path(torbif.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "example.json"
    assert main(["example", str(path)]) == 0
    return str(path)


def test_example_writes_problem(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["example", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == f"wrote example problem to {path}\n"
    payload = json.loads(path.read_text())
    assert set(payload) == {"spectra", "deg_s1", "unique_critical_point"}


def test_example_json(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["example", "--json", str(path)]) == 0
    assert capsys.readouterr() == (json.dumps({"written": str(path)}, indent=2) + "\n", "")
    assert parse_problem(path.read_text()) == example_problem()


def test_example_write_failure_exit_code(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    assert main(["example", str(target)]) == 4
    assert "error" in capsys.readouterr().err


def test_levels_text_output(example_path, capsys):
    assert main(["levels", "--problem", example_path, "--max-k", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "k=1 alpha=2 lambda_sq=1/2 resonances: (n=1, alpha=2)\n"
        "k=2 alpha=2 lambda_sq=2 resonances: (n=2, alpha=2)\n"
        "k=3 alpha=2 lambda_sq=9/2 resonances: (n=3, alpha=2)\n"
    )


def test_levels_json_output(example_path, capsys):
    assert main(["levels", "--problem", example_path, "--max-k", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "levels": [
            {"k": 1, "alpha": 2, "lambda_sq": "1/2", "resonances": [{"n": 1, "alpha": 2}]},
            {"k": 2, "alpha": 2, "lambda_sq": 2, "resonances": [{"n": 2, "alpha": 2}]},
        ]
    }


def test_index_by_pair_and_by_lambda_sq(example_path, capsys):
    assert main(["index", "--problem", example_path, "--k", "1", "--alpha", "2"]) == 0
    first = capsys.readouterr().out
    assert first == "-1*F(1,0;0,1)\ncertificate: SameSignPath\n"
    assert main(["index", "--problem", example_path, "--lambda-sq", "1/2"]) == 0
    assert capsys.readouterr().out == first


def test_index_json_matches_report(example_path, capsys):
    assert main(["index", "--problem", example_path, "--lambda-sq", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == {"k": 2, "alpha": 2, "lambda_sq": 2}
    assert payload["index"] == [{"generator": "F(1,0;0,2)", "coeff": -1}]
    assert payload["nontrivial"] is True
    assert payload["certificate"] == "SameSignPath"


def test_index_level_addressing_errors(example_path, capsys):
    # both addressing styles at once, or neither, exits 2 with one error
    # line and no usage line
    for extra in (["--k", "1"], ["--k", "1", "--alpha", "2", "--lambda-sq", "2"], []):
        assert main(["index", "--problem", example_path, *extra]) == 2
        assert capsys.readouterr() == (
            "",
            "error: address the level with both --k and --alpha, or with --lambda-sq\n",
        )
    assert main(["index", "--problem", example_path, "--k", "1", "--alpha", "abc"]) == 2
    capsys.readouterr()
    assert main(["index", "--problem", example_path, "--k", "0", "--alpha", "2"]) == 3
    capsys.readouterr()
    assert main(["index", "--problem", example_path, "--k", "1", "--alpha", "3"]) == 3
    capsys.readouterr()
    assert main(["index", "--problem", example_path, "--lambda-sq", "7"]) == 3
    capsys.readouterr()


def test_missing_problem_file(tmp_path, capsys):
    absent = str(tmp_path / "absent.json")
    assert main(["levels", "--problem", absent]) == 2
    assert "error" in capsys.readouterr().err


def test_deeply_nested_problem_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert main(["levels", "--problem", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not valid JSON: nested too deeply\n"


def test_malformed_problem_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"spectra": []}')
    assert main(["classify", "--problem", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_classify_text_output(example_path, capsys):
    assert main(["classify", "--problem", example_path, "--max-k", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "classification: NonCompactGuaranteed(c2)"
    assert lines[1] == (
        "k=1 alpha=2 lambda_sq=1/2 nontrivial=yes certificate=SameSignPath"
        " classification=NonCompactGuaranteed(c2) index=-1*F(1,0;0,1)"
    )
    assert lines[3] == "zero-sum subsets among computed levels: none"


def test_classify_json_output(example_path, capsys):
    assert main(["classify", "--problem", example_path, "--max-k", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "NonCompactGuaranteed(c2)"
    assert len(payload["reports"]) == 2
    assert payload["zero_sum_subset"] == {"exists": False, "witness": None}
    assert payload["reports"][0]["index"] == [{"generator": "F(1,0;0,1)", "coeff": -1}]


def write_spectra_problem(tmp_path, spectra, deg_s1):
    path = tmp_path / "problem.json"
    payload = {"spectra": spectra, "deg_s1": deg_s1, "unique_critical_point": True}
    path.write_text(json.dumps(payload))
    return str(path)


def test_problem_without_positive_eigenvalue(tmp_path, capsys):
    # no level at all: a warning on stderr, no report, and the zero-sum
    # check skipped for the failed assumption
    spectra = [
        {"alpha": 0, "isotypic": [{"m": 0, "k": 1}, {"m": 1, "k": 1}]},
        {"alpha": "-3/2", "isotypic": [{"m": 2, "k": 1}]},
    ]
    path = write_spectra_problem(tmp_path, spectra, [{"subgroup": "Z1", "coeff": 1}])
    warning = "warning: no positive eigenvalue, the level set is empty\n"
    assert main(["classify", "--problem", path]) == 0
    assert capsys.readouterr() == (
        "classification: Alternative\nzero-sum check: skipped (assumptions not satisfied)\n",
        warning,
    )
    assert main(["classify", "--problem", path, "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps(
        {
            "classification": "Alternative",
            "reports": [],
            "zero_sum_subset": {"skipped": "skipped (assumptions not satisfied)"},
        },
        indent=2,
    ) + "\n"
    assert main(["levels", "--problem", path]) == 0
    assert capsys.readouterr() == ("", warning)
    assert main(["levels", "--problem", path, "--json"]) == 0
    assert capsys.readouterr() == ('{\n  "levels": []\n}\n', "")


def test_problem_with_zero_degree(tmp_path, capsys):
    # every level is reported, with a zero index and no certificate
    spectra = [
        {"alpha": 0, "isotypic": [{"m": 0, "k": 1}, {"m": 1, "k": 1}]},
        {"alpha": 2, "isotypic": [{"m": 0, "k": 1}]},
    ]
    path = write_spectra_problem(tmp_path, spectra, [])
    assert main(["classify", "--problem", path, "--max-k", "2"]) == 0
    assert capsys.readouterr() == (
        "classification: Alternative\n"
        "k=1 alpha=2 lambda_sq=1/2 nontrivial=no certificate=none"
        " classification=NotApplicable index=0\n"
        "k=2 alpha=2 lambda_sq=2 nontrivial=no certificate=none"
        " classification=NotApplicable index=0\n"
        "zero-sum check: skipped (assumptions not satisfied)\n",
        "",
    )
    assert main(["classify", "--problem", path, "--max-k", "2", "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps(
        {
            "classification": "Alternative",
            "reports": [
                {
                    "level": {"k": k, "alpha": 2, "lambda_sq": lambda_sq},
                    "index": [],
                    "nontrivial": False,
                    "certificate": None,
                    "classification": "NotApplicable",
                }
                for k, lambda_sq in ((1, "1/2"), (2, 2))
            ],
            "zero_sum_subset": {"skipped": "skipped (assumptions not satisfied)"},
        },
        indent=2,
    ) + "\n"
    assert main(["index", "--problem", path, "--lambda-sq", "2"]) == 0
    assert capsys.readouterr() == ("0\ncertificate: none\n", "")


def test_star_command(capsys):
    assert main(["star", "1*H(1,0)", "1*H(0,2)"]) == 0
    assert capsys.readouterr().out == "1*F(1,0;0,2)\n"
    assert main(["star", "1*T - 1*H(1,1)", "1*T"]) == 0
    assert capsys.readouterr().out == "1*T - 1*H(1,1)\n"
    assert main(["star", "1*H(1,0)", "1*H(2,0)"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_star_json(capsys):
    assert main(["star", "--json", "2*H(1,1)", "1*H(-1,1)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "product": [{"generator": "F(2,0;1,1)", "coeff": 2}],
        "text": "2*F(2,0;1,1)",
    }


def test_star_parse_error_shows_caret(capsys):
    assert main(["star", "1*T +", "1*T"]) == 2
    err = capsys.readouterr().err
    assert "at position 5" in err
    assert "^" in err
    # the failing factor is the one echoed, with its own caret
    assert main(["star", "1*T", "H(1,"]) == 2
    assert capsys.readouterr() == ("", "error: expected an integer at position 4\n  H(1,\n      ^\n")


@pytest.mark.parametrize(
    "factor, position",
    [("H(\u0661,0)", 2), ("H(\u00b2,0)", 2), ("2*H(1,\u0663)", 6)],
)
def test_star_refuses_non_ascii_digits(capsys, factor, position):
    # `H(١,0)` once multiplied as H(1,0), and `H(²,0)` ended in int()'s
    # own message; each is a parse error with a caret under the digit
    assert main(["star", factor, "T"]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: expected an integer at position {position}\n  {factor}\n  {' ' * position}^\n",
    )


@pytest.mark.parametrize("option", ["--k", "--max-k"])
@pytest.mark.parametrize("value", [" 1_0 ", "1_0", "\u0661", "1\n", " 1", "\uff12"])
def test_integer_options_are_ascii_digits(example_path, capsys, option, value):
    # int() reads each of these values (as 10, 1 or 2)
    command = "index" if option == "--k" else "levels"
    extra = ["--alpha", "2"] if command == "index" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", example_path, option, value, *extra])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: torbif {command} ")
    assert error == f"torbif {command}: error: argument {option}: expected an integer, got {value!r}"


@pytest.mark.parametrize(
    "field, value",
    [("subgroup", "Z1\u0661"), ("subgroup", "Z1\n"), ("alpha", "\u0662\n"), ("alpha", "\u0663/\u0662")],
)
def test_problem_integers_are_ascii_digits(tmp_path, capsys, field, value):
    payload = json.loads(torbif.problem_to_text(example_problem()))
    if field == "alpha":
        payload["spectra"][1]["alpha"] = value
    else:
        payload["deg_s1"] = [{"subgroup": value, "coeff": 1}]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    for argv in (["levels"], ["classify"], ["index", "--k", "1", "--alpha", "2"]):
        assert main([argv[0], "--problem", str(path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(value) in err


def test_star_factor_may_start_with_minus(capsys):
    assert main(["star", "-1*T", "1*T"]) == 0
    assert capsys.readouterr().out == "-1*T\n"
    assert main(["star", "1*H(1,0)", "-2*H(0,1)"]) == 0
    assert capsys.readouterr().out == "-2*F(1,0;0,1)\n"
    # an unknown --flag is still a usage error
    with pytest.raises(SystemExit) as exc:
        main(["star", "--negate", "1*T", "1*T"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[1] == "torbif star: error: unrecognized arguments: --negate"


def test_max_k_must_be_positive(example_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["levels", "--problem", example_path, "--max-k", "0"])
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: torbif levels ")
    assert error == "torbif levels: error: argument --max-k: expected a positive integer, got 0"


def test_level_count_is_bounded(example_path, capsys, monkeypatch):
    # the worked example has one positive eigenvalue, so --max-k N asks for
    # N levels; the bound is read from the module, never reached by a huge run
    monkeypatch.setattr(torbif.spectral, "_MAX_LEVELS", 4)
    assert main(["levels", "--problem", example_path, "--max-k", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    for command in ("levels", "classify"):
        assert main([command, "--problem", example_path, "--max-k", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: max_k 5 over 1 positive eigenvalue(s) asks for 5 levels, more than the limit of 4\n"
        )
    with pytest.raises(ValueError):
        lambda_set(example_problem(), 5)


def test_line_products_are_bounded(tmp_path, capsys, monkeypatch):
    # alpha 1 with a trivial part and speed 1, deg_s1 = 1*S1: the index at
    # --k K --alpha 1 needs 8K - 8 line products; the bound is read from the
    # module, never reached by a huge run
    problem = CriticalPointProblem(
        spectra=(SpectralDatum(1, S1Representation(trivial=1, rotating={1: 1})),),
        deg_s1=EulerElementS1(fixed=1),
    )
    path = tmp_path / "rotating.json"
    write_problem(problem, path)
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 80)
    assert main(["index", "--problem", str(path), "--k", "11", "--alpha", "1"]) == 0
    capsys.readouterr()
    assert main(["index", "--problem", str(path), "--k", "12", "--alpha", "1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the index at lambda_sq = 144 needs 88 line products,"
        " more than the limit of 80\n",
    )
    # a run parallel to its null character makes no product at any k
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 0)
    fixed = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1))
    write_problem(fixed, path)
    assert main(["index", "--problem", str(path), "--k", "1000000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*H(0,1000000)\ncertificate: FixedCoefficientPath\n"


def test_bound_messages_spell_a_fraction_level(tmp_path, capsys, monkeypatch):
    # each bound at lambda_sq = 9/4 (--k 3 --alpha 4) ends in its exact
    # one-line message, spelled only when the bound is exceeded: alpha 4
    # with a trivial part and speed 1 has 3 null characters, 3 pairs and
    # 16 index products; with speeds 1 and 2 it has 4 characters, 6 pairs
    rotating = CriticalPointProblem(
        spectra=(SpectralDatum(4, S1Representation(trivial=1, rotating={1: 1})),),
        deg_s1=EulerElementS1(fixed=1),
    )
    speeds = CriticalPointProblem(
        spectra=(SpectralDatum(4, S1Representation(rotating={1: 1, 2: 1})),),
        deg_s1=EulerElementS1.cyclic(1),
    )
    cases = (
        (rotating, 15, "the index at lambda_sq = 9/4 needs 16 line products, more than the limit of 15"),
        (
            speeds,
            5,
            "the degree on the null modes at lambda_sq = 9/4 needs 6 line products for 4 characters,"
            " more than the limit of 5",
        ),
    )
    path = tmp_path / "fraction.json"
    for problem, limit, message in cases:
        write_problem(problem, path)
        monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", limit + 1)
        assert main(["index", "--problem", str(path), "--k", "3", "--alpha", "4"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", limit)
        for address in (["--k", "3", "--alpha", "4"], ["--lambda-sq", "9/4"]):
            assert main(["index", "--problem", str(path), *address]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_star_line_products_are_bounded(capsys, monkeypatch):
    # 3 lines times 2 lines make 6 line products, counted before any is
    # made; the T term adds none, and the bound is read from the module,
    # never reached by a huge run
    lhs, rhs = "1*T + 1*H(1,0) + 1*H(1,1) + 1*H(1,2)", "1*H(0,1) - 1*H(2,1)"
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 6)
    assert main(["star", lhs, rhs]) == 0
    assert capsys.readouterr().out.startswith("1*H(0,1) - 1*H(2,1) + ")
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 5)

    def refuse(self, other):
        raise AssertionError("star was called")

    monkeypatch.setattr(EulerElementT2, "star", refuse)
    for json_flag in ([], ["--json"]):
        assert main(["star", *json_flag, lhs, rhs]) == 2
        assert capsys.readouterr() == (
            "",
            "error: the product of 3 and 2 line terms needs 6 line products,"
            " more than the limit of 5\n",
        )


def test_star_bound_counts_only_non_parallel_pairs(capsys, monkeypatch):
    # parallel lines multiply to zero and `star` never pairs them: lines of
    # the directions (0, 1) and (1, 1) on each side make 2 line products of
    # 4 pairs, and all-parallel factors make none, even under a bound of 0
    lhs, rhs = "1*H(0,1) + 1*H(1,1)", "1*H(0,2) + 1*H(2,2)"
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 2)
    assert main(["star", lhs, rhs]) == 0
    assert capsys.readouterr().out == "1*F(2,0;0,1) + 1*F(2,0;1,1)\n"
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 1)
    assert main(["star", lhs, rhs]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the product of 2 and 2 line terms needs 2 line products, more than the limit of 1\n",
    )
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 0)
    parallel = [" + ".join(f"H(0,{n})" for n in range(1, 1 + count)) for count in (1001, 1000)]
    assert main(["star", *parallel]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_null_mode_pairs_are_bounded(tmp_path, capsys, monkeypatch):
    # alpha 1 with speeds 1 and 2, deg_s1 = 1*Z1: at --k 1 the null modes
    # have the 4 characters (+-1, 1) and (+-2, 1), whose degree multiplies
    # 4 * 3 / 2 unordered pairs; over the bound, read from the module, the
    # degree is never formed
    problem = CriticalPointProblem(
        spectra=(SpectralDatum(1, S1Representation(rotating={1: 1, 2: 1})),),
        deg_s1=EulerElementS1.cyclic(1),
    )
    path = tmp_path / "speeds.json"
    write_problem(problem, path)
    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 6)
    assert main(["index", "--problem", str(path), "--k", "1", "--alpha", "1"]) == 0
    capsys.readouterr()

    def refuse(rep):
        raise AssertionError("deg_minus_id_t2 was called")

    monkeypatch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", 5)
    monkeypatch.setattr(torbif.bifurcation, "deg_minus_id_t2", refuse)
    for command in (["index", "--k", "1", "--alpha", "1"], ["classify", "--max-k", "1"]):
        assert main([command[0], "--problem", str(path)] + command[1:]) == 2
        assert capsys.readouterr() == (
            "",
            "error: the degree on the null modes at lambda_sq = 1 needs 6 line"
            " products for 4 characters, more than the limit of 5\n",
        )


def test_problem_files_are_read_up_to_a_byte_limit(example_path, capsys, monkeypatch):
    # the limit is read from the module: a valid file of exactly that many
    # bytes loads, and one byte more exits 2 before any of it is decoded,
    # so a bad byte past the limit is never reached; a file that is not
    # UTF-8 exits 2 with one line as well
    path = Path(example_path)
    text = path.read_bytes()
    limit = len(text) + 10
    monkeypatch.setattr(torbif.problem_io, "_MAX_PROBLEM_BYTES", limit)
    path.write_bytes(text + b" " * 10)
    assert main(["levels", "--problem", example_path, "--max-k", "1"]) == 0
    assert capsys.readouterr().out.startswith("k=1 alpha=2 ")
    path.write_bytes(text + b" " * 10 + b"\xff")
    assert main(["levels", "--problem", example_path, "--max-k", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {example_path} is longer than the limit of {limit} bytes\n")
    path.write_bytes(b"\xff" + text)
    assert main(["levels", "--problem", example_path, "--max-k", "1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
    )


def test_byte_limit_holds_across_read_chunks(example_path, capsys, monkeypatch):
    # a limit above one read chunk: the count runs over every chunk, so a
    # valid file padded with CRLF line ends to exactly the limit loads and
    # one byte more exits 2
    path = Path(example_path)
    text = path.read_bytes().replace(b"\n", b"\r\n")
    limit = 100_000
    assert limit > 1 << 16
    monkeypatch.setattr(torbif.problem_io, "_MAX_PROBLEM_BYTES", limit)
    path.write_bytes(text + b" " * (limit - len(text)))
    assert main(["levels", "--problem", example_path, "--max-k", "1"]) == 0
    assert capsys.readouterr().out.startswith("k=1 alpha=2 ")
    path.write_bytes(text + b" " * (limit - len(text) + 1))
    assert main(["levels", "--problem", example_path, "--max-k", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {example_path} is longer than the limit of {limit} bytes\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_problem_file_exits_2():
    # /dev/zero never ends, so the read stops one byte past the limit, here
    # 4096; the child runs under a 1 GiB address-space cap, so a read
    # without a limit fails in the child instead of filling the host
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    script = (
        "import sys, torbif.problem_io\n"
        "torbif.problem_io._MAX_PROBLEM_BYTES = 4096\n"
        "from torbif.cli import main\n"
        "sys.exit(main(['levels', '--problem', '/dev/zero']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=module_env(), preexec_fn=cap, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        2,
        "",
        "error: /dev/zero is longer than the limit of 4096 bytes\n",
    )


DIGITS = torbif.rationals._MAX_DIGITS
LONG, OVER = str(10 ** (DIGITS - 1)), str(10**DIGITS)
OVER_MESSAGE = f"an integer of {DIGITS + 1} digits is over the limit of {DIGITS}"


def test_output_integers_stay_printable():
    # an output integer is at most a product of three input integers plus
    # small sums, under Python's limit on int-to-str conversion
    assert 3 * DIGITS + 100 < sys.int_info.default_max_str_digits


def long_int_problem(over=None):
    """A problem whose every integer that may be long has the most digits
    accepted, or one digit more for the one named `over`; its index
    multiplies the full-orbit coefficient by two null-mode multiplicities."""
    def num(name):
        return int(OVER if name == over else LONG)

    return {
        "spectra": [
            {"alpha": 0, "isotypic": [{"m": 0, "k": 1}, {"m": 1, "k": 1}]},
            {
                "alpha": f"{2 * num('p')}/{num('q')}",
                "isotypic": [{"m": 0, "k": num("k")}, {"m": num("m"), "k": num("k")}],
            },
        ],
        "deg_s1": [{"subgroup": "S1", "coeff": num("coeff")}, {"subgroup": f"Z{num('order')}", "coeff": -1}],
        "unique_critical_point": True,
    }


@pytest.mark.parametrize("command", ["index", "classify"])
def test_problem_integers_at_the_digit_limit_print(tmp_path, capsys, command):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_int_problem()))
    level = ["--k", "2", "--alpha", "2"] if command == "index" else ["--max-k", "1"]
    assert main([command, "--problem", str(path), *level]) == 0
    out = capsys.readouterr().out
    k = 2 if command == "index" else 1
    index = build_report(parse_problem(path.read_text()), BifurcationLevel(k, 2)).index
    assert format_element(index) in out
    assert max(map(len, re.findall(r"\d+", out))) > 2 * DIGITS


@pytest.mark.parametrize("over", ["k", "m", "p", "q", "coeff", "order"])
@pytest.mark.parametrize("command", ["index", "classify"])
def test_problem_integers_over_the_digit_limit_are_refused(tmp_path, capsys, command, over):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(long_int_problem(over)))
    level = ["--k", "2", "--alpha", "2"] if command == "index" else []
    assert main([command, "--problem", str(path), *level]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith(f"{OVER_MESSAGE}\n")
    assert err.count("\n") == 1


def test_argument_integers_at_the_digit_limit_print(example_path, capsys):
    two = ("2" + LONG[1:], LONG)
    for level in (["--k", "2", "--alpha", "/".join(two)], ["--lambda-sq", "/".join(two)]):
        assert main(["index", "--problem", example_path, *level]) == 0
        assert capsys.readouterr().out == "-1*F(1,0;0,2)\ncertificate: SameSignPath\n"
    assert main(["index", "--problem", example_path, "--k", LONG, "--alpha", "2"]) == 0
    assert capsys.readouterr().out == f"-1*F(1,0;0,{LONG})\ncertificate: SameSignPath\n"
    assert main(["star", f"{LONG}*T", f"-{LONG}*T"]) == 0
    assert capsys.readouterr().out == f"-{LONG}{LONG[1:]}*T\n"


def test_argument_integers_over_the_digit_limit_are_refused(example_path, capsys):
    for argv in (
        ["index", "--problem", example_path, "--k", "2", "--alpha", f"2/{OVER}"],
        ["index", "--problem", example_path, "--lambda-sq", f"{OVER}/3"],
        ["star", "T", f"H(1,{OVER})"],
        ["star", f"-{OVER}*T", "T"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {OVER_MESSAGE}\n")
    # an integer option reads its value as it parses the command line
    for command, option in (("index", "--k"), ("levels", "--max-k")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", example_path, option, OVER])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[1] == f"torbif {command}: error: argument {option}: {OVER_MESSAGE}"


@pytest.mark.parametrize("command", [None, *torbif.cli._COMMANDS])
def test_help_lists_the_table(command):
    argv = [sys.executable, "-m", "torbif", *filter(None, [command]), "--help"]
    result = subprocess.run(argv, capture_output=True, text=True, env=module_env())
    assert result.returncode == 0
    assert result.stderr == ""
    if command is None:
        lines = [f"{name} {spec.help}" for name, spec in torbif.cli._COMMANDS.items()]
    else:
        spec = torbif.cli._COMMANDS[command]
        lines = [f"{metavar} {text}" for _, metavar, text in spec.positionals]
        lines += [" ".join(filter(None, (option.flag, option.metavar, option.help))) for option in spec.options]
    listed = {" ".join(line.split()) for line in result.stdout.splitlines()}
    for line in lines:
        assert any(line in entry for entry in listed), line


def test_cli_import_leaves_argparse_out(example_path):
    # a request pays for no argparse, gettext or locale import
    script = (
        "import sys, torbif.cli\n"
        f"code = torbif.cli.main(['index', '--problem', {example_path!r}, '--k', '1', '--alpha', '2'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=module_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


def test_outputs_are_deterministic(example_path, capsys):
    runs = []
    for _ in range(2):
        assert main(["classify", "--problem", example_path, "--max-k", "3", "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_module_entry_point(tmp_path):
    path = tmp_path / "prob.json"
    written = subprocess.run(
        [sys.executable, "-m", "torbif", "example", str(path)],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert written.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "torbif", "index", "--problem", str(path), "--k", "1", "--alpha", "2"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "-1*F(1,0;0,1)\ncertificate: SameSignPath\n"


def test_closed_stdout_exits_quietly(example_path):
    # 3000 level lines overflow the pipe buffer, so the writer is still
    # printing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "torbif", "levels", "--problem", example_path, "--max-k", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(),
    )
    assert proc.stdout.readline().startswith(b"k=1 ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def flipped_line(rep):
    # the true degree of minus-identity with its first one-dimensional
    # coefficient negated
    degree = deg_minus_id_t2(rep)
    h, c = next(term for term in degree.terms if term[0].dim == 1)
    return degree - EulerElementT2(((h, 2 * c),))


@pytest.mark.parametrize(
    "deg_s1, fault",
    [
        (EulerElementS1(fixed=1), flipped_line),
        (EulerElementS1.cyclic(1), flipped_line),
        (EulerElementS1(fixed=1), lambda rep: 2 * EulerElementT2.identity()),
    ],
    ids=["fixed-coefficient-flip", "same-sign-flip", "two-t"],
)
def test_index_breaking_phi_is_an_internal_error(tmp_path, capsys, monkeypatch, deg_s1, fault):
    # a wrong degree of minus-identity on the null modes gives an index whose
    # one-signed functional, phi for n0 != 0 and phi_i for n0 == 0, is not
    # -n0 or -c_i times the null-mode multiplicity
    problem = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=deg_s1)
    path = tmp_path / "problem.json"
    write_problem(problem, path)
    monkeypatch.setattr(torbif.bifurcation, "deg_minus_id_t2", fault)
    assert main(["index", "--problem", str(path), "--k", "1", "--alpha", "2"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: certificate path disagrees with direct evaluation\n"


def test_same_sign_certificate_is_checked_against_the_index(example_path, capsys, monkeypatch):
    # with the closed form for the product of two lines stubbed to vanish,
    # in its pair form for star, its run form and its form against a class
    # H(i,0) for the index, the worked example's index is zero although its
    # certificate says not
    def vanishing_product(ch1, ch2):
        return None

    def vanishing_products(acc, a, b, c, runs, g):
        return None

    def vanishing_cyclic_products(acc, a, b, c, finite):
        return None

    monkeypatch.setattr(torbif.euler, "_generator_product", vanishing_product)
    monkeypatch.setattr(torbif.bifurcation, "_line_products", vanishing_products)
    monkeypatch.setattr(torbif.bifurcation, "_cyclic_products", vanishing_cyclic_products)
    assert main(["index", "--problem", example_path, "--k", "1", "--alpha", "2"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: certificate path disagrees with direct evaluation\n"


def counting_line_products(monkeypatch):
    """Count every line product made, one pair at a time by `star`, or
    by `build_report` as the keys it writes: run by run, where each
    (null character, n) pair of a run writes two, its own and its
    mirror's, and in closed form, one per null character and class of D1.
    Count every entry of the index's gcd table too.  Returns a function
    that reads the counts made since its last call.  `star` makes the
    product of two non-parallel lines of one mode in closed form, counted
    here from its operands, and every other product of non-parallel lines
    through the `_generator_product` cache, counted as that cache's
    misses; the cache is cleared here and at each read, so a lookup that
    makes nothing is not counted."""
    counts = Counter()
    line_products = torbif.bifurcation._line_products
    cyclic_products = torbif.bifurcation._cyclic_products
    xgcd = torbif.bifurcation._xgcd
    star = EulerElementT2.star

    def lines(element):
        return [key[1:] for key, _ in element._terms if key[0] == 1]

    def counted_star(self, other):
        pairs = cross_direction_pairs(lines(self), None if other is self else lines(other))
        counts["line_product"] += sum(1 for (_, b), (_, n) in pairs if b == n)
        return star(self, other)

    def read():
        made = counts + Counter(line_product=_generator_product.cache_info().misses)
        counts.clear()
        _generator_product.cache_clear()
        return made

    def counted_products(acc, a, b, c, runs, g):
        counts["line_product"] += 2 * sum(hi - lo for _, lo, hi, _ in runs)
        return line_products(acc, a, b, c, runs, g)

    def counted_cyclic_products(acc, a, b, c, finite):
        counts["line_product"] += len(finite)
        return cyclic_products(acc, a, b, c, finite)

    def counted_xgcd(b, n):
        counts["gcd_table"] += 1
        return xgcd(b, n)

    monkeypatch.setattr(torbif.bifurcation, "_line_products", counted_products)
    monkeypatch.setattr(torbif.bifurcation, "_cyclic_products", counted_cyclic_products)
    monkeypatch.setattr(torbif.bifurcation, "_xgcd", counted_xgcd)
    monkeypatch.setattr(EulerElementT2, "star", counted_star)
    _generator_product.cache_clear()
    return read


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_line_product_bound_is_exact(seed):
    # the bound counts exactly the keys that the index writes, two for each
    # (null character, n) pair that the loop visits and one for each null
    # character and class of D1: with the limit at that count the level is
    # formed, and one below it the request exits 2 naming the count, unless
    # the pairs of non-parallel null characters in their degree are over the
    # limit first
    rng = random.Random(seed)
    problem = random_problem(rng)
    level = rng.choice(lambda_set(problem, 4))
    pairs = len(cross_direction_pairs([ch for ch, _ in torbif.resonant_space(problem, level).characters]))
    line_products = torbif.bifurcation._line_products
    cyclic_products = torbif.bifurcation._cyclic_products
    visited = []

    def counted(acc, a, b, c, runs, g):
        visited.append(2 * sum(hi - lo for _, lo, hi, _ in runs))
        return line_products(acc, a, b, c, runs, g)

    def counted_cyclic(acc, a, b, c, finite):
        visited.append(len(finite))
        return cyclic_products(acc, a, b, c, finite)

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "problem.json")
        write_problem(problem, path)
        argv = ["index", "--problem", path, "--k", str(level.k), "--alpha", str(level.alpha)]
        patch.setattr(torbif.bifurcation, "_line_products", counted)
        patch.setattr(torbif.bifurcation, "_cyclic_products", counted_cyclic)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0
            count = sum(visited)
            patch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", max(count, pairs))
            assert main(argv) == 0
            patch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", count - 1)
            assert main(argv) == 2
    assert out.getvalue().count("certificate: ") == 2
    if pairs <= count - 1:
        assert err.getvalue().endswith(
            f"error: the index at lambda_sq = {level.lambda_sq} needs {count} line"
            f" products, more than the limit of {count - 1}\n"
        )


def test_harmonic_index_cost_is_linear_in_k(example_path, tmp_path, capsys, monkeypatch):
    # deterministic counters, not timings: neither degree here has a
    # full-orbit term, so neither index meets a character below the level;
    # the line products are the unordered pairs of non-parallel null
    # characters in the degree on the null modes and one per null character
    # and class of D1, both in closed form, so no gcd table is made
    counts = counting_line_products(monkeypatch)
    assert main(["index", "--problem", example_path, "--k", "6400", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,6400)\ncertificate: SameSignPath\n"
    # one null character: no pair in its degree, one product with H(1,0)
    assert counts() == Counter(line_product=1, gcd_table=0)
    problem = CriticalPointProblem(
        spectra=(SpectralDatum(1, S1Representation(trivial=1, rotating={1: 1, 2: 1})),),
        deg_s1=EulerElementS1.cyclic(1),
        unique_critical_point=True,
    )
    path = tmp_path / "rotating.json"
    write_problem(problem, path)
    assert main(["index", "--problem", str(path), "--k", "250", "--alpha", "1"]) == 0
    assert capsys.readouterr().out == "-5*F(1,0;0,250)\ncertificate: SameSignPath\n"
    # 5 null characters of mode 250, no two parallel: 5 * 4 / 2 unordered
    # pairs and 5 products with H(1,0), not one per character of the 249
    # modes below the level
    assert counts() == Counter(line_product=5 * 4 // 2 + 5, gcd_table=0)


def test_requests_build_no_subgroup(example_path, tmp_path, capsys):
    # ring elements keep keys, and subgroups are built only for callers that
    # read an element's terms, so no request touches the intern cache; both
    # certificate paths, the zero-sum check and --json are covered
    rich = CriticalPointProblem(
        spectra=(
            SpectralDatum(2, S1Representation(trivial=1, rotating={1: 2})),
            SpectralDatum(3, S1Representation(rotating={2: 1})),
        ),
        deg_s1=EulerElementS1(1, {2: -1}),
        unique_critical_point=True,
    )
    rich_path = tmp_path / "rich.json"
    write_problem(rich, rich_path)
    _interned.cache_clear()
    for path in (example_path, str(rich_path)):
        for json_flag in ([], ["--json"]):
            assert main(["classify", *json_flag, "--problem", path, "--max-k", "6"]) == 0
            assert main(["index", *json_flag, "--problem", path, "--k", "5", "--alpha", "2"]) == 0
    assert capsys.readouterr().out
    info = _interned.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_index_requests_compare_and_hash_no_fraction(tmp_path, capsys, monkeypatch):
    # a fresh interpreter pays an abstract base class check at its first
    # Fraction comparison, so an index request, from reading the problem to
    # printing the report, signs, sorts and deduplicates its rationals by
    # their integers; both ways of naming the level and --json are covered
    problem = CriticalPointProblem(
        spectra=(
            SpectralDatum(Fraction(3, 2), S1Representation(trivial=2, rotating={1: 1})),
            SpectralDatum(0, S1Representation(trivial=1, rotating={1: 1})),
        ),
        deg_s1=EulerElementS1(1, {2: -1}),
        unique_critical_point=True,
    )
    path = str(tmp_path / "problem.json")
    write_problem(problem, path)
    calls = Counter()
    for name in ("_richcmp", "__eq__", "__hash__"):
        original = getattr(Fraction, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(Fraction, name, counting)
    for json_flag in ([], ["--json"]):
        for level in (["--k", "4", "--alpha", "3/2"], ["--lambda-sq", "32/3"]):
            assert main(["index", *json_flag, "--problem", path, *level]) == 0
    monkeypatch.undo()
    assert calls == Counter()
    out = capsys.readouterr().out
    assert out.count("certificate: FixedCoefficientPath\n") == 2
    assert out.count('"lambda_sq": "32/3"') == 2


def test_star_builds_no_subgroup(capsys):
    # the parser canonicalizes each generator to a key, so multiplying two
    # factors of 300 lines each, none parallel to a line of the other,
    # builds no subgroup either
    lhs = " + ".join(f"1*H(1,{n})" for n in range(1, 301))
    rhs = " + ".join(f"1*H({-n},1)" for n in range(1, 301))
    _interned.cache_clear()
    assert main(["star", lhs, rhs]) == 0
    assert capsys.readouterr().out.count("*F(") == 300 * 300
    info = _interned.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_caches_stay_bounded(example_path, capsys):
    _generator_product.cache_clear()
    _interned.cache_clear()
    assert main(["index", "--problem", example_path, "--k", "25600", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,25600)\ncertificate: SameSignPath\n"
    # the index makes few generator products, so fill that cache with a
    # product of two sums of 200 lines each, no line of one parallel to a
    # line of the other: 40,000 distinct pairs, each of dimension 1 + 1;
    # reading the product's terms builds each of their subgroups once
    left = EulerElementT2((TorusSubgroup.kernel(1, n), 1) for n in range(1, 201))
    right = EulerElementT2((TorusSubgroup.kernel(-n, 1), 1) for n in range(1, 201))
    assert len(tuple(left.star(right).terms)) > 0
    for cache in (_generator_product, _interned):
        info = cache.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


def counting_calls(monkeypatch, name):
    """Record the arguments after `self` of every call to the walk's
    method `name`."""
    calls = []
    original = getattr(_Walk, name)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_Walk, name, counting)
    return calls


def test_one_index_evaluation_per_level(example_path, tmp_path, capsys, monkeypatch):
    calls = counting_calls(monkeypatch, "resonant")
    assert main(["classify", "--problem", example_path, "--max-k", "3"]) == 0
    assert len(calls) == 3
    calls.clear()
    assert main(["index", "--problem", example_path, "--k", "2", "--alpha", "2"]) == 0
    assert len(calls) == 1
    # a full-orbit degree needs the runs below each level, asked for once
    # per level; the null characters (0, n) meet no run of speed 0
    problem = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1))
    path = tmp_path / "fixed.json"
    write_problem(problem, path)
    below = counting_calls(monkeypatch, "runs")
    assert main(["classify", "--problem", str(path), "--max-k", "3"]) == 0
    assert [speeds for _, speeds, _ in below] == [[]] * 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "deg_s1, per_level",
    [(EulerElementS1.cyclic(1), 1), (EulerElementS1(fixed=1), 1)],
    ids=["worked-example", "full-orbit"],
)
def test_star_calls_per_level(tmp_path, capsys, monkeypatch, deg_s1, per_level):
    # deterministic counts, not timings: the one star is B1r * B1r in the
    # degree on the null modes; the products of its lines with D1 and with
    # the runs below the level go straight to the line product
    problem = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=deg_s1)
    path = tmp_path / "problem.json"
    write_problem(problem, path)
    star = EulerElementT2.star
    calls = []

    def counting_star(self, other):
        calls.append(other)
        return star(self, other)

    monkeypatch.setattr(EulerElementT2, "star", counting_star)
    assert main(["classify", "--problem", str(path), "--max-k", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == per_level * len(lambda_set(problem, 3))


def counting_integer_tests(monkeypatch):
    """Count the eigenvalue visits of `spectral` and the modes its walk
    steps through: an eigenvalue is visited by one `isqrt` of q * alpha
    at a level, and each later mode of an eigenvalue is looked up with
    one gcd.  Returns the Counter the counts go into."""
    counts = Counter()

    def isqrt(n):
        counts["visits"] += 1
        return math.isqrt(n)

    def gcd(a, b):
        counts["modes"] += 1
        return math.gcd(a, b)

    monkeypatch.setattr(torbif.spectral, "math", SimpleNamespace(isqrt=isqrt, gcd=gcd))
    return counts


def trivial_spectrum(count, rotating=()):
    """Eigenvalues 1..count, each with a trivial line and `rotating`."""
    return tuple(SpectralDatum(a, S1Representation(trivial=1, rotating=rotating)) for a in range(1, count + 1))


def test_a_level_costs_its_null_modes_not_the_eigenvalues(tmp_path, capsys, monkeypatch):
    # deterministic counts, not timings: on eigenvalues 1..E, each a
    # trivial line, with deg_s1 = 1*S1, every null character is (0, n),
    # so no level needs a run below it, and the walk visits each
    # eigenvalue twice, for its mode at the first level and at the last,
    # whatever the number of levels; doubling E doubles the visits (a
    # scan of every eigenvalue at every level quadruples them).  In
    # between, each eigenvalue's modes are looked up one by one.
    counts = counting_integer_tests(monkeypatch)
    for count in (20, 40):
        problem = CriticalPointProblem(trivial_spectrum(count), EulerElementS1(fixed=1), True)
        path = tmp_path / f"triv_{count}.json"
        write_problem(problem, path)
        counts.clear()
        assert main(["classify", "--problem", str(path), "--max-k", "3"]) == 0
        capsys.readouterr()
        assert counts["visits"] == 2 * count
        levels = lambda_set(problem, 3)
        first, last = levels[0].lambda_sq, levels[-1].lambda_sq
        later = [n for a in range(1, count + 1) for n in range(1, 3 * count) if first * a < n * n <= last * a]
        assert counts["modes"] == len(later)
    # one level visits each eigenvalue at most once, also when the runs
    # below it are needed: here the null characters (1, n), (-1, n) meet
    # the runs of every speed
    problem = CriticalPointProblem(trivial_spectrum(10, {1: 1}), EulerElementS1(fixed=1), True)
    path = tmp_path / "rotating.json"
    write_problem(problem, path)
    counts.clear()
    assert main(["index", "--problem", str(path), "--k", "3", "--alpha", "2"]) == 0
    assert capsys.readouterr().out.endswith("certificate: FixedCoefficientPath\n")
    assert counts == {"visits": 10}


def test_index_without_full_orbit_term_ignores_the_space_below(example_path, capsys, monkeypatch):
    # the worked example's degree has no S1 term, so its index needs no
    # classes below the level: the cost does not depend on k
    below = counting_calls(monkeypatch, "runs")
    counts = counting_line_products(monkeypatch)
    assert main(["index", "--problem", example_path, "--k", "400000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,400000)\ncertificate: SameSignPath\n"
    assert below == []
    made = counts()
    assert made["line_product"] < 10
    assert made["gcd_table"] == 0


def test_full_orbit_index_cost_does_not_grow_with_k(tmp_path, capsys, monkeypatch):
    # deterministic counts, not timings: with deg_s1 = 1*S1 the only run
    # below the level is the trivial one, parallel to the null character
    # (0, k), so it is never built and needs no gcd; the one null
    # character has no pair in the degree on the null modes, so the level
    # makes no line product
    problem = CriticalPointProblem(
        spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1), unique_critical_point=True
    )
    path = tmp_path / "fixed.json"
    write_problem(problem, path)

    def refuse(problem, level):
        raise AssertionError("negative_space was called")

    for module in (torbif, torbif.spectral, torbif.bifurcation):
        monkeypatch.setattr(module, "negative_space", refuse, raising=False)
    runs = _Walk.runs
    named = []

    def recording(self, q, speeds, counts):
        named.extend(runs(self, q, speeds, counts))
        return named

    monkeypatch.setattr(_Walk, "runs", recording)
    counts = counting_line_products(monkeypatch)
    assert main(["index", "--problem", str(path), "--k", "1000000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*H(0,1000000)\ncertificate: FixedCoefficientPath\n"
    assert named == []
    made = counts()
    assert made["line_product"] == 0
    assert made["gcd_table"] == 0


def test_classify_above_zero_sum_limit_stays_alternative(tmp_path, capsys):
    # mixed-sign degree with a unique critical point: Alternative, and at
    # 21 levels the zero-sum search (anchored or global) is not attempted
    problem = CriticalPointProblem(
        spectra=example_problem().spectra,
        deg_s1=EulerElementS1(0, {1: 1, 2: -1}),
        unique_critical_point=True,
    )
    path = tmp_path / "mixed.json"
    write_problem(problem, path)
    assert main(["classify", "--problem", str(path), "--max-k", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "classification: Alternative"
    assert len(lines) == 23
    assert all(" classification=Alternative " in line for line in lines[1:22])
    assert lines[22] == "zero-sum check: skipped (more than 20 levels)"


def test_zero_sum_search_adds_once_per_level(example_path, capsys, monkeypatch):
    # every index of the worked example has a generator no later index can
    # cancel, so the pruned search forms one partial sum per level
    adds = []
    searching = []
    add = EulerElementT2.__add__
    search = torbif.cli.any_zero_sum_subset

    def counting_add(self, other):
        if searching:
            adds.append(other)
        return add(self, other)

    def flagged_search(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.clear()

    monkeypatch.setattr(EulerElementT2, "__add__", counting_add)
    monkeypatch.setattr(torbif.cli, "any_zero_sum_subset", flagged_search)
    assert main(["classify", "--problem", example_path, "--max-k", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 22
    assert lines[-1] == "zero-sum subsets among computed levels: none"
    assert len(adds) == 20


def test_dense_classify_ring_layer_counts(tmp_path, capsys, monkeypatch):
    # deterministic counters on a dense problem with a full-orbit degree:
    # a product of two lines has a closed form and T * x needs no product,
    # so no lattice normal form and no intersection runs
    problem = CriticalPointProblem(
        spectra=tuple(
            SpectralDatum(alpha, S1Representation(trivial=1, rotating=speeds))
            for alpha, speeds in ((2, {1: 1, 4: 1}), (4, {3: 1, 4: 1}), (6, {3: 1, 4: 1}))
        ),
        deg_s1=EulerElementS1(fixed=-2),
        unique_critical_point=True,
    )
    path = tmp_path / "dense.json"
    write_problem(problem, path)
    counts = Counter()
    canonical_rows = torbif.subgroups._canonical_rows
    intersect = TorusSubgroup.intersect
    from_keys = torbif.euler._from_keys

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(torbif.subgroups, "_canonical_rows", counting("canonical_rows", canonical_rows))
    monkeypatch.setattr(TorusSubgroup, "intersect", counting("intersect", intersect))
    # every element, the public constructor's too, is built by `_from_keys`
    counted_build = counting("build", from_keys)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("torbif") and getattr(module, "_from_keys", None) is from_keys:
            monkeypatch.setattr(module, "_from_keys", counted_build)
    _interned.cache_clear()
    _generator_product.cache_clear()
    assert main(["classify", "--problem", str(path), "--max-k", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "classification: NonCompactGuaranteed(c1)"
    assert len(lines) == 23
    assert counts["canonical_rows"] == 0
    assert counts["intersect"] == 0
    # the pairwise product through intersections, with a separate negation
    # in every subtraction, built 336 elements here (and ran 1,912
    # intersections and normal forms); now each of the 21 levels builds
    # three: B1, B1 * B1 and the index, while the degree on the null modes
    # lays those parts end to end in grade order with no build of its own
    assert counts["build"] == 3 * 21


COMMANDS = ("levels", "index", "classify", "star", "example")
FLAGS = ("--json", "--problem", "--max-k", "--k", "--alpha", "--lambda-sq", "--help")
PARSED_FIELDS = ("handler", "json", "problem", "max_k", "k", "alpha", "lambda_sq", "lhs", "rhs", "out")
VALUES = (
    "-3", "0", "7", "+2", "99999999999999999999", "9" * 5000, "1e3", "abc", "-1e3",
    "3/2", "-3/2", "1/0", "p.json", "1*T", "-1*T", "-", "", "a b", "--", "extra",
)


def spellings(flag):
    """`flag` and its prefixes that name it alone among all flags."""
    others = [other for other in FLAGS if other != flag]
    return [flag[:n] for n in range(3, len(flag) + 1) if not any(other.startswith(flag[:n]) for other in others)]


def parse_outcome(parse, argv):
    """("ok", the parsed fields) or ("exit", code, stderr) for one argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as exc:
        return ("exit", exc.code, err.getvalue())
    return ("ok", {name: getattr(args, name, None) for name in PARSED_FIELDS})


@st.composite
def argvs(draw):
    """A command (or a stray word in its place), then option-value pairs,
    `--flag=value` tokens, lone flags and lone words, in half the argvs
    `--problem p.json`, and now and then `-h` or a prefix of `--help`."""
    flag = st.sampled_from(FLAGS[:-1]).flatmap(lambda flag: st.sampled_from(spellings(flag)))
    value = st.sampled_from(VALUES) | st.integers(-(10**30), 10**30).map(str)
    pair = st.tuples(flag, value)
    group = st.one_of(
        pair.map(list),
        pair.map(list),
        pair.map(list),
        pair.map(lambda pair: ["=".join(pair)]),
        flag.map(lambda token: [token]),
        value.map(lambda token: [token]),
    )
    groups = draw(st.lists(group, max_size=5))
    if draw(st.booleans()):
        # the one required option, so that more argvs parse
        groups.insert(draw(st.integers(0, len(groups))), ["--problem", "p.json"])
    argv = [draw(st.sampled_from(COMMANDS * 4 + ("lev", "bogus", "--", "-x", "--json")))]
    argv += [token for tokens in groups for token in tokens]
    if draw(st.sampled_from(range(10))) == 9:
        help_flag = draw(st.sampled_from(["-h", *spellings("--help")]))
        argv.insert(draw(st.integers(0, len(argv))), help_flag)
    return argv


def int_reads(value):
    """Whether int() reads `value`, as argparse's `type=int` did."""
    try:
        int(value)
    except ValueError:
        return False
    return True


def deliberate_difference(argv, reference, outcome):
    """The three ways this parser parts from argparse on purpose.  A word
    that starts with a single `-`, such as the factor `-1*T`, is a
    positional here, where argparse took it for an unknown option and
    exited 2.  A lone `--` given as a value (`--problem=--`) or after the
    first `--` is that string here, where argparse dropped it and stored an
    empty list, unconverted, on which a handler raised a TypeError.  The
    value of an integer option (`--k`, `--max-k`) is an optional sign and
    ASCII digits here, so one that int() reads only through other scripts'
    digits, underscores or surrounding whitespace (`--k ١`, `--k 1_0`,
    `--k " 1"`) exits 2 here, where argparse took it as a number."""
    if argv.count("--") > 1 or any(token.endswith("=--") for token in argv):
        return True
    if outcome[:2] == ("exit", 2) and reference[0] == "ok":
        refused = re.search(r"error: argument --(?:max-)?k: expected an integer, got (.*)\n\Z", outcome[2])
        if refused is None:
            return False
        value = ast.literal_eval(refused[1])
        return int_reads(value) and not re.fullmatch(r"[+-]?[0-9]+", value)
    return (
        outcome[0] == "ok"
        and reference[:2] == ("exit", 2)
        and any(str(outcome[1][name]).startswith("-") for name in ("lhs", "rhs", "out"))
    )


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(argv=["index", "--problem", "p.json", "--k", "\u0661"])
@example(argv=["index", "--problem", "p.json", "--k", "1_0"])
@example(argv=["index", "--problem", "p.json", "--k", " 1"])
@given(argv=argvs())
def test_parser_matches_argparse_reference(argv):
    reference = parse_outcome(lambda tokens: argparse_reference_parser().parse_args(tokens), argv)
    outcome = parse_outcome(torbif.cli._parse, argv)
    if outcome[0] == "exit" and outcome[1] == 2:
        usage, error = outcome[2].splitlines()
        assert usage.startswith("usage: torbif ")
        assert error.startswith(("torbif: error: ", f"torbif {argv[0]}: error: "))
    if deliberate_difference(argv, reference, outcome):
        return
    assert outcome[:2] == reference[:2], argv


# words near argparse's negative-number pattern: a sign, ASCII and other
# decimal digits, a superscript (a digit but not a decimal), points,
# newlines and spaces
near_numbers = st.text(st.sampled_from("-+.0123456789\n \u0661\u0966\uff12\u00b2x"), max_size=8)


@settings(max_examples=1000)
@example("-5\n")
@example("-5\n\n")
@example("-\u0661.\u0662")
@example("-.5")
@example("-5.")
@example("-\u00b2")
@given(st.one_of(st.text(), st.from_regex(NEGATIVE_NUMBER), near_numbers, near_numbers.map("-{}".format)))
def test_negative_number_matches_the_argparse_pattern(token):
    assert torbif.cli._negative_number(token) is bool(re.match(NEGATIVE_NUMBER, token))


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["levels", "--=x", "--problem", "p"],
            "torbif levels: error: ambiguous option: --=x could match --help, --json, --problem, --max-k",
        ),
        (["--help=x", "levels"], "torbif: error: argument -h, --help: ignored explicit argument 'x'"),
        (["-x", "levels", "--problem", "p"], "torbif: error: unrecognized arguments: -x"),
    ],
)
def test_parser_error_lines(argv, error):
    # branches the random argvs seldom reach: each exits 2 with a usage line
    # and this error line, as the argparse reference exits
    outcome = parse_outcome(torbif.cli._parse, argv)
    reference = parse_outcome(lambda tokens: argparse_reference_parser().parse_args(tokens), argv)
    assert outcome[:2] == reference[:2] == ("exit", 2)
    usage, line = outcome[2].splitlines()
    assert usage.startswith(f"usage: torbif {argv[0] if argv[0] == 'levels' else '[-h]'}")
    assert line == error
