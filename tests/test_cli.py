import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torbif
import torbif.bifurcation
import torbif.cli
import torbif.euler
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
from torbif.subgroups import _interned

from oracles import argparse_reference_parser


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
    monkeypatch.setattr(torbif.bifurcation, "_MAX_LINE_PRODUCTS", 80)
    assert main(["index", "--problem", str(path), "--k", "11", "--alpha", "1"]) == 0
    capsys.readouterr()
    assert main(["index", "--problem", str(path), "--k", "12", "--alpha", "1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the index at lambda_sq = 144 needs 88 line products,"
        " more than the limit of 80\n",
    )
    # a run parallel to its null character makes no product at any k
    monkeypatch.setattr(torbif.bifurcation, "_MAX_LINE_PRODUCTS", 0)
    fixed = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1))
    write_problem(fixed, path)
    assert main(["index", "--problem", str(path), "--k", "1000000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*H(0,1000000)\ncertificate: FixedCoefficientPath\n"


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
    # with the product of two lines, which takes their characters, stubbed
    # to vanish, the worked example's index is zero although its
    # certificate says not
    def vanishing_product(ch1, ch2):
        return None

    monkeypatch.setattr(torbif.euler, "_generator_product", vanishing_product)
    assert main(["index", "--problem", example_path, "--k", "1", "--alpha", "2"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: certificate path disagrees with direct evaluation\n"


def test_harmonic_index_cost_is_linear_in_k(example_path, tmp_path, capsys):
    # deterministic counters, not timings: at most one generator product per
    # character below the level, not one per pair of characters; neither
    # degree here has a full-orbit term, so neither index needs any of them
    _generator_product.cache_clear()
    assert main(["index", "--problem", example_path, "--k", "6400", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,6400)\ncertificate: SameSignPath\n"
    assert _generator_product.cache_info().misses < 2 * 6400
    problem = CriticalPointProblem(
        spectra=(SpectralDatum(1, S1Representation(trivial=1, rotating={1: 1, 2: 1})),),
        deg_s1=EulerElementS1.cyclic(1),
        unique_critical_point=True,
    )
    path = tmp_path / "rotating.json"
    write_problem(problem, path)
    _generator_product.cache_clear()
    assert main(["index", "--problem", str(path), "--k", "250", "--alpha", "1"]) == 0
    assert capsys.readouterr().out == "-5*F(1,0;0,250)\ncertificate: SameSignPath\n"
    # 249 modes below the level, 5 characters each
    assert _generator_product.cache_info().misses < 2 * 5 * 250


def test_caches_stay_bounded(example_path, capsys):
    _generator_product.cache_clear()
    _interned.cache_clear()
    assert main(["index", "--problem", example_path, "--k", "25600", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,25600)\ncertificate: SameSignPath\n"
    # the index makes few generator products, so fill that cache with a
    # product of two sums of 200 lines each, no line of one parallel to a
    # line of the other: 40,000 distinct pairs, each of dimension 1 + 1
    left = EulerElementT2((TorusSubgroup.kernel(1, n), 1) for n in range(1, 201))
    right = EulerElementT2((TorusSubgroup.kernel(-n, 1), 1) for n in range(1, 201))
    assert len(left.star(right).terms) > 0
    for cache in (_generator_product, _interned):
        info = cache.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


def counting_calls(monkeypatch, name):
    """Record the level of every call to `torbif.bifurcation.<name>`."""
    calls = []
    original = getattr(torbif.bifurcation, name)

    def counting(problem, level):
        calls.append(level)
        return original(problem, level)

    monkeypatch.setattr(torbif.bifurcation, name, counting)
    return calls


def test_one_index_evaluation_per_level(example_path, tmp_path, capsys, monkeypatch):
    calls = counting_calls(monkeypatch, "resonant_space")
    assert main(["classify", "--problem", example_path, "--max-k", "3"]) == 0
    assert len(calls) == 3
    calls.clear()
    assert main(["index", "--problem", example_path, "--k", "2", "--alpha", "2"]) == 0
    assert len(calls) == 1
    # a full-orbit degree needs the runs below each level, once per level
    problem = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1))
    path = tmp_path / "fixed.json"
    write_problem(problem, path)
    below = counting_calls(monkeypatch, "_below_runs")
    assert main(["classify", "--problem", str(path), "--max-k", "3"]) == 0
    assert len(below) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "deg_s1, per_level",
    [(EulerElementS1.cyclic(1), 2), (EulerElementS1(fixed=1), 2)],
    ids=["worked-example", "full-orbit"],
)
def test_star_calls_per_level(tmp_path, capsys, monkeypatch, deg_s1, per_level):
    # deterministic counts, not timings: the degree on the null modes and
    # its product with d0; the cross term B1r * B1b of a degree with an S1
    # term goes straight to the line product, without a star
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


def test_index_without_full_orbit_term_ignores_the_space_below(example_path, capsys, monkeypatch):
    # the worked example's degree has no S1 term, so its index needs no
    # classes below the level: the cost does not depend on k
    below = counting_calls(monkeypatch, "_below_runs")
    _generator_product.cache_clear()
    assert main(["index", "--problem", example_path, "--k", "400000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,400000)\ncertificate: SameSignPath\n"
    assert below == []
    assert _generator_product.cache_info().misses < 10


def test_full_orbit_index_cost_does_not_grow_with_k(tmp_path, capsys, monkeypatch):
    # deterministic counts, not timings: with deg_s1 = 1*S1 the only run
    # below the level is the trivial one, parallel to the null character
    # (0, k), so it is named once and skipped; the one generator product
    # is the null character with itself in the degree on the null modes
    problem = CriticalPointProblem(
        spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1), unique_critical_point=True
    )
    path = tmp_path / "fixed.json"
    write_problem(problem, path)

    def refuse(problem, level):
        raise AssertionError("negative_space was called")

    for module in (torbif, torbif.spectral, torbif.bifurcation):
        monkeypatch.setattr(module, "negative_space", refuse, raising=False)
    below_runs = torbif.bifurcation._below_runs
    named = []

    def recording(problem, level):
        named.extend(below_runs(problem, level))
        return named

    monkeypatch.setattr(torbif.bifurcation, "_below_runs", recording)
    _generator_product.cache_clear()
    assert main(["index", "--problem", str(path), "--k", "1000000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*H(0,1000000)\ncertificate: FixedCoefficientPath\n"
    assert named == [(0, 1, 1000000, 1)]
    assert _generator_product.cache_info().misses <= 1


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
    post_init = EulerElementT2.__post_init__

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(torbif.subgroups, "_canonical_rows", counting("canonical_rows", canonical_rows))
    monkeypatch.setattr(TorusSubgroup, "intersect", counting("intersect", intersect))
    monkeypatch.setattr(EulerElementT2, "__post_init__", counting("build", post_init))
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
    # intersections and normal forms); the split product builds 294
    assert counts["build"] < 336


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


def deliberate_difference(argv, reference, outcome):
    """The two ways this parser parts from argparse on purpose.  A word
    that starts with a single `-`, such as the factor `-1*T`, is a
    positional here, where argparse took it for an unknown option and
    exited 2.  A lone `--` given as a value (`--problem=--`) or after the
    first `--` is that string here, where argparse dropped it and stored an
    empty list, unconverted, on which a handler raised a TypeError."""
    if argv.count("--") > 1 or any(token.endswith("=--") for token in argv):
        return True
    return (
        outcome[0] == "ok"
        and reference[:2] == ("exit", 2)
        and any(str(outcome[1][name]).startswith("-") for name in ("lhs", "rhs", "out"))
    )


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
