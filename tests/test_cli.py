import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torbif
import torbif.bifurcation
import torbif.cli
from torbif import (
    CriticalPointProblem,
    EulerElementS1,
    EulerElementT2,
    S1Representation,
    SpectralDatum,
    TorusSubgroup,
    example_problem,
    write_problem,
)
from torbif.cli import main
from torbif.euler import _generator_product
from torbif.subgroups import _interned


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
    # both addressing styles at once, or neither, is a usage error
    assert main(["index", "--problem", example_path, "--k", "1"]) == 2
    capsys.readouterr()
    assert (
        main(["index", "--problem", example_path, "--k", "1", "--alpha", "2", "--lambda-sq", "2"])
        == 2
    )
    capsys.readouterr()
    assert main(["index", "--problem", example_path]) == 2
    capsys.readouterr()
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


def test_max_k_must_be_positive(example_path, capsys):
    with pytest.raises(SystemExit):
        main(["levels", "--problem", example_path, "--max-k", "0"])
    capsys.readouterr()


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


def test_cross_check_failure_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # with a full-orbit degree the index is the reduced product minus a
    # dimension-0 correction; a subtraction that drops the whole index there
    # makes the direct index vanish, so the fixed-coefficient certificate,
    # read off the reduced product, disagrees with it
    problem = CriticalPointProblem(
        spectra=(SpectralDatum(1, S1Representation(trivial=1, rotating={1: 1})),),
        deg_s1=EulerElementS1(fixed=1),
    )
    path = tmp_path / "fixed.json"
    write_problem(problem, path)
    sub = EulerElementT2.__sub__

    def dropping_sub(self, other):
        if other and all(h.dim == 0 for h, _ in other.terms):
            return EulerElementT2.zero()
        return sub(self, other)

    monkeypatch.setattr(EulerElementT2, "__sub__", dropping_sub)
    assert main(["index", "--problem", str(path), "--k", "2", "--alpha", "1"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: certificate path disagrees with direct evaluation\n"


def test_reduced_product_with_t_term_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # with a full-orbit degree, a resonant factor equal to 2*T leaves a T term
    # in the reduced product, which would then meet the finite classes of
    # the factor below the level that the index leaves out
    problem = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1))
    path = tmp_path / "fixed.json"
    write_problem(problem, path)
    monkeypatch.setattr(torbif.bifurcation, "deg_minus_id_t2", lambda rep: 2 * EulerElementT2.identity())
    assert main(["index", "--problem", str(path), "--k", "1", "--alpha", "2"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: reduced product has a T term; "
        "the truncated factor below the level is not exact\n"
    )


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
    # a full-orbit degree needs the space below each level, once per level
    problem = CriticalPointProblem(spectra=example_problem().spectra, deg_s1=EulerElementS1(fixed=1))
    path = tmp_path / "fixed.json"
    write_problem(problem, path)
    below = counting_calls(monkeypatch, "negative_space")
    assert main(["classify", "--problem", str(path), "--max-k", "3"]) == 0
    assert len(below) == 3
    capsys.readouterr()


def test_index_without_full_orbit_term_ignores_the_space_below(example_path, capsys, monkeypatch):
    # the worked example's degree has no S1 term, so its index is the
    # reduced product: the cost does not depend on k
    below = counting_calls(monkeypatch, "negative_space")
    _generator_product.cache_clear()
    assert main(["index", "--problem", example_path, "--k", "400000", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "-1*F(1,0;0,400000)\ncertificate: SameSignPath\n"
    assert below == []
    assert _generator_product.cache_info().misses < 10


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
    assert 0 < len(adds) <= 20
