import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torbif import (
    CriticalPointProblem,
    EulerElementS1,
    ProblemFormatError,
    S1Representation,
    SpectralDatum,
    example_problem,
    load_problem,
    parse_problem,
    problem_to_text,
    write_problem,
)
from torbif.rationals import _MAX_DIGITS

from oracles import random_problem


def test_example_round_trip():
    prob = example_problem()
    text = problem_to_text(prob)
    assert parse_problem(text) == prob
    assert text.endswith("\n")
    # serialization is canonical, so a second pass is byte-identical
    assert problem_to_text(parse_problem(text)) == text


def test_file_round_trip(tmp_path):
    prob = example_problem()
    path = tmp_path / "problem.json"
    write_problem(prob, path)
    assert load_problem(path) == prob
    assert load_problem(str(path)) == prob


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(ProblemFormatError):
        load_problem(tmp_path / "absent.json")


def test_rational_alpha_round_trip():
    prob = CriticalPointProblem(
        spectra=(
            SpectralDatum(Fraction(1, 2), S1Representation(trivial=1)),
            SpectralDatum(Fraction(-3, 4), S1Representation(rotating={2: 1})),
        ),
        deg_s1=EulerElementS1(0, {2: -1}),
        unique_critical_point=False,
    )
    text = problem_to_text(prob)
    assert '"1/2"' in text
    assert '"-3/4"' in text
    assert parse_problem(text) == prob


@given(st.integers(0, 10**9))
def test_random_problem_round_trip(seed):
    prob = random_problem(random.Random(seed))
    assert parse_problem(problem_to_text(prob)) == prob


def base_payload():
    return json.loads(problem_to_text(example_problem()))


def dumps(payload):
    return json.dumps(payload)


def test_rejects_floats():
    text = problem_to_text(example_problem()).replace('"alpha": 2', '"alpha": 2.0')
    with pytest.raises(ProblemFormatError):
        parse_problem(text)
    with pytest.raises(ProblemFormatError):
        parse_problem(text.replace("2.0", "NaN"))


def test_rejects_unknown_and_missing_fields():
    payload = base_payload()
    payload["extra"] = 1
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    del payload["deg_s1"]
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["spectra"][0]["weight"] = 3
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))


def test_rejects_duplicate_eigenvalues_and_speeds():
    payload = base_payload()
    payload["spectra"][1]["alpha"] = 0
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    # the same eigenvalue written as 2 and "4/2" still collides
    payload["spectra"][1]["alpha"] = "4/2"
    payload["spectra"][0]["alpha"] = 2
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["spectra"][0]["isotypic"].append({"m": 1, "k": 2})
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))


def test_rejects_malformed_rationals_and_degrees():
    payload = base_payload()
    payload["spectra"][1]["alpha"] = "2/0"
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["spectra"][1]["alpha"] = "two"
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["deg_s1"] = [{"subgroup": "Z0", "coeff": 1}]
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["deg_s1"] = [{"subgroup": "Z1", "coeff": 0}]
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["deg_s1"] = [{"subgroup": "Z1", "coeff": 1}, {"subgroup": "Z1", "coeff": 2}]
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))


def test_rejects_integers_over_the_digit_limit():
    over = 10**_MAX_DIGITS
    edits = (
        lambda payload: payload["spectra"][0]["isotypic"][1].update(k=over),
        lambda payload: payload["spectra"][0]["isotypic"][1].update(m=over),
        lambda payload: payload["spectra"][1].update(alpha=over),
        lambda payload: payload["spectra"][1].update(alpha=f"1/{over}"),
        lambda payload: payload.update(deg_s1=[{"subgroup": f"Z{over}", "coeff": 1}]),
        lambda payload: payload.update(deg_s1=[{"subgroup": "S1", "coeff": -over}]),
    )
    for edit in edits:
        payload = base_payload()
        edit(payload)
        with pytest.raises(ProblemFormatError, match=f"{_MAX_DIGITS + 1} digits"):
            parse_problem(dumps(payload))
    payload = base_payload()
    payload["spectra"][0]["isotypic"][1]["k"] = over // 10
    assert parse_problem(dumps(payload)).spectra[0].isotypic.rotating == ((1, over // 10),)


def test_rejects_non_json_and_wrong_shapes():
    with pytest.raises(ProblemFormatError):
        parse_problem("not json at all")
    with pytest.raises(ProblemFormatError):
        parse_problem("[1, 2, 3]")
    with pytest.raises(ProblemFormatError):
        parse_problem("[" * 200000)
    payload = base_payload()
    payload["unique_critical_point"] = "yes"
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["spectra"] = []
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))
    payload = base_payload()
    payload["spectra"][0]["isotypic"] = []
    with pytest.raises(ProblemFormatError):
        parse_problem(dumps(payload))

