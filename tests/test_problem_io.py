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
from torbif.cli import main
from torbif.rationals import _MAX_DIGITS, parse_rational

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


@pytest.mark.parametrize("text", ["\u0663/\u0662", "3/2\n", "\u0663"])
def test_rationals_are_ascii_digits(text):
    # Fraction() takes each of these spellings, as 3/2 or 3
    with pytest.raises(ValueError) as exc:
        parse_rational(text)
    assert str(exc.value) == f"malformed rational {text!r}; expected 'p' or 'p/q'"


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


def set_at(*path):
    """An edit that sets the field at `path` (keys and list positions) of
    the payload to the value it is given."""

    def edit(payload, value):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, value, message",
    [
        (set_at("spectra", 0, "isotypic", 1, "m"), "1", "spectra[0].isotypic[1].m must be an integer, got '1'"),
        (set_at("spectra", 0, "isotypic", 1, "k"), True, "spectra[0].isotypic[1].k must be an integer, got True"),
        (set_at("deg_s1", 0, "coeff"), None, "deg_s1[0].coeff must be an integer, got None"),
        (set_at("spectra", 1, "alpha"), True, "spectra[1].alpha must be a rational, got True"),
        (
            set_at("spectra", 1, "alpha"),
            [2],
            "spectra[1].alpha must be an integer or a 'p/q' string, got [2]",
        ),
        (set_at("spectra", 0, "isotypic", 1, "m"), -1, "spectra[0].isotypic[1].m must be >= 0"),
        (set_at("spectra", 0, "isotypic", 1, "k"), 0, "spectra[0].isotypic[1].k must be >= 1"),
        (set_at("deg_s1"), {"Z1": 1}, "deg_s1 must be a list"),
        (set_at("deg_s1", 0, "subgroup"), 1, "deg_s1[0].subgroup must be a string"),
        (
            set_at("spectra", 0, "isotypic"),
            [{"m": 0, "k": 1}, {"m": 1, "k": 1}, {"m": 0, "k": 3}],
            "spectra[0].isotypic[2]: duplicate speed m=0",
        ),
        (
            set_at("deg_s1"),
            [{"subgroup": "S1", "coeff": 1}, {"subgroup": "Z1", "coeff": 1}, {"subgroup": "S1", "coeff": 2}],
            "deg_s1[2]: duplicate subgroup 'S1'",
        ),
        # nothing may follow the order: 'Z1\n' is refused, not read as a
        # duplicate of 'Z1'
        (
            set_at("deg_s1"),
            [{"subgroup": "Z1", "coeff": 1}, {"subgroup": "Z1\n", "coeff": 2}],
            "deg_s1[1].subgroup must be 'S1' or 'Zk' with k >= 1, got 'Z1\\n'",
        ),
        # errors come in entry order, and within an entry the coefficient
        # is checked before the duplicate and the label before a later entry
        (
            set_at("deg_s1"),
            [{"subgroup": "Z1", "coeff": 1}, {"subgroup": "Z1", "coeff": 0}],
            "deg_s1[1].coeff must be nonzero; omit the entry instead",
        ),
        (
            set_at("deg_s1"),
            [{"subgroup": "Z2", "coeff": 1}, {"subgroup": "Z2", "coeff": 1}, {"subgroup": "Zx", "coeff": 1}],
            "deg_s1[1]: duplicate subgroup 'Z2'",
        ),
        (
            set_at("deg_s1"),
            [{"subgroup": "Zx", "coeff": 1}, {"subgroup": "Zx", "coeff": 1}],
            "deg_s1[0].subgroup must be 'S1' or 'Zk' with k >= 1, got 'Zx'",
        ),
        # other scripts' digits, superscripts and a trailing newline, all of
        # which int() or a '$'-anchored pattern would take
        (
            set_at("deg_s1", 0, "subgroup"),
            "Z1\u0661",
            "deg_s1[0].subgroup must be 'S1' or 'Zk' with k >= 1, got 'Z1\u0661'",
        ),
        (
            set_at("deg_s1", 0, "subgroup"),
            "Z\u00b2",
            "deg_s1[0].subgroup must be 'S1' or 'Zk' with k >= 1, got 'Z\u00b2'",
        ),
        (
            set_at("spectra", 1, "alpha"),
            "\u0662\n",
            "spectra[1].alpha: malformed rational '\u0662\\n'; expected 'p' or 'p/q'",
        ),
        (
            set_at("spectra", 1, "alpha"),
            "2\n",
            "spectra[1].alpha: malformed rational '2\\n'; expected 'p' or 'p/q'",
        ),
    ],
)
def test_rejection_messages(edit, value, message):
    payload = base_payload()
    edit(payload, value)
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(dumps(payload))
    assert str(exc.value) == message



def repeated(spectrum="", top=""):
    """A one-eigenvalue problem with `spectrum` added inside its spectral
    datum and `top` added at its top level, verbatim."""
    return (
        '{"spectra": [{"alpha": 2, "isotypic": [{"m": 0, "k": 1}]' + spectrum + "}],"
        ' "deg_s1": [{"subgroup": "Z1", "coeff": 1}], "unique_critical_point": true' + top + "}"
    )


# name: the problem text with one field written twice; json.loads alone
# keeps the last value, so each would read as another problem
REPEATED_FIELDS = {
    "alpha": repeated(spectrum=', "alpha": 3'),
    "deg_s1": repeated(top=', "deg_s1": []'),
    "isotypic": repeated(spectrum=', "isotypic": [{"m": 1, "k": 1}]'),
    "k": repeated().replace('"k": 1', '"k": 1, "k": 2'),
    "unique_critical_point": repeated(top=', "unique_critical_point": false'),
}


@pytest.mark.parametrize("name", list(REPEATED_FIELDS))
def test_rejects_a_repeated_field(name):
    # without the repeat the problem parses, and the last value would change it
    assert parse_problem(repeated()).spectra[0].alpha == 2
    assert json.loads(REPEATED_FIELDS[name]) != json.loads(repeated())
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(REPEATED_FIELDS[name])
    assert str(exc.value) == f"duplicate field {name!r}"


@pytest.mark.parametrize("command", [["levels"], ["index", "--lambda-sq", "2"], ["classify", "--json"]])
def test_cli_refuses_a_repeated_field_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "problem.json"
    path.write_text(REPEATED_FIELDS["deg_s1"], encoding="utf-8")
    assert main([command[0], "--problem", str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: duplicate field 'deg_s1'\n")
