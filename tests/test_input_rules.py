"""Each input rule has one home and reads as it did before.

Which subgroup rows are canonical is decided by the lattice normal form
`subgroups._canonical_rows`, and what an integer in text looks like by
`rationals._is_int` and `rationals._to_int`.  The rules they replace are
kept in `oracles`: the rank-by-rank canonical test, the pattern-based
`parse_rational` and "Zk" label reader, the CLI's string-method
integer reader, and the problem-file reader that read every field through
the public constructors.  Old and new must give the same value, or raise the same
exception type with the same message, on every input drawn here.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from torbif import EulerElementS1, TorusSubgroup, parse_problem, problem_to_text
from torbif.cli import _integer
from torbif.rationals import parse_rational

from oracles import (
    canonical_by_rank,
    cyclic_order_by_pattern,
    integer_option_by_string_methods,
    parse_problem_reference,
    parse_rational_by_pattern,
    random_problem,
)

# Pieces of text near the integer rule: signs, ASCII digits, digits of
# other scripts (Arabic-Indic, fullwidth, and a superscript that is a
# digit but not a decimal), the rational's slash and what int() would
# forgive (spaces, newlines, underscores), and the labels' letters.
PIECES = ["+", "-", "0", "1", "7", "9", "٣", "７", "¹", "/", " ", "\n", "_", "Z", "S"]
# digit runs around the 1,000-digit limit, in ASCII and another script
RUNS = st.tuples(st.sampled_from(["1", "0", "9", "٣"]), st.integers(999, 1001)).map(
    lambda t: t[0] * t[1]
)
TEXTS = st.lists(st.sampled_from(PIECES) | RUNS, max_size=6).map("".join)
LABELS = TEXTS | TEXTS.map(lambda text: "Z" + text)


def outcome(read, *args):
    """What `read(*args)` gives: ("value", value) or (exception type, message)."""
    try:
        return "value", read(*args)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(TEXTS)
@example("-0/0010")
@example("+5")
@example("1/" + "1" * 1000)
@example("1" * 1001 + "/0")
def test_rationals_read_as_by_the_pattern(text):
    assert outcome(parse_rational, text) == outcome(parse_rational_by_pattern, text)


@settings(max_examples=600, deadline=None)
@given(TEXTS)
@example("+" + "9" * 1000)
@example("-" + "9" * 1001)
@example("١")
def test_integer_options_read_as_by_string_methods(text):
    assert outcome(_integer, text) == outcome(integer_option_by_string_methods, text)


def degree_of_label(label):
    """The degree `parse_problem` reads from one `deg_s1` entry with this
    label and coefficient 1."""
    text = json.dumps(
        {
            "spectra": [{"alpha": 1, "isotypic": [{"m": 0, "k": 1}]}],
            "deg_s1": [{"subgroup": label, "coeff": 1}],
            "unique_critical_point": True,
        }
    )
    return parse_problem(text).deg_s1


def degree_by_pattern(label):
    order = cyclic_order_by_pattern(label, "deg_s1[0]")
    return EulerElementS1(fixed=1) if order == 0 else EulerElementS1(0, {order: 1})


@settings(max_examples=600, deadline=None)
@given(LABELS)
@example("S1")
@example("Z0")
@example("Z01")
@example("Z" + "1" * 1001)
@example("Z1\n")
def test_cyclic_labels_read_as_by_the_pattern(label):
    assert outcome(degree_of_label, label) == outcome(degree_by_pattern, label)


def assert_rows_judged_by_rank(rows):
    if canonical_by_rank(rows):
        assert TorusSubgroup(rows).rows == rows
    else:
        assert outcome(TorusSubgroup, rows) == (
            ValueError,
            f"rows {rows!r} are not a canonical lattice basis",
        )


ENTRIES = range(-3, 4)
PAIRS = list(itertools.product(ENTRIES, ENTRIES))


def test_rows_up_to_two_pairs_are_judged_as_by_rank():
    # every tuple of at most two pairs with entries in -3..3
    for count in range(3):
        for rows in itertools.product(PAIRS, repeat=count):
            assert_rows_judged_by_rank(rows)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.tuples(st.integers(-4, 4), st.integers(-4, 4))] * 3))
def test_three_rows_are_judged_as_by_rank(rows):
    assert_rows_judged_by_rank(rows)


# Values that a corruption writes over one field of a valid problem: a
# float and non-finite numbers, bools, integers written as strings, a
# negative speed or zero multiplicity, 1,001-digit integers, malformed and
# non-ASCII labels and rationals, and values of the wrong shape.
CORRUPT_VALUES = [
    2.5, float("nan"), True, False, "1", "-3", 0, -1, 10**1000, -(10**1000), "1/" + "1" * 1001,
    "Z0", "Z1\n", "Z٣", "٣/2", "2\n", "3/2", "S1", "Z2", None, [], {}, [{"m": 0, "k": 1}],
]


def places(node):
    """Every (container, key) of a payload: object fields and list items, at
    any depth, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    found = []
    for key, value in items:
        found.append((node, key))
        found.extend(places(value))
    return found


def corruptions(payload, rng):
    """Texts of the valid problem `payload`, of it with every list shuffled,
    and of single-field corruptions of it, each drawn by `rng`: a value
    overwritten, a field dropped, added or repeated, and an entry of a list
    repeated, which duplicates a speed, a subgroup or an eigenvalue (spelled
    anew as a fraction); last, two values of one object overwritten, so that
    the order of two failing checks of one entry shows."""
    yield json.dumps(payload)
    for edit in ("shuffle", "value", "drop", "unknown", "repeat", "entry", "two values"):
        copy = json.loads(json.dumps(payload))
        spots = places(copy)
        objects = [value for node, key in spots if isinstance(value := node[key], dict)] + [copy]
        lists = [value for node, key in spots if isinstance(value := node[key], list) and value]
        if edit == "shuffle":
            for entries in lists:
                rng.shuffle(entries)
        elif edit == "value":
            node, key = rng.choice(spots)
            node[key] = rng.choice(CORRUPT_VALUES + ([str(node[key])] if type(node[key]) is int else []))
        elif edit == "two values":
            obj = rng.choice(objects)
            for key in rng.sample(list(obj), 2):
                obj[key] = rng.choice([-1, 0, 2.5, True, "1", None, 10**1000, "Z0"])
        elif edit == "drop":
            del (obj := rng.choice(objects))[rng.choice(list(obj))]
        elif edit == "unknown":
            rng.choice(objects)["weight"] = 1
        elif edit == "repeat":
            obj = rng.choice(objects)
            obj["REPEATED"] = rng.choice(CORRUPT_VALUES)
            yield json.dumps(copy).replace('"REPEATED"', json.dumps(rng.choice(list(obj)[:-1])))
            continue
        else:
            entries = rng.choice(lists)
            entry = json.loads(json.dumps(rng.choice(entries)))
            if isinstance(entry, dict) and "alpha" in entry:
                alpha = Fraction(entry["alpha"])
                entry["alpha"] = f"{3 * alpha.numerator}/{3 * alpha.denominator}"
            entries.insert(rng.randrange(len(entries) + 1), entry)
        yield json.dumps(copy)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
@example(0)
def test_problems_read_as_by_the_reference_reader(seed):
    rng = random.Random(seed)
    payload = json.loads(problem_to_text(random_problem(rng)))
    for text in corruptions(payload, rng):
        read = outcome(parse_problem, text)
        assert read == outcome(parse_problem_reference, text), text
