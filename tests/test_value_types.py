"""The ten value types behave as the frozen dataclasses they once were.

Each random value is written as a recipe, a `Make(kind, args)` tree, and
built twice: from the package's types and from their frozen-dataclass
twins in `oracles`.  The two builds must agree on the constructor's
result or error message, on `==`, `!=` and `hash` within and across
types, and on `repr`, and both refuse assignment and deletion with the
same AttributeError message.  The package's values must also survive
`pickle` and `copy` unchanged.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction
from typing import NamedTuple

from hypothesis import assume, example, given
from hypothesis import strategies as st

import torbif
from torbif import Certificate, Classification, EulerElementT2, TorusSubgroup

from oracles import VALUE_TYPE_TWINS

TYPES = {name: getattr(torbif, name) for name in VALUE_TYPE_TWINS}


class Make(NamedTuple):
    kind: str
    args: tuple


def build(recipe, types):
    """The value a recipe describes, built from `types` (the package's or
    the twins'); recipes may sit inside tuples, lists and dict values."""
    if isinstance(recipe, Make):
        return types[recipe.kind](*build(recipe.args, types))
    if isinstance(recipe, (tuple, list)):
        return type(recipe)(build(item, types) for item in recipe)
    if isinstance(recipe, dict):
        return {key: build(value, types) for key, value in recipe.items()}
    return recipe


def outcome(recipe, types):
    try:
        return ("ok", build(recipe, types))
    except Exception as exc:  # the message is what is compared
        return ("raise", type(exc), str(exc))


def recipes(junk: bool):
    """Recipes of all ten types.  With `junk`, about one argument in four
    is replaced by a value of the wrong type and the numbers reach out of
    range, so that the constructors' checks are compared as well."""
    bad = st.sampled_from([True, None, "1", 1.5, -1])

    def arg(strategy):
        return st.one_of(strategy, strategy, strategy, bad) if junk else strategy

    low = -1 if junk else 0
    small = st.integers(-2, 3)
    canonical = st.lists(st.tuples(small, small), max_size=3).map(
        lambda chars: TorusSubgroup.from_characters(chars).rows
    )
    rows = st.one_of(canonical, st.lists(st.tuples(arg(small), small), max_size=2).map(tuple)) if junk else canonical
    subgroup = st.tuples(arg(rows)).map(lambda a: Make("TorusSubgroup", a))
    element = st.tuples(st.lists(st.tuples(arg(subgroup), arg(small)), max_size=4)).map(
        lambda a: Make("EulerElementT2", a)
    )
    def pairs(key, value):
        return st.one_of(
            st.lists(st.tuples(arg(key), arg(value)), max_size=3),
            st.dictionaries(key, value, max_size=3),
        )

    s1_element = st.tuples(arg(small), pairs(st.integers(low + 1, 4), small)).map(
        lambda a: Make("EulerElementS1", a)
    )
    s1_rep = st.tuples(arg(st.integers(low, 3)), pairs(st.integers(low + 1, 4), st.integers(low, 2))).map(
        lambda a: Make("S1Representation", a)
    )
    character = st.tuples(small, small).filter(lambda ch: junk or ch != (0, 0))
    t2_rep = st.tuples(arg(st.integers(low, 3)), pairs(character, st.integers(low, 2))).map(
        lambda a: Make("T2Representation", a)
    )
    alphas = [Fraction(1, 2), 1, 2, "3/2", "7"] + ([0, "x", 1.5, True] if junk else [])
    alpha = st.sampled_from(alphas)
    datum = st.tuples(alpha, arg(s1_rep)).map(lambda a: Make("SpectralDatum", a))
    assumptions = st.tuples(arg(st.booleans()), arg(st.booleans())).map(
        lambda a: Make("AssumptionReport", a)
    )
    problem = st.tuples(
        st.lists(arg(datum), min_size=0 if junk else 1, max_size=3), arg(s1_element), arg(st.booleans())
    ).map(lambda a: Make("CriticalPointProblem", a))
    level = st.tuples(arg(st.integers(low, 4).filter(lambda k: junk or k)), alpha).map(
        lambda a: Make("BifurcationLevel", a)
    )
    report = st.tuples(
        level,
        element,
        st.booleans(),
        st.sampled_from([None, *Certificate]),
        st.sampled_from(list(Classification)),
    ).map(lambda a: Make("BifurcationReport", a))
    return st.one_of(
        subgroup, element, s1_element, s1_rep, t2_rep, datum, assumptions, problem, level, report
    )


def both(recipe):
    """The package's value and its twin, or a failed assumption when the
    recipe is refused."""
    new, old = outcome(recipe, TYPES), outcome(recipe, VALUE_TYPE_TWINS)
    assume(new[0] == "ok" and old[0] == "ok")
    return new[1], old[1]


RATIONAL_LINE = Make("S1Representation", (1, ()))
DATUM = Make("SpectralDatum", (2, RATIONAL_LINE))
DEGREE = Make("EulerElementS1", (0, {1: 1}))


# values that break two checks at once, so that the check order is compared
@example(Make("CriticalPointProblem", ([], None, None)))
@example(Make("CriticalPointProblem", ([DATUM, None], None, None)))
@example(Make("CriticalPointProblem", ([DATUM, DATUM], None, None)))
@example(Make("CriticalPointProblem", ([DATUM], None, None)))
@example(Make("CriticalPointProblem", ([DATUM], DEGREE, 1)))
@example(Make("BifurcationLevel", (0, "x")))
@example(Make("BifurcationLevel", (1, "x")))
@example(Make("SpectralDatum", ("x", None)))
@example(Make("SpectralDatum", (1, None)))
@example(Make("SpectralDatum", (1, Make("S1Representation", ()))))
@example(Make("EulerElementS1", (True, [(0, 1)])))
@example(Make("S1Representation", (-1, [(0, 1)])))
@example(Make("T2Representation", (-1, [((0, 0), 1)])))
@example(Make("TorusSubgroup", (((True, 0), (0, 1)),)))
@example(Make("EulerElementT2", ([(None, True)],)))
@given(st.one_of(recipes(junk=True), recipes(junk=False)))
def test_constructors_match_the_dataclasses(recipe):
    new, old = outcome(recipe, TYPES), outcome(recipe, VALUE_TYPE_TWINS)
    if new[0] == "raise" or old[0] == "raise":
        assert new == old
        return
    new, old = new[1], old[1]
    assert type(new).__name__ == type(old).__qualname__
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert new._fields == tuple(f.name for f in dataclasses.fields(old))


# distinct types whose fields hold equal values
@example(Make("TorusSubgroup", ((),)), Make("EulerElementT2", ([],)), 0)
@example(Make("S1Representation", ()), Make("EulerElementS1", ()), None)
@example(Make("S1Representation", ()), Make("T2Representation", ()), None)
@example(Make("SpectralDatum", (2, RATIONAL_LINE)), DATUM, ())
@given(recipes(junk=False), st.one_of(st.none(), recipes(junk=False)), st.sampled_from([0, (), None, "T"]))
def test_equality_matches_the_dataclasses(first, second, other):
    # with no second recipe the first is built again: equal, not identical
    a, old_a = both(first)
    b, old_b = both(first if second is None else second)
    assert (a == b) is (old_a == old_b)
    assert (a != b) is (old_a != old_b)
    assert (a == other) is (old_a == other) is False
    assert (a != other) is (old_a != other) is True
    if a == b:
        assert hash(a) == hash(b)
    assert hash(b) == hash(old_b)


@given(recipes(junk=False))
def test_pickle_and_copy_round_trips(recipe):
    value, _ = both(recipe)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)
        assert repr(copied) == repr(value)
        assert list(vars(copied)) == list(vars(value))


def refusal(action):
    try:
        action()
    except AttributeError as exc:
        return str(exc)
    return None


@given(recipes(junk=False))
def test_assignment_and_deletion_raise(recipe):
    value, old = both(recipe)
    before = repr(value)
    for name in (*value._fields, "extra"):
        assign = refusal(lambda: setattr(value, name, 0))
        assert assign == refusal(lambda: setattr(old, name, 0)) == f"cannot assign to field {name!r}"
        delete = refusal(lambda: delattr(value, name))
        assert delete == refusal(lambda: delattr(old, name)) == f"cannot delete field {name!r}"
    assert repr(value) == before


def test_traced_methods_stay_on_their_classes():
    # the benchmark tracer finds methods through vars(cls), not the base's
    assert {"star", "__add__"} <= set(vars(EulerElementT2))
    assert "intersect" in vars(TorusSubgroup)
