import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torbif import (
    ElementParseError,
    EulerElementT2,
    TorusSubgroup,
    format_element,
    parse_element,
)
from torbif.rationals import _MAX_DIGITS

from oracles import random_element

I = EulerElementT2.identity()


def gen(*chars):
    return EulerElementT2.generator(TorusSubgroup.from_characters(chars))


def test_parse_basic_forms():
    assert parse_element("1*T") == I
    assert parse_element("-2*H(1,1)") == -2 * gen((1, 1))
    assert parse_element("3*F(1,0;0,2)") == 3 * gen((1, 0), (0, 2))
    assert parse_element("1*T - 2*H(1,1) + 1*F(1,0;0,1)") == (
        I - 2 * gen((1, 1)) + gen((1, 0), (0, 1))
    )


def test_parse_zero_and_whitespace():
    assert parse_element("0") == EulerElementT2.zero()
    assert parse_element("  0  ") == EulerElementT2.zero()
    assert parse_element(" 1 * T -  1*T ") == EulerElementT2.zero()
    assert format_element(EulerElementT2.zero()) == "0"


def test_parse_coefficient_is_optional():
    assert parse_element("T") == I
    assert parse_element("H(1,2) + T") == gen((1, 2)) + I


def test_parse_canonicalizes_generators():
    assert parse_element("1*H(-1,-1)") == parse_element("1*H(1,1)")
    assert parse_element("1*F(2,0;7,3)") == parse_element("1*F(2,0;1,3)")
    # an F whose rows span a rank-one lattice collapses to an H class
    assert parse_element("1*F(1,1;2,2)") == parse_element("1*H(1,1)")
    # the kernel of the trivial character is the whole torus
    assert parse_element("2*H(0,0)") == 2 * I


def test_parse_merges_repeated_generators():
    assert parse_element("1*T + 1*T") == 2 * I
    assert parse_element("2*H(1,0) + 2*H(-1,0)") == 4 * gen((1, 0))
    assert parse_element("2*H(1,0) - 2*H(-1,0)") == EulerElementT2.zero()


def test_parse_error_positions():
    with pytest.raises(ElementParseError) as info:
        parse_element("1*T @ 2*T")
    assert info.value.position == 4
    assert "at position 4" in str(info.value)
    # at the end of input a generator is missing, not an integer
    for text, position in (("", 0), ("1*T +", 5), ("T+ ", 3)):
        with pytest.raises(ElementParseError) as info:
            parse_element(text)
        assert info.value.position == position
        assert info.value.text == text
        message = "expected a generator 'T', 'H(m,n)', or 'F(a,b;c,d)'"
        assert str(info.value) == f"{message} at position {position}"
    with pytest.raises(ElementParseError):
        parse_element("1*H(1)")
    with pytest.raises(ElementParseError):
        parse_element("1*F(1,0)")
    with pytest.raises(ElementParseError):
        parse_element("1*")
    with pytest.raises(ElementParseError):
        parse_element("1.5*T")
    with pytest.raises(TypeError):
        parse_element(7)


def test_integers_over_the_digit_limit_are_refused():
    # a plain ValueError, whose one-line message does not echo the text
    over = str(10**_MAX_DIGITS)
    for text in (f"{over}*T", f"H(1,-{over})", f"1*F(1,0;{over},1)"):
        with pytest.raises(ValueError, match=f"{_MAX_DIGITS + 1} digits") as info:
            parse_element(text)
        assert not isinstance(info.value, ElementParseError)
    assert parse_element(f"-{over[:-1]}*T") == -int(over[:-1]) * I


@pytest.mark.parametrize(
    "text, message",
    [
        ("H(\u0661,0)", "expected an integer at position 2"),
        ("H(\u00b2,0)", "expected an integer at position 2"),
        ("1*F(1,0;0,\u0663)", "expected an integer at position 10"),
        ("1*H(1,-\uff11)", "expected an integer at position 6"),
        ("\u0662*T", "expected a generator 'T', 'H(m,n)', or 'F(a,b;c,d)' at position 0"),
    ],
)
def test_integers_are_ascii_digits(text, message):
    # str.isdigit takes each of these characters, and int() all but the
    # superscript; the parser stops at each with a caret position
    with pytest.raises(ElementParseError) as info:
        parse_element(text)
    assert str(info.value) == message


@given(st.integers(0, 10**9))
def test_print_parse_round_trip(seed):
    element = random_element(random.Random(seed))
    assert parse_element(format_element(element)) == element


small = st.integers(-4, 4)
generator_texts = st.one_of(
    st.just(("T", [])),
    st.tuples(small, small).map(lambda v: (f"H({v[0]},{v[1]})", [v])),
    st.tuples(small, small, small, small).map(
        lambda v: (f"F({v[0]},{v[1]};{v[2]},{v[3]})", [v[:2], v[2:]])
    ),
)


@given(st.lists(st.tuples(small, generator_texts), min_size=1, max_size=6))
def test_parsed_rows_match_the_subgroup_constructor(terms):
    # the parser canonicalizes each generator to rows itself, H(0,0) and
    # rank-deficient F rows included; the element equals the one built
    # from subgroups through the public constructor
    text = " + ".join(f"{c}*{g}" for c, (g, _) in terms)
    expected = EulerElementT2((TorusSubgroup.from_characters(chars), c) for c, (_, chars) in terms)
    assert parse_element(text) == expected
