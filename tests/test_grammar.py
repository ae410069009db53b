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


@given(st.integers(0, 10**9))
def test_print_parse_round_trip(seed):
    element = random_element(random.Random(seed))
    assert parse_element(format_element(element)) == element
