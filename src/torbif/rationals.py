"""Exact rational helpers shared across the package.

Every numeric quantity in this package is an integer or a rational, and
resonance conditions are decided by exact comparison, so floats are refused
at every boundary instead of being converted.

This module is the one home of the rule for an integer in text: `_is_int`
says whether a text is one (ASCII digits after at most one allowed sign)
and `_to_int` converts it under the digit limit.  `parse_rational`, the
CLI's integer options, the "Zk" labels and JSON integers of problem files
and the integers of the element grammar all read integers through them.
"""

from __future__ import annotations

from fractions import Fraction

# The most decimal digits of any integer the program reads: problem-file
# ints, both parts of a 'p/q' string, the integer options and the integers
# of the element grammar.  An integer the program prints is at most a
# product of three input integers plus small sums, so it stays under
# Python's limit on int-to-str conversion (4300 digits by default).
_MAX_DIGITS = 1000


def _is_int(text: str, signs: str) -> bool:
    """Whether `text` is ASCII digits after at most one sign from `signs`:
    no space, underscore, other script's digit or trailing newline, all of
    which int() would take."""
    digits = text[1:] if text and text[0] in signs else text
    return digits.isascii() and digits.isdigit()


def _to_int(text: str) -> int:
    """int(text), or ValueError when `text` holds more than `_MAX_DIGITS`
    decimal digits, which is tested before the text is converted."""
    digits = sum(map(str.isdecimal, text)) if len(text) > _MAX_DIGITS else 0
    if digits > _MAX_DIGITS:
        raise ValueError(f"an integer of {digits} digits is over the limit of {_MAX_DIGITS}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with integer p and positive integer q, each of
    at most `_MAX_DIGITS` ASCII digits and nothing else (see `_is_int`)."""
    p, slash, q = text.partition("/") if isinstance(text, str) else ("", "", "")
    if not (_is_int(p, "-") and (not slash or _is_int(q, ""))):
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    if slash and q.lstrip("0") == "":
        raise ValueError(f"malformed rational {text!r}; denominator must be positive")
    return Fraction(_to_int(p), _to_int(q) if slash else 1)


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce an exact input to Fraction; floats (and bools) are refused."""
    if isinstance(value, bool):
        raise TypeError("expected an exact rational, got a bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def rational_to_json(value: Fraction) -> int | str:
    """Integer-valued rationals serialize as ints, everything else as 'p/q'."""
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"
