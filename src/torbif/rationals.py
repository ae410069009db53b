"""Exact rational helpers shared across the package.

Every numeric quantity in this package is an integer or a rational, and
resonance conditions are decided by exact comparison, so floats are refused
at every boundary instead of being converted.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

# The most decimal digits of any integer the program reads: problem-file
# ints, both parts of a 'p/q' string, the integer options and the integers
# of the element grammar.  An integer the program prints is at most a
# product of three input integers plus small sums, so it stays under
# Python's limit on int-to-str conversion (4300 digits by default).
_MAX_DIGITS = 1000


def _check_digits(text: str) -> str:
    """Return `text`, or raise ValueError when it holds more than
    `_MAX_DIGITS` decimal digits; called before the text is converted."""
    digits = sum(map(str.isdecimal, text))
    if digits > _MAX_DIGITS:
        raise ValueError(f"an integer of {digits} digits is over the limit of {_MAX_DIGITS}")
    return text


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with integer p and positive integer q, each of
    at most `_MAX_DIGITS` ASCII digits and nothing else: no space,
    underscore, other script's digit or trailing newline, all of which
    Fraction() would take."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    if "/" in text and text.rsplit("/", 1)[1].lstrip("0") == "":
        raise ValueError(f"malformed rational {text!r}; denominator must be positive")
    for part in text.split("/"):
        _check_digits(part)
    return Fraction(text)


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
