"""Textual grammar for Euler-ring elements.

    elem := term (('+' | '-') term)*
    term := [int '*'] gen
    gen  := 'T' | 'H(' int ',' int ')' | 'F(' int ',' int ';' int ',' int ')'

'T' is the class of the full torus, 'H(m,n)' the class of the kernel of
the character (m, n), and 'F(a,b;c,d)' the class of the subgroup whose
character lattice is spanned by the rows (a, b) and (c, d).  Whitespace
may separate any two tokens.  Generators are canonicalized while parsing,
so equivalent spellings (sign flips, non-reduced finite rows, even an 'F'
whose rows span a smaller-rank lattice) produce equal elements.

`format_element` emits the canonical spelling: every term appears as
'coeff*gen', terms are ordered by descending subgroup dimension and then
by lattice rows, and the zero element prints as '0'.  The parser accepts a
bare '0' back so printing and parsing round-trip.  An integer is an
optional sign and ASCII digits.  An integer of more
than `rationals._MAX_DIGITS` digits raises a plain ValueError instead of
an ElementParseError, whose message would echo the whole text.
"""

from __future__ import annotations

from .euler import EulerElementT2, Rows, _from_rows, format_element
from .rationals import _check_digits
from .subgroups import _canonical_rows, normalize_character

__all__ = ["ElementParseError", "parse_element", "format_element"]

# The digits of an integer: ASCII only, where str.isdigit would also take
# other scripts' digits and superscripts.
_DIGITS = frozenset("0123456789")


class ElementParseError(ValueError):
    """Syntax error in the element grammar, with a 0-based `position`."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise TypeError(f"expected str, got {type(text).__name__}")
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str) -> None:
        raise ElementParseError(message, self.pos)

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.peek() != char:
            self.fail(f"expected {char!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        if self.peek() not in _DIGITS:
            self.pos = start
            self.fail("expected an integer")
        while self.peek() in _DIGITS:
            self.pos += 1
        return int(_check_digits(self.text[start:self.pos]))

    def generator(self) -> Rows:
        # the canonical rows of the generator, as `_from_rows` takes them
        self.skip_ws()
        head = self.peek()
        if head == "T":
            self.pos += 1
            return ()
        if head == "H":
            self.pos += 1
            self.expect("(")
            m = self.integer()
            self.expect(",")
            n = self.integer()
            self.expect(")")
            return (normalize_character(m, n),) if m or n else ()
        if head == "F":
            self.pos += 1
            self.expect("(")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect(";")
            c = self.integer()
            self.expect(",")
            d = self.integer()
            self.expect(")")
            return _canonical_rows([(a, b), (c, d)])
        self.fail("expected a generator 'T', 'H(m,n)', or 'F(a,b;c,d)'")
        raise AssertionError("unreachable")

    def term(self) -> tuple[int, Rows]:
        self.skip_ws()
        head = self.peek()
        if head in _DIGITS or head in ("+", "-"):
            coeff = self.integer()
            self.expect("*")
            return coeff, self.generator()
        return 1, self.generator()

    def element(self) -> EulerElementT2:
        if self.text.strip() == "0":
            return EulerElementT2.zero()
        acc: dict[Rows, int] = {}

        def add(sign: int) -> None:
            coeff, rows = self.term()
            acc[rows] = acc.get(rows, 0) + sign * coeff

        add(1)
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                break
            op = self.peek()
            if op not in ("+", "-"):
                self.fail("expected '+' or '-'")
            self.pos += 1
            add(1 if op == "+" else -1)
        return _from_rows(acc)


def parse_element(text: str) -> EulerElementT2:
    """Parse the grammar above into a canonical element."""
    return _Scanner(text).element()
