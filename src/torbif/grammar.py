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
bare '0' back so printing and parsing round-trip.  A syntax error raises
ElementParseError, which carries the `position` and the whole `text`.
An integer is an optional sign and ASCII digits, judged and converted
by `rationals._is_int` and `rationals._to_int`, the one home of that rule.
An integer of more than `rationals._MAX_DIGITS` digits raises a plain
ValueError instead of an ElementParseError, whose message would echo the
whole text.  Each generator becomes its ring key through
`subgroups._canonical_rows`, the one home of the lattice normal form.
"""

from __future__ import annotations

from .euler import EulerElementT2, Key, _from_keys, format_element
from .rationals import _is_int, _to_int
from .subgroups import _canonical_rows, _key

__all__ = ["ElementParseError", "parse_element", "format_element"]


class ElementParseError(ValueError):
    """Syntax error at the 0-based `position` of the parsed `text`."""

    def __init__(self, message: str, position: int, text: str = ""):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.text = text


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
        raise ElementParseError(message, self.pos, self.text)

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
        while _is_int(self.peek(), ""):
            self.pos += 1
        text = self.text[start:self.pos]
        if not _is_int(text, "+-"):
            self.pos = start
            self.fail("expected an integer")
        return _to_int(text)

    def integers(self, opener: str, *closers: str) -> list[int]:
        # the opener, then one integer before each closer, as in '(' m ',' n ')'
        self.expect(opener)
        values = []
        for closer in closers:
            values.append(self.integer())
            self.expect(closer)
        return values

    def generator(self) -> Key:
        # the key of the generator, as `_from_keys` takes it
        self.skip_ws()
        head = self.peek()
        if head == "T":
            self.pos += 1
            return (0,)
        if head == "H":
            self.pos += 1
            m, n = self.integers("(", ",", ")")
            return _key(_canonical_rows([(m, n)]))
        if head == "F":
            self.pos += 1
            a, b, c, d = self.integers("(", ",", ";", ",", ")")
            return _key(_canonical_rows([(a, b), (c, d)]))
        self.fail("expected a generator 'T', 'H(m,n)', or 'F(a,b;c,d)'")
        raise AssertionError("unreachable")

    def term(self) -> tuple[int, Key]:
        self.skip_ws()
        coeff = 1
        if self.peek() in ("+", "-") or _is_int(self.peek(), ""):
            coeff = self.integer()
            self.expect("*")
        return coeff, self.generator()

    def element(self) -> EulerElementT2:
        if self.text.strip() == "0":
            return EulerElementT2.zero()
        acc: dict[Key, int] = {}
        sign = 1
        while True:
            coeff, key = self.term()
            acc[key] = acc.get(key, 0) + sign * coeff
            self.skip_ws()
            if self.pos >= len(self.text):
                return _from_keys(acc)
            op = self.peek()
            if op not in ("+", "-"):
                self.fail("expected '+' or '-'")
            self.pos += 1
            sign = 1 if op == "+" else -1


def parse_element(text: str) -> EulerElementT2:
    """Parse the grammar above into a canonical element."""
    return _Scanner(text).element()
