"""Closed subgroups of the 2-torus encoded by their character lattices.

A character (m, n) is the homomorphism (z, w) -> z^m w^n from the torus
T^2 = S^1 x S^1 to S^1.  Every closed subgroup is the common kernel of
finitely many characters, and the set of all characters vanishing on it is
a sublattice of Z^2 that determines the subgroup uniquely.  Storing that
lattice in a fixed normal form turns subgroup equality into tuple equality:

* rank 0 (empty basis): the full torus, dimension 2;
* rank 1, a single generator (m, n) with n > 0, or n == 0 and m > 0: a
  one-dimensional subgroup, the kernel of that character;
* rank 2, rows (a, 0) and (b, d) with a > 0, d > 0, 0 <= b < a: a finite
  subgroup of order a * d.

Generators are deliberately not reduced to primitive vectors: the lattice
spanned by (2, 0) annihilates {z: z^2 = 1} x S^1, a strictly smaller
lattice than the one spanned by (1, 0), so (2, 0) and (1, 0) name
different subgroups.  Intersecting subgroups corresponds to summing their
lattices, which keeps everything downstream purely integral.

Equality and hashing are on `rows`, not on identity, as for every value
type of the package (`_frozen.Frozen`): `_interned` shares instances, but it is a bounded cache that can evict an
entry, so two distinct instances with the same rows can exist and must
compare equal.

Ring elements keep one flat tuple of ints per term, its key: the
codimension, then the rows' entries but the fixed 0, that is (0,),
(1, m, n) or (2, a, b, d), in the order of (len(rows), rows).  `_key` and
`_rows` pass between rows and keys, and `_spelled` spells an element's
terms in one pass, each as one string of coefficient and label, for the
element formatter; `_labels` takes the labels off those strings, for
JSON and, through `_label`, for `str` of a subgroup.  Subgroups and rows appear
only at the API edge, where a caller builds one or reads `terms`.

`_canonical_rows` is the one home of the normal form: the public
constructor `TorusSubgroup(rows)` checks that `rows` is a tuple of int
pairs and then accepts it exactly when `_canonical_rows(rows) == rows`,
and the element grammar keys its generators through it.  `_interned`
skips that check: its callers (`kernel`, `full`, `trivial`, the normal
form `_canonical_rows` and `EulerElementT2.terms`) hand it rows that are
canonical by construction.  The test suite checks that the trusted
instances pass the public validator.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

from ._frozen import Frozen

Character = tuple[int, int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g == gcd(a, b) >= 0 and g == x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _canonical_rows(chars: Sequence[Character]) -> tuple[Character, ...]:
    """Canonical basis of the sublattice of Z^2 spanned by `chars`, as a
    Hermite normal form in two passes.

    The first pass folds the extended gcd over the second coordinates into
    a lattice vector (m0, d), with d >= 0 the gcd of all of them.  Each
    character minus n/d times that pivot lies on the first axis, and those
    remainders generate the lattice's part on that axis, so the second
    pass takes their gcd a (or the gcd of the first coordinates when
    d == 0).  (0, 0) entries change neither pass.
    """
    m0, d = 0, 0
    for m, n in chars:
        d, x, y = _xgcd(d, n)
        m0 = x * m0 + y * m
    a = 0
    for m, n in chars:
        a = math.gcd(a, m - (n // d) * m0 if d else m)
    if d == 0:
        return () if a == 0 else ((a, 0),)
    if a == 0:
        return ((m0, d),)
    return ((a, 0), (m0 % a, d))


def normalize_character(m: int, n: int) -> Character:
    """Canonical representative of {(m, n), (-m, -n)}; (0, 0) is rejected."""
    if m == 0 and n == 0:
        raise ValueError("(0, 0) does not label a nontrivial character")
    if n < 0 or (n == 0 and m < 0):
        return (-m, -n)
    return (m, n)


def _check_int(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"character entries must be ints, got {value!r}")
    return value


class TorusSubgroup(Frozen):
    """A closed subgroup of T^2, identified by its annihilator lattice.

    `rows` must already be a canonical basis as described in the module
    docstring; use `from_characters` to build a subgroup from arbitrary
    characters.
    """

    _fields = ("rows",)

    def __init__(self, rows: tuple[Character, ...] = ()) -> None:
        if not isinstance(rows, tuple) or not all(
            isinstance(r, tuple) and len(r) == 2 for r in rows
        ):
            raise ValueError(f"rows must be a tuple of int pairs, got {rows!r}")
        for r in rows:
            _check_int(r[0])
            _check_int(r[1])
        if _canonical_rows(rows) != rows:
            raise ValueError(f"rows {rows!r} are not a canonical lattice basis")
        vars(self).update(rows=rows)

    @classmethod
    def from_characters(cls, chars: Iterable[Character]) -> "TorusSubgroup":
        """Common kernel of the given characters; (0, 0) entries are ignored."""
        pairs = []
        for ch in chars:
            m, n = ch
            pairs.append((_check_int(m), _check_int(n)))
        return _interned(_canonical_rows(pairs))

    @classmethod
    def full(cls) -> "TorusSubgroup":
        """The whole torus."""
        return _interned(())

    @classmethod
    def kernel(cls, m: int, n: int) -> "TorusSubgroup":
        """Kernel of the single character (m, n), whose canonical row is the
        character itself with the sign of `normalize_character`."""
        m, n = _check_int(m), _check_int(n)
        if m == 0 and n == 0:
            return cls.full()
        return _interned((normalize_character(m, n),))

    @classmethod
    def trivial(cls) -> "TorusSubgroup":
        """The one-element subgroup."""
        return _interned(((1, 0), (0, 1)))

    @property
    def dim(self) -> int:
        return 2 - len(self.rows)

    @property
    def order(self) -> int:
        """Number of elements; defined only for finite subgroups."""
        if len(self.rows) != 2:
            raise ValueError("order is defined only for finite (0-dimensional) subgroups")
        return self.rows[0][0] * self.rows[1][1]

    @property
    def is_full(self) -> bool:
        return not self.rows

    def intersect(self, other: "TorusSubgroup") -> "TorusSubgroup":
        """Intersection of subgroups: the sum of their character lattices."""
        return _interned(_canonical_rows(self.rows + other.rows))

    def __str__(self) -> str:
        return _label(_key(self.rows))


def _key(rows: tuple[Character, ...]) -> tuple[int, ...]:
    """The ring key of canonical rows: (0,), (1, m, n) or (2, a, b, d)."""
    return (2, rows[0][0], *rows[1]) if len(rows) == 2 else (len(rows), *sum(rows, ()))


def _rows(key: tuple[int, ...]) -> tuple[Character, ...]:
    """The canonical rows of a ring key."""
    if key[0] == 2:
        return ((key[1], 0), key[2:])
    return (key[1:],) if key[0] else ()


def _label(key: tuple[int, ...]) -> str:
    """The term with this ring key in the text grammar."""
    return _labels(((key, 0),))[0]


def _spelled(terms: Iterable[tuple[tuple[int, ...], int]]) -> list[str]:
    """Each (key, coefficient) pair as one string 'c*label' in the text
    grammar, in one pass with one f-string and no call per term: the one
    spelling of T, H(m,n) and F(a,0;b,d)."""
    return [
        f"{c}*F({k[1]},0;{k[2]},{k[3]})" if k[0] == 2 else f"{c}*H({k[1]},{k[2]})" if k[0] else f"{c}*T"
        for k, c in terms
    ]


def _labels(terms: Iterable[tuple[tuple[int, ...], int]]) -> list[str]:
    """The labels of the keys of (key, coefficient) pairs: each spelled
    term after its '*', which no coefficient holds."""
    return [text.partition("*")[2] for text in _spelled(terms)]


@lru_cache(maxsize=1 << 14)
def _interned(rows: tuple[Character, ...]) -> TorusSubgroup:
    """The shared subgroup with these rows, which must already be canonical:
    it is built without the public constructor's check (see the module
    docstring).  The bound keeps a long-lived process that reads many
    elements' terms from growing the cache without limit."""
    subgroup = object.__new__(TorusSubgroup)
    object.__setattr__(subgroup, "rows", rows)
    return subgroup
