"""Multiplicity bookkeeping for circle and torus representations.

An orthogonal representation of the circle splits into a trivial part and
planes on which the circle acts by rotation with speed m >= 1; a torus
representation splits into a trivial part and planes labelled by a
character (m, n), determined up to global sign.  Characters are stored
with the sign convention n > 0, or n == 0 and m > 0, of the rank-1
generators of `TorusSubgroup` (`subgroups.normalize_character`), so a
representation is a frozen multiset of irreducibles.  The constructors
are the normalizers: they check multiplicities, apply that convention,
merge like keys (through `_frozen._merged`), drop zeros and sort, so
callers pass raw (key, multiplicity) pairs; the two types share their
dimension and direct sum.  A caller whose values are canonical by
construction skips all of that through `_frozen._trusted`, as
`spectral._Walk.resonant` and `problem_io` do.

`loop_decompose` passes from a circle representation to the torus
representation of its space of Fourier modes: the extra circle rotates the
loop parameter, and a plane with spatial speed m contributes the raw
characters (m, n) and (-m, n) on the n-th mode.  `deg_minus_id_t2`
computes the equivariant degree of minus-identity on the unit ball of a
torus representation, the product of T - H over its planes with a sign
from the parity of the trivial part, in the closed form
sign * (T - B1 + B1 * B1 / 2), with B1 the sum of k*H over the characters
of multiplicity k.  The grading gives H * H = 0 for one-dimensional classes
(1 + 1 != 2 + 1) and kills every product of three of them, so only T, -B1
and one product per unordered pair of characters survive.  B1 * B1
counts each pair twice and no squares, so its coefficients are even and
halving them is exact; `EulerElementT2.star` forms that square from each
unordered pair once, with twice its coefficient, and skips the pairs of
parallel characters, whose product is zero.  The three parts lie in
dimensions 2, 1 and 0, which is plain tuple order on term keys, and each
is sorted with no zero term: T alone, B1 as one sorted list of its
characters' terms, since a representation's characters are distinct
with nonzero multiplicities, and the square as `star` builds it, halved.
So the degree is their terms laid end to end in that grade order through
the trusted `euler._from_terms`, with no dict and no sort of its own, and
a degree builds one element through `euler._from_keys`, the square: with
its index, a report of `bifurcation` builds two per level.  The test
suite compares the result with the plane-by-plane product.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ._frozen import Frozen, _at_least, _merged
from .euler import EulerElementT2, _from_terms
from .subgroups import normalize_character

CharacterKey = tuple[int, int]


def _multiplicity(value: int) -> int:
    return _at_least(value, "multiplicity", 0)


class _Representation(Frozen):
    """Dimension, truth and direct sum over `trivial` and the (irreducible,
    multiplicity) pairs named second in `_fields`."""

    @property
    def dim(self) -> int:
        return self.trivial + 2 * sum(k for _, k in getattr(self, self._fields[1]))

    def __bool__(self) -> bool:
        return self.dim > 0

    def __add__(self, other: "_Representation") -> "_Representation":
        if not isinstance(other, type(self)):
            return NotImplemented
        parts = self._fields[1]
        return type(self)(self.trivial + other.trivial, getattr(self, parts) + getattr(other, parts))


class S1Representation(_Representation):
    """Multiset of circle irreducibles: a trivial multiplicity and
    rotation planes keyed by their speed m >= 1."""

    _fields = ("trivial", "rotating")

    def __init__(self, trivial: int = 0, rotating: Iterable | Mapping = ()) -> None:
        _at_least(trivial, "trivial multiplicity", 0)
        merged = _merged(rotating, lambda speed: _at_least(speed, "rotation speed", 1), _multiplicity)
        vars(self).update(
            trivial=trivial, rotating=tuple(sorted((m, k) for m, k in merged.items() if k))
        )

    def __str__(self) -> str:
        parts = []
        if self.trivial:
            parts.append(f"R[{self.trivial},0]")
        parts.extend(f"R[{k},{m}]" for m, k in self.rotating)
        return " + ".join(parts) if parts else "0"


def _character(key: CharacterKey) -> CharacterKey:
    m, n = key
    return normalize_character(m, n)


class T2Representation(_Representation):
    """Multiset of torus irreducibles keyed by normalized characters."""

    _fields = ("trivial", "characters")

    def __init__(self, trivial: int = 0, characters: Iterable | Mapping = ()) -> None:
        _at_least(trivial, "trivial multiplicity", 0)
        merged = _merged(characters, _character, _multiplicity)
        cleaned = tuple(
            sorted(((key, k) for key, k in merged.items() if k), key=lambda item: (item[0][1], item[0][0]))
        )
        vars(self).update(trivial=trivial, characters=cleaned)

    def __str__(self) -> str:
        parts = []
        if self.trivial:
            parts.append(f"R[{self.trivial},(0,0)]")
        parts.extend(f"R[{k},({m},{n})]" for (m, n), k in self.characters)
        return " + ".join(parts) if parts else "0"


def _signed_speeds(rep: S1Representation) -> list[tuple[int, int]]:
    # The signed speeds of `rep` on a positive mode, with multiplicities: 0
    # for the trivial part, m and -m for each rotation plane of speed m.
    return [(0, rep.trivial)] + [(s * m, k) for m, k in rep.rotating for s in (1, -1)]


def loop_decompose(rep: S1Representation, mode: int) -> T2Representation:
    """Torus representation carried by the `mode`-th Fourier modes of loops
    valued in `rep`.

    Mode zero keeps the original splitting with the loop circle acting
    trivially; a positive mode doubles everything, sending the trivial part
    to the character (0, mode) and each rotation plane of speed m to the
    pair of characters (m, mode) and (-m, mode), which the constructor
    normalizes and merges.
    """
    _at_least(mode, "mode", 0)
    if mode == 0:
        return T2Representation(rep.trivial, [((m, 0), k) for m, k in rep.rotating])
    return T2Representation(0, [((s, mode), k) for s, k in _signed_speeds(rep)])


def deg_minus_id_t2(rep: T2Representation) -> EulerElementT2:
    """Equivariant degree of minus-identity on the unit ball of `rep`, as
    sign * (T - B1 + B1 * B1 / 2) (see the module docstring); B1 * B1
    counts each pair of distinct characters twice, so its coefficients
    are even, and `star` makes it from one generator product per
    unordered pair of non-parallel characters: c * (c - 1) / 2 for c
    characters, less c_g * (c_g - 1) / 2 for each group of c_g characters
    of one primitive direction.  Its terms are T, then -B1, one term per
    character, then B1 * B1 / 2: the three parts in grade order, each
    already sorted and free of zeros, laid end to end with no sort."""
    sign = -1 if rep.trivial % 2 else 1
    # the kernel of a normalized character (m, n) has the key (1, m, n);
    # the characters are distinct with nonzero multiplicities, so B1 is
    # their terms sorted by key, with no merge
    b1 = _from_terms(tuple(sorted([((1, *ch), k) for ch, k in rep.characters])))
    return _from_terms(
        (((0,), sign),)
        + tuple([(key, -sign * k) for key, k in b1._terms])
        + tuple([(key, sign * (c // 2)) for key, c in b1.star(b1)._terms])
    )
