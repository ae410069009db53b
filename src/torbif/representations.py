"""Multiplicity bookkeeping for circle and torus representations.

An orthogonal representation of the circle splits into a trivial part and
planes on which the circle acts by rotation with speed m >= 1; a torus
representation splits into a trivial part and planes labelled by a
character (m, n), determined up to global sign.  Characters are stored
with the sign convention n > 0, or n == 0 and m > 0, of the rank-1
generators of `TorusSubgroup` (`subgroups.normalize_character`), so a
representation is a frozen multiset of irreducibles.  The constructors
are the only normalizers: they check multiplicities, apply that
convention, merge like keys, drop zeros and sort, so callers pass raw
(key, multiplicity) pairs.

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
and one product per unordered pair of characters survive; B1 * B1 counts
each pair twice and no squares, so its coefficients are even and halving
them is exact.  The test suite compares the result with the plane-by-plane
product.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .euler import EulerElementS1, EulerElementT2, _from_rows
from .subgroups import normalize_character

CharacterKey = tuple[int, int]


def _check_mult(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative int, got {value!r}")
    return value


@dataclass(frozen=True)
class S1Representation:
    """Multiset of circle irreducibles: a trivial multiplicity and
    rotation planes keyed by their speed m >= 1."""

    trivial: int = 0
    rotating: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_mult(self.trivial, "trivial multiplicity")
        raw = self.rotating
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged: dict[int, int] = {}
        for speed, mult in items:
            if not isinstance(speed, int) or isinstance(speed, bool) or speed < 1:
                raise ValueError(f"rotation speed must be a positive int, got {speed!r}")
            merged[speed] = merged.get(speed, 0) + _check_mult(mult, "multiplicity")
        object.__setattr__(
            self, "rotating", tuple(sorted((m, k) for m, k in merged.items() if k))
        )

    @property
    def dim(self) -> int:
        return self.trivial + 2 * sum(k for _, k in self.rotating)

    def __bool__(self) -> bool:
        return self.dim > 0

    def __add__(self, other: "S1Representation") -> "S1Representation":
        if not isinstance(other, S1Representation):
            return NotImplemented
        return S1Representation(self.trivial + other.trivial, self.rotating + other.rotating)

    def __str__(self) -> str:
        parts = []
        if self.trivial:
            parts.append(f"R[{self.trivial},0]")
        parts.extend(f"R[{k},{m}]" for m, k in self.rotating)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class T2Representation:
    """Multiset of torus irreducibles keyed by normalized characters."""

    trivial: int = 0
    characters: tuple[tuple[CharacterKey, int], ...] = ()

    def __post_init__(self) -> None:
        _check_mult(self.trivial, "trivial multiplicity")
        raw = self.characters
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged: dict[CharacterKey, int] = {}
        for key, mult in items:
            m, n = key
            norm = normalize_character(m, n)
            merged[norm] = merged.get(norm, 0) + _check_mult(mult, "multiplicity")
        cleaned = tuple(
            sorted(((key, k) for key, k in merged.items() if k), key=lambda item: (item[0][1], item[0][0]))
        )
        object.__setattr__(self, "characters", cleaned)

    @property
    def dim(self) -> int:
        return self.trivial + 2 * sum(k for _, k in self.characters)

    def __bool__(self) -> bool:
        return self.dim > 0

    def __add__(self, other: "T2Representation") -> "T2Representation":
        if not isinstance(other, T2Representation):
            return NotImplemented
        return T2Representation(self.trivial + other.trivial, self.characters + other.characters)

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
    if not isinstance(mode, int) or isinstance(mode, bool) or mode < 0:
        raise ValueError(f"mode must be a nonnegative int, got {mode!r}")
    if mode == 0:
        return T2Representation(rep.trivial, [((m, 0), k) for m, k in rep.rotating])
    return T2Representation(0, [((s, mode), k) for s, k in _signed_speeds(rep)])


def _one_dimensional_sum(rep: T2Representation) -> EulerElementT2:
    # B1 = the sum of k*H over the characters of `rep`, with H the kernel of
    # the character and k its multiplicity; a normalized character is the
    # canonical row of its kernel, so the element is built from rows.
    return _from_rows({(ch,): k for ch, k in rep.characters})


def deg_minus_id_t2(rep: T2Representation) -> EulerElementT2:
    """Equivariant degree of minus-identity on the unit ball of `rep`, as
    sign * (T - B1 + B1 * B1 / 2) (see the module docstring); B1 * B1
    counts each pair of distinct characters twice, so its coefficients
    are even.  The three parts have distinct subgroups of dimensions 2, 1
    and 0, so the result is built from their rows in one pass."""
    sign = -1 if rep.trivial % 2 else 1
    b1 = _one_dimensional_sum(rep)
    acc = {(): sign}
    acc.update((h.rows, -sign * k) for h, k in b1.terms)
    acc.update((h.rows, sign * (c // 2)) for h, c in b1.star(b1).terms)
    return _from_rows(acc)


def deg_minus_id_s1(rep: S1Representation) -> EulerElementS1:
    """Circle version of the degree of minus-identity.

    Cross terms between distinct finite-isotropy classes vanish, so the
    product collapses to an expression linear in the multiplicities; the
    test suite checks this against the torus computation through the
    mode-zero decomposition and the ring embedding.
    """
    sign = -1 if rep.trivial % 2 else 1
    finite = EulerElementS1(0, rep.rotating)
    return sign * (EulerElementS1.identity() - finite)

