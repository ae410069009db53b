"""Multiplicity bookkeeping for circle and torus representations.

An orthogonal representation of the circle splits into a trivial part and
planes on which the circle acts by rotation with speed m >= 1; a torus
representation splits into a trivial part and planes labelled by a
character (m, n), determined up to global sign.  Characters are stored
with the sign convention n > 0, or n == 0 and m > 0, matching the rank-1
generator convention of `TorusSubgroup`, so a representation is a frozen
multiset of irreducibles.  The constructors are the only normalizers:
they check multiplicities, apply that convention, merge like keys, drop
zeros and sort, so callers pass raw (key, multiplicity) pairs.

`loop_decompose` passes from a circle representation to the torus
representation of its space of Fourier modes: the extra circle rotates the
loop parameter, and a plane with spatial speed m contributes the raw
characters (m, n) and (-m, n) on the n-th mode.  `deg_minus_id_t2`
computes the equivariant degree of minus-identity on the unit ball of a
torus representation as the product over isotypic summands, one factor
T - k*H per character of multiplicity k and a global sign from the parity
of the trivial part.  Collapsing the k plane factors T - H into one relies
on H * H = 0 for every one-dimensional class H, since the dimensions 1 + 1
do not add up to 2 + 1; the test suite checks that identity and compares
the result with the plane-by-plane product.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .euler import EulerElementS1, EulerElementT2
from .subgroups import TorusSubgroup

CharacterKey = tuple[int, int]


def normalize_character(m: int, n: int) -> CharacterKey:
    """Canonical representative of {(m, n), (-m, -n)}; (0, 0) is rejected."""
    if m == 0 and n == 0:
        raise ValueError("(0, 0) does not label a nontrivial character")
    if n < 0 or (n == 0 and m < 0):
        return (-m, -n)
    return (m, n)


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


def _mode_characters(rep: S1Representation, mode: int) -> list[tuple[CharacterKey, int]]:
    # Raw characters of the positive mode `mode`: (0, mode) for the trivial
    # part, (m, mode) and (-m, mode) for each rotation plane of speed m.
    return [((0, mode), rep.trivial)] + [((s * m, mode), k) for m, k in rep.rotating for s in (1, -1)]


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
    return T2Representation(0, _mode_characters(rep, mode))


def deg_minus_id_t2(rep: T2Representation) -> EulerElementT2:
    """Equivariant degree of minus-identity on the unit ball of `rep`,
    computed as the product of the degrees of the isotypic summands.

    The k planes of one character contribute (T - H)^k = T - k*H, because
    H * H = 0 for the one-dimensional kernel H (1 + 1 != 2 + 1)."""
    sign = -1 if rep.trivial % 2 else 1
    acc = sign * EulerElementT2.identity()
    one = EulerElementT2.identity()
    for (m, n), mult in rep.characters:
        acc = acc.star(one - mult * EulerElementT2.generator(TorusSubgroup.kernel(m, n)))
    return acc


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

