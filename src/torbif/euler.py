"""Exact arithmetic in the Euler rings of the 2-torus and the circle.

The Euler ring of T^2 is the free Z-module on the orbit classes of closed
subgroups.  The product of two generators is the class of the intersection
when the dimensions are additive,

    dim H1 + dim H2 == 2 + dim (H1 n H2),

and zero otherwise; the class of the full torus is the multiplicative
identity.  Grading by subgroup dimension, products of two one-dimensional
classes land in degree zero and everything below degree one multiplies to
zero, which makes the non-identity part of any element nilpotent of order
three.  Elements are canonically sorted sparse integer combinations, so
equality is structural and all arithmetic is exact.  The constructor is the
only normalizer: it checks every term, merges like terms, drops zeros and
sorts, so sums and products hand it raw (subgroup, coefficient) pairs.

The circle's Euler ring enters only through its additive group, generated
by the full-orbit class and the classes with finite cyclic isotropy, and
through the embedding into the torus ring induced by collapsing the loop
direction: the full-orbit class goes to the identity and the class with
isotropy of order k goes to the kernel of the character (k, 0).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

from .subgroups import TorusSubgroup


def _check_coeff(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"coefficients must be ints, got {value!r}")
    return value


@dataclass(frozen=True)
class EulerElementT2:
    """A finitely supported integer combination of torus orbit classes.

    Accepts a mapping or an iterable of (subgroup, coefficient) pairs;
    like terms merge, zero coefficients drop, and terms are stored sorted
    by descending subgroup dimension and then by lattice rows.
    """

    terms: tuple[tuple[TorusSubgroup, int], ...] = ()

    def __post_init__(self) -> None:
        raw = self.terms
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged: dict[TorusSubgroup, int] = {}
        for subgroup, coeff in items:
            if not isinstance(subgroup, TorusSubgroup):
                raise TypeError(f"expected TorusSubgroup keys, got {subgroup!r}")
            merged[subgroup] = merged.get(subgroup, 0) + _check_coeff(coeff)
        cleaned = [(h, c) for h, c in merged.items() if c]
        cleaned.sort(key=lambda t: (-t[0].dim, t[0].rows))
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def zero(cls) -> "EulerElementT2":
        return cls(())

    @classmethod
    def identity(cls) -> "EulerElementT2":
        """The class of the full torus, the ring identity."""
        return cls(((TorusSubgroup.full(), 1),))

    @classmethod
    def generator(cls, subgroup: TorusSubgroup) -> "EulerElementT2":
        return cls(((subgroup, 1),))

    def coefficient(self, subgroup: TorusSubgroup) -> int:
        for h, c in self.terms:
            if h == subgroup:
                return c
        return 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "EulerElementT2") -> "EulerElementT2":
        if not isinstance(other, EulerElementT2):
            return NotImplemented
        return EulerElementT2(self.terms + other.terms)

    def __sub__(self, other: "EulerElementT2") -> "EulerElementT2":
        if not isinstance(other, EulerElementT2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "EulerElementT2":
        return EulerElementT2(tuple((h, -c) for h, c in self.terms))

    def __mul__(self, scale: int) -> "EulerElementT2":
        if not isinstance(scale, int) or isinstance(scale, bool):
            return NotImplemented
        return EulerElementT2(tuple((h, scale * c) for h, c in self.terms))

    __rmul__ = __mul__

    def star(self, other: "EulerElementT2") -> "EulerElementT2":
        """Ring product, extended bilinearly from generator products.

        A pair whose dimensions sum to less than 2 is zero by the grading
        alone, so it never reaches the generator product."""
        if not isinstance(other, EulerElementT2):
            raise TypeError(f"cannot multiply EulerElementT2 by {type(other).__name__}")
        return EulerElementT2(
            (h0, c1 * c2)
            for h1, c1 in self.terms
            for h2, c2 in other.terms
            if h1.dim + h2.dim >= 2 and (h0 := _generator_product(h1, h2)) is not None
        )

    def project(self, dim: int) -> "EulerElementT2":
        """The part supported on subgroups of the given dimension."""
        if dim not in (0, 1, 2):
            raise ValueError(f"dimension must be 0, 1, or 2, got {dim!r}")
        return EulerElementT2(tuple((h, c) for h, c in self.terms if h.dim == dim))

    def __str__(self) -> str:
        return format_element(self)


@lru_cache(maxsize=1 << 14)
def _generator_product(h1: TorusSubgroup, h2: TorusSubgroup) -> TorusSubgroup | None:
    """Product of two orbit-class generators, or None when it vanishes."""
    meet = h1.intersect(h2)
    if h1.dim + h2.dim == 2 + meet.dim:
        return meet
    return None


def _format_terms(terms: Iterable[tuple[object, int]]) -> str:
    # 'c1*g1 + c2*g2 - c3*g3', with no terms printing as '0'.
    parts: list[str] = []
    for label, coeff in terms:
        if not parts:
            parts.append(f"{coeff}*{label}")
        elif coeff < 0:
            parts.append(f" - {-coeff}*{label}")
        else:
            parts.append(f" + {coeff}*{label}")
    return "".join(parts) or "0"


def format_element(element: EulerElementT2) -> str:
    """Render an element in the textual grammar; the zero element is '0'."""
    return _format_terms(element.terms)


@dataclass(frozen=True)
class EulerElementS1:
    """An additive element of the circle's Euler ring.

    `fixed` is the coefficient of the full-orbit class; `finite` maps the
    order k >= 1 of a finite cyclic isotropy group to its coefficient.
    """

    fixed: int = 0
    finite: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_coeff(self.fixed)
        raw = self.finite
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged: dict[int, int] = {}
        for order, coeff in items:
            if not isinstance(order, int) or isinstance(order, bool) or order < 1:
                raise ValueError(f"isotropy order must be a positive int, got {order!r}")
            merged[order] = merged.get(order, 0) + _check_coeff(coeff)
        cleaned = tuple(sorted((k, c) for k, c in merged.items() if c))
        object.__setattr__(self, "finite", cleaned)

    @classmethod
    def zero(cls) -> "EulerElementS1":
        return cls()

    @classmethod
    def identity(cls) -> "EulerElementS1":
        """The full-orbit class."""
        return cls(fixed=1)

    @classmethod
    def cyclic(cls, order: int) -> "EulerElementS1":
        """The class of the orbit type with cyclic isotropy of the given order."""
        return cls(0, ((order, 1),))

    def __bool__(self) -> bool:
        return bool(self.fixed or self.finite)

    def __add__(self, other: "EulerElementS1") -> "EulerElementS1":
        if not isinstance(other, EulerElementS1):
            return NotImplemented
        return EulerElementS1(self.fixed + other.fixed, self.finite + other.finite)

    def __sub__(self, other: "EulerElementS1") -> "EulerElementS1":
        if not isinstance(other, EulerElementS1):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "EulerElementS1":
        return EulerElementS1(-self.fixed, tuple((k, -c) for k, c in self.finite))

    def __mul__(self, scale: int) -> "EulerElementS1":
        if not isinstance(scale, int) or isinstance(scale, bool):
            return NotImplemented
        return EulerElementS1(scale * self.fixed, tuple((k, scale * c) for k, c in self.finite))

    __rmul__ = __mul__

    def __str__(self) -> str:
        fixed = [("S1", self.fixed)] if self.fixed else []
        return _format_terms(fixed + [(f"Z{k}", c) for k, c in self.finite])


def embed_s1_to_t2(element: EulerElementS1) -> EulerElementT2:
    """Embedding induced by collapsing the loop direction of the torus.

    The full-orbit class maps to the identity and the class with isotropy
    of order k maps to the kernel of the character (k, 0).
    """
    return EulerElementT2(
        [(TorusSubgroup.full(), element.fixed)]
        + [(TorusSubgroup.kernel(order, 0), coeff) for order, coeff in element.finite]
    )
