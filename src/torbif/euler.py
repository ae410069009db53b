"""Exact arithmetic in the Euler rings of the 2-torus and the circle.

The Euler ring of T^2 is the free Z-module on the orbit classes of closed
subgroups.  The product of two generators is the class of the intersection
when the dimensions are additive,

    dim H1 + dim H2 == 2 + dim (H1 n H2),

and zero otherwise; the class of the full torus is the multiplicative
identity.  Grading by subgroup dimension, products of two one-dimensional
classes land in degree zero and everything below degree one multiplies to
zero, which makes the non-identity part of any element nilpotent of order
three.  So `star` splits each operand by dimension once: the full-torus
term scales the other operand, and only pairs of two lines reach the
closed form for the product of two lines, which works on their raw
characters and the extended gcd of their second coordinates and returns
the key of the product.  Parallel lines multiply to zero, so `star`
groups each operand's lines by primitive direction (`_by_direction`) and
pairs only lines of two groups.  Two lines (a, n) and (m, n) of one mode
need no gcd, since the extended gcd of (n, n) is (n, 0, 1): their
product F(|a-m|,0;m mod |a-m|,n) is written inline.  When all the lines
of a square share one mode n >= 1, no two of them are parallel (det =
(a - m) * n), so `star` pairs them term by term with no grouping; lines of
mode 0 all have the direction (1, 0) and square to zero.  Other pairs take
the closed form, which has two forms.  The pair form, the cached
`_generator_product`, serves `star`; it tests for parallel lines before
it takes a gcd.  The run form `_line_products` serves the bifurcation
index: it multiplies one line against whole runs of characters (s, n),
lo <= n < hi, with the products written inline, and takes the run's
weight and b*s once per run, so no call is made per product.  It writes
mirror pairs: with each product of the kernels of (a, b) and (s, n) it
writes that of (-a, b) and (-s, n), the image under the reflection
(m, n) -> (-m, n), whose key it reads off the first (see `bifurcation`).
The product of a line with a class H(i,0) needs neither form: it is
F(i,0;a mod i,b) in closed form (`_cyclic_products`).  There are two
forms because `star` still forms B1r * B1r on the index's path (see
ROADMAP item 2), as a square that makes each unordered pair of
non-parallel lines once; once that product joins the index's loop,
`star` leaves that path and the pair form serves only API callers.
Property tests tie the run form, on each pair and its mirror, and the
closed forms to the pair form, and `star` to the product of every pair
of terms through their intersection.
Elements are canonically sorted sparse integer combinations, so equality
is structural and all arithmetic is exact.  An element keeps nonzero
(key, coefficient) pairs, each key one flat tuple of ints: (0,) for T,
(1, m, n) for H(m,n), (2, a, b, d) for F(a,0;b,d).  Plain tuple order on
keys is the printed order, (len(rows), rows) on canonical rows, so
`_from_keys` builds an element from one dict by sorting its keys alone,
with no (key, coefficient) pair compared, and reads each coefficient once
to drop the zeros.  `_from_terms` skips even that for a caller whose terms
are sorted and nonzero by construction, as `_frozen._trusted` does for
the other value types: `representations.deg_minus_id_t2` alone uses it,
for the degree it assembles in grade order.  Rows and subgroups appear
only at the API edge: the public constructor, `terms`, `coefficient` and
`generator`; the rest of the package uses keys, and `subgroups._spelled`
spells all of an element's terms in one pass, one f-string of coefficient
and label per term, when it is printed.

The circle's Euler ring enters only through its additive group, generated
by the full-orbit class and the classes with finite cyclic isotropy, and
through the embedding into the torus ring induced by collapsing the loop
direction: the full-orbit class goes to the identity and the class with
isotropy of order k goes to the kernel of the character (k, 0).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from math import gcd

from ._frozen import Frozen, _at_least, _merged
from .subgroups import Character, TorusSubgroup, _interned, _key, _labels, _rows, _spelled, _xgcd

Key = tuple[int, ...]
_Terms = tuple[tuple[Key, int], ...]

# The most line products made at one level by `bifurcation.build_report`,
# for the unordered pairs of null characters in their degree and again for
# the index's products with D1 and the runs below, or for one product by
# `torbif star`, so that a huge --k, many speeds or long factors end in an
# error, not in minutes of work.  Each of them counts its products first
# and passes the count to `_check_line_products`.
_MAX_LINE_PRODUCTS = 1_000_000


def _check_coeff(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"coefficients must be ints, got {value!r}")
    return value


def _subgroup_key(subgroup: TorusSubgroup) -> Key:
    if not isinstance(subgroup, TorusSubgroup):
        raise TypeError(f"expected TorusSubgroup keys, got {subgroup!r}")
    return _key(subgroup.rows)


class EulerElementT2(Frozen):
    """A finitely supported integer combination of torus orbit classes.

    `EulerElementT2(terms)` accepts a mapping or an iterable of (subgroup,
    coefficient) pairs; like terms merge and zero coefficients drop.
    """

    _fields = ("_terms",)

    def __new__(cls, terms: Iterable | Mapping = ()):
        return _from_keys(_merged(terms, _subgroup_key, _check_coeff))

    @property
    def terms(self) -> tuple[tuple[TorusSubgroup, int], ...]:
        """The (subgroup, coefficient) pairs, by descending dimension and
        then by rows."""
        return tuple((_interned(_rows(key)), c) for key, c in self._terms)

    @classmethod
    def zero(cls) -> "EulerElementT2":
        return _from_keys({})

    @classmethod
    def identity(cls) -> "EulerElementT2":
        """The class of the full torus, the ring identity."""
        return _from_keys({(0,): 1})

    @classmethod
    def generator(cls, subgroup: TorusSubgroup) -> "EulerElementT2":
        return cls(((subgroup, 1),))

    def coefficient(self, subgroup: TorusSubgroup) -> int:
        return dict(self._terms).get(_key(subgroup.rows), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "EulerElementT2") -> "EulerElementT2":
        if not isinstance(other, EulerElementT2):
            return NotImplemented
        if not self._terms:
            # elements are immutable; the zero-sum search adds each level's
            # index to zero
            return other
        acc = dict(self._terms)
        for key, c in other._terms:
            acc[key] = acc.get(key, 0) + c
        return _from_keys(acc)

    def __sub__(self, other: "EulerElementT2") -> "EulerElementT2":
        if not isinstance(other, EulerElementT2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "EulerElementT2":
        return _from_keys({key: -c for key, c in self._terms})

    def __mul__(self, scale: int) -> "EulerElementT2":
        if not isinstance(scale, int) or isinstance(scale, bool):
            return NotImplemented
        return _from_keys({key: scale * c for key, c in self._terms})

    __rmul__ = __mul__

    def star(self, other: "EulerElementT2") -> "EulerElementT2":
        """Ring product, extended bilinearly from generator products.

        Each operand is split by dimension once.  Its full-torus term, the
        identity, scales the other operand; of the remaining pairs only
        line x line has total dimension 2, so every other pair is zero by
        the grading and only line pairs reach the generator product.  Two
        parallel lines multiply to zero, so the lines of each operand are
        grouped by primitive direction (`_by_direction`) and only pairs
        across two groups are visited.  The product is commutative, so a
        square `x.star(x)` takes each unordered pair of groups once, with
        twice its coefficient: c * (c - 1) / 2 minus the sum of
        c_g * (c_g - 1) / 2 over the groups, for c lines and c_g in group g.
        Two lines (a, n) and (m, n) of one mode have the extended gcd
        (n, 0, 1) of (n, n), so their product is F(|a - m|,0;m mod |a - m|,n)
        and its key is written inline; other pairs go through
        `_generator_product`.  A square whose lines all share one mode
        n >= 1, as the degree on the null modes of one eigenvalue does, is
        not grouped: det = (a - m) * n, so each group would hold one line,
        and each pair of distinct terms is visited once, in term order.
        The lines are read as their term keys (1, a, b), one block of the
        sorted terms, with no character built.
        All terms go into one dict keyed by term keys, and the result is
        built once from it by `_from_keys`."""
        if not isinstance(other, EulerElementT2):
            raise TypeError(f"cannot multiply EulerElementT2 by {type(other).__name__}")
        t1, below1, lines1 = _split(self._terms)
        t2, _, lines2 = (t1, below1, lines1) if other is self else _split(other._terms)
        acc: dict[Key, int] = {key: t1 * c for key, c in other._terms} if t1 else {}
        if t2:
            for key, c in below1:
                acc[key] = acc.get(key, 0) + t2 * c
        if other is self and len(modes := {key[2] for key, _ in lines1}) == 1 and 0 not in modes:
            # lines (a, n) and (m, n) of one mode n >= 1 have det (a - m) * n,
            # so no two distinct terms are parallel
            for i, ((_, a, n), c1) in enumerate(lines1):
                c1 *= 2
                for (_, m, _), c2 in lines1[i + 1 :]:
                    axis = abs(a - m)
                    key = (2, axis, m % axis, n)
                    acc[key] = acc.get(key, 0) + c1 * c2
            return _from_keys(acc)
        groups = _by_direction(lines1)
        if other is self:
            flat = [line for group in groups.values() for line in group]
            end = 0
        else:
            others = _by_direction(lines2)
        for d, group in groups.items():
            if other is self:
                # a group meets the groups after it, with twice its coefficient
                end += len(group)
                partners, scale = flat[end:], 2
            else:
                partners, scale = [line for d2, g2 in others.items() if d2 != d for line in g2], 1
            for (_, a, b), c1 in group:
                c1 *= scale
                for (_, m, n), c2 in partners:
                    if b == n:
                        axis = abs(a - m)
                        key = (2, axis, m % axis, n)
                    else:
                        key = _generator_product((a, b), (m, n))
                    acc[key] = acc.get(key, 0) + c1 * c2
        return _from_keys(acc)

    def project(self, dim: int) -> "EulerElementT2":
        """The part supported on subgroups of the given dimension."""
        if dim not in (0, 1, 2):
            raise ValueError(f"dimension must be 0, 1, or 2, got {dim!r}")
        return _from_keys({key: c for key, c in self._terms if key[0] == 2 - dim})

    def __str__(self) -> str:
        return format_element(self)


def _split(terms: _Terms) -> tuple[int, _Terms, _Terms]:
    """The coefficient of T, the terms below T and the line terms of an
    element's sorted terms: the line terms are those below T whose keys
    begin with 1, one block since keys sort in plain tuple order."""
    t = terms[0][1] if terms and terms[0][0] == (0,) else 0
    below = terms[1:] if t else terms
    return t, below, below[: bisect_left(below, ((2,),))]


def _by_direction(lines: Iterable[tuple[Key, int]]) -> dict[Character, list[tuple[Key, int]]]:
    """The line terms (key, coefficient) of `lines`, each key (1, a, b) for
    the normalized character (a, b) (n > 0, or n == 0 and m > 0), grouped
    by its primitive direction (a/g, b/g), g = gcd(a, b), in order of
    first appearance: two lines are parallel exactly when they fall in one
    group."""
    groups: dict[Character, list[tuple[Key, int]]] = {}
    for line in lines:
        _, a, b = line[0]
        g = gcd(a, b)
        groups.setdefault((a // g, b // g), []).append(line)
    return groups


def _from_keys(acc: Mapping[Key, int]) -> EulerElementT2:
    """The element with these coefficients, keyed by term keys: the keys
    are sorted in plain tuple order, each coefficient is read once and
    zeros drop."""
    return _from_terms(tuple([(key, c) for key in sorted(acc) if (c := acc[key])]))


def _from_terms(terms: _Terms) -> EulerElementT2:
    """The element with these (key, coefficient) pairs, which must already
    have distinct keys in plain tuple order and nonzero coefficients:
    nothing is checked."""
    element = object.__new__(EulerElementT2)
    object.__setattr__(element, "_terms", terms)
    return element


def _line_products(
    acc: dict[Key, int],
    a: int,
    b: int,
    c: int,
    runs: Iterable[tuple[int, int, int, int]],
    g: Sequence[tuple[int, int, int]],
) -> None:
    """Add c * w times the product of the kernels of (a, b) and (s, n), and
    c * w times that of their mirror images (-a, b) and (-s, n), into
    `acc`, keyed by term keys, for each run (s, lo, hi, w) and each n with
    lo <= n < hi, given g[n] = _xgcd(b, n).

    This is `_generator_product` over every pair of the runs and over its
    mirror image, written out: det = a*n - b*s, no term where det is 0,
    and otherwise the key (2, |det| / d, r, d) with (d, x, y) = g[n] and
    r = x*a + y*s mod |det| / d.  The mirror pair has -det and the same
    extended gcd, so its key is (2, |det| / d, -r mod |det| / d, d)."""
    for s, lo, hi, w in runs:
        cw, bs = c * w, b * s
        for n in range(lo, hi):
            det = a * n - bs
            if det:
                d, x, y = g[n]
                axis = abs(det) // d
                r = (x * a + y * s) % axis
                key, mirror = (2, axis, r, d), (2, axis, -r % axis, d)
                acc[key] = acc.get(key, 0) + cw
                acc[mirror] = acc.get(mirror, 0) + cw


def _cyclic_products(acc: dict[Key, int], a: int, b: int, c: int, finite: Iterable[tuple[int, int]]) -> None:
    """Add c * c_i times the product of the kernels of (a, b) and (i, 0)
    into `acc`, keyed by term keys, for each (i, c_i) of `finite`, given
    b >= 1: in closed form, H(i,0) * H(a,b) = F(i,0;a mod i,b), with no
    gcd taken.  This is `_generator_product((a, b), (i, 0))`, whose det is
    -b*i and whose extended gcd _xgcd(b, 0) is (b, 1, 0)."""
    for i, ci in finite:
        key = (2, i, a % i, b)
        acc[key] = acc.get(key, 0) + c * ci


def _check_line_products(count: int, message: str, *args: object) -> None:
    """Raise ValueError, before any product is made, when `count` line
    products are more than `_MAX_LINE_PRODUCTS`, read at each call.  The
    error says `message.format(*args, count=count)` and the limit; it is
    formatted only when it is raised, so a level that keeps to the bound
    spells no message."""
    if count > _MAX_LINE_PRODUCTS:
        raise ValueError(
            message.format(*args, count=count) + f", more than the limit of {_MAX_LINE_PRODUCTS}"
        )


def _check_square_products(lines: Sequence[tuple[Character, int]], message: str, *args: object) -> None:
    """`_check_line_products` for the square of the sum of c * H over
    these (character, c) lines, which `star` makes from one product per
    unordered pair of non-parallel lines: c * (c - 1) / 2 for c lines, less
    c_g * (c_g - 1) / 2 for each group of c_g lines of one direction
    (`_by_direction`).  The lines are grouped only when all c * (c - 1) / 2
    pairs are over the bound, so a square that keeps to it costs no
    grouping here."""
    count = len(lines) * (len(lines) - 1) // 2
    if count > _MAX_LINE_PRODUCTS:
        groups = _by_direction([((1, *ch), c) for ch, c in lines]).values()
        count -= sum(len(g) * (len(g) - 1) // 2 for g in groups)
    _check_line_products(count, message, *args)


@lru_cache(maxsize=1 << 14)
def _generator_product(ch1: Character, ch2: Character) -> Key | None:
    """The key of the product of the kernels of two nonzero characters,
    or None when the product vanishes, cached.

    For the characters (a, b) and (m, n), in either sign, let det =
    a*n - b*m.  When det is 0 the characters are parallel, the
    intersection is one-dimensional and the product vanishes by the
    dimension rule, so no gcd is taken.  Otherwise the intersection is
    finite and its lattice, spanned by both characters, has index |det|.
    With (d, x, y) = _xgcd(b, n), the gcd d of the second coordinates is
    reached by the lattice vector x*(a, b) + y*(m, n), so the lattice
    meets the first axis in multiples of |det| / d, and its key is
    (2, |det| / d, x*a + y*m mod |det| / d, d) for the canonical rows
    (|det| / d, 0) and (x*a + y*m mod |det| / d, d)."""
    (a, b), (m, n) = ch1, ch2
    det = a * n - b * m
    if det == 0:
        return None
    d, x, y = _xgcd(b, n)
    axis = abs(det) // d
    return (2, axis, (x * a + y * m) % axis, d)


def _join(parts: list[str]) -> str:
    # 'c1*g1 + c2*g2 - c3*g3' from the terms 'c*g', with no terms printing
    # as '0': ' + -' becomes ' - ', which touches only the separators
    # before negative coefficients, since a label never holds ' + '.
    return " + ".join(parts).replace(" + -", " - ") or "0"


def format_element(element: EulerElementT2) -> str:
    """Render an element in the textual grammar; the zero element is '0'."""
    return _join(_spelled(element._terms))


def element_to_json(element: EulerElementT2) -> list[dict]:
    """The terms of an element as JSON objects {"generator": ..., "coeff": ...}."""
    terms = element._terms
    return [{"generator": label, "coeff": c} for (_, c), label in zip(terms, _labels(terms))]


class EulerElementS1(Frozen):
    """An additive element of the circle's Euler ring.

    `fixed` is the coefficient of the full-orbit class; `finite` maps the
    order k >= 1 of a finite cyclic isotropy group to its coefficient.
    """

    _fields = ("fixed", "finite")

    def __init__(self, fixed: int = 0, finite: Iterable | Mapping = ()) -> None:
        _check_coeff(fixed)
        merged = _merged(finite, lambda order: _at_least(order, "isotropy order", 1), _check_coeff)
        cleaned = tuple(sorted((k, c) for k, c in merged.items() if c))
        vars(self).update(fixed=fixed, finite=cleaned)

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
        fixed = [f"{self.fixed}*S1"] if self.fixed else []
        return _join(fixed + [f"{c}*Z{k}" for k, c in self.finite])


def embed_s1_to_t2(element: EulerElementS1) -> EulerElementT2:
    """Embedding induced by collapsing the loop direction of the torus.

    The full-orbit class maps to the identity and the class with isotropy
    of order k maps to the kernel of the character (k, 0).
    """
    acc = {(1, order, 0): coeff for order, coeff in element.finite}
    acc[(0,)] = element.fixed
    return _from_keys(acc)
