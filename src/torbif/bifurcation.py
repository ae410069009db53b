"""Bifurcation indices, nontriviality certificates, and continuum classification.

The index of a candidate level is the Euler-ring product of three factors:
the embedded degree of the negated gradient on constant loops, the degree
of minus-identity on the strictly negative part of the second variation
below the level, and the degree of minus-identity on the null modes minus
the identity.  A nonzero index forces a global continuum of nonstationary
periodic solutions through the level.  The middle factor is a unit, so
nontriviality only depends on the other two; the certificate records which
structural argument establishes it.

At a valid level the null modes form a nonempty space without trivial
part whose characters all have loop component n >= 1.  Write B1r for the
sum of k*H over those characters of multiplicity k, n0 for the coefficient
of the full-orbit class in the circle degree and c_i for its finite
coefficients.  Every valid level takes one of two paths:

* n0 != 0 ("FixedCoefficientPath"): the dimension-one part of the index
  is -n0 * B1r, so phi, the sum of the coefficients of the dimension-one
  terms, is -n0 times the sum of the multiplicities k.
* n0 == 0 ("SameSignPath"): the index is (sum of c_i H(i,0)) * (-B1r),
  and H(i,0) * H(m,n) = F(i,0;m mod i,n) for n >= 1.  For one i with
  c_i != 0, phi_i, the sum of the coefficients of the terms whose rows
  begin with (i,0), is -c_i times the sum of the multiplicities k.

So every term that phi or phi_i counts has the sign of -n0 or -c_i, the
same at every level.  The index is never zero, and since phi and phi_i
are additive, no nonempty subset of a valid problem's level indices sums
to zero either.

A report forms the index once per level in closed form.  The
degree of minus-identity on a representation is sign * (T - B1 + B1 *
B1 / 2), with B1 the sum of k*H over its characters of multiplicity k, by
the grading (see `representations`); on the null modes the sign is +1.
Write d0 = n0 * T + D1 for the embedded circle degree, D1 the sum of
c_i H(i,0), B1b for the B1 of the space below the level, deg for the
degree on the null modes and deg_1 = -B1r for its line part.  The grading
kills every product of three one-dimensional classes, so the three-factor
product collapses to

    n0 * (deg - T) + deg_1 * (D1 - n0 * B1b)
        = n0 * (-B1r + B1r * B1r / 2 + B1r * B1b) - D1 * B1r,

and each report checks phi or phi_i of it at run time, which also shows
it nonzero.  `_reports` forms the reports of a problem's ascending
levels in one walk (`spectral._Walk`): the classification and the
eigenvalues' speeds are made once per problem, and each level reads only
its own null modes; `build_report` is that walk over one level.

The product deg_1 * D1 needs no loop and no gcd: a null character (a, b)
has b >= 1, so its product with H(i,0) is F(i,0;a mod i,b), one term per
null character and class of D1 (`euler._cyclic_products`).  When
n0 == 0 that is all: the level makes no other line product.  The
product -n0 * deg_1 * B1b is one loop of line products over runs of
characters of one weight: below the level `spectral._Walk.runs` names the
runs of characters (s, n), lo <= n < hi, with no representation and no
subgroup built for that space; each character below the level lies in
one run, so it meets each null character once.

The loop makes half of those products and reads the other half off them,
by the reflection sigma: (z, w) -> (conj z, w) of the torus, which maps
the character (m, n) to (-m, n).  The null modes and the space below are
the loop space of a real representation of the circle, so each holds
(m, n) and (-m, n) with one multiplicity: a null character (a, b) and
(-a, b) have one coefficient in deg_1, and the runs of speeds s and -s
are the same runs.  sigma maps the kernels of (a, b) and (s, n) to those
of (-a, b) and (-s, n), so it maps the product of the first pair, the
key (2, A, B, D), to that of the second, the key (2, A, -B mod A, D):
the determinant a*n - b*s changes sign and the extended gcd of (b, n)
stays.  So a null character with a > 0 meets the runs of speed s >= 0,
one with a <= 0 only those of speed s > 0, and each pair visited writes
its key and its mirror key (`euler._line_products`).  Every product is
written exactly once.  A pair (a, b) x (s, n) is visited when a > 0 and
s >= 0, or when a <= 0 and s > 0.  Otherwise either a == s == 0, and the
pair is parallel and zero, or its mirror (-a, b) x (-s, n) is visited:
-a > 0 and -s >= 0 when a < 0 and s <= 0, and -a <= 0 and -s > 0 when
a >= 0 and s < 0.  A pair is its own mirror only when a == s == 0, so
no product is written twice.  Only runs of speed s >= 0 are built, those
of speed 0 only when a null character has a > 0: against (a, b), det =
a*n - b*s vanishes for every n when a == s == 0, and otherwise for at
most one n, where no term is made.  A null character's b is its mode,
so the loop takes the extended gcd of (b, n) once per mode and n, in a
table built per level only as far as the top of the runs a null
character meets.  Then `euler._line_products` makes that character's
products with those runs, run by run, with no call per product.  Every
term goes into one dict keyed by term keys, and the index is built from
it once; phi and phi_i are read from the one slice of its sorted terms
that they count.  The full three-factor product is kept as an oracle in
the test suite, and a property test checks that the index is fixed by
sigma.

The classification upgrades a nonzero index to a non-compactness
guarantee when the critical point is unique: "c1" when n0 != 0, "c2"
when n0 == 0 and the finite-isotropy coefficients all share one sign, and
"sum_obstruction", issued by `torbif classify`, when no zero-sum subset
of the enumerated levels' indices contains the level, which by the
argument above is every level.  Otherwise the global alternative stands
unsharpened.  `torbif classify` still runs `any_zero_sum_subset` as a
runtime check of that argument and fails if it finds a subset.  The
search walks the subsets depth first in ascending lambda_sq, sorted by
the exact integer key of `spectral._sorted_by` with no `Fraction`
comparison, and drops a partial sum as soon as one of its terms has no
later index holding that generator with the opposite sign.  On level
indices that cuts each "include" branch as soon as it is entered, one
addition per level; the walk is exponential only on tables that callers
pass in.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._frozen import Frozen
from .euler import (
    EulerElementS1,
    EulerElementT2,
    Key,
    _check_line_products,
    _check_square_products,
    _cyclic_products,
    _from_keys,
    _line_products,
    element_to_json,
)
from .representations import S1Representation, deg_minus_id_t2
from .spectral import (
    BifurcationLevel,
    CriticalPointProblem,
    InvalidLevel,
    SpectralDatum,
    _level_json,
    _sorted_by,
    _Walk,
    validate,
)
from .subgroups import _xgcd


class Certificate(enum.Enum):
    """How nontriviality of an index was established."""

    FIXED_COEFFICIENT = "FixedCoefficientPath"
    SAME_SIGN = "SameSignPath"


class Classification(enum.Enum):
    """What the computed data implies about bifurcating continua."""

    NONCOMPACT_FIXED_COEFFICIENT = "NonCompactGuaranteed(c1)"
    NONCOMPACT_UNIFORM_SIGN = "NonCompactGuaranteed(c2)"
    NONCOMPACT_SUM_OBSTRUCTION = "NonCompactGuaranteed(sum_obstruction)"
    ALTERNATIVE = "Alternative"
    NOT_APPLICABLE = "NotApplicable"


class BifurcationReport(Frozen):
    """Everything computed for one level."""

    _fields = ("level", "index", "nontrivial", "certificate", "classification")

    def __init__(
        self,
        level: BifurcationLevel,
        index: EulerElementT2,
        nontrivial: bool,
        certificate: Optional[Certificate],
        classification: Classification,
    ) -> None:
        vars(self).update(
            level=level,
            index=index,
            nontrivial=nontrivial,
            certificate=certificate,
            classification=classification,
        )

    def to_dict(self) -> dict:
        return {
            "level": _level_json(self.level),
            "index": element_to_json(self.index),
            "nontrivial": self.nontrivial,
            "certificate": self.certificate.value if self.certificate else None,
            "classification": self.classification.value,
        }


def bif_index(problem: CriticalPointProblem, level: BifurcationLevel) -> EulerElementT2:
    """The bifurcation index of the level."""
    return build_report(problem, level).index


def certify_nontrivial(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> tuple[bool, Optional[Certificate]]:
    """Decide whether the index is nonzero and say which argument shows it.

    Returns (False, None) when the structural assumptions fail (no positive
    eigenvalue or zero degree); the report layer turns that into a
    NotApplicable classification.  Otherwise the index is formed and its
    one-signed functional, phi or phi_i, checked against the value the
    certificate's path predicts.
    """
    if not validate(problem).ok:
        return False, None
    report = build_report(problem, level)
    return report.nontrivial, report.certificate


def build_report(problem: CriticalPointProblem, level: BifurcationLevel) -> BifurcationReport:
    """Assemble the full report of one level: the walk of `_reports` over
    that level alone."""
    return next(_reports(problem, [level]))


def _reach(runs: list) -> tuple[list, int, int]:
    # runs (s, lo, hi, k) with their span, the characters they hold, and
    # the top hi of their modes
    return runs, sum(hi - lo for _, lo, hi, _ in runs), max((hi for _, _, hi, _ in runs), default=0)


def _reports(
    problem: CriticalPointProblem, levels: Sequence[BifurcationLevel]
) -> Iterator[BifurcationReport]:
    """The reports of distinct levels in ascending order, in one walk.

    The index is n0 * (deg - T) + deg_1 * (D1 - n0 * B1b), the closed form
    of the module docstring: deg_1 * D1 term by term in closed form, and
    deg_1 times the runs of -n0 * B1b of speed s >= 0 in one loop, run by
    run, each pair with its mirror image.  The space below a level enters
    only when n0 != 0, and then only through the runs its null characters
    meet: its full degree would square a sum whose length grows with k,
    and a run parallel to every null character is never built.  When the
    c null characters need more than `euler._MAX_LINE_PRODUCTS` line
    products, in their degree one per unordered pair of non-parallel
    characters, c * (c - 1) / 2 less c_g * (c_g - 1) / 2 for each group of
    c_g characters of one primitive direction, as `star` makes them
    (`euler._check_square_products`), or in the index the keys written,
    one per class of D1 and two per pair visited in a run,
    `euler._check_line_products` raises ValueError before any is made,
    and spells its message only then; by the reflection the index's count
    is the number of pairs of a null character with a class of D1 or a
    character below.  When n0 == 0 the degree's terms are not copied at
    all: its part n0 * (deg - T) vanishes, and no run and no gcd is made.
    Its phi or phi_i must be -n0 or -c_i times the null-mode
    multiplicity.  The classification is the problem-wide one, made once;
    the sum-obstruction upgrade needs the indices of all levels and is
    made by the caller that has them.  A resonant level shows a positive
    eigenvalue, so only the degree is read here: `validate` runs only at
    the API edge, in `classify_noncompact`, `certify_nontrivial` and
    `cli`.
    """
    walk = _Walk(problem)
    deg_s1 = problem.deg_s1
    n0, d1 = deg_s1.fixed, deg_s1.finite
    classification = _classification(problem)
    # the speeds s >= 0 and s > 0 of the runs below a level; those of -s
    # are their mirror images
    nonnegative = [s for s in walk.by_speed if s >= 0] if n0 else []
    positive = [s for s in nonnegative if s]
    # the runs below a level that a null character (a, b) meets, keyed by
    # a > 0, with their span and their top hi
    met = {True: _reach([]), False: _reach([])}
    found, first = walk.null_modes([lvl.lambda_sq for lvl in levels])
    for p, (level, modes) in enumerate(zip(levels, found)):
        if not modes:
            raise InvalidLevel(
                f"lambda_sq = {level.lambda_sq} resonates with no positive eigenvalue"
            )
        if not deg_s1:
            yield BifurcationReport(
                level=level,
                index=EulerElementT2.zero(),
                nontrivial=False,
                certificate=None,
                classification=Classification.NOT_APPLICABLE,
            )
            continue
        resonant = walk.resonant(modes)
        chars = len(resonant.characters)
        _check_square_products(
            resonant.characters,
            "the degree on the null modes at lambda_sq = {} needs {count} line products"
            " for {} characters",
            level.lambda_sq,
            chars,
        )
        if n0:
            # the runs of speed 0 are built only for a null character with
            # a > 0, the one kind that meets them
            speeds = nonnegative if any(a > 0 for (a, _), _ in resonant.characters) else positive
            runs = walk.runs(level.lambda_sq, speeds, first if p == 0 else {})
            met = {True: _reach(runs), False: _reach([run for run in runs if run[0]])}
        _check_line_products(
            chars * len(d1) + 2 * sum(met[null[0] > 0][1] for null, _ in resonant.characters),
            "the index at lambda_sq = {} needs {count} line products",
            level.lambda_sq,
        )
        # deg is T, then -B1r with one term per null character, then
        # B1r * B1r / 2 (`deg_minus_id_t2`), so n0 * (deg - T) is n0 times
        # all but its first term, and nothing when n0 == 0
        deg = deg_minus_id_t2(resonant)._terms
        acc = {key: n0 * c for key, c in deg[1:]} if n0 else {}
        # _xgcd(b, n) once per null mode b and n >= 1, as far as the runs met
        # reach; no run starts below n = 1, so index 0 holds a placeholder
        gcds: dict[int, list] = {}
        for (_, a, b), c in deg[1 : chars + 1]:
            _cyclic_products(acc, a, b, c, d1)
            group, _, top = met[a > 0]
            if group:
                g = gcds.setdefault(b, [None])
                g.extend(_xgcd(b, n) for n in range(len(g), top))
                _line_products(acc, a, b, -n0 * c, group, g)
        index = _from_keys(acc)
        if n0:
            certificate, coeff, block = Certificate.FIXED_COEFFICIENT, n0, ((1,), (2,))
        else:
            certificate = Certificate.SAME_SIGN
            i, coeff = d1[0]
            block = ((2, i), (2, i + 1))
        # the terms phi or phi_i counts are one slice of the sorted terms,
        # since a key prefix sorts before every key it begins
        start, stop = (bisect_left(index._terms, (prefix,)) for prefix in block)
        if sum(c for _, c in index._terms[start:stop]) != -coeff * sum(k for _, k in resonant.characters):
            raise RuntimeError("certificate path disagrees with direct evaluation")
        yield BifurcationReport(
            level=level,
            index=index,
            nontrivial=True,
            certificate=certificate,
            classification=classification,
        )


def classify_noncompact(problem: CriticalPointProblem) -> Classification:
    """Problem-wide classification of the bifurcating continua.

    Non-compactness is guaranteed only when the critical point is unique
    and the structural assumptions hold: with a nonzero full-orbit
    coefficient ("c1"), or with uniformly signed finite-isotropy
    coefficients ("c2").  This function never emits the sum-obstruction
    tag; `torbif classify` (`cli._cmd_classify`) issues it at every
    enumerated level once its zero-sum check has run, since no subset of
    level indices cancels (see the module docstring).  The indices
    themselves use the identity H * H = 0 for one-dimensional classes H,
    which the test suite checks.
    """
    if not validate(problem).ok:
        return Classification.ALTERNATIVE
    return _classification(problem)


def _classification(problem: CriticalPointProblem) -> Classification:
    # The classification of a problem whose assumptions hold.
    if not problem.unique_critical_point:
        return Classification.ALTERNATIVE
    if problem.deg_s1.fixed:
        return Classification.NONCOMPACT_FIXED_COEFFICIENT
    coeffs = [c for _, c in problem.deg_s1.finite]
    if coeffs and (all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs)):
        return Classification.NONCOMPACT_UNIFORM_SIGN
    return Classification.ALTERNATIVE


def _index_table(
    problem: CriticalPointProblem,
    pool: list[BifurcationLevel],
    indices: Optional[Mapping[BifurcationLevel, EulerElementT2]],
) -> dict[BifurcationLevel, EulerElementT2]:
    if len(set(pool)) != len(pool):
        raise ValueError("levels must be pairwise distinct")
    table: dict[BifurcationLevel, EulerElementT2] = dict(indices or {})
    for lvl in pool:
        if lvl not in table:
            table[lvl] = bif_index(problem, lvl)
    return table


def _zero_sum_dfs(
    base: EulerElementT2,
    pool: list[BifurcationLevel],
    table: Mapping[BifurcationLevel, EulerElementT2],
) -> Optional[tuple[BifurcationLevel, ...]]:
    # Depth-first over subsets with an accumulated partial sum, smallest
    # frequencies first and "include" before "exclude", so the first
    # witness found is deterministic.  A term (h, c) of the partial sum can
    # only be cancelled by a later index holding h with the opposite sign,
    # so a node at `pos` is dead once some term has no such index at `pos`
    # or later; pruning it cuts only subtrees without a witness.  At the end
    # of the pool every term is dead, so a live leaf has a zero sum; the
    # all-exclude leaf comes last and is live only for a zero `base`.  The
    # walk keeps its own stack, so a long pool cannot exhaust recursion.
    indices = [table[lvl] for lvl in pool]
    last: dict[tuple[Key, bool], int] = {}
    for pos, index in enumerate(indices):
        for key, c in index._terms:
            last[(key, c > 0)] = pos
    stack: list[tuple[int, EulerElementT2, tuple[int, ...]]] = [(0, base, ())]
    while stack:
        pos, acc, picked = stack.pop()
        if any(last.get((key, c < 0), -1) < pos for key, c in acc._terms):
            continue
        if pos == len(indices):
            return tuple(pool[i] for i in picked)
        stack.append((pos + 1, acc, picked))
        stack.append((pos + 1, acc + indices[pos], picked + (pos,)))
    return None


def exists_zero_sum_subset(
    problem: CriticalPointProblem,
    levels: Iterable[BifurcationLevel],
    anchor: BifurcationLevel,
    indices: Optional[Mapping[BifurcationLevel, EulerElementT2]] = None,
) -> tuple[bool, Optional[tuple[BifurcationLevel, ...]]]:
    """Search for a subset of `levels` containing `anchor` whose indices
    sum to zero.

    A compact continuum would force such a cancellation over the levels it
    meets, so an exhaustive `False` certifies non-compactness relative to
    the supplied candidate set.  `indices` may supply precomputed indices
    (any missing levels are computed on demand).  Returns the verdict and
    a witness subset sorted by frequency when one exists.

    On a problem's own indices the answer is always `False`, with at most
    one addition per level (see the module docstring); a witness, and the
    exponential worst case, come only from tables passed in `indices`.
    """
    pool = list(levels)
    if anchor not in pool:
        raise ValueError("anchor must be one of the supplied levels")
    table = _index_table(problem, pool, indices)
    others = _sorted_by((lvl for lvl in pool if lvl != anchor), lambda l: l.lambda_sq)
    combo = _zero_sum_dfs(table[anchor], others, table)
    if combo is None:
        return False, None
    return True, tuple(_sorted_by((anchor,) + combo, lambda l: l.lambda_sq))


def any_zero_sum_subset(
    problem: CriticalPointProblem,
    levels: Iterable[BifurcationLevel],
    indices: Optional[Mapping[BifurcationLevel, EulerElementT2]] = None,
) -> Optional[tuple[BifurcationLevel, ...]]:
    """First nonempty subset of `levels` whose indices sum to zero, or None.

    Equivalent to asking `exists_zero_sum_subset` with every possible
    anchor, since a zero-sum subset contains each of its own members.
    """
    pool = _sorted_by(levels, lambda l: l.lambda_sq)
    table = _index_table(problem, pool, indices)
    return _zero_sum_dfs(EulerElementT2.zero(), pool, table) or None


def example_problem() -> CriticalPointProblem:
    """The built-in worked example.

    A two-degree-of-freedom potential whose Hessian at the origin has the
    eigenvalue 0 on a plane splitting as trivial plus speed-one rotation,
    and the eigenvalue 2 on a trivial line; the negated gradient has
    circle degree equal to the class with trivial cyclic isotropy, and the
    origin is the only critical point.
    """
    spectra = (
        SpectralDatum(Fraction(0), S1Representation(trivial=1, rotating={1: 1})),
        SpectralDatum(Fraction(2), S1Representation(trivial=1)),
    )
    return CriticalPointProblem(
        spectra=spectra,
        deg_s1=EulerElementS1.cyclic(1),
        unique_critical_point=True,
    )
