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

`build_report` forms the index once per level in closed form.  The
degree of minus-identity on a representation is sign * (T - B1 + B1 *
B1 / 2), with B1 the sum of k*H over its characters of multiplicity k, by
the grading (see `representations`); on the null modes the sign is +1.
Write d0 = n0 * T + D1 for the embedded circle degree, D1 the sum of
c_i H(i,0), and B1b for the B1 of the space below the level.  The grading
kills every product of three one-dimensional classes, so the three-factor
product collapses to

    d0 * (deg(-Id, null modes) - T) + n0 * B1r * B1b
        = n0 * (-B1r + B1r * B1r / 2 + B1r * B1b) - D1 * B1r,

and `build_report` checks phi or phi_i of it at run time, which also shows
it nonzero.  The cross term n0 * B1r * B1b is formed from the runs of
characters below the level that `spectral._below_runs` names, the
characters (s, n), lo <= n < hi, of one multiplicity, with no
representation and no subgroup built for that space; each character
below the level lies in one run, so it meets each null character once.
Against a null character (a, b), det = a*n - b*s vanishes for every n
when a == s == 0, so that run is skipped in O(1), and otherwise for at
most one n, where the line product returns None.  The cross terms go
into the dict of the terms of d0 * (deg(-Id, null modes) - T), and the
index is built from that dict once.  The full three-factor product is
kept as an oracle in the test suite.

The classification upgrades a nonzero index to a non-compactness
guarantee when the critical point is unique: "c1" when n0 != 0, "c2"
when n0 == 0 and the finite-isotropy coefficients all share one sign, and
"sum_obstruction", issued by `torbif classify`, when no zero-sum subset
of the enumerated levels' indices contains the level, which by the
argument above is every level.  Otherwise the global alternative stands
unsharpened.  `torbif classify` still runs `any_zero_sum_subset` as a
runtime check of that argument and fails if it finds a subset.  The
search walks the subsets depth first in ascending lambda_sq and drops a
partial sum as soon as one of its terms has no later index holding that
generator with the opposite sign.  On level indices that cuts each
"include" branch as soon as it is entered, one addition per level; the
walk is exponential only on tables that callers pass in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .euler import EulerElementS1, EulerElementT2, _from_rows, _generator_product, embed_s1_to_t2
from .rationals import rational_to_json
from .representations import S1Representation, deg_minus_id_t2
from .spectral import (
    AssumptionReport,
    BifurcationLevel,
    CriticalPointProblem,
    InvalidLevel,
    SpectralDatum,
    _below_runs,
    resonant_space,
    validate,
)
from .subgroups import TorusSubgroup


# The most line products `build_report` makes for the cross term at one
# level, so that a huge --k on a degree with a full-orbit term ends in an
# error, not in minutes of work and an output that grows with k.
_MAX_LINE_PRODUCTS = 1_000_000


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


@dataclass(frozen=True)
class BifurcationReport:
    """Everything computed for one level."""

    level: BifurcationLevel
    index: EulerElementT2
    nontrivial: bool
    certificate: Optional[Certificate]
    classification: Classification

    def to_dict(self) -> dict:
        return {
            "level": {
                "k": self.level.k,
                "alpha": rational_to_json(self.level.alpha),
                "lambda_sq": rational_to_json(self.level.lambda_sq),
            },
            "index": [
                {"generator": str(subgroup), "coeff": coeff}
                for subgroup, coeff in self.index.terms
            ],
            "nontrivial": self.nontrivial,
            "certificate": self.certificate.value if self.certificate else None,
            "classification": self.classification.value,
        }


def deg_h0(problem: CriticalPointProblem) -> EulerElementT2:
    """The circle degree of the negated gradient, embedded in the torus ring."""
    return embed_s1_to_t2(problem.deg_s1)


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
    """Assemble the full per-level report in one pass.

    The index is the closed form of the module docstring, so the space
    below the level enters only when n0 != 0, and then only through its
    runs of characters in the cross term n0 * B1r * B1b: its full degree
    would square a sum whose length grows with k, and a run parallel to a
    null character costs O(1).  A cross term that needs more than
    `_MAX_LINE_PRODUCTS` line products raises ValueError before it makes
    any.  Its phi or phi_i must be -n0 or -c_i times the null-mode
    multiplicity.  The classification is the problem-wide one; the
    sum-obstruction upgrade needs the indices of all levels and is made by
    the caller that has them.
    """
    resonant = resonant_space(problem, level)
    if not resonant:
        raise InvalidLevel(
            f"lambda_sq = {level.lambda_sq} resonates with no positive eigenvalue"
        )
    checks = validate(problem)
    if not checks.nonzero_degree:
        return BifurcationReport(
            level=level,
            index=EulerElementT2.zero(),
            nontrivial=False,
            certificate=None,
            classification=Classification.NOT_APPLICABLE,
        )
    index = deg_h0(problem).star(deg_minus_id_t2(resonant) - EulerElementT2.identity())
    n0 = problem.deg_s1.fixed
    if n0:
        certificate, coeff = Certificate.FIXED_COEFFICIENT, n0
        acc = {h.rows: c for h, c in index.terms}
        runs = _below_runs(problem, level)
        # a null character (a, b) meets every run but, when a == 0, the
        # runs of speed 0, which are parallel to it and skipped
        span = sum(hi - lo for _, lo, hi, _ in runs)
        parallel = sum(hi - lo for m, lo, hi, _ in runs if m == 0)
        products = sum(span - parallel * (null[0] == 0) for null, _ in resonant.characters)
        if products > _MAX_LINE_PRODUCTS:
            raise ValueError(
                f"the index at lambda_sq = {level.lambda_sq} needs {products} line"
                f" products, more than the limit of {_MAX_LINE_PRODUCTS}"
            )
        for null, k in resonant.characters:
            for m, lo, hi, weight in runs:
                if null[0] == m == 0:
                    continue
                c = n0 * k * weight
                for n in range(lo, hi):
                    rows = _generator_product(null, (m, n))
                    if rows is not None:
                        acc[rows] = acc.get(rows, 0) + c
        index = _from_rows(acc)
        phi = sum(c for h, c in index.terms if h.dim == 1)
    else:
        certificate = Certificate.SAME_SIGN
        i, coeff = problem.deg_s1.finite[0]
        phi = sum(c for h, c in index.terms if h.dim == 0 and h.rows[0] == (i, 0))
    if phi != -coeff * sum(k for _, k in resonant.characters):
        raise RuntimeError("certificate path disagrees with direct evaluation")
    return BifurcationReport(
        level=level,
        index=index,
        nontrivial=True,
        certificate=certificate,
        classification=_classification(problem, checks),
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
    return _classification(problem, validate(problem))


def _classification(problem: CriticalPointProblem, checks: AssumptionReport) -> Classification:
    if not (problem.unique_critical_point and checks.ok):
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
    squares = [lvl.lambda_sq for lvl in pool]
    if len(set(squares)) != len(squares):
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
    last: dict[tuple[TorusSubgroup, bool], int] = {}
    for pos, index in enumerate(indices):
        for h, c in index.terms:
            last[(h, c > 0)] = pos
    stack: list[tuple[int, EulerElementT2, tuple[int, ...]]] = [(0, base, ())]
    while stack:
        pos, acc, picked = stack.pop()
        if any(last.get((h, c < 0), -1) < pos for h, c in acc.terms):
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
    others = sorted((lvl for lvl in pool if lvl != anchor), key=lambda l: l.lambda_sq)
    combo = _zero_sum_dfs(table[anchor], others, table)
    if combo is None:
        return False, None
    witness = tuple(sorted((anchor,) + combo, key=lambda l: l.lambda_sq))
    return True, witness


def any_zero_sum_subset(
    problem: CriticalPointProblem,
    levels: Iterable[BifurcationLevel],
    indices: Optional[Mapping[BifurcationLevel, EulerElementT2]] = None,
) -> Optional[tuple[BifurcationLevel, ...]]:
    """First nonempty subset of `levels` whose indices sum to zero, or None.

    Equivalent to asking `exists_zero_sum_subset` with every possible
    anchor, since a zero-sum subset contains each of its own members.
    """
    pool = sorted(levels, key=lambda l: l.lambda_sq)
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
