"""Bifurcation indices, nontriviality certificates, and continuum classification.

The index of a candidate level is the Euler-ring product of three factors:
the embedded degree of the negated gradient on constant loops, the degree
of minus-identity on the strictly negative part of the second variation
below the level, and the degree of minus-identity on the null modes minus
the identity.  A nonzero index forces a global continuum of nonstationary
periodic solutions through the level.  The middle factor is a unit, so
nontriviality only depends on the other two; the certificate records which
structural argument establishes it.

Writing n0 for the coefficient of the full-orbit class in the circle
degree:

* n0 != 0 ("FixedCoefficientPath"): the dimension-one part of the reduced
  product is n0 times the dimension-one part of the null-mode factor,
  which is a nonzero all-negative combination, so the index cannot vanish.
* n0 == 0 ("SameSignPath"): the reduced product is the product of the
  finite-isotropy part of the degree, supported on kernels of characters
  (i, 0), with that same all-negative combination, supported on kernels
  with positive loop component; for each pair of support generators the
  resulting coefficient is a one-sided sum, hence nonzero.

`build_report` forms the factors and the index once per level and
cross-checks both paths against direct evaluation on those same values.
The degree factors take one factor T - k*H per character of multiplicity
k, which relies on H * H = 0 for one-dimensional classes H (checked in
the test suite).  The index is reduced - reduced_1 * B1, with B1 the sum
of k*H over the characters below the level: the reduced product has no T
term (checked), so by the grading the finite classes of the factor below
the level and reduced_0 * B1 are zero.  The full three-factor product is
kept as an oracle in the test suite.  The classification upgrades a
nonzero index to a non-compactness guarantee when the critical point is
unique: "c1" when n0 != 0, "c2" when n0 == 0 and the finite-isotropy
coefficients all share one sign, and "sum_obstruction", issued by
`torbif classify`, when no zero-sum subset of the enumerated levels'
indices contains the level.  Otherwise the global alternative stands
unsharpened.  The zero-sum search walks the subsets depth first in
ascending lambda_sq and drops a partial sum as soon as one of its terms
has no later index holding that generator with the opposite sign.  This
is linear in the number of levels when each index has a generator of its
own, and exponential in the worst case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .euler import EulerElementS1, EulerElementT2, embed_s1_to_t2
from .rationals import rational_to_json
from .representations import S1Representation, deg_minus_id_t2
from .spectral import (
    BifurcationLevel,
    CriticalPointProblem,
    InvalidLevel,
    SpectralDatum,
    negative_space,
    resonant_pairs,
    resonant_space,
    validate,
)
from .subgroups import TorusSubgroup


class Certificate(enum.Enum):
    """How nontriviality of an index was established."""

    FIXED_COEFFICIENT = "FixedCoefficientPath"
    SAME_SIGN = "SameSignPath"
    DIRECT = "DirectEvaluation"


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
    NotApplicable classification.  Otherwise the certificate path is
    evaluated and cross-checked against direct evaluation.
    """
    if not validate(problem).ok:
        return False, None
    report = build_report(problem, level)
    return report.nontrivial, report.certificate


def build_report(problem: CriticalPointProblem, level: BifurcationLevel) -> BifurcationReport:
    """Assemble the full per-level report in one pass.

    The resonant factor, the reduced product of the degree with the
    null-mode factor, and the index are each formed once, and the
    certificate path is cross-checked against those same values.  The
    index is reduced - reduced_1 * B1 (see the module docstring), and
    reduced_1 = n0 * (null-mode part), so the space below the level is
    formed only when n0 != 0.  The classification is the
    problem-wide one; the sum-obstruction upgrade needs the indices of all
    levels and is made by the caller that has them.
    """
    if not resonant_pairs(problem, level):
        raise InvalidLevel(
            f"lambda_sq = {level.lambda_sq} resonates with no positive eigenvalue"
        )
    if not validate(problem).nonzero_degree:
        return BifurcationReport(
            level=level,
            index=EulerElementT2.zero(),
            nontrivial=False,
            certificate=None,
            classification=Classification.NOT_APPLICABLE,
        )
    d0 = deg_h0(problem)
    kernel_factor = deg_minus_id_t2(resonant_space(problem, level)) - EulerElementT2.identity()
    reduced = d0.star(kernel_factor)
    if reduced.project(2):
        raise RuntimeError("reduced product has a T term; the truncated factor below the level is not exact")
    reduced_1 = reduced.project(1)
    index = reduced
    if reduced_1:
        b1 = EulerElementT2(
            (TorusSubgroup.kernel(m, n), mult) for (m, n), mult in negative_space(problem, level).characters
        )
        index = reduced - reduced_1.star(b1)
    n0 = problem.deg_s1.fixed
    resonant_part = kernel_factor.project(1)
    if n0:
        certificate = Certificate.FIXED_COEFFICIENT
        expected = n0 * resonant_part
        if reduced_1 != expected or not expected:
            raise RuntimeError("fixed-coefficient path disagrees with the reduced product")
        claimed = True
    else:
        axis_part = d0.project(1)
        coeffs = [c for _, c in resonant_part.terms]
        hypotheses = (
            bool(axis_part)
            and bool(resonant_part)
            and (all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs))
            and all(h.rows[0][1] >= 1 for h, _ in resonant_part.terms)
            and all(h.rows[0][1] == 0 for h, _ in axis_part.terms)
        )
        if hypotheses:
            certificate = Certificate.SAME_SIGN
            product = axis_part.star(resonant_part)
            if reduced != product:
                raise RuntimeError("same-sign path disagrees with the reduced product")
            claimed = bool(product)
        else:
            certificate = Certificate.DIRECT
            claimed = bool(index)
    if claimed != bool(index):
        raise RuntimeError("certificate path disagrees with direct evaluation")
    return BifurcationReport(
        level=level,
        index=index,
        nontrivial=bool(index),
        certificate=certificate,
        classification=classify_noncompact(problem),
    )


def classify_noncompact(problem: CriticalPointProblem) -> Classification:
    """Problem-wide classification of the bifurcating continua.

    Non-compactness is guaranteed only when the critical point is unique
    and the structural assumptions hold: with a nonzero full-orbit
    coefficient ("c1"), or with uniformly signed finite-isotropy
    coefficients ("c2").  This function never emits the sum-obstruction
    tag; that one is relative to the enumerated levels and is issued by
    `torbif classify` (`cli._cmd_classify`) after its zero-sum search over
    their indices.  The indices themselves use the identity H * H = 0 for
    one-dimensional classes H, which the test suite checks.
    """
    checks = validate(problem)
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
    need_pick: bool,
) -> Optional[tuple[BifurcationLevel, ...]]:
    # Depth-first over subsets with an accumulated partial sum, smallest
    # frequencies first and "include" before "exclude", so the first
    # witness found is deterministic.  A term (h, c) of the partial sum can
    # only be cancelled by a later index holding h with the opposite sign,
    # so a node at `pos` is dead once some term has no such index at `pos`
    # or later; pruning it cuts only subtrees without a witness.  At the end
    # of the pool every term is dead, so a live leaf has a zero sum.  The
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
            if picked or not need_pick:
                return tuple(pool[i] for i in picked)
            continue
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

    The search drops every partial sum with a term that no remaining
    level's index can cancel, so it is linear in the number of levels when
    each index has a generator of its own; the worst case is exponential.
    """
    pool = list(levels)
    if anchor not in pool:
        raise ValueError("anchor must be one of the supplied levels")
    table = _index_table(problem, pool, indices)
    others = sorted((lvl for lvl in pool if lvl != anchor), key=lambda l: l.lambda_sq)
    combo = _zero_sum_dfs(table[anchor], others, table, need_pick=False)
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
    return _zero_sum_dfs(EulerElementT2.zero(), pool, table, need_pick=True)


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
