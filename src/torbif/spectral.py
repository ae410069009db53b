"""Linearization data at a critical point, kept exact over the rationals.

The input is the spectrum of the potential's Hessian at a critical point:
each distinct eigenvalue alpha together with the circle-isotypic splitting
of its eigenspace, plus the precomputed circle-equivariant degree of the
negated gradient and whether the critical point is unique.  From this the
module enumerates candidate bifurcation levels and assembles the relevant
pieces of the second variation of the action on Fourier modes.

On the n-th mode over the eigenspace of alpha, the second variation at
frequency lambda scales by (n^2 - lambda^2 alpha) / (n^2 + 1), so the mode
is negative, null, or positive according to the exact comparison of n^2
with lambda^2 alpha.  A candidate level is a frequency whose square q
makes q * alpha a perfect square for some positive eigenvalue alpha;
levels are identified by q, so coincident frequencies arising from
different eigenvalues are a single level and every comparison is
decidable.  The negative space is taken just below the level, over the
modes 1 <= n <= isqrt(ceil(q alpha) - 1), which are exactly those with
n^2 < q alpha; the null modes n^2 == q alpha form the resonant space,
handed to the representation constructor as one list of characters over
all its modes.  Below the level the characters come in runs: for one
signed speed s (0 for the trivial part) the characters (s, n) over every
eigenvalue merge into runs lo <= n < hi of one multiplicity, so
`_below_runs` names each run in O(1) and only `negative_space` lists
its characters.  This module alone decides which characters lie below a
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .euler import EulerElementS1
from .rationals import as_fraction
from .representations import S1Representation, T2Representation, _signed_speeds


# The most candidate levels `lambda_set` will enumerate (max_k times the
# positive eigenvalues), so that a huge --max-k ends in an error, not in
# memory exhaustion.
_MAX_LEVELS = 100_000


class InvalidLevel(ValueError):
    """The requested frequency is not a candidate bifurcation level."""


@dataclass(frozen=True)
class SpectralDatum:
    """One Hessian eigenvalue with the isotypic splitting of its eigenspace."""

    alpha: Fraction
    isotypic: S1Representation

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if not isinstance(self.isotypic, S1Representation):
            raise TypeError("isotypic must be an S1Representation")
        if self.isotypic.dim == 0:
            raise ValueError("an eigenspace must have positive dimension")


@dataclass(frozen=True)
class AssumptionReport:
    """Which structural assumptions the problem satisfies."""

    positive_eigenvalue: bool
    nonzero_degree: bool

    @property
    def ok(self) -> bool:
        return self.positive_eigenvalue and self.nonzero_degree


@dataclass(frozen=True)
class CriticalPointProblem:
    """A critical point described by its Hessian spectrum, the circle
    degree of the negated gradient, and a uniqueness flag."""

    spectra: tuple[SpectralDatum, ...]
    deg_s1: EulerElementS1
    unique_critical_point: bool = False

    def __post_init__(self) -> None:
        spectra = tuple(self.spectra)
        if not spectra:
            raise ValueError("a problem needs at least one spectral datum")
        if not all(isinstance(d, SpectralDatum) for d in spectra):
            raise TypeError("spectra must contain SpectralDatum entries")
        alphas = [d.alpha for d in spectra]
        if len(set(alphas)) != len(alphas):
            raise ValueError("duplicate eigenvalues; merge their eigenspaces first")
        object.__setattr__(self, "spectra", spectra)
        if not isinstance(self.deg_s1, EulerElementS1):
            raise TypeError("deg_s1 must be an EulerElementS1")
        if not isinstance(self.unique_critical_point, bool):
            raise TypeError("unique_critical_point must be a bool")

    @property
    def dimension(self) -> int:
        return sum(d.isotypic.dim for d in self.spectra)

    def positive_alphas(self) -> tuple[Fraction, ...]:
        return tuple(d.alpha for d in self.spectra if d.alpha > 0)

    def eigenspace(self, alpha: Fraction) -> S1Representation:
        for d in self.spectra:
            if d.alpha == alpha:
                return d.isotypic
        raise ValueError(f"{alpha} is not an eigenvalue of this problem")


def validate(problem: CriticalPointProblem) -> AssumptionReport:
    """Check the two assumptions every certificate below relies on:
    a positive eigenvalue exists and the equivariant degree is nonzero."""
    return AssumptionReport(
        positive_eigenvalue=any(d.alpha > 0 for d in problem.spectra),
        nonzero_degree=bool(problem.deg_s1),
    )


@dataclass(frozen=True, eq=False)
class BifurcationLevel:
    """A candidate level, addressed as the frequency k / sqrt(alpha).

    Identity is the square of the frequency: two levels are equal exactly
    when their `lambda_sq` values are equal, so coincident levels coming
    from different eigenvalues compare equal.
    """

    k: int
    alpha: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k!r}")
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def lambda_sq(self) -> Fraction:
        return Fraction(self.k * self.k) / self.alpha

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifurcationLevel):
            return NotImplemented
        return self.lambda_sq == other.lambda_sq

    def __hash__(self) -> int:
        return hash(self.lambda_sq)

    def __repr__(self) -> str:
        return f"BifurcationLevel(k={self.k}, alpha={self.alpha})"


def lambda_set(problem: CriticalPointProblem, max_k: int) -> list[BifurcationLevel]:
    """Candidate levels k / sqrt(alpha) for k = 1..max_k over the positive
    eigenvalues, merged by frequency and sorted ascending.  Each merged
    level keeps the representative with the smallest k.  Raises ValueError
    when max_k times the number of positive eigenvalues is over
    `_MAX_LEVELS`, before any level is built."""
    if not isinstance(max_k, int) or isinstance(max_k, bool) or max_k < 1:
        raise ValueError(f"max_k must be a positive int, got {max_k!r}")
    alphas = problem.positive_alphas()
    if max_k * len(alphas) > _MAX_LEVELS:
        raise ValueError(
            f"max_k {max_k} over {len(alphas)} positive eigenvalue(s) asks for"
            f" {max_k * len(alphas)} levels, more than the limit of {_MAX_LEVELS}"
        )
    found: dict[Fraction, BifurcationLevel] = {}
    for k in range(1, max_k + 1):
        for alpha in alphas:
            level = BifurcationLevel(k, alpha)
            found.setdefault(level.lambda_sq, level)
    return sorted(found.values(), key=lambda lvl: lvl.lambda_sq)


def _resonances(problem: CriticalPointProblem, q: Fraction) -> tuple[tuple[int, Fraction], ...]:
    # All (mode, alpha) with mode^2 == q * alpha, mode >= 1, for q > 0.
    pairs = []
    for datum in problem.spectra:
        if datum.alpha <= 0:
            continue
        target = q * datum.alpha
        if target.denominator != 1:
            continue
        n = math.isqrt(target.numerator)
        if n >= 1 and n * n == target.numerator:
            pairs.append((n, datum.alpha))
    return tuple(sorted(pairs))


def resonant_pairs(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> tuple[tuple[int, Fraction], ...]:
    """All (mode, alpha) with mode^2 == lambda_sq * alpha, mode >= 1."""
    return _resonances(problem, level.lambda_sq)


def level_from_lambda_sq(
    problem: CriticalPointProblem, value: int | str | Fraction
) -> BifurcationLevel:
    """Resolve a squared frequency to a level of this problem."""
    q = as_fraction(value)
    pairs = _resonances(problem, q) if q > 0 else ()
    if not pairs:
        raise InvalidLevel(f"lambda_sq = {q} is not a candidate bifurcation level")
    n, alpha = pairs[0]
    return BifurcationLevel(n, alpha)


def _below_runs(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> list[tuple[int, int, int, int]]:
    """The characters below the level as runs (s, lo, hi, k): the
    characters (s, n), lo <= n < hi, each of total multiplicity k, with s
    a signed rotation speed, or 0 for the trivial part.  Over alpha the
    modes below the level are 1 <= n <= isqrt(ceil(lambda_sq * alpha) - 1);
    the eigenspaces with a speed s share their first modes, so they are
    merged and each character lies in exactly one run."""
    q = level.lambda_sq
    by_speed: dict[int, list[tuple[int, int]]] = {}
    for datum in problem.spectra:
        if datum.alpha > 0:
            count = math.isqrt(math.ceil(q * datum.alpha) - 1)
            for s, k in _signed_speeds(datum.isotypic):
                if k:
                    by_speed.setdefault(s, []).append((count, k))
    runs = []
    for s, modes in by_speed.items():
        lo, weight = 1, sum(k for _, k in modes)
        for count, k in sorted(modes):
            if count >= lo:
                runs.append((s, lo, count + 1, weight))
                lo = count + 1
            weight -= k
    return runs


def negative_space(problem: CriticalPointProblem, level: BifurcationLevel) -> T2Representation:
    """Direct sum of the strictly negative Fourier modes of the second
    variation at the level: the modes n >= 1 with n^2 < lambda_sq * alpha."""
    return T2Representation(
        0,
        [((s, n), k) for s, lo, hi, k in _below_runs(problem, level) for n in range(lo, hi)],
    )


def resonant_space(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> T2Representation:
    """Direct sum of the null Fourier modes of the second variation at the level,
    built by one constructor call over every mode's raw characters."""
    return T2Representation(
        0,
        [
            ((s, n), k)
            for n, alpha in resonant_pairs(problem, level)
            for s, k in _signed_speeds(problem.eigenspace(alpha))
        ],
    )
