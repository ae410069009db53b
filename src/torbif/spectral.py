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
decidable.  Ascending eigenvalue order names a level and orders its null
modes: the null mode n of alpha at q has n^2 = q alpha, so n grows with
alpha, and the smallest eigenvalue resonating at q gives the smallest
mode.  That mode and eigenvalue are the level's (k, alpha), both when
`lambda_set` walks the eigenvalues in ascending order and when
`level_from_lambda_sq` resolves q, and `_null_modes` lists a level's
null modes in the same order.  One integer test per positive eigenvalue
decides both the null modes and the modes below a level: with q =
qn/qd and alpha = an/ad, `_modes` takes (t, r) = divmod(qn*an, qd*ad)
and n = isqrt(t), so n^2 <= q alpha < (n + 1)^2, and mode n is null
exactly when r == 0 and n*n == t; no rational is formed.  The negative space is taken just
below the level, over the modes 1 <= n' < n when n is null and 1 <= n'
<= n when it is not, which are exactly those with n'^2 < q alpha; the
null modes form the resonant space, whose characters are made
canonical, in order, and handed to the trusted representation
constructor as one tuple over all its modes.  Below the level the
characters come in runs: for one signed speed s (0 for the trivial
part) the characters (s, n) over every eigenvalue merge into runs lo <=
n < hi of one multiplicity, so `_below_runs` names each run in O(1) and
only `negative_space` lists its characters.  This module alone decides
which characters lie below a level.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction

from ._frozen import Frozen, _at_least
from .euler import EulerElementS1
from .rationals import as_fraction, rational_to_json
from .representations import S1Representation, T2Representation, _from_characters, _signed_speeds


# The most candidate levels `lambda_set` will enumerate (max_k times the
# positive eigenvalues), so that a huge --max-k ends in an error, not in
# memory exhaustion.
_MAX_LEVELS = 100_000


class InvalidLevel(ValueError):
    """The requested frequency is not a candidate bifurcation level."""


class SpectralDatum(Frozen):
    """One Hessian eigenvalue with the isotypic splitting of its eigenspace."""

    _fields = ("alpha", "isotypic")

    def __init__(self, alpha: int | str | Fraction, isotypic: S1Representation) -> None:
        alpha = as_fraction(alpha)
        if not isinstance(isotypic, S1Representation):
            raise TypeError("isotypic must be an S1Representation")
        if isotypic.dim == 0:
            raise ValueError("an eigenspace must have positive dimension")
        vars(self).update(alpha=alpha, isotypic=isotypic)


class AssumptionReport(Frozen):
    """Which structural assumptions the problem satisfies."""

    _fields = ("positive_eigenvalue", "nonzero_degree")

    def __init__(self, positive_eigenvalue: bool, nonzero_degree: bool) -> None:
        vars(self).update(positive_eigenvalue=positive_eigenvalue, nonzero_degree=nonzero_degree)

    @property
    def ok(self) -> bool:
        return self.positive_eigenvalue and self.nonzero_degree


class CriticalPointProblem(Frozen):
    """A critical point described by its Hessian spectrum, the circle
    degree of the negated gradient, and a uniqueness flag."""

    _fields = ("spectra", "deg_s1", "unique_critical_point")

    def __init__(
        self,
        spectra: Iterable[SpectralDatum],
        deg_s1: EulerElementS1,
        unique_critical_point: bool = False,
    ) -> None:
        spectra = tuple(spectra)
        if not spectra:
            raise ValueError("a problem needs at least one spectral datum")
        if not all(isinstance(d, SpectralDatum) for d in spectra):
            raise TypeError("spectra must contain SpectralDatum entries")
        alphas = [d.alpha for d in spectra]
        if len(set(alphas)) != len(alphas):
            raise ValueError("duplicate eigenvalues; merge their eigenspaces first")
        if not isinstance(deg_s1, EulerElementS1):
            raise TypeError("deg_s1 must be an EulerElementS1")
        if not isinstance(unique_critical_point, bool):
            raise TypeError("unique_critical_point must be a bool")
        vars(self).update(spectra=spectra, deg_s1=deg_s1, unique_critical_point=unique_critical_point)

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


class BifurcationLevel(Frozen):
    """A candidate level, addressed as the frequency k / sqrt(alpha).

    Identity is the square of the frequency, stored once as `lambda_sq`:
    two levels are equal exactly when their `lambda_sq` values are equal,
    so coincident levels coming from different eigenvalues compare equal,
    and the hash is hash(lambda_sq).
    """

    _fields = ("k", "alpha", "lambda_sq")

    def __init__(self, k: int, alpha: int | str | Fraction) -> None:
        _at_least(k, "k", 1)
        alpha = as_fraction(alpha)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        # k^2 / alpha in one constructor call; alpha > 0 keeps the sign
        vars(self).update(k=k, alpha=alpha, lambda_sq=Fraction(k * k * alpha.denominator, alpha.numerator))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifurcationLevel):
            return NotImplemented
        return self.lambda_sq == other.lambda_sq

    def __hash__(self) -> int:
        return hash(self.lambda_sq)

    def __repr__(self) -> str:
        return f"BifurcationLevel(k={self.k}, alpha={self.alpha})"


def _level_json(level: BifurcationLevel) -> dict:
    # the JSON of a level, in the key order every payload prints
    return {
        "k": level.k,
        "alpha": rational_to_json(level.alpha),
        "lambda_sq": rational_to_json(level.lambda_sq),
    }


def lambda_set(problem: CriticalPointProblem, max_k: int) -> list[BifurcationLevel]:
    """Candidate levels k / sqrt(alpha) for k = 1..max_k over the positive
    eigenvalues, sorted ascending by frequency.  The eigenvalues are walked
    in ascending order, k ascending for each, and each frequency keeps the
    first candidate met: that of the smallest eigenvalue resonating there,
    so the one with the smallest k, the level `level_from_lambda_sq`
    returns.  With no positive eigenvalue there is nothing to walk, at any
    max_k.  Raises ValueError when max_k times the number of positive
    eigenvalues is over `_MAX_LEVELS`, before any level is built."""
    _at_least(max_k, "max_k", 1)
    alphas = sorted(problem.positive_alphas())
    if max_k * len(alphas) > _MAX_LEVELS:
        raise ValueError(
            f"max_k {max_k} over {len(alphas)} positive eigenvalue(s) asks for"
            f" {max_k * len(alphas)} levels, more than the limit of {_MAX_LEVELS}"
        )
    found: dict[BifurcationLevel, None] = {}
    for alpha in alphas:
        for k in range(1, max_k + 1):
            found.setdefault(BifurcationLevel(k, alpha))
    return sorted(found, key=lambda lvl: lvl.lambda_sq)


def _modes(problem: CriticalPointProblem, q: Fraction) -> Iterator[tuple[SpectralDatum, int, bool]]:
    # (datum, n, null) over the positive eigenvalues alpha, for q > 0:
    # n = isqrt(floor(q * alpha)), and whether n^2 == q * alpha, decided in
    # integers (see the module docstring).
    qn, qd = q.numerator, q.denominator
    for datum in problem.spectra:
        an, ad = datum.alpha.numerator, datum.alpha.denominator
        if an > 0:
            t, r = divmod(qn * an, qd * ad)
            n = math.isqrt(t)
            yield datum, n, not r and n * n == t


def _null_modes(problem: CriticalPointProblem, q: Fraction) -> list[tuple[int, SpectralDatum]]:
    # The null modes at q > 0 as (n, datum), n ascending.  The sort never
    # compares two data: n^2 == q * alpha fixes alpha, so two eigenvalues
    # never share a mode at one level.
    return sorted((n, datum) for datum, n, null in _modes(problem, q) if null)


def resonant_pairs(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> tuple[tuple[int, Fraction], ...]:
    """All (mode, alpha) with mode^2 == lambda_sq * alpha, mode >= 1."""
    return tuple((n, datum.alpha) for n, datum in _null_modes(problem, level.lambda_sq))


def level_from_lambda_sq(
    problem: CriticalPointProblem, value: int | str | Fraction
) -> BifurcationLevel:
    """Resolve a squared frequency to a level of this problem, named by its
    smallest null mode."""
    q = as_fraction(value)
    modes = _null_modes(problem, q) if q > 0 else ()
    if not modes:
        raise InvalidLevel(f"lambda_sq = {q} is not a candidate bifurcation level")
    n, datum = modes[0]
    return BifurcationLevel(n, datum.alpha)


def _below_runs(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> list[tuple[int, int, int, int]]:
    """The characters below the level as runs (s, lo, hi, k): the
    characters (s, n), lo <= n < hi, each of total multiplicity k, with s
    a signed rotation speed, or 0 for the trivial part.  Over alpha, with
    the mode n of `_modes`, the modes below the level are 1, ..., n - 1
    when n is null and 1, ..., n when it is not; the eigenspaces with a
    speed s share their first modes, so they are merged and each
    character lies in exactly one run."""
    by_speed: dict[int, list[tuple[int, int]]] = {}
    for datum, n, null in _modes(problem, level.lambda_sq):
        for s, k in _signed_speeds(datum.isotypic):
            if k:
                by_speed.setdefault(s, []).append((n - 1 if null else n, k))
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
    """Direct sum of the null Fourier modes of the second variation at the level.

    Its characters (s, n) are canonical as they are made, so the trusted
    `_from_characters` takes them with no normalizing, merging or keyed
    sort: each has n >= 1, each mode n is null for one eigenvalue, whose
    signed speeds s are distinct, and `_null_modes` lists the modes in
    ascending order, so sorting each mode's speeds sorts the whole by
    (n, s).  The test suite checks it against the public constructor."""
    modes = _null_modes(problem, level.lambda_sq)
    return _from_characters(
        tuple(((s, n), k) for n, d in modes for s, k in sorted(_signed_speeds(d.isotypic)) if k)
    )
