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
`level_from_lambda_sq` resolves q.

`_Walk` holds what the levels of a problem share, built once: the
positive eigenvalues in ascending order, the signed speeds of each
eigenspace, sorted, and, when runs below a level are needed, the
eigenspaces of each signed speed.  Its walk over ascending levels tests
each eigenvalue at the first level q: with q = qn/qd and alpha = an/ad
it takes (t, r) = divmod(qn*an, qd*ad) and n = isqrt(t), so n^2 <= q
alpha < (n + 1)^2 and mode n is null exactly when r == 0 and n*n == t;
no rational is formed.  Then it steps through the later modes of alpha
up to the last level, looking each n^2 / alpha up among the levels, so
the null modes of every level come out in one pass, n ascending, and a
level costs its null modes, not a scan of the spectrum.  When an
eigenvalue has more modes up to the last level than there are levels,
as a large one beside a small one does, it is tested at each level
instead, so the walk never costs more than that scan.  The walk over
one level is the one test per eigenvalue.  The negative space is taken just below a level, over the
modes 1 <= n' < n when n is null and 1 <= n' <= n when it is not, which
are exactly those with n'^2 < q alpha; the null modes form the resonant
space, whose characters are made canonical, in order, and handed to the
trusted representation constructor as one tuple over all its modes.
Below the level the characters come in runs: for one signed speed s (0
for the trivial part) the characters (s, n) over every eigenvalue merge
into runs lo <= n < hi of one multiplicity, so `_Walk.runs` names each
run in O(1), for the speeds asked for only, and only `negative_space`
lists the characters.  The runs of speeds s and -s are the same runs,
so the bifurcation index asks for the speeds s >= 0 only, and
`negative_space` for all.  The counts of modes below a level that the
runs need are known at the first level and taken with one isqrt per
eigenvalue at a later one.  `resonant_pairs`, `level_from_lambda_sq`,
`resonant_space` and `negative_space` are the walk over one level.
This module alone decides which characters lie below a level.

Rationals are signed, sorted and told apart by integers: a sign is that
of the numerator, eigenvalues sort by an exact integer key (`_ascending`)
and levels by that of `lambda_set`, and two eigenvalues are equal when
their (numerator, denominator) pairs are.  So the levels of a request make
no `Fraction` comparison or hash, whose first use in a fresh interpreter
goes through an abstract base class check and costs more than the level.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property

from ._frozen import Frozen, _at_least, _trusted
from .euler import EulerElementS1
from .rationals import as_fraction, rational_to_json
from .representations import S1Representation, T2Representation


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
        if len({(d.alpha.numerator, d.alpha.denominator) for d in spectra}) != len(spectra):
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
        return tuple(d.alpha for d in self.spectra if d.alpha.numerator > 0)

    def eigenspace(self, alpha: Fraction) -> S1Representation:
        for d in self.spectra:
            if d.alpha == alpha:
                return d.isotypic
        raise ValueError(f"{alpha} is not an eigenvalue of this problem")


def validate(problem: CriticalPointProblem) -> AssumptionReport:
    """Check the two assumptions every certificate below relies on:
    a positive eigenvalue exists and the equivariant degree is nonzero."""
    return AssumptionReport(
        positive_eigenvalue=any(d.alpha.numerator > 0 for d in problem.spectra),
        nonzero_degree=bool(problem.deg_s1),
    )


class BifurcationLevel(Frozen):
    """A candidate level, addressed as the frequency k / sqrt(alpha).

    Identity is the square of the frequency, stored once as `lambda_sq`:
    two levels are equal exactly when their `lambda_sq` values are equal,
    so coincident levels coming from different eigenvalues compare equal,
    and the hash is hash(lambda_sq), taken at the first call and kept: a
    `Fraction`'s hash takes a modular inverse, and `classify` keys each
    level in several dicts.
    """

    _fields = ("k", "alpha", "lambda_sq")

    def __init__(self, k: int, alpha: int | str | Fraction) -> None:
        _at_least(k, "k", 1)
        alpha = as_fraction(alpha)
        if alpha.numerator <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        # k^2 / alpha in one constructor call; alpha > 0 keeps the sign
        vars(self).update(k=k, alpha=alpha, lambda_sq=Fraction(k * k * alpha.denominator, alpha.numerator))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifurcationLevel):
            return NotImplemented
        return self.lambda_sq == other.lambda_sq

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(self.lambda_sq)
        return value

    def __repr__(self) -> str:
        return f"BifurcationLevel(k={self.k}, alpha={self.alpha})"


def _level_json(level: BifurcationLevel) -> dict:
    # the JSON of a level, in the key order every payload prints
    return {
        "k": level.k,
        "alpha": rational_to_json(level.alpha),
        "lambda_sq": rational_to_json(level.lambda_sq),
    }


def _ascending(problem: CriticalPointProblem) -> list[SpectralDatum]:
    """The data of the positive eigenvalues in ascending order, sorted by an
    integer, not a `Fraction`: with D the largest denominator, alpha =
    an / ad is keyed by the floor of an * D^2 / ad.  Two distinct
    eigenvalues differ by at least 1 / (ad * ad') >= 1 / D^2, so their keys
    differ in the same order."""
    data = [d for d in problem.spectra if d.alpha.numerator > 0]
    square = max((d.alpha.denominator for d in data), default=1) ** 2
    data.sort(key=lambda d: d.alpha.numerator * square // d.alpha.denominator)
    return data


def lambda_set(problem: CriticalPointProblem, max_k: int) -> list[BifurcationLevel]:
    """Candidate levels k / sqrt(alpha) for k = 1..max_k over the positive
    eigenvalues, sorted ascending by frequency.  The eigenvalues are walked
    in ascending order, k ascending for each, and each frequency keeps the
    first candidate met: that of the smallest eigenvalue resonating there,
    so the one with the smallest k, the level `level_from_lambda_sq`
    returns.  With no positive eigenvalue there is nothing to walk, at any
    max_k.  Raises ValueError when max_k times the number of positive
    eigenvalues is over `_MAX_LEVELS`, before any level is built.

    Candidates merge and sort by an integer, not a `Fraction`: with M the
    largest numerator of an eigenvalue, k^2 / alpha is keyed by the floor
    of k^2 * M^2 / alpha.  Two distinct levels k^2 * ad / an differ by at
    least 1 / (an * an') >= 1 / M^2, so their keys differ by at least 1 in
    the same order, and equal levels share a key.  A level is built only
    for each key kept."""
    _at_least(max_k, "max_k", 1)
    alphas = [d.alpha for d in _ascending(problem)]
    if max_k * len(alphas) > _MAX_LEVELS:
        raise ValueError(
            f"max_k {max_k} over {len(alphas)} positive eigenvalue(s) asks for"
            f" {max_k * len(alphas)} levels, more than the limit of {_MAX_LEVELS}"
        )
    square = max((alpha.numerator for alpha in alphas), default=1) ** 2
    found: dict[int, tuple[int, Fraction]] = {}
    for alpha in alphas:
        an, scale = alpha.numerator, alpha.denominator * square
        for k in range(1, max_k + 1):
            found.setdefault(k * k * scale // an, (k, alpha))
    return [BifurcationLevel(*found[key]) for key in sorted(found)]


class _Walk:
    """The facts of a problem that all its levels share, and the ascending
    walk over its levels (see the module docstring).

    `data` holds the positive eigenvalues in ascending order, `alphas`
    their (numerator, denominator) and `speeds[j]` the signed speeds of
    data[j]; `by_speed`, built when the runs below a level are first
    asked for, lists the eigenspaces of each signed speed as (j, k), j
    ascending."""

    def __init__(self, problem: CriticalPointProblem) -> None:
        self.data = _ascending(problem)
        self.alphas: list[tuple[int, int]] = []
        self.speeds: list[list[tuple[int, int]]] = []
        for d in self.data:
            self.alphas.append((d.alpha.numerator, d.alpha.denominator))
            # the signed speeds on a positive mode, ascending: -m, 0 for
            # the trivial part, m
            rep = d.isotypic
            speeds = [(-m, k) for m, k in reversed(rep.rotating)]
            if rep.trivial:
                speeds.append((0, rep.trivial))
            self.speeds.append(speeds + list(rep.rotating))

    @cached_property
    def by_speed(self) -> dict[int, list[tuple[int, int]]]:
        by_speed: dict[int, list[tuple[int, int]]] = {}
        for j, speeds in enumerate(self.speeds):
            for s, k in speeds:
                by_speed.setdefault(s, []).append((j, k))
        return by_speed

    def null_modes(self, qs: Sequence[Fraction]) -> tuple[list[list[tuple[int, int]]], dict[int, int]]:
        """The walk over distinct positive squared frequencies `qs` in
        ascending order: the null modes at each as (n, j), n ascending, and
        the counts of modes below the first, which `runs` reads."""
        found: list[list[tuple[int, int]]] = [[] for _ in qs]
        first: dict[int, int] = {}
        isqrt, gcd = math.isqrt, math.gcd
        fractions = [(q.numerator, q.denominator) for q in qs]
        at = {nd: p for p, nd in enumerate(fractions)} if len(qs) > 1 else {}
        for j, (an, ad) in enumerate(self.alphas):
            # alpha is tested at the first level; then each of its modes up
            # to the last level is looked up among the levels, or, when
            # those modes outnumber the levels, alpha is tested at each
            for p, (qn, qd) in enumerate(fractions):
                t, r = divmod(qn * an, qd * ad)
                n = isqrt(t)
                null = not r and n * n == t
                if null:
                    found[p].append((n, j))
                if p:
                    continue
                first[j] = n - 1 if null else n
                if len(qs) == 1:
                    break
                ln, ld = fractions[-1]
                top = isqrt(ln * an // (ld * ad))
                if top - n < len(qs):
                    # mode m is null at m^2 / alpha = m^2 ad / an, in
                    # lowest terms
                    for m in range(n + 1, top + 1):
                        g = gcd(m * m, an)
                        level = at.get((m * m * ad // g, an // g))
                        if level is not None:
                            found[level].append((m, j))
                    break
        return found, first

    def resonant(self, modes: list[tuple[int, int]]) -> T2Representation:
        """The representation on the null modes (n, j).  Its characters
        (s, n) are canonical as they are made, so `_trusted` takes them
        with no normalizing, merging or keyed sort: each has n >= 1, each
        mode n is null for one eigenvalue, whose signed speeds are distinct
        and sorted, and the modes come in ascending order, so the whole is
        sorted by (n, s)."""
        characters = tuple(((s, n), k) for n, j in modes for s, k in self.speeds[j])
        return _trusted(T2Representation, trivial=0, characters=characters)

    def runs(self, q: Fraction, speeds: Iterable[int], counts: dict[int, int]) -> list[tuple[int, int, int, int]]:
        """The characters below q of the signed speeds `speeds` (0 for the
        trivial part) as runs (s, lo, hi, k): the characters (s, n), lo <=
        n < hi, each of total multiplicity k.  Eigenvalue j has
        isqrt(ceil(q * alpha) - 1) modes below q, kept in `counts`; the
        counts ascend with alpha, so those of one speed cut its modes into
        runs in order, each character in exactly one."""
        qn, qd = q.numerator, q.denominator
        isqrt = math.isqrt
        runs = []
        for s in speeds:
            members = self.by_speed[s]
            lo, weight = 1, sum(k for _, k in members)
            for j, k in members:
                count = counts.get(j)
                if count is None:
                    an, ad = self.alphas[j]
                    count = counts[j] = isqrt((qn * an - 1) // (qd * ad))
                if count >= lo:
                    runs.append((s, lo, count + 1, weight))
                    lo = count + 1
                weight -= k
        return runs


def _resonances(
    problem: CriticalPointProblem, levels: Sequence[BifurcationLevel]
) -> Iterator[tuple[tuple[int, Fraction], ...]]:
    # (mode, alpha) of each null mode at each of the ascending levels
    walk = _Walk(problem)
    for modes in walk.null_modes([lvl.lambda_sq for lvl in levels])[0]:
        yield tuple((n, walk.data[j].alpha) for n, j in modes)


def resonant_pairs(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> tuple[tuple[int, Fraction], ...]:
    """All (mode, alpha) with mode^2 == lambda_sq * alpha, mode >= 1."""
    return next(_resonances(problem, [level]))


def level_from_lambda_sq(
    problem: CriticalPointProblem, value: int | str | Fraction
) -> BifurcationLevel:
    """Resolve a squared frequency to a level of this problem, named by its
    smallest null mode."""
    q = as_fraction(value)
    walk = _Walk(problem)
    modes = walk.null_modes([q])[0][0] if q.numerator > 0 else ()
    if not modes:
        raise InvalidLevel(f"lambda_sq = {q} is not a candidate bifurcation level")
    n, j = modes[0]
    return BifurcationLevel(n, walk.data[j].alpha)


def negative_space(problem: CriticalPointProblem, level: BifurcationLevel) -> T2Representation:
    """Direct sum of the strictly negative Fourier modes of the second
    variation at the level: the modes n >= 1 with n^2 < lambda_sq * alpha."""
    walk = _Walk(problem)
    runs = walk.runs(level.lambda_sq, walk.by_speed, walk.null_modes([level.lambda_sq])[1])
    return T2Representation(0, [((s, n), k) for s, lo, hi, k in runs for n in range(lo, hi)])


def resonant_space(
    problem: CriticalPointProblem, level: BifurcationLevel
) -> T2Representation:
    """Direct sum of the null Fourier modes of the second variation at the
    level, built canonical by the walk (see `_Walk.resonant`); the test
    suite checks it against the public constructor."""
    walk = _Walk(problem)
    return walk.resonant(walk.null_modes([level.lambda_sq])[0][0])
