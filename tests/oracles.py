"""Independent cross-checks and seeded generators for the test suite.

The lattice oracles work from first principles (congruences on finite
grids, gcds of minors, a pairwise fold of the characters where the
package takes two gcd passes) and never call the canonical-form code they
are checking.  The ring and index oracles below reach the same values as the
package by a different route (the intersection of two generators under
the dimension rule, the bilinear product over every pair of terms, a
unit's geometric-series inverse, the plane-by-plane degree product, the
circle degree of minus-identity, the untruncated three-factor index, the
mode-by-mode negative space, the null modes through the public
representation constructor, the two-sided degree jump across a level,
the unpruned walk over every subset of a zero-sum pool, the argparse
parser the command line once built on every call and its negative-number
pattern, `classify`'s output from reports rebuilt for the
sum-obstruction upgrade, an element spelled through the subgroups of its
`terms` view, the frozen dataclasses the value types once were, the
nested rows by which ring terms were once keyed and sorted, an element
built by sorting its (key, coefficient) pairs, a label spelled from
canonical rows by their number, the level list merged and sorted by
`Fraction`, the rank-by-rank rule for canonical rows, the readers of
integers in text that the package once had and its problem-file reader
before it read each field once), so each identity they
satisfy is a differential check on the package.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from torbif import (
    BifurcationLevel,
    BifurcationReport,
    Classification,
    CriticalPointProblem,
    EulerElementS1,
    EulerElementT2,
    S1Representation,
    SpectralDatum,
    T2Representation,
    TorusSubgroup,
    any_zero_sum_subset,
    build_report,
    classify_noncompact,
    deg_minus_id_t2,
    embed_s1_to_t2,
    format_element,
    lambda_set,
    loop_decompose,
    negative_space,
    normalize_character,
    resonant_space,
    validate,
)
from torbif.cli import _cmd_classify, _cmd_example, _cmd_index, _cmd_levels, _cmd_star
from torbif.euler import _check_coeff
from torbif.problem_io import ProblemFormatError
from torbif.rationals import _MAX_DIGITS, _is_int, _to_int, as_fraction, parse_rational
from torbif.spectral import _Walk
from torbif.subgroups import _check_int

ALPHA_POOL = (
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(4),
)


def torsion_points(chars, modulus):
    """Points (x/modulus, y/modulus) of the torus killed by every character,
    returned as numerator pairs."""
    hits = []
    for x in range(modulus):
        for y in range(modulus):
            if all((m * x + n * y) % modulus == 0 for m, n in chars):
                hits.append((x, y))
    return hits


def axis_twisted_count(k, m, n):
    """Order of the common kernel of the characters (k, 0) and (m, n), with
    k, n >= 1, by brute enumeration.

    Any point (x, y) of the kernel has k*x integral, hence m*x and then n*y
    in (1/k)Z, hence both coordinates in (1/(k*n))Z.  The 1/(k*n) grid
    therefore already contains the whole group.
    """
    d = k * n
    count = 0
    for x in range(d):
        if (k * x) % d:
            continue
        for y in range(d):
            if (m * x + n * y) % d == 0:
                count += 1
    return count


def minor_gcd_index(chars):
    """Index in Z^2 of the lattice spanned by the characters, as the gcd of
    all 2x2 minors; 0 means the lattice has rank below 2."""
    g = 0
    chars = list(chars)
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            (a, b), (c, d) = chars[i], chars[j]
            g = math.gcd(g, abs(a * d - b * c))
    return g


def _extended_gcd(a, b):
    # (g, x, y) with g == gcd(a, b) >= 0 and g == x*a + y*b, recursively
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _extended_gcd(b, a % b)
    return g, y, x - (a // b) * y


def canonical_rows_by_folding(chars):
    """Canonical lattice basis of `chars` by a pairwise fold: each character
    is absorbed into a pivot on the second coordinate, and what is left of
    the pair lands on the first axis, where its gcd is kept."""
    m1, n1 = 0, 0
    axis = 0
    for m2, n2 in chars:
        if n2 == 0:
            axis = math.gcd(axis, m2)
        elif n1 == 0:
            if n2 < 0:
                m2, n2 = -m2, -n2
            axis = math.gcd(axis, m1)
            m1, n1 = m2, n2
        else:
            g, x, y = _extended_gcd(n1, n2)
            m0 = x * m1 + y * m2
            axis = math.gcd(axis, m1 - (n1 // g) * m0, m2 - (n2 // g) * m0)
            m1, n1 = m0, g
    if n1 == 0:
        return () if axis == 0 else ((axis, 0),)
    if axis == 0:
        return ((m1, n1),)
    return ((axis, 0), (m1 % axis, n1))


def random_character(rng, span=9):
    while True:
        m = rng.randint(-span, span)
        n = rng.randint(-span, span)
        if (m, n) != (0, 0):
            return (m, n)


def random_subgroup(rng, span=9):
    roll = rng.random()
    if roll < 0.15:
        return TorusSubgroup.full()
    if roll < 0.55:
        return TorusSubgroup.from_characters([random_character(rng, span)])
    while True:
        v1 = random_character(rng, span)
        v2 = random_character(rng, span)
        if v1[0] * v2[1] - v1[1] * v2[0]:
            return TorusSubgroup.from_characters([v1, v2])


def random_element(rng, max_terms=5, coeff_span=5, span=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        h = random_subgroup(rng, span)
        terms[h] = terms.get(h, 0) + rng.randint(-coeff_span, coeff_span)
    return EulerElementT2(terms)


def random_unit(rng):
    sign = rng.choice((1, -1))
    nil = random_element(rng, max_terms=3)
    nil = nil - nil.project(2)
    return sign * EulerElementT2.identity() + nil


def random_s1_rep(rng, allow_empty=False):
    while True:
        trivial = rng.randint(0, 2)
        rotating = {m: rng.randint(0, 2) for m in (1, 2, 3)}
        rep = S1Representation(trivial=trivial, rotating=rotating)
        if rep.dim or allow_empty:
            return rep


def random_t2_rep(rng, max_chars=4, span=6, max_mult=2):
    trivial = rng.randint(0, 2)
    characters = {}
    for _ in range(rng.randint(0, max_chars)):
        key = random_character(rng, span)
        characters[key] = characters.get(key, 0) + rng.randint(1, max_mult)
    return T2Representation(trivial=trivial, characters=characters)


def random_degree(rng):
    while True:
        fixed = rng.choice((0, 0, 0, 1, -1, 2))
        finite = {m: rng.randint(-2, 2) for m in (1, 2, 3) if rng.random() < 0.5}
        deg = EulerElementS1(fixed, finite)
        if deg:
            return deg


def random_problem(rng, require_positive=True, require_degree=True):
    count = rng.randint(1, 3)
    alphas = rng.sample(ALPHA_POOL, count)
    if rng.random() < 0.3:
        alphas[-1] = rng.choice((Fraction(0), Fraction(-1)))
    if require_positive and not any(a > 0 for a in alphas):
        alphas[0] = rng.choice(ALPHA_POOL)
    spectra = tuple(SpectralDatum(a, random_s1_rep(rng)) for a in dict.fromkeys(alphas))
    deg = random_degree(rng) if require_degree else EulerElementS1.zero()
    return CriticalPointProblem(
        spectra=spectra,
        deg_s1=deg,
        unique_critical_point=rng.random() < 0.5,
    )


def generator_product_by_intersection(h1, h2):
    """Product of two generators by the dimension rule: the intersection
    when dim H1 + dim H2 == 2 + dim (H1 n H2), otherwise None."""
    meet = h1.intersect(h2)
    if h1.dim + h2.dim == 2 + meet.dim:
        return meet
    return None


def star_by_pairs(x, y):
    """Ring product as the bilinear sum over every pair of terms, each pair
    through `generator_product_by_intersection`."""
    return EulerElementT2(
        (h0, c1 * c2)
        for h1, c1 in x.terms
        for h2, c2 in y.terms
        if (h0 := generator_product_by_intersection(h1, h2)) is not None
    )


def cross_direction_pairs(lines, others=None):
    """The pairs of non-parallel characters, (a, b) and (m, n) with
    a*n != b*m, by brute force: each unordered pair of `lines` once when
    `others` is None, otherwise each pair of a line of `lines` with one
    of `others`."""
    if others is None:
        pairs = [(p, q) for i, p in enumerate(lines) for q in lines[i + 1 :]]
    else:
        pairs = [(p, q) for p in lines for q in others]
    return [(p, q) for p, q in pairs if p[0] * q[1] != p[1] * q[0]]


class NotInvertible(ValueError):
    """Inversion was attempted on an element whose identity coefficient is not +-1."""


def invert(element):
    """Multiplicative inverse of a unit of the torus ring.

    An element is a unit exactly when its identity coefficient is +1 or -1;
    the rest is nilpotent (cube zero by the grading), so the inverse is the
    usual finite geometric series.
    """
    c = element.coefficient(TorusSubgroup.full())
    if c not in (1, -1):
        raise NotInvertible(f"identity coefficient is {c}; only coefficients +1 and -1 invert")
    nil = element - c * EulerElementT2.identity()
    series = EulerElementT2.identity() - c * nil + nil.star(nil)
    return c * series


def hessian_eigenvalue(mode, lambda_sq, alpha):
    """Scaling factor of the second variation on the `mode`-th Fourier mode
    over the eigenspace of alpha: (mode^2 - lambda_sq * alpha) / (mode^2 + 1)."""
    if not isinstance(mode, int) or isinstance(mode, bool) or mode < 0:
        raise ValueError(f"mode must be a nonnegative int, got {mode!r}")
    q = as_fraction(lambda_sq)
    a = as_fraction(alpha)
    return (Fraction(mode * mode) - q * a) / (mode * mode + 1)


def deg_minus_id_s1(rep):
    """Circle version of the degree of minus-identity.

    Cross terms between distinct finite-isotropy classes vanish, so the
    product collapses to an expression linear in the multiplicities; the
    tests check it against the torus computation of the package through
    the mode-zero decomposition and the ring embedding.
    """
    sign = -1 if rep.trivial % 2 else 1
    finite = EulerElementS1(0, rep.rotating)
    return sign * (EulerElementS1.identity() - finite)


def nondegenerate_orbit_degree(morse_index, isotropy):
    """Local degree of a nondegenerate circle orbit of nonstationary
    solutions: a sign from the Morse index times the class with the orbit's
    cyclic isotropy."""
    if not isinstance(morse_index, int) or isinstance(morse_index, bool) or morse_index < 0:
        raise ValueError(f"morse_index must be a nonnegative int, got {morse_index!r}")
    if not isinstance(isotropy, int) or isinstance(isotropy, bool) or isotropy < 1:
        raise ValueError(f"isotropy must be a positive int, got {isotropy!r}")
    sign = -1 if morse_index % 2 else 1
    return sign * EulerElementS1.cyclic(isotropy)


def bif_index_two_sided(problem: CriticalPointProblem, level: BifurcationLevel):
    """The index as the difference of the degrees just above and just below
    the level; equality with `bif_index` is a computed identity, not a
    definition.  The level must be a candidate level of the problem."""
    d0 = embed_s1_to_t2(problem.deg_s1)
    above = d0.star(deg_minus_id_t2(negative_space_by_mode(problem, level, "plus")))
    below = d0.star(deg_minus_id_t2(negative_space(problem, level)))
    return above - below


def deg_minus_id_t2_expanded(rep):
    """Degree of minus-identity as the product of one factor T - H per
    plane, without the collapse (T - H)^k = T - k*H that `deg_minus_id_t2`
    takes from H * H = 0."""
    sign = -1 if rep.trivial % 2 else 1
    acc = sign * EulerElementT2.identity()
    one = EulerElementT2.identity()
    for (m, n), mult in rep.characters:
        factor = one - EulerElementT2.generator(TorusSubgroup.kernel(m, n))
        for _ in range(mult):
            acc = acc.star(factor)
    return acc


def bif_index_expanded(problem: CriticalPointProblem, level: BifurcationLevel):
    """The index as the full product d0 * (deg(-Id, resonant) - T) *
    deg(-Id, below), with the factor below the level untruncated."""
    kernel_factor = deg_minus_id_t2(resonant_space(problem, level)) - EulerElementT2.identity()
    below = deg_minus_id_t2(negative_space(problem, level))
    return embed_s1_to_t2(problem.deg_s1).star(kernel_factor).star(below)


def negative_space_by_mode(problem: CriticalPointProblem, level: BifurcationLevel, side="minus"):
    """The negative space as a running sum of one representation per
    Fourier mode, found by comparing n^2 with lambda_sq * alpha mode by
    mode; side "minus" keeps the comparison strict, side "plus" also
    takes the null modes, giving the negative space just above the level."""
    q = level.lambda_sq
    total = T2Representation()
    for datum in problem.spectra:
        if datum.alpha <= 0:
            continue
        n = 1
        while n * n < q * datum.alpha or (side == "plus" and n * n == q * datum.alpha):
            total = total + loop_decompose(datum.isotypic, n)
            n += 1
    return total


def resonant_space_by_constructor(problem: CriticalPointProblem, level: BifurcationLevel):
    """The null modes' representation through the public constructor,
    which normalizes, merges, drops zeros and sorts: each null mode n of
    an eigenvalue alpha brings the raw characters (0, n) of its trivial
    part and (m, n), (-m, n) of each speed m."""
    characters = []
    for n, alpha in resonances_by_fractions(problem, level.lambda_sq):
        rep = problem.eigenspace(alpha)
        characters.append(((0, n), rep.trivial))
        characters.extend(((sign * m, n), k) for m, k in rep.rotating for sign in (1, -1))
    return T2Representation(0, characters)


def resonances_by_fractions(problem: CriticalPointProblem, q: Fraction):
    """All (mode, alpha) with mode^2 == q * alpha, mode >= 1, for q > 0,
    by forming q * alpha as a Fraction."""
    pairs = []
    for datum in problem.spectra:
        if datum.alpha <= 0:
            continue
        target = q * datum.alpha
        if target.denominator == 1:
            n = math.isqrt(target.numerator)
            if n >= 1 and n * n == target.numerator:
                pairs.append((n, datum.alpha))
    return tuple(sorted(pairs))


def below_runs_by_fractions(problem: CriticalPointProblem, level: BifurcationLevel):
    """The runs (s, lo, hi, k) below the level, with the mode count
    isqrt(ceil(lambda_sq * alpha) - 1) taken on Fractions: per signed
    speed, the eigenvalues' mode counts in ascending order cut the modes
    into runs, each of the multiplicity of the eigenvalues that reach it."""
    by_speed = {}
    for datum in problem.spectra:
        if datum.alpha > 0:
            count = math.isqrt(math.ceil(level.lambda_sq * datum.alpha) - 1)
            for s, k in [(0, datum.isotypic.trivial)] + [
                (sign * m, k) for m, k in datum.isotypic.rotating for sign in (1, -1)
            ]:
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


def modes_by_scan(problem: CriticalPointProblem, q: Fraction):
    """(datum, n, null) over the positive eigenvalues alpha, for q > 0, in
    the problem's order: n = isqrt(floor(q * alpha)), and whether n^2 ==
    q * alpha, decided in integers by one divmod and isqrt per eigenvalue
    and level, as the package once scanned the spectrum at every level."""
    qn, qd = q.numerator, q.denominator
    for datum in problem.spectra:
        an, ad = datum.alpha.numerator, datum.alpha.denominator
        if an > 0:
            t, r = divmod(qn * an, qd * ad)
            n = math.isqrt(t)
            yield datum, n, not r and n * n == t


def below_runs_by_scan(problem: CriticalPointProblem, level: BifurcationLevel):
    """The runs (s, lo, hi, k) below the level of every signed speed, from
    one scan of the spectrum with `modes_by_scan`: over alpha the modes
    below the level are 1, ..., n - 1 when n is null and 1, ..., n when
    it is not, and the eigenspaces sharing a speed are merged."""
    by_speed = {}
    for datum, n, null in modes_by_scan(problem, level.lambda_sq):
        for s, k in [(0, datum.isotypic.trivial)] + [
            (sign * m, k) for m, k in datum.isotypic.rotating for sign in (1, -1)
        ]:
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


def walk_runs(problem: CriticalPointProblem, level: BifurcationLevel, speeds=None):
    """The runs that the package's walk builds below one level for the
    signed speeds `speeds`, every speed when None."""
    walk = _Walk(problem)
    counts = walk.null_modes([level.lambda_sq])[1]
    return walk.runs(level.lambda_sq, walk.by_speed if speeds is None else speeds, counts)


def zero_sum_first_witness(base, pool, table, need_pick):
    """The levels of `pool` that the zero-sum search picks first, by brute
    force: the indicator vectors over `pool` in descending lexicographic
    order (include before exclude, position by position), the first whose
    indices sum with `base` to zero, skipping the empty pick when
    `need_pick`.  Returns None when no vector qualifies."""
    for bits in itertools.product((1, 0), repeat=len(pool)):
        picked = tuple(lvl for lvl, bit in zip(pool, bits) if bit)
        if (picked or not need_pick) and not sum((table[lvl] for lvl in picked), base):
            return picked
    return None


def one_signed_functional(problem, index):
    """The additive functional that has one sign on every level index of
    `problem` (the proof in the `bifurcation` docstring): with a full-orbit
    coefficient n0 != 0, the sum of the coefficients of the dimension-one
    terms, -n0 times the multiplicity of the null modes; otherwise, for the
    smallest isotropy order i with c_i != 0, the sum of the coefficients of
    the terms whose rows begin with (i, 0), -c_i times that multiplicity."""
    if problem.deg_s1.fixed:
        return sum(c for h, c in index.terms if h.dim == 1)
    i = problem.deg_s1.finite[0][0]
    return sum(c for h, c in index.terms if h.rows[:1] == ((i, 0),))


def rows_order(rows):
    """The sort key under which ring terms were once kept, on canonical
    rows: descending dimension, then the rows themselves."""
    return (len(rows), rows)


def term_key(rows):
    """The ring key of canonical rows, spelled from its layout: the
    codimension, then the entries of the rows but for the 0 that the first
    of two rows holds."""
    flat = [entry for row in rows for entry in row]
    if len(rows) == 2:
        del flat[1]
    return (len(rows), *flat)


def terms_by_sorting_pairs(acc):
    """The terms `euler._from_keys` once built from a dict of
    coefficients: its nonzero (key, coefficient) pairs, sorted as pairs."""
    return tuple(sorted([t for t in acc.items() if t[1]]))


def label_by_rows(rows):
    """The text-grammar label of a subgroup, spelled from its canonical
    rows by their number: none, one character or two rows."""
    if not rows:
        return "T"
    if len(rows) == 1:
        return "H(%d,%d)" % rows[0]
    return "F(%d,0;%d,%d)" % (rows[0][0], *rows[1])


def lambda_set_by_fractions(problem: CriticalPointProblem, max_k: int):
    """The candidate levels as `lambda_set` once listed them: a level
    built for every candidate, ascending eigenvalues and k, merged on
    level equality and sorted by their `Fraction` lambda_sq."""
    found = {}
    for alpha in sorted(problem.positive_alphas()):
        for k in range(1, max_k + 1):
            found.setdefault(BifurcationLevel(k, alpha))
    return sorted(found, key=lambda lvl: lvl.lambda_sq)


def element_text_and_json(element):
    """An element in the text grammar and as its JSON terms, spelled by
    `str` of each subgroup of its `terms` view."""
    terms = [(str(h), c) for h, c in element.terms]
    signed = [f"{'-' if c < 0 else '+'} {abs(c)}*{g}" for g, c in terms]
    text = " ".join([f"{terms[0][1]}*{terms[0][0]}"] + signed[1:]) if terms else "0"
    return text, [{"generator": g, "coeff": c} for g, c in terms]


# argparse's test for a word that is a negative number, applied with
# re.match: `\d` takes every Unicode decimal digit and `$` also matches
# before one trailing newline
NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def argparse_reference_parser() -> argparse.ArgumentParser:
    """The argparse tree `torbif.cli` once built on every call, kept as the
    reference its option table is parsed against."""
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON instead of text")
    problem_flag = argparse.ArgumentParser(add_help=False)
    problem_flag.add_argument(
        "--problem", required=True, metavar="PATH", help="problem file to read"
    )
    maxk_flag = argparse.ArgumentParser(add_help=False)
    maxk_flag.add_argument(
        "--max-k",
        type=_positive_int,
        default=5,
        metavar="N",
        help="enumerate levels k/sqrt(alpha) for k = 1..N (default 5)",
    )

    parser = argparse.ArgumentParser(
        prog="torbif",
        description="Exact bifurcation invariants in the Euler ring of the 2-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "levels",
        parents=[json_flag, problem_flag, maxk_flag],
        help="enumerate candidate bifurcation levels",
    )
    p.set_defaults(handler=_cmd_levels)

    p = sub.add_parser(
        "index",
        parents=[json_flag, problem_flag],
        help="compute the index at one level",
    )
    p.add_argument("--k", type=int, metavar="K", help="frequency numerator")
    p.add_argument("--alpha", metavar="RAT", help="eigenvalue, as 'p' or 'p/q'")
    p.add_argument(
        "--lambda-sq", dest="lambda_sq", metavar="RAT", help="squared frequency, as 'p' or 'p/q'"
    )
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser(
        "classify",
        parents=[json_flag, problem_flag, maxk_flag],
        help="classify the bifurcating continua level by level",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "star",
        parents=[json_flag],
        help="multiply two Euler-ring elements",
    )
    p.add_argument("lhs", help="left factor, in the element grammar")
    p.add_argument("rhs", help="right factor, in the element grammar")
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser(
        "example",
        parents=[json_flag],
        help="write the built-in worked example as a problem file",
    )
    p.add_argument("out", metavar="PATH", help="where to write the problem file")
    p.set_defaults(handler=_cmd_example)

    return parser


def classify_output_rebuilding_reports(problem: CriticalPointProblem, max_k: int, as_json: bool) -> str:
    """The stdout of `torbif classify`, made as the command once made it:
    after the zero-sum search each upgraded level's report is built a
    second time with the sum-obstruction classification, and both writers
    print those rebuilt reports."""
    levels = lambda_set(problem, max_k)
    headline = classify_noncompact(problem)
    reports = [build_report(problem, lvl) for lvl in levels]
    if not validate(problem).ok:
        state = "skipped (assumptions not satisfied)"
    elif len(levels) > 20:
        state = "skipped (more than 20 levels)"
    else:
        indices = {report.level: report.index for report in reports}
        assert any_zero_sum_subset(problem, levels, indices) is None
        state = "checked"
        if headline is Classification.ALTERNATIVE and problem.unique_critical_point:
            reports = [
                BifurcationReport(
                    report.level,
                    report.index,
                    report.nontrivial,
                    report.certificate,
                    Classification.NONCOMPACT_SUM_OBSTRUCTION,
                )
                for report in reports
            ]
    if as_json:
        zero_sum = {"exists": False, "witness": None} if state == "checked" else {"skipped": state}
        payload = {
            "classification": headline.value,
            "reports": [report.to_dict() for report in reports],
            "zero_sum_subset": zero_sum,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"classification: {headline.value}"]
    for report in reports:
        lvl = report.level
        certificate = report.certificate.value if report.certificate else "none"
        lines.append(
            f"k={lvl.k} alpha={lvl.alpha} lambda_sq={lvl.lambda_sq}"
            f" nontrivial={'yes' if report.nontrivial else 'no'}"
            f" certificate={certificate}"
            f" classification={report.classification.value}"
            f" index={format_element(report.index)}"
        )
    if state == "checked":
        lines.append("zero-sum subsets among computed levels: none")
    else:
        lines.append(f"zero-sum check: {state}")
    return "".join(line + "\n" for line in lines)


def _twin(name, **options):
    """A frozen dataclass that prints as `name`, the package type it
    stands in for; `options` go to the decorator as they did there."""

    def wrap(cls):
        cls = dataclass(frozen=True, **options)(cls)
        cls.__qualname__ = name
        return cls

    return wrap


def canonical_by_rank(rows) -> bool:
    """Whether int pairs `rows` are a canonical lattice basis, by the rule
    for each rank written out, as `TorusSubgroup` once checked it: no row,
    one row (m, n) with n > 0 or n == 0 < m, or rows (a, 0), (b, d) with
    a > 0, d > 0 and 0 <= b < a."""
    if len(rows) == 1:
        m, n = rows[0]
        return n > 0 or (n == 0 and m > 0)
    if len(rows) == 2:
        (a, z), (b, d) = rows
        return z == 0 and a > 0 and d > 0 and 0 <= b < a
    return not rows


# The readers of integers in text as they were before `rationals._is_int`
# and `rationals._to_int` became the one home of that rule: patterns for
# the rationals and the "Zk" labels of problem files, string methods for
# the CLI's integer options, each with its own digit limit check.


def _check_digits(text: str) -> str:
    digits = sum(map(str.isdecimal, text))
    if digits > _MAX_DIGITS:
        raise ValueError(f"an integer of {digits} digits is over the limit of {_MAX_DIGITS}")
    return text


def parse_rational_by_pattern(text) -> Fraction:
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    if "/" in text and text.rsplit("/", 1)[1].lstrip("0") == "":
        raise ValueError(f"malformed rational {text!r}; denominator must be positive")
    for part in text.split("/"):
        _check_digits(part)
    return Fraction(text)


def integer_option_by_string_methods(text: str) -> int:
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(_check_digits(text))


def cyclic_order_by_pattern(label: str, ctx: str) -> int:
    """The isotropy order a `deg_s1` label names, 0 for "S1", or the
    ProblemFormatError that `problem_io` raised for it."""
    match = re.fullmatch(r"Z([1-9][0-9]*)", label)
    if label != "S1" and not match:
        raise ProblemFormatError(f"{ctx}.subgroup must be 'S1' or 'Zk' with k >= 1, got {label!r}")
    try:
        return int(_check_digits(match.group(1))) if match else 0
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


# Frozen-dataclass twins of the package's ten value types, as they were
# declared before the types became plain classes on `torbif._frozen.Frozen`:
# each keeps its dataclass options and its `__post_init__` (or, for the
# element, its `__new__`) with every check, message and normalization.  The
# element's twin still merges and sorts on rows, in `rows_order`, and then
# keys its terms by `term_key`, as the package's element does.  The twins
# refer to each other where the types referred to themselves.


@_twin("TorusSubgroup")
class TorusSubgroupTwin:
    rows: tuple = ()

    def __post_init__(self) -> None:
        rows = self.rows
        if not isinstance(rows, tuple) or not all(
            isinstance(r, tuple) and len(r) == 2 for r in rows
        ):
            raise ValueError(f"rows must be a tuple of int pairs, got {rows!r}")
        for r in rows:
            _check_int(r[0])
            _check_int(r[1])
        if not canonical_by_rank(rows):
            raise ValueError(f"rows {rows!r} are not a canonical lattice basis")


@_twin("EulerElementT2", init=False)
class EulerElementT2Twin:
    _terms: tuple

    def __new__(cls, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged = {}
        for subgroup, coeff in items:
            if not isinstance(subgroup, TorusSubgroupTwin):
                raise TypeError(f"expected TorusSubgroup keys, got {subgroup!r}")
            merged[subgroup.rows] = merged.get(subgroup.rows, 0) + _check_coeff(coeff)
        element = object.__new__(cls)
        terms = sorted((t for t in merged.items() if t[1]), key=lambda t: rows_order(t[0]))
        object.__setattr__(element, "_terms", tuple((term_key(rows), c) for rows, c in terms))
        return element


@_twin("EulerElementS1")
class EulerElementS1Twin:
    fixed: int = 0
    finite: tuple = ()

    def __post_init__(self) -> None:
        _check_coeff(self.fixed)
        raw = self.finite
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged = {}
        for order, coeff in items:
            if not isinstance(order, int) or isinstance(order, bool) or order < 1:
                raise ValueError(f"isotropy order must be a positive int, got {order!r}")
            merged[order] = merged.get(order, 0) + _check_coeff(coeff)
        cleaned = tuple(sorted((k, c) for k, c in merged.items() if c))
        object.__setattr__(self, "finite", cleaned)


def _check_mult(value, what):
    # the multiplicity check the representation types were declared with,
    # written out here so the twins do not share the package's check
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative int, got {value!r}")
    return value


@_twin("S1Representation")
class S1RepresentationTwin:
    trivial: int = 0
    rotating: tuple = ()

    def __post_init__(self) -> None:
        _check_mult(self.trivial, "trivial multiplicity")
        raw = self.rotating
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged = {}
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


@_twin("T2Representation")
class T2RepresentationTwin:
    trivial: int = 0
    characters: tuple = ()

    def __post_init__(self) -> None:
        _check_mult(self.trivial, "trivial multiplicity")
        raw = self.characters
        items = raw.items() if isinstance(raw, Mapping) else raw
        merged = {}
        for key, mult in items:
            m, n = key
            norm = normalize_character(m, n)
            merged[norm] = merged.get(norm, 0) + _check_mult(mult, "multiplicity")
        cleaned = tuple(
            sorted(((key, k) for key, k in merged.items() if k), key=lambda item: (item[0][1], item[0][0]))
        )
        object.__setattr__(self, "characters", cleaned)


@_twin("SpectralDatum")
class SpectralDatumTwin:
    alpha: Fraction
    isotypic: S1RepresentationTwin

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if not isinstance(self.isotypic, S1RepresentationTwin):
            raise TypeError("isotypic must be an S1Representation")
        if self.isotypic.dim == 0:
            raise ValueError("an eigenspace must have positive dimension")


@_twin("AssumptionReport")
class AssumptionReportTwin:
    positive_eigenvalue: bool
    nonzero_degree: bool


@_twin("CriticalPointProblem")
class CriticalPointProblemTwin:
    spectra: tuple
    deg_s1: EulerElementS1Twin
    unique_critical_point: bool = False

    def __post_init__(self) -> None:
        spectra = tuple(self.spectra)
        if not spectra:
            raise ValueError("a problem needs at least one spectral datum")
        if not all(isinstance(d, SpectralDatumTwin) for d in spectra):
            raise TypeError("spectra must contain SpectralDatum entries")
        alphas = [d.alpha for d in spectra]
        if len(set(alphas)) != len(alphas):
            raise ValueError("duplicate eigenvalues; merge their eigenspaces first")
        object.__setattr__(self, "spectra", spectra)
        if not isinstance(self.deg_s1, EulerElementS1Twin):
            raise TypeError("deg_s1 must be an EulerElementS1")
        if not isinstance(self.unique_critical_point, bool):
            raise TypeError("unique_critical_point must be a bool")


@_twin("BifurcationLevel", eq=False)
class BifurcationLevelTwin:
    k: int
    alpha: Fraction
    lambda_sq: Fraction = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k!r}")
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "lambda_sq", Fraction(self.k * self.k) / self.alpha)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifurcationLevelTwin):
            return NotImplemented
        return self.lambda_sq == other.lambda_sq

    def __hash__(self) -> int:
        return hash(self.lambda_sq)

    def __repr__(self) -> str:
        return f"BifurcationLevel(k={self.k}, alpha={self.alpha})"


@_twin("BifurcationReport")
class BifurcationReportTwin:
    level: BifurcationLevelTwin
    index: EulerElementT2Twin
    nontrivial: bool
    certificate: object
    classification: object


VALUE_TYPE_TWINS = {
    twin.__qualname__: twin
    for twin in (
        TorusSubgroupTwin,
        EulerElementT2Twin,
        EulerElementS1Twin,
        S1RepresentationTwin,
        T2RepresentationTwin,
        SpectralDatumTwin,
        AssumptionReportTwin,
        CriticalPointProblemTwin,
        BifurcationLevelTwin,
        BifurcationReportTwin,
    )
}


# The problem-file reader as it was before `problem_io.parse_problem` read
# each field once and built its values through `_frozen._trusted`: a
# context string for every field it reads, the public constructors, which
# check every value again, and a duplicate check on `Fraction` hashes.


def _ref_no_float(text: str) -> None:
    raise ProblemFormatError(f"floats are not accepted, got {text!r}; use 'p/q' strings")


def _ref_no_constant(text: str) -> None:
    raise ProblemFormatError(f"non-finite numbers are not accepted, got {text!r}")


def _ref_int(text: str) -> int:
    try:
        return _to_int(text)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


def _ref_object(pairs):
    fields = {}
    for name, value in pairs:
        if name in fields:
            raise ProblemFormatError(f"duplicate field {name!r}")
        fields[name] = value
    return fields


def _ref_require_object(value, keys, where):
    if not isinstance(value, dict):
        raise ProblemFormatError(f"{where} must be an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ProblemFormatError(f"{where} has unknown fields {sorted(unknown)}")
    missing = set(keys) - set(value)
    if missing:
        raise ProblemFormatError(f"{where} is missing fields {sorted(missing)}")
    return value


def _ref_require_int(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProblemFormatError(f"{where} must be an integer, got {value!r}")
    return value


def _ref_parse_alpha(value, where):
    if isinstance(value, bool):
        raise ProblemFormatError(f"{where} must be a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ProblemFormatError(f"{where}: {exc}") from exc
    raise ProblemFormatError(f"{where} must be an integer or a 'p/q' string, got {value!r}")


def _ref_parse_isotypic(value, where):
    if not isinstance(value, list) or not value:
        raise ProblemFormatError(f"{where} must be a non-empty list")
    speeds = {}
    for pos, entry in enumerate(value):
        ctx = f"{where}[{pos}]"
        record = _ref_require_object(entry, ("m", "k"), ctx)
        m = _ref_require_int(record["m"], f"{ctx}.m")
        k = _ref_require_int(record["k"], f"{ctx}.k")
        if m < 0:
            raise ProblemFormatError(f"{ctx}.m must be >= 0")
        if k < 1:
            raise ProblemFormatError(f"{ctx}.k must be >= 1")
        if m in speeds:
            raise ProblemFormatError(f"{ctx}: duplicate speed m={m}")
        speeds[m] = k
    return S1Representation(speeds.pop(0, 0), speeds)


def _ref_parse_degree(value, where):
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where} must be a list")
    terms = {}
    for pos, entry in enumerate(value):
        ctx = f"{where}[{pos}]"
        record = _ref_require_object(entry, ("subgroup", "coeff"), ctx)
        label = record["subgroup"]
        coeff = _ref_require_int(record["coeff"], f"{ctx}.coeff")
        if coeff == 0:
            raise ProblemFormatError(f"{ctx}.coeff must be nonzero; omit the entry instead")
        if not isinstance(label, str):
            raise ProblemFormatError(f"{ctx}.subgroup must be a string")
        cyclic = label[:1] == "Z" and _is_int(label[1:], "") and label[1] != "0"
        if label != "S1" and not cyclic:
            raise ProblemFormatError(f"{ctx}.subgroup must be 'S1' or 'Zk' with k >= 1, got {label!r}")
        order = _ref_int(label[1:]) if cyclic else 0
        if order in terms:
            raise ProblemFormatError(f"{ctx}: duplicate subgroup {label!r}")
        terms[order] = coeff
    return EulerElementS1(terms.pop(0, 0), terms)


def parse_problem_reference(text: str) -> CriticalPointProblem:
    """Parse a problem file's contents as `problem_io.parse_problem` once
    did, with the same checks in the same order and the same messages."""
    try:
        payload = json.loads(
            text,
            object_pairs_hook=_ref_object,
            parse_int=_ref_int,
            parse_float=_ref_no_float,
            parse_constant=_ref_no_constant,
        )
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFormatError("not valid JSON: nested too deeply") from exc
    top = _ref_require_object(payload, ("spectra", "deg_s1", "unique_critical_point"), "problem")
    spectra_raw = top["spectra"]
    if not isinstance(spectra_raw, list) or not spectra_raw:
        raise ProblemFormatError("spectra must be a non-empty list")
    data = []
    alphas = set()
    for pos, entry in enumerate(spectra_raw):
        ctx = f"spectra[{pos}]"
        record = _ref_require_object(entry, ("alpha", "isotypic"), ctx)
        alpha = _ref_parse_alpha(record["alpha"], f"{ctx}.alpha")
        if alpha in alphas:
            raise ProblemFormatError(f"{ctx}: duplicate eigenvalue alpha = {alpha}")
        alphas.add(alpha)
        data.append(SpectralDatum(alpha, _ref_parse_isotypic(record["isotypic"], f"{ctx}.isotypic")))
    degree = _ref_parse_degree(top["deg_s1"], "deg_s1")
    unique = top["unique_critical_point"]
    if not isinstance(unique, bool):
        raise ProblemFormatError("unique_critical_point must be a bool")
    return CriticalPointProblem(tuple(data), degree, unique)
