import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbif import (
    BifurcationLevel,
    CriticalPointProblem,
    EulerElementS1,
    InvalidLevel,
    S1Representation,
    SpectralDatum,
    T2Representation,
    example_problem,
    lambda_set,
    level_from_lambda_sq,
    loop_decompose,
    negative_space,
    resonant_pairs,
    resonant_space,
    validate,
)

from torbif.spectral import _ascending

from oracles import (
    below_runs_by_fractions,
    below_runs_by_scan,
    hessian_eigenvalue,
    lambda_set_by_fractions,
    negative_space_by_mode,
    random_problem,
    resonances_by_fractions,
    resonant_space_by_constructor,
    walk_runs,
)


def test_spectral_datum_coerces_alpha():
    d = SpectralDatum("3/2", S1Representation(trivial=1))
    assert d.alpha == Fraction(3, 2)
    assert SpectralDatum(2, S1Representation(trivial=1)).alpha == Fraction(2)
    with pytest.raises(ValueError):
        SpectralDatum(1, S1Representation())
    with pytest.raises(TypeError):
        SpectralDatum(1.5, S1Representation(trivial=1))


def test_problem_rejects_duplicate_alphas():
    d1 = SpectralDatum(1, S1Representation(trivial=1))
    d2 = SpectralDatum(Fraction(2, 2), S1Representation(trivial=2))
    with pytest.raises(ValueError):
        CriticalPointProblem(spectra=(d1, d2), deg_s1=EulerElementS1.identity())
    with pytest.raises(ValueError):
        CriticalPointProblem(spectra=(), deg_s1=EulerElementS1.identity())


def test_problem_accessors():
    prob = example_problem()
    assert prob.dimension == 4
    assert prob.positive_alphas() == (Fraction(2),)
    assert prob.eigenspace(Fraction(0)) == S1Representation(trivial=1, rotating={1: 1})
    with pytest.raises(ValueError):
        prob.eigenspace(Fraction(7))


def test_validate_flags():
    ok = validate(example_problem())
    assert ok.positive_eigenvalue and ok.nonzero_degree and ok.ok
    flat = CriticalPointProblem(
        spectra=(SpectralDatum(-1, S1Representation(trivial=1)),),
        deg_s1=EulerElementS1.zero(),
    )
    bad = validate(flat)
    assert not bad.positive_eigenvalue
    assert not bad.nonzero_degree
    assert not bad.ok


def test_level_identity_is_lambda_sq():
    a = BifurcationLevel(1, Fraction(1, 2))
    b = BifurcationLevel(2, 2)
    assert a.lambda_sq == b.lambda_sq == Fraction(2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != BifurcationLevel(1, 1)
    with pytest.raises(ValueError):
        BifurcationLevel(0, 1)
    with pytest.raises(ValueError):
        BifurcationLevel(1, 0)
    with pytest.raises(ValueError):
        BifurcationLevel(1, Fraction(-1, 2))


def test_lambda_set_merges_coincident_levels():
    prob = CriticalPointProblem(
        spectra=(
            SpectralDatum(1, S1Representation(trivial=1)),
            SpectralDatum(4, S1Representation(trivial=1)),
        ),
        deg_s1=EulerElementS1.identity(),
    )
    levels = lambda_set(prob, 2)
    assert [lvl.lambda_sq for lvl in levels] == [Fraction(1, 4), Fraction(1), Fraction(4)]
    # the merged level keeps the smallest-k representative
    merged = levels[1]
    assert (merged.k, merged.alpha) == (1, Fraction(1))
    with pytest.raises(ValueError):
        lambda_set(prob, 0)


@st.composite
def coincident_problems(draw):
    """Eigenvalues among alpha, 4 alpha, 9 alpha / 4, 9 alpha and 2 alpha,
    whose frequencies k / sqrt(alpha) coincide in many ways, with zero
    and negative ones, in a drawn order; and a small max_k."""
    alpha = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    scales = (1, 4, Fraction(9, 4), 9, 2, 0, -1)
    chosen = draw(st.lists(st.sampled_from(scales), min_size=1, max_size=len(scales), unique=True))
    reps = st.sampled_from(
        (
            S1Representation(trivial=1),
            S1Representation(rotating={2: 1}),
            S1Representation(trivial=2, rotating={1: 1, 3: 2}),
        )
    )
    spectra = [SpectralDatum(scale * alpha, draw(reps)) for scale in chosen]
    problem = CriticalPointProblem(spectra=spectra, deg_s1=EulerElementS1.identity())
    return problem, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(coincident_problems())
def test_each_level_is_named_by_its_smallest_null_mode(case):
    # lambda_set and level_from_lambda_sq give a level the same (k, alpha),
    # and resonant_pairs lists the modes of resonant_space, ascending
    problem, max_k = case
    for level in lambda_set(problem, max_k):
        named = level_from_lambda_sq(problem, level.lambda_sq)
        assert (level.k, level.alpha) == (named.k, named.alpha)
        modes = [n for n, _ in resonant_pairs(problem, level)]
        assert modes[0] == level.k
        assert modes == sorted({n for (_, n), _ in resonant_space(problem, level).characters})


huge = st.integers(10**999, 10**1000 - 1)


@st.composite
def level_lists(draw):
    """Eigenvalues whose levels coincide in many ways, around a base alpha
    with small or 1,000-digit numerator and denominator, with other
    positive, zero and negative ones, some of 1,000 digits, in a drawn
    order; and a max_k."""
    base = Fraction(draw(st.integers(1, 12) | huge), draw(st.integers(1, 12) | huge))
    scales = (1, 4, Fraction(9, 4), 9, 2, Fraction(1, 4), Fraction(25, 9))
    chosen = draw(st.lists(st.sampled_from(scales), min_size=1, max_size=len(scales), unique=True))
    others = st.fractions(-3, 50, max_denominator=12) | huge.map(Fraction) | huge.map(lambda n: Fraction(-n))
    alphas = {scale * base for scale in chosen} | set(draw(st.lists(others, max_size=3)))
    spectra = [SpectralDatum(a, S1Representation(trivial=1)) for a in draw(st.permutations(sorted(alphas)))]
    return CriticalPointProblem(spectra=spectra, deg_s1=EulerElementS1.identity()), draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(level_lists())
def test_lambda_set_orders_its_integer_keys_as_fractions(case):
    # merged and sorted by exact integer keys, the levels and the (k,
    # alpha) naming each are those of a merge and sort by Fraction
    problem, max_k = case
    named = [(lvl.k, lvl.alpha, lvl.lambda_sq) for lvl in lambda_set(problem, max_k)]
    assert named == [(lvl.k, lvl.alpha, lvl.lambda_sq) for lvl in lambda_set_by_fractions(problem, max_k)]


@settings(max_examples=300, deadline=None)
@given(level_lists())
def test_positive_eigenvalues_sort_by_an_integer_key_as_fractions(case):
    # the order the walk and lambda_set read the eigenvalues in, keyed by
    # integers, is that of their Fractions, also with 1,000-digit parts
    problem, _ = case
    assert [d.alpha for d in _ascending(problem)] == sorted(problem.positive_alphas())


def test_lambda_set_empty_without_positive_eigenvalue():
    prob = CriticalPointProblem(
        spectra=(SpectralDatum(-2, S1Representation(trivial=1)),),
        deg_s1=EulerElementS1.identity(),
    )
    assert lambda_set(prob, 6) == []


def test_resonant_pairs_collects_all_modes():
    prob = CriticalPointProblem(
        spectra=(
            SpectralDatum(1, S1Representation(trivial=1)),
            SpectralDatum(4, S1Representation(trivial=1)),
        ),
        deg_s1=EulerElementS1.identity(),
    )
    level = BifurcationLevel(1, 1)
    assert resonant_pairs(prob, level) == ((1, Fraction(1)), (2, Fraction(4)))
    off = BifurcationLevel(1, Fraction(1, 3))
    assert resonant_pairs(prob, off) == ()


def test_level_stores_lambda_sq():
    level = BifurcationLevel(3, Fraction(4, 5))
    assert vars(level)["lambda_sq"] == Fraction(9) / Fraction(4, 5) == Fraction(45, 4)
    assert level.lambda_sq is level.lambda_sq
    # from different eigenvalues, equal squared frequencies: one level
    other = BifurcationLevel(6, Fraction(16, 5))
    assert other.lambda_sq == level.lambda_sq
    assert other == level and hash(other) == hash(level)
    assert len({level, other}) == 1
    assert repr(level) == "BifurcationLevel(k=3, alpha=4/5)"
    assert repr(other) == "BifurcationLevel(k=6, alpha=16/5)"


def test_level_from_lambda_sq():
    prob = example_problem()
    level = level_from_lambda_sq(prob, "1/2")
    assert (level.k, level.alpha) == (1, Fraction(2))
    assert level_from_lambda_sq(prob, Fraction(2)).k == 2
    with pytest.raises(InvalidLevel):
        level_from_lambda_sq(prob, Fraction(1, 3))
    with pytest.raises(InvalidLevel):
        level_from_lambda_sq(prob, 0)
    with pytest.raises(InvalidLevel):
        level_from_lambda_sq(prob, -4)


def test_hessian_eigenvalue_formula():
    assert hessian_eigenvalue(1, Fraction(1, 2), 2) == 0
    assert hessian_eigenvalue(0, Fraction(1, 2), 2) == -1
    assert hessian_eigenvalue(3, 2, 4) == Fraction(9 - 8, 10)
    assert hessian_eigenvalue(2, 1, -3) == Fraction(4 + 3, 5)
    with pytest.raises(ValueError):
        hessian_eigenvalue(-1, 1, 1)


def test_negative_space_example():
    prob = example_problem()
    level = BifurcationLevel(3, 2)
    below = negative_space(prob, level)
    assert below == T2Representation(characters={(0, 1): 1, (0, 2): 1})
    at = negative_space_by_mode(prob, level, "plus")
    assert at == T2Representation(characters={(0, 1): 1, (0, 2): 1, (0, 3): 1})
    assert resonant_space(prob, level) == T2Representation(characters={(0, 3): 1})
    assert below + resonant_space(prob, level) == at


@given(st.integers(0, 10**9))
def test_plus_side_absorbs_resonant_space(seed):
    rng = random.Random(seed)
    prob = random_problem(rng)
    for level in lambda_set(prob, 4):
        plus = negative_space_by_mode(prob, level, "plus")
        minus = negative_space(prob, level)
        assert minus + resonant_space(prob, level) == plus


@given(st.integers(0, 10**9))
def test_resonant_space_matches_the_public_constructor(seed):
    # the trusted constructor takes characters made canonical and sorted;
    # the public one, which normalizes, merges and sorts, agrees on them,
    # also at frequencies that are not levels
    prob = random_problem(random.Random(seed))
    levels = lambda_set(prob, 6) + [BifurcationLevel(k, 7) for k in (1, 2)]
    for level in levels:
        assert resonant_space(prob, level) == resonant_space_by_constructor(prob, level)


@given(st.integers(0, 10**9))
def test_negative_space_matches_per_mode_sum(seed):
    prob = random_problem(random.Random(seed))
    for level in lambda_set(prob, 6):
        below = negative_space(prob, level)
        assert below == negative_space_by_mode(prob, level, "minus")
        assert below + resonant_space(prob, level) == negative_space_by_mode(prob, level, "plus")


@given(st.integers(0, 10**9))
def test_below_runs_cover_each_character_once(seed):
    # per signed speed the runs are disjoint and contiguous from n = 1, and
    # each character below the level lies in exactly one run, of its
    # multiplicity; eigenvalues sharing a speed left unmerged would give
    # overlapping runs, a cost the index values alone would not show
    prob = random_problem(random.Random(seed))
    for level in lambda_set(prob, 6):
        runs = walk_runs(prob, level)
        spans = {}
        for s, lo, hi, k in runs:
            assert lo < hi and k > 0
            spans.setdefault(s, []).append((lo, hi))
        for found in spans.values():
            found.sort()
            assert found[0][0] == 1
            assert all(left[1] == right[0] for left, right in zip(found, found[1:]))
        below = negative_space_by_mode(prob, level, "minus").characters
        for (m, n), k in below:
            assert [w for s, lo, hi, w in runs if s == m and lo <= n < hi] == [k]
        assert sum(hi - lo for _, lo, hi, _ in runs) == len(below)


@given(st.integers(0, 10**9))
def test_mode_signs_behind_the_spaces(seed):
    rng = random.Random(seed)
    prob = random_problem(rng)
    levels = lambda_set(prob, 3)
    for level in levels:
        q = level.lambda_sq
        strict = T2Representation()
        null = T2Representation()
        for datum in prob.spectra:
            if datum.alpha <= 0:
                continue
            n = 1
            while hessian_eigenvalue(n, q, datum.alpha) < 0:
                strict = strict + loop_decompose(datum.isotypic, n)
                n += 1
            if hessian_eigenvalue(n, q, datum.alpha) == 0:
                null = null + loop_decompose(datum.isotypic, n)
        assert strict == negative_space(prob, level)
        assert null == resonant_space(prob, level)


@given(st.integers(0, 10**9))
def test_levels_are_exactly_the_resonant_frequencies(seed):
    rng = random.Random(seed)
    prob = random_problem(rng)
    levels = lambda_set(prob, 4)
    squares = [lvl.lambda_sq for lvl in levels]
    for lvl in levels:
        assert resonant_space(prob, lvl).dim > 0
    # between consecutive enumerated frequencies only a perfect square
    # n^2 = lambda_sq * alpha (necessarily with n above max_k) may resonate
    for low, high in zip(squares, squares[1:]):
        mid = (low + high) / 2
        probe = BifurcationLevel(1, 1 / mid)
        assert probe.lambda_sq == mid
        hit = False
        for datum in prob.spectra:
            if datum.alpha <= 0:
                continue
            target = mid * datum.alpha
            if target.denominator == 1:
                root = math.isqrt(target.numerator)
                hit = hit or (root >= 1 and root * root == target.numerator)
        assert (resonant_space(prob, probe).dim > 0) == hit


# eigenspaces that share the speeds 1 and 3, so that runs merge
SHARED_SPEED_REPS = (
    S1Representation(trivial=1, rotating={1: 1}),
    S1Representation(rotating={1: 2, 3: 1}),
    S1Representation(trivial=2, rotating={3: 1}),
)
huge = st.one_of(st.integers(1, 50), st.integers(1, 10**300))
positive_rationals = st.builds(Fraction, huge, huge)


@st.composite
def levels_against_eigenvalues(draw):
    """A problem with up to three distinct eigenvalues, the first positive
    and the others also zero or negative, of up to hundreds of digits, and
    a positive q; q * alpha for the first alpha is often a perfect square,
    one next to it, or a square plus or minus a small fraction."""
    first = draw(positive_rationals)
    nonpositive = st.one_of(positive_rationals.map(lambda a: -a), st.just(Fraction(0)))
    others = draw(st.lists(st.one_of(positive_rationals, nonpositive), max_size=2))
    alphas = list(dict.fromkeys([first] + others))
    spectra = tuple(SpectralDatum(a, rep) for a, rep in zip(alphas, SHARED_SPEED_REPS))
    problem = CriticalPointProblem(spectra=spectra, deg_s1=EulerElementS1.identity())
    root = draw(st.one_of(st.integers(1, 30), st.integers(1, 10**150)))
    target = draw(
        st.sampled_from(
            (
                root * root,
                root * root + 1,
                max(root * root - 1, 1),
                root * root + Fraction(1, draw(st.integers(2, 10**50))),
                root * root - Fraction(1, draw(st.integers(2, 10**50))),
            )
        )
    )
    q = draw(st.one_of(st.just(target / first), positive_rationals))
    return problem, q


@settings(max_examples=300, deadline=None)
@given(levels_against_eigenvalues())
def test_level_arithmetic_matches_fraction_oracles(case):
    # the integer comparisons decide the same resonances and the same runs
    # below the level as Fraction arithmetic, at any size of p/q
    problem, q = case
    level = BifurcationLevel(1, 1 / q)
    assert level.lambda_sq == q
    assert resonant_pairs(problem, level) == resonances_by_fractions(problem, q)
    runs = sorted(below_runs_by_fractions(problem, level))
    assert sorted(walk_runs(problem, level)) == sorted(below_runs_by_scan(problem, level)) == runs


def test_level_arithmetic_at_and_next_to_a_square():
    # q * alpha at r^2 resonates on mode r and has r - 1 modes below; just
    # under r^2 it has the same modes below and no resonance, just over it r
    alpha = Fraction(10**200 + 1, 7)
    problem = CriticalPointProblem(
        spectra=(SpectralDatum(alpha, S1Representation(trivial=1)),), deg_s1=EulerElementS1.identity()
    )
    r = 10**120 + 3
    for target, modes, resonant in (
        (r * r, r - 1, ((r, alpha),)),
        (r * r - Fraction(1, 10**40), r - 1, ()),
        (r * r - 1, r - 1, ()),
        (r * r + Fraction(1, 10**40), r, ()),
        (r * r + 1, r, ()),
    ):
        level = BifurcationLevel(1, alpha / target)
        assert resonant_pairs(problem, level) == resonant
        assert walk_runs(problem, level) == [(0, 1, modes + 1, 1)]
