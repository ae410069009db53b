import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
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

from torbif.spectral import _below_runs

from oracles import hessian_eigenvalue, negative_space_by_mode, random_problem


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
        runs = _below_runs(prob, level)
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
