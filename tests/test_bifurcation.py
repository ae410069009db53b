import io
import json
import os
import random
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torbif.bifurcation
import torbif.cli
from torbif import (
    BifurcationLevel,
    BifurcationReport,
    Certificate,
    Classification,
    CriticalPointProblem,
    EulerElementS1,
    EulerElementT2,
    InvalidLevel,
    S1Representation,
    SpectralDatum,
    TorusSubgroup,
    any_zero_sum_subset,
    bif_index,
    build_report,
    certify_nontrivial,
    classify_noncompact,
    embed_s1_to_t2,
    example_problem,
    exists_zero_sum_subset,
    lambda_set,
    resonant_pairs,
    resonant_space,
    write_problem,
)
from torbif.bifurcation import _reports
from torbif.cli import main
from torbif.spectral import _resonances, _Walk

from oracles import (
    below_runs_by_fractions,
    bif_index_expanded,
    bif_index_two_sided,
    classify_output_rebuilding_reports,
    cross_direction_pairs,
    one_signed_functional,
    random_element,
    random_problem,
    resonances_by_fractions,
    walk_runs,
    zero_sum_first_witness,
)

I = EulerElementT2.identity()


def gen(*chars):
    return EulerElementT2.generator(TorusSubgroup.from_characters(chars))


def axis_family_problem(finite, fixed=0, unique=True):
    """Example spectra with a custom circle degree."""
    base = example_problem()
    return CriticalPointProblem(
        spectra=base.spectra,
        deg_s1=EulerElementS1(fixed, finite),
        unique_critical_point=unique,
    )


def rotating_toy_problem():
    return CriticalPointProblem(
        spectra=(SpectralDatum(1, S1Representation(rotating={1: 1})),),
        deg_s1=EulerElementS1(fixed=2),
        unique_critical_point=True,
    )


def test_example_golden_family():
    prob = example_problem()
    for k in (1, 2, 3):
        index = bif_index(prob, BifurcationLevel(k, 2))
        assert index == -1 * gen((1, 0), (0, k))
    assert embed_s1_to_t2(prob.deg_s1) == gen((1, 0))
    assert prob.deg_s1.fixed == 0


def test_example_certificate_and_classification():
    prob = example_problem()
    level = BifurcationLevel(1, 2)
    assert certify_nontrivial(prob, level) == (True, Certificate.SAME_SIGN)
    assert classify_noncompact(prob) is Classification.NONCOMPACT_UNIFORM_SIGN


def test_fixed_coefficient_path():
    prob = rotating_toy_problem()
    level = BifurcationLevel(1, 1)
    index = bif_index(prob, level)
    assert index == -2 * gen((1, 1)) - 2 * gen((-1, 1)) + 2 * gen((2, 0), (1, 1))
    assert certify_nontrivial(prob, level) == (True, Certificate.FIXED_COEFFICIENT)
    assert classify_noncompact(prob) is Classification.NONCOMPACT_FIXED_COEFFICIENT
    assert prob.deg_s1.fixed == 2


def test_invalid_level_is_rejected():
    prob = example_problem()
    with pytest.raises(InvalidLevel):
        bif_index(prob, BifurcationLevel(1, 3))
    with pytest.raises(InvalidLevel):
        certify_nontrivial(prob, BifurcationLevel(1, Fraction(1, 7)))


def test_zero_degree_is_not_applicable():
    prob = axis_family_problem(finite={}, fixed=0)
    level = BifurcationLevel(1, 2)
    assert certify_nontrivial(prob, level) == (False, None)
    report = build_report(prob, level)
    assert report.classification is Classification.NOT_APPLICABLE
    assert report.index == EulerElementT2.zero()
    assert not report.nontrivial
    assert report.certificate is None


def test_mixed_sign_degree_stays_alternative():
    prob = axis_family_problem(finite={1: 1, 2: -1})
    assert classify_noncompact(prob) is Classification.ALTERNATIVE
    # the index is still provably nonzero at every level
    assert certify_nontrivial(prob, BifurcationLevel(1, 2)) == (
        True,
        Certificate.SAME_SIGN,
    )


def test_nonunique_critical_point_stays_alternative():
    prob = axis_family_problem(finite={1: 1}, unique=False)
    assert classify_noncompact(prob) is Classification.ALTERNATIVE


def test_mixed_sign_indices_by_hand():
    # deg = Z1 - Z2 over the example spectra: at level k the index is
    # -F(1,0;0,k) + F(2,0;0,k), worked out from the product rules
    prob = axis_family_problem(finite={1: 1, 2: -1})
    for k in (1, 2, 3):
        index = bif_index(prob, BifurcationLevel(k, 2))
        assert index == -1 * gen((1, 0), (0, k)) + gen((2, 0), (0, k))


def classify_reports(problem, tmp_path, capsys, max_k=4):
    """The per-level reports `torbif classify --json` prints for `problem`."""
    path = tmp_path / "problem.json"
    write_problem(problem, path)
    assert main(["classify", "--problem", str(path), "--max-k", str(max_k), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def count_calls(monkeypatch, name, modules):
    """Record the arguments of every call to `name`, wherever it is called from."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_sum_obstruction_upgrade(tmp_path, capsys):
    prob = axis_family_problem(finite={1: 1, 2: -1})
    levels = lambda_set(prob, 4)
    level = levels[0]
    bare = build_report(prob, level)
    assert bare.classification is Classification.ALTERNATIVE
    upgraded = classify_reports(prob, tmp_path, capsys)["reports"][0]
    assert upgraded["classification"] == Classification.NONCOMPACT_SUM_OBSTRUCTION.value
    assert upgraded["nontrivial"]
    # without uniqueness the upgrade is off
    loose = axis_family_problem(finite={1: 1, 2: -1}, unique=False)
    report = classify_reports(loose, tmp_path, capsys)["reports"][0]
    assert report["classification"] == Classification.ALTERNATIVE.value


def test_classify_searches_once_without_witness(tmp_path, capsys, monkeypatch):
    # no zero-sum subset at all: every level is upgraded with no anchored
    # search, and each level's resonant factor is formed once
    prob = axis_family_problem(finite={1: 1, 2: -1})
    anchored = count_calls(monkeypatch, "exists_zero_sum_subset", [torbif.bifurcation])
    resonant = count_calls(monkeypatch, "resonant", [_Walk])
    payload = classify_reports(prob, tmp_path, capsys)
    assert payload["zero_sum_subset"] == {"exists": False, "witness": None}
    assert all(
        r["classification"] == Classification.NONCOMPACT_SUM_OBSTRUCTION.value
        for r in payload["reports"]
    )
    assert anchored == []
    # the walk forms the null modes' representation once per level, at
    # each level's null modes
    pairs = [resonant_pairs(prob, level) for level in lambda_set(prob, 4)]
    assert [[(n, args[0].data[j].alpha) for n, j in args[1]] for args in resonant] == [
        list(p) for p in pairs
    ]


def test_validate_runs_once_per_level(tmp_path, capsys, monkeypatch):
    # the assumption check is problem-wide and runs only at the API edge:
    # a report reads the degree and runs none, and classify runs one for
    # its headline and one for its zero-sum gate, whatever the level count
    prob = axis_family_problem(finite={1: 1, 2: -1})
    levels = lambda_set(prob, 4)
    calls = count_calls(monkeypatch, "validate", [torbif.bifurcation, torbif.cli])
    build_report(prob, levels[0])
    assert len(calls) == 0
    classify_reports(prob, tmp_path, capsys)
    assert len(calls) == 2


def test_classify_witness_branch(tmp_path, capsys, monkeypatch):
    # injected indices {l0: x, l1: -x, l2: x, l3: z} cancel, which no valid
    # problem's indices can: the search's witness is an internal error
    prob = axis_family_problem(finite={1: 1, 2: -1})
    levels = lambda_set(prob, 4)
    x = gen((1, 0), (0, 2)) - 3 * I
    table = dict(zip(levels, (x, -1 * x, x, gen((1, 1)))))
    original = torbif.cli._reports

    def injected(problem, levels):
        for report in original(problem, levels):
            yield BifurcationReport(
                report.level, table[report.level], report.nontrivial, report.certificate, report.classification
            )

    monkeypatch.setattr(torbif.cli, "_reports", injected)
    path = tmp_path / "problem.json"
    write_problem(prob, path)
    for extra in ([], ["--json"]):
        assert main(["classify", "--problem", str(path), "--max-k", "4", *extra]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: a subset of the level indices sums to zero\n"


def test_zero_sum_subset_searches():
    prob = example_problem()
    levels = lambda_set(prob, 6)
    found, witness = exists_zero_sum_subset(prob, levels, levels[0])
    assert (found, witness) == (False, None)
    assert any_zero_sum_subset(prob, levels) is None
    with pytest.raises(ValueError):
        exists_zero_sum_subset(prob, levels, BifurcationLevel(1, Fraction(1, 49)))
    with pytest.raises(ValueError):
        exists_zero_sum_subset(prob, levels + levels, levels[0])


def test_zero_sum_subset_with_supplied_indices():
    # a synthetic cancellation x + (-x) = 0 injected through the table
    prob = example_problem()
    levels = lambda_set(prob, 3)
    x = gen((1, 0), (0, 2)) - 3 * I
    table = {levels[0]: x, levels[1]: -1 * x, levels[2]: gen((1, 1))}
    found, witness = exists_zero_sum_subset(prob, levels, levels[0], table)
    assert found
    assert witness == (levels[0], levels[1])
    assert any_zero_sum_subset(prob, levels, table) == (levels[0], levels[1])
    # anchored at the odd one out there is no cancelling companion
    found, witness = exists_zero_sum_subset(prob, levels, levels[2], table)
    assert (found, witness) == (False, None)


def planted_pool(rng):
    """Random indices for 1 to 8 levels, some of them negated copies, sums
    or negated sums of earlier ones, so that many pools hold a zero-sum
    subset and share generators with both signs."""
    elements = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if elements and roll < 0.25:
            elements.append(-1 * rng.choice(elements))
        elif len(elements) >= 2 and roll < 0.5:
            a, b = rng.sample(elements, 2)
            elements.append(rng.choice((1, -1)) * (a + b))
        else:
            elements.append(random_element(rng, max_terms=3, coeff_span=2, span=3))
    rng.shuffle(elements)
    return elements


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_zero_sum_searches_match_brute_force(seed):
    # the pruned walk returns exactly the unpruned walk's first witness,
    # globally and at every anchor
    rng = random.Random(seed)
    prob = example_problem()
    elements = planted_pool(rng)
    levels = lambda_set(prob, len(elements))
    table = dict(zip(levels, elements))
    shuffled = rng.sample(levels, len(levels))
    expected = zero_sum_first_witness(EulerElementT2.zero(), levels, table, need_pick=True)
    assert any_zero_sum_subset(prob, shuffled, table) == expected
    for anchor in levels:
        others = [lvl for lvl in levels if lvl != anchor]
        combo = zero_sum_first_witness(table[anchor], others, table, need_pick=False)
        witness = None if combo is None else tuple(sorted((anchor,) + combo, key=lambda l: l.lambda_sq))
        assert exists_zero_sum_subset(prob, shuffled, anchor, table) == (combo is not None, witness)


def test_zero_sum_search_on_a_long_pool():
    # 3,000 levels with distinct one-term indices: no subset cancels, and the
    # walk is not bounded by the interpreter's recursion limit
    prob = example_problem()
    levels = [BifurcationLevel(k, 2) for k in range(1, 3001)]
    table = {lvl: gen((lvl.k, 1)) for lvl in levels}
    assert any_zero_sum_subset(prob, levels, table) is None
    assert exists_zero_sum_subset(prob, levels, levels[1500], table) == (False, None)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_level_indices_never_cancel(seed):
    # the functional of the proof in the `bifurcation` docstring is -n0 or
    # -c_i times the multiplicity of the null modes at every level, so no
    # nonempty sum of level indices vanishes
    prob = random_problem(random.Random(seed))
    levels = lambda_set(prob, 4)
    n0 = prob.deg_s1.fixed
    coeff = n0 or prob.deg_s1.finite[0][1]
    indices = {}
    for level in levels:
        indices[level] = build_report(prob, level).index
        multiplicity = sum(k for _, k in resonant_space(prob, level).characters)
        assert multiplicity > 0
        assert one_signed_functional(prob, indices[level]) == -coeff * multiplicity
    assert any_zero_sum_subset(prob, levels, indices) is None


def test_report_to_dict_shape():
    prob = example_problem()
    report = build_report(prob, BifurcationLevel(1, 2))
    payload = report.to_dict()
    assert payload["level"] == {"k": 1, "alpha": 2, "lambda_sq": "1/2"}
    assert payload["index"] == [{"generator": "F(1,0;0,1)", "coeff": -1}]
    assert payload["nontrivial"] is True
    assert payload["certificate"] == "SameSignPath"
    assert payload["classification"] == "NonCompactGuaranteed(c2)"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_index_pipeline_properties(seed):
    rng = random.Random(seed)
    prob = random_problem(rng)
    levels = lambda_set(prob, 4)[:3]
    n0 = prob.deg_s1.fixed
    for level in levels:
        index = bif_index(prob, level)
        assert index
        assert index.project(2) == EulerElementT2.zero()
        assert index == bif_index_two_sided(prob, level)
        nontrivial, certificate = certify_nontrivial(prob, level)
        assert nontrivial
        expected = Certificate.FIXED_COEFFICIENT if n0 else Certificate.SAME_SIGN
        assert certificate is expected


def scaled_problem(rng, full_orbit):
    """A random problem with multiplicities scaled up to about 10**6, a
    trivial part of either parity, and a full-orbit degree term exactly
    when `full_orbit`."""
    prob = random_problem(rng)
    scale = rng.randint(1, 10**6)
    spectra = tuple(
        SpectralDatum(
            d.alpha,
            S1Representation(
                trivial=scale * d.isotypic.trivial + rng.randint(0, 1),
                rotating={m: scale * k for m, k in d.isotypic.rotating},
            ),
        )
        for d in prob.spectra
    )
    fixed = rng.choice((1, -1, 2, -3)) if full_orbit else 0
    degree = EulerElementS1(fixed, prob.deg_s1.finite or {1: 1})
    return CriticalPointProblem(spectra, degree, prob.unique_critical_point)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_index_matches_three_factor_product(seed, full_orbit):
    prob = scaled_problem(random.Random(seed), full_orbit)
    for level in lambda_set(prob, 4):
        assert build_report(prob, level).index == bif_index_expanded(prob, level)


def shared_speeds_problem(deg_s1):
    """Rotation planes of shared speeds at three positive eigenvalues, so
    their modes below a level merge into runs, trivial parts at two of
    them, so null characters (0, b) meet trivial runs, and a negative
    eigenvalue."""
    return CriticalPointProblem(
        spectra=(
            SpectralDatum(1, S1Representation(trivial=1, rotating={1: 1, 2: 2})),
            SpectralDatum(2, S1Representation(rotating={1: 1, 2: 1, 3: 1})),
            SpectralDatum(3, S1Representation(trivial=2, rotating={2: 1, 3: 2})),
            SpectralDatum(-1, S1Representation(rotating={1: 1})),
        ),
        deg_s1=deg_s1,
    )


@pytest.mark.parametrize(
    "problem",
    [
        shared_speeds_problem(EulerElementS1(2, {1: -1})),
        shared_speeds_problem(EulerElementS1(-1)),
        shared_speeds_problem(EulerElementS1(3, {2: 1, 3: -2})),
        axis_family_problem({}, fixed=1),
    ],
    ids=["shared-speeds-2", "shared-speeds-minus-1", "shared-speeds-3", "worked-example-full-orbit"],
)
def test_full_orbit_index_matches_three_factor_product(problem):
    for level in lambda_set(problem, 5):
        assert build_report(problem, level).index == bif_index_expanded(problem, level)


def mirror(element):
    """The image of an element under the reflection (z, w) -> (conj z, w)
    of the torus, which maps each character (m, n) to (-m, n)."""
    return EulerElementT2(
        (TorusSubgroup.from_characters([(-m, n) for m, n in subgroup.rows]), c)
        for subgroup, c in element.terms
    )


def test_mirror_maps_a_product_to_the_product_of_the_mirrors():
    # the kernels of (3, 1) and (1, 2) meet in F(5,0;3,1), and those of
    # (-3, 1) and (-1, 2) in its mirror image F(5,0;2,1)
    for first, second in (((2, 3), (1, 1)), ((1, 2), (1, 0)), ((3, 1), (1, 2)), ((4, 3), (-2, 5))):
        product = gen(first).star(gen(second))
        mirrored = gen((-first[0], first[1])).star(gen((-second[0], second[1])))
        assert mirror(product) == mirrored
        assert mirror(mirrored) == product
    assert gen((3, 1)).star(gen((1, 2))) == gen((5, 0), (3, 1))
    assert mirror(gen((5, 0), (3, 1))) == gen((5, 0), (2, 1))


# eigenspaces with trivial parts of either parity and speeds 1 to 3
REFLECTION_REPS = st.builds(
    S1Representation,
    trivial=st.integers(0, 2),
    rotating=st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=3),
).filter(lambda rep: rep.dim)


@st.composite
def reflection_problems(draw):
    """A problem whose eigenvalues come from alpha, 4 alpha and 9 alpha / 4,
    which share levels, 2 alpha, zero and -alpha; a nonzero degree with
    n0 == 0 or n0 != 0 and classes H(i,0) of orders 1 to 4; and a max_k."""
    base = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 7))))
    pool = [base, 4 * base, base * Fraction(9, 4), 2 * base, Fraction(0), -base]
    alphas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    if not any(alpha > 0 for alpha in alphas):
        alphas.append(base * Fraction(9, 4))
    spectra = tuple(SpectralDatum(alpha, draw(REFLECTION_REPS)) for alpha in alphas)
    fixed = draw(st.sampled_from((0, 0, 1, -1, 2)))
    finite = draw(st.dictionaries(st.integers(1, 4), st.integers(-2, 2), max_size=3))
    if not fixed and not any(finite.values()):
        finite[draw(st.integers(1, 4))] = draw(st.sampled_from((1, -1)))
    return CriticalPointProblem(spectra, EulerElementS1(fixed, finite), draw(st.booleans())), draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@example(case=(shared_speeds_problem(EulerElementS1(2, {1: -1, 2: 1, 4: 3})), 4))
@example(case=(axis_family_problem({1: 1, 3: -2}), 4))
@given(reflection_problems())
def test_index_matches_the_oracle_and_the_reflection(case):
    # the index, whose line products are made for half the pairs and
    # mirrored, is the full three-factor product and is fixed by the
    # reflection (m, n) -> (-m, n), with n0 == 0 and n0 != 0
    problem, max_k = case
    for level in lambda_set(problem, max_k):
        index = bif_index(problem, level)
        assert index == bif_index_expanded(problem, level)
        assert mirror(index) == index


@st.composite
def parallel_problems(draw):
    """A problem whose eigenvalues j*j*base, for up to five j in 1..6,
    resonate at the level BifurcationLevel(1, base) on the mode j, each
    with a trivial part, the speeds j*s for shared speeds s and maybe one
    speed of its own: the null characters (0, j) are all parallel, and so
    are the (j*s, j) and the (-j*s, j) over j; a nonzero degree with
    n0 == 0 or n0 != 0; and that level."""
    base = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3))))
    shared = draw(st.lists(st.integers(1, 3), max_size=2, unique=True))
    spectra = []
    for j in draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True)):
        rotating = {j * s: 1 for s in shared}
        rotating.update(draw(st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=1)))
        trivial = draw(st.integers(1, 2))
        spectra.append(SpectralDatum(j * j * base, S1Representation(trivial=trivial, rotating=rotating)))
    fixed = draw(st.sampled_from((0, 0, 1, -2)))
    finite = draw(st.dictionaries(st.integers(1, 4), st.integers(-2, 2), max_size=2))
    if not fixed and not any(finite.values()):
        finite[draw(st.integers(1, 4))] = draw(st.sampled_from((1, -1)))
    return CriticalPointProblem(tuple(spectra), EulerElementS1(fixed, finite)), BifurcationLevel(1, base)


@settings(max_examples=60, deadline=None)
@given(parallel_problems())
def test_index_with_many_parallel_null_characters_matches_the_oracle(case):
    # the degree on the null modes skips every pair of parallel null
    # characters, of one mode or of several, and writes the pairs of one
    # mode in closed form; the index is still the full three-factor
    # product, with n0 == 0 and n0 != 0
    problem, level = case
    assert bif_index(problem, level) == bif_index_expanded(problem, level)


@settings(max_examples=60, deadline=None)
@given(parallel_problems())
def test_degree_bound_counts_the_non_parallel_pairs(case):
    # the bound on the degree on the null modes counts the unordered pairs
    # of non-parallel null characters, as a brute force over all pairs
    # counts them: with the limit at that count the degree passes it, and
    # one below it the level is refused with that count
    problem, level = case
    chars = [ch for ch, _ in resonant_space(problem, level).characters]
    pairs = len(cross_direction_pairs(chars))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", pairs)
        try:
            build_report(problem, level)
        except ValueError as error:
            assert str(error).startswith(f"the index at lambda_sq = {level.lambda_sq} needs ")
        if pairs:
            patch.setattr(torbif.euler, "_MAX_LINE_PRODUCTS", pairs - 1)
            with pytest.raises(ValueError) as raised:
                build_report(problem, level)
            assert str(raised.value) == (
                f"the degree on the null modes at lambda_sq = {level.lambda_sq} needs {pairs} line"
                f" products for {len(chars)} characters, more than the limit of {pairs - 1}"
            )


def test_full_orbit_index_with_one_parallel_mode_below():
    # at k = 4 over alpha = 1 the null characters are (2, 4) and (-2, 4);
    # the run of speed 1, from alpha = 2, has the modes n = 1..5, and
    # det = 2*n - 4*1 vanishes at n = 2 only, as does -2*n + 4 for -1
    problem = CriticalPointProblem(
        spectra=(
            SpectralDatum(1, S1Representation(rotating={2: 1})),
            SpectralDatum(2, S1Representation(trivial=1, rotating={1: 2})),
        ),
        deg_s1=EulerElementS1(-2, {1: 1}),
    )
    level = BifurcationLevel(4, 1)
    assert resonant_space(problem, level).characters == (((-2, 4), 1), ((2, 4), 1))
    runs = walk_runs(problem, level)
    assert (1, 1, 6, 2) in runs
    assert (-1, 1, 6, 2) in runs
    assert build_report(problem, level).index == bif_index_expanded(problem, level)


def test_index_with_null_modes_on_two_modes(monkeypatch):
    # at lambda_sq = 1, alpha 1 resonates on mode 1 and alpha 4 on mode 2,
    # so the null characters have two second coordinates and the index
    # takes one gcd table for each, filled from n = 1, since no run below a
    # level starts at n = 0; the finite terms
    # of deg_s1 enter in closed form and its S1 term brings the characters
    # of mode 1 of alpha 4 below the level
    problem = CriticalPointProblem(
        spectra=(
            SpectralDatum(1, S1Representation(trivial=1, rotating={1: 1})),
            SpectralDatum(4, S1Representation(rotating={1: 1, 3: 2})),
        ),
        deg_s1=EulerElementS1(2, {1: -1, 3: 2}),
    )
    level = BifurcationLevel(1, 1)
    assert sorted({n for (_, n), _ in resonant_space(problem, level).characters}) == [1, 2]
    gcds = []
    xgcd = torbif.bifurcation._xgcd

    def recording(b, n):
        gcds.append((b, n))
        return xgcd(b, n)

    monkeypatch.setattr(torbif.bifurcation, "_xgcd", recording)
    assert build_report(problem, level).index == bif_index_expanded(problem, level)
    assert sorted(gcds) == [(1, 1), (2, 1)]
    for level in lambda_set(problem, 4):
        assert build_report(problem, level).index == bif_index_expanded(problem, level)


@given(st.integers(0, 10**9))
def test_level_representation_does_not_matter(seed):
    rng = random.Random(seed)
    prob = random_problem(rng)
    levels = lambda_set(prob, 3)
    if not levels:
        return
    level = levels[0]
    rescaled = BifurcationLevel(2 * level.k, 4 * level.alpha)
    assert rescaled == level
    assert bif_index(prob, rescaled) == bif_index(prob, level)


def test_level_arithmetic_makes_no_fraction_arithmetic(monkeypatch):
    # at lambda_sq = 1 the eigenvalues 1, 4 and 9 resonate on the modes 1, 2
    # and 3, and the full-orbit degree brings in the runs below the level;
    # the resonances and the mode counts below are decided in integers, so
    # no Fraction is multiplied, divided or rounded
    problem = CriticalPointProblem(
        spectra=tuple(SpectralDatum(a, S1Representation(trivial=1, rotating={1: 1})) for a in (1, 4, 9)),
        deg_s1=EulerElementS1(fixed=1),
    )
    level = BifurcationLevel(1, 1)
    expected = bif_index_expanded(problem, level)
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__ceil__"):
        original = getattr(Fraction, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(Fraction, name, counting)
    report = build_report(problem, level)
    monkeypatch.undo()
    assert calls == []
    assert report.index == expected
    assert len(resonant_space(problem, level).characters) == 3 * 3


def test_index_hashes_no_level_fraction(tmp_path, capsys, monkeypatch):
    # one positive eigenvalue with a mixed-sign finite degree and a unique
    # critical point, so classify keys its levels in lambda_set and again
    # in the zero-sum check; beyond the hashes of parsing (the eigenvalues'
    # duplicate checks) the one level of index is never hashed
    problem = CriticalPointProblem(
        spectra=(
            SpectralDatum(Fraction(1, 2), S1Representation(trivial=1, rotating={1: 1})),
            SpectralDatum(-1, S1Representation(rotating={2: 1})),
        ),
        deg_s1=EulerElementS1(0, {1: 1, 2: -1}),
        unique_critical_point=True,
    )
    path = str(tmp_path / "problem.json")
    write_problem(problem, path)
    hashes = []
    original = Fraction.__hash__

    def counting(self):
        hashes.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    torbif.cli.load_problem(path)
    parsing = len(hashes)
    for json_flag in ([], ["--json"]):
        assert main(["classify", *json_flag, "--problem", path, "--max-k", "12"]) == 0
        hashes.clear()
        assert main(["index", *json_flag, "--problem", path, "--k", "5", "--alpha", "1/2"]) == 0
        assert len(hashes) == parsing
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert out.count("zero-sum subsets among computed levels: none") == 1
    assert '"zero_sum_subset": {\n    "exists": false' in out


def test_zero_sum_check_hashes_each_level_once(tmp_path, capsys, monkeypatch):
    # 12 levels of an Alternative problem with a unique critical point:
    # classify keys the levels in the indices it hands the zero-sum check,
    # and the check keys them again in its table and its walk, yet each
    # level's lambda_sq is hashed once; the check still adds in the ring
    problem = CriticalPointProblem(
        spectra=(
            SpectralDatum(2, S1Representation(trivial=1, rotating={1: 1})),
            SpectralDatum(3, S1Representation(rotating={2: 1})),
        ),
        deg_s1=EulerElementS1(0, {1: 1, 2: -1}),
        unique_critical_point=True,
    )
    path = str(tmp_path / "problem.json")
    write_problem(problem, path)
    levels = []
    enumerate_levels = torbif.cli.lambda_set

    def recording(problem, max_k):
        levels.extend(enumerate_levels(problem, max_k))
        return list(levels)

    monkeypatch.setattr(torbif.cli, "lambda_set", recording)
    adds = count_calls(monkeypatch, "__add__", [EulerElementT2])
    hashed = []
    original = Fraction.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert main(["classify", "--problem", path, "--max-k", "6"]) == 0
    monkeypatch.undo()
    assert len(levels) == 12
    times = Counter(id(q) for q in hashed)
    assert [times[id(level.lambda_sq)] for level in levels] == [1] * 12
    assert adds
    assert capsys.readouterr().out.endswith("zero-sum subsets among computed levels: none\n")


def test_classify_builds_one_report_per_level(tmp_path, capsys, monkeypatch):
    # an Alternative problem with a unique critical point and 4 levels, so
    # every level is upgraded to sum_obstruction; the upgrade is printed
    # from the one report build_report made, not from a rebuilt one
    prob = axis_family_problem(finite={1: 1, 2: -1})
    path = tmp_path / "problem.json"
    write_problem(prob, path)
    built = []
    original = BifurcationReport.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["level"])
        original(self, *args, **kwargs)

    monkeypatch.setattr(BifurcationReport, "__init__", counting)
    for extra in ([], ["--json"]):
        built.clear()
        assert main(["classify", "--problem", str(path), "--max-k", "4", *extra]) == 0
        assert built == lambda_set(prob, 4)
        out = capsys.readouterr().out
        assert out.count(Classification.NONCOMPACT_SUM_OBSTRUCTION.value) == 4


def degree_of_kind(kind, rng):
    """A circle degree that is zero, or gives c1, c2 or the Alternative
    on a valid problem with a unique critical point."""
    sign = rng.choice((1, -1))
    if kind == "zero":
        return EulerElementS1.zero()
    if kind == "c1":
        return EulerElementS1(sign * rng.randint(1, 2), {m: rng.randint(-2, 2) for m in (1, 3)})
    orders = rng.sample((1, 2, 3), 2)
    if kind == "c2":
        return EulerElementS1(0, {m: sign * rng.randint(1, 2) for m in orders[: rng.randint(1, 2)]})
    return EulerElementS1(0, {orders[0]: sign, orders[1]: -sign * rng.randint(1, 2)})


@settings(max_examples=60, deadline=None)
@example(seed=0, kind="alternative", unique=True, max_k=4, as_json=False)
@example(seed=0, kind="alternative", unique=True, max_k=4, as_json=True)
@example(seed=0, kind="alternative", unique=False, max_k=4, as_json=True)
@example(seed=0, kind="alternative", unique=True, max_k=25, as_json=True)
@given(
    st.integers(0, 10**9),
    st.sampled_from(("zero", "c1", "c2", "alternative")),
    st.booleans(),
    st.one_of(st.integers(1, 6), st.integers(21, 25)),
    st.booleans(),
)
def test_classify_prints_what_rebuilt_reports_print(seed, kind, unique, max_k, as_json):
    # byte for byte the output of classify as it was when each upgraded
    # report was built a second time: zero degree, c1, c2 and Alternative,
    # with and without a unique critical point, at most 18 levels (at most
    # 3 eigenvalues) or more than 20
    rng = random.Random(seed)
    spectra = random_problem(rng, require_positive=rng.random() < 0.9).spectra
    prob = CriticalPointProblem(spectra, degree_of_kind(kind, rng), unique)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "problem.json")
        write_problem(prob, path)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            argv = ["classify", "--problem", path, "--max-k", str(max_k)]
            assert main(argv + ["--json"] * as_json) == 0
    assert out.getvalue() == classify_output_rebuilding_reports(prob, max_k, as_json)


# eigenspaces that share the speeds 1 and 2, with and without a trivial part
WALK_REPS = (
    S1Representation(trivial=1),
    S1Representation(rotating={1: 1}),
    S1Representation(trivial=1, rotating={1: 2}),
    S1Representation(rotating={1: 1, 2: 1}),
    S1Representation(trivial=2, rotating={2: 1}),
)


@st.composite
def walk_problems(draw):
    """A problem whose eigenvalues come from alpha, 4 alpha and 9 alpha / 4,
    which share levels, 2 alpha, 3 alpha and 10^6 alpha, which has more
    modes up to the last level than there are levels, zero and -alpha; a
    zero degree, one with n0 != 0 ("c1") or with n0 == 0; and a max_k."""
    base = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 7))))
    pool = [base, 4 * base, base * Fraction(9, 4), 2 * base, 3 * base, 10**6 * base, Fraction(0), -base]
    alphas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    spectra = tuple(SpectralDatum(alpha, draw(st.sampled_from(WALK_REPS))) for alpha in alphas)
    kind = draw(st.sampled_from(("zero", "c1", "c2", "alternative")))
    degree = degree_of_kind(kind, random.Random(draw(st.integers(0, 10**6))))
    return CriticalPointProblem(spectra, degree, draw(st.booleans())), draw(st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(walk_problems(), st.randoms(use_true_random=False), st.booleans())
def test_walk_matches_the_oracles_at_every_level(case, rnd, as_json):
    # one walk over all levels: the null modes, the runs built for the
    # speeds the null characters meet, every report and classify's output
    # are those of the oracles and of one level at a time, in any order
    problem, max_k = case
    levels = lambda_set(problem, max_k)
    built = []
    runs = _Walk.runs

    def recording(self, q, speeds, counts):
        made = runs(self, q, speeds, counts)
        built.append((q, made))
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Walk, "runs", recording)
        reports = list(_reports(problem, levels))
    for level, pairs in zip(levels, _resonances(problem, levels)):
        assert pairs == resonances_by_fractions(problem, level.lambda_sq)
    for level in levels if problem.deg_s1.fixed else ():
        # only runs of speed s >= 0 are built, those of speed -s being
        # their mirror images: runs of speed s > 0 meet every null
        # character, those of speed 0 only a null character (a, b) with
        # a > 0
        nulls = resonant_space(problem, level).characters
        meets_zero = any(a > 0 for (a, _), _ in nulls)
        expected = [
            run for run in below_runs_by_fractions(problem, level) if run[0] > 0 or (run[0] == 0 and meets_zero)
        ]
        made = [run for q, made in built if q == level.lambda_sq for run in made]
        assert sorted(made) == sorted(expected)
    if not problem.deg_s1.fixed:
        assert built == []
    order = list(range(len(levels)))
    rnd.shuffle(order)
    for i in order:
        assert build_report(problem, levels[i]) == reports[i]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "problem.json")
        write_problem(problem, path)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            argv = ["classify", "--problem", path, "--max-k", str(max_k)]
            assert main(argv + ["--json"] * as_json) == 0
    assert out.getvalue() == classify_output_rebuilding_reports(problem, max_k, as_json)
