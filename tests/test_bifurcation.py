import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torbif.bifurcation
import torbif.cli
from torbif import (
    BifurcationLevel,
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
    deg_h0,
    example_problem,
    exists_zero_sum_subset,
    lambda_set,
    resonant_space,
    write_problem,
)
from torbif.cli import main

from oracles import (
    bif_index_expanded,
    bif_index_two_sided,
    one_signed_functional,
    random_element,
    random_problem,
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
    assert deg_h0(prob) == gen((1, 0))
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
    resonant = count_calls(monkeypatch, "resonant_space", [torbif.bifurcation])
    payload = classify_reports(prob, tmp_path, capsys)
    assert payload["zero_sum_subset"] == {"exists": False, "witness": None}
    assert all(
        r["classification"] == Classification.NONCOMPACT_SUM_OBSTRUCTION.value
        for r in payload["reports"]
    )
    assert anchored == []
    assert [args[1] for args in resonant] == lambda_set(prob, 4)


def test_validate_runs_once_per_level(tmp_path, capsys, monkeypatch):
    # the assumption check is problem-wide: a report runs it once, and
    # classify adds one run for its headline and one for its zero-sum gate
    prob = axis_family_problem(finite={1: 1, 2: -1})
    levels = lambda_set(prob, 4)
    calls = count_calls(monkeypatch, "validate", [torbif.bifurcation, torbif.cli])
    build_report(prob, levels[0])
    assert len(calls) == 1
    calls.clear()
    classify_reports(prob, tmp_path, capsys)
    assert len(calls) == len(levels) + 2


def test_classify_witness_branch(tmp_path, capsys, monkeypatch):
    # injected indices {l0: x, l1: -x, l2: x, l3: z} cancel, which no valid
    # problem's indices can: the search's witness is an internal error
    prob = axis_family_problem(finite={1: 1, 2: -1})
    levels = lambda_set(prob, 4)
    x = gen((1, 0), (0, 2)) - 3 * I
    table = dict(zip(levels, (x, -1 * x, x, gen((1, 1)))))
    original = torbif.cli.build_report
    monkeypatch.setattr(
        torbif.cli,
        "build_report",
        lambda problem, level: replace(original(problem, level), index=table[level]),
    )
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
    return replace(prob, spectra=spectra, deg_s1=degree)


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
    runs = torbif.spectral._below_runs(problem, level)
    assert (1, 1, 6, 2) in runs
    assert (-1, 1, 6, 2) in runs
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
