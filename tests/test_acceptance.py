"""Acceptance gate: ten criteria, each printing one PASS or FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Every check is exact; there are no tolerances anywhere.
"""

import io
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

from torbif import (
    BifurcationLevel,
    Certificate,
    Classification,
    EulerElementS1,
    EulerElementT2,
    T2Representation,
    TorusSubgroup,
    bif_index,
    certify_nontrivial,
    classify_noncompact,
    deg_minus_id_t2,
    embed_s1_to_t2,
    example_problem,
    exists_zero_sum_subset,
    format_element,
    lambda_set,
    loop_decompose,
    validate,
)
from torbif.cli import main

from oracles import (
    axis_twisted_count,
    bif_index_two_sided,
    deg_minus_id_s1,
    invert,
    random_element,
    random_s1_rep,
    random_t2_rep,
    random_problem,
    random_unit,
)

I = EulerElementT2.identity()


def gen(*chars):
    return EulerElementT2.generator(TorusSubgroup.from_characters(chars))


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS")


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_golden_worked_example():
    with criterion(1, "golden worked example indices"):
        prob = example_problem()
        for k0 in range(1, 11):
            meet = TorusSubgroup.kernel(1, 0).intersect(TorusSubgroup.kernel(0, k0))
            assert meet.order == k0
            index = bif_index(prob, BifurcationLevel(k0, 2))
            assert index == -1 * EulerElementT2.generator(meet)
        # at the first level the isotropy subgroup is the trivial group
        first = TorusSubgroup.kernel(1, 0).intersect(TorusSubgroup.kernel(0, 1))
        assert first == TorusSubgroup.trivial()


def test_criterion_02_example_fixture_facts():
    with criterion(2, "example fixture facts"):
        prob = example_problem()
        checks = validate(prob)
        assert checks.positive_eigenvalue is True
        assert checks.nonzero_degree is True
        assert prob.deg_s1.fixed == 0
        assert prob.deg_s1 == EulerElementS1.cyclic(1)
        assert bool(prob.deg_s1)
        levels = lambda_set(prob, 5)
        assert [lvl.lambda_sq for lvl in levels] == [
            Fraction(k * k, 2) for k in range(1, 6)
        ]
        assert [(lvl.k, lvl.alpha) for lvl in levels] == [
            (k, Fraction(2)) for k in range(1, 6)
        ]


def test_criterion_03_noncompactness():
    with criterion(3, "non-compactness classification and summation obstruction"):
        prob = example_problem()
        assert classify_noncompact(prob) is Classification.NONCOMPACT_UNIFORM_SIGN
        levels = lambda_set(prob, 8)
        assert len(levels) == 8
        indices = {lvl: bif_index(prob, lvl) for lvl in levels}
        for anchor in levels:
            found, witness = exists_zero_sum_subset(prob, levels, anchor, indices)
            assert (found, witness) == (False, None)


def test_criterion_04_intersection_order_law():
    with criterion(4, "intersection order law k*n over 3600 cases"):
        for k in range(1, 13):
            axis = TorusSubgroup.kernel(k, 0)
            for n in range(1, 13):
                for m in range(-12, 13):
                    meet = axis.intersect(TorusSubgroup.kernel(m, n))
                    assert meet.order == k * n
                    assert axis_twisted_count(k, m, n) == k * n


def test_criterion_05_intersection_uniqueness():
    with criterion(5, "intersection classes determined by (k, n, m mod k)"):
        by_class = {}
        by_subgroup = {}
        for k in range(1, 9):
            axis = TorusSubgroup.kernel(k, 0)
            for n in range(1, 9):
                for m in range(-16, 17):
                    meet = axis.intersect(TorusSubgroup.kernel(m, n))
                    key = (k, n, m % k)
                    if key in by_class:
                        assert by_class[key] == meet
                    else:
                        by_class[key] = meet
                    if meet in by_subgroup:
                        assert by_subgroup[meet] == key
                    else:
                        by_subgroup[meet] = key
        assert len(by_class) == len(by_subgroup)


def test_criterion_06_ring_axiom_suite():
    with criterion(6, "ring axioms, grading, nilpotency, units"):
        rng = random.Random(6021023)
        zero = EulerElementT2.zero()
        for _ in range(1000):
            a = random_element(rng)
            b = random_element(rng)
            c = random_element(rng)
            assert a.star(b) == b.star(a)
            assert a.star(b.star(c)) == a.star(b).star(c)
            assert a.star(b + c) == a.star(b) + a.star(c)
            assert I.star(a) == a
            a1, a0 = a.project(1), a.project(0)
            b1, b0 = b.project(1), b.project(0)
            assert a1.star(b1).project(2) == zero
            assert a1.star(b1).project(1) == zero
            assert a1.star(b0) == zero
            assert a0.star(b0) == zero
            nil = c - c.project(2)
            assert nil.star(nil.star(nil)) == zero
        for _ in range(200):
            u = random_unit(rng)
            assert invert(u).star(u) == I


def test_criterion_07_coefficient_formula():
    with criterion(7, "product coefficient formula and sign corollary"):
        rng = random.Random(7031415)
        for case in range(300):
            a_coeffs = {}
            for k in range(1, 7):
                if rng.random() < 0.5:
                    a_coeffs[k] = rng.choice((-3, -2, -1, 1, 2, 3))
            if not a_coeffs:
                a_coeffs[rng.randint(1, 6)] = rng.choice((-1, 1))
            sign = rng.choice((1, -1))
            b_coeffs = {}
            for _ in range(rng.randint(1, 5)):
                key = (rng.randint(-6, 6), rng.randint(1, 4))
                b_coeffs[key] = b_coeffs.get(key, 0) + sign * rng.randint(1, 3)
            a = EulerElementT2(
                {TorusSubgroup.kernel(k, 0): coeff for k, coeff in a_coeffs.items()}
            )
            b = EulerElementT2(
                {TorusSubgroup.kernel(m, n): coeff for (m, n), coeff in b_coeffs.items()}
            )
            product = a.star(b)
            assert product
            expected = {}
            for k, ak in a_coeffs.items():
                for (m, n), bc in b_coeffs.items():
                    meet = TorusSubgroup.kernel(k, 0).intersect(TorusSubgroup.kernel(m, n))
                    expected[meet] = expected.get(meet, 0) + ak * bc
            assert product == EulerElementT2(expected)
            # per-class residue sums, read off the canonical rows
            for subgroup, coeff in product.terms:
                (k0, _), (m0, n0) = subgroup.rows
                residue_sum = sum(
                    bc
                    for (m, n), bc in b_coeffs.items()
                    if n == n0 and m % k0 == m0
                )
                assert coeff == a_coeffs[k0] * residue_sum
            if case % 2:
                # sign corollary: one-signed factors give one-signed products
                pos_a = EulerElementT2(
                    {TorusSubgroup.kernel(k, 0): abs(c) for k, c in a_coeffs.items()}
                )
                neg_b = EulerElementT2(
                    {
                        TorusSubgroup.kernel(m, n): -abs(c)
                        for (m, n), c in b_coeffs.items()
                    }
                )
                assert all(c < 0 for _, c in pos_a.star(neg_b).terms)
                assert all(c > 0 for _, c in (-pos_a).star(neg_b).terms)


def test_criterion_08_degree_consistency():
    with criterion(8, "minus-identity degree identities over 300 representations"):
        rng = random.Random(8091822)
        zero = EulerElementT2.zero()
        for _ in range(300):
            a = random_t2_rep(rng)
            b = random_t2_rep(rng)
            assert deg_minus_id_t2(a + b) == deg_minus_id_t2(a).star(deg_minus_id_t2(b))
            degree = deg_minus_id_t2(a)
            sign = -1 if a.trivial % 2 else 1
            linear = EulerElementT2.zero()
            for (m, n), mult in a.characters:
                linear = linear + mult * gen((m, n))
            assert degree.project(2) + degree.project(1) == sign * (I - linear)
            free = T2Representation(trivial=0, characters=a.characters)
            shifted = deg_minus_id_t2(free) - I
            assert shifted.project(2) == zero
            assert all(coeff < 0 for _, coeff in shifted.project(1).terms)
            v = random_s1_rep(rng, allow_empty=True)
            assert embed_s1_to_t2(deg_minus_id_s1(v)) == deg_minus_id_t2(
                loop_decompose(v, 0)
            )


def test_criterion_09_main_theorem_property():
    with criterion(9, "nontrivial certified indices on 200 random problems"):
        rng = random.Random(9102612)
        for _ in range(200):
            prob = random_problem(rng)
            n0 = prob.deg_s1.fixed
            for level in lambda_set(prob, 5)[:5]:
                index = bif_index(prob, level)
                assert index
                assert index == bif_index_two_sided(prob, level)
                nontrivial, certificate = certify_nontrivial(prob, level)
                assert nontrivial
                expected = (
                    Certificate.FIXED_COEFFICIENT if n0 else Certificate.SAME_SIGN
                )
                assert certificate is expected


def test_criterion_10_cli_conformance(tmp_path):
    with criterion(10, "command-line pipeline and round-trip fuzz"):
        path = str(tmp_path / "example.json")
        code, out, err = run_cli(["example", path])
        assert code == 0 and out == f"wrote example problem to {path}\n"

        expected_levels = (
            "".join(
                f"k={k} alpha=2 lambda_sq={Fraction(k * k, 2)}"
                f" resonances: (n={k}, alpha=2)\n"
                for k in range(1, 6)
            )
        )
        for _ in range(2):
            code, out, err = run_cli(["levels", "--problem", path, "--max-k", "5"])
            assert code == 0 and out == expected_levels

        for k0 in range(1, 11):
            code, out, err = run_cli(
                ["index", "--problem", path, "--k", str(k0), "--alpha", "2"]
            )
            assert code == 0
            assert out == f"-1*F(1,0;0,{k0})\ncertificate: SameSignPath\n"

        tag = "NonCompactGuaranteed(c2)"
        expected_classify = f"classification: {tag}\n" + "".join(
            f"k={k} alpha=2 lambda_sq={Fraction(k * k, 2)} nontrivial=yes"
            f" certificate=SameSignPath classification={tag}"
            f" index=-1*F(1,0;0,{k})\n"
            for k in range(1, 9)
        ) + "zero-sum subsets among computed levels: none\n"
        for _ in range(2):
            code, out, err = run_cli(["classify", "--problem", path, "--max-k", "8"])
            assert code == 0 and out == expected_classify

        rng = random.Random(10112026)
        for _ in range(500):
            element = random_element(rng)
            text = format_element(element)
            code, out, err = run_cli(["star", "--", text, "1*T"])
            assert code == 0
            assert out == text + "\n"
