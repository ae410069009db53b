import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torbif import (
    EulerElementS1,
    EulerElementT2,
    S1Representation,
    T2Representation,
    TorusSubgroup,
    deg_minus_id_s1,
    deg_minus_id_t2,
    embed_s1_to_t2,
    loop_decompose,
    normalize_character,
)

from oracles import (
    deg_minus_id_t2_expanded,
    nondegenerate_orbit_degree,
    random_character,
    random_element,
    random_s1_rep,
    random_t2_rep,
)

I = EulerElementT2.identity()


def gen(*chars):
    return EulerElementT2.generator(TorusSubgroup.from_characters(chars))


def test_normalize_character():
    assert normalize_character(-1, -2) == (1, 2)
    assert normalize_character(1, -2) == (-1, 2)
    assert normalize_character(-3, 0) == (3, 0)
    assert normalize_character(0, -2) == (0, 2)
    assert normalize_character(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        normalize_character(0, 0)


def test_s1_rep_canonical_form():
    rep = S1Representation(trivial=1, rotating=[(2, 1), (2, 1), (3, 0)])
    assert rep.rotating == ((2, 2),)
    assert rep.dim == 1 + 4
    assert str(rep) == "R[1,0] + R[2,2]"
    with pytest.raises(ValueError):
        S1Representation(rotating={0: 1})
    with pytest.raises(ValueError):
        S1Representation(trivial=-1)


def test_t2_rep_merges_opposite_characters():
    rep = T2Representation(characters=[((1, 2), 1), ((-1, -2), 2)])
    assert rep.characters == (((1, 2), 3),)
    assert rep.dim == 6
    assert str(rep) == "R[3,(1,2)]"
    assert str(T2Representation(trivial=2)) == "R[2,(0,0)]"
    assert str(T2Representation()) == "0"


def test_rep_addition():
    a = S1Representation(trivial=1, rotating={1: 1})
    b = S1Representation(rotating={1: 2, 3: 1})
    assert (a + b).rotating == ((1, 3), (3, 1))
    assert (a + b).dim == a.dim + b.dim


def test_loop_decompose_mode_zero():
    rep = S1Representation(trivial=2, rotating={3: 1})
    out = loop_decompose(rep, 0)
    assert out.trivial == 2
    assert out.characters == (((3, 0), 1),)
    assert out.dim == rep.dim


def test_loop_decompose_positive_mode():
    rep = S1Representation(trivial=1, rotating={2: 1})
    out = loop_decompose(rep, 5)
    assert out.trivial == 0
    assert out.characters == (((-2, 5), 1), ((0, 5), 1), ((2, 5), 1))
    assert out.dim == 2 * rep.dim
    with pytest.raises(ValueError):
        loop_decompose(rep, -1)


@given(st.integers(0, 10**9), st.integers(0, 6))
def test_loop_decompose_dimension(seed, mode):
    rep = random_s1_rep(random.Random(seed), allow_empty=True)
    out = loop_decompose(rep, mode)
    assert out.dim == (rep.dim if mode == 0 else 2 * rep.dim)


def test_deg_minus_id_t2_known_values():
    assert deg_minus_id_t2(T2Representation()) == I
    assert deg_minus_id_t2(T2Representation(trivial=1)) == -1 * I
    one_plane = T2Representation(characters={(1, 1): 1})
    assert deg_minus_id_t2(one_plane) == I - gen((1, 1))
    # a repeated plane squares its factor and the cross term dies
    assert deg_minus_id_t2(T2Representation(characters={(1, 1): 2})) == I - 2 * gen((1, 1))
    two_planes = T2Representation(characters={(1, 0): 1, (0, 1): 1})
    assert deg_minus_id_t2(two_planes) == I - gen((1, 0)) - gen((0, 1)) + gen((1, 0), (0, 1))


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_deg_minus_id_t2_matches_plane_by_plane_product(seed):
    rep = random_t2_rep(random.Random(seed), max_mult=30)
    assert deg_minus_id_t2(rep) == deg_minus_id_t2_expanded(rep)


@given(st.integers(0, 10**9))
def test_one_dimensional_generators_square_to_zero(seed):
    h = TorusSubgroup.kernel(*random_character(random.Random(seed)))
    assert h.dim == 1
    g = EulerElementT2.generator(h)
    assert g.star(g) == EulerElementT2.zero()


def test_deg_minus_id_t2_huge_multiplicity():
    rep = T2Representation(characters={(2, 3): 10**6})
    assert deg_minus_id_t2(rep) == I - 10**6 * EulerElementT2.generator(TorusSubgroup.kernel(2, 3))


@given(st.integers(0, 10**9))
def test_truncation_is_exact_after_an_element_without_t(seed):
    # the identity behind the index: after an element x without T, the
    # degree of a representation without trivial part acts as T - B1
    rng = random.Random(seed)
    element = random_element(rng)
    element = element - element.project(2)
    rep = random_t2_rep(rng, max_mult=10**6)
    rep = T2Representation(trivial=0, characters=rep.characters)
    b1 = EulerElementT2((TorusSubgroup.kernel(m, n), mult) for (m, n), mult in rep.characters)
    assert element.star(deg_minus_id_t2(rep)) == element - element.project(1).star(b1)


@given(st.integers(0, 10**9))
def test_deg_minus_id_t2_multiplicative(seed):
    rng = random.Random(seed)
    a = random_t2_rep(rng)
    b = random_t2_rep(rng)
    assert deg_minus_id_t2(a + b) == deg_minus_id_t2(a).star(deg_minus_id_t2(b))


@given(st.integers(0, 10**9))
def test_deg_minus_id_t2_upper_closed_form(seed):
    rep = random_t2_rep(random.Random(seed))
    degree = deg_minus_id_t2(rep)
    sign = -1 if rep.trivial % 2 else 1
    linear = EulerElementT2.zero()
    for (m, n), mult in rep.characters:
        linear = linear + mult * EulerElementT2.generator(TorusSubgroup.kernel(m, n))
    assert degree.project(2) + degree.project(1) == sign * (I - linear)


@given(st.integers(0, 10**9))
def test_deg_minus_id_t2_fixed_point_free(seed):
    rng = random.Random(seed)
    rep = random_t2_rep(rng)
    rep = T2Representation(trivial=0, characters=rep.characters)
    shifted = deg_minus_id_t2(rep) - I
    assert shifted.project(2) == EulerElementT2.zero()
    assert all(coeff < 0 for _, coeff in shifted.project(1).terms)


def test_deg_minus_id_s1_closed_form():
    rep = S1Representation(trivial=1, rotating={2: 3})
    expected = -1 * (EulerElementS1.identity() - 3 * EulerElementS1.cyclic(2))
    assert deg_minus_id_s1(rep) == expected
    assert deg_minus_id_s1(S1Representation()) == EulerElementS1.identity()


@given(st.integers(0, 10**9))
def test_embedding_coherence(seed):
    rep = random_s1_rep(random.Random(seed), allow_empty=True)
    embedded = embed_s1_to_t2(deg_minus_id_s1(rep))
    assert embedded == deg_minus_id_t2(loop_decompose(rep, 0))


def test_nondegenerate_orbit_degree():
    assert nondegenerate_orbit_degree(0, 4) == EulerElementS1.cyclic(4)
    assert nondegenerate_orbit_degree(3, 1) == -1 * EulerElementS1.cyclic(1)
    with pytest.raises(ValueError):
        nondegenerate_orbit_degree(-1, 1)
    with pytest.raises(ValueError):
        nondegenerate_orbit_degree(0, 0)
