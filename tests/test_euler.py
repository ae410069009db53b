import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torbif
from torbif import (
    EulerElementS1,
    EulerElementT2,
    TorusSubgroup,
    build_report,
    embed_s1_to_t2,
    format_element,
    lambda_set,
    normalize_character,
    parse_element,
)
from torbif.euler import _cyclic_products, _from_keys, _generator_product, _line_products, element_to_json
from torbif.subgroups import _key, _label, _labels, _rows, _xgcd

from oracles import (
    NotInvertible,
    element_text_and_json,
    generator_product_by_intersection,
    invert,
    label_by_rows,
    random_element,
    random_problem,
    random_unit,
    rows_order,
    star_by_pairs,
    term_key,
    terms_by_sorting_pairs,
)

I = EulerElementT2.identity()


def gen(*chars):
    return EulerElementT2.generator(TorusSubgroup.from_characters(chars))


def test_constructor_merges_and_drops_zeros():
    h = TorusSubgroup.kernel(1, 1)
    e = EulerElementT2([(h, 2), (h, -2)])
    assert e == EulerElementT2.zero()
    assert not e
    assert EulerElementT2({h: 0}) == EulerElementT2.zero()
    assert EulerElementT2([(h, 1), (h, 2)]).coefficient(h) == 3


def test_constructor_checks_keys_and_coefficients():
    h = TorusSubgroup.kernel(1, 1)
    with pytest.raises(TypeError, match="expected TorusSubgroup keys, got"):
        EulerElementT2([((1, 1), 1)])
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(TypeError, match="coefficients must be ints, got"):
            EulerElementT2([(h, bad)])
    # the public subgroup constructor keeps every check that the trusted
    # path `_interned` skips
    for rows in (
        ((0, 1), (0, 1)),
        ((2, 1), (0, 1)),
        ((1, 0), (0, 1), (0, 1)),
        ((-1, 0),),
        ((3, -1),),
        ((0, 0),),
        ((10**6, 0), (10**6, 5)),
    ):
        with pytest.raises(ValueError, match="are not a canonical lattice basis"):
            TorusSubgroup(rows)
    for rows in ([(1, 2)], ((1, 2, 3),), ((1, 2), 3)):
        with pytest.raises(ValueError, match="rows must be a tuple of int pairs"):
            TorusSubgroup(rows)
    for rows in (((1.0, 2),), ((True, 1),), ((1, 0), (0, "1"))):
        with pytest.raises(TypeError, match="character entries must be ints"):
            TorusSubgroup(rows)


def test_identity_is_full_orbit_class():
    assert I.terms == ((TorusSubgroup.full(), 1),)
    a = gen((1, 2)) - 3 * gen((1, 0), (0, 4))
    assert I.star(a) == a
    assert a.star(I) == a


def test_star_skips_pairs_below_dimension_two():
    # dimensions 1 + 0 and 0 + 0 never reach 2 + dim of the meet, so these
    # pairs are zero without a generator product, and T * x is x without one
    line = gen((1, 1))
    finite = gen((1, 0), (0, 2))
    _generator_product.cache_clear()
    assert line.star(finite) == EulerElementT2.zero()
    assert finite.star(line + finite) == EulerElementT2.zero()
    assert _generator_product.cache_info().misses == 0
    assert (I + line).star(finite) == finite
    assert _generator_product.cache_info().misses == 0


small = st.integers(-3, 3)
big = st.tuples(st.sampled_from((1, -1)), st.integers(10**999, 10**1000 - 1)).map(lambda t: t[0] * t[1])
subgroups = st.one_of(
    st.just(TorusSubgroup.full()),
    st.tuples(small, small).filter(lambda v: v != (0, 0)).map(lambda v: TorusSubgroup.kernel(*v)),
    st.tuples(small, small, small, small)
    .filter(lambda v: v[0] * v[3] != v[1] * v[2])
    .map(lambda v: TorusSubgroup.from_characters([v[:2], v[2:]])),
)
elements = st.lists(st.tuples(subgroups, st.one_of(small, big)), max_size=8).map(EulerElementT2)


@given(elements)
def test_square_matches_product_with_an_equal_copy(x):
    # x.star(x) takes each unordered pair of lines once, doubled; an equal
    # but distinct operand takes every ordered pair, and the pairwise
    # oracle intersects every pair of terms
    y = EulerElementT2(x.terms)
    assert y == x and y is not x
    assert x.star(x) == x.star(y) == star_by_pairs(x, x)


entries = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))
characters = st.tuples(entries, entries).filter(lambda v: v != (0, 0))


@st.composite
def line_pairs(draw):
    """Two nonzero characters; the second is often a multiple of the first
    (parallel, antiparallel or scaled), otherwise drawn on its own."""
    first = draw(characters)
    if draw(st.booleans()):
        c = draw(st.integers(-7, 7).filter(bool))
        return first, (c * first[0], c * first[1])
    return first, draw(characters)


@settings(max_examples=500)
@given(line_pairs())
def test_line_product_matches_intersection(pair):
    # the product takes the raw characters, in either sign, and returns
    # the key of the intersection of their kernels, or None
    h1, h2 = (TorusSubgroup.kernel(m, n) for m, n in pair)
    meet = generator_product_by_intersection(h1, h2)
    assert _generator_product.__wrapped__(*pair) == (None if meet is None else term_key(meet.rows))


@st.composite
def runs_against_a_line(draw):
    """A nonzero character (a, b), a coefficient c, runs (s, lo, hi, w) of
    characters (s, n) with negative speeds, speed 0 and speeds s = a*t that
    make det vanish at n = b*t, and the gcd table g[n] = _xgcd(b, n)."""
    a, b = draw(characters)
    speeds = st.one_of(entries, st.integers(-3, 3).map(lambda t: a * t))
    runs = []
    for _ in range(draw(st.integers(0, 5))):
        lo = draw(st.integers(0, 12))
        hi = draw(st.integers(lo, lo + 12))
        runs.append((draw(speeds), lo, hi, draw(st.integers(-3, 3))))
    top = max((hi for _, _, hi, _ in runs), default=0)
    return a, b, draw(st.integers(-4, 4)), runs, [_xgcd(b, n) for n in range(top)]


@settings(max_examples=500)
@given(runs_against_a_line(), st.dictionaries(st.sampled_from([(2, 1, 0, 1), (2, 2, 1, 1)]), entries))
def test_line_products_match_the_pair_form(case, start):
    # the run form adds to the dict what the pair form gives on every pair
    # of the runs and on its mirror image, (-a, b) against (-s, n), each
    # weighted by c * w, with no term where det is 0
    a, b, c, runs, g = case
    expected = dict(start)
    for s, lo, hi, w in runs:
        for n in range(lo, hi):
            for pair in (((a, b), (s, n)), ((-a, b), (-s, n))):
                rows = _generator_product(*pair)
                if rows is not None:
                    expected[rows] = expected.get(rows, 0) + c * w
    acc = dict(start)
    _line_products(acc, a, b, c, runs, g)
    assert acc == expected


@settings(max_examples=500)
@given(
    entries,
    st.one_of(st.integers(1, 12), st.integers(1, 10**6)),
    entries,
    st.dictionaries(st.one_of(st.integers(1, 12), st.integers(1, 10**6)), entries, max_size=4),
    st.dictionaries(st.sampled_from([(2, 1, 0, 1), (2, 2, 1, 1), (2, 3, 2, 5)]), entries),
)
def test_cyclic_products_match_the_pair_form(a, b, c, finite, start):
    # the closed form F(i,0;a mod i,b) for a line (a, b) with b >= 1 against
    # each class H(i,0) adds to the dict what the pair form gives, weighted
    # by c * c_i
    expected = dict(start)
    for i, ci in finite.items():
        key = _generator_product((a, b), (i, 0))
        expected[key] = expected.get(key, 0) + c * ci
    acc = dict(start)
    _cyclic_products(acc, a, b, c, sorted(finite.items()))
    assert acc == expected


@st.composite
def direction_heavy_elements(draw):
    """An element whose lines meet every case of the grouping by direction:
    a few characters, each with lines of its own mode and parallel
    multiples (k*a, k*b), lines of mode 0, and maybe T and a finite class."""
    chars = []
    for a, b in draw(st.lists(characters, min_size=1, max_size=3)):
        chars.append((a, b))
        chars.extend((m, b) for m in draw(st.lists(entries, max_size=3)))
        chars.extend((k * a, k * b) for k in draw(st.lists(st.integers(-4, 4).filter(bool), max_size=3)))
    chars.extend((m, 0) for m in draw(st.lists(st.integers(1, 9), max_size=2)))
    terms = [(TorusSubgroup.kernel(*ch), draw(small)) for ch in chars if ch != (0, 0)]
    terms.append((TorusSubgroup.full(), draw(small)))
    terms.append((TorusSubgroup.from_characters([(2, 0), (1, 3)]), draw(small)))
    return EulerElementT2(terms)


@settings(max_examples=150, deadline=None)
@given(direction_heavy_elements(), direction_heavy_elements())
def test_star_by_direction_matches_pairwise_product(x, y):
    # pairs inside a direction group are never visited and pairs of one
    # mode are written in closed form; the oracle intersects every pair of
    # terms, squares and equal copies included
    assert x.star(y) == star_by_pairs(x, y)
    assert y.star(x) == star_by_pairs(y, x)
    assert x.star(x) == x.star(EulerElementT2(x.terms)) == star_by_pairs(x, x)
    lines = [h for h, _ in x.terms if h.dim == 1]
    for h1 in lines:
        for h2 in lines:
            meet = generator_product_by_intersection(h1, h2)
            expected = EulerElementT2.zero() if meet is None else EulerElementT2.generator(meet)
            assert EulerElementT2.generator(h1).star(EulerElementT2.generator(h2)) == expected


@settings(max_examples=300)
@given(st.integers(0, 10**9))
def test_star_matches_pairwise_product(seed):
    rng = random.Random(seed)
    span = rng.choice((3, 9, 10**6))
    a = random_element(rng, max_terms=6, span=span) + rng.randint(-3, 3) * I
    b = random_element(rng, max_terms=6, span=span)
    assert a.star(b) == star_by_pairs(a, b)
    assert b.star(a) == star_by_pairs(b, a)
    assert a.star(a) == star_by_pairs(a, a)


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_star_builds_what_the_public_constructor_builds(seed):
    # star builds its result from keys without the public constructor: the
    # terms must come out merged, nonzero, sorted and on valid subgroups
    rng = random.Random(seed)
    span = rng.choice((9, 10**6))
    a = random_element(rng, max_terms=6, span=span) + rng.randint(-3, 3) * I
    b = random_element(rng, max_terms=6, span=span) + rng.randint(-3, 3) * I
    for result in (a.star(b), b.star(a), a.star(a)):
        rebuilt = EulerElementT2(list(result.terms))
        assert result == rebuilt
        assert result.terms == rebuilt.terms
        assert all(TorusSubgroup(h.rows) == h for h, _ in result.terms)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_terms_view_rebuilds_and_spells_the_element(seed):
    # elements keep keys; their (subgroup, coefficient) view must give back
    # the same element through the public constructor, and the formatter
    # and the JSON, which spell keys, must match `str` over that view
    rng = random.Random(seed)
    span = rng.choice((9, 10**6))
    a = random_element(rng, max_terms=6, span=span) + rng.randint(-3, 3) * I
    b = random_element(rng, max_terms=6, span=span)
    results = [a + b, a - b, -a, rng.randint(-3, 3) * a, a.star(b), a.star(a)]
    results += [a.project(dim) for dim in (0, 1, 2)]
    problem = random_problem(rng)
    reports = [build_report(problem, level) for level in lambda_set(problem, 3)]
    results += [report.index for report in reports]
    for result in results:
        assert EulerElementT2(list(result.terms)) == result
        text, terms_json = element_text_and_json(result)
        assert format_element(result) == text
        assert element_to_json(result) == terms_json
    for report in reports:
        assert report.to_dict()["index"] == element_text_and_json(report.index)[1]


PACKAGE = sorted(Path(torbif.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_package_reads_rows_not_the_terms_view(path):
    # the (subgroup, coefficient) view builds subgroup objects for callers
    # outside the package; its own modules read an element's keys
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert reads == []


canonical_rows = st.one_of(
    st.just(()),
    st.tuples(entries, entries).filter(lambda v: v != (0, 0)).map(lambda v: (normalize_character(*v),)),
    st.tuples(st.integers(1, 9) | st.integers(1, 10**6), st.integers(1, 9) | st.integers(1, 10**6), entries).map(
        lambda v: ((v[0], 0), (v[2] % v[0], v[1]))
    ),
)


@settings(max_examples=300)
@given(st.lists(canonical_rows, max_size=12, unique=True), st.lists(st.integers(-3, 3).filter(bool), min_size=12))
def test_keys_sort_in_the_order_of_rows(rows, coeffs):
    # plain tuple order on keys, with no key function, is the order the
    # terms were once sorted in: (len(rows), rows)
    element = _from_keys({term_key(r): c for r, c in zip(rows, coeffs)})
    assert [key for key, _ in element._terms] == [term_key(r) for r in sorted(rows, key=rows_order)]
    assert [h.rows for h, _ in element.terms] == sorted(rows, key=rows_order)


@settings(max_examples=300)
@given(st.lists(st.tuples(canonical_rows, st.integers(-3, 3) | entries | big, st.booleans()), max_size=12))
def test_from_keys_sorts_the_keys_as_pairs_were_sorted(drawn):
    # `_from_keys` sorts the keys alone and reads each coefficient once;
    # zeros, drawn or left by a coefficient and its negative, still drop
    acc = {}
    for rows, c, cancelled in drawn:
        key = term_key(rows)
        acc[key] = acc.get(key, 0) + c
        if cancelled:
            acc[key] -= c
    assert _from_keys(acc)._terms == terms_by_sorting_pairs(acc)


@settings(max_examples=300)
@given(st.lists(st.tuples(canonical_rows, st.integers(-3, 3) | entries | big), max_size=8))
def test_labels_spell_each_key_in_one_pass(pairs):
    # the one-pass spelling of an element's keys is the per-key `_label`,
    # and the label spelled from rows, in the text and in the JSON
    element = EulerElementT2([(TorusSubgroup(rows), c) for rows, c in pairs])
    terms = element._terms
    labels = [label_by_rows(_rows(key)) for key, _ in terms]
    assert _labels(terms) == [_label(key) for key, _ in terms] == labels
    text = " + ".join(f"{c}*{label}" for (_, c), label in zip(terms, labels)).replace(" + -", " - ")
    assert format_element(element) == (text or "0")
    assert element_to_json(element) == [{"generator": g, "coeff": c} for (_, c), g in zip(terms, labels)]


@settings(max_examples=300)
@given(st.lists(st.tuples(canonical_rows, st.integers(-3, 3) | entries), max_size=8))
def test_rows_round_trip_through_keys(pairs):
    # rows -> key -> rows through the public constructor, `terms`,
    # `coefficient` and the text grammar
    element = EulerElementT2([(TorusSubgroup(rows), c) for rows, c in pairs])
    merged = {}
    for rows, c in pairs:
        assert _key(rows) == term_key(rows)
        assert _rows(_key(rows)) == rows
        merged[rows] = merged.get(rows, 0) + c
    expected = sorted((t for t in merged.items() if t[1]), key=lambda t: rows_order(t[0]))
    assert element.terms == tuple((TorusSubgroup(rows), c) for rows, c in expected)
    for rows, c in merged.items():
        assert element.coefficient(TorusSubgroup(rows)) == c
    assert parse_element(format_element(element)) == element
    # one function spells a term for subgroups and elements alike
    assert all(format_element(EulerElementT2.generator(h)) == f"1*{h}" for h, _ in element.terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_every_key_is_a_flat_tuple_of_ints(seed):
    # the terms of indices, products, sums and parsed elements are each
    # keyed by one tuple of ints, with no nested rows
    rng = random.Random(seed)
    a = random_element(rng, max_terms=6) + rng.randint(-3, 3) * I
    b = random_element(rng, max_terms=6)
    problem = random_problem(rng)
    elements = [a + b, a - b, -a, 2 * a, a.star(b), a.star(a), a.project(0), parse_element(str(a.star(b)))]
    elements += [build_report(problem, level).index for level in lambda_set(problem, 3)]
    elements += [embed_s1_to_t2(problem.deg_s1), I, EulerElementT2.zero()]
    for element in elements:
        assert all(type(key) is tuple and all(type(x) is int for x in key) for key, _ in element._terms)


def test_star_known_products():
    assert gen((1, 0)).star(gen((0, 2))) == gen((1, 0), (0, 2))
    assert gen((1, 1)).star(gen((-1, 1))) == gen((2, 0), (1, 1))
    # parallel characters give a one-dimensional intersection, hence zero
    assert gen((1, 0)).star(gen((2, 0))) == EulerElementT2.zero()
    assert gen((1, 0)).star(gen((1, 0))) == EulerElementT2.zero()


def test_star_dimension_condition():
    finite = gen((1, 0), (0, 1))
    assert finite.star(gen((1, 1))) == EulerElementT2.zero()
    assert finite.star(finite) == EulerElementT2.zero()
    assert I.star(finite) == finite


def test_scalar_multiplication_is_int_only():
    a = gen((1, 2))
    assert 3 * a == a + a + a
    assert a * (-1) == -a
    with pytest.raises(TypeError):
        a * True
    with pytest.raises(TypeError):
        1.5 * a


def test_project_splits_by_dimension():
    a = 2 * I - gen((0, 1)) + 5 * gen((1, 0), (0, 1))
    assert a.project(2) == 2 * I
    assert a.project(1) == -gen((0, 1))
    assert a.project(0) == 5 * gen((1, 0), (0, 1))
    assert a.project(2) + a.project(1) + a.project(0) == a
    with pytest.raises(ValueError):
        a.project(3)


@given(st.integers(0, 10**9))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a = random_element(rng)
    b = random_element(rng)
    c = random_element(rng)
    assert a.star(b) == b.star(a)
    assert a.star(b.star(c)) == a.star(b).star(c)
    assert a.star(b + c) == a.star(b) + a.star(c)
    assert I.star(a) == a


@given(st.integers(0, 10**9))
def test_grading_table(seed):
    rng = random.Random(seed)
    a = random_element(rng)
    b = random_element(rng)
    a1, a0 = a.project(1), a.project(0)
    b1, b0 = b.project(1), b.project(0)
    assert a1.star(b1) == a1.star(b1).project(0)
    assert a1.star(b0) == EulerElementT2.zero()
    assert a0.star(b0) == EulerElementT2.zero()


@given(st.integers(0, 10**9))
def test_nilpotency_cube(seed):
    rng = random.Random(seed)
    x = random_element(rng)
    x = x - x.project(2)
    assert x.star(x.star(x)) == EulerElementT2.zero()


@given(st.integers(0, 10**9))
def test_invert_roundtrip(seed):
    rng = random.Random(seed)
    u = random_unit(rng)
    assert invert(u).star(u) == I
    assert u.star(invert(u)) == I


def test_invert_rejects_non_units():
    with pytest.raises(NotInvertible):
        invert(2 * I)
    with pytest.raises(NotInvertible):
        invert(EulerElementT2.zero())
    with pytest.raises(NotInvertible):
        invert(gen((1, 1)))


def test_format_element_layout():
    assert format_element(EulerElementT2.zero()) == "0"
    assert format_element(I) == "1*T"
    e = I - 2 * gen((1, 1)) + gen((1, 0), (0, 1))
    assert format_element(e) == "1*T - 2*H(1,1) + 1*F(1,0;0,1)"
    assert str(e) == format_element(e)


def test_s1_elements():
    z3 = EulerElementS1.cyclic(3)
    e = EulerElementS1.identity() - 2 * z3
    assert str(e) == "1*S1 - 2*Z3"
    assert e + 2 * z3 == EulerElementS1.identity()
    assert str(EulerElementS1.zero()) == "0"
    assert not EulerElementS1.zero()
    # the T2 and S1 printers share one term joiner; a negative first term
    # keeps its sign in front
    assert str(EulerElementS1(-1, {3: 2})) == "-1*S1 + 2*Z3"
    assert str(EulerElementS1(0, {2: -1})) == "-1*Z2"
    with pytest.raises(ValueError):
        EulerElementS1(0, ((0, 1),))


def test_embedding_sends_isotropy_to_axis_kernels():
    e = 2 * EulerElementS1.identity() - EulerElementS1.cyclic(3)
    assert embed_s1_to_t2(e) == 2 * I - gen((3, 0))
    assert embed_s1_to_t2(EulerElementS1.zero()) == EulerElementT2.zero()
