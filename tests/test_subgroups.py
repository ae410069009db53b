import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torbif.subgroups
from torbif import EulerElementT2, TorusSubgroup
from torbif.euler import _generator_product
from torbif.subgroups import _canonical_rows, _interned, _rows

from oracles import canonical_rows_by_folding, minor_gcd_index, torsion_points

characters = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda v: v != (0, 0)
)
entries = st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))


@st.composite
def character_lists(draw):
    """0 to 5 characters with entries up to 10**6, sometimes with (0, 0)
    or an integer multiple of an earlier character mixed in."""
    chars = draw(st.lists(st.tuples(entries, entries), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if chars and draw(st.booleans()):
            m, n = draw(st.sampled_from(chars))
            c = draw(st.integers(-5, 5))
            chars.insert(draw(st.integers(0, len(chars))), (c * m, c * n))
        else:
            chars.insert(draw(st.integers(0, len(chars))), (0, 0))
    return chars


def test_full_group_form():
    t = TorusSubgroup.full()
    assert t.rows == ()
    assert t.dim == 2
    assert t.is_full
    assert str(t) == "T"


def test_kernel_normalizes_sign():
    assert TorusSubgroup.kernel(2, -3) == TorusSubgroup.kernel(-2, 3)
    assert TorusSubgroup.kernel(-2, 0) == TorusSubgroup.kernel(2, 0)
    assert str(TorusSubgroup.kernel(2, -3)) == "H(-2,3)"
    assert str(TorusSubgroup.kernel(1, 1)) == "H(1,1)"
    # the kernel of the zero character is everything
    assert TorusSubgroup.kernel(0, 0).is_full


@settings(max_examples=500)
@given(entries, entries)
def test_kernel_matches_canonical_rows(m, n):
    # the canonical row of one character is that character, sign-normalized
    assert TorusSubgroup.kernel(m, n).rows == _canonical_rows([(m, n)])


def test_kernel_checks_entries_without_the_normal_form(monkeypatch):
    def refuse(chars):
        raise AssertionError("kernel computed a lattice normal form")

    monkeypatch.setattr(torbif.subgroups, "_canonical_rows", refuse)
    assert TorusSubgroup.kernel(3, -5).rows == ((-3, 5),)
    assert TorusSubgroup.kernel(1, 0).rows == ((1, 0),)
    # True == 1 for the intern cache, so a bool must be refused before it
    for m, n in ((True, 0), (1, True), (0, False)):
        with pytest.raises(TypeError):
            TorusSubgroup.kernel(m, n)


def test_kernel_keeps_imprimitive_characters():
    # ker(2,0) is a different subgroup from ker(1,0), so no gcd reduction
    assert TorusSubgroup.kernel(2, 0) != TorusSubgroup.kernel(1, 0)
    assert TorusSubgroup.kernel(2, 4) != TorusSubgroup.kernel(1, 2)
    assert TorusSubgroup.kernel(1, 0).dim == 1


def test_trivial_subgroup():
    e = TorusSubgroup.trivial()
    assert e.rows == ((1, 0), (0, 1))
    assert e.dim == 0
    assert e.order == 1
    assert str(e) == "F(1,0;0,1)"


def test_order_requires_finite_subgroup():
    with pytest.raises(ValueError):
        TorusSubgroup.full().order
    with pytest.raises(ValueError):
        TorusSubgroup.kernel(1, 2).order


def test_rows_must_be_canonical():
    with pytest.raises(ValueError):
        TorusSubgroup(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        TorusSubgroup(((2, 0), (3, 1)))
    with pytest.raises(ValueError):
        TorusSubgroup(((1, -1),))
    with pytest.raises(ValueError):
        TorusSubgroup(((-1, 0),))


def test_intersect_axis_kernels():
    f = TorusSubgroup.kernel(1, 0).intersect(TorusSubgroup.kernel(0, 3))
    assert f.rows == ((1, 0), (0, 3))
    assert f.order == 3
    assert str(f) == "F(1,0;0,3)"


def test_intersect_with_full_and_trivial():
    h = TorusSubgroup.kernel(2, 5)
    assert h.intersect(TorusSubgroup.full()) == h
    assert h.intersect(TorusSubgroup.trivial()) == TorusSubgroup.trivial()
    assert h.intersect(h) == h


def test_intersect_offset_reduction():
    # span of (2,0) and (7,3) reduces the offset mod 2
    f = TorusSubgroup.kernel(2, 0).intersect(TorusSubgroup.kernel(7, 3))
    assert f.rows == ((2, 0), (1, 3))
    assert f.order == 6


@given(st.lists(characters, min_size=1, max_size=4), st.integers(0, 10**9))
def test_canonicalization_invariance(chars, seed):
    rng = random.Random(seed)
    base = TorusSubgroup.from_characters(chars)
    shuffled = list(chars)
    rng.shuffle(shuffled)
    assert TorusSubgroup.from_characters(shuffled) == base
    flipped = [(-m, -n) if rng.random() < 0.5 else (m, n) for m, n in chars]
    assert TorusSubgroup.from_characters(flipped) == base
    i = rng.randrange(len(chars))
    j = rng.randrange(len(chars))
    c = rng.randint(-3, 3)
    extra = (chars[i][0] + c * chars[j][0], chars[i][1] + c * chars[j][1])
    assert TorusSubgroup.from_characters(list(chars) + [extra]) == base


@given(st.lists(characters, min_size=2, max_size=4))
def test_order_matches_minor_gcd(chars):
    index = minor_gcd_index(chars)
    assume(index != 0)
    h = TorusSubgroup.from_characters(chars)
    assert h.dim == 0
    assert h.order == index


@settings(max_examples=60)
@given(st.lists(characters, min_size=2, max_size=3))
def test_torsion_points_match_oracle(chars):
    index = minor_gcd_index(chars)
    assume(0 < index <= 40)
    h = TorusSubgroup.from_characters(chars)
    points = torsion_points(chars, index)
    # same point set through the canonical rows, same cardinality as order
    assert torsion_points(h.rows, index) == points
    assert len(points) == h.order


def test_intersect_matches_combined_characters():
    rng = random.Random(7)
    for _ in range(200):
        a = TorusSubgroup.from_characters(
            [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(2)]
        )
        b = TorusSubgroup.from_characters(
            [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(2)]
        )
        meet = a.intersect(b)
        assert meet == TorusSubgroup.from_characters(a.rows + b.rows)
        assert meet == b.intersect(a)


def test_dim_by_rank():
    assert TorusSubgroup.full().dim == 2
    assert TorusSubgroup.kernel(3, 7).dim == 1
    assert TorusSubgroup.from_characters([(1, 0), (0, 5)]).dim == 0


@settings(max_examples=500)
@given(character_lists())
def test_canonical_rows_match_pairwise_fold(chars):
    assert _canonical_rows(chars) == canonical_rows_by_folding(chars)


def test_canonical_rows_of_parallel_characters():
    assert _canonical_rows([(2, 4), (3, 6)]) == ((1, 2),)
    assert _canonical_rows([(4, 0), (6, 0)]) == ((2, 0),)
    assert canonical_rows_by_folding([(2, 4), (3, 6)]) == ((1, 2),)
    assert canonical_rows_by_folding([(4, 0), (6, 0)]) == ((2, 0),)


@settings(max_examples=200)
@given(character_lists(), character_lists())
def test_stored_fields_follow_rows(chars, others):
    # equality and hash must stay on rows, since the bounded intern cache
    # can evict an entry and a later build then makes a second instance
    # with the same rows
    h = TorusSubgroup.from_characters(chars)
    g = TorusSubgroup.from_characters(others)
    assert h.dim == 2 - len(h.rows)
    assert (h == g) == (h.rows == g.rows)
    _interned.cache_clear()
    again = TorusSubgroup.from_characters(chars)
    assert again is not h
    assert again == h
    assert hash(again) == hash(h)
    assert EulerElementT2([(h, 1), (again, 2)]).terms == ((h, 3),)


@st.composite
def trusted_rows(draw):
    """Rows as the callers of `_interned` make them, with entries up to
    10**6: the row of a kernel, a lattice normal form, or the rows of the
    key of the product of two lines, as `terms` reads them."""
    source = draw(st.sampled_from(("kernel", "normal form", "line product")))
    if source == "kernel":
        return TorusSubgroup.kernel(draw(entries), draw(entries)).rows
    if source == "normal form":
        return _canonical_rows(draw(character_lists()))
    line = st.tuples(entries, entries).filter(lambda v: v != (0, 0))
    key = _generator_product.__wrapped__(draw(line), draw(line))
    assume(key is not None)
    return _rows(key)


@settings(max_examples=500)
@given(trusted_rows())
def test_interned_subgroups_pass_the_public_validator(rows):
    # `_interned` builds without the public check; what it builds must be
    # what the checked constructor builds from the same rows
    _interned.cache_clear()
    trusted = _interned(rows)
    checked = TorusSubgroup(rows)
    assert trusted is not checked
    assert trusted == checked
    assert trusted.rows is rows
    assert (trusted.dim, hash(trusted)) == (checked.dim, hash(checked))
