"""FormSpace: canonical echelon bases and the lattice operations."""

import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersym import (
    GREVLEX,
    ContextMismatchError,
    FormSpace,
    HomogeneityError,
    Polynomial,
    context,
    kernel_of_map,
    monomials_of_degree,
    prolong,
    vanishing_space,
)
from eulersym.poly import compose_linear, default_context
from eulersym.spaces import echelon, nullspace, rref
from helpers import (dense_kernel_of_map, dense_rref, dense_span, dense_vanishing_space,
                     integer_frames, loop_coordinates_of, loop_reduce)

CTX = context("x1", "x2", "x3")
X1 = Polynomial.variable(CTX, 0)
X2 = Polynomial.variable(CTX, 1)
X3 = Polynomial.variable(CTX, 2)


def test_span_is_canonical():
    a = FormSpace.span([X1 + X2, X1 - X2])
    b = FormSpace.span([3 * X2, X1])
    assert a == b
    assert a.dim == 2
    assert hash(a) == hash(b)


def test_span_rejects_mixed_degrees():
    with pytest.raises(HomogeneityError):
        FormSpace.span([X1, X1 * X2])


def test_empty_span_needs_explicit_shape():
    z = FormSpace.span([], CTX, 2)
    assert z.is_zero()
    assert z.degree == 2
    with pytest.raises(ValueError):
        FormSpace.span([])


def _assert_echelon_rows(space):
    # rows: primitive integer rows, positive at the pivot, zero at the other
    # pivots, pivots descending in grevlex; the basis is each row over its pivot
    assert list(space.rows) == GREVLEX.sorted_desc(space.rows)
    for pivot, row in space.rows.items():
        assert all(type(c) is int and c for c in row.values())
        assert gcd(*row.values()) == 1 and row[pivot] > 0
        assert not any(q in row for q in space.rows if q != pivot)
    assert space.basis == tuple(Polynomial(space.context, {m: Fraction(c, row[p])
                                                           for m, c in row.items()})
                                for p, row in space.rows.items())


def test_zero_and_full():
    full = FormSpace.full(CTX, 2)
    assert full.is_full()
    assert full.dim == len(monomials_of_degree(CTX, 2)) == 6
    assert all(full.contains(p) for p in FormSpace.span([X1 * X2, X3**2]).basis)
    assert FormSpace.zero(CTX, 2).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_full_is_the_span_of_the_monomials(n, k):
    ctx = default_context(n)
    full = FormSpace.full(ctx, k)
    spanned = FormSpace.span(
        [Polynomial.from_monomial(ctx, m) for m in monomials_of_degree(ctx, k)], ctx, k)
    _assert_echelon_rows(full)
    assert full == spanned
    assert full.basis == spanned.basis
    assert list(full.rows) == list(spanned.rows)


def test_contains_and_coordinates():
    s = FormSpace.span([X1**2, X1 * X2])
    assert s.contains(2 * X1**2 - X1 * X2)
    assert not s.contains(X2**2)
    coords = s.coordinates_of({(2, 0, 0): 2, (1, 1, 0): -1})  # an integer row
    assert coords == [2, -1]
    rebuilt = sum((c * b for c, b in zip(coords, s.basis)), Polynomial.zero(CTX))
    assert rebuilt == 2 * X1**2 - X1 * X2
    assert s.coordinates_of({(0, 2, 0): 1}) is None


def test_reduce_kills_exactly_the_span():
    s = FormSpace.span([X1**2, X1 * X2])
    assert s.reduce(X1**2 + X2**2) == X2**2
    assert s.reduce(5 * X1 * X2).is_zero()


def _cleared_row(p):
    # p times the lcm of its denominators: an integer row, not always primitive
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {m: int(c * den) for m, c in p.terms.items()}


@st.composite
def spaces_and_forms(draw):
    """A spanned space and a form of its degree: a combination of the
    spanning forms (a member), plus a random form half of the time."""
    ctx = default_context(draw(st.integers(1, 3)))
    degree = draw(st.integers(0, 3))
    monos = monomials_of_degree(ctx, degree)
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def form():
        return Polynomial(ctx, {m: draw(entry)
                                for m in draw(st.lists(st.sampled_from(monos), max_size=4))})

    gens = [form() for _ in range(draw(st.integers(0, 4)))]
    p = sum((draw(entry) * g for g in gens), Polynomial.zero(ctx))
    if draw(st.booleans()):
        p = p + form()
    return FormSpace.span(gens, ctx, degree), p


@settings(max_examples=300, deadline=None)
@given(spaces_and_forms())
def test_reduce_and_coordinates_match_the_loop_oracle(case):
    space, p = case
    residue = space.reduce(p)
    assert residue == loop_reduce(space, p)
    assert space.contains(p) == residue.is_zero()
    row = _cleared_row(p)
    assert space.coordinates_of(row) == loop_coordinates_of(space, Polynomial(p.context, row))


def test_vanishing_space():
    pts = [(1, 0, 0), (0, 1, 0)]
    v = vanishing_space(CTX, 2, pts)
    # quadratics vanishing at two coordinate points: all but x1^2, x2^2
    assert v.dim == 4
    assert v.contains(X1 * X2) and v.contains(X3**2)
    assert not v.contains(X1**2)


@pytest.mark.parametrize("point", [(1, 0), (1, 0, 0, 5)])
def test_vanishing_space_rejects_a_point_of_the_wrong_length(point):
    with pytest.raises(ContextMismatchError,
                       match=f"point has {len(point)} coordinates, context has 3 variables"):
        vanishing_space(CTX, 1, [(0, 1, 0), point])


def test_vanishing_space_matches_the_dense_oracle():
    rng = random.Random(11)
    for n in (1, 2, 3):
        ctx = default_context(n)
        for degree in (0, 1, 2, 3):
            for count in (0, 1, 3, 8, 12):
                pts = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                       for _ in range(count)]
                if pts:
                    pts.append(list(pts[0]))  # a repeated point
                assert vanishing_space(ctx, degree, pts) == \
                    dense_vanishing_space(ctx, degree, pts)


LABELS = [0, 1, "a", (0, 1), ((1, 0), 2)]


@st.composite
def sparse_maps(draw):
    """A linear map on the degree-d monomials (n <= 3, d <= 3) as sparse images,
    with zero, repeated and dependent images among them."""
    ctx = default_context(draw(st.integers(1, 3)))
    degree = draw(st.integers(0, 3))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    images = {}
    for m in monomials_of_degree(ctx, degree):
        done = list(images.values())
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combine"]))
        if kind == "zero":
            image = {}
        elif kind == "repeat" and done:
            image = dict(draw(st.sampled_from(done)))
        elif kind == "combine" and done:
            a, b = draw(st.sampled_from(done)), draw(st.sampled_from(done))
            s, t = draw(entry), draw(entry)
            image = {l: s * a.get(l, 0) + t * b.get(l, 0) for l in set(a) | set(b)}
        else:
            image = {l: draw(entry) for l in draw(st.lists(st.sampled_from(LABELS),
                                                           max_size=len(LABELS)))}
        images[m] = image
    return ctx, degree, images


@settings(max_examples=300, deadline=None)
@given(sparse_maps())
def test_kernel_of_map_is_the_canonical_kernel(case):
    ctx, degree, images = case
    kernel = kernel_of_map(ctx, degree, images)
    dense = {m: [[image.get(l, 0) for l in LABELS]] for m, image in images.items()}
    _assert_echelon_rows(kernel)
    assert kernel == dense_kernel_of_map(ctx, degree, dense)
    respan = FormSpace.span(kernel.basis, ctx, degree)
    assert kernel.basis == respan.basis and list(kernel.rows) == list(respan.rows)
    for b in kernel.basis:
        assert b == Polynomial(ctx, b.terms)
        assert all(type(c) is Fraction and c for c in b.terms.values())
        for l in LABELS:
            assert sum(c * images[m].get(l, 0) for m, c in b.terms.items()) == 0


@st.composite
def rational_matrices(draw):
    """Small rational matrices with zero rows, dependent rows and any density."""
    width = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    rows = [[draw(entry) if draw(st.floats(0, 1)) < density else Fraction(0)
             for _ in range(width)]
            for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.insert(draw(st.integers(0, len(rows))),
                        [s * x + t * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * width)
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rref_matches_the_dense_oracle(rows):
    assert rref(rows) == dense_rref(rows)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_nullspace_is_the_kernel_of_the_free_columns(rows):
    width = len(rows[0]) if rows else 4
    _, pivots = dense_rref(rows)
    free = [j for j in range(width) if j not in pivots]
    kernel = nullspace(rows, width)
    assert len(kernel) == len(free)
    for f, vec in zip(free, kernel):
        assert all(type(c) is Fraction for c in vec)
        assert [vec[j] for j in free] == [int(j == f) for j in free]
        assert all(vec[j] == 0 for j in range(f + 1, width))
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


BIG = 10**30


@st.composite
def sparse_rows(draw):
    """Sparse rational rows {column: value} with empty, all-zero, duplicate,
    negated and 30-digit-coefficient rows among them."""
    width = draw(st.integers(1, 8))
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    big = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    entry = draw(st.sampled_from([small, big, st.one_of(small, big)]))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "empty", "zeros", "duplicate", "negated"]))
        if kind == "empty":
            rows.append({})
        elif kind == "zeros":
            rows.append({j: Fraction(0) for j in draw(st.sets(st.integers(0, width - 1)))})
        elif kind in ("duplicate", "negated") and rows:
            row = draw(st.sampled_from(rows))
            rows.append({j: -c if kind == "negated" else c for j, c in row.items()})
        else:
            rows.append({j: draw(entry) for j in draw(st.sets(st.integers(0, width - 1)))})
    return width, rows


@settings(max_examples=400, deadline=None)
@given(sparse_rows())
def test_echelon_matches_the_dense_oracle(case):
    width, rows = case
    basis = echelon(rows)
    reduced, pivots = dense_rref([[row.get(j, Fraction(0)) for j in range(width)]
                                  for row in rows])
    assert sorted(basis) == pivots
    for p, dense in zip(pivots, reduced):
        row = basis[p]
        assert min(row) == p and row[p] > 0
        assert all(type(c) is int and c for c in row.values())
        assert gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[p]) for j in range(width)] == dense


@st.composite
def form_lists(draw):
    """Spanning lists of forms with zero, repeated and dependent members."""
    ctx = default_context(draw(st.integers(1, 3)))
    degree = draw(st.integers(0, 3))
    monos = monomials_of_degree(ctx, degree)
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    polys = []
    for _ in range(draw(st.integers(0, 6))):
        if polys and draw(st.booleans()):
            a, b = draw(st.sampled_from(polys)), draw(st.sampled_from(polys))
            polys.append(draw(entry) * a + draw(entry) * b)
        else:
            polys.append(Polynomial(ctx, {m: draw(entry) for m in
                                          draw(st.lists(st.sampled_from(monos), max_size=5))}))
    return ctx, degree, polys


@settings(max_examples=300, deadline=None)
@given(form_lists())
def test_span_matches_the_dense_oracle(case):
    ctx, degree, polys = case
    space = FormSpace.span(polys, ctx, degree)
    oracle = dense_span(polys, ctx, degree)
    assert space == oracle
    assert space.basis == oracle.basis and list(space.rows) == list(oracle.rows)


@st.composite
def framed_spaces(draw):
    """Forms with integer entries in [-3, 3], moved to a random invertible
    integer frame with entries in [-3, 3]; a rational combination of them
    (a member), and a monomial with a nonzero multiplier to perturb it by."""
    n = draw(st.integers(1, 3))
    ctx = default_context(n)
    degree = draw(st.integers(0, 3))
    monos = monomials_of_degree(ctx, degree)
    small = st.integers(-3, 3)
    frame = draw(integer_frames(n))
    gens = [compose_linear(Polynomial(ctx, {m: draw(small) for m in
                                            draw(st.lists(st.sampled_from(monos), max_size=4))}),
                           frame)
            for _ in range(draw(st.integers(0, 4)))]
    ratio = st.builds(Fraction, small, st.integers(1, 3))
    member = sum((draw(ratio) * g for g in gens), Polynomial.zero(ctx))
    return ctx, degree, gens, member, draw(st.sampled_from(monos)), draw(ratio.filter(bool))


@settings(max_examples=300, deadline=None)
@given(framed_spaces())
def test_integer_rows_match_the_fraction_oracles(case):
    ctx, degree, gens, member, mono, c = case
    space = FormSpace.span(gens, ctx, degree)
    oracle = dense_span(gens, ctx, degree)
    _assert_echelon_rows(space)
    assert space == oracle and hash(space) == hash(oracle)
    assert space.contains(member) and loop_reduce(oracle, member).is_zero()
    outsider = member + Polynomial.from_monomial(ctx, mono, c)
    assert space.contains(outsider) == loop_reduce(oracle, outsider).is_zero()
    if mono not in space.rows:  # a non-pivot monomial is its own residue
        assert not space.contains(outsider)
    for p in (member, outsider):
        row = _cleared_row(p)
        assert space.coordinates_of(row) == loop_coordinates_of(oracle, Polynomial(ctx, row))


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.6
                 else Fraction(0) for _ in range(6)] for _ in range(5)]
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[1])])
        reduced, pivots = sympy.Matrix(rows).rref()
        ours, our_pivots = rref(rows)
        assert our_pivots == list(pivots)
        assert [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in ours] \
            == reduced.tolist()[:len(pivots)]


def test_monomial_lists_are_fresh_copies():
    first = monomials_of_degree(CTX, 2)
    first.clear()
    assert len(monomials_of_degree(CTX, 2)) == 6


def test_the_fraction_basis_is_built_only_when_read():
    # building, comparing, hashing, membership and prolong read the integer rows alone
    source = FormSpace.span([2 * X1 * X2 + X3**2, X1 * X3 - 3 * X2**2, X1**2])
    images = {m: {"a": m[0] - 2 * m[1], "b": 3 * m[2] - m[0]} for m in monomials_of_degree(CTX, 2)}
    spaces = [FormSpace.span([2 * X1 + X2, 3 * X1 - X3]), kernel_of_map(CTX, 2, images),
              prolong(source), source]
    for space in spaces:
        twin = FormSpace(context=space.context, degree=space.degree, rows=dict(space.rows))
        assert space == twin and hash(space) == hash(twin)
        assert all(space.contains(Polynomial(CTX, row)) for row in space.rows.values())
        assert "basis" not in vars(space) and "basis" not in vars(twin)
    assert any(row[p] > 1 for space in spaces for p, row in space.rows.items())
    for space in spaces:
        assert space.basis == tuple(Polynomial(CTX, row) * Fraction(1, row[p])
                                    for p, row in space.rows.items())
        assert "basis" in vars(space)


def test_a_space_is_frozen():
    space = FormSpace.span([X1 + 2 * X2])
    for name in [f.name for f in fields(space)] + ["basis"]:
        with pytest.raises(FrozenInstanceError):
            setattr(space, name, getattr(space, name))
    assert [f.name for f in fields(space)] == ["context", "degree", "rows"]
