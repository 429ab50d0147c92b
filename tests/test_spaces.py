"""FormSpace: canonical echelon bases and the lattice operations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersym import (
    FormSpace,
    HomogeneityError,
    Polynomial,
    context,
    intersect_spaces,
    monomials_of_degree,
    sum_spaces,
    vanishing_space,
)
from eulersym.spaces import rref
from helpers import dense_rref, random_poly

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


def test_zero_and_full():
    full = FormSpace.full(CTX, 2)
    assert full.is_full()
    assert full.dim == len(monomials_of_degree(CTX, 2)) == 6
    assert FormSpace.zero(CTX, 2) <= full


def test_contains_and_coordinates():
    s = FormSpace.span([X1**2, X1 * X2])
    assert s.contains(2 * X1**2 - X1 * X2)
    assert not s.contains(X2**2)
    coords = s.coordinates_of(2 * X1**2 - X1 * X2)
    assert coords is not None
    rebuilt = sum((c * b for c, b in zip(coords, s.basis)), Polynomial.zero(CTX))
    assert rebuilt == 2 * X1**2 - X1 * X2
    assert s.coordinates_of(X2**2) is None


def test_reduce_kills_exactly_the_span():
    s = FormSpace.span([X1**2, X1 * X2])
    assert s.reduce(X1**2 + X2**2) == X2**2
    assert s.reduce(5 * X1 * X2).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_dimension_formula_for_sum_and_intersection(seed, degree):
    rng = random.Random(seed)
    a = FormSpace.span([random_poly(rng, CTX, degree) for _ in range(rng.randint(1, 3))])
    b = FormSpace.span([random_poly(rng, CTX, degree) for _ in range(rng.randint(1, 3))])
    total = sum_spaces(a, b)
    meet = intersect_spaces(a, b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert meet <= a and meet <= b
    assert a <= total and b <= total


def test_vanishing_space():
    pts = [(1, 0, 0), (0, 1, 0)]
    v = vanishing_space(CTX, 2, pts)
    # quadratics vanishing at two coordinate points: all but x1^2, x2^2
    assert v.dim == 4
    assert v.contains(X1 * X2) and v.contains(X3**2)
    assert not v.contains(X1**2)


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
