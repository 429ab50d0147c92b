"""Polynomial arithmetic, contraction and the coordinate-change maps."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersym import (
    ContextMismatchError,
    HomogeneityError,
    Polynomial,
    compose_linear,
    context,
    contract,
    evaluate,
    format_polynomial,
    translate,
)
from eulersym import sampling
from eulersym.groebner import leading_monomial, reduce_poly
from eulersym.poly import GREVLEX, LEX
from helpers import (convolution_translate, directional_derivative, polarize, random_poly,
                     termwise_compose_linear)

CTX2 = context("x1", "x2")
CTX3 = context("x1", "x2", "x3")
X1 = Polynomial.variable(CTX3, 0)
X2 = Polynomial.variable(CTX3, 1)
X3 = Polynomial.variable(CTX3, 2)


def test_ring_basics():
    p = 2 * X1 * X2 - X3**2
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert p.coefficient((1, 1, 0)) == 2
    assert (p - p).is_zero()
    assert p((1, 2, 3)) == 4 - 9
    q = p + 1
    assert not q.is_homogeneous()
    with pytest.raises(HomogeneityError):
        q.homogeneous_degree()


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        X1 + Polynomial.variable(CTX2, 0)
    with pytest.raises(ContextMismatchError):
        evaluate(X1, (1, 2))


def test_contraction_normalization():
    # one contraction of a degree-k form is (1/k) of the directional derivative
    p = X1 * X2
    assert contract(p, (1, 0, 0)) == Fraction(1, 2) * X2
    assert contract(X1**3, (1, 0, 0)) == X1**2
    assert contract(X1**3, (1, 0, 0), times=3) == Polynomial.constant(CTX3, 1)
    # over-contracting and contracting a constant both give zero
    assert contract(p, (1, 0, 0), times=3).is_zero()
    assert contract(Polynomial.constant(CTX3, 5), (1, 0, 0)).is_zero()


def test_full_contraction_is_evaluation():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 4)
        p = random_poly(rng, CTX3, d)
        w = sampling.vector(rng, 3)
        assert contract(p, w, times=d) == Polynomial.constant(CTX3, p(w))


def test_contraction_matches_the_directional_derivative_oracle():
    # one contraction of a degree-k form is D_v / k, for any vector v
    rng = random.Random(13)
    for _ in range(25):
        d = rng.randint(1, 4)
        p = random_poly(rng, CTX3, d)
        v = sampling.vector(rng, 3)
        assert contract(p, v) == directional_derivative(p, v) * Fraction(1, d)
    with pytest.raises(ContextMismatchError):
        contract(X1 * X2, (1, 0))


def test_polarize_symmetric_and_multilinear():
    p = X1**2 * X2
    u, v, w = (1, 0, 0), (0, 1, 0), (2, 1, 0)
    val = polarize(p, [u, u, v])
    assert val == Fraction(1, 3)
    assert polarize(p, [u, v, u]) == val
    left = polarize(p, [w, u, v])
    split = 2 * polarize(p, [u, u, v]) + polarize(p, [v, u, v])
    assert left == split
    with pytest.raises(ValueError):
        polarize(p, [u, v])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.data())
def test_binomial_contraction_identity(seed, degree, data):
    # iota_{u+v}^j = sum_l binom(j,l) iota_u^l iota_v^(j-l)
    rng = random.Random(seed)
    p = random_poly(rng, CTX2, degree)
    u = sampling.vector(rng, 2)
    v = sampling.vector(rng, 2)
    j = data.draw(st.integers(1, degree))
    lhs = contract(p, [a + b for a, b in zip(u, v)], times=j)
    rhs = Polynomial.zero(CTX2)
    for l in range(j + 1):
        rhs = rhs + comb(j, l) * contract(contract(p, v, times=j - l), u, times=l)
    assert lhs == rhs


def test_translate_matches_evaluation():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, CTX3, rng.randint(1, 4), homogeneous=False)
        a = sampling.vector(rng, 3)
        x = sampling.vector(rng, 3)
        assert translate(p, a)(x) == p([xi + ai for xi, ai in zip(x, a)])


TRANSLATION_POINTS = [
    lambda rng, n: [0] * n,
    lambda rng, n: [-rng.randint(1, 9) for _ in range(n)],
    lambda rng, n: [Fraction(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(n)],
    lambda rng, n: [rng.choice((-1, 1)) * rng.randrange(10**29, 10**30) for _ in range(n)],
    lambda rng, n: [Fraction(rng.randrange(10**29, 10**30), rng.randrange(10**29, 10**30))
                    * rng.choice((0, -1, 1)) for _ in range(n)],
]


@pytest.mark.parametrize("seed", range(6))
def test_translate_matches_the_convolution_oracle(seed):
    # the power-table expansion against the former per-term binomial convolution
    rng = random.Random(seed)
    for n in range(1, 5):
        ctx = context(*(f"x{i + 1}" for i in range(n)))
        forms = [random_poly(rng, ctx, rng.randint(0, 4), homogeneous=rng.random() < 0.5)
                 for _ in range(3)] + [Polynomial.zero(ctx)]
        for p in forms:
            for point in TRANSLATION_POINTS:
                a = point(rng, n)
                got = translate(p, a)
                assert got == convolution_translate(p, a)
                assert all(type(c) is Fraction and c for c in got.terms.values())


def test_compose_linear_matches_evaluation():
    rng = random.Random(4)
    for _ in range(20):
        p = random_poly(rng, CTX2, rng.randint(1, 3), homogeneous=False)
        m = [[sampling.rational(rng) for _ in range(2)] for _ in range(2)]
        x = sampling.vector(rng, 2)
        image = [m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1]]
        assert compose_linear(p, m)(x) == p(image)


def _substitution_matrix(rng, n, kind):
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        return [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    rows = [[sampling.rational(rng) for _ in range(n)] for _ in range(n)]
    if kind == "singular":  # a zero row, or a row repeating another
        i = rng.randrange(n)
        rows[i] = [0] * n if n == 1 or rng.random() < 0.5 else list(rows[i - 1])
    return rows


@pytest.mark.parametrize("kind", ["rational", "singular", "permutation"])
@pytest.mark.parametrize("seed", range(8))
def test_compose_linear_matches_the_termwise_oracle(seed, kind):
    # the cached-power expansion against the former Polynomial-per-term loop
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(rng.randint(1, 4))))
    matrix = _substitution_matrix(rng, ctx.n, kind)
    forms = [random_poly(rng, ctx, rng.randint(0, 4), homogeneous=rng.random() < 0.5)
             for _ in range(4)] + [Polynomial.zero(ctx)]
    for p in forms:
        got = compose_linear(p, matrix)
        assert got == termwise_compose_linear(p, matrix)
        assert all(c for c in got.terms.values())


def test_format_polynomial():
    p = Fraction(3, 2) * X1**2 * X2 - X3 + 1
    assert format_polynomial(p) == "3/2*x1^2*x2 - x3 + 1"
    assert format_polynomial(Polynomial.zero(CTX3)) == "0"
    assert format_polynomial(-X1) == "-x1"


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), small_fractions, max_size=5,
).map(lambda terms: Polynomial(CTX3, terms))


def _is_clean(q):
    return (Polynomial(q.context, q.terms).terms == q.terms
            and all(type(c) is Fraction and c for c in q.terms.values()))


@settings(max_examples=150, deadline=None)
@given(polynomials, polynomials, polynomials, small_fractions, st.integers(-3, 3),
       st.integers(0, 2))
def test_arithmetic_results_are_clean(p, q, r, c, k, i):
    # the trusted constructor skips the checks, so every result that goes
    # through it must be exactly what the checking constructor would build
    results = [p + q, p - q, -p, p * q, p * c, p * k, k * p, p + k, p - c, c - p,
               p.derivative(i), p**2]
    for order in (GREVLEX, LEX):
        results.append(reduce_poly(p, [q, r], order))
    for out in results:
        assert _is_clean(out)
        if out:
            assert leading_monomial(out, GREVLEX) == GREVLEX.max(out.terms)
            assert leading_monomial(out, LEX) == LEX.max(out.terms)
            assert leading_monomial(out, GREVLEX) == GREVLEX.max(out.terms)
    # equality and hashing ignore the cached leading monomial
    fresh = Polynomial(CTX3, p.terms)
    assert fresh == p and hash(fresh) == hash(p)
