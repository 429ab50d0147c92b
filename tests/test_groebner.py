"""Buchberger, saturation and the zero-dimensionality test."""

import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest

from eulersym import (
    ContextMismatchError,
    DegreeCapExceeded,
    FormSpace,
    GroebnerBasis,
    HomogeneityError,
    Polynomial,
    buchberger,
    context,
    graded_component,
    is_zero_dimensional,
    monomials_of_degree,
    saturate_ideal,
)
from eulersym.groebner import leading_monomial, reduce_poly
from eulersym.poly import GREVLEX, LEX, MonomialOrder, grevlex_key, lex_key
from eulersym import sampling
import eulersym.groebner
import helpers
from eulersym.cli import bundled_text
from eulersym.specfiles import system_from_file
from helpers import (block_order, colon_by_variable_power, colon_saturate, elimination_saturate,
                     intersect_ideals, is_unit_ideal, is_zero_ideal, pairset_buchberger,
                     pairset_reduce_poly, random_poly, segre_dense, segre_monomial)

CTX = context("x1", "x2", "x3")
X1 = Polynomial.variable(CTX, 0)
X2 = Polynomial.variable(CTX, 1)
X3 = Polynomial.variable(CTX, 2)


def _basis(gens):
    return GroebnerBasis.of(gens, gens[0].context)


def test_buchberger_known_basis():
    # classic: (x^2 - y, x^3 - z) in lex order x > y > z
    ctx = context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, i) for i in range(3))
    ideal = GroebnerBasis.of([x**2 - y, x**3 - z], ctx, LEX)
    assert reduce_poly(y**3 - z**2, ideal.polys, LEX).is_zero()
    assert not reduce_poly(y**2 - z, ideal.polys, LEX).is_zero()


def test_reduction_is_zero_exactly_on_members():
    gb = GroebnerBasis.of([X1**2, X1 * X2], CTX)
    assert reduce_poly(X1**2 * X3, gb.polys, gb.order).is_zero()
    assert reduce_poly(X2**2, gb.polys, gb.order) == X2**2


def test_unit_and_zero_ideals():
    one = GroebnerBasis.of([Polynomial.constant(CTX, 3)], CTX)
    assert is_unit_ideal(one)
    empty = GroebnerBasis.of([], CTX)
    assert is_zero_ideal(empty)


def test_degree_cap_guard(monkeypatch):
    # the leading monomials share variables, so the coprime criterion
    # cannot discard the pair and the cap has to fire
    monkeypatch.setattr(eulersym.groebner, "DEGREE_CAP", 3)
    with pytest.raises(DegreeCapExceeded):
        buchberger([X1**2 * X2 - X3**3, X1 * X2**2 - X3**3], GREVLEX)


def test_a_basis_checks_its_context():
    # unchecked, is_zero_dimensional read a basis over (x, y) against the
    # context (a, b, c) past its exponents, and against (u, v) answered True
    xy = context("x", "y")
    x, y = (Polynomial.variable(xy, i) for i in range(2))
    with pytest.raises(ContextMismatchError) as exc:
        is_zero_dimensional(GroebnerBasis.of([x**2, y**2], context("a", "b", "c")))
    assert str(exc.value) == "incompatible variable lists: (x y) vs (a b c)"
    with pytest.raises(ContextMismatchError):
        GroebnerBasis.of([x**2, y**2], context("u", "v"))
    with pytest.raises(ContextMismatchError):
        GroebnerBasis(CTX, GREVLEX, (x**2,))


def test_colon_and_intersection():
    # ((x1*x2) : x1^inf) = (x2), and (x1) meet (x2) = (x1*x2)
    colon = colon_by_variable_power([X1 * X2], 0)
    assert [str(g) for g in colon] == ["x2"]
    both = intersect_ideals([X1], [X2], CTX)
    assert [str(g) for g in both] == ["x1*x2"]


def test_successive_colons_are_not_saturation():
    # ((x1*x2):x1^inf):x2^inf is the unit ideal, while the true saturation
    # of (x1*x2) with respect to (x1, x2, x3) is (x1*x2) itself
    first = colon_by_variable_power([X1 * X2], 0)
    second = colon_by_variable_power(first, 1)
    assert len(second) == 1 and second[0].degree() == 0
    sat = saturate_ideal(_basis([X1 * X2]))
    assert [str(g) for g in sat.polys] == ["x1*x2"]


def _random_ideal(seed):
    """Homogeneous generators of degree <= 3 in 2 or 3 variables.

    Fewer random forms than variables, so the ideal is never m-primary;
    two seeds in three multiply them by the irrelevant ideal m or by the
    m-primary (x1^2, x2, ..), so the saturation is not the ideal itself.
    """
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(rng.choice([2, 3]))))
    xs = [Polynomial.variable(ctx, i) for i in range(ctx.n)]
    primary = [[Polynomial.constant(ctx, 1)], xs, [xs[0] ** 2] + xs[1:]][seed % 3]
    top = 3 - max(p.degree() for p in primary)
    forms = [random_poly(rng, ctx, rng.randint(1, top)) for _ in range(rng.randint(1, ctx.n - 1))]
    return [f * p for f in forms for p in primary]


@pytest.mark.parametrize("seed", range(12))
def test_saturation_matches_the_elimination_oracle(seed):
    gens = _random_ideal(seed)
    assert saturate_ideal(_basis(gens)) == elimination_saturate(gens)


def test_saturation_needs_a_second_linear_form():
    # I = l*(x1, x2, x3) with l = x1 + x2 + x3 = l_1: I : l_1^inf is the unit
    # ideal, which fails certification, and l_2 gives the saturation (l)
    ell = X1 + X2 + X3
    gens = [ell * X1, ell * X2, ell * X3]
    sat = saturate_ideal(_basis(gens))
    assert [str(g) for g in sat.polys] == ["x1 + x2 + x3"]
    assert sat == elimination_saturate(gens)


L1 = X1 + X2 + X3  # l_1 and l_2 of saturate_ideal's sequence l_j = sum_i j^i x_i
L2 = 2 * X1 + 4 * X2 + 8 * X3
X = Polynomial.variable(context("x1"), 0)
SEGRE = {"monomial": segre_monomial, "dense": segre_dense}
COLON_CASES = {
    "l1*m": lambda: [L1 * x for x in (X1, X2, X3)],
    # I : l_1^inf = (l_2) and I : l_2^inf = (l_1) both fail; l_3 certifies
    "l1*l2*m": lambda: [L1 * L2 * x for x in (X1, X2, X3)],
    "x1^2 in one variable": lambda: [X**2],  # saturates to the unit ideal
    # the square of the point x2 = l_1 = 0, saturated already: in the l_1
    # frame only the colon by x1^inf (x1 is the point's nonzero coordinate)
    # shows that I : l_1^inf, the unit ideal, is too large
    "point-squared": lambda: [X2**2, X2 * L1, L1**2],
    **{f"segre-P1^{n}-{frame}": (lambda n=n, frame=frame:
                                 list(SEGRE[frame](n, 30 + n).component(2).basis))
       for n in (3, 4, 5) for frame in SEGRE},
    **{f"random-{seed}": (lambda seed=seed: _random_ideal(seed)) for seed in range(12)},
}


@pytest.mark.parametrize("case", sorted(COLON_CASES))
def test_saturation_matches_the_colon_oracle(case):
    # the leading-monomial certificate accepts the same l_j as the former
    # test of J against every colon I : x_i^inf, so the bases are equal
    gens = COLON_CASES[case]()
    sat = saturate_ideal(_basis(gens))
    assert sat == colon_saturate(gens)
    assert [str(g) for g in sat.polys] == [str(g) for g in colon_saturate(gens).polys]


def test_saturation_of_a_square_in_one_variable_is_the_unit_ideal():
    assert is_unit_ideal(saturate_ideal(_basis([X**2])))


def _buchberger_runs(monkeypatch, saturate, gens):
    runs = []
    real = eulersym.groebner.buchberger

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(eulersym.groebner, "buchberger", counting)
    monkeypatch.setattr(helpers, "buchberger", counting)
    saturate(gens)
    return len(runs)


def test_saturation_runs_one_completion_per_linear_form_and_one_more(monkeypatch):
    # the input basis is completed before counting: for triple.sys J = I,
    # so the l_1 run is the only one
    f2 = list(system_from_file(bundled_text("triple.sys")).component(2).basis)
    assert _buchberger_runs(monkeypatch, saturate_ideal, _basis(f2)) == 1
    assert _buchberger_runs(monkeypatch, colon_saturate, f2) == 5
    triple_fail = COLON_CASES["l1*l2*m"]()
    assert _buchberger_runs(monkeypatch, saturate_ideal, _basis(triple_fail)) == 4
    assert _buchberger_runs(monkeypatch, colon_saturate, triple_fail) == 7


CAPPED = [X1**2 * X2, X2**3 + X3**3, X1 * X3**2]


@pytest.mark.parametrize("cap, degree", [(2, 3), (3, 4), (4, 5), (5, 6)])
def test_saturation_degree_cap_fires_where_the_colon_oracle_fired(monkeypatch, cap, degree):
    # the first over-cap S-pair comes from the l_1-frame completion;
    # colon_saturate runs that completion too (after the n colons, which
    # stop it at degree 5 for caps 2 to 4), so its cap fires as well
    capped = _basis(CAPPED)
    monkeypatch.setattr(eulersym.groebner, "DEGREE_CAP", cap)
    with pytest.raises(DegreeCapExceeded) as exc:
        saturate_ideal(capped)
    assert str(exc.value) == (f"S-pair degree {degree} exceeds the cap {cap}; "
                              "raise groebner.DEGREE_CAP if this ideal is really wanted")
    with pytest.raises(DegreeCapExceeded):
        colon_saturate(CAPPED)


def test_saturation_just_under_the_cap_matches_the_colon_oracle(monkeypatch):
    capped = _basis(CAPPED)
    monkeypatch.setattr(eulersym.groebner, "DEGREE_CAP", 6)
    sat = saturate_ideal(capped)
    assert [str(g) for g in sat.polys] == ["x2^3 + x3^3", "x1*x3^2", "x1*x2"]
    assert sat == colon_saturate(CAPPED)


def test_saturation_of_multiple_generators():
    sat = saturate_ideal(_basis([X1**2, X1 * X2, X1 * X3]))
    assert [str(g) for g in sat.polys] == ["x1"]


def test_saturate_rejects_bad_input():
    with pytest.raises(ValueError):
        saturate_ideal(GroebnerBasis.of([], CTX))
    with pytest.raises(HomogeneityError):
        saturate_ideal(_basis([X1 + 1]))
    with pytest.raises(ValueError):
        saturate_ideal(GroebnerBasis.of([X1**2, X1 * X2], CTX, LEX))


def test_zero_dimensionality():
    assert is_zero_dimensional(_basis([X1, X2, X3]))
    assert not is_zero_dimensional(_basis([X1]))
    assert not is_zero_dimensional(GroebnerBasis.of([], CTX))
    powers = _basis([X1**2, X2**2, X3**2, X1 * X2, X1 * X3, X2 * X3])
    assert is_zero_dimensional(powers)


def test_graded_component():
    sat = saturate_ideal(_basis([X1**2, X1 * X2, X1 * X3]))
    piece = graded_component(sat, 2)
    assert piece == FormSpace.span([X1**2, X1 * X2, X1 * X3])
    assert graded_component(sat, 1) == FormSpace.span([X1])


@pytest.mark.parametrize("degree", range(4))
def test_graded_component_of_the_unit_and_zero_ideals(degree):
    # no shortcut for the unit ideal: 1 times the degree-d monomials spans them all
    unit = GroebnerBasis.of([Polynomial.constant(CTX, 5)], CTX)
    assert graded_component(unit, degree) == FormSpace.full(CTX, degree)
    assert graded_component(GroebnerBasis.of([], CTX), degree) == FormSpace.zero(CTX, degree)


def test_saturation_against_independent_fixpoint_oracle():
    # same values from sympy, saturating by iterated colon to a fixpoint
    sympy = pytest.importorskip("sympy")
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    ring = sympy.QQ.old_poly_ring(x1, x2, x3)
    mm = ring.ideal(x1, x2, x3)

    def sat(ideal):
        while True:
            nxt = ideal.quotient(mm)
            if nxt == ideal:
                return ideal
            ideal = nxt

    assert sat(ring.ideal(x1**2, x1 * x2, x1 * x3)) == ring.ideal(x1)
    assert sat(ring.ideal(x1 * x2)) == ring.ideal(x1 * x2)
    assert sat(ring.ideal(x2 * x3, x1 * x3, x1 * x2)) == \
        ring.ideal(x2 * x3, x1 * x3, x1 * x2)


def _sparse_ideal(seed):
    """A few sparse generators of degree <= 3 in 2 to 4 variables."""
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(rng.randint(2, 4))))
    monos = [m for d in range(4) for m in monomials_of_degree(ctx, d)]

    def poly():
        while True:
            p = Polynomial(ctx, {rng.choice(monos): sampling.rational(rng)
                                 for _ in range(rng.randint(1, 4))})
            if p:
                return p

    return ctx, [poly() for _ in range(rng.randint(1, 3))], [poly() for _ in range(3)]


def _basis_or_error(algorithm, *args):
    try:
        return algorithm(*args)
    except DegreeCapExceeded as exc:
        return f"DegreeCapExceeded: {exc}"


def _cap(seed):
    return 4 if seed % 4 == 3 else 8


ORDERS = {"grevlex": GREVLEX, "lex": LEX, "block1": block_order(1), "block2": block_order(2)}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("seed", range(60))
def test_buchberger_matches_the_pairset_oracle(monkeypatch, seed, order):
    # the heap, the lead cache and the dict-level normal form must follow
    # the former pair trajectory exactly: same bases, same reductions, and
    # the same DegreeCapExceeded message where the cap stops both (a cap of
    # 8 keeps the former code under a second on its slowest case here)
    ctx, gens, probes = _sparse_ideal(seed)
    order = ORDERS[order]
    cap = _cap(seed)
    monkeypatch.setattr(eulersym.groebner, "DEGREE_CAP", cap)
    got = _basis_or_error(buchberger, gens, order)
    want = _basis_or_error(pairset_buchberger, gens, order, cap)
    assert got == want
    if isinstance(got, list):
        assert [str(g) for g in got] == [str(g) for g in want]
    for p in probes:
        for modulo in (gens, got if isinstance(got, list) else []):
            assert reduce_poly(p, modulo, order) == pairset_reduce_poly(p, modulo, order)


def test_the_oracle_cases_include_capped_ones(monkeypatch):
    capped = []
    for seed in range(60):
        monkeypatch.setattr(eulersym.groebner, "DEGREE_CAP", _cap(seed))
        if isinstance(_basis_or_error(buchberger, _sparse_ideal(seed)[1], GREVLEX), str):
            capped.append(seed)
    assert len(capped) >= 3


def _sympy_basis(sympy, gens, ctx, order):
    xs = sympy.symbols(ctx.names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(
        x**e for x, e in zip(xs, m)) for m, c in g.terms.items()) for g in gens]
    out = []
    for g in sympy.groebner(exprs, *xs, order=order).exprs:
        terms = sympy.Poly(g, *xs).terms()
        out.append(Polynomial(ctx, {m: Fraction(int(c.p), int(c.q)) for m, c in terms}))
    return out


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("seed", range(60))
def test_buchberger_matches_sympy(seed, order):
    sympy = pytest.importorskip("sympy")
    ctx, gens, _ = _sparse_ideal(seed)
    got = buchberger(gens, ORDERS[order])
    want = _sympy_basis(sympy, gens, ctx, order)
    assert sorted(got, key=str) == sorted(want, key=str)


def test_orders_sharing_a_name_keep_their_own_leading_monomials():
    # the cache is keyed by the order object, so a second order with the
    # same name cannot read the first one's answer
    by_degree = MonomialOrder("same", grevlex_key)
    by_letter = MonomialOrder("same", lex_key)
    p = X2**2 + X1 * X3
    assert leading_monomial(p, by_degree) == (0, 2, 0)
    assert leading_monomial(p, by_letter) == (1, 0, 1)
    assert leading_monomial(p, by_degree) == (0, 2, 0)
    g = X2**2 - X1 * X3
    assert reduce_poly(p, [g], by_degree) == 2 * X1 * X3
    assert reduce_poly(p, [g], by_letter) == 2 * X2**2


def test_a_basis_is_frozen_hashable_and_compares_its_order_object():
    gb = GroebnerBasis.of([X1 * X2 - X3**2, X1**2], CTX)
    assert isinstance(gb.polys, tuple)  # buchberger returns a list
    same = GroebnerBasis(context=CTX, order=GREVLEX, polys=list(gb.polys))
    assert same == gb and hash(same) == hash(gb)
    namesake = MonomialOrder(GREVLEX.name, GREVLEX.key)
    assert GroebnerBasis(CTX, namesake, gb.polys) != gb
    assert [f.name for f in fields(gb)] == ["context", "order", "polys"]
    for f in fields(gb):
        with pytest.raises(FrozenInstanceError):
            setattr(gb, f.name, getattr(gb, f.name))
