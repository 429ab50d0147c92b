"""Symbol system axioms, prolongation, order and the saturation predicate."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersym import (
    FormSpace,
    InvalidSymbolSystem,
    Polynomial,
    SaturationPreconditionError,
    assemble,
    build_model,
    compose_linear,
    contract,
    context,
    from_polynomial,
    full_system,
    implicitize,
    is_saturated,
    monomials_of_degree,
    order,
    prolong,
    system_from_file,
    validate,
)
import eulersym.systems
from eulersym.cli import bundled_text
from eulersym.spaces import kernel_of_map
from eulersym.systems import structural_diagnostics
from helpers import (contraction_diagnostics, contraction_from_polynomial, contraction_nilpotents,
                     contraction_prolong, dense_frame, dense_kernel_of_map, fraction_nilpotents,
                     integer_frames, loop_coordinates_of, random_poly, segre_dense,
                     segre_monomial)

CTX = context("x1", "x2", "x3")
X1 = Polynomial.variable(CTX, 0)
X2 = Polynomial.variable(CTX, 1)
X3 = Polynomial.variable(CTX, 2)


def _bundled(name):
    return system_from_file(bundled_text(name))


def test_assemble_fixes_the_forced_components():
    s = assemble(CTX, 3, {2: [X1**2, X1 * X2, X1 * X3], 3: [X1**3]})
    assert s.dims == (1, 3, 3, 1)
    assert s.component(0).contains(Polynomial.constant(CTX, 7))
    assert s.component(1).is_full()
    assert s.component(5).is_zero()


def test_closure_violation_is_reported():
    with pytest.raises(InvalidSymbolSystem) as err:
        assemble(CTX, 3, {2: [X2**2], 3: [X1**3]})
    assert any("contracting x1^3 by e1 gives x1^2" in d
               for d in err.value.diagnostics)


def test_top_component_must_be_nonzero():
    with pytest.raises(InvalidSymbolSystem) as err:
        assemble(CTX, 3, {2: [X1**2, X1 * X2, X1 * X3]})
    assert any("F^3" in d for d in err.value.diagnostics)


def test_rank_two_candidates_are_always_closed():
    # any space of quadrics contracts into F^1 = W*, so rank 2 never fails
    rng = random.Random(5)
    for _ in range(10):
        q = random_poly(rng, CTX, 2)
        s = assemble(CTX, 2, {2: [q]})
        assert s.rank == 2


def test_prolongation_values():
    epr = _bundled("epr.sys")
    p2 = prolong(epr.component(2))
    assert p2 == FormSpace.span([X1**3, X1**2 * X2, X1**2 * X3])
    assert prolong(epr.component(3)) == FormSpace.span([X1**4])
    quadric = _bundled("quadric.sys")
    assert prolong(quadric.component(2)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_prolongation_against_sympy_oracle(n):
    # prolong(x1*W*) from sympy alone: the cubics C whose every partial
    # derivative has no x1-free term, solved as a linear system in C's
    # coefficients; both it and prolong must be x1^2*W*, of dim n
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{n + 1}")
    cubics = sorted(sympy.itermonomials(xs, 3, 3), key=sympy.default_sort_key)
    coeffs = sympy.symbols(f"c0:{len(cubics)}")
    general = sum(c * m for c, m in zip(coeffs, cubics))
    conditions = []
    for x in xs:
        free = sympy.diff(general, x).subs(xs[0], 0)
        conditions.extend(sympy.Poly(free, *xs[1:]).coeffs())
    matrix, _ = sympy.linear_eq_to_matrix(conditions, coeffs)
    solutions = [sum(v * m for v, m in zip(vec, cubics)) for vec in matrix.nullspace()]
    target = [xs[0] ** 2 * x for x in xs]
    joint = sympy.Matrix([[sympy.Poly(p, *xs).coeff_monomial(m) for m in cubics]
                          for p in solutions + target])

    ctx = context(*(str(x) for x in xs))
    ws = [Polynomial.variable(ctx, i) for i in range(n)]
    p2 = prolong(FormSpace.span([ws[0] * w for w in ws]))
    assert len(solutions) == p2.dim == n
    assert joint.rank() == n
    assert p2 == FormSpace.span([ws[0] ** 2 * w for w in ws])


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("frame", ["monomial", "dense"])
def test_segre_prolongation_kernels_match_the_dense_kernel(n, frame, monkeypatch):
    s = (segre_monomial if frame == "monomial" else segre_dense)(n, 20 + n)
    calls = []

    def spy(ctx, degree, images):
        kernel = kernel_of_map(ctx, degree, images)
        calls.append((ctx, degree, images, kernel))
        return kernel

    monkeypatch.setattr(eulersym.systems, "kernel_of_map", spy)
    for k in range(1, s.rank + 1):
        prolong(s.component(k))
    assert len(calls) == s.rank
    for ctx, degree, images, kernel in calls:
        labels = sorted({label for image in images.values() for label in image})
        dense = {m: [[image.get(label, 0) for label in labels]] for m, image in images.items()}
        oracle = dense_kernel_of_map(ctx, degree, dense)
        assert kernel == oracle
        assert kernel.basis == oracle.basis and list(kernel.rows) == list(oracle.rows)


PROLONG_CASES = {
    **{name: lambda name=name: _bundled(name)
       for name in ("epr.sys", "quadric.sys", "rnc.sys", "triple.sys", "veronese.sys")},
    "segre-P1^3-dense": lambda: segre_dense(3, 11),
    "segre-P1^4-dense": lambda: segre_dense(4, 12),
    "full(2,3)": lambda: full_system(2, 3),
    # pivot entries 2 and 4 in F^2, 8 or 2 in F^3
    **{f"{name}-dense": lambda name=name: dense_frame(_bundled(name), name)
       for name in ("epr.sys", "triple.sys")},
}


@pytest.mark.parametrize("case", sorted(PROLONG_CASES))
def test_prolongation_matches_the_contraction_oracle(case):
    s = PROLONG_CASES[case]()
    for k in range(1, s.rank + 1):
        assert prolong(s.component(k)) == contraction_prolong(s.component(k))


def _integer_span(seed):
    """A seeded span of integer forms with entries in [-4, 4]; no system component."""
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(rng.randint(2, 3))))
    degree = rng.randint(1, 3)
    monos = monomials_of_degree(ctx, degree)
    forms = [Polynomial(ctx, {m: rng.randint(-4, 4) for m in monos})
             for _ in range(rng.randint(1, len(monos) - 1))]
    return FormSpace.span(forms, ctx, degree)


SPAN_SEEDS = range(24)


@pytest.mark.parametrize("seed", SPAN_SEEDS)
def test_prolongation_of_an_integer_span_matches_the_contraction_oracle(seed):
    space = _integer_span(seed)
    assert prolong(space) == contraction_prolong(space)


def _pivot_lcm(space):
    return lcm(*(row[p] for p, row in space.rows.items()))


def test_some_prolong_cases_have_pivot_entries_above_one():
    # prolong scales by the lcm of the pivot entries; a case with lcm 1 cannot see it
    systems = [PROLONG_CASES[case]() for case in sorted(PROLONG_CASES)]
    assert max(_pivot_lcm(s.component(k)) for s in systems for k in range(1, s.rank + 1)) > 1
    assert max(_pivot_lcm(_integer_span(seed)) for seed in SPAN_SEEDS) > 1


def test_prolongation_is_the_largest_closed_extension():
    # every element of prolong(F^k) contracts into F^k along each basis vector
    for name in ("epr.sys", "triple.sys"):
        s = _bundled(name)
        for k in range(1, s.rank + 1):
            p = prolong(s.component(k))
            for b in p.basis:
                for i in range(s.context.n):
                    e = [0] * s.context.n
                    e[i] = 1
                    assert s.component(k).contains(contract(b, e)) \
                        or contract(b, e).is_zero()


def test_from_polynomial_builds_the_contraction_levels():
    s = from_polynomial(X1 * X2 * X3)
    assert s.dims == (1, 3, 3, 1)
    assert s.component(2) == FormSpace.span([X1 * X2, X1 * X3, X2 * X3])
    assert s == _bundled("triple.sys")


@pytest.mark.parametrize("seed", range(12))
def test_from_polynomial_matches_the_contraction_oracle(seed):
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(rng.randint(1, 4))))
    p = random_poly(rng, ctx, rng.randint(2, 4))
    assert from_polynomial(p) == contraction_from_polynomial(p)


DIAGNOSTIC_CASES = {**PROLONG_CASES, "full(3,3)": lambda: full_system(3, 3)}


@pytest.mark.parametrize("case", sorted(DIAGNOSTIC_CASES))
def test_diagnostics_match_the_contraction_oracle(case):
    s = DIAGNOSTIC_CASES[case]()
    comps = list(s.components)
    assert structural_diagnostics(s.context, comps) == \
        contraction_diagnostics(s.context, comps) == []
    # drop each generator of F^(k-1) in turn: F^k may no longer contract into it
    for k in range(2, s.rank + 1):
        basis = s.component(k - 1).basis
        for j in range(len(basis)):
            cut = comps[:k - 1] + [FormSpace.span(basis[:j] + basis[j + 1:], s.context,
                                                  k - 1)] + comps[k:]
            assert structural_diagnostics(s.context, cut) == \
                contraction_diagnostics(s.context, cut)


def test_validation_proves_closure_without_fraction_reduction(monkeypatch):
    # membership eliminates the partials in integers against the echelon rows
    calls, validated = [], []
    reduce, certify = FormSpace.reduce, eulersym.systems.validate
    monkeypatch.setattr(FormSpace, "reduce", lambda self, p: calls.append(p) or reduce(self, p))
    monkeypatch.setattr(eulersym.systems, "validate",
                        lambda ctx, comps: validated.append(ctx) or certify(ctx, comps))
    assert segre_dense(4, 3).dims == (1, 4, 6, 4, 1)
    assert validated and calls == []


@st.composite
def framed_forms(draw):
    """A form with entries in [-3, 3] in a random integer frame, n = 2, 3."""
    ctx = context(*(f"x{i + 1}" for i in range(draw(st.integers(2, 3)))))
    monos = monomials_of_degree(ctx, draw(st.integers(2, 3)))
    form = Polynomial(ctx, {m: draw(st.integers(-3, 3))
                            for m in draw(st.lists(st.sampled_from(monos), min_size=1))})
    return compose_linear(form, draw(integer_frames(ctx.n)))


@settings(max_examples=60, deadline=None)
@given(framed_forms(), st.data())
def test_validate_messages_match_the_contraction_oracle_in_dense_frames(p, data):
    if p.is_zero():
        return
    s = from_polynomial(p)
    k = data.draw(st.integers(2, s.rank))
    basis = s.component(k - 1).basis
    j = data.draw(st.integers(0, len(basis) - 1))
    cut = list(s.components[:k - 1]) + [FormSpace.span(basis[:j] + basis[j + 1:], s.context,
                                                       k - 1)] + list(s.components[k:])
    try:
        validate(s.context, cut)
        messages = []
    except InvalidSymbolSystem as exc:
        messages = list(exc.diagnostics)
    assert messages == contraction_diagnostics(s.context, cut)


def _assert_table_matches_the_loop_oracle(s):
    # entry c for row R of F^k, pivot entry L: c / L is a coordinate of d_i (R / L)
    for k, partials in enumerate(s.contraction_table, 1):
        lower = s.component(k - 1)
        for (pivot, row), coords in zip(s.component(k).rows.items(), partials):
            b = Polynomial(s.context, row) * Fraction(1, row[pivot])
            for i, cs in enumerate(coords):
                assert [Fraction(c, row[pivot]) for c in cs] == \
                    loop_coordinates_of(lower, b.derivative(i))
    model = build_model(s)
    assert fraction_nilpotents(model) == contraction_nilpotents(model)


@pytest.mark.parametrize("case", sorted(DIAGNOSTIC_CASES))
def test_contraction_table_matches_the_loop_oracle(case):
    _assert_table_matches_the_loop_oracle(DIAGNOSTIC_CASES[case]())


@settings(max_examples=60, deadline=None)
@given(framed_forms())
def test_contraction_table_matches_the_loop_oracle_in_dense_frames(p):
    if not p.is_zero():
        _assert_table_matches_the_loop_oracle(from_polynomial(p))


def _structure(s):
    # every answer here is GL(W)-invariant
    try:
        saturated = is_saturated(s).saturated
    except SaturationPreconditionError:
        saturated = None
    return (s.dims, order(s), saturated,
            tuple(prolong(s.component(k)).dim for k in range(1, s.rank + 1)),
            implicitize(build_model(s), 2).dim)


FRAME_SOURCES = {
    **{name: st.just(name).map(_bundled)
       for name in ("epr.sys", "quadric.sys", "rnc.sys", "triple.sys", "veronese.sys")},
    **{f"full({n},{r})": st.just((n, r)).map(lambda nr: full_system(*nr))
       for n in (2, 3) for r in (2, 3)},
    "single form": framed_forms().filter(lambda p: not p.is_zero()).map(from_polynomial),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FRAME_SOURCES)), st.data())
def test_structure_is_frame_invariant(name, data):
    s = data.draw(FRAME_SOURCES[name])
    frame = data.draw(integer_frames(s.context.n))
    moved = assemble(s.context, s.rank, {
        k: [compose_linear(b, frame) for b in s.component(k).basis] for k in range(2, s.rank + 1)})
    assert _structure(moved) == _structure(s)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3))
def test_full_systems_are_valid_with_full_order(n, rank):
    s = full_system(n, rank)
    assert s.rank == rank
    assert order(s) == rank
    for k in range(rank + 1):
        assert s.component(k).is_full()


def test_order_values():
    assert order(_bundled("epr.sys")) == 1
    assert order(_bundled("triple.sys")) == 1
    assert order(_bundled("quadric.sys")) == 1
    assert order(_bundled("veronese.sys")) == 2
    assert order(_bundled("rnc.sys")) == 3


def test_saturation_predicate_needs_order_one():
    with pytest.raises(SaturationPreconditionError):
        is_saturated(full_system(2, 2))


def test_saturation_predicate_needs_a_nonzero_f2():
    line = full_system(1, 1)  # order 1, F^2 = 0: the base ideal would be zero
    assert order(line) == 1
    with pytest.raises(SaturationPreconditionError, match="nonzero F"):
        is_saturated(line)


@pytest.mark.parametrize("name", ["epr.sys", "rnc.sys", "triple.sys", "veronese.sys"])
def test_base_locus_flags_agree_with_the_order(monkeypatch, name):
    calls = []
    zero_dimensional = eulersym.systems.is_zero_dimensional
    monkeypatch.setattr(eulersym.systems, "is_zero_dimensional",
                        lambda ideal: calls.append(min(g.degree() for g in ideal.polys))
                        or zero_dimensional(ideal))
    system = _bundled(name)
    m = order(system)
    # F^1 comes from the axioms; the scan stops at the first nonempty locus
    assert calls == list(range(2, min(m + 1, system.rank) + 1))
    flags = [system.base_locus_empty(k) for k in range(1, system.rank + 1)]
    assert flags[:m] == [True] * m
    assert m == system.rank or not flags[m]
    assert calls == list(range(2, system.rank + 1))  # each flag computed once


def test_saturation_negative_case_with_diagnostics():
    res = is_saturated(_bundled("epr.sys"))
    assert not res.saturated
    assert res.degree2_matches
    assert not res.prolongation_exact
    assert [str(g) for g in res.base_ideal.polys] == ["x1"]
    assert any("prolong" in d for d in res.diagnostics)
    assert not bool(res)


def test_saturation_positive_cases():
    for name in ("quadric.sys", "triple.sys"):
        res = is_saturated(_bundled(name))
        assert res.saturated and res.degree2_matches and res.prolongation_exact
        assert res.diagnostics == ()


def test_a_saturation_result_cannot_change_the_next_answer():
    # the base ideal may be the system's own cached F^2 ideal, so it must not be writable
    s = _bundled("triple.sys")
    res = is_saturated(s)
    with pytest.raises(FrozenInstanceError):
        res.base_ideal.polys = ()
    assert is_saturated(s) == res and res.saturated
