"""Jet filtration, fundamental forms, and the general-point check."""

import random
from fractions import Fraction

import pytest

from eulersym import (
    ImmersionError,
    Parametrization,
    Polynomial,
    build_model,
    cartan_check,
    compose_linear,
    context,
    extract_fundamental_forms,
    jet_filtration,
    system_from_file,
    translate,
)
from eulersym import sampling
from eulersym.cli import bundled_text
from eulersym.spaces import nullspace
from eulersym.specfiles import parse_param_file
from helpers import dense_frame, dense_jet_filtration, random_poly, span_fundamental_forms

BUNDLED_SYS = ("epr.sys", "quadric.sys", "rnc.sys", "triple.sys", "veronese.sys")


def _bundled(name):
    return system_from_file(bundled_text(name))


def _param(name):
    return parse_param_file(bundled_text(name))


MOVES = {"quadric.par": ((2, 1), (1, 3)), "epr.sys": ((1, 2, 0), (0, 1, -1), (2, 0, 1))}


def _moved_chart(name):
    """A bundled chart composed with z -> Az, so its Jacobian is not the identity."""
    if name.endswith(".sys"):
        s = _bundled(name)
        param = Parametrization(s.context, tuple(build_model(s).chart_functions()))
    else:
        param = _param(name)
    return Parametrization(param.context,
                           tuple(compose_linear(c, MOVES[name]) for c in param.coords))


def _cubic():
    ctx = context("z")
    z = Polynomial.variable(ctx, 0)
    return Parametrization(ctx, (z, z**3))


def test_filtration_orders_at_a_flex():
    filt = jet_filtration(_cubic())
    assert filt.base_point == (Fraction(0),)
    assert filt.dims == (1, 1, 0, 1)
    assert filt.max_order == 3


def test_filtration_orders_at_a_general_point():
    filt = jet_filtration(_cubic(), base=(2,))
    assert filt.dims == (1, 1, 1)


def test_fundamental_forms_gap_at_the_flex():
    ffs = extract_fundamental_forms(_cubic())
    assert ffs.dims == (1, 1, 0, 1)
    assert not ffs.is_symbol_system
    assert any("not closed under contraction" in d
               for d in ffs.closure_diagnostics)


def test_fundamental_forms_at_a_general_point():
    ffs = extract_fundamental_forms(_cubic(), base=(2,))
    assert ffs.dims == (1, 1, 1)
    assert ffs.is_symbol_system


def test_recentering_is_exact():
    ffs = extract_fundamental_forms(_cubic(), base=(2,))
    comp = ffs.component(2)
    assert comp.dim == 1
    assert comp.basis[0].homogeneous_degree() == 2


def test_immersion_failure_names_the_flat_directions():
    ctx = context("z1", "z2")
    z1 = Polynomial.variable(ctx, 0)
    z2 = Polynomial.variable(ctx, 1)
    param = Parametrization(ctx, (z1, z1 * z2))
    with pytest.raises(ImmersionError, match=r"flat directions: \(0, 1\)$"):
        jet_filtration(param)  # d(z1*z2) vanishes at 0 along z2


def test_immersion_failure_names_every_flat_direction():
    ctx = context("z1", "z2", "z3")
    z1, z2, z3 = (Polynomial.variable(ctx, i) for i in range(3))
    param = Parametrization(ctx, (2 * z1 + 3 * z2 + 5 * z3, 4 * z1 + 6 * z2 + 10 * z3,
                                  z1 * z2 + z3**2, z1**3))
    with pytest.raises(ImmersionError, match=r"flat directions: \(-3/2, 1, 0\); \(-5/2, 0, 1\)$"):
        jet_filtration(param)  # the linear parts have rank 1 at 0


def test_too_few_coordinates_cannot_immerse():
    ctx = context("z1", "z2")
    z1 = Polynomial.variable(ctx, 0)
    with pytest.raises(ImmersionError):
        jet_filtration(Parametrization(ctx, (z1,)))


def test_chart_extraction_reproduces_every_bundled_system():
    for name in BUNDLED_SYS:
        s = _bundled(name)
        model = build_model(s)
        param = Parametrization(s.context, tuple(model.chart_functions()))
        ffs = extract_fundamental_forms(param)
        assert ffs.dims == s.dims
        for k in range(s.rank + 1):
            assert ffs.component(k) == s.component(k)


def test_chart_extraction_away_from_the_origin():
    s = _bundled("epr.sys")
    model = build_model(s)
    param = Parametrization(s.context, tuple(model.chart_functions()))
    ffs = extract_fundamental_forms(param, base=(1, 2, 3))
    assert ffs.is_symbol_system
    assert ffs.dims == s.dims


def test_cartan_check_on_bundled_parametrizations():
    for name in ("quadric.par", "cubiccurve.par"):
        report = cartan_check(_param(name), trials=5, seed=0)
        assert report.passed
        assert len(report.entries) == 5


def test_cartan_check_is_deterministic():
    a = cartan_check(_param("quadric.par"), trials=3, seed=4)
    b = cartan_check(_param("quadric.par"), trials=3, seed=4)
    assert a == b


@pytest.mark.parametrize("name,base", [
    ("quadric.par", None), ("cubiccurve.par", None), ("cubiccurve.par", (2,)),
    ("cubiccurve.par", (Fraction(-3, 7),)), ("epr.sys", None), ("epr.sys", (1, 2, 3)),
])
def test_fundamental_forms_carry_their_filtration_dims(name, base):
    if name.endswith(".sys"):
        s = _bundled(name)
        param = Parametrization(s.context, tuple(build_model(s).chart_functions()))
    else:
        param = _param(name)
    assert (extract_fundamental_forms(param, base).filtration_dims
            == jet_filtration(param, base).dims)


@pytest.mark.parametrize("name,base", [
    ("quadric.par", None), ("quadric.par", (2, -1)), ("quadric.par", (Fraction(-1, 2), 3)),
    ("quadric.par", (10**30 + 1, Fraction(7, 10**30))), ("cubiccurve.par", None),
    ("cubiccurve.par", (2,)), ("cubiccurve.par", (Fraction(-3, 7),)),
    ("cubiccurve.par", (Fraction(10**30 + 1, 3),)),
    ("quadric.par under A", (0, 0)), ("quadric.par under A", (2, -1)),
    ("quadric.par under A", (Fraction(-1, 2), 3)), ("epr.sys under A", (0, 0, 0)),
    ("epr.sys under A", (1, 2, 3)), ("epr.sys under A", (Fraction(1, 3), -2, Fraction(5, 7))),
])
def test_jet_filtration_matches_the_dense_oracle(name, base):
    chart, moved, _ = name.partition(" under A")
    param = _moved_chart(chart) if moved else _param(name)
    filt = jet_filtration(param, base)
    at = filt.base_point
    assert list(filt.rows) == dense_jet_filtration(param, at)


def _seeded_parametrization(seed):
    """Random coordinates at a random base point; every third draw is made
    degenerate there."""
    rng = random.Random(seed)
    n = 1 + seed % 3
    ctx = context(*(f"z{i + 1}" for i in range(n)))
    coords = [random_poly(rng, ctx, rng.randint(1, 3), homogeneous=False)
              for _ in range(n + rng.randint(0, 2))]
    base = sampling.vector(rng, n) if seed % 2 else sampling.generic_vector(rng, n)
    if seed % 3 == 0:
        square = (Polynomial.variable(ctx, 0) - base[0]) ** 2
        coords[n - 1] = square + (2 * coords[0] if n > 1 else 1)
    return Parametrization(ctx, tuple(coords)), base


@pytest.mark.parametrize("seed", range(36))
def test_jet_filtration_matches_the_dense_oracle_at_seeded_points(seed):
    # a degenerate draw must name the kernel of the translated linear parts
    param, base = _seeded_parametrization(seed)
    ctx, coords, n = param.context, param.coords, param.context.n
    shifted = [translate(c, base) for c in coords[:n]]
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    kernel = nullspace([[c.coefficient(e) for e in units] for c in shifted], n)
    if kernel:
        directions = "; ".join("(" + ", ".join(str(c) for c in v) + ")" for v in kernel)
        with pytest.raises(ImmersionError) as exc:
            jet_filtration(param, base)
        assert str(exc.value).endswith(f"flat directions: {directions}")
    else:
        assert list(jet_filtration(param, base).rows) == dense_jet_filtration(param, base)


# the graded pieces read off the filtration's rows against the former
# extraction, which spans each degree afresh; the layout compares pivots,
# rows and entries in order, which is what a report prints

def _layout(ffs):
    return [[(p, list(row.items())) for p, row in c.rows.items()] for c in ffs.components]


def _assert_extractions_agree(param, base):
    got = extract_fundamental_forms(param, base)
    want = span_fundamental_forms(param, base)
    assert _layout(got) == _layout(want)
    assert got == want


@pytest.mark.parametrize("seed", [None, *range(6)])
@pytest.mark.parametrize("name", ["quadric.par", "cubiccurve.par"])
def test_extraction_matches_the_span_oracle_on_bundled_parametrizations(name, seed):
    param = _param(name)
    base = None if seed is None else sampling.generic_vector(random.Random(seed),
                                                             param.context.n)
    _assert_extractions_agree(param, base)


@pytest.mark.parametrize("frame", [None, 1, 2])
@pytest.mark.parametrize("name", BUNDLED_SYS)
def test_extraction_matches_the_span_oracle_on_model_charts(name, frame):
    s = _bundled(name) if frame is None else dense_frame(_bundled(name), frame)
    param = Parametrization(s.context, tuple(build_model(s).chart_functions()))
    _assert_extractions_agree(param, None)
    _assert_extractions_agree(param, sampling.vector(random.Random(frame or 0), s.context.n))


@pytest.mark.parametrize("seed", range(36))
def test_extraction_matches_the_span_oracle_at_seeded_points(seed):
    param, base = _seeded_parametrization(seed)
    try:
        extract_fundamental_forms(param, base)
    except ImmersionError:
        with pytest.raises(ImmersionError):
            span_fundamental_forms(param, base)
    else:
        _assert_extractions_agree(param, base)
