"""Acceptance battery: ten exact, desk-scale checks of the public claims.

Each test prints one summary line (straight to the real stdout, so it
shows up in a plain `pytest -v` run) and then asserts every subcheck,
so a FAIL line always comes with a failing test of the same number.
"""

import random
import sys
from fractions import Fraction
from math import comb

from eulersym import (
    FormSpace,
    GroebnerBasis,
    Parametrization,
    Polynomial,
    ProjectivePoint,
    build_model,
    cartan_check,
    context,
    contract,
    euler_act,
    extract_fundamental_forms,
    full_system,
    graded_component,
    group_act,
    implicitize,
    is_saturated,
    orbit_curve_degree,
    order,
    phi_eval,
    saturate_ideal,
    system_from_file,
)
from eulersym import sampling
from eulersym.cli import bundled_text
from eulersym.model import random_ambient_point
from eulersym.specfiles import parse_param_file
from helpers import constrained_direction, random_image_point, random_poly, recover_symbols

BUNDLED_SYS = ("epr.sys", "quadric.sys", "rnc.sys", "triple.sys", "veronese.sys")


def _bundled(name):
    return system_from_file(bundled_text(name))


def _param(name):
    return parse_param_file(bundled_text(name))


def _criterion(num, label, checks):
    bad = [name for name, ok in checks if not ok]
    status = "PASS" if not bad else "FAIL (" + ", ".join(bad) + ")"
    print(f"acceptance {num:2d} {label}: {status}", file=sys.__stdout__)
    assert not bad, f"criterion {num} failing subchecks: {bad}"


def test_criterion_01_scroll_regression():
    ctx = context("x1", "x2", "x3")
    x1 = Polynomial.variable(ctx, 0)
    x2 = Polynomial.variable(ctx, 1)
    x3 = Polynomial.variable(ctx, 2)
    s = _bundled("epr.sys")
    sat = saturate_ideal(GroebnerBasis.of(list(s.component(2).basis), s.context))
    from eulersym.systems import prolong
    p2 = prolong(s.component(2))
    res = is_saturated(s)
    _criterion(1, "scroll regression", [
        ("dims", s.dims == (1, 3, 3, 1)),
        ("order", order(s) == 1),
        ("saturation-basis", [str(g) for g in sat.polys] == ["x1"]),
        ("degree-2-slice", graded_component(sat, 2) == s.component(2)),
        # F^2 = x1*W*; write a cubic C = a + x1*b + x1^2*l + c*x1^3 with a, b, l
        # free of x1. d1 C = b (mod x1) forces b = 0, and dj C = dj a (mod x1)
        # for j >= 2 forces a = 0, so prolong(F^2) = x1^2*W*, of dim n = 3.
        ("prolong-dim-3", p2 == FormSpace.span([x1**3, x1**2 * x2, x1**2 * x3])),
        ("prolong-contains", all(p2.contains(q) for q in
                                 (x1**3, x1**2 * x2, x1**2 * x3))),
        ("saturated-false", res.saturated is False),
        ("prolongation-diagnostic", any("prolong" in d for d in res.diagnostics)),
    ])


def test_criterion_02_model_identity_battery():
    failures = 0
    for system in (_bundled("epr.sys"), _bundled("triple.sys"), full_system(2, 3)):
        model = build_model(system)
        n = system.context.n
        rng = random.Random(0)
        for _ in range(100):
            v = sampling.vector(rng, n)
            u = sampling.vector(rng, n)
            z = random_ambient_point(model, rng)
            lam = sampling.nonzero_rational(rng)
            t = sampling.nonzero_rational(rng)
            w = sampling.vector(rng, n)
            if group_act(model, v, group_act(model, u, z)) != \
                    group_act(model, [a + b for a, b in zip(u, v)], z):
                failures += 1
            if group_act(model, v, phi_eval(model, t, w)) != \
                    phi_eval(model, t, [wi + t * vi for wi, vi in zip(w, v)]):
                failures += 1
            if euler_act(model, lam, phi_eval(model, t, w)) != \
                    phi_eval(model, t, [lam * wi for wi in w]):
                failures += 1
    _criterion(2, "model identity battery", [
        ("group-law/equivariance/euler 3x100 instances", failures == 0),
    ])


def test_criterion_03_binomial_contraction():
    ctx = context("x1", "x2", "x3")
    rng = random.Random(1)
    bad = 0
    for _ in range(100):
        degree = rng.randint(2, 5)
        p = random_poly(rng, ctx, degree)
        u = sampling.vector(rng, 3)
        v = sampling.vector(rng, 3)
        j = rng.randint(1, degree)
        lhs = contract(p, [a + b for a, b in zip(u, v)], times=j)
        rhs = Polynomial.zero(ctx)
        for l in range(j + 1):
            rhs = rhs + comb(j, l) * contract(contract(p, v, times=j - l),
                                              u, times=l)
        if lhs != rhs:
            bad += 1
    _criterion(3, "binomial contraction identity", [
        ("100 random (P, u, v, j)", bad == 0),
    ])


def test_criterion_04_round_trips():
    checks = []
    for name in BUNDLED_SYS:
        s = _bundled(name)
        model = build_model(s)
        checks.append((f"recover:{name}", recover_symbols(model) == s))
        param = Parametrization(s.context, tuple(model.chart_functions()))
        ffs = extract_fundamental_forms(param)
        same = ffs.dims == s.dims and all(
            ffs.component(k) == s.component(k) for k in range(s.rank + 1))
        checks.append((f"chart-forms:{name}", same))
    _criterion(4, "model round trips", checks)


def test_criterion_05_orbit_curve_degrees():
    epr = _bundled("epr.sys")
    model = build_model(epr)
    rng = random.Random(7)
    base_dirs = [constrained_direction(rng, 3, (0,)) for _ in range(20)]
    generic = [sampling.generic_vector(rng, 3) for _ in range(20)]
    checks = [
        ("epr base directions give degree 1",
         all(orbit_curve_degree(model, w) == 1 for w in base_dirs)),
        ("epr generic directions give degree 3",
         all(orbit_curve_degree(model, w) == 3 for w in generic)),
    ]
    for name in BUNDLED_SYS:
        s = _bundled(name)
        m = build_model(s)
        rng = random.Random(0)
        degs = [orbit_curve_degree(m, sampling.sparse_direction(rng, s.context.n))
                for _ in range(50)]
        checks.append((f"min=order:{name}", min(degs) == order(s)))
        checks.append((f"max=rank:{name}", max(degs) == s.rank))
    _criterion(5, "orbit curve degrees", checks)


def test_criterion_06_quadric_implicitization():
    s = _bundled("quadric.sys")
    model = build_model(s)
    space = implicitize(model, 2)
    ctx = model.ambient
    target = (Polynomial.variable(ctx, "z0") * Polynomial.variable(ctx, "u2_1")
              - Polynomial.variable(ctx, "z1") * Polynomial.variable(ctx, "z2"))
    rng = random.Random(40)
    fresh = [random_image_point(model, rng) for _ in range(40)]
    checks = [
        ("dimension 1", space.dim == 1),
        ("generator proportional to z0*u - z1*z2",
         space == FormSpace.span([target])),
        ("vanishes at 40 fresh points",
         all(target(p.coords) == 0 for p in fresh)),
    ]
    for name in BUNDLED_SYS:
        m = build_model(_bundled(name))
        checks.append((f"nondegenerate:{name}", implicitize(m, 1).is_zero()))
    _criterion(6, "quadric implicitization", checks)


def test_criterion_07_rational_normal_curve():
    model = build_model(full_system(1, 3))
    rng = random.Random(3)
    lams = [sampling.rational(rng) for _ in range(20)]
    checks = [
        ("moment curve values",
         all(phi_eval(model, 1, (lam,)) ==
             ProjectivePoint([1, lam, lam**2, lam**3]) for lam in lams)),
        ("degree-2 relations dim 3", implicitize(model, 2).dim == 3),
    ]
    _criterion(7, "rational normal curve", checks)


def test_criterion_08_order_diagnostics():
    _criterion(8, "order vs rank", [
        ("full_system(2,2) order 2", order(full_system(2, 2)) == 2),
        ("full_system(1,3) order 3", order(full_system(1, 3)) == 3),
        ("epr order 1 < rank 3", order(_bundled("epr.sys")) == 1),
        ("triple order 1 < rank 3", order(_bundled("triple.sys")) == 1),
    ])


def test_criterion_09_saturated_positive():
    from eulersym.systems import prolong
    s = _bundled("quadric.sys")
    res = is_saturated(s)
    _criterion(9, "saturated quadric", [
        ("saturated TRUE", res.saturated),
        ("degree-2 slice equals F2", res.degree2_matches),
        ("prolong(F2) = 0", prolong(s.component(2)).is_zero()),
        ("no diagnostics", res.diagnostics == ()),
    ])


def test_criterion_10_cartan_general_point():
    checks = []
    for name in ("quadric.par", "cubiccurve.par"):
        report = cartan_check(_param(name), trials=5, seed=0)
        checks.append((f"5 random points:{name}", report.passed))
    flex = extract_fundamental_forms(_param("cubiccurve.par"),
                                     base=(Fraction(0),))
    checks.append(("flex of the cubic fails closure", not flex.is_symbol_system))
    checks.append(("flex gap dims", flex.dims == (1, 1, 0, 1)))
    _criterion(10, "general-point fundamental forms", checks)
