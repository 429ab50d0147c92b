"""The projective model: actions, orbit degrees, implicitization."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from eulersym import (
    ContextMismatchError,
    FormSpace,
    Polynomial,
    ProjectivePoint,
    build_model,
    context,
    euler_act,
    full_system,
    group_act,
    implicitize,
    orbit_curve_degree,
    phi_eval,
    pullback,
    system_from_file,
)
from eulersym import sampling
from eulersym.cli import bundled_text
from eulersym.model import random_ambient_point
from helpers import (chain_group_act, contraction_nilpotents, dense_frame, fraction_euler_act,
                     fraction_group_act, fraction_nilpotents, fraction_orbit_curve_degree,
                     fraction_phi_eval, power_pullback, random_image_point, random_poly,
                     recover_symbols, sampled_implicitize, segre_dense, substitute_frame)

BUNDLED = ("epr.sys", "quadric.sys", "rnc.sys", "triple.sys", "veronese.sys")


def _bundled(name):
    return system_from_file(bundled_text(name))


def test_projective_point_normalization():
    p = ProjectivePoint([0, 2, 4])
    assert p.coords == (0, 1, 2)
    assert p == ProjectivePoint([0, Fraction(1, 3), Fraction(2, 3)])
    assert p.vector == (0, 1, 2)
    assert ProjectivePoint([0, -2, 4]).vector == (0, 1, -2)
    assert ProjectivePoint([Fraction(-1, 2), Fraction(1, 3)]).vector == (3, -2)
    assert str(ProjectivePoint([0, -2, 4])) == "[0 : 1 : -2]"
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0])


def _two_step_normalization(coords):
    # the former ProjectivePoint: a Fraction per coordinate, then one per quotient
    vals = [Fraction(c) for c in coords]
    lead = next(c for c in vals if c)
    return tuple(c / lead for c in vals)


def test_integer_points_normalize_like_the_two_step_oracle():
    rng = random.Random(5)
    huge = 10**30
    cases = [[rng.randint(-99, 99) for _ in range(rng.randint(1, 35))] for _ in range(200)]
    cases += [[0] * rng.randint(1, 4) + [rng.choice([-1, 1]) * rng.randint(1, 99)]
              + [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] for _ in range(50)]
    cases += [[rng.randint(-huge, huge) for _ in range(rng.randint(1, 12))] for _ in range(50)]
    cases += [[-7, 14, 0, -21], [0, 0, -3, 6, 9], [huge, -huge, 3 * huge, 0]]
    cases = [c for c in cases if any(c)]
    mixed = [[Fraction(c, rng.randint(1, 9)) if rng.random() < 0.3 else c for c in case]
             for case in cases]
    fractions = [[Fraction(rng.randint(-huge, huge), rng.randint(huge // 10, huge))
                  for _ in range(rng.randint(1, 12))] for _ in range(50)]
    for coords in cases + mixed + fractions + [[True, 2, False], [0, True, 3]]:
        point = ProjectivePoint(coords)
        assert point.coords == _two_step_normalization(coords)
        assert all(type(c) is Fraction for c in point.coords)
        assert ProjectivePoint(iter(coords)) == point
        assert gcd(*point.vector) == 1 and next(c for c in point.vector if c) > 0
        assert ProjectivePoint(point.vector) == point == ProjectivePoint(point.coords)
        # the same point scaled by a rational, integral entries passed as ints
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        same = [x.numerator if x.denominator == 1 else x for x in (c * scale for c in coords)]
        assert hash(ProjectivePoint(same)) == hash(ProjectivePoint(iter(coords))) == hash(point)


def test_action_inputs_must_be_exact_and_fit():
    with pytest.raises(TypeError):
        ProjectivePoint([0.5, 1])
    model = build_model(_bundled("quadric.sys"))
    z = random_ambient_point(model, random.Random(3))
    with pytest.raises(TypeError):
        group_act(model, (0.5, 1), z)
    with pytest.raises(ValueError):
        group_act(model, (1, 1), ProjectivePoint(z.coords[:-1]))


def test_block_layout():
    model = build_model(_bundled("epr.sys"))
    assert model.ambient_dim == 8
    assert model.ambient.names == ("z0", "z1", "z2", "z3",
                                   "u2_1", "u2_2", "u2_3", "u3_1")
    assert model.block_bounds == ((0, 1), (1, 4), (4, 7), (7, 8))


def test_phi_eval_blocks_are_scaled_contractions():
    model = build_model(_bundled("epr.sys"))
    z = phi_eval(model, 2, (3, 5, 7))
    # z0 = t^3, first block t^2 * w, u2 block t * b2(w), u3 block b3(w)
    assert [z.coords[start:stop] for start, stop in model.block_bounds] == [
        (Fraction(1),),
        (Fraction(12, 8), Fraction(20, 8), Fraction(28, 8)),
        (Fraction(18, 8), Fraction(30, 8), Fraction(42, 8)),
        (Fraction(27, 8),)]


def test_phi_eval_rejects_the_indeterminacy_point():
    model = build_model(_bundled("epr.sys"))
    # at t = 0 only the top block b^3 = x1^3 survives, so w = (0, 1, 5) is one too
    for w in ((0, 0, 0), (0, 1, 5)):
        with pytest.raises(ValueError, match=r"^the defining map is undefined here "
                                             r"\(indeterminacy point\)$"):
            phi_eval(model, 0, w)


def test_group_law_and_equivariance():
    rng = random.Random(0)
    for name in ("epr.sys", "triple.sys"):
        model = build_model(_bundled(name))
        n = model.system.context.n
        for _ in range(15):
            v = sampling.vector(rng, n)
            u = sampling.vector(rng, n)
            z = random_ambient_point(model, rng)
            assert group_act(model, v, group_act(model, u, z)) == \
                group_act(model, [a + b for a, b in zip(u, v)], z)
            t = sampling.nonzero_rational(rng)
            w = sampling.vector(rng, n)
            assert group_act(model, v, phi_eval(model, t, w)) == \
                phi_eval(model, t, [wi + t * vi for wi, vi in zip(w, v)])


def _system(name, frame="shipped"):
    if name.startswith("segre"):  # x1*...*xn in its own seeded dense frame
        system = segre_dense(*map(int, name.split("_")[1:]))
    elif name.startswith("full"):
        system = full_system(*map(int, name.split("_")[1:]))
    else:
        system = _bundled(name)
    if frame == "monomial":
        return _monomial_frame(system, name)
    return dense_frame(system, name) if frame == "dense" else system


ACTION_CASES = ([(name, frame) for name in BUNDLED
                 for frame in ("shipped", "monomial", "dense")]
                + [(f"full_{n}_{r}", "shipped")
                   for n, r in ((1, 1), (2, 3), (3, 3), (2, 5), (4, 2))])


def _check_group_act(name, frame, oracle):
    model = build_model(_system(name, frame))
    rng = random.Random(name + frame)
    for _ in range(20):
        v = sampling.vector(rng, model.system.context.n)
        z = random_ambient_point(model, rng)
        assert group_act(model, v, z) == oracle(model, v, z)


@pytest.mark.parametrize("name,frame", ACTION_CASES)
def test_group_act_matches_the_chain_oracle(name, frame):
    _check_group_act(name, frame, chain_group_act)


@pytest.mark.parametrize("name,frame", ACTION_CASES)
def test_group_act_matches_the_fraction_oracle(name, frame):
    _check_group_act(name, frame, fraction_group_act)


def test_some_action_case_has_a_fractional_nilpotent():
    # the integer form must carry a common denominator q > 1 somewhere
    denominators = {name + frame: build_model(_system(name, frame)).integer_nilpotents[0]
                    for name, frame in ACTION_CASES}
    assert denominators["epr.sysdense"] == denominators["triple.sysdense"] == 2
    assert all(q == 1 for case, q in denominators.items() if not case.endswith("dense"))


@pytest.mark.parametrize("name,frame", [("full_1_1", "shipped"), ("rnc.sys", "shipped"),
                                        ("epr.sys", "dense"), ("triple.sys", "dense")])
def test_group_act_edge_cases(name, frame):
    model = build_model(_system(name, frame))
    n = model.system.context.n
    rng = random.Random(name)
    z = random_ambient_point(model, rng)
    assert group_act(model, (0,) * n, z) == z
    huge = 10**29 + 7  # 30-digit numerators and denominators
    v = [Fraction(rng.randint(-huge, huge), huge + i) for i in range(n)]
    w = ProjectivePoint([Fraction(rng.randint(-huge, huge), huge - 3 * i)
                         for i in range(model.ambient_dim)])
    for vv, zz in ((v, z), (sampling.vector(rng, n), w), (v, w)):
        got = group_act(model, vv, zz)
        assert got == fraction_group_act(model, vv, zz) == chain_group_act(model, vv, zz)


# the action cases, and Segre models whose forms have a common denominator Q > 1
POINT_CASES = ACTION_CASES + [(f"segre_{n}_{seed}", "shipped")
                              for n, seed in ((3, 1), (4, 0), (4, 3))]


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def _point_inputs(rng, n):
    """Chart values t, directions w and torus elements for the point oracles."""
    huge = 10**29 + 7  # 30-digit numerators and denominators
    ts = [0, 1, Fraction(-3, 7), -2, Fraction(rng.randint(-huge, huge), huge - 4),
          sampling.nonzero_rational(rng)]
    zeroed = list(sampling.generic_vector(rng, n))
    zeroed[rng.randrange(n)] = 0
    ws = [[0] * n, zeroed, sampling.vector(rng, n), sampling.sparse_direction(rng, n),
          [Fraction(rng.randint(-huge, huge), huge + 3 * i) for i in range(n)]]
    ws += [[int(i == j) for j in range(n)] for i in range(n)]
    lams = [-1, Fraction(-5, 3), huge, -Fraction(huge, 7), Fraction(1, huge),
            sampling.nonzero_rational(rng)]
    return ts, ws, lams


@pytest.mark.parametrize("name,frame", POINT_CASES)
def test_integer_points_match_the_fraction_oracles(name, frame):
    model = build_model(_system(name, frame))
    n = model.system.context.n
    rng = random.Random("points" + name + frame)
    ts, ws, lams = _point_inputs(rng, n)
    points = [random_ambient_point(model, rng), ProjectivePoint(
        [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
         for _ in range(model.ambient_dim)])]
    for w in ws:
        assert _outcome(orbit_curve_degree, model, w) == \
            _outcome(fraction_orbit_curve_degree, model, w)
        for t in ts:
            got = _outcome(phi_eval, model, t, w)
            assert got == _outcome(fraction_phi_eval, model, t, w)
            if isinstance(got, ProjectivePoint):
                points.append(got)
    for z in points:
        for lam in lams + [0]:
            assert _outcome(euler_act, model, lam, z) == \
                _outcome(fraction_euler_act, model, lam, z)


@pytest.mark.parametrize("name,frame", [("epr.sys", "dense"), ("triple.sys", "dense"),
                                        ("full_3_3", "shipped")])
def test_acting_never_builds_the_fraction_view(name, frame):
    model = build_model(_system(name, frame))
    n = model.system.context.n
    rng = random.Random("view" + name)
    v, w = sampling.vector(rng, n), sampling.vector(rng, n)
    t, lam = sampling.nonzero_rational(rng), sampling.nonzero_rational(rng)
    built = ProjectivePoint([rng.randint(1, 99) for _ in range(model.ambient_dim)])
    mapped = phi_eval(model, t, w)
    for z in (built, mapped):
        moved, scaled = group_act(model, v, z), euler_act(model, lam, z)
        pair = euler_act(model, lam, moved), group_act(model, [lam * vi for vi in v], scaled)
        assert pair[0] == pair[1]
        assert not any("coords" in vars(p) for p in (z, moved, scaled, *pair))
        assert moved.coords == fraction_group_act(model, v, z).coords
        assert scaled.coords == fraction_euler_act(model, lam, z).coords
    assert mapped.coords == fraction_phi_eval(model, t, w).coords


def test_point_cases_cover_fractional_forms_and_undefined_points():
    # Q > 1 somewhere, and t = 0 meets the indeterminacy locus somewhere
    assert build_model(_system("epr.sys", "dense")).integer_forms[0] == 8
    assert build_model(_system("segre_4_0")).integer_forms[0] == 924
    assert all(build_model(_system(name)).integer_forms[0] == 1 for name in BUNDLED)
    model = build_model(_bundled("epr.sys"))
    ts, ws, _ = _point_inputs(random.Random(0), 3)
    assert ("ValueError", "the defining map is undefined here (indeterminacy point)") in [
        _outcome(phi_eval, model, t, w) for t in ts for w in ws if any(w)]


NILPOTENT_CASES = ([(name, frame) for name in BUNDLED
                    for frame in ("shipped", "monomial", "dense")]
                   + [("full_2_3", "shipped"), ("full_3_3", "shipped")])


@pytest.mark.parametrize("name,frame", NILPOTENT_CASES)
def test_nilpotents_match_the_contraction_oracle(name, frame):
    # the row of b^k_j: coordinates of d_i b^k_j against those of k * iota_{e_i} b^k_j
    model = build_model(_system(name, frame))
    assert fraction_nilpotents(model) == contraction_nilpotents(model)


def test_acting_does_not_reprove_closure(monkeypatch):
    # validation certified every d_i b^k_j in F^(k-1); the model reads the
    # echelon coordinates off the pivots instead of reducing again
    systems = [_bundled("epr.sys"), full_system(2, 3)]
    calls = []
    for name in ("reduce", "contains"):  # `coordinates_of` goes through `contains`
        method = getattr(FormSpace, name)
        monkeypatch.setattr(FormSpace, name,
                            lambda self, p, method=method: calls.append(p) or method(self, p))
    for system in systems:
        model = build_model(system)
        n = system.context.n
        group_act(model, (1,) * n, phi_eval(model, 1, (2,) * n))
    assert calls == []


def _dense(model, mat):
    dim = model.ambient_dim
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for row, entries in enumerate(mat):
        for col, entry in entries:
            out[row][col] = entry
    return out


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("name", BUNDLED + ("full_2_4",))
def test_nilpotents_commute_and_raise_weight(name):
    model = build_model(_system(name))
    weight = [k for k, (start, stop) in enumerate(model.block_bounds)
              for _ in range(start, stop)]
    nilpotents = fraction_nilpotents(model)
    mats = [_dense(model, mat) for mat in nilpotents]
    assert len(mats) == model.system.context.n
    for a in mats:
        for b in mats:
            assert _matmul(a, b) == _matmul(b, a)
    for mat in nilpotents:
        assert len(mat) == model.ambient_dim
        for row, entries in enumerate(mat):
            assert all(weight[col] == weight[row] - 1 for col, _ in entries)
    v = sampling.generic_vector(random.Random(name), model.system.context.n)
    nv = [[sum((vi * m[r][c] for vi, m in zip(v, mats)), Fraction(0))
           for c in range(model.ambient_dim)] for r in range(model.ambient_dim)]
    power = nv
    for _ in range(model.rank - 1):
        power = _matmul(power, nv)
    assert any(any(row) for row in power)  # N_v^r != 0: r is the exact index
    assert not any(any(row) for row in _matmul(power, nv))


def test_translation_fixes_nothing_but_acts_trivially_for_zero():
    model = build_model(_bundled("quadric.sys"))
    rng = random.Random(1)
    z = random_ambient_point(model, rng)
    assert group_act(model, (0, 0), z) == z


def test_euler_action_weights():
    model = build_model(_bundled("quadric.sys"))
    rng = random.Random(2)
    for _ in range(15):
        lam = sampling.nonzero_rational(rng)
        w = sampling.vector(rng, 2)
        t = sampling.nonzero_rational(rng)
        assert euler_act(model, lam, phi_eval(model, t, w)) == \
            phi_eval(model, t, [lam * wi for wi in w])
    with pytest.raises(ValueError):
        euler_act(model, 0, phi_eval(model, 1, (1, 1)))


def test_euler_act_rejects_a_point_of_the_wrong_length():
    model = build_model(full_system(2, 2))
    assert model.ambient_dim == 6
    for coords in ([1, 2, 3], list(range(1, 8))):
        with pytest.raises(ValueError, match="ambient point needs 6 coordinates"):
            euler_act(model, 2, ProjectivePoint(coords))


@pytest.mark.parametrize("rank", [1, 2])
def test_phi_eval_and_orbit_degree_reject_a_direction_of_the_wrong_length(rank):
    # rank 1 evaluates no form of w, so only the length check can catch a long w
    model = build_model(full_system(2, rank))
    for w in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="chart point needs 2 coordinates"):
            phi_eval(model, 1, w)
        with pytest.raises(ValueError, match="orbit direction needs 2 coordinates"):
            orbit_curve_degree(model, w)


def test_orbit_curve_degrees_on_the_scroll():
    model = build_model(_bundled("epr.sys"))
    assert orbit_curve_degree(model, (1, 0, 0)) == 3
    assert orbit_curve_degree(model, (0, 1, 5)) == 1
    assert orbit_curve_degree(model, (2, -1, 3)) == 3
    with pytest.raises(ValueError):
        orbit_curve_degree(model, (0, 0, 0))


def test_recover_symbols_round_trip():
    for name in BUNDLED:
        s = _bundled(name)
        assert recover_symbols(build_model(s)) == s


def test_implicitize_quadric():
    model = build_model(_bundled("quadric.sys"))
    space = implicitize(model, 2)
    assert space.dim == 1
    ctx = model.ambient
    z0 = Polynomial.variable(ctx, "z0")
    z1 = Polynomial.variable(ctx, "z1")
    z2 = Polynomial.variable(ctx, "z2")
    u = Polynomial.variable(ctx, "u2_1")
    target = z0 * u - z1 * z2
    assert space.contains(target)
    rng = random.Random(77)
    for _ in range(40):
        pt = random_image_point(model, rng)
        assert target(pt.coords) == 0


def test_implicitize_degree_one_is_zero_for_nondegenerate_models():
    for name in BUNDLED:
        model = build_model(_bundled(name))
        assert implicitize(model, 1).is_zero()


def test_implicitize_needs_enough_samples():
    # fewer samples than monomials cannot pin the space down at all; the
    # sampled interpolator survives only as the oracle below
    model = build_model(_bundled("quadric.sys"))
    with pytest.raises(ValueError):
        sampled_implicitize(model, 2, samples=3)


def _monomial_frame(system, seed):
    """The system after the seeded substitution x_i -> s_i * x_perm(i)."""
    rng = random.Random(seed)
    n = system.context.n
    perm = list(range(n))
    rng.shuffle(perm)
    matrix = [[rng.choice([-3, -2, -1, 2, 3]) if j == perm[i] else 0
               for j in range(n)] for i in range(n)]
    return substitute_frame(system, matrix)


ORACLE_CASES = (
    [(name, frame, d) for name in BUNDLED for frame in ("shipped", "monomial")
     for d in (0, 1, 2)]
    + [(f"full_{n}_{r}", "shipped", d) for n, r in ((1, 3), (2, 2), (2, 3), (3, 2))
       for d in (0, 1, 2)]
    + [(name, "shipped", 3) for name in ("quadric.sys", "rnc.sys", "veronese.sys")]
)


@pytest.mark.parametrize("name,frame,degree", ORACLE_CASES)
def test_implicitize_matches_the_sampled_oracle(name, frame, degree):
    model = build_model(_system(name, frame))
    space = implicitize(model, degree)
    assert space == sampled_implicitize(model, degree)
    assert all(pullback(model, g).is_zero() for g in space.basis)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_implicitize_full_system_dimension_closed_form(n, r, degree):
    # the model of full(n, r) is the r-th Veronese embedding of P^n in P^N,
    # whose coordinate ring has dim C(n + r*d, n) in degree d
    big_n = comb(n + r, n) - 1
    model = build_model(full_system(n, r))
    assert model.ambient_dim == big_n + 1
    expected = comb(big_n + degree, degree) - comb(n + r * degree, n)
    assert implicitize(model, degree).dim == expected


def test_pullback_of_a_non_relation_is_nonzero():
    model = build_model(_bundled("quadric.sys"))
    z0, z1 = (Polynomial.variable(model.ambient, i) for i in range(2))
    x1 = Polynomial.variable(model.system.context, 0)
    assert pullback(model, z0 * z1 - z1 * z1) == x1 - x1 * x1


@pytest.mark.parametrize("name", BUNDLED)
def test_pullback_matches_the_power_chain_oracle(name):
    # the shared power-table expansion against the former chain of f**e
    model = build_model(_bundled(name))
    for g in implicitize(model, 2).basis:
        assert pullback(model, g).is_zero()
        assert power_pullback(model, g).is_zero()
    rng = random.Random(name)
    forms = [random_poly(rng, model.ambient, rng.randint(0, 3), homogeneous=rng.random() < 0.5)
             for _ in range(6)]
    for p in forms:
        assert pullback(model, p) == power_pullback(model, p)
    assert all(pullback(model, p) for p in forms)


def test_pullback_rejects_a_form_over_another_context():
    # quadric.sys has the ambient (z0 z1 z2 u2_1): a form over any other list is refused,
    # with as many variables as the chart has images (a, b) or more (y1..y6)
    model = build_model(_bundled("quadric.sys"))
    a, b = (Polynomial.variable(context("a", "b"), i) for i in range(2))
    y5 = Polynomial.variable(context(*(f"y{i}" for i in range(1, 7))), 4)
    for p in (a * b, y5):
        with pytest.raises(ContextMismatchError):
            pullback(model, p)


def test_moment_curve():
    model = build_model(full_system(1, 3))
    rng = random.Random(6)
    for _ in range(20):
        lam = sampling.rational(rng)
        assert phi_eval(model, 1, (lam,)) == \
            ProjectivePoint([1, lam, lam**2, lam**3])
    assert implicitize(model, 2).dim == 3
