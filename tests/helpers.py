"""Shared helpers for building random exact-arithmetic test data."""

import random
from fractions import Fraction
from itertools import count
from math import comb, lcm
from typing import Mapping, Sequence

from hypothesis import strategies as st

from eulersym import (GREVLEX, ContextMismatchError, DegreeCapExceeded, FormSpace, GroebnerBasis,
                      MonomialOrder, Polynomial, ProjectivePoint, SymbolSystem, VarContext,
                      assemble, buchberger, context, contract, evaluate, from_polynomial,
                      monomials_of_degree, phi_eval)
from eulersym.groebner import (DEFAULT_DEGREE_CAP, _monomial_divides, _monomial_lcm,
                               _monomial_quot, reduce_poly)
from eulersym.model import EulerModel
from eulersym.jets import FFSystem, Parametrization, jet_filtration
from eulersym.poly import Monomial, _as_scalar, compose_linear, grevlex_key, translate
from eulersym.spaces import nullspace, rref
from eulersym.systems import structural_diagnostics
from eulersym import sampling


def random_poly(rng: random.Random, ctx: VarContext, degree: int,
                homogeneous: bool = True) -> Polynomial:
    """Random polynomial with small rational coefficients, never zero."""
    while True:
        terms = {}
        degrees = [degree] if homogeneous else range(degree + 1)
        for d in degrees:
            for m in monomials_of_degree(ctx, d):
                if rng.random() < 0.6:
                    terms[m] = sampling.rational(rng)
        p = Polynomial(ctx, {e: c for e, c in terms.items() if c})
        if not p.is_zero():
            return p


def random_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return sampling.vector(rng, n)


def constrained_direction(rng: random.Random, n: int,
                          zero_at: Sequence[int]) -> tuple[Fraction, ...]:
    """Nonzero vector with the listed coordinates pinned to zero."""
    dead = set(zero_at)
    if len(dead) >= n:
        raise ValueError("cannot zero every coordinate of a nonzero vector")
    while True:
        v = tuple(Fraction(0) if i in dead else sampling.rational(rng) for i in range(n))
        if any(v):
            return v


def random_image_point(model: EulerModel, rng: random.Random) -> ProjectivePoint:
    t = sampling.nonzero_rational(rng)
    w = sampling.vector(rng, model.system.context.n)
    return phi_eval(model, t, w)


def sampled_implicitize(model, degree: int, samples: int | None = None,
                        seed: int = 0):
    """Degree-d forms vanishing on the model, by exact interpolation.

    Seeded random image points give linear conditions; the kernel is
    then re-verified at twice as many fresh image points, and a failed
    verification raises instead of returning an undertrained space.
    The library's former algorithm, kept as an independent oracle for
    the weight-graded `implicitize`.
    """
    monos = monomials_of_degree(model.ambient, degree)
    need = len(monos)
    if samples is None:
        samples = need + 5
    if samples < need:
        raise ValueError(
            f"{samples} samples cannot pin down {need} monomial coefficients")
    rng = random.Random(seed)
    points = [random_image_point(model, rng) for _ in range(samples)]
    space = dense_vanishing_space(model.ambient, degree, [p.coords for p in points])
    fresh = [random_image_point(model, rng) for _ in range(2 * samples)]
    for g in space.basis:
        for p in fresh:
            if evaluate(g, p.coords):
                raise AssertionError(
                    f"degree-{degree} interpolation failed verification; "
                    "rerun with more samples")
    return space


def fraction_group_act(model: EulerModel, v: Sequence, z: ProjectivePoint) -> ProjectivePoint:
    """Translation action of v in W on an arbitrary ambient point: exp(N_v) z.

    The library's former power series in Fractions over the independent
    `contraction_nilpotents`, kept as an oracle for the integer Horner
    form of `group_act` and its table.
    """
    v = tuple(_as_scalar(c) for c in v)
    if len(v) != model.system.context.n:
        raise ValueError(f"translation vector needs {model.system.context.n} coordinates")
    out = term = [_as_scalar(c) for c in z.coords]
    if len(out) != model.ambient_dim:
        raise ValueError(f"ambient point needs {model.ambient_dim} coordinates")
    mats = contraction_nilpotents(model)
    nv = [[(c, vi * e) for vi, mat in zip(v, mats) if vi for c, e in mat[row]]
          for row in range(model.ambient_dim)]
    for j in range(1, model.rank + 1):
        term = [sum((e * term[c] for c, e in row), Fraction(0)) / j for row in nv]
        out = [a + b for a, b in zip(out, term)]
    return ProjectivePoint(out)


def chain_group_act(model: EulerModel, v: Sequence, z: ProjectivePoint) -> ProjectivePoint:
    """Translation action of v in W on an arbitrary ambient point.

    The library's former algorithm, kept as an independent oracle for the
    exp(N_v) form of `group_act`.  On a functional block f^k it evaluates

        sum_{l=2..k} C(k,l) f^l o iota_v^(k-l)  +  k * iota_w o iota_v^(k-1)
                                                +  t * iota_v^k

    by a fresh contraction chain for every basis form.
    """
    ctx = model.system.context
    v = tuple(Fraction(c) for c in v)
    if len(v) != ctx.n:
        raise ValueError(f"translation vector needs {ctx.n} coordinates")
    t = z.coords[0]
    blocks = [z.coords[start:stop] for start, stop in model.block_bounds]
    w = blocks[1]
    out = [t]
    out.extend(wi + t * vi for wi, vi in zip(w, v))
    for k in range(2, model.rank + 1):
        for phi in model.system.component(k).basis:
            # contraction chain: chain[j] = j-fold contraction of phi by v
            chain = [phi]
            for _ in range(k):
                chain.append(contract(chain[-1], v))
            value = Fraction(0)
            for l in range(2, k + 1):
                coords = model.system.component(l).coordinates_of(chain[k - l])
                if coords is None:
                    raise AssertionError(
                        "closure violated: contraction left its component")
                value += comb(k, l) * sum(
                    fi * ci for fi, ci in zip(blocks[l], coords))
            value += k * evaluate(chain[k - 1], w)
            value += t * constant_value(chain[k])
            out.append(value)
    return ProjectivePoint(out)


# ---------------------------------------------------------------------------
# the library's former map, torus action and orbit degree in Fractions, kept
# as independent oracles for the integer forms of phi_eval, euler_act and
# orbit_curve_degree

def fraction_phi_eval(model: EulerModel, t, w: Sequence) -> ProjectivePoint:
    """Value of the defining map at [t : w]."""
    t = _as_scalar(t)
    w = tuple(_as_scalar(c) for c in w)
    if len(w) != model.system.context.n:
        raise ValueError(f"chart point needs {model.system.context.n} coordinates")
    r = model.rank
    coords = [t**r]
    coords.extend(t ** (r - 1) * wi for wi in w)
    for k in range(2, r + 1):
        scale = t ** (r - k)
        coords.extend(scale * evaluate(b, w) for b in model.system.component(k).basis)
    if not any(coords):
        raise ValueError("the defining map is undefined here (indeterminacy point)")
    return ProjectivePoint(coords)


def fraction_euler_act(model: EulerModel, lam, z: ProjectivePoint) -> ProjectivePoint:
    """Torus action: weight 0 on the t block, weight k on the degree-k block."""
    lam = _as_scalar(lam)
    if not lam:
        raise ValueError("torus elements are nonzero scalars")
    out = list(z.coords)
    if len(out) != model.ambient_dim:
        raise ValueError(f"ambient point needs {model.ambient_dim} coordinates")
    for k in range(1, model.rank + 1):
        start, stop = model.block_bounds[k]
        for i in range(start, stop):
            out[i] *= lam**k
    return ProjectivePoint(out)


def fraction_orbit_curve_degree(model: EulerModel, w: Sequence) -> int:
    """Degree of the closed-up torus orbit through the translation of o by w.

    Equals the largest k whose dual block (b^k_i(w)) is nonzero; the
    curve is [1 : s*w : s^2 iota_w^2 : ... ] in the blocked coordinates.
    """
    w = tuple(_as_scalar(c) for c in w)
    if len(w) != model.system.context.n:
        raise ValueError(f"orbit direction needs {model.system.context.n} coordinates")
    if not any(w):
        raise ValueError("orbit direction must be a nonzero vector")
    for k in range(model.rank, 1, -1):
        if any(evaluate(b, w) for b in model.system.component(k).basis):
            return k
    return 1


def dense_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Exact reduced row echelon form; returns (rows, pivot column indices).

    The library's former Gauss-Jordan on dense Fraction rows, kept as an
    independent oracle for the fraction-free `spaces.rref`.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def integer_frames(n: int):
    """Hypothesis strategy: invertible n x n integer matrices with entries in [-3, 3]."""
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n).filter(
        lambda a: len(dense_rref([[Fraction(c) for c in row] for row in a])[1]) == n)


def dense_span(polys: Sequence[Polynomial], ctx: VarContext, degree: int) -> FormSpace:
    """The echelon rows of the span, from dense rows over the descending monomials.

    The library's former `FormSpace.span`, on `dense_rref`; kept as an
    independent oracle for the sparse `FormSpace.span` on `echelon`.  Each
    reduced row times the lcm of its denominators is the primitive integer
    row that `FormSpace` stores.
    """
    monos = monomials_of_degree(ctx, degree)
    index = {m: j for j, m in enumerate(monos)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monos)
        for e, c in p.terms.items():
            row[index[e]] = c
        rows.append(row)
    reduced, pivots = dense_rref(rows)
    cleared = {}
    for p, row in zip(pivots, reduced):
        den = lcm(*(c.denominator for c in row))
        cleared[monos[p]] = {monos[j]: int(c * den) for j, c in enumerate(row) if c}
    return FormSpace(ctx, degree, cleared)


def dense_jet_filtration(param: Parametrization, base: Sequence) -> list[tuple[int, Polynomial]]:
    """(vanishing order, reduced row) of the jet filtration at a base point.

    The library's former `jet_filtration` on dense rows, with `dense_rref`
    for both the linear re-coordinatization and the coefficient matrix;
    kept as an independent oracle for the sparse rows of `jet_filtration`.
    The base point must be nondegenerate.
    """
    ctx = param.context
    n = ctx.n
    shifted = [translate(c, [Fraction(b) for b in base]) for c in param.coords]
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    aug = [[shifted[i].coefficient(e) for e in units] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    reduced, pivots = dense_rref(aug)
    assert pivots[:n] == list(range(n)), "degenerate base point"
    inv = [row[n:] for row in reduced]
    polys = [Polynomial.constant(ctx, 1)] + [compose_linear(c, inv) for c in shifted]
    columns = [m for d in range(max(p.degree() or 0 for p in polys) + 1)
               for m in monomials_of_degree(ctx, d)]
    reduced, pivots = dense_rref([[p.coefficient(m) for m in columns] for p in polys])
    return [(sum(columns[pc]), Polynomial(ctx, {m: c for m, c in zip(columns, row) if c}))
            for row, pc in zip(reduced, pivots)]


def span_fundamental_forms(param: Parametrization, base: Sequence | None = None) -> FFSystem:
    """The graded pieces of the jet filtration, each spanned afresh.

    The library's former `extract_fundamental_forms`: the degree-o part of
    every order-o row, bucketed by degree, each bucket through
    `FormSpace.span`; kept as an independent oracle for the pieces read
    straight off the filtration's rows.
    """
    filt = jet_filtration(param, base)
    r = filt.max_order
    buckets: dict[int, list[Polynomial]] = {}
    for o, poly in filt.rows:
        buckets.setdefault(o, []).append(
            Polynomial(poly.context, {e: c for e, c in poly.terms.items() if sum(e) == o}))
    components = [
        FormSpace.span(buckets.get(d, []), filt.context, d)
        for d in range(r + 1)
    ]
    diagnostics = tuple(structural_diagnostics(filt.context, components))
    return FFSystem(filt.context, filt.base_point, tuple(components), diagnostics,
                    filt.dims)


def _basis_vector(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def contraction_prolong(space: FormSpace) -> FormSpace:
    """Forms one degree up whose every basis-vector contraction lies in `space`.

    The library's former algorithm, kept as an independent oracle for the
    echelon-residue `prolong`: one contraction and one reduction per
    (monomial, variable) pair.
    """
    k = space.degree
    if k < 1:
        raise ValueError("prolongation needs a component of degree >= 1")
    ctx = space.context
    images = {}
    for m in monomials_of_degree(ctx, k + 1):
        mono = Polynomial.from_monomial(ctx, m)
        blocks = []
        for i in range(ctx.n):
            residue = space.reduce(contract(mono, _basis_vector(ctx.n, i)))
            row = [residue.coefficient(mm) for mm in monomials_of_degree(ctx, k)]
            blocks.append(row)
        images[m] = blocks
    return dense_kernel_of_map(ctx, k + 1, images)


# ---------------------------------------------------------------------------
# the library's former contraction rule: `contract` by a basis vector, then a
# reduction that builds a new polynomial per pivot; kept as independent
# oracles for the d_i-and-pivots rule of `FormSpace.reduce`,
# `coordinates_of`, `structural_diagnostics`, `from_polynomial` and
# `EulerModel.integer_nilpotents`

def loop_reduce(space: FormSpace, p: Polynomial) -> Polynomial:
    """Remainder of p after subtracting its echelon-basis projection."""
    space._accepts(p)
    out = p
    for pivot, row in zip(space.pivots, space.basis):
        c = out.coefficient(pivot)
        if c:
            out = out - row * c
    return out


def loop_coordinates_of(space: FormSpace, p: Polynomial) -> list[Fraction] | None:
    """Coefficients of p against the echelon basis, or None if outside."""
    space._accepts(p)
    out = p
    coords = []
    for pivot, row in zip(space.pivots, space.basis):
        c = out.coefficient(pivot)
        coords.append(c)
        if c:
            out = out - row * c
    return coords if out.is_zero() else None


def contraction_diagnostics(ctx: VarContext, components: Sequence[FormSpace]) -> list[str]:
    """All axiom violations of a candidate component list, as messages."""
    out = []
    if len(components) < 2:
        out.append(f"need components for degrees 0..r with r >= 1, got {len(components)}")
        return out
    r = len(components) - 1
    for k, comp in enumerate(components):
        if comp.context != ctx:
            out.append(f"component {k} lives over variables ({comp.context}), expected ({ctx})")
            return out
        if comp.degree != k:
            out.append(f"component {k} holds degree-{comp.degree} forms")
            return out
    if components[0] != FormSpace.full(ctx, 0):
        out.append("F^0 must be exactly the constants")
    if not components[1].is_full():
        out.append(f"F^1 must be all linear forms (dim {ctx.n}), got dim {components[1].dim}")
    if components[r].is_zero():
        out.append(f"top component F^{r} is zero; the rank is overstated")
    for k in range(1, r + 1):
        lower = components[k - 1]
        for phi in components[k].basis:
            for i in range(ctx.n):
                img = contract(phi, _basis_vector(ctx.n, i))
                if not loop_reduce(lower, img).is_zero():
                    out.append(
                        f"F^{k} is not closed under contraction: "
                        f"contracting {phi} by e{i + 1} gives {img}, outside F^{k - 1}")
    return out


def contraction_from_polynomial(p: Polynomial) -> SymbolSystem:
    """The system generated by one form: top component <P>, lower ones
    spanned by iterated basis-vector contractions, F^1 forced to W*."""
    if p.is_zero():
        raise ValueError("cannot generate a system from the zero form")
    r = p.homogeneous_degree()
    if r < 2:
        raise ValueError(f"generating form must have degree >= 2, got {r}")
    ctx = p.context
    levels: dict[int, list[Polynomial]] = {r: [p]}
    for k in range(r - 1, 1, -1):
        levels[k] = [
            contract(b, _basis_vector(ctx.n, i))
            for b in levels[k + 1]
            for i in range(ctx.n)
        ]
    return assemble(ctx, r, levels)


def contraction_nilpotents(model: EulerModel):
    """N_1..N_n, each as one row of (column, entry) pairs per coordinate."""
    n = model.system.context.n
    mats = []
    for i in range(n):
        rows = [()]  # block 0 has weight 0: nothing maps into it
        for k in range(1, model.rank + 1):
            lower = model.system.component(k - 1)
            start = model.block_bounds[k - 1][0]
            for b in model.system.component(k).basis:
                coords = loop_coordinates_of(lower, contract(b, _basis_vector(n, i)))
                if coords is None:
                    raise AssertionError(
                        "closure violated: contraction left its component")
                rows.append(tuple((start + j, k * c) for j, c in enumerate(coords) if c))
        mats.append(tuple(rows))
    return tuple(mats)


def fraction_nilpotents(model: EulerModel):
    """N_i = M_i / q from the model's integer table, laid out as `contraction_nilpotents`."""
    q, mats = model.integer_nilpotents
    return tuple(tuple(tuple((c, Fraction(m, q)) for c, m in row) for row in mat) for mat in mats)


# ---------------------------------------------------------------------------
# the library's former kernels: a dense matrix, `nullspace`, then a second
# elimination through `FormSpace.span`; kept as independent oracles for the
# sparse one-elimination `kernel_of_map` and `vanishing_space`

def dense_kernel_of_map(ctx: VarContext, degree: int,
                        images: Mapping[Monomial, Sequence[Sequence[Fraction]]]) -> FormSpace:
    """Forms of the given degree killed by a linear map described on monomials.

    `images` assigns to every degree-`degree` monomial a list of coordinate
    vectors (the map's value on that basis monomial, blocked however the
    caller likes); the blocks are concatenated internally.
    """
    monos = monomials_of_degree(ctx, degree)
    flat = {}
    length = None
    for m in monos:
        vecs = images[m]
        v = [c for block in vecs for c in block]
        if length is None:
            length = len(v)
        elif len(v) != length:
            raise ValueError("inconsistent image vector lengths")
        flat[m] = v
    rows = [[flat[m][i] for m in monos] for i in range(length or 0)]
    combos = nullspace(rows, len(monos))
    polys = [
        Polynomial(ctx, {m: c for m, c in zip(monos, combo) if c})
        for combo in combos
    ]
    return FormSpace.span(polys, ctx, degree)


def dense_vanishing_space(ctx: VarContext, degree: int, points: Sequence[Sequence]) -> FormSpace:
    """Forms of the given degree vanishing at every listed point."""
    monos = monomials_of_degree(ctx, degree)
    rows = []
    for pt in points:
        mono_vals = []
        for m in monos:
            val = Fraction(1)
            for c, e in zip(pt, m):
                if e:
                    val *= Fraction(c) ** e
            mono_vals.append(val)
        rows.append(mono_vals)
    combos = nullspace(rows, len(monos))
    polys = [
        Polynomial(ctx, {m: c for m, c in zip(monos, combo) if c})
        for combo in combos
    ]
    return FormSpace.span(polys, ctx, degree)


# ---------------------------------------------------------------------------
# systems in seeded integer frames

def dense_frame(system, seed):
    """The system after a seeded invertible substitution with entries in [-2, 2]."""
    rng = random.Random(seed)
    n = system.context.n
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if len(rref([[Fraction(c) for c in row] for row in matrix])[1]) == n:
            return substitute_frame(system, matrix)


def substitute_frame(system, matrix):
    graded = {k: [compose_linear(b, matrix) for b in system.component(k).basis]
              for k in range(2, system.rank + 1)}
    return assemble(system.context, system.rank, graded)


# ---------------------------------------------------------------------------
# Segre products P1^n, from_polynomial(x1*...*xn) in a seeded frame

def segre_dense(n, seed):
    # x1*...*xn in a seeded frame of n independent forms with entries in [-2, 2]
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(n)))
    while True:
        forms = [Polynomial(ctx, {tuple(int(j == i) for j in range(n)): rng.randint(-2, 2)
                                  for i in range(n)}) for _ in range(n)]
        if FormSpace.span(forms, ctx, 1).is_full():
            break
    top = forms[0]
    for f in forms[1:]:
        top = top * f
    return from_polynomial(top)


def segre_monomial(n, seed):
    # x1*...*xn after the seeded substitution x_i -> s_i * x_perm(i)
    rng = random.Random(seed)
    ctx = context(*(f"x{i + 1}" for i in range(n)))
    perm = list(range(n))
    rng.shuffle(perm)
    top = Polynomial.constant(ctx, 1)
    for i in perm:
        top = top * (rng.choice([-3, -2, -1, 2, 3]) * Polynomial.variable(ctx, i))
    return from_polynomial(top)


# ---------------------------------------------------------------------------
# the library's former saturation by auxiliary-variable elimination, kept as
# an independent oracle for the revlex-colon `saturate_ideal`

def block_order(split: int) -> MonomialOrder:
    """Eliminate the first `split` variables: compare that block first,
    grevlex within each block."""

    def key(m):
        return (grevlex_key(m[:split]), grevlex_key(m[split:]))

    return MonomialOrder(f"block({split})", key)


def _fresh_name(ctx: VarContext) -> str:
    i = 0
    while f"_t{i}" in ctx.names:
        i += 1
    return f"_t{i}"


def _lift(p: Polynomial, ext: VarContext) -> Polynomial:
    return Polynomial(ext, {(0,) + e: c for e, c in p.terms.items()})


def _drop_first(p: Polynomial, base: VarContext) -> Polynomial | None:
    """Strip the auxiliary first variable; None if p actually uses it."""
    out = {}
    for e, c in p.terms.items():
        if e[0] != 0:
            return None
        out[e[1:]] = c
    return Polynomial(base, out)


def _eliminate_first(gens_ext: list[Polynomial], ext: VarContext, base: VarContext,
                     degree_cap: int) -> list[Polynomial]:
    """Intersect the ideal with the subring omitting the first variable."""
    G = buchberger(gens_ext, block_order(1), degree_cap)
    kept = []
    for g in G:
        low = _drop_first(g, base)
        if low is not None:
            kept.append(low)
    return buchberger(kept, GREVLEX, degree_cap)


def colon_by_variable_power(gens: Sequence[Polynomial], var_index: int,
                            degree_cap: int = DEFAULT_DEGREE_CAP) -> list[Polynomial]:
    """Generators of I : x_i^infinity, by eliminating y from I + (1 - y*x_i)."""
    if not gens:
        return []
    ctx = gens[0].context
    ext = VarContext((_fresh_name(ctx),) + ctx.names)
    lifted = [_lift(g, ext) for g in gens]
    xi = Polynomial.variable(ext, var_index + 1)
    y = Polynomial.variable(ext, 0)
    lifted.append(Polynomial.constant(ext, 1) - y * xi)
    return _eliminate_first(lifted, ext, ctx, degree_cap)


def intersect_ideals(a: Sequence[Polynomial], b: Sequence[Polynomial], ctx: VarContext,
                     degree_cap: int = DEFAULT_DEGREE_CAP) -> list[Polynomial]:
    """Generators of the ideal intersection, via t*I + (1-t)*J and elimination."""
    if not a or not b:
        return []
    ext = VarContext((_fresh_name(ctx),) + ctx.names)
    t = Polynomial.variable(ext, 0)
    one_minus_t = Polynomial.constant(ext, 1) - t
    gens = [t * _lift(f, ext) for f in a] + [one_minus_t * _lift(g, ext) for g in b]
    return _eliminate_first(gens, ext, ctx, degree_cap)


def elimination_saturate(gens: Sequence[Polynomial],
                         degree_cap: int = DEFAULT_DEGREE_CAP) -> GroebnerBasis:
    """Saturation of a homogeneous ideal by the irrelevant ideal (x1..xn).

    Computed as the intersection over the variables of the per-variable
    colon ideals I : x_i^infinity; each colon comes from an auxiliary
    variable elimination.  The result is the reduced grevlex basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("saturation of the zero ideal is not meaningful here")
    ctx = gens[0].context
    for g in gens:
        if g.context != ctx:
            raise ValueError("generators live over different contexts")
        g.homogeneous_degree()  # raises HomogeneityError when inhomogeneous
    parts = [colon_by_variable_power(gens, i, degree_cap) for i in range(ctx.n)]
    result: list[Polynomial] | None = None
    unit = [Polynomial.constant(ctx, 1)]

    def is_unit(part):
        return len(part) == 1 and part[0].degree() == 0

    for part in parts:
        if is_unit(part):
            continue
        if result is None:
            result = part
        else:
            result = intersect_ideals(result, part, ctx, degree_cap)
    if result is None:
        result = unit
    return GroebnerBasis(ctx, GREVLEX, buchberger(result, GREVLEX, degree_cap))


# ---------------------------------------------------------------------------
# the library's former saturation, which certified J = I : l^infinity by
# reducing each generator of J against all n colons I : x_i^infinity; kept
# as an oracle for the certificate read off the leading monomials

def _permute(p: Polynomial, perm: Sequence[int]) -> Polynomial:
    """Rename variable perm[j] to slot j."""
    return Polynomial(p.context, {tuple(e[i] for i in perm): c for e, c in p.terms.items()})


def _revlex_colon(gens: Sequence[Polynomial], degree_cap: int) -> list[Polynomial]:
    """Groebner basis of I : x_n^infinity for homogeneous I (Bayer-Stillman):
    x_n is the smallest variable in grevlex, so it is a grevlex basis of I
    with each element divided by its largest power of x_n."""
    out = []
    for g in buchberger(gens, GREVLEX, degree_cap):
        low = min(e[-1] for e in g.terms)
        out.append(Polynomial(g.context, {e[:-1] + (e[-1] - low,): c
                                          for e, c in g.terms.items()}))
    return out


def colon_saturate(gens: Sequence[Polynomial],
                   degree_cap: int = DEFAULT_DEGREE_CAP) -> GroebnerBasis:
    """Saturation of a homogeneous ideal by the irrelevant ideal (x1..xn).

    The saturation is the meet of the colons C_i = I : x_i^infinity and
    lies in J = I : l^infinity for every linear form l, so J is the
    saturation once every generator of J lies in every C_i.  All of them
    are revlex colons: x_i is moved to the last slot, l is made the last
    coordinate.  l_j = sum_i j^i x_i is tried for j = 1, 2, ...: any n of
    these are independent, so only finitely many fall in the linear span
    of an associated prime, and the loop ends.  Returns the reduced
    grevlex basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("saturation of the zero ideal is not meaningful here")
    ctx = gens[0].context
    for g in gens:
        if g.context != ctx:
            raise ValueError("generators live over different contexts")
        g.homogeneous_degree()  # raises HomogeneityError when inhomogeneous
    n = ctx.n
    perms = [[j for j in range(n) if j != i] + [i] for i in range(n)]  # x_i last
    colons = [(p, _revlex_colon([_permute(g, p) for g in gens], degree_cap)) for p in perms]
    for j in count(1):
        ell = [Fraction(j) ** (i + 1) for i in range(n)]
        # x = A y makes l the last coordinate y_n, and y = B x undoes it
        B = [[Fraction(int(a == b)) for b in range(n)] for a in range(n - 1)] + [ell]
        A = B[:-1] + [[-c / ell[-1] for c in ell[:-1]] + [1 / ell[-1]]]
        J = [compose_linear(h, B)
             for h in _revlex_colon([compose_linear(g, A) for g in gens], degree_cap)]
        if not any(reduce_poly(_permute(h, p), basis, GREVLEX)
                   for p, basis in colons for h in J):
            return GroebnerBasis(ctx, GREVLEX, buchberger(J, GREVLEX, degree_cap))


# ---------------------------------------------------------------------------
# the library's former `compose_linear`, which builds a Polynomial per term
# and multiplies in one image form per degree; kept as an oracle for the
# dict-level expansion over cached powers

def termwise_compose_linear(p: Polynomial, matrix: Sequence[Sequence]) -> Polynomial:
    """Substitute x_i -> sum_j matrix[i][j] * x_j."""
    ctx = p.context
    rows = [[_as_scalar(c) for c in row] for row in matrix]
    if len(rows) != ctx.n or any(len(r) != ctx.n for r in rows):
        raise ContextMismatchError("substitution matrix must be square of size n")
    images = [
        Polynomial(ctx, {tuple(1 if j == k else 0 for k in range(ctx.n)): c
                         for j, c in enumerate(row) if c})
        for row in rows
    ]
    out = Polynomial.zero(ctx)
    for expo, coeff in p.terms.items():
        term = Polynomial.constant(ctx, coeff)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# the library's former `translate` (a binomial convolution per term) and
# former `pullback` (a Polynomial power chain per term); kept as oracles for
# the one power-table expansion `substitute` behind both

def convolution_translate(p: Polynomial, point: Sequence) -> Polynomial:
    """Substitute x_i -> x_i + a_i, exactly."""
    vals = [_as_scalar(c) for c in point]
    if len(vals) != p.context.n:
        raise ContextMismatchError(
            f"point has {len(vals)} coordinates, context has {p.context.n} variables"
        )
    ctx = p.context
    out = Polynomial.zero(ctx)
    for expo, coeff in p.terms.items():
        # expand prod_i (x_i + a_i)^{e_i} by univariate convolution
        parts = {(0,) * ctx.n: coeff}
        for i, (e, a) in enumerate(zip(expo, vals)):
            if e == 0:
                continue
            nxt: dict[Monomial, Fraction] = {}
            for j in range(e + 1):
                c = comb(e, j) * a ** (e - j)
                if not c:
                    continue
                for mono, k in parts.items():
                    m = list(mono)
                    m[i] += j
                    key = tuple(m)
                    s = nxt.get(key, Fraction(0)) + k * c
                    if s:
                        nxt[key] = s
                    else:
                        nxt.pop(key, None)
            parts = nxt
        out = out + Polynomial(ctx, parts)
    return out


def power_pullback(model: EulerModel, p: Polynomial) -> Polynomial:
    """p(1, w, b^2(w), ..., b^r(w)): an ambient form on the t = 1 chart."""
    ctx = model.system.context
    charts = [Polynomial.constant(ctx, 1)] + model.chart_functions()
    out = Polynomial.zero(ctx)
    for expo, coeff in p.terms.items():
        term = Polynomial.constant(ctx, coeff)
        for f, e in zip(charts, expo):
            if e:
                term = term * f**e
        out = out + term
    return out


# ---------------------------------------------------------------------------
# former library functions no library code calls: the directional derivative
# that `contract` now inlines, the value of a constant, the zero-ideal test,
# full polarization, and the symbol system read back off a model's chart
# functions; kept as test oracles

def directional_derivative(p: Polynomial, v: Sequence) -> Polynomial:
    vals = [_as_scalar(c) for c in v]
    if len(vals) != p.context.n:
        raise ContextMismatchError(
            f"vector has {len(vals)} coordinates, context has {p.context.n} variables"
        )
    out = Polynomial.zero(p.context)
    for i, vi in enumerate(vals):
        if vi:
            out = out + p.derivative(i) * vi
    return out


def constant_value(p: Polynomial) -> Fraction:
    """The value of a constant polynomial; ValueError for any other."""
    zero = (0,) * p.context.n
    for expo in p.terms:
        if expo != zero:
            raise ValueError(f"not a constant: {p}")
    return p.terms.get(zero, Fraction(0))


def is_zero_ideal(gb: GroebnerBasis) -> bool:
    return not gb.polys


def polarize(p: Polynomial, vectors: Sequence[Sequence]) -> Fraction:
    """Full polarization: contract a degree-k form by exactly k vectors."""
    if p.is_zero():
        return Fraction(0)
    k = p.homogeneous_degree()
    if len(vectors) != k:
        raise ValueError(f"polarization of a degree-{k} form needs {k} vectors, got {len(vectors)}")
    out = p
    for v in vectors:
        out = contract(out, v)
    return constant_value(out)


def recover_symbols(model: EulerModel) -> SymbolSystem:
    """Re-read the graded system from the chart coordinate functions."""
    ctx = model.system.context
    graded: dict[int, list[Polynomial]] = {}
    for f in model.chart_functions():
        d = f.homogeneous_degree()
        if d >= 2:
            graded.setdefault(d, []).append(f)
    return assemble(ctx, model.rank, graded)


# ---------------------------------------------------------------------------
# the library's former Buchberger, which re-derives every leading monomial
# and picks each pair by min() over a set; kept as an independent oracle for
# the heap, the leading-monomial cache and the dict-level normal form

def pairset_leading_monomial(p: Polynomial, order: MonomialOrder) -> Monomial:
    return order.max(p.terms)


def pairset_leading_coefficient(p: Polynomial, order: MonomialOrder) -> Fraction:
    return p.terms[pairset_leading_monomial(p, order)]


def pairset_reduce_poly(p: Polynomial, gens: Sequence[Polynomial],
                        order: MonomialOrder) -> Polynomial:
    """Full normal form of p modulo gens (every term reduced)."""
    ctx = p.context
    remainder = Polynomial.zero(ctx)
    work = p
    lead = [(pairset_leading_monomial(g, order), pairset_leading_coefficient(g, order), g)
            for g in gens if g]
    while not work.is_zero():
        lm = pairset_leading_monomial(work, order)
        lc = work.terms[lm]
        for gm, gc, g in lead:
            if _monomial_divides(gm, lm):
                shift = _monomial_quot(lm, gm)
                work = work - g * Polynomial.from_monomial(ctx, shift, lc / gc)
                break
        else:
            t = Polynomial.from_monomial(ctx, lm, lc)
            remainder = remainder + t
            work = work - t
    return remainder


def pairset_s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ctx = f.context
    fm, gm = pairset_leading_monomial(f, order), pairset_leading_monomial(g, order)
    lcm = _monomial_lcm(fm, gm)
    fc, gc = f.terms[fm], g.terms[gm]
    return (f * Polynomial.from_monomial(ctx, _monomial_quot(lcm, fm), 1 / fc)
            - g * Polynomial.from_monomial(ctx, _monomial_quot(lcm, gm), 1 / gc))


def pairset_buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                       degree_cap: int = DEFAULT_DEGREE_CAP) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = []
    for g in sorted((g for g in gens if not g.is_zero()),
                    key=lambda p: order.key(pairset_leading_monomial(p, order))):
        monic = g * (1 / pairset_leading_coefficient(g, order))
        if monic not in basis:
            basis.append(monic)
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def pair_rank(ij):
        lcm = _monomial_lcm(pairset_leading_monomial(basis[ij[0]], order),
                            pairset_leading_monomial(basis[ij[1]], order))
        return (sum(lcm), order.key(lcm), ij)

    while pairs:
        i, j = min(pairs, key=pair_rank)
        pairs.discard((i, j))
        fm = pairset_leading_monomial(basis[i], order)
        gm = pairset_leading_monomial(basis[j], order)
        lcm = _monomial_lcm(fm, gm)
        if lcm == tuple(a + b for a, b in zip(fm, gm)):
            continue  # coprime leading terms
        chained = any(
            k not in (i, j)
            and _monomial_divides(pairset_leading_monomial(basis[k], order), lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        )
        if chained:
            continue
        if sum(lcm) > degree_cap:
            raise DegreeCapExceeded(
                f"S-pair degree {sum(lcm)} exceeds the cap {degree_cap}; "
                "raise degree_cap if this ideal is really wanted")
        rem = pairset_reduce_poly(pairset_s_polynomial(basis[i], basis[j], order),
                                  basis, order)
        if rem.is_zero():
            continue
        rem = rem * (1 / pairset_leading_coefficient(rem, order))
        basis.append(rem)
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return _pairset_reduce_basis(basis, order)


def _pairset_reduce_basis(basis: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    # minimalize: drop generators whose leading monomial another one divides
    keep: list[Polynomial] = []
    lms = [pairset_leading_monomial(g, order) for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and _monomial_divides(lms[j], lms[i])
               and (not _monomial_divides(lms[i], lms[j]) or j < i)
               for j in range(len(basis))):
            continue
        keep.append(g)
    # tail-reduce each against the others until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(keep)):
            others = keep[:i] + keep[i + 1:]
            red = pairset_reduce_poly(keep[i], others, order)
            if red.is_zero():
                keep.pop(i)
                changed = True
                break
            red = red * (1 / pairset_leading_coefficient(red, order))
            if red != keep[i]:
                keep[i] = red
                changed = True
    keep.sort(key=lambda g: order.key(pairset_leading_monomial(g, order)), reverse=True)
    return keep
