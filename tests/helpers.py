"""Shared helpers for building random exact-arithmetic test data."""

import random
from fractions import Fraction
from math import comb
from typing import Sequence

from eulersym import (GREVLEX, FormSpace, GroebnerBasis, MonomialOrder, Polynomial,
                      ProjectivePoint, VarContext, buchberger, contract, evaluate,
                      kernel_of_map, monomials_of_degree, vanishing_space)
from eulersym.groebner import DEFAULT_DEGREE_CAP
from eulersym.poly import grevlex_key
from eulersym import sampling
from eulersym.model import EulerModel, random_image_point


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
    space = vanishing_space(model.ambient, degree, [p.coords for p in points])
    fresh = [random_image_point(model, rng) for _ in range(2 * samples)]
    for g in space.basis:
        for p in fresh:
            if evaluate(g, p.coords):
                raise AssertionError(
                    f"degree-{degree} interpolation failed verification; "
                    "rerun with more samples")
    return space


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
    t = z[0]
    w = model.block(z, 1)
    out = [t]
    out.extend(wi + t * vi for wi, vi in zip(w, v))
    for k in range(2, model.rank + 1):
        fblocks = {l: model.block(z, l) for l in range(2, k + 1)}
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
                    fi * ci for fi, ci in zip(fblocks[l], coords))
            value += k * evaluate(chain[k - 1], w)
            value += t * chain[k].constant_value()
            out.append(value)
    return ProjectivePoint(out)


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
    return kernel_of_map(ctx, k + 1, images)


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
