"""The projective model attached to a symbol system, with its actions.

Ambient coordinates are blocked [z0 | z1..zn | degree blocks 2..r]:
z0 tracks t, the next n track w, and block k carries dual coordinates
against the echelon basis (b^k_i) of F^k.  The defining map is

    phi([t : w]) = [t^r : t^(r-1) w : t^(r-2) (b^2_i(w)) : ... : (b^r_i(w))]

The additive group W acts by translations g_v, the torus by weighted
scaling; both are linear on the ambient coordinates.  On a functional
block f^k the translation acts by

    sum_{l=2..k} C(k,l) f^l o iota_v^(k-l)  +  k * iota_w o iota_v^(k-1)
                                            +  t * iota_v^k

evaluated here against the chosen bases, so the whole action is a
matter of contraction chains and exact dot products.

The torus acts with weight k on block k, so the ideal of the model is
graded by torus weight: `implicitize` finds its degree-d piece as a
direct sum of small exact kernels, one per weight, with no sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from . import sampling
from .poly import Polynomial, VarContext, contract, evaluate
from .spaces import FormSpace, monomials_of_degree, nullspace
from .systems import SymbolSystem, assemble


@dataclass(frozen=True)
class ProjectivePoint:
    """Exact projective point, scaled so the first nonzero coordinate is 1."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence):
        vals = tuple(Fraction(c) for c in coords)
        lead = next((c for c in vals if c), None)
        if lead is None:
            raise ValueError("all coordinates are zero; not a projective point")
        object.__setattr__(self, "coords", tuple(c / lead for c in vals))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __str__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class EulerModel:
    system: SymbolSystem
    ambient: VarContext
    block_bounds: tuple[tuple[int, int], ...]  # (start, stop) per degree 0..r

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def ambient_dim(self) -> int:
        return self.ambient.n

    def block(self, z: ProjectivePoint | Sequence, k: int) -> tuple[Fraction, ...]:
        coords = z.coords if isinstance(z, ProjectivePoint) else tuple(z)
        start, stop = self.block_bounds[k]
        return coords[start:stop]

    def chart_functions(self) -> list[Polynomial]:
        """Affine coordinate functions of the t=1 chart, as polynomials in w."""
        ctx = self.system.context
        out = [Polynomial.variable(ctx, i) for i in range(ctx.n)]
        for k in range(2, self.rank + 1):
            out.extend(self.system.component(k).basis)
        return out


def build_model(system: SymbolSystem) -> EulerModel:
    n = system.context.n
    names = ["z0"] + [f"z{i}" for i in range(1, n + 1)]
    bounds = [(0, 1), (1, 1 + n)]
    pos = 1 + n
    for k in range(2, system.rank + 1):
        d = system.component(k).dim
        names.extend(f"u{k}_{i}" for i in range(1, d + 1))
        bounds.append((pos, pos + d))
        pos += d
    return EulerModel(system, VarContext(tuple(names)), tuple(bounds))


def phi_eval(model: EulerModel, t, w: Sequence) -> ProjectivePoint:
    """Value of the defining map at [t : w]."""
    t = Fraction(t)
    w = tuple(Fraction(c) for c in w)
    r = model.rank
    coords = [t**r]
    coords.extend(t ** (r - 1) * wi for wi in w)
    for k in range(2, r + 1):
        scale = t ** (r - k)
        coords.extend(scale * evaluate(b, w) for b in model.system.component(k).basis)
    if not any(coords):
        raise ValueError("the defining map is undefined here (indeterminacy point)")
    return ProjectivePoint(coords)


def euler_act(model: EulerModel, lam, z: ProjectivePoint) -> ProjectivePoint:
    """Torus action: weight 0 on the t block, weight k on the degree-k block."""
    lam = Fraction(lam)
    if not lam:
        raise ValueError("torus elements are nonzero scalars")
    out = list(z.coords)
    for k in range(1, model.rank + 1):
        start, stop = model.block_bounds[k]
        for i in range(start, stop):
            out[i] *= lam**k
    return ProjectivePoint(out)


def group_act(model: EulerModel, v: Sequence, z: ProjectivePoint) -> ProjectivePoint:
    """Translation action of v in W on an arbitrary ambient point."""
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


def orbit_curve_degree(model: EulerModel, w: Sequence) -> int:
    """Degree of the closed-up torus orbit through the translation of o by w.

    Equals the largest k whose dual block (b^k_i(w)) is nonzero; the
    curve is [1 : s*w : s^2 iota_w^2 : ... ] in the blocked coordinates.
    """
    w = tuple(Fraction(c) for c in w)
    if not any(w):
        raise ValueError("orbit direction must be a nonzero vector")
    for k in range(model.rank, 1, -1):
        if any(evaluate(b, w) for b in model.system.component(k).basis):
            return k
    return 1


def recover_symbols(model: EulerModel) -> SymbolSystem:
    """Re-read the graded system from the chart coordinate functions."""
    ctx = model.system.context
    graded: dict[int, list[Polynomial]] = {}
    for f in model.chart_functions():
        d = f.homogeneous_degree()
        if d >= 2:
            graded.setdefault(d, []).append(f)
    return assemble(ctx, model.rank, graded)


def random_ambient_point(model: EulerModel, rng: random.Random) -> ProjectivePoint:
    """Arbitrary ambient point; in general nowhere near the model."""
    while True:
        coords = [sampling.rational(rng) for _ in range(model.ambient_dim)]
        if any(coords):
            return ProjectivePoint(coords)


def random_image_point(model: EulerModel, rng: random.Random) -> ProjectivePoint:
    t = sampling.nonzero_rational(rng)
    w = sampling.vector(rng, model.system.context.n)
    return phi_eval(model, t, w)


def pullback(model: EulerModel, p: Polynomial) -> Polynomial:
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


def implicitize(model: EulerModel, degree: int) -> FormSpace:
    """Degree-d forms vanishing on the model, as exact torus-weight kernels.

    Write f = (1, w, b^2, ..., b^r) for the chart functions, of weights
    0, 1, ..., r.  Under phi(t, w) a degree-d ambient monomial m of weight
    e = sum wt_j m_j pulls back to t^(rd-e) prod f_j^(m_j), and that
    product is a form of degree e in w.  Monomials of different weights
    therefore cannot cancel, and a form vanishes on the model exactly
    when each weight part does: I(X)_d is the direct sum over e of the
    kernels of the coefficient matrices of the pullbacks of weight e.
    """
    ctx = model.system.context
    charts = [Polynomial.constant(ctx, 1)] + model.chart_functions()
    wt = [k for k, (start, stop) in enumerate(model.block_bounds)
          for _ in range(start, stop)]
    groups: dict[int, list] = {}
    for m in monomials_of_degree(model.ambient, degree):
        groups.setdefault(sum(w * e for w, e in zip(wt, m)), []).append(m)
    products = {(0,) * model.ambient_dim: charts[0]}

    def product(m):
        # prod f_j^(m_j), built from the product with one factor fewer
        if m not in products:
            j = next(j for j, e in enumerate(m) if e)
            products[m] = product(m[:j] + (m[j] - 1,) + m[j + 1:]) * charts[j]
        return products[m]

    relations = []
    for monos in groups.values():
        if len(monos) < 2:
            continue  # a single product of nonzero forms is nonzero
        images = [product(m) for m in monos]
        support = sorted({e for p in images for e in p.terms})
        rows = [[p.coefficient(e) for p in images] for e in support]
        for vec in nullspace(rows, len(monos)):
            relations.append(Polynomial(
                model.ambient, {m: c for m, c in zip(monos, vec) if c}))
    return FormSpace.span(relations, model.ambient, degree)
