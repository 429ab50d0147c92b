"""The projective model attached to a symbol system, with its actions.

Ambient coordinates are blocked [z0 | z1..zn | degree blocks 2..r]:
z0 tracks t, the next n track w, and block k carries dual coordinates
against the echelon basis (b^k_i) of F^k.  The defining map is

    phi([t : w]) = [t^r : t^(r-1) w : t^(r-2) (b^2_i(w)) : ... : (b^r_i(w))]

The additive group W acts by translations g_v, the torus by weighted
scaling; both are linear on the ambient coordinates.  The translation is

    g_v = exp(sum_i v_i N_i)

for commuting nilpotent N_1..N_n, one per basis vector e_i.  N_i raises
torus weight by one: it sends block k-1 to block k, and the row of the
basis form b^k_j holds the echelon coordinates of the partial d_i b^k_j
in F^(k-1).  Every SymbolSystem comes out of `validate`, which certified
that membership, so those coordinates are read off as the coefficients
of d_i b^k_j at the pivots of F^(k-1), with no reduction.  Block 0 is
F^0 = <1>, so the t and w blocks need no special case, and
N_v^(r+1) = 0 makes the exponential a finite sum.

`group_act` evaluates that sum in integers on the point's primitive
integer vector y.  Write N_i = M_i / q with q the common denominator of
all nilpotent entries, v = u / d with u integral, and M_u = sum_i u_i M_i.
Then

    (dq)^r * r! * exp(N_v) y = sum_j c_j M_u^j y,  c_j = (dq)^(r-j) r!/j!,

an integer vector that Horner's rule builds with one cumulative
coefficient: a nonzero multiple of exp(N_v) y, so the same projective
point, exactly.

`phi_eval`, `orbit_curve_degree` and `euler_act` run in integers the
same way.  Write t = s / e and w = u / d with u integral, and let Q be
the common denominator of the coefficients of all b^k_i, so Q b^k_i(u)
is an integer (`EulerModel.integer_forms`).  Block k of phi is
t^(r-k) b^k(w) with b^k homogeneous of degree k, so

    Q e^r d^r phi(t, w) has block k = Q e^k (sd)^(r-k) b^k(u),

with b^0 = 1 and b^1(u) = u, a nonzero multiple of phi(t, w).  For the
same reason b^k(w) != 0 exactly when Q b^k(u) != 0, which is all the
orbit degree reads.  The torus element lambda = a / c scales block k by
lambda^k, so c^r lambda scales block k of the point's integer vector y
by a^k c^(r-k).

The torus acts with weight k on block k, so the ideal of the model is
graded by torus weight: `implicitize` finds its degree-d piece as one
exact sparse kernel, which splits by weight on its own, with no sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from . import sampling
from .errors import ContextMismatchError
from .poly import Polynomial, VarContext, _as_scalar, substitute
from .spaces import FormSpace, kernel_of_map, monomials_of_degree
from .systems import SymbolSystem


@dataclass(frozen=True)
class ProjectivePoint:
    """Exact projective point: coprime integers, the first nonzero one positive."""

    vector: tuple[int, ...]

    def __init__(self, coords: Iterable):
        vals = tuple(coords)
        if not all(type(c) is int for c in vals):  # the actions return integers: no clearing
            _, vals = _cleared([_as_scalar(c) for c in vals])
        g = gcd(*vals)
        if not g:
            raise ValueError("all coordinates are zero; not a projective point")
        if next(c for c in vals if c) < 0:
            g = -g
        object.__setattr__(self, "vector", tuple(c // g for c in vals))

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        """The point scaled so its first nonzero coordinate is 1, in Fractions."""
        lead = next(c for c in self.vector if c)
        return tuple(Fraction(c, lead) for c in self.vector)

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

    def chart_functions(self) -> list[Polynomial]:
        """Affine coordinate functions of the t=1 chart, as polynomials in w."""
        ctx = self.system.context
        out = [Polynomial.variable(ctx, i) for i in range(ctx.n)]
        for k in range(2, self.rank + 1):
            out.extend(self.system.component(k).basis)
        return out

    @cached_property
    def integer_nilpotents(self) -> tuple[int, tuple]:
        """(q, M_1..M_n) with N_i = M_i / q and q the common denominator of all entries.

        Each M_i holds one row of (column, entry) pairs per coordinate.  The
        row of b^k_j holds q times the coefficients of d_i b^k_j at the pivots
        of F^(k-1): its echelon coordinates, because `validate` certified that
        d_i b^k_j lies in F^(k-1) and each echelon row is 1 at its own pivot
        and 0 at the others.  Built on the first action, so models that never
        act pay nothing.
        """
        mats = [[()] for _ in range(self.system.context.n)]  # nothing maps into block 0
        for k in range(1, self.rank + 1):
            pivots = self.system.component(k - 1).pivots
            start = self.block_bounds[k - 1][0]
            for b in self.system.component(k).basis:
                for i, rows in enumerate(mats):
                    d = b.derivative(i).terms
                    rows.append(tuple((start + j, d[p]) for j, p in enumerate(pivots) if p in d))
        q = lcm(*(e.denominator for rows in mats for row in rows for _, e in row))
        return q, tuple(
            tuple(tuple((c, e.numerator * (q // e.denominator)) for c, e in row) for row in rows)
            for rows in mats)

    @cached_property
    def integer_forms(self) -> tuple[int, tuple]:
        """(Q, B_2..B_r): the echelon basis of each F^k times Q, in integers.

        Q is the lcm of the pivot entries L of F^k's `rows`: b^k_i is a
        primitive row R over its L, whose denominators have lcm L, so Q
        b^k_i = (Q / L) R.  B_k holds one tuple of (exponent, integer
        coefficient) terms per form b^k_i.  Read off the system alone, not
        `integer_nilpotents`, so the translation and the map it is checked
        against do not share a table.
        """
        spaces = [self.system.component(k).rows for k in range(2, self.rank + 1)]
        q = lcm(*(row[p] for rows in spaces for p, row in rows.items()))
        return q, tuple(
            tuple(tuple((e, c * (q // row[p])) for e, c in row.items()) for p, row in rows.items())
            for rows in spaces)


def _cleared(vals: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, u) with vals = u / d, d the least common denominator."""
    d = lcm(*(c.denominator for c in vals))
    return d, [c.numerator * (d // c.denominator) for c in vals]


def _integer_values(forms, u: Sequence[int]):
    """Each integer form of `integer_forms` at the integer point u."""
    return (sum(c * prod(x**e for x, e in zip(u, expo) if e) for expo, c in form)
            for form in forms)


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
    """Value of the defining map at [t : w], computed in integers as the
    module docstring describes."""
    t = _as_scalar(t)
    w = tuple(_as_scalar(c) for c in w)
    if len(w) != model.system.context.n:
        raise ValueError(f"chart point needs {model.system.context.n} coordinates")
    r = model.rank
    q, blocks = model.integer_forms
    e = t.denominator
    d, u = _cleared(w)
    sd = t.numerator * d
    values = [(q,), [q * ui for ui in u]]  # Q b^k(u) for b^0 = 1 and b^1(u) = u
    values.extend(_integer_values(forms, u) for forms in blocks)
    coords = []
    for k, block in enumerate(values):
        scale = e**k * sd ** (r - k)
        coords.extend(scale * value for value in block)
    if not any(coords):
        raise ValueError("the defining map is undefined here (indeterminacy point)")
    return ProjectivePoint(coords)


def euler_act(model: EulerModel, lam, z: ProjectivePoint) -> ProjectivePoint:
    """Torus action: weight 0 on the t block, weight k on the degree-k block.

    Computed in integers: lambda = a / c scales block k of the point's
    integer vector by a^k c^(r-k) (module docstring).
    """
    lam = _as_scalar(lam)
    if not lam:
        raise ValueError("torus elements are nonzero scalars")
    y = z.vector
    if len(y) != model.ambient_dim:
        raise ValueError(f"ambient point needs {model.ambient_dim} coordinates")
    a, c = lam.numerator, lam.denominator
    out = []
    for k, (start, stop) in enumerate(model.block_bounds):
        scale = a**k * c ** (model.rank - k)
        out.extend(scale * yi for yi in y[start:stop])
    return ProjectivePoint(out)


def group_act(model: EulerModel, v: Sequence, z: ProjectivePoint) -> ProjectivePoint:
    """Translation action of v in W on an arbitrary ambient point: exp(N_v) z.

    Computed in integers by Horner's rule over one common denominator; see
    the module docstring for why the result is the exact point.
    """
    v = tuple(_as_scalar(c) for c in v)
    if len(v) != model.system.context.n:
        raise ValueError(f"translation vector needs {model.system.context.n} coordinates")
    y = z.vector
    if len(y) != model.ambient_dim:
        raise ValueError(f"ambient point needs {model.ambient_dim} coordinates")
    d, u = _cleared(v)
    q, mats = model.integer_nilpotents
    mu = []  # M_u, one sparse row per coordinate with equal columns combined
    for row in range(model.ambient_dim):
        acc: dict[int, int] = {}
        for ui, mat in zip(u, mats):
            if ui:
                for c, m in mat[row]:
                    acc[c] = acc.get(c, 0) + ui * m
        mu.append([(c, m) for c, m in acc.items() if m])
    out, s = y, 1
    for j in range(model.rank, 0, -1):
        s *= d * q * j  # cumulative: s = (dq)^(r-j+1) r!/(j-1)!
        out = [s * yi + sum(m * out[c] for c, m in row) for yi, row in zip(y, mu)]
    return ProjectivePoint(out)


def orbit_curve_degree(model: EulerModel, w: Sequence) -> int:
    """Degree of the closed-up torus orbit through the translation of o by w.

    Equals the largest k whose dual block (b^k_i(w)) is nonzero; the
    curve is [1 : s*w : s^2 iota_w^2 : ... ] in the blocked coordinates.
    """
    w = tuple(_as_scalar(c) for c in w)
    if len(w) != model.system.context.n:
        raise ValueError(f"orbit direction needs {model.system.context.n} coordinates")
    if not any(w):
        raise ValueError("orbit direction must be a nonzero vector")
    _, u = _cleared(w)  # b^k(w) != 0 exactly when Q b^k(u) != 0
    _, blocks = model.integer_forms
    for k in range(model.rank, 1, -1):
        if any(_integer_values(blocks[k - 2], u)):
            return k
    return 1


def random_ambient_point(model: EulerModel, rng: random.Random) -> ProjectivePoint:
    """Arbitrary ambient point; in general nowhere near the model."""
    while True:
        coords = [sampling.rational(rng) for _ in range(model.ambient_dim)]
        if any(coords):
            return ProjectivePoint(coords)


def pullback(model: EulerModel, p: Polynomial) -> Polynomial:
    """p(1, w, b^2(w), ..., b^r(w)): an ambient form on the t = 1 chart."""
    if p.context != model.ambient:
        raise ContextMismatchError(
            f"pullback needs a form over the ambient ({model.ambient}), got ({p.context})")
    ctx = model.system.context
    return substitute(p, ctx, [{(0,) * ctx.n: Fraction(1)}]
                      + [f.terms for f in model.chart_functions()])


def implicitize(model: EulerModel, degree: int) -> FormSpace:
    """Degree-d forms vanishing on the model, as one exact sparse kernel.

    Write f = (1, w, b^2, ..., b^r) for the chart functions, of weights
    0, 1, ..., r.  Under phi(t, w) a degree-d ambient monomial m of weight
    e = sum wt_j m_j pulls back to t^(rd-e) prod f_j^(m_j), and that
    product is a form of degree e in w, so a w-monomial alone fixes the
    power of t.  A form sum c_m m therefore vanishes on the model exactly
    when every w-coefficient of sum c_m prod f^m does: I(X)_d is the kernel
    of m -> prod f^m, labelled by w-monomials.  Those labels never mix
    weights, so the kernel splits by torus weight on its own.
    """
    charts = [Polynomial.constant(model.system.context, 1)] + model.chart_functions()
    products = {(0,) * model.ambient_dim: charts[0]}

    def product(m):
        # prod f_j^(m_j), built from the product with one factor fewer
        if m not in products:
            j = next(j for j, e in enumerate(m) if e)
            products[m] = product(m[:j] + (m[j] - 1,) + m[j + 1:]) * charts[j]
        return products[m]

    return kernel_of_map(model.ambient, degree, {
        m: product(m).terms for m in monomials_of_degree(model.ambient, degree)})
