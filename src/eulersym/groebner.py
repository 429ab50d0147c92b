"""Buchberger engine and the ideal operations the saturation test needs.

Desk-scale only: ideals here have a handful of generators in at most a
few variables.  Pair selection is by minimal lcm degree, with the
coprime and chain criteria; past `DEGREE_CAP` a completion raises
instead of hanging.  The ideal operations take a reduced `GroebnerBasis`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import add
from typing import Sequence

from .errors import ContextMismatchError, DegreeCapExceeded
from .poly import GREVLEX, MonomialOrder, Monomial, Polynomial, VarContext, compose_linear
from .spaces import FormSpace, monomials_of_degree

DEGREE_CAP = 30  # no S-pair of higher degree is reduced


def leading_monomial(p: Polynomial, order: MonomialOrder) -> Monomial:
    """Largest monomial of p; remembered on p, which is immutable, per order."""
    lead = p._lead
    if lead is not None and lead[0] is order:
        return lead[1]
    m = order.max(p.terms)
    object.__setattr__(p, "_lead", (order, m))
    return m


def _monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_quot(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def reduce_poly(p: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full normal form of p modulo gens (every term reduced)."""
    key = order.key
    lead = []
    for g in gens:
        if g:
            gm = leading_monomial(g, order)
            lead.append((gm, g.terms[gm], [(e, c) for e, c in g.terms.items() if e != gm]))
    work = dict(p.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        lc = work.pop(lm)
        for gm, gc, tail in lead:
            if _monomial_divides(gm, lm):
                # work -= (lc/gc) x^(lm-gm) g; its leading term cancels lc x^lm
                shift = _monomial_quot(lm, gm)
                q = lc / gc
                for e, c in tail:
                    m = tuple(map(add, e, shift))
                    cq = c * q
                    s = work.get(m)
                    if s is None:
                        work[m] = -cq
                    elif s == cq:
                        del work[m]
                    else:
                        work[m] = s - cq
                break
        else:
            remainder[lm] = lc
    return Polynomial._trusted(p.context, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ctx = f.context
    fm, gm = leading_monomial(f, order), leading_monomial(g, order)
    lcm = _monomial_lcm(fm, gm)
    fc, gc = f.terms[fm], g.terms[gm]
    return (f * Polynomial.from_monomial(ctx, _monomial_quot(lcm, fm), 1 / fc)
            - g * Polynomial.from_monomial(ctx, _monomial_quot(lcm, gm), 1 / gc))


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = []
    for g in sorted((g for g in gens if not g.is_zero()),
                    key=lambda p: order.key(leading_monomial(p, order))):
        monic = g * (1 / g.terms[leading_monomial(g, order)])
        if monic not in basis:
            basis.append(monic)
    lms = [leading_monomial(g, order) for g in basis]
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push(i, j):
        lcm = _monomial_lcm(lms[i], lms[j])
        pending.add((i, j))
        heapq.heappush(heap, (sum(lcm), order.key(lcm), i, j, lcm))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while heap:
        # the least pair by (lcm degree, order of the lcm, i, j)
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        fm, gm = lms[i], lms[j]
        if lcm == tuple(map(add, fm, gm)):
            continue  # coprime leading terms
        chained = any(
            k != i and k != j
            and _monomial_divides(km, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, km in enumerate(lms)
        )
        if chained:
            continue
        if sum(lcm) > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"S-pair degree {sum(lcm)} exceeds the cap {DEGREE_CAP}; "
                "raise groebner.DEGREE_CAP if this ideal is really wanted")
        rem = reduce_poly(s_polynomial(basis[i], basis[j], order), basis, order)
        if rem.is_zero():
            continue
        lm = leading_monomial(rem, order)
        basis.append(rem * (1 / rem.terms[lm]))
        lms.append(lm)
        new = len(basis) - 1
        for k in range(new):
            push(k, new)
    return _reduce_basis(basis, order)


def _reduce_basis(basis: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    # minimalize: drop generators whose leading monomial another one divides
    keep: list[Polynomial] = []
    lms = [leading_monomial(g, order) for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and _monomial_divides(lms[j], lms[i])
               and (not _monomial_divides(lms[i], lms[j]) or j < i)
               for j in range(len(basis))):
            continue
        keep.append(g)
    # tail-reduce each against the others: no leading monomial divides
    # another, so every leading term (monic) survives and one pass suffices
    keep = [reduce_poly(g, keep[:i] + keep[i + 1:], order) for i, g in enumerate(keep)]
    keep.sort(key=lambda g: order.key(leading_monomial(g, order)), reverse=True)
    return keep


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis together with its context and order."""

    context: VarContext
    order: MonomialOrder
    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))  # `buchberger` returns a list
        for p in self.polys:
            if p.context != self.context:
                raise ContextMismatchError(
                    f"incompatible variable lists: ({p.context}) vs ({self.context})")

    @classmethod
    def of(cls, gens: Sequence[Polynomial], ctx: VarContext,
           order: MonomialOrder = GREVLEX) -> "GroebnerBasis":
        return cls(ctx, order, buchberger(gens, order))

    def __repr__(self):
        gens = ", ".join(str(p) for p in self.polys) or "0"
        return f"GroebnerBasis({gens})"


# ---------------------------------------------------------------------------
# saturation by one revlex colon, certified on the leading monomials

def _in_monomial_saturation(u: Monomial, lms: Sequence[Monomial]) -> bool:
    """x^u in (lms) : m^inf: for every i some lms divides x^u away from x_i."""
    return all(any(all(a <= b for k, (a, b) in enumerate(zip(m, u)) if k != i) for m in lms)
               for i in range(len(u)))


def saturate_ideal(ideal: GroebnerBasis) -> GroebnerBasis:
    """Saturation by m = (x1..xn) of a homogeneous ideal, given as its grevlex basis.

    For l = l_j = sum_i j^i x_i, j = 1, 2, ..., take the grevlex basis G of
    I in coordinates y with l = y_n.  G divided by powers of y_n is a basis
    of J = I : l^inf (Bayer-Stillman), so in(J) is M' = M with y_n stripped,
    M = in(I).  J is saturated and I <= I^sat <= J, so J = I^sat iff J/I has
    finite length, iff M'/M does (Macaulay: an ideal and its initial ideal
    share a Hilbert function), iff M' lies in M : m^inf, a finite test on
    exponents.  Only finitely many l_j lie in the span of an associated
    prime, so the loop ends.  One Buchberger run per l_j, and one for J's
    basis unless J = I: the former test against all n colons ran these and
    more, so the degree cap fires only where it fired before.
    """
    if ideal.order is not GREVLEX:
        raise ValueError(f"saturation needs a grevlex basis, got {ideal.order.name}")
    ctx, gens = ideal.context, ideal.polys
    if not gens:
        raise ValueError("saturation of the zero ideal is not meaningful here")
    for g in gens:
        g.homogeneous_degree()  # raises HomogeneityError when inhomogeneous
    n = ctx.n
    for j in count(1):
        ell = [Fraction(j) ** (i + 1) for i in range(n)]
        # x = A y makes l the last coordinate y_n, and y = B x undoes it
        B = [[Fraction(int(a == b)) for b in range(n)] for a in range(n - 1)] + [ell]
        A = B[:-1] + [[-c / ell[-1] for c in ell[:-1]] + [1 / ell[-1]]]
        G = buchberger([compose_linear(g, A) for g in gens])
        lms = [leading_monomial(g, GREVLEX) for g in G]
        if not any(m[-1] for m in lms):
            return ideal
        if all(_in_monomial_saturation(m[:-1] + (0,), lms) for m in lms if m[-1]):
            # grevlex: y_n has its least exponent in a homogeneous g's leading term
            J = [compose_linear(Polynomial._trusted(ctx, {e[:-1] + (e[-1] - m[-1],): c
                                                          for e, c in g.terms.items()}), B)
                 for g, m in zip(G, lms)]
            return GroebnerBasis.of(J, ctx)


def is_zero_dimensional(ideal: GroebnerBasis) -> bool:
    """Whether a reduced basis cuts out the empty set in PW: the irrelevant
    ideal lies in the radical exactly when every variable shows up as a
    pure power (or 1) among the leading monomials."""
    lms = [leading_monomial(g, ideal.order) for g in ideal.polys]
    return bool(lms) and all(any(sum(m) == m[i] for m in lms) for i in range(ideal.context.n))


def graded_component(gb: GroebnerBasis, degree: int) -> FormSpace:
    """Degree-d slice of a homogeneous ideal, as a FormSpace."""
    ctx = gb.context
    polys = []
    for g in gb.polys:
        d = g.homogeneous_degree()
        if d is None or d > degree:
            continue
        for m in monomials_of_degree(ctx, degree - d):
            polys.append(g * Polynomial.from_monomial(ctx, m))
    return FormSpace.span(polys, ctx, degree)
