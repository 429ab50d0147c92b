"""Symbol systems: graded spaces of symmetric forms closed under contraction.

A system F = (F^0, ..., F^r) fixes F^0 = constants and F^1 = all linear
forms, requires F^r != 0, and demands that contracting any member of
F^k by a basis vector lands in F^(k-1).  Closure is linear in the
vector, so checking the basis vectors e_i settles it for all of W.
On degree-k forms the contraction by e_i is the partial d_i scaled by
1/k, and membership is scale-invariant, so closure is checked with d_i
on F^k's integer rows.  The echelon coordinates each test returns are
kept as the contraction table, which the model's nilpotents read.

Beyond validation this module computes the prolongation of a component,
systems generated by a single form, the order (how far the base loci
stay empty), and the saturation predicate for systems of order 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .errors import InvalidSymbolSystem, SaturationPreconditionError
from .groebner import (GroebnerBasis, graded_component, is_zero_dimensional,
                       saturate_ideal)
from .poly import Polynomial, VarContext, default_context
from .spaces import FormSpace, kernel_of_map, monomials_of_degree


@dataclass(frozen=True)
class SymbolSystem:
    """A certified system: every instance comes out of `validate`.

    `contraction_table` is validate's closure certificate, in integers:
    entry [k-1][j][i] holds the echelon coordinates in F^(k-1) of d_i R,
    with R row j of F^k's `rows`.  `EulerModel.integer_nilpotents` reads
    the translation action off it, with no second membership test.
    """

    context: VarContext
    components: tuple[FormSpace, ...]  # indexed by degree, 0..rank
    contraction_table: tuple = field(repr=False, compare=False)
    _ideals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.components) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    @cached_property
    def _base_locus_empty(self) -> dict[int, bool]:
        return {1: True}  # F^1 = W* has no common zero in projective space

    def ideal(self, k: int) -> GroebnerBasis:
        """Reduced grevlex basis of the ideal F^k generates; completed once per k."""
        if k not in self._ideals:
            self._ideals[k] = GroebnerBasis.of(list(self.component(k).basis), self.context)
        return self._ideals[k]

    def base_locus_empty(self, k: int) -> bool:
        """Whether Bs(F^k) is empty, 1 <= k <= rank; computed once per k."""
        if not 1 <= k <= self.rank:
            raise ValueError(f"base locus of F^{k} is asked outside 1..{self.rank}")
        flags = self._base_locus_empty
        if k not in flags:
            flags[k] = is_zero_dimensional(self.ideal(k))
        return flags[k]

    @cached_property
    def order(self) -> int:
        """Largest m with empty Bs(F^m); F^1 = W* has none, so 1 <= m <= rank."""
        for k in range(2, self.rank + 1):
            if not self.base_locus_empty(k):
                return k - 1
        return self.rank

    def component(self, k: int) -> FormSpace:
        """F^k; zero space for k beyond the rank."""
        if k < 0:
            raise ValueError("component degree must be nonnegative")
        if k <= self.rank:
            return self.components[k]
        return FormSpace.zero(self.context, k)

    def __repr__(self):
        return f"SymbolSystem(rank {self.rank}, dims {self.dims})"


def structural_diagnostics(ctx: VarContext, components: Sequence[FormSpace]) -> list[str]:
    """All axiom violations of a candidate component list, as messages."""
    return _certify(ctx, components)[0]


def _certify(ctx: VarContext, components: Sequence[FormSpace]) -> tuple[list[str], tuple]:
    """(violations, contraction table).  d_i of a row R of F^k is the integer row
    {m - e_i: m_i c}; `coordinates_of` tests it against F^(k-1) and returns its
    echelon coordinates.  Fraction forms are built only for a message."""
    out = []
    if len(components) < 2:
        out.append(f"need components for degrees 0..r with r >= 1, got {len(components)}")
        return out, ()
    r = len(components) - 1
    for k, comp in enumerate(components):
        if comp.context != ctx:
            out.append(f"component {k} lives over variables ({comp.context}), expected ({ctx})")
            return out, ()
        if comp.degree != k:
            out.append(f"component {k} holds degree-{comp.degree} forms")
            return out, ()
    if components[0] != FormSpace.full(ctx, 0):
        out.append("F^0 must be exactly the constants")
    if not components[1].is_full():
        out.append(f"F^1 must be all linear forms (dim {ctx.n}), got dim {components[1].dim}")
    if components[r].is_zero():
        out.append(f"top component F^{r} is zero; the rank is overstated")
    table = tuple(  # [k - 1][j][i]: coordinates of d_i of row j of F^k, None if outside
        tuple(tuple(components[k - 1].coordinates_of(
            {m[:i] + (m[i] - 1,) + m[i + 1:]: m[i] * c for m, c in row.items() if m[i]})
            for i in range(ctx.n)) for row in components[k].rows.values())
        for k in range(1, r + 1))
    for k, rows in enumerate(table, 1):
        for j, i in ((j, i) for j, cs in enumerate(rows) for i, c in enumerate(cs) if c is None):
            phi = components[k].basis[j]
            out.append(
                f"F^{k} is not closed under contraction: "
                f"contracting {phi} by e{i + 1} gives "
                f"{phi.derivative(i) * Fraction(1, k)}, outside F^{k - 1}")
    return out, table


def validate(ctx: VarContext, components: Sequence[FormSpace]) -> SymbolSystem:
    """Certify a candidate component list, or raise with all violations."""
    problems, table = _certify(ctx, components)
    if problems:
        raise InvalidSymbolSystem(problems)
    return SymbolSystem(ctx, tuple(components), table)


def assemble(ctx: VarContext, rank: int, graded: Mapping[int, Sequence[Polynomial]]) -> SymbolSystem:
    """Build and validate a system from degree -> generator lists, k >= 2.

    F^0 and F^1 are forced by the axioms and never supplied; a degree
    missing from `graded` is the zero component.
    """
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    for k in graded:
        if not 2 <= k <= rank:
            raise ValueError(f"generators given for degree {k}, outside 2..{rank}")
    components = [FormSpace.full(ctx, 0), FormSpace.full(ctx, 1)]
    for k in range(2, rank + 1):
        gens = list(graded.get(k, ()))
        components.append(FormSpace.span(gens, ctx, k))
    return validate(ctx, components)


def prolong(space: FormSpace) -> FormSpace:
    """Forms one degree up whose every basis-vector contraction lies in `space`.

    Up to the factor 1/(k+1), contracting x^M by e_i gives M_i x^(M - e_i).
    Its residue modulo `space`, times the lcm L of the pivot entries, is read
    off the integer rows: L*m for a non-pivot m, -(L/R[m])*(R - R[m]*m) for
    the pivot m of row R.  Scaling by L keeps the kernel, and residues live
    on the non-pivot monomials, so constraints are labelled (i, non-pivot).
    """
    k = space.degree
    if k < 1:
        raise ValueError("prolongation needs a component of degree >= 1")
    ctx, rows = space.context, space.rows
    scale = lcm(*(row[m] for m, row in rows.items()))
    residue = {m: [(m, scale)] for m in monomials_of_degree(ctx, k) if m not in rows}
    for m, row in rows.items():
        residue[m] = [(mm, -(scale // row[m]) * c) for mm, c in row.items() if mm != m]
    images = {}
    for big in monomials_of_degree(ctx, k + 1):
        images[big] = image = {}
        for i, e in enumerate(big):
            if e:
                for mm, c in residue[big[:i] + (e - 1,) + big[i + 1:]]:
                    image[i, mm] = e * c
    return kernel_of_map(ctx, k + 1, images)


def from_polynomial(p: Polynomial) -> SymbolSystem:
    """The system generated by one form: top component <P>, each lower one
    spanned by the partials of the one above, F^1 forced to W*."""
    if p.is_zero():
        raise ValueError("cannot generate a system from the zero form")
    r = p.homogeneous_degree()
    if r < 2:
        raise ValueError(f"generating form must have degree >= 2, got {r}")
    ctx = p.context
    components = [FormSpace.span([p], ctx, r)]
    for k in range(r - 1, 1, -1):
        components.append(FormSpace.span(
            [b.derivative(i) for b in components[-1].basis for i in range(ctx.n)], ctx, k))
    return validate(ctx, [FormSpace.full(ctx, 0), FormSpace.full(ctx, 1)] + components[::-1])


def full_system(n: int, rank: int, ctx: VarContext | None = None) -> SymbolSystem:
    """F^k = Sym^k W* throughout; the Veronese case."""
    if ctx is None:
        ctx = default_context(n)
    if ctx.n != n:
        raise ValueError(f"context has {ctx.n} variables, expected {n}")
    components = [FormSpace.full(ctx, k) for k in range(rank + 1)]
    return validate(ctx, components)


def order(system: SymbolSystem) -> int:
    """Largest m with empty base locus Bs(F^m); computed once per system."""
    return system.order


@dataclass(frozen=True)
class SaturationResult:
    saturated: bool
    degree2_matches: bool
    prolongation_exact: bool
    base_ideal: GroebnerBasis
    diagnostics: tuple[str, ...]

    def __bool__(self):
        return self.saturated


def is_saturated(system: SymbolSystem) -> SaturationResult:
    """Saturation predicate for systems of order 1 with F^2 != 0 (else an error).

    Two clauses: the degree-2 slice of the saturated ideal of the base
    locus must equal F^2, and the tower must be prolongation-exact
    (F^(k+1) = prolong(F^k) for 2 <= k < r, with prolong(F^r) = 0).
    """
    m = system.order
    if m != 1:
        raise SaturationPreconditionError(
            f"saturation predicate applies to systems of order 1, got order {m}")
    if system.component(2).is_zero():  # rank 1: the base ideal would be the zero ideal
        raise SaturationPreconditionError(
            "saturation predicate needs a nonzero F^2, and F^2 is zero")
    diagnostics = []
    sat = saturate_ideal(system.ideal(2))
    slice2 = graded_component(sat, 2)
    degree2_matches = slice2 == system.component(2)
    if not degree2_matches:
        diagnostics.append(
            "degree-2 slice of the saturated base-locus ideal has "
            f"dim {slice2.dim}, but F^2 has dim {system.component(2).dim}")
    prolongation_exact = True
    for k in range(2, system.rank + 1):
        grown = prolong(system.component(k))
        target = system.component(k + 1)  # zero space above the rank
        if grown == target:
            continue
        prolongation_exact = False
        witness = next((b for b in grown.basis if not target.contains(b)), None)
        if k == system.rank:
            diagnostics.append(
                f"prolong(F^{k}) is nonzero above the rank (e.g. {witness})")
        else:
            diagnostics.append(
                f"prolong(F^{k}) strictly contains F^{k + 1} (e.g. {witness})")
    return SaturationResult(
        saturated=degree2_matches and prolongation_exact,
        degree2_matches=degree2_matches,
        prolongation_exact=prolongation_exact,
        base_ideal=sat,
        diagnostics=tuple(diagnostics),
    )
