"""Jet filtrations of affine parametrizations and the graded systems they carry.

Given coordinate functions c_1..c_M in parameters z_1..z_n, the span of
{1, c_1, ..., c_M} is filtered by vanishing order at a base point a.
With J the Jacobian of c_1..c_n at a, read off their derivatives, one
affine substitution z -> J^(-1) z + a moves the point to the origin and
gives the first n functions the standard linear parts, exactly; then the
coefficient matrix is row-reduced once, with columns grouped by
increasing degree.  Each reduced row vanishes to the exact order of its
pivot column, and the degree-k leading terms of the order-k rows are
the canonical rows of the degree-k graded piece, read off as they stand.
The elimination is exact and complete, so the filtration's length is
computed from the input, never supplied.

At a general base point those pieces form a symbol system; this module
reports the closure diagnostics rather than assuming them.  A `.par`
file parses straight to a `Parametrization` (`specfiles.parse_param_file`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import sampling
from .errors import AlgebraError, ContextMismatchError, ImmersionError
from .poly import GREVLEX, Polynomial, VarContext, evaluate, substitute
from .spaces import FormSpace, _primitive, echelon, monomials_of_degree, nullspace, rref
from .systems import structural_diagnostics


@dataclass(frozen=True)
class Parametrization:
    context: VarContext
    coords: tuple[Polynomial, ...]
    base_point: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if not self.coords:
            raise ValueError("a parametrization needs at least one coordinate function")
        for c in self.coords:
            if c.context != self.context:
                raise ContextMismatchError(
                    f"coordinate {c} lives over ({c.context}), expected ({self.context})")
        if self.base_point is not None and len(self.base_point) != self.context.n:
            raise ValueError("base point length does not match the parameter count")


@dataclass(frozen=True)
class JetFiltration:
    context: VarContext
    base_point: tuple[Fraction, ...]
    rows: tuple[tuple[int, Polynomial], ...]  # (vanishing order, reduced row)

    @property
    def max_order(self) -> int:
        return max(o for o, _ in self.rows)

    @property
    def dims(self) -> tuple[int, ...]:
        counts = [0] * (self.max_order + 1)
        for o, _ in self.rows:
            counts[o] += 1
        return tuple(counts)


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in reduced]


def jet_filtration(param: Parametrization,
                   base: Sequence | None = None) -> JetFiltration:
    """Filtration of span{1, coords} by vanishing order at the base point."""
    ctx = param.context
    n = ctx.n
    if base is None:
        base = param.base_point if param.base_point is not None else (Fraction(0),) * n
    base = tuple(Fraction(c) for c in base)
    if len(base) != n:
        raise ValueError("base point length does not match the parameter count")
    if len(param.coords) < n:
        raise ImmersionError(
            f"need at least {n} coordinate functions to chart {n} parameters")
    lin = [[evaluate(c.derivative(j), base) for j in range(n)] for c in param.coords[:n]]
    inv = _invert(lin)
    if inv is None:
        kernel = nullspace(lin, n)
        directions = "; ".join("(" + ", ".join(str(c) for c in v) + ")" for v in kernel)
        raise ImmersionError(
            "the first coordinate functions are degenerate at this base point; "
            f"flat directions: {directions}")
    # z_i -> sum_j inv[i][j] z_j + a_i: the base point moves to the origin
    # and the first n functions get the standard linear parts, in one pass
    one = (0,) * n
    images = []
    for row, a in zip(inv, base):
        image = {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(row) if c}
        if a:
            image[one] = a
        images.append(image)
    changed = [substitute(c, ctx, images) for c in param.coords]

    rows_polys = [Polynomial.constant(ctx, 1)] + changed
    max_deg = max(p.degree() or 0 for p in rows_polys)
    columns = []
    for d in range(max_deg + 1):
        columns.extend(monomials_of_degree(ctx, d))
    index = {m: j for j, m in enumerate(columns)}
    basis = echelon({index[e]: c for e, c in p.terms.items()} for p in rows_polys)
    out = []
    for pc, row in sorted(basis.items()):
        terms = {columns[j]: Fraction(c, row[pc]) for j, c in sorted(row.items())}
        out.append((sum(columns[pc]), Polynomial._trusted(ctx, terms)))
    return JetFiltration(ctx, base, tuple(out))


@dataclass(frozen=True)
class FFSystem:
    """Graded pieces read off a jet filtration, symbol system or not."""

    context: VarContext
    base_point: tuple[Fraction, ...]
    components: tuple[FormSpace, ...]
    closure_diagnostics: tuple[str, ...]
    filtration_dims: tuple[int, ...]  # the jet filtration's dims by vanishing order

    @property
    def rank(self) -> int:
        return len(self.components) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    @property
    def is_symbol_system(self) -> bool:
        return not self.closure_diagnostics

    def component(self, k: int) -> FormSpace:
        return self.components[k]


def extract_fundamental_forms(param: Parametrization,
                              base: Sequence | None = None) -> FFSystem:
    """Leading terms of the jet filtration, graded by vanishing order.

    The filtration's rows come in ascending pivot column, its columns
    ascend by degree and descend in grevlex within a degree, and each row
    is zero at every other pivot.  So an order-o row's pivot is the
    grevlex-largest monomial of its degree-o part, and those parts, each
    positive at its pivot and zero at the other pivots, are already the
    reduced echelon rows of G^o in FormSpace's order: cleared by
    `_primitive`, they are its canonical rows, with no second elimination.
    """
    filt = jet_filtration(param, base)
    pieces: list[dict] = [{} for _ in range(filt.max_order + 1)]
    for o, row in filt.rows:
        part = {m: c for m, c in row.terms.items() if sum(m) == o}
        pieces[o][GREVLEX.max(part)] = _primitive(part)
    components = [FormSpace(filt.context, d, rows) for d, rows in enumerate(pieces)]
    diagnostics = tuple(structural_diagnostics(filt.context, components))
    return FFSystem(filt.context, filt.base_point, tuple(components), diagnostics,
                    filt.dims)


@dataclass(frozen=True)
class CartanEntry:
    base_point: tuple[Fraction, ...]
    dims: tuple[int, ...]
    passed: bool
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class CartanReport:
    entries: tuple[CartanEntry, ...]
    skipped: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def cartan_check(param: Parametrization, trials: int = 5, seed: int = 0) -> CartanReport:
    """Extract at random base points and test the closure axiom at each.

    Base points are drawn with every coordinate nonzero, the cheap proxy
    for general position; probe special points by passing an explicit
    base to extract_fundamental_forms instead.  Degenerate extractions
    are skipped and counted, never silently retried into a pass.
    """
    rng = random.Random(seed)
    entries = []
    skipped = 0
    attempts = 0
    while len(entries) < trials:
        attempts += 1
        if attempts > 20 * trials:
            raise AlgebraError(
                "could not find enough nondegenerate base points "
                f"({skipped} degenerate draws)")
        base = sampling.generic_vector(rng, param.context.n)
        try:
            ff = extract_fundamental_forms(param, base)
        except ImmersionError:
            skipped += 1
            continue
        entries.append(CartanEntry(
            base_point=base,
            dims=ff.dims,
            passed=ff.is_symbol_system,
            diagnostics=ff.closure_diagnostics,
        ))
    return CartanReport(tuple(entries), skipped)
