"""Linear subspaces of a fixed graded piece Sym^k W*.

A FormSpace is a frozen record of `echelon`'s rows keyed by monomial:
{pivot: primitive integer row}, pivots descending in grevlex.  That form
is canonical, so two spaces are equal exactly when their rows coincide.
The `Fraction` basis, each row over its pivot entry, is built on first read.

A space is given either by spanning forms (`FormSpace.span`) or by
linear conditions (`kernel_of_map`, which `vanishing_space`, `prolong`
and `implicitize` call).  Both build sparse rows {column: value} straight
from polynomial terms and take one fraction-free `echelon`, the only
elimination loop.  Membership has one rule, `coordinates_of`: an integer
row lies in the space when it eliminates to zero against the stored rows
on that same loop, and then its entries at the pivots are its echelon
coordinates.  `contains` clears a form to that row first.  `rref` and
`nullspace` are the dense wrappers over the same elimination and kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm, prod
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import ContextMismatchError, HomogeneityError
from .poly import GREVLEX, Monomial, Polynomial, VarContext, _one_per_variable


def monomials_of_degree(ctx: VarContext, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, descending grevlex."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return list(_monomials(ctx.n, degree))


@lru_cache(maxsize=None)
def _monomials(n: int, degree: int) -> tuple[Monomial, ...]:
    out: list[Monomial] = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            fill(prefix + (e,), remaining - e, slots - 1)

    fill((), degree, n)
    return tuple(GREVLEX.sorted_desc(out))


def echelon(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, int]]:
    """Fraction-free reduced echelon form of sparse rational rows.

    Each row {column: value} becomes a primitive integer row and is
    reduced against the pivot rows so far; a new pivot row back-reduces
    the older ones, so they stay mutually reduced.  Returns {pivot column:
    primitive integer row}, each row positive at its pivot (its smallest
    column) and zero at every other pivot: the reduced row is row / row[pivot].
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _reduced(_primitive(row), basis)
        if r:
            col = min(r)
            if r[col] < 0:
                r = {j: -c for j, c in r.items()}
            for j, b in basis.items():
                if col in b:
                    basis[j] = _reduced(b, {col: r})
            basis[col] = r
    return basis


def _primitive(row: Mapping[Hashable, Fraction]) -> dict:
    """The nonzero entries of a rational row, cleared to a primitive integer row."""
    nonzero = [(j, c) for j, c in row.items() if c]
    den = lcm(*(c.denominator for _, c in nonzero))
    return _content_free({j: c.numerator * (den // c.denominator) for j, c in nonzero})


def _reduced(r: dict, basis: Mapping[Hashable, dict]) -> dict:
    """The integer row r eliminated against the pivot rows {pivot: row} it meets."""
    for j in [j for j in r if j in basis]:  # pivot rows are 0 on other pivots
        r = _eliminate(r, basis[j], j)
    return r


def _content_free(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: c // g for j, c in row.items()} if g > 1 else row


def _eliminate(r: dict, p: dict, j) -> dict:
    """p[j]*r - r[j]*p made primitive; p[j] > 0 is a pivot, so r keeps its sign."""
    g = gcd(p[j], r[j])
    a, b = p[j] // g, r[j] // g
    out = {i: a * c for i, c in r.items()}
    for i, c in p.items():
        v = out.get(i, 0) - b * c
        if v:
            out[i] = v
        else:
            del out[i]
    return _content_free(out)


def _kernel(basis: dict[int, dict[int, int]], width: int) -> list[dict[int, int]]:
    """Kernel basis of the echelon rows, one vector per free column f in
    ascending order, with its columns ascending: (1 at f, -row_p[f] / row_p[p]
    at each pivot p < f) scaled to a primitive integer vector, positive at f."""
    vecs: dict[int, dict[int, int]] = {f: {} for f in range(width) if f not in basis}
    for p in sorted(basis):
        for j, c in basis[p].items():
            if j != p:  # reduced rows are 0 on the other pivots: j is free
                vecs[j][p] = c
    for f, vec in vecs.items():
        lead = lcm(*(basis[p][p] for p in vec))
        for p in vec:
            vec[p] *= -(lead // basis[p][p])
        vec[f] = lead
    return [_content_free(vec) for vec in vecs.values()]


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Exact reduced row echelon form of dense rows; returns (rows, pivot columns)."""
    if not rows:
        return [], []
    basis = echelon(dict(enumerate(row)) for row in rows)
    pivots = sorted(basis)
    out = [[Fraction(0)] * len(rows[0]) for _ in pivots]
    for dense, p in zip(out, pivots):
        for j, c in basis[p].items():
            dense[j] = Fraction(c, basis[p][p])
    return out, pivots


def nullspace(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for the matrix with the given dense rows."""
    basis = echelon(dict(enumerate(row)) for row in rows)
    out = []
    for vec in _kernel(basis, width):
        lead = vec[max(vec)]  # the free column
        dense = [Fraction(0)] * width
        for j, c in vec.items():
            dense[j] = Fraction(c, lead)
        out.append(dense)
    return out


@dataclass(frozen=True)
class FormSpace:
    """A subspace of the degree-k forms, held as `echelon`'s rows keyed by monomial."""

    context: VarContext
    degree: int
    rows: dict[Monomial, dict[Monomial, int]]

    @cached_property
    def basis(self) -> tuple[Polynomial, ...]:
        """The rows as Fraction forms, each over its pivot entry; built on first read."""
        return tuple(
            Polynomial._trusted(self.context, {m: Fraction(c, row[p]) for m, c in row.items()})
            for p, row in self.rows.items())

    # -- constructors

    @classmethod
    def span(cls, polys: Iterable[Polynomial], ctx: VarContext | None = None,
             degree: int | None = None) -> "FormSpace":
        polys = [p for p in polys if not p.is_zero()]
        if polys:
            if ctx is None:
                ctx = polys[0].context
            if degree is None:
                degree = polys[0].homogeneous_degree()
        if ctx is None or degree is None:
            raise ValueError("spanning an empty set needs an explicit context and degree")
        for p in polys:
            if p.context != ctx:
                raise ContextMismatchError(
                    f"incompatible variable lists: ({p.context}) vs ({ctx})")
            if p.homogeneous_degree() != degree:
                raise HomogeneityError(
                    f"expected a homogeneous form of degree {degree}, got {p}")
        monos = monomials_of_degree(ctx, degree)
        index = {m: j for j, m in enumerate(monos)}
        basis = echelon({index[e]: c for e, c in p.terms.items()} for p in polys)
        return cls(ctx, degree, {monos[p]: {monos[j]: c for j, c in sorted(basis[p].items())}
                                 for p in sorted(basis)})

    @classmethod
    def zero(cls, ctx: VarContext, degree: int) -> "FormSpace":
        return cls(ctx, degree, {})

    @classmethod
    def full(cls, ctx: VarContext, degree: int) -> "FormSpace":
        """All degree-k forms: the monomials are already reduced echelon rows."""
        return cls(ctx, degree, {m: {m: 1} for m in monomials_of_degree(ctx, degree)})

    # -- structure

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == comb(self.context.n + self.degree - 1, self.degree)

    def _accepts(self, p: Polynomial):
        if p.context != self.context:
            raise ContextMismatchError(
                f"incompatible variable lists: ({p.context}) vs ({self.context})")
        if not p.is_zero() and p.homogeneous_degree() != self.degree:
            raise HomogeneityError(
                f"space holds degree-{self.degree} forms, got degree {p.homogeneous_degree()}")

    def reduce(self, p: Polynomial) -> Polynomial:
        """p - sum_j p[pivot_j] b_j: each basis row is 1 at its pivot, 0 at the others."""
        self._accepts(p)
        out = dict(p.terms)
        for pivot, row in zip(self.rows, self.basis):
            c = p.terms.get(pivot)
            if c:
                for m, v in row.terms.items():
                    s = out.get(m, 0) - c * v
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial._trusted(self.context, out)

    def contains(self, p: Polynomial) -> bool:
        """Whether p, cleared to a primitive integer row, lies in the space."""
        self._accepts(p)
        return self.coordinates_of(_primitive(p.terms)) is not None

    def coordinates_of(self, row: Mapping[Monomial, int]) -> list[int] | None:
        """Echelon coordinates of an integer row {monomial: nonzero int}, or None if
        it does not eliminate to zero against `rows`.  Each basis row is 1 at its
        own pivot and 0 at the others, so they are the row's entries at the pivots."""
        if _reduced(row, self.rows):
            return None
        return [row.get(pivot, 0) for pivot in self.rows]

    def __hash__(self):
        return hash((self.context, self.degree, frozenset(self.rows)))  # equal spaces share pivots

    def __repr__(self):
        gens = ", ".join(str(p) for p in self.basis) or "0"
        return f"FormSpace(deg {self.degree}: {gens})"


def kernel_of_map(ctx: VarContext, degree: int,
                  images: Mapping[Monomial, Mapping[Hashable, Fraction]]) -> FormSpace:
    """Forms of the given degree killed by a linear map described on monomials.

    `images[m]` is the map's value on the degree-`degree` monomial m, as a
    sparse {label: exact value}; labels are any hashables, and a missing
    label is zero.  The condition matrix gets one row per label and its
    columns in ascending grevlex, so the kernel vector of a free column has
    that column as its largest monomial and is zero on every other free
    column: the kernel read off `echelon` is already the canonical rows,
    with the largest pivot last, and no second elimination is needed.
    """
    monos = monomials_of_degree(ctx, degree)[::-1]
    rows: dict[Hashable, dict[int, Fraction]] = {}
    for j, m in enumerate(monos):
        for label, c in images[m].items():
            if c:
                rows.setdefault(label, {})[j] = c
    return FormSpace(ctx, degree, {  # a vector's free column is its largest monomial
        monos[max(vec)]: {monos[j]: c for j, c in vec.items()}
        for vec in reversed(_kernel(echelon(rows.values()), len(monos)))})


def vanishing_space(ctx: VarContext, degree: int, points: Sequence[Sequence]) -> FormSpace:
    """Forms of the given degree vanishing at every listed point."""
    points = [_one_per_variable([Fraction(c) for c in pt], ctx) for pt in points]
    return kernel_of_map(ctx, degree, {
        m: {i: prod(c**e for c, e in zip(pt, m)) for i, pt in enumerate(points)}
        for m in monomials_of_degree(ctx, degree)})
