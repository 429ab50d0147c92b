"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent tuples to nonzero Fraction
coefficients, tied to a ``VarContext`` that fixes the ordered variable
list.  All arithmetic is exact; nothing here ever touches floats.

Every substitution x_i -> f_i goes through one rule, `substitute`: the
powers of each image f_i are expanded once, up to the largest exponent
of x_i in p, and each term of p becomes one product of those powers.
`translate` (f_i = x_i + a_i) and `compose_linear` (f_i a linear form)
only build their images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import ContextMismatchError, HomogeneityError

Monomial = tuple[int, ...]
Scalar = Fraction


@dataclass(frozen=True)
class VarContext:
    """An ordered, duplicate-free tuple of variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("a variable context needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __str__(self):
        return " ".join(self.names)


def context(*names: str) -> VarContext:
    return VarContext(tuple(names))


def default_context(n: int) -> VarContext:
    return VarContext(tuple(f"x{i}" for i in range(1, n + 1)))


# ---------------------------------------------------------------------------
# monomial orders

def grevlex_key(m: Monomial):
    """Sort key; larger key = larger monomial in graded reverse lex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def lex_key(m: Monomial):
    return m


class MonomialOrder:
    """A total order on exponent tuples, given by a sort key."""

    __slots__ = ("name", "key")

    def __init__(self, name, key):
        self.name = name
        self.key = key

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)

    def sorted_desc(self, monomials: Iterable[Monomial]) -> list[Monomial]:
        return sorted(monomials, key=self.key, reverse=True)

    def __repr__(self):
        return f"MonomialOrder({self.name})"


GREVLEX = MonomialOrder("grevlex", grevlex_key)
LEX = MonomialOrder("lex", lex_key)


# ---------------------------------------------------------------------------
# polynomials

def _as_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def _one_per_variable(vals: list, ctx: VarContext, what: str = "point") -> list:
    """vals, once checked to hold one coordinate per variable of ctx."""
    if len(vals) != ctx.n:
        raise ContextMismatchError(
            f"{what} has {len(vals)} coordinates, context has {ctx.n} variables")
    return vals


def _mul_terms(f: Mapping[Monomial, Fraction],
               g: Mapping[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    """Product of two clean term dicts, as a clean term dict."""
    out: dict[Monomial, Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2  # both nonzero
            else:
                s += c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


class Polynomial:
    """Immutable sparse polynomial: {exponent tuple: nonzero Fraction}."""

    # _lead caches (order, leading monomial); see groebner.leading_monomial
    __slots__ = ("context", "terms", "_lead")

    def __init__(self, ctx: VarContext, terms: Mapping[Monomial, Scalar] | Iterable):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        n = ctx.n
        for expo, coeff in items:
            expo = tuple(expo)
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {n} variables")
            c = clean.get(expo, Fraction(0)) + _as_scalar(coeff)
            if c:
                clean[expo] = c
            else:
                clean.pop(expo, None)
        object.__setattr__(self, "context", ctx)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    @classmethod
    def _trusted(cls, ctx: VarContext, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap an already clean {valid exponent: nonzero Fraction} dict as is.

        Only for the results of arithmetic on valid polynomials; anything
        read from outside goes through the checking constructor.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "context", ctx)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_lead", None)
        return p

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- constructors

    @classmethod
    def zero(cls, ctx: VarContext) -> "Polynomial":
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx: VarContext, c) -> "Polynomial":
        return cls(ctx, {(0,) * ctx.n: _as_scalar(c)})

    @classmethod
    def variable(cls, ctx: VarContext, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else ctx.index(name_or_index)
        expo = tuple(1 if j == i else 0 for j in range(ctx.n))
        return cls(ctx, {expo: Fraction(1)})

    @classmethod
    def from_monomial(cls, ctx: VarContext, expo: Monomial, coeff=1) -> "Polynomial":
        return cls(ctx, {tuple(expo): _as_scalar(coeff)})

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous (None for zero), else HomogeneityError."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError(f"polynomial is not homogeneous: {self}")
        return degs.pop()

    def coefficient(self, expo: Monomial) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.terms[m]) for m in order.sorted_desc(self.terms)]

    def _check_context(self, other: "Polynomial"):
        if self.context != other.context:
            raise ContextMismatchError(
                f"incompatible variable lists: ({self.context}) vs ({other.context})"
            )

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, Fraction(0)) + c
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return Polynomial._trusted(self.context, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            if not c:
                return Polynomial.zero(self.context)
            return Polynomial._trusted(self.context, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        return Polynomial._trusted(self.context, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.constant(self.context, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- evaluation and calculus

    def __call__(self, point: Sequence) -> Fraction:
        return evaluate(self, point)

    def derivative(self, i: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            e = list(expo)
            e[i] -= 1
            key = tuple(e)
            s = out.get(key, Fraction(0)) + c * expo[i]
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Polynomial._trusted(self.context, out)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def evaluate(p: Polynomial, point: Sequence) -> Fraction:
    """Exact value of p at a rational point."""
    vals = _one_per_variable([_as_scalar(c) for c in point], p.context)
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for v, e in zip(vals, expo):
            if e:
                term *= v**e
        total += term
    return total


def contract(p: Polynomial, v: Sequence, times: int = 1) -> Polynomial:
    """times-fold contraction of a homogeneous p by the vector v.

    Each step divides the directional derivative by the current degree,
    so the full k-fold contraction of a degree-k form equals evaluation.
    Contracting more times than the degree gives zero.
    """
    if times < 0:
        raise ValueError("contraction count must be nonnegative")
    if p.is_zero() or times == 0:
        return p
    k = p.homogeneous_degree()
    if times > k:
        return Polynomial.zero(p.context)
    vals = _one_per_variable([_as_scalar(c) for c in v], p.context, "vector")
    out = p
    for step in range(times):
        out = sum((out.derivative(i) * c for i, c in enumerate(vals) if c),
                  Polynomial.zero(p.context)) * Fraction(1, k - step)
    return out


def substitute(p: Polynomial, ctx: VarContext,
               images: Sequence[Mapping[Monomial, Fraction]]) -> Polynomial:
    """p with x_i -> images[i], each image a clean term dict over ctx.

    The powers of each image are expanded once, up to the largest
    exponent of x_i in p, and each term of p becomes one product of them.
    """
    one = (0,) * ctx.n
    powers = []
    for i, image in enumerate(images):
        pw = [{one: Fraction(1)}]
        for _ in range(max((e[i] for e in p.terms), default=0)):
            pw.append(_mul_terms(pw[-1], image))
        powers.append(pw)
    out: dict[Monomial, Fraction] = {}
    for expo, coeff in p.terms.items():
        term = {one: coeff}
        for pw, e in zip(powers, expo):
            if e:
                term = _mul_terms(term, pw[e])
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
    return Polynomial._trusted(ctx, {m: c for m, c in out.items() if c})


def translate(p: Polynomial, point: Sequence) -> Polynomial:
    """Substitute x_i -> x_i + a_i, exactly."""
    vals = [_as_scalar(c) for c in point]
    ctx = p.context
    n = ctx.n
    if len(vals) != n:
        raise ContextMismatchError(
            f"point has {len(vals)} coordinates, context has {n} variables"
        )
    images = [{tuple(int(j == i) for j in range(n)): Fraction(1)} for i in range(n)]
    for image, a in zip(images, vals):
        if a:
            image[(0,) * n] = a
    return substitute(p, ctx, images)


def compose_linear(p: Polynomial, matrix: Sequence[Sequence]) -> Polynomial:
    """Substitute x_i -> sum_j matrix[i][j] * x_j."""
    ctx = p.context
    n = ctx.n
    rows = [[_as_scalar(c) for c in row] for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ContextMismatchError("substitution matrix must be square of size n")
    return substitute(p, ctx, [{tuple(int(j == k) for k in range(n)): c
                                for j, c in enumerate(row) if c} for row in rows])


# ---------------------------------------------------------------------------
# printing

def _format_bare_monomial(ctx: VarContext, expo: Monomial) -> str:
    parts = []
    for name, e in zip(ctx.names, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text form; parseable by the same grammar the CLI reads."""
    if p.is_zero():
        return "0"
    chunks = []
    for expo, coeff in p.sorted_terms(order):
        mono = _format_bare_monomial(p.context, expo)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        sign = "-" if coeff < 0 else "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text
