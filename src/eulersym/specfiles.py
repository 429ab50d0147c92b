"""Line-oriented input grammars and the polynomial text syntax.

System files:

    # comment
    vars: x1 x2 x3
    rank: 3
    F2: x1^2, x1*x2, x1*x3
    F3: x1^3

F^0 and F^1 are never written (the axioms force them) and a degree with
no line is the zero component.  Parametrization files use `vars:`,
`coords:` and an optional `at:` base point, and parse straight to a
`jets.Parametrization`.  Polynomial terms are
joined by + or -, each term an optional rational coefficient times
'*'-separated powers like x1^2.  Errors carry 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import ParseError
from .jets import Parametrization
from .poly import Polynomial, VarContext, format_polynomial
from .systems import SymbolSystem, assemble

# Caps on what an input may ask for.  Past them the exact algebra runs for
# hours or exhausts memory, so the input is refused before any of it starts.
MAX_RANK = 32
MAX_TERM_DEGREE = 64  # so also the largest exponent
MAX_AMBIENT = 5000  # C(n + d, n): the forms of degree <= d in n variables
MAX_DIGITS = 1000  # of one integer; Python's int() refuses strings past 4300
MAX_TRIALS = 10_000  # random instances per command; each costs up to a few ms

_TOKEN_RE = re.compile(r"(?P<ws>[ \t]+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^,])")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class _Token:
    kind: str  # int | name | op | end
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int, col: int) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col + pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), line, col + pos))
        pos = m.end()
    out.append(_Token("end", "", line, col + len(text)))
    return out


class _PolyParser:
    def __init__(self, tokens: list[_Token], ctx: VarContext):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_polynomial(self) -> Polynomial:
        total = Polynomial.zero(self.ctx)
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
        total = total + self.parse_term() * sign
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = -1 if tok.text == "-" else 1
                total = total + self.parse_term() * sign
            else:
                return total

    def parse_term(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            coeff = self.parse_rational()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.take()
                return self.parse_factors() * coeff
            return Polynomial.constant(self.ctx, coeff)
        if tok.kind == "name":
            return self.parse_factors()
        self.fail(f"expected a term, found {tok.text!r}" if tok.text
                  else "expected a term, found end of input")

    def parse_rational(self) -> Fraction:
        tok = self.take()
        num = _integer(tok.text, tok.line, tok.col)
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "/":
            self.take()
            den_tok = self.take()
            if den_tok.kind != "int":
                self.fail("expected a denominator", den_tok)
            den = _integer(den_tok.text, den_tok.line, den_tok.col)
            if den == 0:
                self.fail("zero denominator", den_tok)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factors(self) -> Polynomial:
        out = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.take()
                out = out * self.parse_factor()
                _capped(out.degree(), MAX_TERM_DEGREE, "term degree", tok.line, tok.col)
            else:
                return out

    def parse_factor(self) -> Polynomial:
        tok = self.take()
        if tok.kind != "name":
            self.fail(f"expected a variable, found {tok.text!r}" if tok.text
                      else "expected a variable, found end of input", tok)
        try:
            i = self.ctx.index(tok.text)
        except KeyError:
            self.fail(f"unknown variable {tok.text!r}", tok)
        exp = 1
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok.kind != "int":
                self.fail("expected an integer exponent", exp_tok)
            exp = _capped(exp_tok.text, MAX_TERM_DEGREE, "term degree", exp_tok.line,
                          exp_tok.col)
        return Polynomial.from_monomial(self.ctx, [exp * (j == i) for j in range(self.ctx.n)])


def parse_polynomial(text: str, ctx: VarContext, line: int = 1, col: int = 1) -> Polynomial:
    parser = _PolyParser(_tokenize(text, line, col), ctx)
    p = parser.parse_polynomial()
    tok = parser.peek()
    if tok.kind != "end":
        parser.fail(f"trailing input {tok.text!r}")
    return p


def _parse_poly_list(text: str, ctx: VarContext, line: int, col: int) -> list[tuple[Polynomial, _Token]]:
    """Comma-separated polynomials; returns each with its first token."""
    tokens = _tokenize(text, line, col)
    parser = _PolyParser(tokens, ctx)
    out = []
    while True:
        start = parser.peek()
        if start.kind == "end":
            parser.fail("expected a polynomial")
        out.append((parser.parse_polynomial(), start))
        tok = parser.peek()
        if tok.kind == "end":
            return out
        if tok.kind == "op" and tok.text == ",":
            parser.take()
            continue
        parser.fail(f"expected ',' between entries, found {tok.text!r}")


def _capped(value: int | str, cap: int, what: str, line: int, col: int) -> int:
    """`value`, an int or a decimal string of any length, if it is at most `cap`."""
    text = str(value)
    if len(text.lstrip("0")) > len(str(cap)) or int(text) > cap:
        raise ParseError(f"{what} {text} exceeds the cap {cap}", line, col)
    return int(text)


def _integer(text: str, line: int, col: int) -> int:
    """A string of decimal digits as an int, if it has at most MAX_DIGITS of them."""
    _capped(len(text), MAX_DIGITS, "digit count", line, col)
    return int(text)


def _check_ambient(n: int, degree: int, line: int, col: int):
    _capped(comb(n + degree, n), MAX_AMBIENT,
            f"ambient size (forms of degree <= {degree} in {n} variables)", line, col)


def _split_lines(text: str):
    """Yield (line_number, key, key_col, payload, payload_col) content lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if ":" not in body:
            col = len(body) - len(body.lstrip()) + 1
            raise ParseError("expected 'key: value'", lineno, col)
        key_part, payload = body.split(":", 1)
        key = key_part.strip()
        key_col = len(key_part) - len(key_part.lstrip()) + 1
        payload_col = len(key_part) + 2 + (len(payload) - len(payload.lstrip()))
        yield lineno, key, key_col, payload.strip(), payload_col


def _parse_vars(payload: str, lineno: int, col: int) -> VarContext:
    names = payload.split()
    if not names:
        raise ParseError("no variables listed", lineno, col)
    seen = set()
    for name in names:
        if not _NAME_RE.match(name):
            raise ParseError(f"bad variable name {name!r}", lineno, col)
        if name in seen:
            raise ParseError(f"duplicate variable {name!r}", lineno, col)
        seen.add(name)
    return VarContext(tuple(names))


@dataclass(frozen=True)
class SymbolFile:
    context: VarContext
    rank: int
    generators: dict[int, tuple[Polynomial, ...]]


def parse_symbol_file(text: str) -> SymbolFile:
    ctx = None
    rank = None
    generators: dict[int, tuple[Polynomial, ...]] = {}
    for lineno, key, key_col, payload, payload_col in _split_lines(text):
        if key == "vars":
            if ctx is not None:
                raise ParseError("duplicate vars line", lineno, key_col)
            ctx = _parse_vars(payload, lineno, payload_col)
        elif key == "rank":
            if rank is not None:
                raise ParseError("duplicate rank line", lineno, key_col)
            if not payload.isdecimal() or not payload.lstrip("0"):
                raise ParseError("rank must be a positive integer", lineno, payload_col)
            rank = _capped(payload, MAX_RANK, "rank", lineno, payload_col)
            rank_at = lineno, payload_col
        elif re.fullmatch(r"F\d+", key):
            k = _integer(key[1:], lineno, key_col + 1)
            if ctx is None:
                raise ParseError("vars must come before component lines", lineno, key_col)
            if k < 2:
                raise ParseError(f"F{k} is fixed by the axioms and never written",
                                 lineno, key_col)
            if k in generators:
                raise ParseError(f"duplicate F{k} line", lineno, key_col)
            entries = _parse_poly_list(payload, ctx, lineno, payload_col)
            for p, tok in entries:
                if p.is_zero():
                    raise ParseError("zero polynomial listed as a generator",
                                     tok.line, tok.col)
                d = p.homogeneous_degree() if p.is_homogeneous() else None
                if d != k:
                    raise ParseError(
                        f"generator of F{k} must be homogeneous of degree {k}: {p}",
                        tok.line, tok.col)
            generators[k] = tuple(p for p, _ in entries)
        else:
            raise ParseError(f"unknown key {key!r}", lineno, key_col)
    if ctx is None:
        raise ParseError("missing vars line", 1, 1)
    if rank is None:
        raise ParseError("missing rank line", 1, 1)
    _check_ambient(ctx.n, rank, *rank_at)
    for k in generators:
        if k > rank:
            raise ParseError(f"component F{k} exceeds the declared rank {rank}", 1, 1)
    return SymbolFile(ctx, rank, generators)


def system_from_file(text: str) -> SymbolSystem:
    """Parse and validate in one step."""
    sf = parse_symbol_file(text)
    return assemble(sf.context, sf.rank, {k: list(v) for k, v in sf.generators.items()})


def format_symbol_file(system: SymbolSystem) -> str:
    lines = [f"vars: {system.context}", f"rank: {system.rank}"]
    for k in range(2, system.rank + 1):
        comp = system.component(k)
        if comp.is_zero():
            continue
        lines.append(f"F{k}: " + ", ".join(format_polynomial(b) for b in comp.basis))
    return "\n".join(lines) + "\n"


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?$")


def _parse_rational_list(payload: str, lineno: int, col: int) -> tuple[Fraction, ...]:
    chunks = payload.split(",")
    out = []
    offset = col
    for chunk in chunks:
        stripped = chunk.strip()
        at = offset + (len(chunk) - len(chunk.lstrip()))
        if not _RATIONAL_RE.match(stripped):
            raise ParseError(f"expected a rational number, found {stripped!r}", lineno, at)
        num, _, den = stripped.partition("/")
        _integer(num.lstrip("+-"), lineno, at)
        if den and _integer(den, lineno, at + len(num) + 1) == 0:
            raise ParseError("zero denominator", lineno, at + len(num) + 1)
        out.append(Fraction(stripped))
        offset += len(chunk) + 1
    return tuple(out)


def parse_param_file(text: str) -> Parametrization:
    ctx = None
    coords = None
    base = None
    for lineno, key, key_col, payload, payload_col in _split_lines(text):
        if key == "vars":
            if ctx is not None:
                raise ParseError("duplicate vars line", lineno, key_col)
            ctx = _parse_vars(payload, lineno, payload_col)
        elif key == "coords":
            if coords is not None:
                raise ParseError("duplicate coords line", lineno, key_col)
            if ctx is None:
                raise ParseError("vars must come before coords", lineno, key_col)
            coords = tuple(p for p, _ in _parse_poly_list(payload, ctx, lineno, payload_col))
            _check_ambient(ctx.n, max(p.degree() or 0 for p in coords), lineno, payload_col)
        elif key == "at":
            if base is not None:
                raise ParseError("duplicate at line", lineno, key_col)
            base = _parse_rational_list(payload, lineno, payload_col)
        else:
            raise ParseError(f"unknown key {key!r}", lineno, key_col)
    if ctx is None:
        raise ParseError("missing vars line", 1, 1)
    if coords is None:
        raise ParseError("missing coords line", 1, 1)
    if base is not None and len(base) != ctx.n:
        raise ParseError(f"base point needs {ctx.n} coordinates, got {len(base)}", 1, 1)
    return Parametrization(ctx, coords, base)


def parse_point_file(text: str, n: int) -> list[tuple[Fraction, ...]]:
    """One rational vector per line, comma separated."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        vec = _parse_rational_list(body, lineno, 1)
        if len(vec) != n:
            raise ParseError(f"expected {n} coordinates, got {len(vec)}", lineno, 1)
        points.append(vec)
    return points
