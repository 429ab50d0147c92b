"""Exact algebra of the benchmark's own, used to make inputs and check answers.

Nothing here imports eulersym: the checks must not trust the code they
check.  A polynomial is a dict {exponent tuple: nonzero Fraction}.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from itertools import combinations


def key(m):
    """Graded reverse-lexicographic sort key; larger key = larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def unit(n, i):
    return tuple(int(j == i) for j in range(n))


def linear_form(row):
    n = len(row)
    return {unit(n, i): Fraction(c) for i, c in enumerate(row) if c}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def product(factors, n):
    out = {(0,) * n: Fraction(1)}
    for f in factors:
        out = mul(out, f)
    return out


def products_of(forms, k):
    """All products of k distinct members of `forms`."""
    n = len(next(iter(forms[0])))
    return [product(c, n) for c in combinations(forms, k)]


def monomials(n, degree, squarefree=False):
    if n == 1:
        return [(degree,)] if degree <= 1 or not squarefree else []
    out = []
    for e in range(min(degree, 1 if squarefree else degree) + 1):
        out.extend((e,) + rest for rest in monomials(n - 1, degree - e, squarefree))
    return out


def substitute(p, perm, scale):
    """x_i -> scale[i] * y_perm[i], a monomial change of frame."""
    out = {}
    for e, c in p.items():
        f = [0] * len(e)
        for i, k in enumerate(e):
            f[perm[i]] = k
            c = c * Fraction(scale[i]) ** k
        out[tuple(f)] = c
    return out


def invert_frame(perm, scale):
    inv = [0] * len(perm)
    inv_scale = [Fraction(0)] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
        inv_scale[j] = 1 / Fraction(scale[i])
    return inv, inv_scale


def evaluate(p, point):
    total = Fraction(0)
    for e, c in p.items():
        for v, k in zip(point, e):
            if k:
                c = c * v ** k
        total += c
    return total


def canonical(polys):
    """Reduced row echelon basis of the span, as ((monomial, coeff), ...) rows.

    Columns are every monomial that occurs, in descending `key` order; that
    set is the support of the span, so the result depends on the span only.
    """
    polys = [p for p in polys if p]
    cols = sorted({m for p in polys for m in p}, key=key, reverse=True)
    rows = [[p.get(m, Fraction(0)) for m in cols] for p in polys]
    rank = 0
    for j in range(len(cols)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][j]:
                f = rows[r][j]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return tuple(tuple((m, c) for m, c in zip(cols, row) if c) for row in rows[:rank])


def digest(polys):
    """Short hash of the canonical basis of the span of `polys`."""
    text = "|".join(";".join(f"{m}:{c}" for m, c in row) for row in canonical(polys))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def point_digest(coords):
    text = ":".join(str(Fraction(c)) for c in coords)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ text

_SPLIT = re.compile(r" ([+-]) ")


def parse(text, names):
    """Polynomial in the printed form of the library and its input files."""
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    first = 1
    if text.startswith("-"):
        first, text = -1, text[1:].lstrip()
    parts = _SPLIT.split(text)
    signed = [(first, parts[0])]
    signed += [(1 if parts[i] == "+" else -1, parts[i + 1]) for i in range(1, len(parts), 2)]
    out = {}
    for sign, body in signed:
        coeff = Fraction(sign)
        expo = [0] * len(names)
        for factor in body.replace(" ", "").split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                expo[index[name]] += int(power or 1)
        e = tuple(expo)
        s = out.get(e, 0) + coeff
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def parse_list(text, names):
    text = text.strip()
    return [parse(chunk, names) for chunk in text.split(",")] if text else []


def format_poly(p, names):
    """Text in the input-file grammar, terms in descending `key` order."""
    if not p:
        return "0"
    out = []
    for m in sorted(p, key=key, reverse=True):
        c = p[m]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, m) if k)
        mag = abs(c)
        body = (str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}")
        out.append(("-" if c < 0 else "+", body))
    text = out[0][1] if out[0][0] == "+" else "-" + out[0][1]
    return text + "".join(f" {s} {b}" for s, b in out[1:])


def read_system(text):
    """(names, rank, {degree: [poly, ...]}) from a system file."""
    names, rank, graded = None, None, {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        k, _, payload = line.partition(":")
        k = k.strip()
        if k == "vars":
            names = payload.split()
        elif k == "rank":
            rank = int(payload)
        else:
            graded[int(k[1:])] = parse_list(payload, names)
    return names, rank, graded


def read_param(text):
    """(names, [coordinate poly, ...]) from a parametrization file."""
    names, coords = None, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        k, _, payload = line.partition(":")
        if k.strip() == "vars":
            names = payload.split()
        elif k.strip() == "coords":
            coords = parse_list(payload, names)
    return names, coords
