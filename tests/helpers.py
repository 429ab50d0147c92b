"""Shared helpers for building random exact-arithmetic test data."""

import random
from fractions import Fraction
from math import comb
from typing import Sequence

from eulersym import (Polynomial, ProjectivePoint, VarContext, contract, evaluate,
                      monomials_of_degree, vanishing_space)
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
