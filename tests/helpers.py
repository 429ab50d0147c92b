"""Shared helpers for building random exact-arithmetic test data."""

import random
from fractions import Fraction

from eulersym import Polynomial, VarContext, evaluate, monomials_of_degree, vanishing_space
from eulersym import sampling
from eulersym.model import random_image_point


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
