"""Seeded rational sampling used by every randomized check.

All draws go through random.Random so a seed pins the whole stream.
Default height: numerators in [-20, 20], denominators in [1, 10].
Direction samples are sparse-biased: each coordinate is zeroed with
probability 1/3 so degenerate strata (base loci, coordinate walls) are
actually exercised instead of being measure-zero wishful thinking.
"""

from __future__ import annotations

import random
from fractions import Fraction

NUM_RANGE = (-20, 20)
DEN_RANGE = (1, 10)


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(*NUM_RANGE), rng.randint(*DEN_RANGE))


def nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        q = rational(rng)
        if q:
            return q


def vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rational(rng) for _ in range(n))


def generic_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Every coordinate nonzero; a stand-in for a general point."""
    return tuple(nonzero_rational(rng) for _ in range(n))


def sparse_direction(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Nonzero vector whose coordinates vanish independently with prob 1/3."""
    while True:
        v = tuple(Fraction(0) if rng.random() < 1 / 3 else nonzero_rational(rng)
                  for _ in range(n))
        if any(v):
            return v
