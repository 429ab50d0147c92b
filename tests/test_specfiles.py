"""Text grammars: polynomials, system files, parametrization files."""

import random
from fractions import Fraction

import pytest

from eulersym import (
    Parametrization,
    ParseError,
    Polynomial,
    context,
    format_polynomial,
    format_symbol_file,
    parse_polynomial,
    parse_symbol_file,
    parse_param_file,
    system_from_file,
)
from eulersym.cli import bundled_names, bundled_text
from eulersym.specfiles import parse_point_file
from helpers import random_poly

CTX = context("x1", "x2")
X1 = Polynomial.variable(CTX, 0)
X2 = Polynomial.variable(CTX, 1)


def test_parse_polynomial_forms():
    assert parse_polynomial("x1^2", CTX) == X1**2
    assert parse_polynomial("3/2*x1*x2 - x2 + 1", CTX) == \
        Fraction(3, 2) * X1 * X2 - X2 + 1
    assert parse_polynomial("-x1 + x1", CTX).is_zero()
    assert parse_polynomial("2", CTX) == Polynomial.constant(CTX, 2)
    # a power is one monomial, up to the term-degree cap
    assert parse_polynomial("x1^0", CTX) == Polynomial.constant(CTX, 1)
    assert parse_polynomial("x1^64", CTX) == Polynomial.from_monomial(CTX, (64, 0))
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1^65", CTX)
    assert "term degree 65 exceeds the cap 64" in str(err.value)


def test_parse_polynomial_round_trips_format():
    rng = random.Random(12)
    for _ in range(40):
        p = random_poly(rng, CTX, rng.randint(0, 4), homogeneous=False)
        assert parse_polynomial(format_polynomial(p), CTX) == p


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + ", CTX)
    assert "line 1, col 6" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_polynomial("x9", CTX)
    assert "unknown variable 'x9'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 $ x2", CTX)
    assert "col 4" in str(err.value)


def test_symbol_file_happy_path():
    sf = parse_symbol_file(bundled_text("epr.sys"))
    assert sf.context.names == ("x1", "x2", "x3")
    assert sf.rank == 3
    assert sorted(sf.generators) == [2, 3]
    assert len(sf.generators[2]) == 3


def test_symbol_file_errors():
    cases = [
        ("rank: 2\nF2: x1^2\n", "vars must come before"),
        ("vars: x1\nF2: x1^2\n", "missing rank"),
        ("vars: x1\nrank: 2\nvars: x1\n", "duplicate vars"),
        ("vars: x1 x1\nrank: 2\n", "duplicate variable"),
        ("vars: x1\nrank: 2\nF1: x1\n", "fixed by the axioms"),
        ("vars: x1\nrank: 2\nF5: x1^5\n", "exceeds the declared rank"),
        ("vars: x1\nrank: 2\nF2: x1\n", "homogeneous of degree 2"),
        ("vars: x1\nrank: 2\nbogus: 1\n", "unknown key"),
        ("vars: x1\nrank: two\n", "positive integer"),
        ("just some text\n", "expected 'key: value'"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_symbol_file(text)
        assert fragment in str(err.value), text


def test_error_positions_point_into_the_line():
    text = "vars: x1 x2\nrank: 2\nF2: x1^2, x2\n"
    with pytest.raises(ParseError) as err:
        parse_symbol_file(text)
    assert "line 3, col 11" in str(err.value)


def test_comments_and_blank_lines_are_skipped():
    text = "# header\n\nvars: x1  # trailing\nrank: 2\nF2: x1^2\n"
    sf = parse_symbol_file(text)
    assert sf.rank == 2


def test_format_parse_round_trip_on_bundled_systems():
    for name in bundled_names():
        if not name.endswith(".sys"):
            continue
        s = system_from_file(bundled_text(name))
        again = system_from_file(format_symbol_file(s))
        assert again == s


def test_param_file():
    pf = parse_param_file(bundled_text("quadric.par"))
    assert isinstance(pf, Parametrization)
    assert pf.context.names == ("z1", "z2")
    assert len(pf.coords) == 3
    assert pf.base_point is None
    with_at = parse_param_file("vars: z\ncoords: z, z^3\nat: 1/2\n")
    assert with_at.base_point == (Fraction(1, 2),)
    with pytest.raises(ParseError):
        parse_param_file("vars: z\ncoords: z\nat: 1, 2\n")


def test_point_file():
    pts = parse_point_file("0, 1, 0\n# comment\n0, 1/2, -3\n", 3)
    assert pts == [(0, 1, 0), (0, Fraction(1, 2), -3)]
    with pytest.raises(ParseError):
        parse_point_file("1, 2\n", 3)
    with pytest.raises(ParseError):
        parse_point_file("1, x, 3\n", 3)
