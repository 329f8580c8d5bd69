"""Parser and printer: grammar, errors with positions, round trips, fuzz."""

import random
from fractions import Fraction

import pytest

from etale_forge.chebyshab import chebyshev_T
from etale_forge.numfield import QQ, NumberField, cyclotomic_field
from etale_forge.polyalg import Poly
from etale_forge.polyparse import (MAX_DEGREE, MAX_TERMS, NonIntegerExponent,
                                   PolyParseError, UnknownSymbol, parse_poly,
                                   print_poly)
from etale_forge.surface import SplitMix64

F_SQRT_M2 = NumberField([2, 0, 1])


def test_parse_examples():
    assert parse_poly("2*x^2 - 1", ["x"]) == chebyshev_T(2)
    assert parse_poly("0", ["x"]).is_zero()
    r1 = parse_poly("(1/3)*(-7 + theta)*t + 1", ["t"], F_SQRT_M2)
    t = Poly.variable("t", F_SQRT_M2)
    a1 = F_SQRT_M2.from_coords([Fraction(-7, 3), Fraction(1, 3)])
    assert r1 == Poly.constant(a1, F_SQRT_M2, ("t",)) * t + 1


def test_print_examples():
    assert print_poly(chebyshev_T(2)) == "2*x^2 - 1"
    assert print_poly(Poly.zero(QQ, ("x",))) == "0"
    x = Poly.variable("x", QQ)
    assert print_poly(x ** 2 - 1) == "x^2 - 1"


def test_whitespace_insensitive():
    assert parse_poly("2 * x ^ 2-1", ["x"]) == chebyshev_T(2)
    assert parse_poly("  1 / 3 * x", ["x"]) == \
        Poly.constant(Fraction(1, 3), QQ, ("x",)) * Poly.variable("x", QQ)


def test_implicit_multiplication_rejected_with_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("2x", ["x"])
    assert err.value.position == 1


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_poly("x + q", ["x"])
    with pytest.raises(UnknownSymbol):
        parse_poly("theta*x", ["x"])   # no field generator over Q


def test_non_integer_exponents():
    with pytest.raises(NonIntegerExponent):
        parse_poly("x^-2", ["x"])
    with pytest.raises(NonIntegerExponent):
        parse_poly("x^1/2", ["x"])
    with pytest.raises(PolyParseError):
        parse_poly("x^(2)", ["x"])


def test_error_positions_are_byte_offsets():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + ", ["x"])
    assert err.value.position == 4
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + $", ["x"])
    assert err.value.position == 4


def _random_poly(rng, field, vars):
    p = Poly.zero(field, vars)
    for _ in range(rng.randint(0, 6)):
        coeff = field.from_coords([rng.fraction(30) for _ in range(field.degree)])
        exps = tuple(rng.randint(0, 4) for _ in vars)
        term = Poly.constant(coeff, field, vars)
        for v, e in zip(vars, exps):
            term = term * Poly.variable(v, field, vars) ** e
        p = p + term
    return p


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2, cyclotomic_field(3)])
def test_round_trip_random(field):
    rng = SplitMix64(1234)
    vars = ("x", "y")
    for _ in range(334):
        p = _random_poly(rng, field, vars)
        assert parse_poly(print_poly(p), vars, field) == p


def test_fuzz_never_crashes():
    rnd = random.Random(42)
    alphabet = "xyt az01239+-*/^()_. \t\\#&theta"
    for _ in range(10_000):
        text = "".join(rnd.choices(alphabet, k=rnd.randint(0, 24)))
        try:
            parse_poly(text, ("x", "y", "t"), F_SQRT_M2)
        except PolyParseError:
            pass


def test_field_coefficient_printing_round_trip():
    z3 = cyclotomic_field(3)
    x = Poly.variable("x", z3)
    zeta = Poly.constant(z3.gen(), z3, ("x",))
    p = (2 * zeta - 1) * x ** 3 - zeta * x + 5
    assert parse_poly(print_poly(p), ("x",), z3) == p


@pytest.mark.parametrize("field", [F_SQRT_M2, cyclotomic_field(3)])
def test_print_field_coefficients_exact(field):
    # proper field coefficients print in ascending powers of the generator,
    # in parentheses, as a positive unit term; rational ones carry the sign
    g = field.gen_name
    vars = ("x", "y")
    x, y = (Poly.variable(v, field, vars) for v in vars)

    def c(*coords):
        return Poly.constant(field.from_coords([Fraction(q) for q in coords]),
                             field, vars)

    p = (c(-1, 1) * x ** 2 * y + c(0, -1) * x * y + c("3/2", -2) * y ** 2
         - x + c(0, 1) + c(-7, "1/3"))
    assert print_poly(p) == (f"(-1 + {g})*x^2*y + (-{g})*x*y - x"
                             f" + (3/2 - 2*{g})*y^2 + (-7 + 4/3*{g})")
    assert print_poly(c(0, 1) * x - 3 * y + 2) == f"({g})*x - 3*y + 2"
    assert print_poly(c(1, -1)) == f"(1 - {g})"
    assert print_poly(c(-1, 0) * x) == "-x"


def test_power_degree_bound_rejects_before_expanding(monkeypatch):
    assert parse_poly(f"x^{MAX_DEGREE}", ["x"]).total_degree() == MAX_DEGREE
    powers = []
    pow_ = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__",
                        lambda self, n: powers.append(n) or pow_(self, n))
    for text in (f"x^{MAX_DEGREE + 1}", f"(1 + x*y)^{MAX_DEGREE // 2 + 1}",
                 f"2 + 3^{MAX_DEGREE + 1}"):
        with pytest.raises(PolyParseError, match=f"bound {MAX_DEGREE}"):
            parse_poly(text, ["x", "y"])
    assert powers == []


def test_power_term_count_bound_rejects_before_expanding(monkeypatch):
    # C(3 + 40, 3) = 12341 dense terms; expanding them takes many seconds
    powers = []
    monkeypatch.setattr(Poly, "__pow__", lambda self, n: powers.append(n))
    with pytest.raises(PolyParseError, match=f"12341 terms exceeds the bound {MAX_TERMS}"):
        parse_poly("(1+x+y+z)^40", ("x", "y", "z"))
    assert powers == []
