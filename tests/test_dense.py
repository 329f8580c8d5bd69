"""Coefficient lists: every dense function against sympy, and the Poly <->
list conversion of polyalg."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.dense import (_root_mod_p, at_power_of_two, derivative, divide,
                               gcd_mod_p, mul, mul_mod_p, prem, rational_roots,
                               small_primes, trim, value)
from etale_forge.numfield import QQ, FieldElement, NumberField, cyclotomic_field
from etale_forge.polyalg import Poly, _dense, _poly

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")
THETA = sympy.Symbol("theta")
P = small_primes()[0]
F_SQRT_M7 = NumberField([7, 0, 1])          # theta^2 + 7
F_ZETA5 = cyclotomic_field(5)               # degree 4

INTS = st.lists(st.integers(-10**6, 10**6), max_size=12).map(trim)
NONZERO_INTS = INTS.filter(bool)
RESIDUES = st.lists(st.integers(0, P - 1), max_size=12).map(trim)
NONCONSTANT_RESIDUES = RESIDUES.filter(lambda c: len(c) > 1)


def _expr(c, x=T):
    return sum(sympy.Integer(a) * x ** i for i, a in enumerate(c))


def _zz(c):
    return sympy.Poly(_expr(c), T, domain="ZZ")


def _gf(c):
    return sympy.Poly(_expr(c), T, modulus=P)


def _list(poly, p=0):
    """The constant-first list of a sympy Poly (residues in [0, p) mod p)."""
    c = [int(a) for a in reversed(poly.all_coeffs())]
    return trim([a % p for a in c] if p else c)


@settings(max_examples=100, deadline=None)
@given(a=INTS, b=INTS)
def test_product_matches_sympy(a, b):
    assert trim(mul(a, b)) == _list(_zz(a) * _zz(b))
    ra, rb = [x % P for x in a], [x % P for x in b]
    assert mul_mod_p(trim(ra), trim(rb), P) == _list(_gf(ra) * _gf(rb), P)


def test_product_walks_the_sparse_operand():
    t500 = [0] * 500 + [1]
    assert mul(t500, [1, 2, 3]) == mul([1, 2, 3], t500) == [0] * 500 + [1, 2, 3]


@settings(max_examples=100, deadline=None)
@given(a=RESIDUES, b=NONCONSTANT_RESIDUES)
def test_remainder_and_gcd_mod_p_match_sympy(a, b):
    q, r = divide(a, b, P)
    assert r == _list(_gf(a).rem(_gf(b)), P)
    assert trim(q) == _list(_gf(a).quo(_gf(b)), P)
    assert gcd_mod_p(a, b, P) == _list(_gf(a).gcd(_gf(b)).monic(), P)


@settings(max_examples=50, deadline=None)
@given(common=NONCONSTANT_RESIDUES, a=RESIDUES, b=RESIDUES)
def test_gcd_mod_p_finds_a_planted_factor(common, a, b):
    a, b = mul_mod_p(common, a, P), mul_mod_p(common, b, P)
    assert gcd_mod_p(a, b, P) == _list(_gf(a).gcd(_gf(b)).monic(), P)


@settings(max_examples=50, deadline=None)
@given(a=INTS, b=NONZERO_INTS)
def test_division_by_a_monic_list_over_z(a, b):
    b = b + [1]
    q, r = divide(a, b)
    sq, sr = sympy.div(_zz(a), _zz(b))
    assert (trim(q), r) == (_list(sq), _list(sr))


@settings(max_examples=100, deadline=None)
@given(c=INTS)
def test_derivative_matches_sympy(c):
    assert derivative(c) == _list(_zz(c).diff(T))
    residues = trim([x % P for x in c])
    assert derivative(residues, P) == _list(_gf(residues).diff(T), P)


@settings(max_examples=100, deadline=None)
@given(c=INTS, x=st.integers(-10**3, 10**3), width=st.integers(3, 5))
def test_value_and_the_write_at_a_power_of_two(c, x, width):
    assert value(c, x) == _zz(c).eval(x)
    assert at_power_of_two(c, width) == value(c, 1 << (8 * width))


def _proportional(r, s) -> bool:
    """Whether two lists of field elements differ by a nonzero factor."""
    if not r or not s:
        return r == s
    return len(r) == len(s) and all(x * s[-1] == y * r[-1] for x, y in zip(r, s))


@settings(max_examples=100, deadline=None)
@given(u=NONZERO_INTS, v=NONZERO_INTS)
def test_pseudo_remainder_over_z_matches_sympy(u, v):
    if len(u) < len(v):
        u, v = v, u
    got = prem(u, v)
    want = _list(sympy.prem(_zz(u), _zz(v)))
    assert _proportional([Fraction(x) for x in got], [Fraction(x) for x in want])
    assert math.gcd(*got) in (0, 1)


COORDS = st.integers(-30, 30)


def _field_lists(field):
    """Nonzero lists of integer coordinate tuples over field."""
    entry = st.tuples(*[COORDS] * field.degree)
    return st.lists(entry, min_size=1, max_size=6).filter(lambda c: any(c[-1]))


def _reduce(expr, field):
    """The coordinate tuple of a sympy polynomial in theta modulo m."""
    m = _expr(field.minpoly, THETA)
    poly = sympy.Poly(sympy.rem(sympy.expand(expr), m, THETA), THETA)
    coords = [0] * field.degree
    for (e,), a in poly.terms():
        coords[e] = a
    return tuple(Fraction(str(a)) for a in coords)


def _as_expr(c, field):
    return sum(sympy.Integer(x) * THETA ** j * T ** i
               for i, coords in enumerate(c) for j, x in enumerate(coords))


def _elements(coords, field):
    return [field.from_coords(x) for x in coords]


@pytest.mark.parametrize("field", [F_SQRT_M7, F_ZETA5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pseudo_remainder_over_a_number_field_matches_sympy(field, data):
    u, v = data.draw(_field_lists(field)), data.draw(_field_lists(field))
    if len(u) < len(v):
        u, v = v, u
    got = prem(u, v, field.mul)
    want = sympy.Poly(sympy.prem(_as_expr(u, field), _as_expr(v, field), T), T)
    want = [_reduce(a, field) for a in reversed(want.all_coeffs())]
    want = _elements(want, field)
    while want and want[-1].is_zero():
        want.pop()
    assert _proportional(_elements(got, field), want)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_field_product_matches_sympy(data):
    field = F_ZETA5
    a, b = data.draw(_field_lists(field)), data.draw(_field_lists(field))
    want = sympy.Poly(sympy.expand(_as_expr(a, field) * _as_expr(b, field)), T)
    want = [_reduce(c, field) for c in reversed(want.all_coeffs())]
    assert _elements(mul(a, b, field.mul), field) == _elements(want, field)


@settings(max_examples=50, deadline=None)
@given(roots=st.sets(st.integers(0, P - 1), min_size=1, max_size=6))
def test_root_of_a_split_polynomial_mod_p(roots):
    g = [1]
    for r in roots:
        g = mul_mod_p(g, [-r % P, 1], P)
    root = _root_mod_p(g, P)
    assert root in roots
    assert _gf(g).eval(root) == 0


@settings(max_examples=50, deadline=None)
@given(c=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                  min_size=2, max_size=6).filter(lambda c: c[-1] != 0))
def test_rational_roots_match_sympy(c):
    poly = sympy.Poly(sum(sympy.Rational(str(a)) * T ** i for i, a in enumerate(c)), T)
    want = sorted(Fraction(str(r)) for r in sympy.roots(poly, filter="Q"))
    assert rational_roots(c) == want


def test_rational_roots_of_a_constant_are_none():
    assert rational_roots([Fraction(3)]) == rational_roots([]) == []


# -- Poly <-> list --------------------------------------------------------------


def _round_trip(p):
    back = _poly(p.field, p.variables, _dense(p), p.den)
    assert back == p and back.den == p.den and back.terms == p.terms


def test_poly_list_round_trip():
    t = Poly.variable("t", QQ)
    _round_trip(Poly.zero(QQ, ("t",)))
    _round_trip(Poly.constant(Fraction(-3, 7), QQ, ("t",)))
    _round_trip(t ** 500)
    _round_trip(t ** 500 * Fraction(2, 9) - 1)
    assert _dense(Poly.zero(QQ, ("t",))) == []
    assert _dense(Poly.constant(5, QQ, ("t",))) == [5]
    assert _dense(t ** 500) == [0] * 500 + [1]
    zeta = F_ZETA5.gen()
    s = Poly.variable("t", F_ZETA5)
    p = (zeta ** 3 - Fraction(1, 2)) * s ** 4 + zeta * s + 2
    _round_trip(p)
    assert p.den == 2 and _dense(p)[1] == (0, 2, 0, 0) and _dense(p)[2] == (0,) * 4
    # a Poly over more variables, only one of them used, reads the same
    assert _dense(p.with_variables(("x", "t"))) == _dense(p)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_poly_list_round_trip_over_a_degree_four_field(data):
    c = data.draw(_field_lists(F_ZETA5))
    p = _poly(F_ZETA5, ("t",), c, data.draw(st.integers(1, 50)))
    _round_trip(p)
    assert p.univariate_coeffs() == [FieldElement(F_ZETA5, x, p.den) for x in _dense(p)]
