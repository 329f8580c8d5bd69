"""Exact number-field arithmetic: spec examples, axioms, serialization."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.numfield import (QQ, DivisionByZero, FieldElement,
                                  FieldMismatch, NumberField,
                                  ReduciblePolynomial, _poly_xgcd,
                                  cyclotomic_field, field_from_string,
                                  rational_roots)
from etale_forge.surface import SplitMix64

F_SQRT_M2 = NumberField([2, 0, 1])          # theta^2 + 2
F_ZETA3 = cyclotomic_field(3)


def test_reduction_by_minimal_polynomial():
    th = F_SQRT_M2.gen()
    assert th * th == F_SQRT_M2.elem(-2)


def test_defining_relation_of_phi3():
    z = F_ZETA3.gen()
    assert (z * z + z + 1).is_zero()


def test_inverse_via_extended_euclid():
    # 1/theta = -theta/2: the stated oracle is theta * (-theta/2) == 1
    th = F_SQRT_M2.gen()
    inv = F_SQRT_M2.one() / th
    assert inv == F_SQRT_M2.from_coords([0, Fraction(-1, 2)])
    assert th * inv == F_SQRT_M2.one()


def test_field_operators_and_division_by_zero():
    a, b = F_SQRT_M2.elem(3), F_SQRT_M2.gen()
    assert a + b == F_SQRT_M2.from_coords([3, 1])
    assert a - b == F_SQRT_M2.from_coords([3, -1])
    assert a * b == F_SQRT_M2.from_coords([0, 3])
    assert (a / b) * b == a
    with pytest.raises(DivisionByZero):
        a / F_SQRT_M2.zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F_SQRT_M2.gen() + F_ZETA3.gen()


def test_cyclotomic_small_cases():
    assert cyclotomic_field(2).minpoly_str() == "zeta + 1"
    assert cyclotomic_field(3).minpoly_str() == "zeta^2 + zeta + 1"
    # k = 1: the field is Q, presented by zeta - 1
    assert cyclotomic_field(1).minpoly_str() == "zeta - 1"
    assert cyclotomic_field(1).degree == 1


def test_minpoly_and_element_strings_exact():
    # descending powers; the sign goes into the separator, a unit magnitude
    # is dropped before a power of the generator
    assert NumberField([2, 0, 1]).minpoly_str() == "theta^2 + 2"
    assert NumberField([-3, 0, 1]).minpoly_str() == "theta^2 - 3"
    assert NumberField([1, -1, 1]).minpoly_str() == "theta^2 - theta + 1"
    assert NumberField([-2, 0, 0, 1], gen="a").minpoly_str() == "a^3 - 2"
    assert NumberField([Fraction(1, 2), 0, 1]).minpoly_str() == "theta^2 + 1/2"
    assert (NumberField([Fraction(-1, 3), Fraction(2, 3), 0, 1]).minpoly_str()
            == "theta^3 + 2/3*theta - 1/3")
    z3 = cyclotomic_field(3)
    strings = {(-1, 1): "zeta - 1", (0, -1): "-zeta", ("3/2", -2): "-2*zeta + 3/2",
               ("-5/3", 0): "-5/3", (0, 1): "zeta", (1, 1): "zeta + 1",
               (-1, -1): "-zeta - 1", (0, 0): "0"}
    for coords, text in strings.items():
        assert str(z3.from_coords([Fraction(q) for q in coords])) == text
    cube = NumberField([-2, 0, 0, 1])
    elem = cube.from_coords([Fraction(1, 2), Fraction(-1), Fraction(-3, 4)])
    assert str(elem) == "-3/4*theta^2 - theta + 1/2"
    assert str(QQ.elem(Fraction(-7, 2))) == "-7/2"


def test_primitive_roots_up_to_24():
    for k in range(1, 25):
        z = cyclotomic_field(k).gen()
        one = z.field.elem(1)
        assert z ** k == one
        for m in range(1, k):
            assert z ** m != one, (k, m)


def _random_elem(field, rng):
    return field.from_coords([rng.fraction(50) for _ in range(field.degree)])


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2, F_ZETA3])
def test_field_axioms_on_random_triples(field):
    rng = SplitMix64(20240811)
    one = field.one()
    for _ in range(1000):
        a, b, c = (_random_elem(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == one


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2, F_ZETA3])
def test_div_mul_round_trip(field):
    rng = SplitMix64(7)
    for _ in range(300):
        a = _random_elem(field, rng)
        b = _random_elem(field, rng)
        if b.is_zero():
            continue
        assert (a / b) * b == a


def test_irreducibility_gate_degree_le_4():
    with pytest.raises(ReduciblePolynomial):
        NumberField([-1, 0, 1])           # theta^2 - 1
    with pytest.raises(ReduciblePolynomial):
        NumberField([-4, 0, 1])           # theta^2 - 4
    with pytest.raises(ReduciblePolynomial):
        NumberField([2, 3, 1])            # (theta+1)(theta+2)
    with pytest.raises(ReduciblePolynomial):
        NumberField([4, 0, 0, 0, 1])      # x^4+4 = (x^2+2x+2)(x^2-2x+2)
    with pytest.raises(ReduciblePolynomial):
        NumberField([1, 0, 2, 0, 1])      # (x^2+1)^2
    with pytest.raises(ReduciblePolynomial):
        NumberField([-2, 1, 2, 0, 1])     # (x^2+x-1)(x^2-x+2)
    assert NumberField([1, 0, 0, 0, 1]).irreducibility == "verified"   # Phi_8
    assert NumberField([2, 0, 0, 0, 1]).irreducibility == "verified"   # x^4+2
    assert NumberField([1, 1, 0, 0, 1]).irreducibility == "verified"
    # above degree 4 the constructor records the assertion
    assert NumberField([2, 0, 0, 0, 0, 1]).irreducibility == "asserted"


def test_rational_roots_helper():
    assert rational_roots([Fraction(-1), Fraction(0), Fraction(1)]) == [-1, 1]
    assert rational_roots([Fraction(0), Fraction(1)]) == [0]
    coeffs = [Fraction(2), Fraction(-3), Fraction(1)]   # (x-1)(x-2)
    assert rational_roots(coeffs) == [1, 2]
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []


def test_json_round_trip_exact():
    # parameter documents name their field by "QQ" or its minimal polynomial
    assert field_from_string("QQ") == QQ
    assert field_from_string("theta^2 + 2") == F_SQRT_M2
    assert field_from_string("zeta^2 + zeta + 1") == F_ZETA3


def test_degree_one_field_is_rational():
    f1 = cyclotomic_field(1)
    assert f1.gen() == f1.elem(1)       # zeta = 1 in Q[zeta]/(zeta - 1)
    assert f1.gen().as_fraction() == 1


# -- powering and inversion against a second computation -----------------------

RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def elements(field):
    return st.lists(RATIONALS, min_size=field.degree,
                    max_size=field.degree).map(field.from_coords)


@pytest.mark.parametrize("field", [F_SQRT_M2, F_ZETA3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_power_matches_repeated_multiplication(field, data):
    a = data.draw(elements(field))
    acc = field.one()
    for n in range(13):
        assert a ** n == acc, n
        acc = acc * a
    if not a.is_zero():
        inv, acc = a.inverse(), field.one()
        for n in range(13):
            assert a ** -n == acc, -n
            acc = acc * inv


def test_power_multiply_count(monkeypatch):
    calls = []
    mul = FieldElement.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    a = F_ZETA3.from_coords([2, Fraction(-1, 3)])
    for n in range(70):
        calls.clear()
        a ** n
        expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
        assert len(calls) == expected, n


@pytest.mark.parametrize("field", [
    QQ, cyclotomic_field(1), NumberField([5, 1]),
    NumberField([Fraction(-3, 7), 1])])
@given(c=RATIONALS.filter(lambda c: c != 0))
def test_degree_one_inverse_matches_extended_euclid(field, c):
    a = field.from_coords([c])
    g, u, _ = _poly_xgcd([c], list(field.minpoly))
    assert g == [1]
    assert a.inverse() == FieldElement(field, field._reduce(u))
    assert a * a.inverse() == field.one()


@functools.cache
def _sympy_field(generator: str):
    """sympy's algebraic field Q(generator) and its generator element."""
    sympy = pytest.importorskip("sympy")
    gen = sympy.sympify(generator)
    domain = sympy.QQ.algebraic_field(gen)
    return domain, domain.from_sympy(gen)


@pytest.mark.parametrize("field,generator", [
    (F_SQRT_M2, "sqrt(-2)"), (cyclotomic_field(5), "exp(2*pi*I/5)")])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_matches_sympy_algebraic_field(field, generator, data):
    domain, gen = _sympy_field(generator)
    assert [Fraction(int(c.numerator), int(c.denominator))
            for c in reversed(domain.ext.minpoly.rep.to_list())] == list(field.minpoly)
    a = data.draw(elements(field).filter(lambda e: not e.is_zero()))
    sa = sum((domain.convert(Fraction(c)) * gen ** i
              for i, c in enumerate(a.coords)), domain.zero)
    want = domain.quo(domain.one, sa).to_list()[::-1]
    want += [0] * (field.degree - len(want))
    assert a.inverse().coords == tuple(
        Fraction(int(c.numerator), int(c.denominator)) for c in want)
