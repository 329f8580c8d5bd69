"""Exact number-field arithmetic: spec examples, axioms, serialization."""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from etale_forge import numfield
from etale_forge.dense import rational_roots, small_primes
from etale_forge.endo import SurfaceMap
from etale_forge.numfield import (QQ, DivisionByZero, FieldElement,
                                  FieldMismatch, NumberField,
                                  ReduciblePolynomial, cyclotomic_field)
from etale_forge.polyalg import Poly
from etale_forge.polyparse import field_from_string, field_name
from etale_forge.surface import tilde_surface

try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

F_SQRT_M2 = NumberField([2, 0, 1])          # theta^2 + 2
F_ZETA3 = cyclotomic_field(3)
F_THETA3 = NumberField([-3, 1])             # theta - 3, a second degree-one field


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


# the rule for combining fields, written out: COMMON[i][j] is where an
# operation with left operand over TABLE[i] and right operand over TABLE[j]
# lands; a degree-one field yields to an extension, two degree-one fields
# are both Q and compare equal, and None marks two distinct extensions
TABLE = (QQ, F_THETA3, F_SQRT_M2, F_ZETA3)
COMMON = (
    (QQ, QQ, F_SQRT_M2, F_ZETA3),
    (F_THETA3, F_THETA3, F_SQRT_M2, F_ZETA3),
    (F_SQRT_M2, F_SQRT_M2, F_SQRT_M2, None),
    (F_ZETA3, F_ZETA3, None, F_ZETA3),
)


def test_common_field_is_the_table():
    for f1, row in zip(TABLE, COMMON):
        for f2, want in zip(TABLE, row):
            if want is None:
                with pytest.raises(FieldMismatch):
                    numfield.common_field(f1, f2)
                continue
            assert numfield.common_field(f1, f2) == want
            over_qq = QQ if want.degree == 1 else want
            assert numfield.common_field(QQ, f1, f2) == over_qq


@pytest.mark.parametrize("i", range(len(TABLE)))
@pytest.mark.parametrize("j", range(len(TABLE)))
def test_every_operation_lands_in_the_table_field(i, j):
    f1, f2, want = TABLE[i], TABLE[j], COMMON[i][j]
    a, b = f1.gen() + 2, f2.gen() + 1
    p1 = Poly.variable("x", f1) + Poly.constant(a, f1, ("x",))
    p2 = Poly.variable("x", f2) * Poly.constant(b, f2, ("x",))
    s = tilde_surface(2, 2)
    x, y, z = (Poly.variable(v, f, s.vars) for v, f in zip(s.vars, (f1, f2, f1)))
    surface_map = SurfaceMap(s, s, (x, y, z))
    operations = (lambda: a + b, lambda: a * b, lambda: p1 + p2, lambda: p1 * p2,
                  lambda: p1.evaluate({"x": b}))
    if want is None:
        for op in operations:
            with pytest.raises(FieldMismatch):
                op()
        with pytest.raises(FieldMismatch):
            surface_map.field
        return
    for op in operations:
        assert op().field == want
    # a map's field starts from QQ, so it is QQ unless a coordinate lies
    # over an extension
    assert surface_map.field == (QQ if want.degree == 1 else want)


def test_degree_one_fields_are_one_field():
    # every degree-one field is Q: equal values hash equal, and a reflected
    # operator lands on a value equal to, and hashing like, the unreflected one
    assert F_THETA3 == QQ and hash(F_THETA3) == hash(QQ)
    assert len({F_THETA3.elem(1), QQ.elem(1)}) == 1
    assert len({Poly.constant(1, F_THETA3, ("x",)), Poly.constant(1, QQ, ("x",))}) == 1
    x, two = Poly.variable("x", QQ), Poly.constant(2, F_THETA3, ("x",))
    for reflected, unreflected in ((F_THETA3.elem(2) * x, two * x),
                                   (F_THETA3.elem(2) + x, two + x),
                                   (F_THETA3.elem(2) - x, two - x)):
        assert reflected == unreflected
        assert hash(reflected) == hash(unreflected)


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


HEIGHT_50 = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def _elements(field, coords=HEIGHT_50):
    return st.lists(coords, min_size=field.degree,
                    max_size=field.degree).map(field.from_coords)


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2, F_ZETA3])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_field_axioms_on_random_triples(field, data):
    a, b, c = (data.draw(_elements(field)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == field.one()


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2, F_ZETA3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_div_mul_round_trip(field, data):
    a = data.draw(_elements(field))
    b = data.draw(_elements(field).filter(lambda e: not e.is_zero()))
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
    NumberField([1, 0, 0, 0, 1])      # Phi_8
    NumberField([2, 0, 0, 0, 1])      # x^4+2
    NumberField([1, 1, 0, 0, 1])
    # the cyclotomic fields of degree <= 4 pass the same gate
    for k in (1, 2, 3, 4, 5, 6, 8, 10, 12):
        cyclotomic_field(k)
    # above degree 4 nothing is checked: x^5 - 1 = (x - 1)(x^4 + ... + 1)
    NumberField([-1, 0, 0, 0, 0, 1])


def test_inverse_of_zero_divisor_reports_reducible_minpoly():
    # above degree 4 irreducibility is not checked, so this field constructs:
    # theta^6 - 4 theta^3 + 4 = (theta^3 - 2)^2, so theta^3 - 2 has no inverse
    field = NumberField([4, 0, 0, -4, 0, 0, 1])
    with pytest.raises(ReduciblePolynomial, match="zero divisor"):
        field.from_coords([-2, 0, 0, 1, 0, 0]).inverse()
    assert field.gen() * field.gen().inverse() == field.one()
    # theta^6 - 1 = (theta - 1)(theta + 1)(theta^2 + theta + 1)(theta^2 - theta + 1)
    field = NumberField([-1, 0, 0, 0, 0, 0, 1])
    for coords in ([1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 0, 0], [-1, 1, 0, 0, 0, 0],
                   [0, 0, 1, 0, 0, 1]):
        with pytest.raises(ReduciblePolynomial, match="zero divisor"):
            field.from_coords(coords).inverse()


def test_rational_roots_helper():
    assert rational_roots([Fraction(-1), Fraction(0), Fraction(1)]) == [-1, 1]
    assert rational_roots([Fraction(0), Fraction(1)]) == [0]
    coeffs = [Fraction(2), Fraction(-3), Fraction(1)]   # (x-1)(x-2)
    assert rational_roots(coeffs) == [1, 2]
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
    # a derivative of each has two roots in one unit cell; that cell must
    # stay a breakpoint of the bisection one level up
    for coeffs, root in (([5, 6, -22, 10, 1], 1), ([0, 36, 30, -24, -27, 1], 0),
                         ([92, -140, 69, -3, -6, 1], 2)):
        assert rational_roots(list(map(Fraction, coeffs))) == [root]


_big = st.integers(-10**25, 10**25)


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@needs_sympy
@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.builds(Fraction, _big, st.integers(1, 10**12)), max_size=4),
       cofactor=st.lists(_big, min_size=1, max_size=4).filter(lambda c: c[-1] != 0))
def test_rational_roots_match_sympy_linear_factors(roots, cofactor):
    # known linear factors times a random cofactor, with up to 25-digit
    # coefficients: listing the divisors of the constant term is hopeless
    coeffs = [Fraction(c) for c in cofactor]
    for r in roots:
        coeffs = _times(coeffs, [-r, Fraction(1)])
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sum(sympy.Rational(str(c)) * x ** i
                                       for i, c in enumerate(coeffs)), x)
    linear = [sympy.Poly(f, x).all_coeffs() for f, _ in factors
              if sympy.degree(f, x) == 1]
    expected = sorted(Fraction(str(-b / a)) for a, b in linear)
    assert rational_roots(coeffs) == expected
    assert set(roots) <= set(expected)


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
    return _elements(field, RATIONALS)


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


def _euclid_inverse(a, m):
    """u with u * a = 1 mod m, by the extended Euclidean algorithm on dense
    Fraction lists (constant term first); None when gcd(a, m) != 1."""
    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def sub_shifted(x, c, y, s):          # x - c * t^s * y
        x = x + [Fraction(0)] * max(0, len(y) + s - len(x))
        for i, v in enumerate(y):
            x[i + s] -= c * v
        return trim(x)

    r0, r1 = trim(list(m)), trim(list(a))
    u0, u1 = [], [Fraction(1)]
    while r1:
        while len(r0) >= len(r1):
            c, s = r0[-1] / r1[-1], len(r0) - len(r1)
            r0, u0 = sub_shifted(r0, c, r1, s), sub_shifted(u0, c, u1, s)
        r0, r1, u0, u1 = r1, r0, u1, u0
    if len(r0) != 1:
        return None
    return [c / r0[0] for c in u0]


@pytest.mark.parametrize("field", [
    QQ, cyclotomic_field(1), NumberField([5, 1]),
    NumberField([Fraction(-3, 7), 1])])
@given(c=RATIONALS.filter(lambda c: c != 0))
def test_degree_one_inverse_matches_extended_euclid(field, c):
    a = field.from_coords([c])
    assert a.inverse() == field.from_coords(_euclid_inverse([c], field.minpoly))
    assert a * a.inverse() == field.one()


@pytest.mark.parametrize("field", [
    F_SQRT_M2, F_ZETA3, cyclotomic_field(7), NumberField([Fraction(-1, 2), 0, 1]),
    NumberField([Fraction(1, 3), Fraction(-2, 5), 0, 1]),
    NumberField([1, 1] + [0] * 14 + [1]),                 # theta^16 + theta + 1
    NumberField([1, 0, 0, 1, 0, 0, 0, 0, 1]),             # theta^8 + theta^3 + 1
    NumberField([5, 0, 0, Fraction(-2, 3), 0, 0, 0, 0, 1])])   # theta^8 - 2/3*theta^3 + 5
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_inverse_matches_extended_euclid(field, data):
    a = data.draw(elements(field).filter(lambda e: not e.is_zero()))
    u = _euclid_inverse(list(a.coords), field.minpoly)
    assert a.inverse() == field.from_coords(u + [0] * (field.degree - len(u)))


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


@pytest.mark.parametrize("field", [
    NumberField([Fraction(1, 3), 0, 1]),                              # den = 3
    NumberField([Fraction(2, 3), Fraction(2, 3), 0, 0, 0, 1]),        # Eisenstein at 2
    cyclotomic_field(17)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_times_element_is_one(field, data):
    a = data.draw(elements(field).filter(lambda e: not e.is_zero()))
    assert a * a.inverse() == field.one()


# -- the remaining helpers against sympy ------------------------------------------

def _monic(min_degree, max_degree):
    """Monic rational polynomials as constant-first coefficient lists."""
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.lists(coeff, min_size=n, max_size=n)).map(lambda c: c + [Fraction(1)])


def _product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_irreducible(coeffs):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], x, domain="QQ").is_irreducible


@needs_sympy
def test_cyclotomic_minpoly_matches_sympy():
    x = sympy.Symbol("x")
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    for k in range(1, 106):
        want = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_field(k).minpoly) == [Fraction(int(c)) for c in want], k


@needs_sympy
@settings(max_examples=200, deadline=None)
@given(coeffs=st.one_of(_monic(2, 4), st.tuples(_monic(1, 2), _monic(1, 2)).map(
    lambda ab: _product(*ab))))
@example(coeffs=[1, 1, 2, 1, 1])      # (x^2 + 1)(x^2 + x + 1): cubic term nonzero
def test_irreducibility_gate_matches_sympy(coeffs):
    if _sympy_irreducible(coeffs):
        NumberField(coeffs)
    else:
        with pytest.raises(ReduciblePolynomial):
            NumberField(coeffs)


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(coeffs=_monic(1, 6), gen=st.sampled_from(["theta", "zeta", "a", "w_1"]))
def test_field_text_round_trip(coeffs, gen):
    assume(_sympy_irreducible(coeffs))
    field = NumberField(coeffs, gen=gen)
    assert field_from_string(field_name(field)) == field


# -- primes of degree one ------------------------------------------------------------

def _residues(field, p):
    return [c.numerator * pow(c.denominator, -1, p) % p for c in field.minpoly]


@needs_sympy
def test_small_primes_are_the_odd_primes_below_2_15_largest_first():
    assert small_primes() == tuple(sympy.primerange(3, 2 ** 15))[::-1]


@needs_sympy
@pytest.mark.parametrize("field", [
    NumberField([7, 0, 1]), cyclotomic_field(5), cyclotomic_field(8),
    cyclotomic_field(17), NumberField([1, 1] + [0] * 14 + [1]),
    NumberField([Fraction(2, 3), Fraction(2, 3), 0, 0, 0, 1])])
def test_degree_one_prime_is_the_first_listed_prime_with_a_root(field):
    p, rho = field.degree_one_prime()
    primes = small_primes()
    assert sum(c * pow(rho, i, p) for i, c in enumerate(_residues(field, p))) % p == 0
    x = sympy.Symbol("x")
    for q in primes[:primes.index(p)]:
        if any(c.denominator % q == 0 for c in field.minpoly):
            continue
        _, factors = sympy.Poly(_residues(field, q)[::-1], x, modulus=q).factor_list()
        assert all(f.degree() > 1 for f, _ in factors), q


def test_degree_one_prime_examples():
    first = small_primes()[0]
    assert QQ.degree_one_prime() == (first, 0)
    assert NumberField([5, 1]).degree_one_prime() == (first, 0)
    # Q(zeta_17) has a root mod p only for p = 1 mod 17: the 17th listed prime
    p, _ = cyclotomic_field(17).degree_one_prime()
    assert p % 17 == 1 and small_primes().index(p) == 16
    # a prime that divides a denominator of m is skipped
    p, rho = NumberField([Fraction(1, first), 0, 1]).degree_one_prime()
    assert p != first and (rho * rho * first + 1) % p == 0
