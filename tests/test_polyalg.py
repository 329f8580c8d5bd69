"""Polynomial kernel: ring ops, composition, division, Yun, profiles."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etale_forge.chebyshab import chebyshev_T, chebyshev_U
from etale_forge.dense import small_primes
from etale_forge.numfield import (QQ, FieldElement, FieldMismatch,
                                  NumberField, cyclotomic_field)
from etale_forge.polyalg import (ArityError, NotDivisible, Poly, compose,
                                 divmod_poly, exact_div, gcd_univariate,
                                 kronecker_bits, kronecker_sum, monic,
                                 multiplicity_profile,
                                 separable_mod_p, squarefree_decomposition,
                                 variables)

X = Poly.variable("x", QQ)


def _from_coeffs(field, names, coeffs):
    """The Poly with coefficients {exponent vector: FieldElement}: their
    numerators over one common denominator."""
    parts = {k: (c.nums, c.den) for k, c in coeffs.items() if not c.is_zero()}
    den = math.lcm(1, *(d for _, d in parts.values()))
    return Poly(field, tuple(names),
                {k: tuple(x * (den // d) for x in n) for k, (n, d) in parts.items()},
                den)


def _coeffs(p):
    """{exponent vector: FieldElement} of p."""
    return {k: FieldElement(p.field, c, p.den) for k, c in p.terms.items()}


NONZERO = st.fractions(min_value=-20, max_value=20,
                       max_denominator=20).filter(lambda c: c != 0)


def univariate(max_deg=8):
    """Polynomials in x over QQ with nonzero rational coefficients of height
    at most 20."""
    return st.dictionaries(st.integers(0, max_deg), NONZERO,
                           max_size=max_deg + 1).map(
        lambda cs: _from_coeffs(QQ, ("x",), {(e,): QQ.elem(c) for e, c in cs.items()}))


def test_ring_arithmetic_examples():
    t2, t4 = chebyshev_T(2), chebyshev_T(4)
    # T2^2 - T4 = -4x^4 + 4x^2 = -4x^2(x^2 - 1), expanded both ways
    diff = t2 * t2 - t4
    assert diff == -4 * X ** 4 + 4 * X ** 2
    assert diff == -4 * X ** 2 * (X ** 2 - 1)
    p = 3 * X ** 2 - X + 7
    assert p + Poly.zero(QQ, ("x",)) == p
    assert (X - 1) * (X + 1) == X ** 2 - 1


def test_compose_examples():
    assert compose(chebyshev_T(2), chebyshev_T(2)) == chebyshev_T(4)
    p = 5 * X ** 3 - 2
    assert compose(p, X) == p
    assert compose(chebyshev_T(2), chebyshev_T(3)) == chebyshev_T(6)
    with pytest.raises(ArityError):
        x, y = variables("x,y")
        compose(x * y, x)


def test_exact_div_examples():
    t = Poly.variable("t", QQ)
    # ((1-2t)^2 - 1) / (t(t-1)) = 4: the cyclic Galois R0 at eps = -1
    num = (1 - 2 * t) ** 2 - 1
    assert num == 4 * t ** 2 - 4 * t
    assert exact_div(num, t * (t - 1)) == Poly.constant(4, QQ, ("t",))
    assert exact_div(X ** 2 - 1, X - 1) == X + 1
    # (T3 - 1)/(x - 1) = (2x + 1)^2 by long division of 4x^3 - 3x - 1
    q = exact_div(chebyshev_T(3) - 1, X - 1)
    assert q == (2 * X + 1) ** 2
    with pytest.raises(NotDivisible) as err:
        exact_div(X ** 2 + 1, X - 1)
    assert not err.value.remainder.is_zero()


@settings(max_examples=60, deadline=None)
@given(p=univariate(), q=univariate().filter(lambda q: not q.is_zero()))
def test_exact_div_random_round_trip(p, q):
    assert exact_div(p * q, q) == p


def test_squarefree_examples():
    # (x-1)^2 (x+2) expands to x^3 - 3x + 2
    p = X ** 3 - 3 * X + 2
    assert p == (X - 1) ** 2 * (X + 2)
    sf = squarefree_decomposition(p)
    assert [(mf.factor, mf.multiplicity) for mf in sf] == [(X + 2, 1), (X - 1, 2)]
    sf2 = squarefree_decomposition(X ** 2 - 1)
    assert [(mf.factor, mf.multiplicity) for mf in sf2] == [(X ** 2 - 1, 1)]
    # T3 - 1 = 4x^3 - 3x - 1 = 4(x - 1)(x + 1/2)^2 up to the unit
    sf3 = squarefree_decomposition(chebyshev_T(3) - 1)
    assert [(mf.factor, mf.multiplicity) for mf in sf3] == \
        [(X - 1, 1), (X + Fraction(1, 2), 2)]
    assert monic((2 * X + 1) ** 2) == (X + Fraction(1, 2)) ** 2


@settings(max_examples=40, deadline=None)
@given(p=univariate(max_deg=4), q=univariate(max_deg=3))
def test_squarefree_reconstruction_property(p, q):
    prod = p * p * q
    assume(prod.total_degree() >= 1)
    sf = squarefree_decomposition(prod)
    rebuilt = Poly.constant(prod.leading_coeff(), QQ, ("x",))
    for mf in sf:
        rebuilt = rebuilt * mf.factor ** mf.multiplicity
        # factors are separable
        assert gcd_univariate(mf.factor, mf.factor.derivative()).total_degree() == 0
    assert rebuilt == prod
    for i in range(len(sf)):
        for j in range(i + 1, len(sf)):
            assert gcd_univariate(sf[i].factor, sf[j].factor).total_degree() == 0
    assert [mf.multiplicity for mf in sf] == sorted(mf.multiplicity for mf in sf)


def test_multiplicity_profile_examples():
    t3 = chebyshev_T(3)
    # T3 - 1 = (x-1)(2x+1)^2 checked by expansion
    assert (X - 1) * (2 * X + 1) ** 2 == 4 * X ** 3 - 3 * X - 1
    assert multiplicity_profile(t3, 1) == (2, 1)
    # parity: T_n(-x) = (-1)^n T_n(x)
    assert multiplicity_profile(t3, -1) == (2, 1)
    assert multiplicity_profile(X ** 3, 0) == (3,)


@settings(max_examples=30, deadline=None)
@given(p=univariate(max_deg=7).filter(lambda p: p.total_degree() >= 1))
def test_multiplicity_profile_sums_to_degree(p):
    for c in (0, 1, -2):
        assert sum(multiplicity_profile(p, c)) == p.total_degree()


def test_chebyshev_relation_suite_small():
    for n in range(1, 21):
        tn = chebyshev_T(n)
        un1 = chebyshev_U(n - 1)
        assert n * un1 == tn.derivative()
        assert tn * tn - 1 == (X ** 2 - 1) * un1 * un1


# -- powering and division against a second computation ------------------------

F_SQRT_M2 = NumberField([2, 0, 1])          # theta^2 + 2
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def polys(field, names, max_terms=4, max_exp=3):
    """Sparse polynomials with at most max_terms terms over field."""
    coeff = st.lists(RATIONALS, min_size=field.degree,
                     max_size=field.degree).map(field.from_coords)
    mono = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda terms: _from_coeffs(field, names, terms))


RINGS = [(QQ, ("x",)), (QQ, ("x", "y")), (F_SQRT_M2, ("x",)),
         (F_SQRT_M2, ("x", "y"))]


@pytest.mark.parametrize("field,names", RINGS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_power_matches_repeated_multiplication(field, names, data):
    p = data.draw(polys(field, names, max_terms=3, max_exp=2))
    acc = Poly.constant(1, field, names)
    for n in range(13):
        assert p ** n == acc, n
        acc = acc * p


def test_power_multiply_count(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monomial = 3 * X
    monkeypatch.setattr(Poly, "__mul__", counting)
    for n in range(70):
        calls.clear()
        (X + 1) ** n
        expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
        assert len(calls) == expected, n
        # a one-term base is raised in closed form
        calls.clear()
        monomial ** n
        assert not calls, n


def _assert_division(a, b, q, r):
    assert a == q * b + r
    lm = b.leading_monomial()
    for k in r.terms:
        assert not all(x >= y for x, y in zip(k, lm)), (k, lm)


@pytest.mark.parametrize("field,names", RINGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_divmod_non_monic_divisor(field, names, data):
    a = data.draw(polys(field, names, max_terms=6, max_exp=4))
    b = data.draw(polys(field, names))
    assume(not b.is_zero() and b.leading_coeff() != 1)
    q, r = divmod_poly(a, b)
    _assert_division(a, b, q, r)


def _to_sympy(p, gens, domain, theta):
    import sympy
    terms = {k: sum((domain.convert(sympy.Rational(v.numerator, v.denominator))
                     * theta ** i for i, v in enumerate(c.coords)), domain.zero)
             for k, c in _coeffs(p).items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): domain.zero},
                                *gens, domain=domain)


def _sympy_ring(field, names):
    """(to_sympy, sympy) for the ring of field[names]; skips without sympy."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(names)
    if field == QQ:
        domain, theta = sympy.QQ, sympy.QQ.one
    else:
        domain = sympy.QQ.algebraic_field(sympy.sqrt(-2))
        theta = domain.from_sympy(sympy.sqrt(-2))
    return (lambda p: _to_sympy(p, gens, domain, theta)), sympy


@pytest.mark.parametrize("field,names", RINGS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_divmod_matches_sympy_reduced(field, names, data):
    to_sympy, sympy = _sympy_ring(field, names)
    a = data.draw(polys(field, names, max_terms=6, max_exp=4))
    b = data.draw(polys(field, names))
    assume(not b.is_zero())
    quotients, sr = sympy.reduced(to_sympy(a), [to_sympy(b)], order="lex")
    q, r = divmod_poly(a, b)
    assert to_sympy(r) == sr
    if quotients:
        assert to_sympy(q) == quotients[0]
    else:                       # sympy returns no quotient when a is zero
        assert q.is_zero()


UNIVARIATE = [(QQ, ("x",)), (F_SQRT_M2, ("x",))]


@pytest.mark.parametrize("field,names", UNIVARIATE)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_gcd_matches_sympy(field, names, data):
    to_sympy, sympy = _sympy_ring(field, names)
    g, a, b = (data.draw(polys(field, names, max_terms=3, max_exp=3))
               for _ in range(3))
    a, b = a * g, b * g             # a common factor makes the gcd nontrivial
    assert to_sympy(gcd_univariate(a, b)) == sympy.gcd(to_sympy(a), to_sympy(b))


@pytest.mark.parametrize("field,names", UNIVARIATE)
def test_gcd_long_remainder_sequences_match_sympy(field, names):
    # T_n - c against its derivative runs Euclid through n remainders; for
    # c = +-1 the gcd has degree about n/2, for the other c it is 1
    to_sympy, sympy = _sympy_ring(field, names)
    constants = [0, 1, -1, Fraction(1, 2)] + ([field.gen()] if field.degree > 1 else [])
    for n in range(2, 16):
        for c in constants:
            p = chebyshev_T(n).with_field(field) - c
            dp = p.derivative()
            assert (to_sympy(gcd_univariate(p, dp))
                    == sympy.gcd(to_sympy(p), to_sympy(dp))), (n, c)


@pytest.mark.parametrize("field,names", UNIVARIATE)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_squarefree_matches_sympy_sqf_list(field, names, data):
    to_sympy, _ = _sympy_ring(field, names)
    p = Poly.constant(1, field, names)
    for m in (1, 2, 3):
        f = data.draw(polys(field, names, max_terms=3, max_exp=2))
        if not f.is_zero():
            p = p * f ** m
    _, factors = to_sympy(p).sqf_list()
    assert ([(to_sympy(mf.factor), mf.multiplicity)
             for mf in squarefree_decomposition(p)]
            == [(f.monic(), m) for f, m in factors])


# -- the modular separability test ----------------------------------------------

SEPARABILITY_FIELDS = [(QQ, None), (NumberField([7, 0, 1]), "sqrt(-7)"),
                       (cyclotomic_field(5), "exp(2*pi*I/5)"),
                       (cyclotomic_field(8), "exp(pi*I/4)")]


def _sympy_separable(f, generator):
    """Whether gcd(f, f') = 1 by sympy, over the algebraic field Q(generator)."""
    sympy = pytest.importorskip("sympy")
    if generator is None:
        domain, theta = sympy.QQ, sympy.QQ.one
    else:
        gen = sympy.sympify(generator)
        domain = sympy.QQ.algebraic_field(gen)
        theta = domain.from_sympy(gen)
        assert [Fraction(int(c.numerator), int(c.denominator))
                for c in reversed(domain.ext.minpoly.rep.to_list())] == list(f.field.minpoly)
    (t,) = sympy.symbols(f.variables)
    sf = _to_sympy(f, (t,), domain, theta)
    return sympy.gcd(sf, sf.diff(t)).degree() == 0


@pytest.mark.parametrize("field,generator", SEPARABILITY_FIELDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_separable_mod_p_proves_only_separable_products(field, generator, data):
    nonzero = polys(field, ("t",), max_terms=3, max_exp=2).filter(
        lambda f: not f.is_zero())
    factors = data.draw(st.lists(nonzero, min_size=1, max_size=3))
    square = data.draw(st.one_of(st.none(), nonzero.filter(lambda h: h.total_degree() > 0)))
    if square is not None:
        factors += [square, square]
    f = Poly.constant(1, field, ("t",))
    for g in factors:
        f = f * g
    separable = gcd_univariate(f, f.derivative()).total_degree() == 0
    assert separable == _sympy_separable(f, generator)
    proved = separable_mod_p(factors)
    assert separable or not proved
    if square is not None:
        assert not proved


@pytest.mark.parametrize("field", [f for f, _ in SEPARABILITY_FIELDS])
def test_separable_mod_p_needs_the_leading_coefficient(field):
    p, rho = field.degree_one_prime()
    t = Poly.variable("t", field)
    # a leading coefficient in the kernel of theta -> rho: p, or theta - rho
    lc = field.elem(p) if field.degree == 1 else field.gen() - rho
    f = lc * t ** 2 + t + 1
    assert gcd_univariate(f, f.derivative()) == 1        # separable over the field
    assert not separable_mod_p([f])
    assert not separable_mod_p([t + 2, f])
    assert separable_mod_p([t + 2, f + t ** 3])


def test_separable_mod_p_skips_a_prime_in_the_minpoly_denominator():
    first = small_primes()[0]
    field = NumberField([Fraction(1, first), 0, 1])      # theta^2 + 1/p
    assert field.degree_one_prime()[0] != first
    t, theta = Poly.variable("t", field), field.gen()
    assert separable_mod_p([t - theta, t + theta, first * t - theta])
    assert not separable_mod_p([t - theta, t + theta, t - theta])


def test_separable_mod_p_examples():
    t = Poly.variable("t", QQ)
    assert separable_mod_p([1 - t, Poly.constant(4, QQ, ("t",)), 1 - 2 * t])
    assert not separable_mod_p([1 - t, 1 - t])
    assert not separable_mod_p([1 - t, Poly.zero(QQ, ("t",))])
    assert separable_mod_p([Poly.constant(3, QQ, ("t",))])
    with pytest.raises(ArityError):
        separable_mod_p([t, Poly.variable("x", QQ)])


def test_kronecker_vanishes_examples():
    # kronecker_sum is zero exactly when the sum vanishes, and otherwise
    # reads the sum off the digits of the same value
    t = Poly.variable("t", QQ)
    one = Poly.constant(1, QQ, ("t",))
    assert kronecker_sum([(1, [(t, 1), (1 - t, 1)]), (-1, [(t - t ** 2, 1)])]).is_zero()
    third = Fraction(1, 3)
    assert kronecker_sum([(3, [(third * t + Fraction(1, 2), 2)]),
                          (-1, [(third * t ** 2 + t + Fraction(3, 4), 1)])]).is_zero()
    assert kronecker_sum([(1, [(one, 0)]), (-1, [])]).is_zero()
    assert kronecker_sum([(2, []), (-1, [])]) == Poly.constant(1)
    # a zero factor: its term adds nothing to the bound, and the other
    # factor's coefficients are still written in full
    big = 2 ** 300 * t - 2 ** 299
    assert kronecker_sum([(1, [(Poly.zero(QQ, ("t",)), 1), (big, 3)])]).is_zero()
    # a residual of one unit in the lowest coefficient, under large ones
    for residual in (1, t ** 5, -t ** 4 + third):
        assert kronecker_sum([(1, [(big, 2)]), (-1, [(big * big + residual, 1)])]) == -residual
    # residuals that vanish at t = -1 modulo 2^61 - 1
    q = 2 ** 61 - 1
    for residual in (q * t ** 3, t + 1, -q * 2 ** 64 * t, t ** 7 + 1):
        assert kronecker_sum([(1, [(big, 2)]), (-1, [(big * big + residual, 1)])]) == -residual
    assert kronecker_sum([(1, [(t, 1)])]) == t


@pytest.mark.parametrize("field", [NumberField([7, 0, 1]), cyclotomic_field(5),
                                   NumberField([Fraction(-1, 2), 0, 1])],
                         ids=["theta^2 + 7", "zeta_5", "theta^2 - 1/2"])
def test_kronecker_sum_matches_the_products_over_a_field(field):
    t = Poly.variable("t", field)
    theta = field.gen()
    f = theta * t ** 3 - (2 * theta - Fraction(1, 3)) * t + theta ** 2
    g = (theta ** (field.degree - 1) - 5) * t ** 2 + Fraction(7, 2) * theta
    terms = [(3, [(f, 4), (g, 1)]), (-2, [(g, 3), (t, 2)]), (1, [(f, 2)]), (-5, [])]
    expected = 3 * f ** 4 * g - 2 * g ** 3 * t ** 2 + f ** 2 - 5
    assert kronecker_sum(terms) == expected
    assert kronecker_sum(terms + [(-1, [(expected, 1)])]).is_zero()


def test_kronecker_bound_is_nearly_tight_over_a_field():
    # over theta^2 + 7, ||mul(a, b)||_1 <= 7 * ||a||_1 * ||b||_1 is reached by
    # theta*theta = -7: with a = (2^200 - 1)*theta*t the one coefficient of
    # a^2 is -7*(2^200 - 1)^2, exactly the proved bound, and kronecker_bits
    # exceeds its bit length by the rounding of bit lengths alone
    field = NumberField([7, 0, 1])
    assert field.mul_norm == 7
    t = Poly.variable("t", field)
    a = Poly.constant(field.gen() * (2 ** 200 - 1), field, ("t",)) * t
    terms = [(1, [(a, 2)])]
    coefficient = -7 * (2 ** 200 - 1) ** 2
    assert a ** 2 == Poly.constant(coefficient, field, ("t",)) * t ** 2
    bits = kronecker_bits(terms)
    assert abs(coefficient).bit_length() <= bits <= abs(coefficient).bit_length() + 3
    assert kronecker_sum(terms) == a ** 2
    # the balanced digits take one more bit than the bound: a coefficient
    # just below 2^bits in absolute value, of either sign, reads back
    for c in (2 ** bits - 1, -(2 ** bits - 1)):
        p = Poly.constant(c, field, ("t",)) * t ** 3 + Poly.constant(-c, field, ("t",))
        assert kronecker_sum([(1, [(p, 1)])], bits=bits) == p


# -- coercion between QQ and an extension ----------------------------------------

F_ZETA3 = cyclotomic_field(3)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_with_field_coerces_each_coefficient(data):
    p = data.draw(polys(QQ, ("x", "y")))
    lifted = p.with_field(F_SQRT_M2)
    assert lifted.field == F_SQRT_M2
    assert _coeffs(lifted) == {k: F_SQRT_M2.elem(c) for k, c in _coeffs(p).items()}
    u = data.draw(polys(QQ, ("x",)))
    assert (u.with_field(F_SQRT_M2).univariate_coeffs()
            == [F_SQRT_M2.elem(c) for c in u.univariate_coeffs()])


def test_with_field_between_extensions_raises():
    p = Poly.variable("x", F_SQRT_M2) + Poly.constant(F_SQRT_M2.gen(), F_SQRT_M2, ("x",))
    with pytest.raises(FieldMismatch):
        p.with_field(F_ZETA3)
    with pytest.raises(FieldMismatch):
        p.with_field(QQ)
    with pytest.raises(FieldMismatch):
        p + Poly.variable("x", F_ZETA3)


@pytest.mark.parametrize("names", [("x",), ("x", "y")])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mixed_field_operations_match_explicit_coercion(names, data):
    a = data.draw(polys(QQ, names, max_terms=5))
    b = data.draw(polys(F_SQRT_M2, names))
    lifted = a.with_field(F_SQRT_M2)
    for got, want in ((a + b, lifted + b), (b + a, lifted + b),
                      (a * b, lifted * b), (b * a, lifted * b),
                      (a - b, lifted - b)):
        assert got.field == F_SQRT_M2
        assert (got.terms, got.den) == (want.terms, want.den)
    if not b.is_zero():
        assert divmod_poly(a, b) == divmod_poly(lifted, b)
    if not a.is_zero():
        assert divmod_poly(b, a) == divmod_poly(b, lifted)
    assert isinstance((a * b).leading_coeff(), FieldElement)
    assert isinstance((a * b).constant_coeff(), FieldElement)


# -- the integer-numerator kernel against Fraction term maps ---------------------
#
# The reference holds a polynomial as {exponent vector: tuple of Fraction
# coordinates} and multiplies coefficients by a schoolbook product reduced by
# long division by the minimal polynomial; it never sees numerators or a
# common denominator.

KERNEL_FIELDS = [QQ, F_SQRT_M2, NumberField([Fraction(-3, 7), 1]),
                 NumberField([Fraction(-1, 2), 0, 1])]
SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=9)


def _ref_coeff_mul(field, a, b):
    n, m = field.degree, field.minpoly
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(2 * n - 2, n - 1, -1):    # theta^top -= prod[top] * m
        c = prod[top]
        for i, mi in enumerate(m):
            prod[top - n + i] -= c * mi
    return tuple(prod[:n])


def _ref_coeff_inv(field, a):
    """1/a in degree one, and (a0 - p a1 - a1 theta) / norm for a minimal
    polynomial theta^2 + p theta + q."""
    if field.degree == 1:
        return (1 / a[0],)
    q, p, _ = field.minpoly
    a0, a1 = a
    norm = a0 * a0 - p * a0 * a1 + q * a1 * a1
    return ((a0 - p * a1) / norm, -a1 / norm)


def _ref_add(f, g, sign=1):
    out = dict(f)
    for k, c in g.items():
        s = tuple(x + sign * y for x, y in zip(out.get(k, (0,) * len(c)), c))
        if any(s):
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _ref_mul(field, f, g):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out = _ref_add(out, {k: _ref_coeff_mul(field, c1, c2)})
    return out


def _ref_divmod(field, f, g):
    lm = max(g)
    inv = _ref_coeff_inv(field, g[lm])
    f, q, r = dict(f), {}, {}
    while f:
        k = max(f)
        if all(x >= y for x, y in zip(k, lm)):
            term = {tuple(x - y for x, y in zip(k, lm)): _ref_coeff_mul(field, f[k], inv)}
            q = _ref_add(q, term)
            f = _ref_add(f, _ref_mul(field, term, g), -1)
        else:
            r[k] = f.pop(k)
    return q, r


def _ref_gcd(field, f, g):
    while g:
        f, g = g, _ref_divmod(field, f, g)[1]
    if not f:
        return f
    inv = _ref_coeff_inv(field, f[max(f)])
    return {k: _ref_coeff_mul(field, c, inv) for k, c in f.items()}


def _ref_of(p):
    return {k: c.coords for k, c in _coeffs(p).items()}


def _checked(p, ref):
    """p's normalization invariant holds and p equals the reference map."""
    assert p.den >= 1
    assert math.gcd(p.den, *(x for c in p.terms.values() for x in c)) == 1
    assert all(any(c) for c in p.terms.values())
    assert _ref_of(p) == ref
    return p


def ref_maps(field, names, max_terms=4, max_exp=3, min_terms=0):
    coords = st.lists(SMALL, min_size=field.degree, max_size=field.degree).map(tuple)
    if min_terms:
        coords = coords.filter(any)
    mono = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return st.dictionaries(mono, coords, min_size=min_terms, max_size=max_terms).map(
        lambda terms: {k: c for k, c in terms.items() if any(c)})


def product_operands(field, names):
    """Sparse maps with exponents up to 60, one-term maps and the zero map,
    for products and powers (the Fraction reference gcd is too slow on
    them)."""
    return st.one_of(ref_maps(field, names, max_exp=60),
                     ref_maps(field, names, max_exp=60, min_terms=1, max_terms=1),
                     st.just({}))


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("names", [("x",), ("x", "y")])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernel_matches_fraction_reference(field, names, data):
    def poly(ref):
        return _from_coeffs(field, names,
                            {k: field.from_coords(c) for k, c in ref.items()})

    f, g = (data.draw(ref_maps(field, names)) for _ in range(2))
    a, b = _checked(poly(f), f), _checked(poly(g), g)
    _checked(a + b, _ref_add(f, g))
    _checked(a - b, _ref_add(f, g, -1))
    _checked(a * b, _ref_mul(field, f, g))
    one = {(0,) * len(names): field.one().coords}
    power = one
    for n in range(4):
        _checked(a ** n, power)
        power = _ref_mul(field, power, f)
    u, v = (data.draw(product_operands(field, names)) for _ in range(2))
    _checked(poly(u) * poly(v), _ref_mul(field, u, v))
    m = data.draw(ref_maps(field, names, max_exp=60, min_terms=1, max_terms=1))
    power = one
    for n in range(data.draw(st.integers(0, 20)) + 1):
        _checked(poly(m) ** n, power)
        power = _ref_mul(field, power, m)
    if g:
        q, r = divmod_poly(a, b)
        want_q, want_r = _ref_divmod(field, f, g)
        _checked(q, want_q)
        _checked(r, want_r)
    if len(names) == 1 and (f or g):
        _checked(gcd_univariate(a, b), _ref_gcd(field, f, g))
        d = max(k[0] for k in f) if f else -1
        assert ([c.coords for c in a.univariate_coeffs()]
                == [f.get((e,), field.zero().coords) for e in range(d + 1)])
    rational = data.draw(ref_maps(QQ, names))
    lifted = _from_coeffs(QQ, names, {k: QQ.from_coords(c)
                                      for k, c in rational.items()}).with_field(field)
    assert lifted.field == field
    _checked(lifted, {k: c + (Fraction(0),) * (field.degree - 1)
                      for k, c in rational.items()})


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_gcd_zero_and_constant_operands(field):
    x = Poly.variable("x", field)
    a = 3 * (x - 2) * (x + 1)
    zero, five = Poly.zero(field, ("x",)), Poly.constant(5, field, ("x",))
    one = Poly.constant(1, field, ("x",))
    for u, v, want in [(zero, a, monic(a)), (a, zero, monic(a)), (zero, zero, zero),
                       (five, a, one), (a, five, one), (zero, five, one)]:
        g = gcd_univariate(u, v)
        assert g == want and g.variables == ("x",) and g.field == field
        assert _ref_of(g) == _ref_gcd(field, _ref_of(u), _ref_of(v))
    # a variable-free or int operand takes the variables of the other
    assert gcd_univariate(Poly.constant(5, field), a).variables == ("x",)
    assert gcd_univariate(a, 5) == one
    with pytest.raises(ArityError):
        gcd_univariate(*variables("x,y", field))
