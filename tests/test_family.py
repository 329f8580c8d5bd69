"""Deformation machinery: shears, covering, family members, equivalence."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.constructor import cyclic_galois_endo
from etale_forge.endo import (apply_map, build_from_params, compose_maps,
                              cstar_equivariant, degree_of, jacobian_spotcheck,
                              make_map, maps_equal)
from etale_forge.family import (EcEquivalence, covering, deformation_poly,
                                ec_equivalent, family_member,
                                family_member_symbolic,
                                family_pairwise_distinct, theta)
from etale_forge.numfield import QQ, NumberField, cyclotomic_field
from etale_forge.polyalg import Poly, compose, variables
from etale_forge.polyparse import parse_poly
from etale_forge.surface import (SurfacePoint, hyper_surface, normal_form,
                                 tilde_surface)

S22 = tilde_surface(2, 2)
H21 = hyper_surface(2, 1)
X = Poly.variable("x", QQ)


def test_theta_examples():
    x, y, z = (Poly.variable(v, QQ, S22.vars) for v in S22.vars)
    assert maps_equal(theta(Poly.zero(QQ, ("x",)), S22), make_map(S22, S22, (x, y, z)))
    th1 = theta(1, S22)
    assert th1.coords == (x, y + 2 * z + x ** 2, z + x ** 2)
    # group law for P = 1, Q = x^2
    p, q = Poly.constant(1, QQ, ("x",)), X ** 2
    assert maps_equal(compose_maps(theta(p, S22), theta(q, S22)),
                      theta(p + q, S22))


@pytest.mark.parametrize("k,r", [(2, 2), (3, 2), (2, 3)])
def test_theta_group_law_symbolic(k, r):
    # p and q stand for arbitrary P(x), Q(x): theta fixes x
    p, q = (Poly.variable(v, QQ, ("x", "p", "q")) for v in ("p", "q"))
    s = tilde_surface(k, r)
    composite = compose_maps(theta(p, s), theta(q, s))
    assert maps_equal(composite, theta(p + q, s))
    assert not maps_equal(composite, theta(p + 2 * q, s))
    assert not maps_equal(composite, theta(p * q, s))


HEIGHT_9 = st.fractions(min_value=-9, max_value=9,
                        max_denominator=9).filter(lambda c: c != 0)


@settings(max_examples=5, deadline=None)
@given(cs=st.lists(HEIGHT_9, min_size=4, max_size=4))
def test_theta_fixes_base_fibration(cs):
    p = sum((Poly.constant(c, QQ, ("x",)) * X ** e for e, c in enumerate(cs)),
            Poly.zero(QQ, ("x",)))
    th = theta(p, tilde_surface(3, 2))
    assert th.coords[0] == Poly.variable("x", QQ, ("x", "y", "z"))
    assert degree_of(th) == 1


def test_covering_examples():
    pi = covering(2, 1)
    pt = SurfacePoint(S22, (QQ.elem(1), QQ.elem(3), QQ.elem(2)))
    assert [c.as_fraction() for c in apply_map(pi, pt).coords] == [1, 3, 2]
    # fibers are orbits of the cyclic action
    pt2 = SurfacePoint(S22, (QQ.elem(-1), QQ.elem(3), QQ.elem(-2)))
    assert [c.as_fraction() for c in apply_map(pi, pt2).coords] == [1, 3, 2]
    assert degree_of(covering(3, 1)) == 3


S2_AVECS = [(), (QQ.elem(1),), (QQ.elem(2),), (QQ.elem(1), QQ.elem(1))]


def galois_j(k):
    """j: hyper(k, 1) -> tilde(k, k) of the cyclic Galois endomorphism of degree k."""
    return build_from_params(cyclic_galois_endo(k)).j


def test_family_member_formulas_and_point():
    m0 = family_member(galois_j(2), ())
    u, v, w = (Poly.variable(n, QQ, H21.vars) for n in H21.vars)
    expected = make_map(H21, H21, (w ** 2,
                                   4 * v + 2 * (1 + 2 * u * v) + w ** 2,
                                   (1 + 2 * u * v) * w + w ** 3))
    assert maps_equal(m0, expected)
    pt = SurfacePoint(H21, (QQ.elem(1), QQ.elem(3), QQ.elem(2)))
    img = apply_map(m0, pt)
    assert [c.as_fraction() for c in img.coords] == [4, 30, 22]
    # chart chase: j, Theta^1, pi step by step
    j = galois_j(2)
    q1 = apply_map(j, pt)
    assert [c.as_fraction() for c in q1.coords] == [2, 12, 7]
    q2 = apply_map(theta(1, S22), q1)
    assert [c.as_fraction() for c in q2.coords] == [2, 30, 11]
    q3 = apply_map(covering(2, 1), q2)
    assert [c.as_fraction() for c in q3.coords] == [4, 30, 22]
    # on-surface sanity for the final point: 4(1 + 4*30/4)... u(1+uv) = w^2
    assert 4 * (1 + 4 * 30) == 22 ** 2


def test_eta2_formula_with_one_parameter():
    m = family_member(galois_j(2), (QQ.elem(5),))
    uvw = ("u", "v", "w")
    want = parse_poly(
        "4*v + 2*(1 + 2*u*v)*(1 + 5*w^2) + w^2*(1 + 5*w^2)^2", uvw)
    assert normal_form(m.coords[1], H21) == normal_form(want, H21)


def test_family_members_degrees_and_oracle():
    j = galois_j(2)
    for av in S2_AVECS:
        m = family_member(j, av)
        assert degree_of(m) == 2
        assert jacobian_spotcheck(m)
        assert not cstar_equivariant(m)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 6), (3, 4)])
def test_symbolic_member_jacobian_is_free_of_parameters(k, n):
    # J of pi o Theta^F(a1..an) o j is one constant for every a: each member
    # is etale, with the J of the base map
    verdict = jacobian_spotcheck(family_member_symbolic(galois_j(k), n))
    zeta = cyclotomic_field(3).from_coords([0, 1])
    want = {2: QQ.elem(4), 3: 3 - 3 * zeta}[k]
    assert verdict.J == Poly.constant(want) and verdict.jacobian == want


@settings(max_examples=10, deadline=None)
@given(av=st.lists(HEIGHT_9.map(QQ.elem), min_size=1, max_size=3).map(tuple))
def test_no_equivariant_member_for_random_nonzero_vectors(av):
    assert not cstar_equivariant(family_member(galois_j(2), av))


def test_family_pairwise_distinct_examples():
    j = galois_j(2)
    assert family_pairwise_distinct(j, S2_AVECS)
    dup = (QQ.elem(1),)
    assert not family_pairwise_distinct(j, [S2_AVECS[1], dup])
    padded = (QQ.elem(1), QQ.elem(0))
    assert not family_pairwise_distinct(j, [S2_AVECS[1], padded])


def _bases():
    # (k, rbar, j, coefficient pool): QQ at k = 2, Q(zeta_3) at k = 3
    qq_j = galois_j(2)
    z3_j = galois_j(3)
    zeta = z3_j.field.gen()
    return [(2, 1, qq_j, [QQ.elem(c) for c in (0, 1, -1, 2)]),
            (3, 1, z3_j, [z3_j.field.elem(0), z3_j.field.elem(1),
                          zeta, zeta * zeta, -zeta])]


BASES = _bases()


@pytest.mark.parametrize("case", range(len(BASES)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_family_pairwise_distinct_matches_pairwise_equivalence(case, data):
    # a-vectors drawn from a small pool, so duplicates, trailing-zero
    # padding and interior zeros all occur; the reference is the pairwise
    # decision modulo automorphisms
    k, rbar, j, pool = BASES[case]
    entry = st.sampled_from(pool)
    avec = st.tuples(st.lists(entry, max_size=2),
                     st.integers(0, 2)).map(lambda p: tuple(p[0]) + (pool[0],) * p[1])
    avecs = data.draw(st.lists(avec, max_size=4))
    polys = [deformation_poly(j, av) for av in avecs]
    reference = not any(ec_equivalent(polys[a], polys[b], rbar * k).equivalent
                        for a in range(len(polys)) for b in range(a + 1, len(polys)))
    assert family_pairwise_distinct(j, avecs) == reference


def test_symbolic_family_matches_printed_formulas():
    sym = family_member_symbolic(galois_j(2), 3)
    uvwa = ("u", "v", "w", "a1", "a2", "a3")
    qa = "a1 + a2*w^2 + a3*w^4"
    printed = (
        "w^2",
        f"4*v + 2*(1 + 2*u*v)*(1 + w^2*({qa})) + w^2*(1 + w^2*({qa}))^2",
        f"(1 + 2*u*v)*w + w^3*(1 + w^2*({qa}))",
    )
    for got, text in zip(sym.coords, printed):
        assert normal_form(got, H21) == normal_form(parse_poly(text, uvwa), H21)


def test_ec_equivalent_examples():
    assert ec_equivalent(1 + X ** 2, 1 + X ** 2, 2).equivalent
    res = ec_equivalent(1 + X ** 2, 1 + 2 * X ** 2, 2)
    assert not res.equivalent
    # the quadratic family: equivalent iff the ratio is a cube root of unity
    field = cyclotomic_field(3)
    zeta = field.gen()
    xf = Poly.variable("x", field)

    def pol(a):
        return Poly.constant(a * a, field, ("x",)) + Poly.constant(a, field, ("x",)) * xf ** 2

    for a, b, expect in [
        (field.elem(1), zeta, True),
        (zeta, zeta ** 2, True),
        (field.elem(3), field.elem(1), False),
    ]:
        res = ec_equivalent(pol(a), pol(b), 2)
        assert res.equivalent == expect
        if expect:
            lam = res.lam
            assert lam is not None
            shifted = Poly.constant(lam ** 2, field, ("x",)) * \
                pol(b).substitute({"x": Poly.constant(lam, field, ("x",)) * xf})
            assert shifted == pol(a)


Z3 = cyclotomic_field(3)
# (field, the mu to plant)
PLANTED = [(field, field.elem(c)) for field in (QQ, NumberField([2, 0, 1]), Z3)
           for c in (1, -1, 2, Fraction(1, 2))] + [(Z3, Z3.gen()), (Z3, Z3.gen() ** 2)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), case=st.sampled_from(PLANTED), r=st.integers(1, 4),
       powers=st.sets(st.integers(0, 4), min_size=1, max_size=3))
def test_ec_equivalent_finds_a_planted_mu(data, case, r, powers):
    # P1 = sum b_j mu^(1 + j/r) x^j is equivalent to P2 = sum b_j x^j; the
    # witness is checked on the polynomials, apart from the decision
    field, mu = case
    x = Poly.variable("x", field)
    coeff = st.lists(HEIGHT_9, min_size=field.degree,
                     max_size=field.degree).map(field.from_coords)
    p1 = p2 = Poly.zero(field, ("x",))
    for i in powers:
        b = data.draw(coeff)
        p1 = p1 + b * mu ** (1 + i) * x ** (r * i)
        p2 = p2 + b * x ** (r * i)
    res = ec_equivalent(p1, p2, r)
    assert res.equivalent
    if math.gcd(*(1 + i for i in powers)) == 1:
        assert res.lam_pow_r == mu
    if res.lam is not None:
        assert p1 == res.lam ** r * compose(p2, res.lam * x)


def test_ec_equivalent_requires_x_power_r():
    with pytest.raises(ValueError):
        ec_equivalent(1 + X, 1 + X, 2)
    with pytest.raises(ValueError):
        ec_equivalent(Poly.zero(QQ, ("x",)), 1 + X ** 2, 2)


def test_an_alpha1_base_has_no_j():
    # a member needs j, and only an alpha = 0 base has one; the CLI refuses
    # such a base (test_cli's family-distinct-no-avecs-alpha1-base)
    from etale_forge.constructor import chebyshev_endo
    assert build_from_params(chebyshev_endo(3)).j is None
