"""Deformation machinery: shears, covering, family members, equivalence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.constructor import cyclic_galois_endo
from etale_forge.endo import (apply_map, compose_maps, cstar_equivariant,
                              degree_of, identity_map, jacobian_spotcheck,
                              make_map, maps_equal)
from etale_forge.family import (EcEquivalence, FamilySpec, covering,
                                ec_equivalent, family_member,
                                family_member_symbolic,
                                family_pairwise_distinct, theta)
from etale_forge.numfield import QQ, cyclotomic_field
from etale_forge.polyalg import Poly, variables
from etale_forge.polyparse import parse_poly
from etale_forge.surface import (SplitMix64, SurfacePoint, hyper_surface,
                                 normal_form, tilde_surface)

S22 = tilde_surface(2, 2)
H21 = hyper_surface(2, 1)
X = Poly.variable("x", QQ)


def test_theta_examples():
    assert maps_equal(theta(Poly.zero(QQ, ("x",)), S22), identity_map(S22))
    th1 = theta(1, S22)
    x, y, z = (Poly.variable(v, QQ, S22.vars) for v in S22.vars)
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


def test_theta_fixes_base_fibration():
    rng = SplitMix64(3)
    for _ in range(5):
        p = sum((Poly.constant(rng.fraction(9), QQ, ("x",)) * X ** e
                 for e in range(4)), Poly.zero(QQ, ("x",)))
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


def s2_members():
    base, _ = cyclic_galois_endo(2)
    avs = [(), (QQ.elem(1),), (QQ.elem(2),), (QQ.elem(1), QQ.elem(1))]
    return [FamilySpec(2, 1, base, av) for av in avs]


def test_family_member_formulas_and_point():
    specs = s2_members()
    m0 = family_member(specs[0])
    u, v, w = (Poly.variable(n, QQ, H21.vars) for n in H21.vars)
    expected = make_map(H21, H21, (w ** 2,
                                   4 * v + 2 * (1 + 2 * u * v) + w ** 2,
                                   (1 + 2 * u * v) * w + w ** 3))
    assert maps_equal(m0, expected)
    pt = SurfacePoint(H21, (QQ.elem(1), QQ.elem(3), QQ.elem(2)))
    img = apply_map(m0, pt)
    assert [c.as_fraction() for c in img.coords] == [4, 30, 22]
    # chart chase: j, Theta^1, pi step by step
    base, j = cyclic_galois_endo(2)
    q1 = apply_map(j, pt)
    assert [c.as_fraction() for c in q1.coords] == [2, 12, 7]
    q2 = apply_map(theta(1, S22), q1)
    assert [c.as_fraction() for c in q2.coords] == [2, 30, 11]
    q3 = apply_map(covering(2, 1), q2)
    assert [c.as_fraction() for c in q3.coords] == [4, 30, 22]
    # on-surface sanity for the final point: 4(1 + 4*30/4)... u(1+uv) = w^2
    assert 4 * (1 + 4 * 30) == 22 ** 2


def test_eta2_formula_with_one_parameter():
    base, _ = cyclic_galois_endo(2)
    m = family_member(FamilySpec(2, 1, base, (QQ.elem(5),)))
    uvw = ("u", "v", "w")
    want = parse_poly(
        "4*v + 2*(1 + 2*u*v)*(1 + 5*w^2) + w^2*(1 + 5*w^2)^2", uvw)
    assert normal_form(m.coords[1], H21) == normal_form(want, H21)


def test_family_members_degrees_and_oracle():
    for spec in s2_members():
        m = family_member(spec)
        assert degree_of(m) == 2
        assert jacobian_spotcheck(m)
        assert not cstar_equivariant(m)


def test_no_equivariant_member_for_random_nonzero_vectors():
    base, _ = cyclic_galois_endo(2)
    rng = SplitMix64(2024)
    for _ in range(10):
        av = tuple(QQ.elem(rng.fraction(9)) for _ in range(rng.randint(1, 3)))
        if all(a.is_zero() for a in av):
            continue
        assert not cstar_equivariant(family_member(FamilySpec(2, 1, base, av)))


def test_family_pairwise_distinct_examples():
    specs = s2_members()
    assert family_pairwise_distinct(specs)
    base = specs[0].base
    dup = FamilySpec(2, 1, base, (QQ.elem(1),))
    assert not family_pairwise_distinct([specs[1], dup])
    padded = FamilySpec(2, 1, base, (QQ.elem(1), QQ.elem(0)))
    assert not family_pairwise_distinct([specs[1], padded])


def _bases():
    # (k, rbar, base, coefficient pool): QQ at k = 2, Q(zeta_3) at k = 3
    qq_base, _ = cyclic_galois_endo(2)
    z3_base, _ = cyclic_galois_endo(3)
    zeta = z3_base.field.gen()
    return [(2, 1, qq_base, [QQ.elem(c) for c in (0, 1, -1, 2)]),
            (3, 1, z3_base, [z3_base.field.elem(0), z3_base.field.elem(1),
                             zeta, zeta * zeta, -zeta])]


BASES = _bases()


@pytest.mark.parametrize("case", range(len(BASES)))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_family_pairwise_distinct_matches_pairwise_equivalence(case, data):
    # a-vectors drawn from a small pool, so duplicates, trailing-zero
    # padding and interior zeros all occur; the reference is the pairwise
    # decision modulo automorphisms
    k, rbar, base, pool = BASES[case]
    entry = st.sampled_from(pool)
    avec = st.tuples(st.lists(entry, max_size=2),
                     st.integers(0, 2)).map(lambda p: tuple(p[0]) + (pool[0],) * p[1])
    avecs = data.draw(st.lists(avec, max_size=4))
    specs = [FamilySpec(k, rbar, base, av) for av in avecs]
    polys = [f.deformation_poly() for f in specs]
    reference = not any(ec_equivalent(polys[i], polys[j], rbar * k).equivalent
                        for i in range(len(polys)) for j in range(i + 1, len(polys)))
    assert family_pairwise_distinct(specs) == reference


def test_symbolic_family_matches_printed_formulas():
    base, _ = cyclic_galois_endo(2)
    sym = family_member_symbolic(base, 3)
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


def test_ec_equivalent_requires_x_power_r():
    with pytest.raises(ValueError):
        ec_equivalent(1 + X, 1 + X, 2)
    with pytest.raises(ValueError):
        ec_equivalent(Poly.zero(QQ, ("x",)), 1 + X ** 2, 2)


def test_family_spec_preconditions():
    from etale_forge.constructor import chebyshev_endo, PreconditionViolated
    with pytest.raises(PreconditionViolated):
        FamilySpec(2, 1, chebyshev_endo(3), ())
