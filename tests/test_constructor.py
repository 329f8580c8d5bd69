"""Closed-form constructors and the (3,2) solver."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.chebyshab import chebyshev_T, chebyshev_U
from etale_forge.constructor import (BadEpsilon, InfeasibleDegree,
                                     _kr32_d01_eliminant, _kr32_params_from_r1_poly,
                                     chebyshev_endo, cyclic_galois_endo,
                                     kr32_condition, solve_kr32)
from etale_forge.endo import (EtaleParams, base_polynomial, build_from_params,
                              compose_maps, degree_of, etale_certificate,
                              jacobian_spotcheck, make_map,
                              maps_equal, cstar_equivariant, params_from_json,
                              ri_degrees)
from etale_forge.family import covering
from etale_forge.numfield import QQ, NumberField, cyclotomic_field
from etale_forge.polyalg import (Poly, compose, divmod_poly, exact_div,
                                 gcd_univariate, monic, squarefree_decomposition)
from etale_forge.polyparse import parse_poly
from etale_forge.reproduce import build_corpus
from etale_forge.surface import hyper_surface, tilde_surface

T = Poly.variable("t", QQ)


def test_ri_degrees_examples():
    assert ri_degrees(2, 2, 1, 3) == (0, 1, 1)
    assert ri_degrees(3, 2, 1, 4) == (1, 1, 1)
    # d = 2 fails the congruence d = 1 mod 2: d2 is not an integer
    assert ri_degrees(2, 2, 1, 2)[2].denominator != 1


def test_ri_degrees_match_the_fraction_formula():
    # ri_degrees computes in integers; each degree must equal the formula in
    # Fractions, and be an int exactly when it is integral
    negative = non_integral = alpha0_k_not_dividing_r = 0
    for k in range(2, 7):
        for r in range(2, 7):
            for alpha in (0, 1):
                for d in range(1, 61):
                    d2 = Fraction(d - alpha - r * (1 - alpha), k * (r - 1))
                    d1 = d2 * (r - 1) + Fraction((1 - alpha) * r, k)
                    d0 = (d2 * k + 1 - alpha) * (r - 1 - Fraction(r, k))
                    got = ri_degrees(k, r, alpha, d)
                    assert got == (d0, d1, d2), (k, r, alpha, d)
                    for x, want in zip(got, (d0, d1, d2)):
                        assert type(x) is (int if want.denominator == 1 else Fraction)
                    negative += d2 < 0
                    non_integral += d2.denominator != 1
                    alpha0_k_not_dividing_r += alpha == 0 and r % k != 0
    assert negative and non_integral and alpha0_k_not_dividing_r


def test_c2_witness_keeps_its_text():
    # (k, r, alpha, d) = (2, 2, 0, 1): d2 = -1/2 and d1 = 1/2; (2, 3, 1, 2):
    # every degree is a fraction; (2, 2, 0, 4): integral, as in the golden
    # replay of verify-endo
    base = dict(k=2, a=1, lam=QQ.elem(1), R0=4, R1=1 - 2 * T, R2=1 + T)
    for r, alpha, d, expected in ((2, 0, 1, ["0", "1/2", "-1/2"]),
                                  (3, 1, 2, ["1/4", "1/2", "1/4"]),
                                  (2, 0, 4, ["0", "2", "1"])):
        cert = etale_certificate(EtaleParams(r=r, alpha=alpha, d=d, **base))
        assert cert.witness_json()["C2_degrees"] == {"expected": expected,
                                                     "actual": [0, 1, 1]}


def test_chebyshev_endo_examples():
    p3 = chebyshev_endo(3)
    built = build_from_params(p3)
    s = tilde_surface(2, 2)
    x, y, z = (Poly.variable(v, QQ, s.vars) for v in s.vars)
    expected = make_map(s, s, (x * compose(chebyshev_U(2), z), y,
                               compose(chebyshev_T(3), z)))
    assert maps_equal(built.tilde_map, expected)
    p1 = chebyshev_endo(1)
    assert maps_equal(build_from_params(p1).tilde_map, make_map(s, s, (x, y, z)))
    p5 = chebyshev_endo(5)
    third = build_from_params(p5).tilde_map.coords[2]
    assert third == compose(chebyshev_T(5), z)
    assert chebyshev_T(5) == 16 * Poly.variable("x", QQ) ** 5 \
        - 20 * Poly.variable("x", QQ) ** 3 + 5 * Poly.variable("x", QQ)
    with pytest.raises(InfeasibleDegree):
        chebyshev_endo(4)


def test_chebyshev_endo_lambda_action():
    lam = QQ.elem(Fraction(3, 2))
    built = build_from_params(chebyshev_endo(3, lam)).tilde_map
    s = tilde_surface(2, 2)
    x, y, z = (Poly.variable(v, QQ, s.vars) for v in s.vars)
    inv = Poly.constant(lam.inverse(), QQ, s.vars)
    lam2 = Poly.constant(lam * lam, QQ, s.vars)
    expected = make_map(s, s, (x * inv * compose(chebyshev_U(2), z), lam2 * y,
                               compose(chebyshev_T(3), z)))
    assert maps_equal(built, expected)


def test_chebyshev_base_map_is_one_minus_td_squared():
    for d in (3, 5, 7):
        params = chebyshev_endo(d)
        eta_rho = base_polynomial(build_from_params(params).tilde_map)
        z = Poly.variable("z", QQ)
        # eta_rho(1 - z^2) = 1 - T_d(z)^2 as a polynomial identity
        lhs = compose(eta_rho, 1 - z ** 2)
        td = chebyshev_T(d).substitute({"x": z})
        assert lhs == 1 - td * td


def test_cyclic_galois_examples():
    j = build_from_params(cyclic_galois_endo(2)).j
    h = hyper_surface(2, 1)
    u, v, w = (Poly.variable(name, QQ, h.vars) for name in h.vars)
    expected = make_map(h, tilde_surface(2, 2), (w, 4 * v, 1 + 2 * u * v))
    assert maps_equal(j, expected)
    # k = 3: R0 = (((zeta-1)t+1)^3 - 1)/(t(t-1)) has degree 1 over Q(zeta_3)
    params3 = cyclic_galois_endo(3)
    assert params3.R0.total_degree() == 1
    assert etale_certificate(params3).verdict
    zeta = cyclotomic_field(3).gen()
    tt = Poly.variable("t", cyclotomic_field(3))
    r1 = (zeta - 1) * tt + 1
    assert params3.R0 == exact_div(r1 ** 3 - 1, tt * (tt - 1))
    with pytest.raises(BadEpsilon):
        cyclic_galois_endo(2, eps_power=2)
    with pytest.raises(BadEpsilon):
        cyclic_galois_endo(3, eps_power=3)


def test_cyclic_galois_single_critical_point():
    # eta_rho' is a unit times R1^(k-1): exactly one multiple critical point
    for k in (2, 3, 4):
        params = cyclic_galois_endo(k)
        eta_rho = 1 - params.R1 ** k
        deriv = eta_rho.derivative()
        ratio = exact_div(deriv, params.R1 ** (k - 1))
        assert ratio.total_degree() == 0 and not ratio.is_zero()
        sf = squarefree_decomposition(deriv)
        assert len(sf) == 1 and sf[0].multiplicity == k - 1


def test_cyclic_galois_base_map():
    for k in (2, 3, 4):
        params = cyclic_galois_endo(k)
        built = build_from_params(params)
        eta_rho = base_polynomial(built.hyper_map)
        assert eta_rho == 1 - params.R1 ** k


@pytest.mark.parametrize("field", [QQ, NumberField([2, 0, 1])])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kr32_condition_derivative_identity(field, data):
    # D' = R1^2 E: the d0 = 1 solver and _kr32_params_from_r1_poly rely on it
    height = st.fractions(min_value=-20, max_value=20, max_denominator=20)
    coords = st.lists(height, min_size=field.degree, max_size=field.degree)
    tail = data.draw(st.lists(coords, max_size=4))
    t = Poly.variable("t", field)
    r1 = 1 + sum((field.from_coords(c) * t ** (i + 1) for i, c in enumerate(tail)),
                 Poly.zero(field, ("t",)))
    e, D = kr32_condition(r1)
    assert e == r1 + 3 * (t - 1) * r1.derivative()
    assert D == 1 - (1 - t) * r1 ** 3
    assert D.derivative("t") == r1 ** 2 * e


def test_kr32_d01_eliminant_is_pinned():
    assert _kr32_d01_eliminant() == parse_poly(
        "-27*a1^7 - 108*a1^6 - 162*a1^5 + 148*a1^4 - 27*a1^3", ("a1",))


def test_kr32_params_reject_r1_off_the_condition():
    # the printed a1 and the printed (a1, a2): E(0) != 0, so exact division
    # by t R2^2 alone must refuse them
    f2, f7 = NumberField([2, 0, 1]), NumberField([7, 0, 1])
    t2, t7 = Poly.variable("t", f2), Poly.variable("t", f7)
    a1 = f2.from_coords([Fraction(-7, 3), Fraction(1, 3)])
    b1 = f7.from_coords([Fraction(87, 24), Fraction(-91, 24)])
    b2 = f7.from_coords([Fraction(-139, 24), Fraction(63, 24)])
    for r1, d0, d in ((a1 * t2 + 1, 1, 4), (b2 * t7 ** 2 + b1 * t7 + 1, 2, 7)):
        e, D = kr32_condition(r1)
        assert not e.constant_coeff().is_zero()
        assert not divmod_poly(D, e * e)[1].is_zero()
        assert _kr32_params_from_r1_poly(r1, d0=d0, d=d) is None


def test_solve_kr32_d0_1():
    sols = solve_kr32(1)
    assert len(sols) == 2
    field = NumberField([2, 0, 1])
    expect = {field.from_coords([Fraction(-7, 3), Fraction(4, 3)]),
              field.from_coords([Fraction(-7, 3), Fraction(-4, 3)])}
    got = {s.R1.univariate_coeffs()[1] for s in sols}
    assert got == expect
    for s in sols:
        assert etale_certificate(s).verdict
        assert s.d == 4
        assert (s.R0.total_degree(), s.R1.total_degree(), s.R2.total_degree()) \
            == (1, 1, 1)


def test_solve_kr32_printed_value_is_an_erratum():
    # the printed a1 = (-7 + i sqrt2)/3 fails the printed divisibility
    field = NumberField([2, 0, 1])
    tt = Poly.variable("t", field)
    a1 = field.from_coords([Fraction(-7, 3), Fraction(1, 3)])
    r1 = a1 * tt + 1
    e = r1 + 3 * (tt - 1) * r1.derivative()
    _, rem = divmod_poly(1 - (1 - tt) * r1 ** 3, e * e)
    assert not rem.is_zero()
    # while the corrected pair reproduces the printed R0 exactly
    from etale_forge.polyparse import parse_poly
    r0_paper = parse_poly("(6 + 12*theta)*t + 8 - 4*theta", ("t",), field)
    plus = [s for s in solve_kr32(1)
            if s.R1.univariate_coeffs()[1].coords[1] > 0][0]
    assert plus.R0 == r0_paper


def test_solve_kr32_d0_2_verification():
    sols = solve_kr32(2)
    assert len(sols) == 1
    s = sols[0]
    assert s.d == 7 and etale_certificate(s).verdict
    # divisibility holds exactly
    field = s.field
    tt = Poly.variable("t", field)
    e = s.R1 + 3 * (tt - 1) * s.R1.derivative()
    _, rem = divmod_poly(1 - (1 - tt) * s.R1 ** 3, e * e)
    assert rem.is_zero()


def test_solve_kr32_d0_2_rejects_bad_candidates():
    bad = [{"minpoly": [7, 0, 1],
            "a1": [Fraction(87, 24), Fraction(91, 24)],
            "a2": [Fraction(-139, 24), Fraction(-63, 24)]}]
    assert solve_kr32(2, bad) == []


def test_build_j_examples():
    params = cyclic_galois_endo(2)
    j = build_from_params(params).j
    assert degree_of(j) == 1
    # the same j from the parameter document read back
    j2 = build_from_params(params_from_json(params.to_json())).j
    assert maps_equal(j, j2)
    # alpha = 1 parameters cannot factor
    assert build_from_params(chebyshev_endo(3)).j is None


def test_build_j_degree_4():
    # externally supplied R-triple for (k, r, alpha, d) = (2, 2, 0, 4)
    from etale_forge.reproduce import _alpha0_22_params
    params = _alpha0_22_params(2)
    assert etale_certificate(params).verdict
    j = build_from_params(params).j
    assert degree_of(j) == 2
    assert (degree_of(j) - 1) % 1 == 0   # deg j = rbar mod (r - 1): 2 = 1 mod 1
    pi = covering(2, 1)
    eta = build_from_params(params).hyper_map
    assert maps_equal(compose_maps(pi, j), eta)


def _reference_j(p: EtaleParams):
    """j by its closed form, (w*R2(t)*lam, v*R0(t)*lam^-r, R1(t)) at
    t = -u^rbar*v, through the morphism gate."""
    h = hyper_surface(p.k, p.r // p.k)
    u, v, w = (Poly.variable(n, p.field, h.vars) for n in h.vars)
    t = -(u ** (p.r // p.k)) * v
    coords = (w * compose(p.R2, t) * p.lam, v * compose(p.R0, t) * p.lam ** (-p.r),
              compose(p.R1, t))
    return make_map(h, tilde_surface(p.k, p.r), coords)


def test_build_j_exactly_when_alpha_is_zero():
    for name, p in build_corpus():
        j = build_from_params(p).j
        assert (j is None) == (p.alpha == 1), name
        if j is not None:
            assert degree_of(j) == p.d // p.k, name


def test_build_j_matches_the_closed_form():
    alpha0 = [(name, p) for name, p in build_corpus() if p.alpha == 0]
    assert len(alpha0) == 7
    for name, p in alpha0:
        for scaled in (p, dataclasses.replace(p, lam=p.lam * 2)):
            j, want = build_from_params(scaled).j, _reference_j(scaled)
            assert j.coords == want.coords, name
            assert maps_equal(j, want), name


def test_only_the_build_certifies(monkeypatch):
    from etale_forge import constructor, endo
    calls = []
    original = endo.etale_certificate

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(endo, "etale_certificate", counting)
    monkeypatch.setattr(constructor, "etale_certificate", counting)
    for k in (2, 3, 5):
        params = cyclic_galois_endo(k)
        assert calls == []
        build_from_params(params)
        assert calls == [params]
        calls.clear()


def test_constructor_outputs_pass_everything():
    for params in (chebyshev_endo(5), cyclic_galois_endo(3), solve_kr32(1)[0]):
        assert etale_certificate(params).verdict
        built = build_from_params(params)
        assert cstar_equivariant(built.tilde_map)
        assert jacobian_spotcheck(built.tilde_map)
