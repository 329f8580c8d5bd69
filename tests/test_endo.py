"""Surface maps, equivariance, degrees, the certificate, the Jacobian oracle."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge import endo, polyparse
from etale_forge.chebyshab import chebyshev_T, chebyshev_U, extract_profile, thom_feasible
from etale_forge.constructor import chebyshev_endo, cyclic_galois_endo, solve_kr32
from etale_forge.endo import (MAX_C1_BITS, CertificateRequired, DegreeUndetermined,
                              EtaleParams, NotAMorphism,
                              SourceTargetMismatch, apply_map,
                              base_polynomial, build_from_params,
                              compose_maps, cstar_equivariant, degree_of,
                              etale_certificate,
                              jacobian_det_at, jacobian_spotcheck, make_map,
                              map_from_json, map_to_json, maps_equal,
                              params_from_json, zk_compatible, zk_to_t)
from etale_forge.family import covering
from etale_forge.numfield import QQ, FieldElement, NumberField, cyclotomic_field
from etale_forge.polyalg import (Poly, compose, exact_div, flip, gcd_univariate,
                                 kronecker_sum, monic, separable_mod_p,
                                 variables)
from etale_forge.polyparse import print_poly
from etale_forge.reproduce import _alpha0_22_params, build_corpus, default_fixture_dir
from etale_forge.surface import (SurfacePoint, hyper_surface, normal_form,
                                 tilde_surface)

S22 = tilde_surface(2, 2)
H21 = hyper_surface(2, 1)
X, Y, Z = (Poly.variable(v, QQ, S22.vars) for v in S22.vars)
U, V, W = (Poly.variable(v, QQ, H21.vars) for v in H21.vars)
T = Poly.variable("t", QQ)
VERIFY_ENDO_GOLDEN = Path(__file__).parent / "golden" / "verify_endo.json"


def identity(s):
    """The identity of s, through make_map's gate."""
    return make_map(s, s, tuple(Poly.variable(v, QQ, s.vars) for v in s.vars))


def cheb_map(d=3):
    return make_map(S22, S22,
                    (X * compose(chebyshev_U(d - 1), Z), Y, compose(chebyshev_T(d), Z)))


def s2_galois_params():
    return EtaleParams(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1),
                       R0=Poly.constant(4, QQ, ("t",)), R1=1 - 2 * T, R2=1)


def test_make_map_examples():
    m = cheb_map(3)
    assert m.source == S22 and m.target == S22
    # d = 1 parameters build the identity
    d1 = build_from_params(chebyshev_endo(1)).tilde_map
    assert maps_equal(d1, make_map(S22, S22, (X, Y, Z)))
    with pytest.raises(NotAMorphism) as err:
        make_map(S22, S22, (Z, Y, X))
    assert not err.value.witness.is_zero()


def test_make_map_gate_covers_parameter_variables():
    # y + a1 is a morphism only for a1 = 0; the exact gate shows x^2*a1
    xyza = S22.vars + ("a1",)
    x, y, z, a1 = (Poly.variable(v, QQ, xyza) for v in xyza)
    with pytest.raises(NotAMorphism) as err:
        make_map(S22, S22, (x, y + a1, z))
    assert err.value.witness == x ** 2 * a1


def test_apply_examples():
    pt = SurfacePoint(S22, (QQ.elem(1), QQ.elem(3), QQ.elem(2)))
    img = apply_map(cheb_map(3), pt)
    # U_2(2) = 15 and T_3(2) = 26 by direct arithmetic; 15^2*3 = 675 = 26^2-1
    assert 4 * 2 ** 2 - 1 == 15 and 4 * 2 ** 3 - 3 * 2 == 26
    assert 15 ** 2 * 3 == 26 ** 2 - 1
    assert [c.as_fraction() for c in img.coords] == [15, 3, 26]
    assert apply_map(identity(S22), pt).coords == pt.coords
    # the covering tilde(2,2) -> hyper(2,1) sends (1,3,2) to (1,3,2)
    pi = covering(2, 1)
    assert [c.as_fraction() for c in apply_map(pi, pt).coords] == [1, 3, 2]


def test_compose_examples():
    pi, j = covering(2, 1), build_from_params(cyclic_galois_endo(2)).j
    assert maps_equal(j, make_map(H21, S22, (W, 4 * V, 1 + 2 * U * V)))
    eta = compose_maps(pi, j)
    expected = make_map(H21, H21, (U * (1 + U * V), 4 * V, W * (1 + 2 * U * V)))
    assert maps_equal(eta, expected)
    assert degree_of(eta) == 2
    f = cheb_map(3)
    assert maps_equal(compose_maps(identity(S22), f), f)
    # a trivial shear composes to f as well
    theta0 = make_map(S22, S22, (X, Y, Z))
    assert maps_equal(compose_maps(theta0, f), f)
    with pytest.raises(SourceTargetMismatch):
        compose_maps(j, j)


def test_cstar_equivariance_examples():
    assert cstar_equivariant(cheb_map(3))
    # the shear with P = 1 mixes weights in the third coordinate
    shear = make_map(S22, S22, (X, Y + 2 * Z + X ** 2, Z + X ** 2))
    assert not cstar_equivariant(shear)
    assert cstar_equivariant(identity(S22))


def test_zk_compatibility():
    res = zk_compatible(cheb_map(3), 1)
    assert res.kind == "equivariant" and res.twist == 1
    galois = build_from_params(s2_galois_params()).tilde_map
    assert zk_compatible(galois, 1).kind == "invariant"
    shear = make_map(S22, S22, (X, Y + 2 * Z + X ** 2, Z + X ** 2))
    assert zk_compatible(shear, 1).kind == "no"
    # a coordinate-swapped pretend-map (not a morphism) has mismatched weights
    from etale_forge.endo import SurfaceMap
    pretend = SurfaceMap(S22, S22, (Y, X, Z))
    assert zk_compatible(pretend, 1).kind == "no"
    # a zero coordinate constrains no twist
    res = zk_compatible(SurfaceMap(S22, S22, (X, 0 * Y, Z)), 1)
    assert res.kind == "equivariant" and res.twist == 1


def test_zk_compatibility_matches_literal_substitution_for_k2():
    # cross-check by substituting eps = -1 on tilde(2, 2)
    m = cheb_map(5)
    eps_sub = {"x": -X, "y": Y, "z": -Z}   # (eps x, eps^-r y, eps^-a z), eps = -1, r = 2
    twisted = [c.substitute(eps_sub) for c in m.coords]
    res = zk_compatible(m, 1)
    assert res.kind == "equivariant" and res.twist == 1
    # (eps^1 *_1)(m(x,y,z)) = (-m1, m2, -m3)
    action = [-m.coords[0], m.coords[1], -m.coords[2]]
    for lhs, rhs in zip(twisted, action):
        assert normal_form(lhs - rhs, S22).is_zero()


def test_degree_examples():
    m = cheb_map(3)
    eta_rho = base_polynomial(m)
    # the pullback of t = 1 - z^2 is 1 - T_3(z)^2, degree 3 in t
    assert eta_rho.total_degree() == 3
    assert degree_of(m) == 3
    assert degree_of(identity(S22)) == 1
    with pytest.raises(DegreeUndetermined):
        shear = make_map(S22, S22, (X, Y + 2 * Z + X ** 2, Z + X ** 2))
        degree_of(shear)


def test_degree_multiplicativity():
    m3, m5 = cheb_map(3), cheb_map(5)
    assert degree_of(compose_maps(m3, m5)) == 15
    assert degree_of(compose_maps(m5, m3)) == 15
    c = compose_maps(m3, m3)
    assert degree_of(c) == degree_of(m3) ** 2


def test_zk_to_t_examples():
    z = Poly.variable("z", QQ)
    assert zk_to_t(z ** 2, 2) == 1 - T
    assert zk_to_t(z ** 3, 3) == 1 - T
    assert zk_to_t(3 * z ** 4 - 1, 2) == 3 * (1 - T) ** 2 - 1
    assert zk_to_t(Poly.zero(QQ, ("z",)), 2).is_zero()
    with pytest.raises(DegreeUndetermined):
        zk_to_t(z ** 3, 2)
    with pytest.raises(ValueError):
        zk_to_t(z ** 3, 2)
    with pytest.raises(DegreeUndetermined):
        zk_to_t(X * Z ** 2, 2)


def _zk_to_t_per_term(q, k):
    """The sum over the terms c*z^(k*j) of q of c*(1 - t)^j, each power
    expanded on its own."""
    t = Poly.variable("t", q.field)
    out = Poly.zero(q.field, ("t",))
    for (e,), c in q.terms.items():
        out = out + Poly.constant(FieldElement(q.field, c, q.den),
                                  q.field, ("t",)) * (1 - t) ** (e // k)
    return out


@pytest.mark.parametrize("field", [QQ, NumberField([2, 0, 1])])
@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 5), data=st.data())
def test_zk_to_t_matches_per_term_expansion(field, k, data):
    coords = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                      min_size=field.degree, max_size=field.degree)
    cs = data.draw(st.dictionaries(st.integers(0, 12), coords, max_size=6))
    z = Poly.variable("z", field)
    q = Poly.zero(field, ("z",))
    for j, c in cs.items():
        q = q + Poly.constant(field.from_coords(c), field, ("z",)) * z ** (k * j)
    r = zk_to_t(q, k)
    assert r == _zk_to_t_per_term(q, k)
    # the builders' direction, t -> 1 - z^k, is the same flip, checked by Horner
    assert flip(r, 1, "z", k) == q == compose(r, 1 - z ** k)


def test_base_polynomial_identity_both_ways():
    galois = build_from_params(s2_galois_params()).hyper_map
    eta_rho = base_polynomial(galois)
    assert eta_rho == 4 * T * (1 - T)
    assert eta_rho == 1 - (1 - 2 * T) ** 2


def test_certificate_examples():
    cert = etale_certificate(s2_galois_params())
    assert cert.verdict
    # the published (3,2) d0 = 1 parameters
    field = NumberField([2, 0, 1])
    tt = Poly.variable("t", field)
    a1 = field.from_coords([Fraction(-7, 3), Fraction(4, 3)])
    r1 = a1 * tt + 1
    e = r1 + 3 * (tt - 1) * r1.derivative()
    r2 = e * Poly.constant(e.evaluate({"t": field.zero()}).inverse(), field, ("t",))
    from etale_forge.polyalg import exact_div
    r0 = exact_div(1 - (1 - tt) * r1 ** 3, tt * r2 ** 2)
    good = EtaleParams(k=3, r=2, a=1, alpha=1, d=4, lam=field.elem(1),
                       R0=r0, R1=r1, R2=r2)
    assert etale_certificate(good).verdict
    # perturbing R2 breaks the two-sided identity, named C1
    tampered = EtaleParams(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1),
                           R0=Poly.constant(4, QQ, ("t",)), R1=1 - 2 * T, R2=1 + T)
    cert = etale_certificate(tampered)
    assert not cert.verdict
    assert "C1_identity" in cert.failing()


def test_certificate_catches_each_condition():
    base = dict(k=2, r=2, a=1, alpha=1, d=3, lam=QQ.elem(3))
    good = EtaleParams(**base, R0=Poly.constant(9, QQ, ("t",)),
                       R1=1 - 4 * T, R2=1 - Fraction(4, 3) * T)
    assert etale_certificate(good).verdict
    # C2: wrong degree for R0
    p = EtaleParams(**base, R0=9 + 9 * T, R1=1 - 4 * T, R2=1 - Fraction(4, 3) * T)
    assert "C2_degrees" in etale_certificate(p).failing()
    # C4: wrong congruence
    p = EtaleParams(k=2, r=2, a=1, alpha=1, d=4, lam=QQ.elem(3),
                    R0=Poly.constant(9, QQ, ("t",)), R1=1 - 4 * T,
                    R2=1 - Fraction(4, 3) * T)
    assert "C4_congruence" in etale_certificate(p).failing()
    # C3: normalization of R1(0)
    p = EtaleParams(**base, R0=Poly.constant(9, QQ, ("t",)),
                    R1=2 - 4 * T, R2=1 - Fraction(4, 3) * T)
    assert "C3_normalization" in etale_certificate(p).failing()
    # C5: alpha = 0 with k not dividing r
    p = EtaleParams(k=3, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1),
                    R0=Poly.constant(1, QQ, ("t",)), R1=1 - T, R2=1)
    assert "C5_alpha_kr" in etale_certificate(p).failing()


def test_certificate_witnesses_of_c1_and_c2():
    base = dict(k=2, r=2, a=1, alpha=1, d=3, lam=QQ.elem(3))
    good = etale_certificate(EtaleParams(**base, R0=Poly.constant(9, QQ, ("t",)),
                                         R1=1 - 4 * T, R2=1 - Fraction(4, 3) * T))
    assert good.witnesses == {}
    R0, R1, R2 = 9 + 9 * T, 1 - 4 * T, 1 - Fraction(4, 3) * T
    cert = etale_certificate(EtaleParams(**base, R0=R0, R1=R1, R2=R2))
    assert cert.failing() == ("C2_degrees", "C1_identity")
    assert cert.witnesses["C2_degrees"] == ((0, 1, 1), (1, 1, 1))
    assert cert.witnesses["C1_identity"] == T * R0 * R2 ** 2 - (1 - (1 - T) * R1 ** 2)
    assert cert.witness_json()["C2_degrees"] == {"expected": ["0", "1", "1"],
                                                 "actual": [1, 1, 1]}


@pytest.mark.parametrize("fixture,field", [("cheb_d5.json", QQ),
                                           ("kr32_d01_plus.json", NumberField([2, 0, 1]))])
def test_certificate_c3_witness_is_the_repeated_factor(fixture, field):
    doc = json.loads((default_fixture_dir() / fixture).read_text())["params"]
    doc["R2"] = doc["R1"]            # (1-t)*R0*R1*R2 now has the factor R1 twice
    p = params_from_json(doc)
    assert p.field == field
    cert = etale_certificate(p)
    assert "C3_separability" in cert.failing()
    assert cert.witnesses["C3_separability"] == monic(p.R1)


def _degree199_params():
    """Parameters whose C3 product (1-t)*R0*R1*R2 has degree 199 and is
    separable; the exact gcd of it against its derivative takes seconds."""
    return params_from_json({
        "k": 2, "r": 2, "a": 1, "alpha": 1, "d": 3, "field": "QQ", "lambda": ["1"],
        "R0": print_poly((2 + T) ** 66 + T), "R1": print_poly((3 + T) ** 66 + T),
        "R2": print_poly((1 + T) ** 66 + 2 * T)})


def test_certificate_c3_passes_without_the_exact_gcd(monkeypatch):
    def refuse(*args):
        raise AssertionError("a C3 test ran on a separable product")

    corpus = build_corpus()
    monkeypatch.setattr(endo, "gcd_univariate", refuse)
    with monkeypatch.context() as m:
        # C1 and C2 hold on the corpus, and prove C3's separability
        m.setattr(endo, "separable_mod_p", refuse)
        for name, p in corpus:
            assert etale_certificate(p).verdict, name
    cert = etale_certificate(_degree199_params())
    assert cert.checks["C3_separability"]
    assert "C3_separability" not in cert.witnesses


def test_c1_and_c2_imply_separability_by_independent_methods():
    # the root count of etale_certificate, cross-checked by the modular test
    # and by the exact gcd on the corpus and the verify-endo golden documents
    corpus = build_corpus()
    golden = json.loads(VERIFY_ENDO_GOLDEN.read_text())
    docs = corpus + [(name, params_from_json(data["params"]))
                     for name, data, _, _ in golden if "params" in data]
    proved = 0
    for name, p in docs:
        cert = etale_certificate(p)
        if not (cert.checks["C1_identity"] and cert.checks["C2_degrees"]):
            continue
        t = Poly.variable("t", p.field)
        f = (1 - t) * p.R0 * p.R1 * p.R2
        assert cert.checks["C3_separability"], name
        assert separable_mod_p([1 - t, p.R0, p.R1, p.R2]), name
        assert gcd_univariate(f, f.derivative()).total_degree() == 0, name
        proved += 1
    # exactly the certified documents: each tampered copy breaks C1 or C2
    assert proved == len(corpus) + sum(
        1 for _, data, code, _ in golden if "params" in data and code == 0)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_c3_is_decided_when_c1_holds_without_c2(d):
    # R1 = (1 - 3t)^2 satisfies C1 with R2 = 1, but has the wrong degree, so
    # separability is not proved by the count and its repeated factor shows
    r1 = (1 - 3 * T) ** 2
    p = EtaleParams(k=2, r=2, a=1, alpha=1, d=d, lam=QQ.elem(1),
                    R0=exact_div(1 - (1 - T) * r1 ** 2, T), R1=r1, R2=1)
    cert = etale_certificate(p)
    assert cert.checks["C1_identity"] and not cert.checks["C2_degrees"]
    assert not cert.checks["C3_separability"]
    assert cert.witnesses["C3_separability"] == T - Fraction(1, 3)


RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_c3_decision_matches_the_exact_gcd(data):
    # documents where C1 holds: C2 holds too on the Chebyshev ones and on
    # R1 = 1 with d = 1, where the count decides C3, and fails elsewhere;
    # R1 is a product of factors 1 - c*t, so a repeated c, or c = 1 (the
    # root of 1 - t), makes the product inseparable
    if data.draw(st.booleans()):
        lam = data.draw(RATIONAL.filter(bool))
        p = chebyshev_endo(2 * data.draw(st.integers(0, 7)) + 1, QQ.elem(lam))
    else:
        k = data.draw(st.integers(2, 3))
        r1 = Poly.constant(1, QQ, ("t",))
        for c in data.draw(st.lists(st.sampled_from([1, -2, Fraction(1, 3)]) | RATIONAL,
                                    max_size=3)):
            r1 = r1 * (1 - c * T)
        p = EtaleParams(k=k, r=data.draw(st.integers(2, 3)), a=1, alpha=1,
                        d=data.draw(st.integers(1, 9)), lam=QQ.elem(1),
                        R0=exact_div(1 - (1 - T) * r1 ** k, T), R1=r1, R2=1)
    f = (1 - T) * p.R0 * p.R1 * p.R2
    assert etale_certificate(p).checks["C3_separability"] == (
        gcd_univariate(f, f.derivative()).total_degree() == 0)


def _t_poly(field, coeffs):
    """The polynomial in t over field with the given coefficients, constant first."""
    t = Poly.variable("t", field)
    return sum((field.elem(c) * t ** e for e, c in enumerate(coeffs)),
               Poly.zero(field, ("t",)))


def _elements(field):
    """Field elements with rational coordinates, negative ones included."""
    return st.lists(RATIONAL, min_size=field.degree, max_size=field.degree).map(
        field.from_coords)


@pytest.mark.parametrize("field", [QQ, NumberField([3, 1]), NumberField([7, 0, 1]),
                                   cyclotomic_field(5)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_c1_kronecker_decision_matches_the_products(field, data):
    # certified documents, tampered copies whose residual lhs - rhs is one
    # coefficient c * t^(j+1), and random ones, with negative coordinates and
    # denominators; on every field C1 is decided by one Kronecker evaluation,
    # whose verdict and witness must agree with the Poly products.  A
    # residual that is a multiple of the prime 2^61 - 1 vanishes in a
    # modular reject and so must reach the evaluation at 2^K
    t = Poly.variable("t", field)
    k = data.draw(st.integers(2, 3))
    r1 = _t_poly(field, [1] + data.draw(st.lists(_elements(field), max_size=3)))
    kind = data.draw(st.sampled_from(["certified", "tampered", "chebyshev", "random"]))
    alpha, r, r2 = 1, data.draw(st.integers(2, 4)), Poly.constant(1, field, ("t",))
    r0 = endo.exact_div(1 - (1 - t) * r1 ** k, t)
    if kind == "tampered":
        c = data.draw(st.sampled_from([1, -1, 2 ** 64, -2 ** 64, 2 ** 200, -2 ** 200]))
        c *= data.draw(st.sampled_from([1, 2 ** 61 - 1]))
        if field.degree > 1:
            c *= data.draw(st.sampled_from([field.gen(), -field.gen() ** (field.degree - 1),
                                            field.from_coords([-1] * field.degree)]))
        j = data.draw(st.integers(0, 4))
        r0 = r0 + c * t ** j
    elif kind == "chebyshev":
        p = chebyshev_endo(data.draw(st.sampled_from([3, 5, 7, 9])), field.elem(3))
        k, r, alpha, r0, r1, r2 = p.k, p.r, p.alpha, p.R0, p.R1, p.R2
    elif kind == "random":
        alpha = data.draw(st.integers(0, 1))
        r = k * data.draw(st.integers(1, 2)) if alpha == 0 else r
        r0, r2 = (_t_poly(field, data.draw(st.lists(_elements(field), max_size=3)))
                  for _ in "02")
    exp = (1 - alpha) * r // k
    lhs = t * (1 - t) ** exp * r0 * r2 ** r
    rhs = 1 - (1 - t) ** alpha * r1 ** k
    holds = lhs == rhs
    if kind != "random":
        assert holds == (kind != "tampered")
    if kind == "tampered":
        assert lhs - rhs == c * t ** (j + 1)
    terms = [(1, [(t, 1), (1 - t, exp), (r0, 1), (r2, r)]), (1, [(1 - t, alpha), (r1, k)]),
             (-1, [])]
    assert kronecker_sum(terms) == lhs - rhs
    p = EtaleParams(k=k, r=r, a=1, alpha=alpha, d=1, lam=field.elem(1), R0=r0, R1=r1, R2=r2)
    cert = etale_certificate(p)
    assert cert.checks["C1_identity"] == holds
    assert cert.witnesses.get("C1_identity", 0) == lhs - rhs


def test_c1_runs_no_poly_product_over_any_field(monkeypatch):
    # a Poly product would decide C1 as well; on every field the Kronecker
    # evaluation decides it, and a failing C1 reads its witness off the same
    # value, so the certificate multiplies no Polys for C1 (nor for C3's
    # separability on these documents: by proof from C1 and C2 on a
    # certified one, modulo a prime on the tampered ones)
    counted = []
    mul, pow_ = Poly.__mul__, Poly.__pow__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: counted.append(1) or mul(a, b))
    monkeypatch.setattr(Poly, "__pow__", lambda a, n: counted.append(1) or pow_(a, n))
    degrees = set()
    for name, p in build_corpus():
        degrees.add(p.field.degree)
        counted.clear()
        assert etale_certificate(p).checks["C1_identity"], name
        assert not counted, name
    assert len(degrees) > 1
    tampered = EtaleParams(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1),
                           R0=Poly.constant(4, QQ, ("t",)), R1=1 - 2 * T, R2=1 + T)
    galois = cyclic_galois_endo(3)
    zeta = galois.field.gen()
    for p in (tampered, dataclasses.replace(galois, R1=galois.R1 + zeta)):
        lhs = T * (1 - T) ** (p.r // p.k) * p.R0 * p.R2 ** p.r
        rhs = 1 - p.R1 ** p.k
        counted.clear()
        assert etale_certificate(p).witnesses["C1_identity"] == lhs - rhs
        assert not counted


def test_params_accept_a_t_polynomial_with_unused_variables():
    base = dict(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1), R1=1 - 2 * T, R2=1)
    for variables in (("x",), ("t", "x")):
        p = EtaleParams(**base, R0=Poly.constant(4, QQ, variables))
        assert p.R0 == Poly.constant(4, QQ, ("t",)) and p.R0.variables == ("t",)
        assert etale_certificate(p).verdict
    with pytest.raises(ValueError, match="not a polynomial in t"):
        EtaleParams(**base, R0=Poly.variable("x", QQ, ("t", "x")))


def test_params_validation():
    with pytest.raises(ValueError):
        EtaleParams(k=2, r=2, a=2, alpha=1, d=3, lam=QQ.elem(1),
                    R0=1, R1=1, R2=1)      # a not coprime with k
    with pytest.raises(ValueError):
        EtaleParams(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(0),
                    R0=1, R1=1, R2=1)      # lambda = 0
    with pytest.raises(ValueError):
        EtaleParams(k=3, r=3, a=2, alpha=0, d=3, lam=QQ.elem(1),
                    R0=1, R1=1, R2=1)      # alpha = 0 forces a = 1


def test_params_from_json_names_bad_fields():
    doc = s2_galois_params().to_json()
    assert params_from_json(doc) == s2_galois_params()
    for name in ("k", "lambda", "R2"):
        missing = {key: v for key, v in doc.items() if key != name}
        with pytest.raises(ValueError, match=repr(name)):
            params_from_json(missing)
    for name, bad in (("d", "2"), ("alpha", True), ("field", 1), ("lambda", "1"),
                      ("R0", ["4"])):
        with pytest.raises(ValueError, match=repr(name)):
            params_from_json({**doc, name: bad})
    for lam in (["x"], ["1/0"], [None], [[1]]):
        with pytest.raises(ValueError, match="lambda"):
            params_from_json({**doc, "lambda": lam})
    with pytest.raises(ValueError, match="object"):
        params_from_json([1, 2])


def test_params_from_json_bounds_the_c1_degrees():
    doc = s2_galois_params().to_json()
    for name in ("k", "r"):
        with pytest.raises(ValueError, match=f"{name!r} = 1001 exceeds the bound 1000"):
            params_from_json({**doc, name: 1001})
    # with (k, r, alpha) = (2, 2, 0) the sides of C1 are t (1-t) R0 R2^2 and
    # R1^2: each reaches degree 1000 here, and 1001 or 1002 one step further
    for name, allowed, refused in (("R0", 998, 999), ("R2", 499, 500),
                                   ("R1", 500, 501)):
        read = params_from_json({**doc, name: f"t^{allowed}"})
        assert getattr(read, name) == T ** allowed
        with pytest.raises(ValueError, match="C1 of degree 100[12] exceeds the bound 1000"):
            params_from_json({**doc, name: f"t^{refused}"})


def test_params_from_json_bounds_the_size_of_c1():
    # R2^999 with 97-bit coefficients: building its C1 witness took minutes
    doc = {"k": 2, "r": 999, "a": 1, "alpha": 1, "d": 1999, "field": "QQ",
           "lambda": ["1"], "R0": "1", "R1": "1 - t"}
    with pytest.raises(ValueError, match=f"C1 may have 969[0-9]{{2}} bits, above "
                                         f"the bound {MAX_C1_BITS}"):
        params_from_json({**doc, "R2": "123456789012345678901234567890*t + 1"})
    assert params_from_json({**doc, "R2": "7*t + 1"}).R2 == 7 * T + 1


def test_documents_naming_one_field_share_it():
    doc = json.loads((default_fixture_dir() / "galois_k3.json").read_text())["params"]
    assert params_from_json(doc).field is params_from_json(dict(doc)).field


def test_parameter_documents_take_the_printed_reader(monkeypatch):
    # R0, R1, R2 and the field text of the parameter documents the project
    # writes are read by polyparse's one-variable reader, never by the token
    # loop; the golden file's ~C1 and ~C3 copies wrap R0 in a product, which
    # is left to the parser, so only its untampered inputs are read here
    docs = []
    for path in sorted(default_fixture_dir().glob("*.json")):
        data = json.loads(path.read_text())
        docs += [data[key] for key in ("params", "base") if key in data]
    docs += [data["params"] for name, data, _, _ in json.loads(VERIFY_ENDO_GOLDEN.read_text())
             if "params" in data and "~" not in name]
    params = ([chebyshev_endo(d) for d in range(3, 62, 2)]
              + [cyclic_galois_endo(k) for k in range(2, 9)]
              + solve_kr32(1) + solve_kr32(2) + [_alpha0_22_params(m) for m in range(2, 11)])
    docs += [p.to_json() for p in params]

    def token_loop(parser):
        raise AssertionError(f"{parser.text!r} reached the token loop")

    monkeypatch.setattr(polyparse._Parser, "parse", token_loop)
    polyparse.field_from_string.cache_clear()
    fields = {doc["field"] for doc in docs}
    assert len(docs) == 71 and len(fields) == 9, sorted(fields)
    read = [params_from_json(doc) for doc in docs]
    assert [p.to_json() for p in read] == docs


def test_chebyshev_document_at_the_degree_bound_reads_back():
    # the largest Chebyshev document: both sides of its C1 have degree 999
    params = chebyshev_endo(999)
    assert params_from_json(params.to_json()) == params


def test_build_from_params_requires_certificate():
    bad = EtaleParams(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1),
                      R0=Poly.constant(4, QQ, ("t",)), R1=1 - 2 * T, R2=1 + T)
    with pytest.raises(CertificateRequired):
        build_from_params(bad)


def test_build_examples():
    built = build_from_params(s2_galois_params())
    expected = make_map(H21, H21, (U * (1 + U * V), 4 * V, W * (1 + 2 * U * V)))
    assert maps_equal(built.hyper_map, expected)
    # d = 1 parameters give the identity class
    p1 = EtaleParams(k=2, r=2, a=1, alpha=1, d=1, lam=QQ.elem(1),
                     R0=1, R1=1, R2=1)
    b1 = build_from_params(p1)
    assert maps_equal(b1.tilde_map, identity(S22))


def test_certified_builds_small_grid():
    # every certified parameter set with small data builds, is equivariant,
    # has the declared degree and passes the spot-check
    from etale_forge.constructor import chebyshev_endo, cyclic_galois_endo
    cases = [chebyshev_endo(d) for d in (1, 3, 5, 7, 9, 11)]
    cases += [cyclic_galois_endo(k) for k in (2, 3, 4, 5)]
    for params in cases:
        assert params.d <= 12 and params.k <= 5 and params.r <= 5
        built = build_from_params(params)
        assert cstar_equivariant(built.tilde_map)
        assert degree_of(built.tilde_map) == params.d
        assert jacobian_spotcheck(built.tilde_map)
        expect = "equivariant" if params.alpha == 1 else "invariant"
        assert zk_compatible(built.tilde_map, params.a).kind == expect


def test_jacobian_examples():
    assert jacobian_spotcheck(cheb_map(3))
    ident = identity(S22)
    pt = SurfacePoint(S22, (QQ.elem(2), QQ.elem(Fraction(3, 4)), QQ.elem(2)))
    assert jacobian_det_at(ident, pt) == QQ.elem(1)
    # ramified non-example: (x, y(z^2+1), z^2) has J = 2*z
    bad = make_map(S22, S22, (X, Y * (Z ** 2 + 1), Z ** 2))
    on_locus = SurfacePoint(S22, (QQ.elem(1), QQ.elem(-1), QQ.elem(0)))
    assert jacobian_det_at(bad, on_locus).is_zero()
    off_locus = SurfacePoint(S22, (QQ.elem(1), QQ.elem(3), QQ.elem(2)))
    assert not jacobian_det_at(bad, off_locus).is_zero()
    assert not jacobian_spotcheck(bad)  # J = 2z is not constant
    assert not etale_certificate_of_bad_map()


def test_oracle_constant_jacobian():
    # the identity pulls omega back to itself; the degree-d Chebyshev map
    # built with lambda pulls it back to d*lambda*omega on both models
    for s in (S22, H21):
        verdict = jacobian_spotcheck(identity(s))
        assert verdict.jacobian == QQ.elem(1) and verdict.J == 1
    from etale_forge.constructor import chebyshev_endo
    for d in (3, 5, 7, 9, 11, 13):
        for lam in (1, 2):
            built = build_from_params(chebyshev_endo(d, QQ.elem(lam)))
            for m in (built.tilde_map, built.hyper_map):
                assert jacobian_spotcheck(m).jacobian == QQ.elem(d * lam)


def test_oracle_witness_for_ramified_map():
    # T = -2x^2*z and D = x^2 give J = -T/D = 2z, not a constant
    from etale_forge.reproduce import _assert_oracle_etale
    bad = make_map(S22, S22, (X, Y * (Z ** 2 + 1), Z ** 2))
    verdict = jacobian_spotcheck(bad)
    assert verdict.jacobian is None
    assert verdict.J == 2 * Z
    # a report item that meets this map names J
    with pytest.raises(AssertionError, match=r"J = 2\*z is not a nonzero constant"):
        _assert_oracle_etale("ramified", bad, jacobian_spotcheck)


def _middle_variable_maps():
    """Morphisms of tilde(2,2) and hyper(2,1) whose J = 4*mid*last + 1
    involves the middle variable."""
    return [make_map(S22, S22, (X, Y + 2 * Z * Y ** 2 + X ** 2 * Y ** 4,
                                Z + X ** 2 * Y ** 2)),
            make_map(H21, H21, (U, V + 2 * W * V ** 2 + U ** 2 * V ** 4,
                                W + U ** 2 * V ** 2))]


def test_jacobian_through_the_middle_variable():
    tilde_map, hyper_map = _middle_variable_maps()
    assert jacobian_spotcheck(tilde_map).J == 4 * Y * Z + 1
    assert jacobian_spotcheck(hyper_map).J == 4 * V * W + 1
    assert not jacobian_spotcheck(tilde_map)
    # J is defined where first = 0, which no chart with first != 0 covers
    on_x0 = SurfacePoint(S22, (QQ.elem(0), QQ.elem(5), QQ.elem(1)))
    assert jacobian_det_at(tilde_map, on_x0) == QQ.elem(21)
    # a map into the curve {x = 0} has T = D = 0 and J = 0
    into_curve = make_map(S22, S22, (0 * X, Y, 1 + 0 * X))
    assert jacobian_spotcheck(into_curve).J == 0


def _sympy_jacobian(m, pt, sympy):
    """J at pt from the chart determinant d(f1, f3)/d(first, last), with
    the middle variable eliminated by sympy: J = det * first^e / f1^e',
    where F_mid = first^e on the source and G_mid = first^e' on the target."""
    s, t = m.source, m.target
    first, middle, last = (sympy.Symbol(v) for v in s.vars)
    if s.model == "tilde":
        e, solved = s.r, (last ** s.k - 1) / first ** s.r
    else:
        e, solved = s.r + 1, (last ** s.k - first) / first ** (s.r + 1)
    e_target = t.r if t.model == "tilde" else t.r + 1
    f1, f3 = (sympy.sympify(str(c).replace("^", "**")).subs(middle, solved)
              for c in (m.coords[0], m.coords[2]))
    det = sympy.Matrix([[sympy.diff(f, v) for v in (first, last)]
                        for f in (f1, f3)]).det()
    j = sympy.cancel(det * first ** e / f1 ** e_target)
    at = {first: sympy.Rational(str(pt.coords[0])),
          last: sympy.Rational(str(pt.coords[2]))}
    value = sympy.Rational(j.subs(at))
    return Fraction(int(value.p), int(value.q))


def test_jacobian_det_matches_sympy_elimination():
    sympy = pytest.importorskip("sympy")
    from etale_forge.constructor import chebyshev_endo, cyclic_galois_endo
    from etale_forge.family import family_member
    from etale_forge.surface import sample_point
    maps = [make_map(S22, S22, (X, Y * (Z ** 2 + 1), Z ** 2))]
    for params in (chebyshev_endo(3), chebyshev_endo(5, QQ.elem(2)),
                   cyclic_galois_endo(2)):
        built = build_from_params(params)
        maps += [built.tilde_map, built.hyper_map]
    maps.append(family_member(build_from_params(cyclic_galois_endo(2)).j,
                              (QQ.elem(1),)))
    maps += _middle_variable_maps()
    checked = 0
    for i, m in enumerate(maps):
        for seed in range(4):
            pt = sample_point(m.source, 100 * i + seed)
            j = jacobian_det_at(m, pt)
            assert j.as_fraction() == _sympy_jacobian(m, pt, sympy), (m, pt)
            checked += 1
    assert checked == 40


def test_jacobian_on_the_oracle_corpus_is_lam_power_times_r0_at_0():
    # the maps of the report's oracle_cross_validation item.  At z^k = 1 the
    # tilde map has J = lam^(1-r) * (alpha - k*R1'(0)), and the derivative
    # of C1 at t = 0 is R0(0) = alpha - k*R1'(0); the hyper map and the family
    # members (pi o Theta^F o j, with Theta^F of J = 1) share that constant
    from etale_forge.constructor import cyclic_galois_endo, solve_kr32
    from etale_forge.family import family_member
    from etale_forge.reproduce import _built_corpus
    def predicted(p):
        return p.lam ** (1 - p.r) * p.R0.constant_coeff()

    corpus = _built_corpus(build_from_params, cyclic_galois_endo, solve_kr32)
    cases = [(m, predicted(p)) for _, p, built in corpus
             for m in (built.tilde_map, built.hyper_map) if m is not None]
    base = cyclic_galois_endo(2)
    j = build_from_params(base).j
    cases += [(family_member(j, av), predicted(base)) for av in
              ((), (QQ.elem(1),), (QQ.elem(2),), (QQ.elem(1), QQ.elem(1)))]
    assert len(cases) == 45
    for m, want in cases:
        assert jacobian_spotcheck(m).jacobian == want, m


def test_jacobian_chain_rule_on_composites():
    # J(g o f) = (J(g) o f) * J(f) in the source ring
    from etale_forge.constructor import chebyshev_endo
    from etale_forge.family import theta
    bad = make_map(S22, S22, (X, Y * (Z ** 2 + 1), Z ** 2))
    cheb3 = build_from_params(chebyshev_endo(3)).tilde_map
    cheb5 = build_from_params(chebyshev_endo(5, QQ.elem(2))).tilde_map
    pairs = [(bad, bad), (cheb3, cheb5)]
    pairs += [(theta(P, S22), f) for P in (X, 1 + 3 * X ** 2, X ** 3 - X)
              for f in (cheb5, bad)]
    for g, f in pairs:
        jg, jf = (jacobian_spotcheck(h).J for h in (g, f))
        pulled = jg.substitute(dict(zip(g.source.vars, f.coords)))
        want = normal_form(normal_form(pulled, f.source) * jf, f.source)
        assert jacobian_spotcheck(compose_maps(g, f)).J == want, (g, f)
    assert jacobian_spotcheck(compose_maps(bad, bad)).J == 4 * Z ** 3
    assert jacobian_spotcheck(compose_maps(cheb3, cheb5)).jacobian == QQ.elem(30)
    for P in (X, 1 + 3 * X ** 2):
        assert jacobian_spotcheck(compose_maps(theta(P, S22), bad)).J == 2 * Z


def etale_certificate_of_bad_map() -> bool:
    # the ramified map corresponds to alpha = 0, R1 = 1 - t, which fails C1
    p = EtaleParams(k=2, r=2, a=1, alpha=0, d=2, lam=QQ.elem(1),
                    R0=1, R1=1 - T, R2=1)
    return etale_certificate(p).verdict


def test_profile_of_certified_base_maps():
    m = cheb_map(3)
    prof = extract_profile(base_polynomial(m))
    assert thom_feasible(prof).feasible
    # partition over 1: d1 parts of size k plus the alpha part
    assert prof.partitions[1] == (2, 1)
    # partition over 0: d2 parts of size r plus d0 + 1 ones
    assert prof.partitions[0] == (2, 1)


def test_map_json_round_trip(tmp_path):
    m = cheb_map(3)
    data = map_to_json(m)
    m2 = map_from_json(data)
    assert maps_equal(m, m2)
    p = s2_galois_params()
    assert params_from_json(p.to_json()) == p
