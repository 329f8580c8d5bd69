"""Surface models: normal form, membership, sampling, weights."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.numfield import QQ, NumberField
from etale_forge.polyalg import Poly, variables
from etale_forge.surface import (NotOnSurface, SurfacePoint,
                                 hyper_surface, normal_form, on_surface,
                                 parse_surface_id, sample_point,
                                 tilde_surface, weight_of)

S22 = tilde_surface(2, 2)
H21 = hyper_surface(2, 1)
X, Y, Z = variables("x,y,z")
U, V, W = variables("u,v,w")


def test_normal_form_examples():
    assert normal_form(X ** 2 * Y - Z ** 2 + 1, S22).is_zero()
    assert normal_form(X ** 2 * Y * Z, S22) == Z ** 3 - Z
    assert normal_form(U ** 2 * V, H21) == W ** 2 - U


HEIGHT_9 = st.fractions(min_value=-9, max_value=9,
                        max_denominator=9).filter(lambda c: c != 0)


def qq_terms(vars, max_exp, size):
    """size (exponents, [c]) terms for _from_terms over QQ, with c of height
    at most 9 and each exponent at most max_exp."""
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.lists(st.tuples(exps, HEIGHT_9.map(lambda c: [c])),
                    min_size=size, max_size=size)


@settings(max_examples=48, deadline=None)
@given(data=st.data())
def test_normal_form_is_idempotent_and_linear(data):
    s = data.draw(st.sampled_from((S22, tilde_surface(3, 4), H21, hyper_surface(3, 2))))
    p, q = (_from_terms(QQ, s.vars, data.draw(qq_terms(s.vars, 3, 6))) for _ in range(2))
    nf = lambda r: normal_form(r, s)
    assert nf(nf(p)) == nf(p)
    assert nf(p + q) == nf(nf(p) + nf(q))
    assert nf(p * q) == nf(nf(p) * nf(q))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_relation_multiples_reduce_to_zero(data):
    s = data.draw(st.sampled_from((S22, H21)))
    h = _from_terms(QQ, s.vars, data.draw(qq_terms(s.vars, 2, 1)))
    assert normal_form(s.relation() * h, s).is_zero()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ideal_membership_pairs(data):
    # p - q in (relation)  iff  equal normal forms
    s = S22
    gens = [Poly.variable(v, QQ, s.vars) for v in s.vars]
    base = _from_terms(QQ, s.vars, data.draw(qq_terms(s.vars, 2, 1)))
    mult = data.draw(HEIGHT_9) * data.draw(st.sampled_from(gens))
    assert normal_form(base, s) == normal_form(base + s.relation() * mult, s)
    q2 = base + gens[0] ** 7  # x^7 is not in the ideal
    assert normal_form(base, s) != normal_form(q2, s)


def test_on_surface_examples():
    assert on_surface((1, 3, 2), S22)
    for k, r in ((2, 3), (4, 2)):
        assert on_surface((0, 5, 1), tilde_surface(k, r))
    assert not on_surface((1, 1, 1), S22)
    with pytest.raises(NotOnSurface):
        SurfacePoint(S22, (QQ.elem(1), QQ.elem(1), QQ.elem(1)))


def test_sample_point_formula_and_invariants():
    # the defining draw: x = 1, z = 2 gives y = (z^2-1)/x^2 = 3
    x, z = Fraction(1), Fraction(2)
    y = (z ** S22.k - 1) / x ** S22.r
    assert (x, y, z) == (1, 3, 2)
    pt = SurfacePoint(S22, (QQ.elem(x), QQ.elem(y), QQ.elem(z)))
    assert on_surface(pt.coords, S22)
    # hyper model: u = 1, w = 2 gives v = (w^2 - u)/u^2 = 3
    u, w = Fraction(1), Fraction(2)
    v = (w ** H21.k - u) / u ** (H21.r + 1)
    assert (u, v, w) == (1, 3, 2)
    assert on_surface((u, v, w), H21)
    for seed in range(12):
        for s in (S22, tilde_surface(3, 2), H21, hyper_surface(3, 2)):
            p = sample_point(s, seed)
            assert on_surface(p.coords, s)
            assert all(not c.is_zero() for c in p.coords)


def test_sample_point_deterministic():
    a = sample_point(S22, 5)
    b = sample_point(S22, 5)
    assert a.coords == b.coords


def test_degenerate_draws_are_rejected():
    # z with z^k = 1 or z = 0 would zero a coordinate; the sampler never
    # emits such points (checked over many seeds above); the formula shows
    # why they must be excluded:
    assert (Fraction(1) ** S22.k - 1) == 0


def test_weight_of_examples():
    assert weight_of(X * Z, S22) == 1
    assert weight_of(Z ** 2 - 1, S22) == 0
    assert weight_of(X + Y, S22) is None
    assert weight_of(S22.relation(), S22) == 0
    assert weight_of(X ** S22.r * Y, S22) == 0
    h = hyper_surface(3, 2)
    assert weight_of(h.relation(), h) == 3
    u = Poly.variable("u", QQ, h.vars)
    assert weight_of(u, h) == 3


def test_surface_ids_round_trip():
    for s in (S22, tilde_surface(5, 1), H21, hyper_surface(4, 3)):
        assert parse_surface_id(s.surface_id()) == s


def test_normal_form_with_parameter_variables():
    # extra variables ride along with weight zero and do not disturb the
    # confluent rewrite
    a1 = Poly.variable("a1", QQ)
    p = (U ** 2 * V) * a1 + U
    nf = normal_form(p, H21)
    assert nf == (W ** 2 - U) * a1 + U


# -- normal form against sympy's division ------------------------------------------

F_SQRT_M2 = NumberField([2, 0, 1])          # theta^2 + 2
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _sympy_domain(field):
    sympy = pytest.importorskip("sympy")
    if field == QQ:
        return sympy, sympy.QQ, sympy.QQ.one
    domain = sympy.QQ.algebraic_field(sympy.sqrt(-2))
    return sympy, domain, domain.from_sympy(sympy.sqrt(-2))


def _from_terms(field, names, terms):
    """The Poly with the given (exponents, coordinates) terms, by public ops."""
    p = Poly.zero(field, names)
    for exps, coords in terms:
        mono = Poly.constant(field.from_coords(coords), field, names)
        for v, e in zip(names, exps):
            mono = mono * Poly.variable(v, field, names) ** e
        p = p + mono
    return p


@pytest.mark.parametrize("s", [S22, hyper_surface(3, 1)], ids=str)
@pytest.mark.parametrize("field", [QQ, F_SQRT_M2], ids=["QQ", "sqrt-2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_normal_form_matches_sympy_reduced(s, field, data):
    """Random p in the surface variables and one parameter a, built term by
    term in both systems; sympy reduces modulo the relation in lex order
    with the surface variables first."""
    sympy, domain, theta = _sympy_domain(field)
    names = s.vars + ("a",)
    gens = sympy.symbols(names)
    terms = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, 4)] * 4),
        st.lists(RATIONALS, min_size=field.degree, max_size=field.degree)),
        max_size=6))
    sp_terms = {}
    for exps, coords in terms:
        c = sum((domain.convert(x) * theta ** i for i, x in enumerate(coords)),
                domain.zero)
        sp_terms[exps] = sp_terms.get(exps, domain.zero) + c
    sp = sympy.Poly.from_dict(sp_terms or {(0,) * 4: domain.zero}, *gens,
                              domain=domain)
    rel = sympy.Poly(sympy.sympify(str(s.relation()).replace("^", "**")), *gens,
                     domain=domain)
    _, remainder = sympy.reduced(sp, [rel], order="lex")
    expected = []
    for exps, c in remainder.rep.to_dict().items():
        coords = c.to_list()[::-1] if field != QQ else [c]
        coords = [Fraction(int(x.numerator), int(x.denominator)) for x in coords]
        expected.append((exps, coords + [Fraction(0)] * (field.degree - len(coords))))
    assert (normal_form(_from_terms(field, names, terms), s)
            == _from_terms(field, names, expected))
