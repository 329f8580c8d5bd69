"""Closed-form constructors for the parameters of the explicit
endomorphism families; endo.build_from_params builds their maps, and for
alpha = 0 the factorization j through the covering.

Three families have closed forms: the Chebyshev endomorphisms of
tilde(2, 2), the cyclic Galois endomorphisms of the hypersurface models
(one multiple critical point), and the (k, r) = (3, 2) solutions obtained
from the divisibility condition

    (R1 + 3(t-1) R1')^2  |  1 - (1-t) R1^3.

kr32_condition states it once, as the pair (E, D) with E^2 | D.  Since
D' = R1^2 E, a root of E is a double root of D as soon as it is a root of
D, so for d0 = 1 one eliminant in a1 decides the condition; it is solved
exactly (past its rational roots, a quadratic over Q).  For d0 = 2 the
system has degree six and candidate solutions are verified, not searched
for (full factoring over number fields is out of scope here).
"""

from __future__ import annotations

from fractions import Fraction

from .chebyshab import chebyshev_T, chebyshev_U
from .endo import EtaleParams, etale_certificate, zk_to_t
from .numfield import (QQ, FieldElement, NumberField, cyclotomic_field,
                       rational_roots)
from .polyalg import NotDivisible, Poly, divmod_poly, exact_div, monic, variables


class InfeasibleDegree(ValueError):
    pass


class BadEpsilon(ValueError):
    pass


class PreconditionViolated(ValueError):
    pass


def chebyshev_endo(d: int, lam: FieldElement | int = 1) -> EtaleParams:
    """Parameters of the degree-d Chebyshev endomorphism of tilde(2, 2).

    Rebuilding them gives (x * lam^-1 * U_(d-1)(z), lam^2 * y, T_d(z)).
    The congruence for (k, r, alpha) = (2, 2, 1) forces d odd.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d % 2 != 1:
        raise InfeasibleDegree(f"d = {d} is not 1 mod 2")
    lam = lam if isinstance(lam, FieldElement) else QQ.elem(lam)
    if lam.is_zero():
        raise ValueError("lambda must be nonzero")
    field = lam.field
    z = Poly.variable("z", field)
    Td, Ud1 = (Poly(field, ("z",), T.terms, T.den)
               for T in (chebyshev_T(d).with_field(field),
                         chebyshev_U(d - 1).with_field(field)))
    # T_d(z) = z * G(z^2) and U_(d-1)(z) = H(z^2) for odd d
    r1 = zk_to_t(exact_div(Td, z), 2)
    r2 = zk_to_t(Ud1, 2) * Fraction(1, d)
    r0 = Poly.constant(d * d, field, ("t",))
    return EtaleParams(k=2, r=2, a=1, alpha=1, d=d,
                       lam=field.elem(d) / lam, R0=r0, R1=r1, R2=r2)


def cyclic_galois_endo(k: int, eps_power: int = 1) -> EtaleParams:
    """Parameters of the degree-k endomorphism with cyclic Galois base map;
    build_from_params gives its maps, among them the factorizing open
    embedding j: hyper(k, 1) -> tilde(k, k).

    R1 = (eps - 1) t + 1 for the chosen primitive-power root of unity and
    R0 = (R1^k - 1)/(t(t-1)) by exact division; the base map is
    eta_rho(t) = 1 - ((eps-1)t + 1)^k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if eps_power % k == 0:
        raise BadEpsilon("epsilon must be a nontrivial k-th root of unity")
    field = cyclotomic_field(k)
    eps = field.gen() ** (eps_power % k)
    t = Poly.variable("t", field)
    r1 = (eps - 1) * t + 1
    r0 = exact_div(r1 ** k - 1, t * (t - 1))
    return EtaleParams(k=k, r=k, a=1, alpha=0, d=k, lam=field.elem(1),
                       R0=r0, R1=r1, R2=Poly.constant(1, field, ("t",)))


# -- the (k, r) = (3, 2) solver ---------------------------------------------------


def _squarefree_split(x: Fraction) -> tuple[Fraction, int]:
    """x = s^2 * f with f a squarefree integer; returns (s, f)."""
    if x == 0:
        return Fraction(0), 1
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    f = 1
    s_num = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            s_num *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1
    f *= n  # leftover prime
    s = Fraction(s_num, x.denominator)
    return s, sign * f


def kr32_condition(r1: Poly) -> tuple[Poly, Poly]:
    """The (3, 2) divisibility condition on R1 as the pair (E, D), with
    E = R1 + 3(t-1) R1' and D = 1 - (1-t) R1^3: R1 satisfies it iff E^2
    divides D.  R1 may carry parameter variables besides t.

    D' = R1^2 E, so a root of E is a double root of D as soon as it is a
    root of D.
    """
    t = Poly.variable("t", r1.field, r1.variables)
    return r1 + 3 * (t - 1) * r1.derivative("t"), 1 - (1 - t) * r1 ** 3


def _kr32_d01_eliminant() -> Poly:
    """The condition for d0 = 1 as one polynomial in a1.

    With R1 = a1 t + 1, E = 4 a1 t - (3 a1 - 1) has the root
    t0 = (3a1 - 1)/(4a1), and E^2 | D iff D(t0) = 0 (D' = R1^2 E vanishes
    at t0 already).  Reducing (4 a1)^4 D modulo E clears the denominators
    of D(t0) = 0, which adds the spurious root a1 = 0.
    """
    t, a1 = variables("t,a1")
    e, D = kr32_condition(a1 * t + 1)
    return divmod_poly((4 * a1) ** 4 * D, e)[1].drop_unused().with_variables(("a1",))


def solve_kr32(d0: int, candidates: list[dict] | None = None) -> list[EtaleParams]:
    """Etale parameters for (k, r) = (3, 2), alpha = 1, with deg R0 = d0.

    d0 = 1: since D' = R1^2 E the divisibility condition is one eliminant
    in a1; past its rational roots (which the certificate rejects) a
    quadratic over Q remains, and both conjugate roots are returned over
    the field it defines.

    d0 = 2: the system has six solutions and is not solved here; supplied
    candidate pairs (a1, a2) are verified instead (default: the built-in
    reference pair over theta^2 + 7).  Every returned parameter set passes
    the certificate.
    """
    if d0 == 1:
        g = monic(_kr32_d01_eliminant())
        a1, t = Poly.variable("a1", QQ), Poly.variable("t", QQ)
        # peel the rational roots (among them the spurious a1 = 0); a
        # quadratic condition must remain
        roots = rational_roots([c.as_fraction() for c in g.univariate_coeffs()])
        for root in roots:
            while True:
                try:
                    g = exact_div(g, a1 - root)
                except NotDivisible:
                    break
        out = []
        for root in roots + _quadratic_field_roots(g):
            params = _kr32_params_from_r1_poly(root * t + 1, d0=1, d=4)
            if params is not None:
                out.append(params)
        return out
    if d0 == 2:
        if candidates is None:
            candidates = [_KR32_D02_REFERENCE]
        out = []
        for cand in candidates:
            field = NumberField(cand["minpoly"])
            a1 = field.from_coords(cand["a1"])
            a2 = field.from_coords(cand["a2"])
            t = Poly.variable("t", field)
            r1 = a2 * t ** 2 + a1 * t + 1
            params = _kr32_params_from_r1_poly(r1, d0=2, d=7)
            if params is not None:
                out.append(params)
        return out
    raise ValueError("d0 must be 1 or 2")


# reference solution for d0 = 2 over Q[theta]/(theta^2 + 7); this is the
# published pair with the roles of a1 and a2 transposed back (as printed
# the pair fails the divisibility condition; swapped, it satisfies it and
# reproduces the published R0 verbatim)
_KR32_D02_REFERENCE = {
    "minpoly": [7, 0, 1],
    "a1": [Fraction(-139, 24), Fraction(63, 24)],
    "a2": [Fraction(87, 24), Fraction(-91, 24)],
}


def _quadratic_field_roots(g: Poly) -> list[FieldElement]:
    """Roots of a monic rational quadratic without rational roots,
    presented over Q[theta]/(theta^2 - f) with f the squarefree part of
    the discriminant."""
    coeffs = [c.as_fraction() for c in g.univariate_coeffs()]
    if len(coeffs) != 3:
        raise ValueError(f"expected a quadratic condition, got degree {len(coeffs)-1}")
    b, c = coeffs[1], coeffs[0]
    s, f = _squarefree_split(b * b - 4 * c)
    field = NumberField([-f, 0, 1])
    theta = field.gen()
    half = field.elem(Fraction(1, 2))
    return [(theta * s - b) * half, (-(theta * s) - b) * half]


def _kr32_params_from_r1_poly(r1: Poly, d0: int, d: int) -> EtaleParams | None:
    """The certified parameters with this R1, or None.  R1(0) = 1 puts t
    in D and E(0) != 0 keeps it out of E, so t R2^2 | D iff E^2 | D."""
    field = r1.field
    e, D = kr32_condition(r1)
    c0 = e.constant_coeff()
    if c0.is_zero():
        return None
    r2 = e * c0.inverse()
    try:
        r0 = exact_div(D, Poly.variable("t", field) * r2 ** 2)
    except NotDivisible:
        return None
    params = EtaleParams(k=3, r=2, a=1, alpha=1, d=d, lam=field.elem(1),
                         R0=r0, R1=r1, R2=r2)
    if not etale_certificate(params).verdict:
        return None
    return params
