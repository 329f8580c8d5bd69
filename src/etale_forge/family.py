"""Deformation machinery: shear automorphisms, the deformed family with
its base check, and the equivalence decision modulo automorphisms.

The additive shear Theta^P acts on tilde(k, r) by

    (x, y, z) -> (x, y + x^(-r)((z + P(x) x^r)^k - z^k), z + P(x) x^r)

with the middle coordinate expanded so the binomial terms cancel the
x^(-r); it satisfies the group law Theta^P o Theta^Q = Theta^(P+Q) and is
an automorphism.  A family member is pi o Theta^F(a) o j, with
F(a) = 1 + sum a_i x^(r i).  j: hyper(k, rbar) -> tilde(k, r) is the
factorization of a certified alpha = 0 endomorphism through the covering
pi(x, y, z) = (x^k, y, x*z), the j of the base's endo.BuildResult, whose
base check_family_base checks first; k, rbar and r are read off j.

Two deformation polynomials are equivalent modulo pre/post-composition by
automorphisms iff F1(x) = lam^r F2(lam x) for some lam != 0; since both lie
in C[x^r], only mu = lam^r enters, and solvability is decided exactly in
the coefficient field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constructor import PreconditionViolated
from .endo import EtaleParams, SurfaceMap, compose_maps, covering
from .numfield import QQ, FieldElement
from .polyalg import ArityError, Poly
from .polyparse import MAX_DEGREE
from .surface import SurfaceSpec


def theta(P, s: SurfaceSpec) -> SurfaceMap:
    """The shear automorphism of tilde(k, r) attached to P in C[x]; the
    relation pulls back to itself, as x^r*shift = (z + P*x^r)^k - z^k."""
    if s.model != "tilde":
        raise ValueError("theta lives on the tilde model")
    if isinstance(P, Poly):
        bad = [v for v in P.support_variables()
               if v != "x" and v in ("y", "z", "u", "v", "w")]
        if bad:
            raise ArityError(f"P must be a polynomial in x, found {bad}")
        field = P.field
    else:
        field = QQ
        P = Poly.constant(P, field, ("x",))
    x, y, z = (Poly.variable(v, field, s.vars) for v in s.vars)
    k, r = s.k, s.r
    shift = sum(math.comb(k, j) * z ** (k - j) * P ** j * x ** (r * (j - 1))
                for j in range(1, k + 1))
    return SurfaceMap(s, s, (x, y + shift, z + P * x ** r), cached_degree=1)


def check_family_base(base: EtaleParams, k: int, rbar: int) -> None:
    """Refuse a base without j (alpha = 1) or not for tilde(k, rbar*k) from
    its parameters alone; the build of j then checks its certificate."""
    if base.alpha != 0:
        raise PreconditionViolated("family base must have alpha = 0, a = 1")
    if (base.k, base.r) != (k, rbar * k):
        raise PreconditionViolated(f"base parameters are for tilde({base.k},{base.r})")


def deformation_poly(j: SurfaceMap, avector) -> Poly:
    """F(a) = 1 + sum a_i x^(r i) for the tilde(k, r) that j maps into;
    each a_i is a parameter Poly or a number, taken into j's field.  F has
    degree r * len(a), which must not exceed MAX_DEGREE."""
    r, field = j.target.r, j.field
    degree = r * len(avector)
    if degree > MAX_DEGREE:
        raise PreconditionViolated(f"the a-vector gives F of degree {degree}, "
                                   f"which exceeds the bound {MAX_DEGREE}")
    x = Poly.variable("x", field)
    F = Poly.constant(1, field, ("x",))
    for i, ai in enumerate(avector, start=1):
        F = F + (ai if isinstance(ai, Poly) else field.elem(ai)) * x ** (r * i)
    return F


def family_member(j: SurfaceMap, avector) -> SurfaceMap:
    """The self-map pi o Theta^F(a) o j of hyper(k, rbar), reduced to
    normal form; its degree is k * deg(j)."""
    s = j.target
    th_j = compose_maps(theta(deformation_poly(j, avector), s), j)
    return compose_maps(covering(s.k, j.source.r), th_j)


def family_member_symbolic(j: SurfaceMap, nparams: int) -> SurfaceMap:
    """A family member with formal parameters a1..an (torus weight zero)."""
    return family_member(j, [Poly.variable(f"a{i}", j.field)
                             for i in range(1, nparams + 1)])


# -- equivalence modulo automorphisms ----------------------------------------------


@dataclass(frozen=True)
class EcEquivalence:
    equivalent: bool
    lam: FieldElement | None = None         # witness with P1(x) = lam^r P2(lam x)
    lam_pow_r: FieldElement | None = None   # mu = lam^r, always in the base field


def _support(P: Poly, r: int) -> dict[int, FieldElement]:
    if P.is_zero():
        raise ValueError("equivalence needs nonzero polynomials")
    coeffs = P.univariate_coeffs()
    supp = {}
    for j, c in enumerate(coeffs):
        if not c.is_zero():
            if j % r != 0:
                raise ValueError(f"polynomial is not in C[x^{r}]")
            supp[j] = c
    return supp


# the largest root-of-unity order ec_equivalent looks for in a witness
ORDER_BOUND = 64


def _finite_order(mu: FieldElement) -> int | None:
    acc = mu
    one = mu.field.one()
    for order in range(1, ORDER_BOUND + 1):
        if acc == one:
            return order
        acc = acc * mu
    return None


def ec_equivalent(P1: Poly, P2: Poly, r: int) -> EcEquivalence:
    """Decide existence of lam != 0 with P1(x) = lam^r * P2(lam * x).

    Both inputs lie in C[x^r], so with e_j = 1 + j/r the condition reads
    mu^(e_j) = a_j / b_j for mu = lam^r.  Euclid runs on these equations
    as on their exponents: mu^g = nu and mu^e = q give mu^(g - m e) =
    nu / q^m, and it ends in mu^g = nu with g = gcd(e_j).  Any solution
    satisfies mu^g = nu, and conversely the system is solvable over C iff
    nu^(e_j/g) = a_j/b_j for every j -- an exact test in the coefficient
    field.  A witness lam in the field is produced whenever mu is a root
    of unity of order prime to r.
    """
    if r < 1:
        raise ValueError("r must be positive")
    s1 = _support(P1, r)
    s2 = _support(P2, r)
    if set(s1) != set(s2):
        return EcEquivalence(False)
    # descending exponents, so the first step divides by no zeroth power
    pairs = [(1 + j // r, s1[j] / s2[j]) for j in sorted(s1, reverse=True)]
    g, nu = pairs[0]
    for e, q in pairs[1:]:
        while e:
            m = g // e
            g, nu, e, q = e, q, g - m * e, nu / q ** m
    for e, q in pairs:
        if nu ** (e // g) != q:
            return EcEquivalence(False)
    # mu = lam^r satisfies mu^g = nu; when g = 1 it is determined
    mu = nu if g == 1 else None
    lam = None
    if mu is not None:
        order = _finite_order(mu)
        if order is not None and math.gcd(r, order) == 1:
            lam = mu ** pow(r, -1, order)
            assert all((lam ** (r + j)) * s2[j] == s1[j] for j in s1)
    return EcEquivalence(True, lam=lam, lam_pow_r=mu)


def family_pairwise_distinct(j: SurfaceMap, avectors) -> bool:
    """True iff the members of j with these a-vectors are pairwise
    inequivalent modulo automorphisms.

    Every deformation polynomial has F(0) = 1 and lies in C[x^r], so
    F1(x) = lam^r F2(lam x) forces lam^r = 1 and then F1 = F2: members are
    equivalent exactly when their deformation polynomials are equal.
    """
    return len({deformation_poly(j, av) for av in avectors}) == len(avectors)
