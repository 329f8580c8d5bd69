"""Surface morphisms as first-class objects, with the etale certificate.

A SurfaceMap holds three coordinate polynomials in the source variables
(possibly with extra parameter variables, which carry torus weight zero).
make_map gates a map given from outside: the target relation composed with
the coordinates must reduce to zero in the source coordinate ring.  The
constructors build a SurfaceMap directly, by the identity in their docstring.

The etale decision for the parametric family is certificate-based: the
conditions (C1)-(C5) recorded in EtaleCertificate are exactly the necessary
and sufficient conditions for the formula

    (lam * x * z^(1-alpha) * R2(1-z^k),
     lam^(-r) * y * R0(1-z^k),
     z^alpha * R1(1-z^k))

to define a torus-equivariant etale endomorphism of tilde(k, r) of degree d
descending to the quotient with parameter a.  The Jacobian oracle is an
independent exact check, never the decision procedure: it decides whether
the map pulls the nowhere-vanishing 2-form of the surface back to a nonzero
constant multiple of itself.  Degrees are computed through the base
polynomial, not by fiber counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .numfield import (QQ, FieldElement, NumberField, common_field,
                       json_fields, rationals)
from .polyalg import (Poly, exact_div, flip, gcd_univariate, kronecker_bits,
                      kronecker_sum, separable_mod_p)
from .polyparse import (MAX_DEGREE, field_from_string, field_name, parse_poly,
                        print_poly)
from .surface import (SurfacePoint, SurfaceSpec, hyper_surface, normal_form,
                      parse_surface_id, relation_poly, tilde_surface, weight_of)


class NotAMorphism(ValueError):
    """The target relation does not vanish modulo the source ideal."""

    def __init__(self, witness: Poly):
        super().__init__(f"target relation pulls back to {witness}, not 0")
        self.witness = witness


class SourceTargetMismatch(ValueError):
    pass


class DegreeUndetermined(ValueError):
    pass


class CertificateRequired(ValueError):
    def __init__(self, certificate: "EtaleCertificate"):
        super().__init__("certificate verdict false; failing: "
                         + ", ".join(certificate.failing()))
        self.certificate = certificate


class SurfaceMap:
    """A morphism of surface models, gated by make_map or proved by its constructor."""

    def __init__(self, source: SurfaceSpec, target: SurfaceSpec,
                 coords: tuple[Poly, Poly, Poly],
                 cached_degree: int | None = None):
        self.source = source
        self.target = target
        self.coords = tuple(coords)
        self.cached_degree = cached_degree

    @property
    def field(self) -> NumberField:
        return common_field(QQ, *(c.field for c in self.coords))

    def extra_variables(self) -> tuple[str, ...]:
        out = []
        for c in self.coords:
            for v in c.support_variables():
                if v not in self.source.vars and v not in out:
                    out.append(v)
        return tuple(out)

    def normalized_coords(self) -> tuple[Poly, Poly, Poly]:
        return tuple(normal_form(c, self.source) for c in self.coords)

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coords)
        return f"SurfaceMap({self.source} -> {self.target}: ({cs}))"


def make_map(source: SurfaceSpec, target: SurfaceSpec, coords) -> SurfaceMap:
    """Validate and build a SurfaceMap from coordinates given from outside.

    The exact gate: the pullback of the target relation reduces to zero
    modulo the source ideal, for every value of any parameter variables.
    NotAMorphism carries the nonzero normal form as its witness.
    """
    coords = tuple(coords)
    if len(coords) != 3:
        raise ValueError("a surface map has three coordinates")
    m = SurfaceMap(source, target, coords)
    rel = relation_poly(target, m.field, target.vars)
    witness = normal_form(rel.substitute(dict(zip(target.vars, coords))), source)
    if not witness.is_zero():
        raise NotAMorphism(witness)
    return m


def apply_map(m: SurfaceMap, p: SurfacePoint) -> SurfacePoint:
    """Image of a point; the result is revalidated on the target."""
    if p.surface != m.source:
        raise SourceTargetMismatch(f"point on {p.surface}, map from {m.source}")
    env = dict(zip(m.source.vars, p.coords))
    image = tuple(c.evaluate(env) for c in m.coords)
    return SurfacePoint(m.target, image)


def compose_maps(g: SurfaceMap, f: SurfaceMap) -> SurfaceMap:
    """g after f in normal form; a composite of morphisms is a morphism."""
    if f.target != g.source:
        raise SourceTargetMismatch(f"{f.target} != {g.source}")
    sub = dict(zip(g.source.vars, f.coords))
    coords = tuple(normal_form(c.substitute(sub), f.source) for c in g.coords)
    degree = None
    if f.cached_degree is not None and g.cached_degree is not None:
        degree = f.cached_degree * g.cached_degree
    return SurfaceMap(f.source, g.target, coords, cached_degree=degree)


def maps_equal(m1: SurfaceMap, m2: SurfaceMap) -> bool:
    """Equality as morphisms: normal forms of the coordinates agree."""
    if m1.source != m2.source or m1.target != m2.target:
        return False
    return all(a == b for a, b in
               zip(m1.normalized_coords(), m2.normalized_coords()))


# -- equivariance ------------------------------------------------------------


def cstar_equivariant(m: SurfaceMap) -> bool:
    """Each coordinate is weighted-homogeneous of the target variable weight."""
    for coord, target_weight in zip(m.normalized_coords(), m.target.weights):
        if coord.is_zero():
            continue
        if weight_of(coord, m.source) != target_weight:
            return False
    return True


@dataclass(frozen=True)
class ZkCompat:
    kind: str                  # "equivariant" | "invariant" | "no"
    twist: int | None = None   # exponent m with eta o (eps*_a) = (eps^m *_a) o eta


def zk_compatible(m: SurfaceMap, a: int) -> ZkCompat:
    """Compatibility with the order-k cyclic action on the tilde model.

    Substituting the action scales each monomial x^i y^j z^l by eps^(i-rj-al),
    so the identity (for a primitive root) holds for twist m iff every
    monomial of the n-th coordinate has the same exponent mod k, matching
    m times the target exponent.  This decides the identity in the
    cyclotomic-extended ring by pure exponent arithmetic.
    """
    s = m.source
    if s.model != "tilde" or m.target != s:
        raise ValueError("cyclic compatibility applies to self-maps of tilde(k, r)")
    if math.gcd(a, s.k) != 1:
        raise ValueError(f"a = {a} is not coprime with k = {s.k}")
    k = s.k
    exps = (1, -s.r, -a)       # eps*_a scales x, y, z by eps^1, eps^-r, eps^-a
    coord_weights: list[int | None] = []
    for coord in m.normalized_coords():
        if coord.is_zero():
            coord_weights.append(None)
            continue
        w = weight_of(coord, s, exps, k)
        if w is None:
            return ZkCompat("no")
        coord_weights.append(w)
    for twist in range(k):
        if all(w is None or w == (twist * t) % k
               for w, t in zip(coord_weights, exps)):
            if twist == 0:
                return ZkCompat("invariant", 0)
            return ZkCompat("equivariant", twist)
    return ZkCompat("no")


# -- degree through the base polynomial ------------------------------------------


def covering(k: int, rbar: int) -> SurfaceMap:
    """The degree-k quotient covering tilde(k, rbar*k) -> hyper(k, rbar),
    which pulls the relation back to x^k times the relation."""
    source = tilde_surface(k, rbar * k)
    target = hyper_surface(k, rbar)
    x, y, z = (Poly.variable(v, QQ, source.vars) for v in source.vars)
    return SurfaceMap(source, target, (x ** k, y, x * z), cached_degree=k)


def base_polynomial(m: SurfaceMap) -> Poly:
    """The induced polynomial on the base line, as a polynomial in t.

    For a torus-equivariant self-map the pullback of the base coordinate
    (t = 1 - z^k on the tilde model, t = -u^rbar*v on the hypersurface
    model) is a polynomial in z^k, from which eta_rho is read off by the
    substitution z^k = 1 - t.  Hypersurface self-maps are first composed
    with the covering (x, y, z) -> (x^k, y, x*z).
    """
    if m.source != m.target:
        raise DegreeUndetermined("base polynomial is defined for self-maps")
    if m.extra_variables():
        raise DegreeUndetermined("coordinates carry free parameters")
    if not cstar_equivariant(m):
        raise DegreeUndetermined("map is not torus-equivariant")
    s = m.source
    field = m.field
    k = s.k
    if s.model == "tilde":
        # an equivariant w in normal form is a polynomial in z alone, so w^k
        # is already in normal form
        q = 1 - normal_form(m.coords[2], s) ** k
    else:
        cover = covering(k, s.r)
        sub = dict(zip(s.vars, cover.coords))
        psi1 = m.coords[0].substitute(sub)
        psi2 = m.coords[1].substitute(sub)
        q = normal_form(-(psi1 ** s.r) * psi2, cover.source)
    if q.is_zero():
        raise DegreeUndetermined("degenerate (non-dominant) map")
    return zk_to_t(q.with_field(field), k)


def zk_to_t(q: Poly, k: int) -> Poly:
    """g(1 - t) for q = g(z^k), t = 1 - z^k: polyalg.flip, an involution (build_from_params runs
    it the other way) that only adds integer numerators, so needs no field product."""
    if any(v != "z" for v in q.support_variables()):
        raise DegreeUndetermined(f"{q} is not a function of z alone")
    if any(e % k for key in q.terms for e in key):
        raise DegreeUndetermined(f"{q} is not a polynomial in z^{k}")
    return flip(q, k, "t")


def degree_of(m: SurfaceMap) -> int:
    """Degree via declared data, composition, or the base polynomial.

    Never computed by generic fiber counting: equivariant self-maps take
    the degree of eta_rho (the fibration degree theorem), coverings and
    automorphisms carry declared degrees, compositions multiply.
    """
    if m.cached_degree is not None:
        return m.cached_degree
    eta_rho = base_polynomial(m)
    d = eta_rho.total_degree()
    if d < 1:
        raise DegreeUndetermined("constant base polynomial")
    m.cached_degree = d
    return d


# -- parameters and certificate ----------------------------------------------------


def _as_t_poly(p, field: NumberField) -> Poly:
    if isinstance(p, Poly):
        if p.variables != ("t",):
            q = p.drop_unused()
            if q.variables not in ((), ("t",)):
                raise ValueError(f"{p} is not a polynomial in t")
            p = q.with_variables(("t",))
        return p.with_field(field)
    return Poly.constant(field.elem(p), field, ("t",))


@dataclass(frozen=True)
class EtaleParams:
    """The tuple (k, r, a, alpha, d, lambda, R0, R1, R2) of the family."""
    k: int
    r: int
    a: int
    alpha: int
    d: int
    lam: FieldElement
    R0: Poly
    R1: Poly
    R2: Poly

    def __post_init__(self):
        if self.k < 2 or self.r < 2:
            raise ValueError("parameters need k, r >= 2")
        if self.alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")
        if math.gcd(self.a, self.k) != 1:
            raise ValueError("a must be coprime with k")
        if self.alpha == 0 and self.a != 1:
            raise ValueError("alpha = 0 forces a = 1")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not isinstance(self.lam, FieldElement):
            object.__setattr__(self, "lam", QQ.elem(self.lam))
        if self.lam.is_zero():
            raise ValueError("lambda must be nonzero")
        polys = [rp for rp in (self.R0, self.R1, self.R2) if isinstance(rp, Poly)]
        field = common_field(self.lam.field, *(rp.field for rp in polys))
        object.__setattr__(self, "lam", field.elem(self.lam))
        object.__setattr__(self, "R0", _as_t_poly(self.R0, field))
        object.__setattr__(self, "R1", _as_t_poly(self.R1, field))
        object.__setattr__(self, "R2", _as_t_poly(self.R2, field))

    @property
    def field(self) -> NumberField:
        return self.lam.field

    @cached_property
    def c1_terms(self) -> list:
        """C1's lhs - rhs = t (1-t)^e R0 R2^r + (1-t)^alpha R1^k - 1 as terms
        of polyalg.kronecker_sum, with e = (1-alpha)r/k rounded down."""
        one = (1,) + (0,) * (self.field.degree - 1)
        t = Poly(self.field, ("t",), {(1,): one})
        s = Poly(self.field, ("t",), {(0,): one, (1,): (-1,) + one[1:]})
        return [(1, [(t, 1), (s, (1 - self.alpha) * self.r // self.k), (self.R0, 1),
                     (self.R2, self.r)]),
                (1, [(s, self.alpha), (self.R1, self.k)]), (-1, [])]

    @cached_property
    def c1_bits(self) -> int:
        """kronecker_bits of c1_terms: the input bound of params_from_json,
        and the size of C1's evaluation in etale_certificate."""
        return kronecker_bits(self.c1_terms)

    def to_json(self) -> dict:
        return {
            "k": self.k, "r": self.r, "a": self.a,
            "alpha": self.alpha, "d": self.d,
            "field": field_name(self.field),
            "lambda": [str(c) for c in self.lam.coords],
            "R0": print_poly(self.R0),
            "R1": print_poly(self.R1),
            "R2": print_poly(self.R2),
        }


_PARAM_FIELDS = {"k": int, "r": int, "a": int, "alpha": int, "d": int,
                 "field": str, "lambda": list, "R0": str, "R1": str, "R2": str}


# Bounds EtaleParams.c1_bits: 2,567 for chebyshev_endo(999), the largest
# construction, so a margin of about 4.  R2 = 511*t + 1 with r = 999 (9,998)
# fails C1 in about 1.3 s (2-vCPU Xeon), R2 = 123456789012345678901234567890*t
# + 1 (96,911) took minutes when its witness was built by Poly products.
MAX_C1_BITS = 10_000


def params_from_json(data: dict) -> EtaleParams:
    """The inverse of EtaleParams.to_json; a missing or ill-typed field
    raises ValueError naming it.

    So that the certificate cannot run away, ValueError also rejects k or r
    above MAX_DEGREE, a document where either side of C1,
    t (1-t)^((1-alpha)r/k) R0 R2^r or (1-t)^alpha R1^k, would have degree
    above MAX_DEGREE, and one whose C1 coefficients may have more than
    MAX_C1_BITS bits; those degrees and sizes are counted from R0, R1, R2
    before any power is taken.
    """
    json_fields(data, _PARAM_FIELDS, "parameter document")
    for name in ("k", "r"):
        if data[name] > MAX_DEGREE:
            raise ValueError(f"parameter {name!r} = {data[name]} exceeds the "
                             f"bound {MAX_DEGREE}")
    field = field_from_string(data["field"])
    lam = field.from_coords(rationals(data["lambda"], "parameter 'lambda'"))
    p = EtaleParams(
        k=data["k"], r=data["r"], a=data["a"],
        alpha=data["alpha"], d=data["d"], lam=lam,
        R0=parse_poly(data["R0"], ("t",), field),
        R1=parse_poly(data["R1"], ("t",), field),
        R2=parse_poly(data["R2"], ("t",), field),
    )
    d0, d1, d2 = (max(R.total_degree(), 0) for R in (p.R0, p.R1, p.R2))
    side = max(1 + (1 - p.alpha) * p.r // p.k + d0 + p.r * d2, p.alpha + p.k * d1)
    if side > MAX_DEGREE:
        raise ValueError(f"a side of C1 of degree {side} exceeds the bound {MAX_DEGREE}")
    bits = p.c1_bits
    if bits > MAX_C1_BITS:
        raise ValueError(f"the coefficients of C1 may have {bits} bits, above the "
                         f"bound {MAX_C1_BITS}")
    return p


def ri_degrees(k: int, r: int, alpha: int, d: int) -> tuple[int | Fraction, ...]:
    """The derived degrees (d0, d1, d2), each an int when it is integral and
    a Fraction otherwise.

    d2 = (d - alpha - r(1-alpha)) / (k(r-1)),
    d1 = d2 (r-1) + (1-alpha) r/k,
    d0 = (d2 k + 1 - alpha)(r - 1 - r/k).

    They are computed in integers over the common denominator m = k(r-1):
    with n2 = d - alpha - r(1-alpha), d2 = n2/m, d1 = (d - alpha)/k =
    (d - alpha)(r-1)/m and, as d2 k = n2/(r-1) and r - 1 - r/k = (m - r)/k,
    d0 = (n2 + (1-alpha)(r-1))(m - r)/m.
    """
    m = k * (r - 1)
    n2 = d - alpha - r * (1 - alpha)
    out = []
    for n in ((n2 + (1 - alpha) * (r - 1)) * (m - r), (d - alpha) * (r - 1), n2):
        q, rem = divmod(n, m)
        out.append(Fraction(n, m) if rem else q)
    return tuple(out)


@dataclass(frozen=True)
class EtaleCertificate:
    """Named exact checks; the verdict is their conjunction.

    C3_separability holds by proof when C1_identity and C2_degrees both
    hold (see etale_certificate); otherwise it is decided by
    polyalg.separable_mod_p and, when that test fails, by the exact gcd.
    witnesses maps a failing check to why it fails: C1_identity to the
    residual lhs - rhs, read off the one evaluation that decides C1 (see
    etale_certificate), C2_degrees to the expected (d0, d1, d2) and the
    actual degrees of (R0, R1, R2), C3_separability to the repeated factor
    gcd(f, f') of f = (1-t) R0 R1 R2.  C1_identity has no witness when its
    exponent (1-alpha)r/k is not an integer; the other checks have none.
    """
    params: EtaleParams
    checks: dict
    verdict: bool
    witnesses: dict

    def failing(self) -> tuple[str, ...]:
        return tuple([name for name, ok in self.checks.items() if not ok])

    def witness_json(self) -> dict:
        """The witnesses with polynomials as text and degrees as rationals
        in text."""
        out = {}
        for name, w in self.witnesses.items():
            if isinstance(w, Poly):
                out[name] = print_poly(w)
            else:
                expected, actual = w
                out[name] = {"expected": [str(x) for x in expected],
                             "actual": list(actual)}
        return out


def etale_certificate(p: EtaleParams) -> EtaleCertificate:
    """Evaluate the five certificate conditions, all exactly.

    C1  two-sided identity t(1-t)^((1-alpha)r/k) R0 R2^r = 1 - (1-t)^alpha R1^k
    C2  the derived degrees are nonnegative integers matching deg R0, R1, R2
    C3  (1-t) R0 R1 R2 separable; R1(0) = R2(0) = 1, R0(0) != 0
    C4  d = alpha + r(1-alpha)  mod k(r-1)
    C5  alpha = 1, or k | r and alpha = 0 (with a = 1)

    When C1 and C2 hold, they prove C3's separability, and nothing is
    computed for it.  Count roots in an algebraic closure of the field,
    with eta = 1 - (1-t)^alpha R1^k, e = (1-alpha)r/k and d0, d1, d2 the
    degrees of R0, R1, R2, and n0, n1 the numbers of distinct roots of
    eta and eta - 1.

    Lower bound.  By C2 and ri_degrees, k*d1 = d - alpha, so eta has
    degree alpha + k*d1 = d >= 1 and eta' = (eta - 1)' has degree d - 1.
    gcd(eta, eta') and gcd(eta - 1, eta') are coprime divisors of eta', of
    degrees d - n0 and d - n1, so n0 + n1 >= d + 1.

    Upper bound.  By C1, eta = t (1-t)^e R0 R2^r and eta - 1 =
    -(1-t)^alpha R1^k, so n0 <= 1 + [e > 0] + d0 + d2 and
    n1 <= alpha + d1.  By ri_degrees that sum is d + 1:
      alpha = 1: e = 0, d1 = (r-1) d2 and d0 = (k(r-1) - r) d2, so the sum
        is 2 + k(r-1) d2 = 2 + (d - 1);
      alpha = 0: C1 holds only with C5, so k | r and e = r/k >= 1;
        d1 = (r-1) d2 + r/k and d0 = (k d2 + 1)(r - 1 - r/k), so the sum
        is 2 + k(r-1) d2 + r - 1 = 2 + (d - r) + r - 1.

    Conclusion.  Both bounds are equalities, so the roots they list are
    distinct: R0 and R2 have simple roots, none shared, none at 0 and,
    when e > 0, none at 1; R1 has simple roots and, when alpha = 1, none
    at 1.  As eta and eta - 1 share no root, R1 is prime to R0 R2, and 1,
    a root of eta when e > 0 and of eta - 1 when alpha = 1 (one of the two
    holds), is a root of none of R0, R1, R2.  So R0, R1 and R2 are
    squarefree, pairwise coprime and prime to 1 - t: f = (1-t) R0 R1 R2 is
    separable.  The count assumes that the coefficients form a field, as
    every other check does (numfield takes a minimal polynomial of degree
    above 4 to be irreducible).

    When C1 or C2 fails, C3's separability is decided modulo the field's
    degree-one prime by polyalg.separable_mod_p, an exact proof (see
    polyalg).  Only when that test fails is f built and gcd_univariate(f,
    f') run, and that gcd decides the check and is its witness.

    C1 has one method on every field: one exact Kronecker evaluation of
    lhs - rhs at t = 2^K (polyalg.kronecker_sum of p.c1_terms), with K a
    multiple of 8 above p.c1_bits, the bound params_from_json checks.  Over
    Q(theta) each factor is evaluated coordinate by coordinate and the
    field's products run on those big integers.  Every coordinate of every
    coefficient of M*(lhs - rhs), M the product of the denominators, is
    below 2^(K-1) in absolute value by the bound proved in polyalg, which
    takes the field's growth per product from NumberField.mul_norm.  So the
    value is zero iff C1 holds, and when it is not, its balanced base-2^K
    digits are the coefficients of the witness lhs - rhs; no product of
    polynomials is built and nothing is sampled.
    """
    field = p.field
    checks: dict[str, bool] = {}
    witnesses: dict = {}
    # EtaleParams enforces gcd(a, k) = 1, and a = 1 when alpha = 0
    checks["C5_alpha_kr"] = p.alpha == 1 or p.r % p.k == 0

    expected = ri_degrees(p.k, p.r, p.alpha, p.d)
    actual = tuple([R.total_degree() for R in (p.R0, p.R1, p.R2)])
    # the actual degrees are ints, and -1 only for a zero R_i
    checks["C2_degrees"] = actual == expected and min(actual) >= 0
    if not checks["C2_degrees"]:
        witnesses["C2_degrees"] = (expected, actual)

    modulus = p.k * (p.r - 1)
    checks["C4_congruence"] = (p.d - (p.alpha + p.r * (1 - p.alpha))) % modulus == 0

    if not checks["C5_alpha_kr"]:
        checks["C1_identity"] = False
    else:
        residual = kronecker_sum(p.c1_terms, p.c1_bits)
        checks["C1_identity"] = residual.is_zero()
        if not checks["C1_identity"]:
            witnesses["C1_identity"] = residual

    t = Poly.variable("t", field)
    # C1 and C2 prove separability by the root count above
    checks["C3_separability"] = (checks["C1_identity"] and checks["C2_degrees"]
                                 or separable_mod_p([1 - t, p.R0, p.R1, p.R2]))
    if not checks["C3_separability"]:
        sep_poly = (1 - t) * p.R0 * p.R1 * p.R2
        repeated = gcd_univariate(sep_poly, sep_poly.derivative())
        # gcd(0, 0) is 0, of degree -1: the zero polynomial is not separable
        checks["C3_separability"] = repeated.total_degree() == 0
        if not checks["C3_separability"]:
            witnesses["C3_separability"] = repeated
    one = field.one()
    checks["C3_normalization"] = (
        p.R1.constant_coeff() == one
        and p.R2.constant_coeff() == one
        and not p.R0.constant_coeff().is_zero())

    return EtaleCertificate(p, checks, all(checks.values()), witnesses)


@dataclass(frozen=True)
class BuildResult:
    tilde_map: SurfaceMap
    hyper_map: SurfaceMap | None
    j: SurfaceMap | None


def build_from_params(p: EtaleParams) -> BuildResult:
    """The lift on tilde(k, r), the descended self-map of the hypersurface
    model when a = 1 and k | r, and, when alpha = 0 (so a = 1 and k | r),
    j: hyper(k, rbar) -> tilde(k, r) with pi o j = eta for the covering pi;
    by C1 all three are morphisms.  Tilde, t = 1 - z^k: x^r*y = -t and
    z^(r(1-alpha)) = (1-t)^((1-alpha)r/k), so X^r*Y - Z^k + 1 = rhs - lhs.
    Hyper, t = -u^rbar*v: H1*(1 + H1^rbar*H2) - H3^k = (lam*R1*R2)^k *
    (u*(1 + u^rbar*v) - w^k).  j, alpha = 0: w^r*v = -t*(1-t)^(r/k), so
    J1^r*J2 - J3^k + 1 = rhs - lhs; deg j = d/k = rbar mod (r - 1) by C4.
    A, H, B = R2, R0, R1 at t = 1 - z^k, one flip each (zk_to_t's involution: additions, no
    field product); the hyper map and j take R_i(-u^rbar*v) by substitute (monomial powers)."""
    cert = etale_certificate(p)
    if not cert.verdict:
        raise CertificateRequired(cert)
    field = p.field
    k, r, alpha = p.k, p.r, p.alpha

    s = tilde_surface(k, r)
    x, y, z = (Poly.variable(v, field, s.vars) for v in s.vars)
    A, H, B = (flip(R, 1, "z", k) for R in (p.R2, p.R0, p.R1))
    tilde_map = SurfaceMap(s, s, (x * z ** (1 - alpha) * p.lam * A, y * p.lam ** (-r) * H,
                                  z ** alpha * B))

    hyper_map = j = None
    if p.a == 1 and r % k == 0:
        rbar = r // k
        h = hyper_surface(k, rbar)
        u, v, w = (Poly.variable(n, field, h.vars) for n in h.vars)
        tu = -(u ** rbar) * v
        r2t, r0t, r1t = (R.substitute({"t": tu}) for R in (p.R2, p.R0, p.R1))
        h1 = u * (1 - tu) ** (1 - alpha) * (r2t ** k) * (p.lam ** k)
        h2 = v * r0t * (p.lam ** (-r))
        h3 = w * r1t * r2t * p.lam
        hyper_map = SurfaceMap(h, h, (h1, h2, h3))
        if alpha == 0:
            j = SurfaceMap(h, s, (w * r2t * p.lam, h2, r1t), cached_degree=p.d // k)
    return BuildResult(tilde_map, hyper_map, j)


# -- independent Jacobian oracle -----------------------------------------------------
#
# On a surface F = 0 of either model, omega = d(first) ^ d(last) / F_mid, with
# F_mid the partial derivative of F by the middle variable, is a 2-form
# without zeros or poles.  For a map f = (f1, f2, f3) into a surface G = 0,
# d(f1) ^ d(f3) = T * dx^dz / (-F_mid) on the source with
# T = (grad f1 x grad f3) . grad F, so f*omega = J * omega with J = -T / D,
# D = G_mid o f.  J is a regular function and the only units of these
# coordinate rings are the nonzero constants, so f is etale everywhere iff
# J is a nonzero constant.
#
# J is one exact division: mid -> top / first^e, from the relation
# first^e * mid = top, embeds the coordinate ring in Q[first, 1/first, last],
# where J = -first^n * T''/D'' with T'', D'' prime to first; D'' divides T''
# since first is prime and J regular.  For n < 0, first*g = h (tilde:
# g = x^(r-1)*y, h = z^k - 1; hyper: g = u^rbar*v + 1, h = w^k) gives
# J = normal_form(-g^|n|*T''/D'') / h^|n|, h being a polynomial in last.


def _pullback_numerator(m: SurfaceMap) -> Poly:
    """T over the source variables, then any parameter variables."""
    vs = m.source.vars + m.extra_variables()
    a, b = (c.drop_unused().with_variables(vs) for c in (m.coords[0], m.coords[2]))
    ga, gb, gn = ([p.derivative(v) for v in m.source.vars]
                  for p in (a, b, relation_poly(m.source, m.field, vs)))
    return (gn[0] * (ga[1] * gb[2] - ga[2] * gb[1])
            + gn[1] * (ga[2] * gb[0] - ga[0] * gb[2])
            + gn[2] * (ga[0] * gb[1] - ga[1] * gb[0]))


def _in_chart(p: Poly, e: int, top: Poly) -> tuple[Poly, int]:
    """(q, n) with p = first^n * q under mid -> top / first^e, q free of mid
    and prime to first, by Horner's rule in mid."""
    d = max((k[1] for k in p.terms), default=0)
    rows = [{} for _ in range(d + 1)]
    for k, c in p.terms.items():   # row j holds p_j * first^(e*(d-j))
        rows[k[1]][(k[0] + e * (d - k[1]), 0) + k[2:]] = c
    acc = Poly.zero(top.field, top.variables)
    for row in reversed(rows):
        acc = acc * top + Poly(p.field, p.variables, row, p.den)
    low = min((k[0] for k in acc.terms), default=0)
    terms = {(k[0] - low,) + k[1:]: c for k, c in acc.terms.items()}
    return Poly(acc.field, acc.variables, terms, acc.den), low - e * d


def jacobian_det_at(m: SurfaceMap, pt: SurfacePoint) -> FieldElement:
    """J of jacobian_spotcheck(m) at pt: zero exactly where m is not etale."""
    return jacobian_spotcheck(m).J.evaluate(dict(zip(m.source.vars, pt.coords)))


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of the Jacobian oracle; true iff the map is etale.

    J, in normal form, has f*omega = J * omega.  jacobian is J when J is a
    nonzero constant, else None, and J is the witness: it vanishes exactly
    on the ramification locus."""
    J: Poly

    @property
    def jacobian(self) -> FieldElement | None:
        return self.J.constant_coeff() if self.J.total_degree() == 0 else None

    def __bool__(self):
        return self.jacobian is not None


def jacobian_spotcheck(m: SurfaceMap) -> OracleVerdict:
    """Decide exactly whether m pulls omega back to a nonzero constant
    multiple of omega, i.e. is etale everywhere, for all parameter values.
    J is over the source variables and any parameters."""
    s, t = m.source, _pullback_numerator(m)
    first, mid, last = (Poly.variable(v, t.field, t.variables) for v in s.vars)
    tilde = s.model == "tilde"
    e, top = (s.r, last ** s.k - 1) if tilde else (s.r + 1, last ** s.k - first)
    t, tn = _in_chart(t, e, top)
    if t.is_zero():
        return OracleVerdict(t)
    g_mid = relation_poly(m.target, m.field, m.target.vars).derivative(m.target.vars[1])
    d = g_mid.substitute(dict(zip(m.target.vars, m.coords))).drop_unused()
    d, dn = _in_chart(d.with_variables(t.variables), e, top)
    q, n = -exact_div(t, d), tn - dn
    if n >= 0:
        return OracleVerdict(q * first ** n)
    g, h = (first ** (s.r - 1) * mid, top) if tilde else (first ** s.r * mid + 1, last ** s.k)
    return OracleVerdict(exact_div(normal_form(q * g ** -n, s), h ** -n))


# -- map serialization ------------------------------------------------------------


def map_to_json(m: SurfaceMap) -> dict:
    return {
        "source": m.source.surface_id(),
        "target": m.target.surface_id(),
        "coords": [print_poly(c) for c in m.coords],
        "field": field_name(m.field),
    }


def map_from_json(data: dict) -> SurfaceMap:
    source = parse_surface_id(data["source"])
    target = parse_surface_id(data["target"])
    field = field_from_string(data["field"])
    coords = tuple(parse_poly(c, source.vars, field) for c in data["coords"])
    return make_map(source, target, coords)
