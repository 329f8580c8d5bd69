"""Endomorphisms of the plane lifting to Miyanishi's surface.

Everything is verified in the affine chart: the self-map of the plane

    eta0(x, y) = (T_n(x), (1/n) U_(n-1)^2(x) y + (x^2 - 1) U_(n-1)(x) b(x))

lifts to a degree-n etale endomorphism of the surface precisely when
(x^2 - 1) b(x)^2 = 1 - s(x) U_(n-1)(x) for some polynomial s (the value
condition at the roots of U_(n-1)).  The lift check verifies the pullback
identities of the three blowup-chart functions

    v1 = (x^2-1)/y,   v2 = (x^2-1)/y^2,   v3 = (x^2-1-y^2)/y^3

as identities of (numerator, denominator) pairs, the base-point condition
eta0(+-1, 0) = ((+-1)^n, 0), and non-contraction of the fibers over the
roots of U_(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numfield import QQ, NumberField
from .polyalg import NotDivisible, Poly, exact_div, gcd_univariate
from .chebyshab import chebyshev_T, chebyshev_U


class BadB(ValueError):
    pass


class UnsupportedN(ValueError):
    pass


@dataclass(frozen=True)
class MiyParams:
    """Degree n and the twisting polynomial b (over its own field)."""
    n: int
    b: Poly

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if isinstance(self.b, Poly):
            used = self.b.support_variables()
            if used and used != ("x",):
                raise ValueError("b must be a polynomial in x")
        else:
            object.__setattr__(self, "b", Poly.constant(self.b, QQ, ("x",)))

    @property
    def field(self) -> NumberField:
        return self.b.field


def _u_poly(n: int, field: NumberField) -> Poly:
    return chebyshev_U(n - 1).with_field(field)


def miy_b_check(n: int, b: Poly) -> Poly:
    """Divisibility form of the value condition on b.

    Divides 1 - (x^2 - 1) b(x)^2 by U_(n-1) and returns the exact quotient
    s; BadB when the division leaves a remainder.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    field = b.field
    x = Poly.variable("x", field)
    u = _u_poly(n, field)
    lhs = 1 - (x * x - 1) * b * b
    try:
        return exact_div(lhs, u)
    except NotDivisible:
        raise BadB(f"b = {b} fails the value condition for n = {n}") from None


def _eta0(p: MiyParams) -> tuple[Poly, Poly, Poly, Poly]:
    """(s, T_n, U_(n-1), core): s in x is the quotient of the value
    condition, and eta0 = (T_n, U_(n-1) * core) in x, y; BadB when the
    condition fails."""
    s = miy_b_check(p.n, p.b)
    field, xy = p.field, ("x", "y")
    x = Poly.variable("x", field, xy)
    y = Poly.variable("y", field, xy)
    u = _u_poly(p.n, field).with_variables(xy)
    tn = chebyshev_T(p.n).with_field(field).with_variables(xy)
    core = u * y * Fraction(1, p.n) + (x * x - 1) * p.b.with_variables(xy)
    return s, tn, u, core


def miy_eta0(p: MiyParams) -> tuple[Poly, Poly]:
    """The plane self-map (T_n, (1/n)U^2 y + (x^2-1)U b); BadB when the
    value condition fails."""
    _, tn, u, core = _eta0(p)
    return tn, u * core


@dataclass(frozen=True)
class LiftReport:
    """The named lift checks, their conjunction, the quotient s of the
    value condition and the plane map eta0 they were run on."""
    checks: dict
    ok: bool
    s: Poly
    eta0: tuple[Poly, Poly]


def miy_lift_check(p: MiyParams) -> LiftReport:
    """Chart-level verification that eta0 lifts to an etale endomorphism.

    (V1) the pullback formulas for v1, v2, v3 against direct substitution,
         as cross-multiplied polynomial identities;
    (V2) base-point compatibility eta0(+-1, 0) = ((+-1)^n, 0);
    (V3) non-contraction: gcd(b, U_(n-1)) is constant.
    BadB when the value condition fails.
    """
    s, tn, u, core = _eta0(p)
    n = p.n
    field = p.field
    x = Poly.variable("x", field, ("x", "y"))
    y = Poly.variable("y", field, ("x", "y"))
    b = p.b.with_variables(("x", "y"))
    eta2 = u * core                                    # second coordinate

    checks = {}
    t2m1 = tn * tn - 1
    x2m1 = x * x - 1
    # v1 = (x^2-1)/y:   (T^2-1)/eta2 == (x^2-1) U / core
    checks["pullback_v1"] = t2m1 * core == x2m1 * u * eta2
    # v2 = (x^2-1)/y^2: (T^2-1)/eta2^2 == (x^2-1) / core^2
    checks["pullback_v2"] = t2m1 * core * core == x2m1 * eta2 * eta2
    # v3 = (x^2-1-y^2)/y^3:
    #   (T^2-1-eta2^2)/eta2^3 == ((x^2-1)s - (1/n^2)U y^2 - (2/n)y(x^2-1)b)/core^3
    claimed_num = (x2m1 * s.with_variables(("x", "y")) - u * y * y * Fraction(1, n * n)
                   - y * x2m1 * b * Fraction(2, n))
    direct_num = t2m1 - eta2 * eta2
    checks["pullback_v3"] = direct_num * core ** 3 == claimed_num * eta2 ** 3
    # V2: base points
    one = field.one()
    sign = one if n % 2 == 0 else -one
    at_plus = {"x": one, "y": field.zero()}
    at_minus = {"x": -one, "y": field.zero()}
    checks["base_points"] = (
        tn.evaluate(at_plus) == one
        and eta2.evaluate(at_plus).is_zero()
        and tn.evaluate(at_minus) == sign
        and eta2.evaluate(at_minus).is_zero())
    # V3: non-contraction
    checks["non_contraction"] = non_contraction_check(p.n, p.b)
    return LiftReport(checks, all(checks.values()), s, (tn, eta2))


def non_contraction_check(n: int, b: Poly) -> bool:
    """gcd(b, U_(n-1)) is constant, so no fiber over a root of U_(n-1)
    is contracted.  (Implied by a passing value condition; exposed
    separately so crafted invalid b are detectable.)"""
    if b.is_zero():
        return False
    if b.total_degree() == 0:
        return True
    u = _u_poly(n, b.field)
    return gcd_univariate(b, u).total_degree() == 0


def miy_b_find(n: int) -> MiyParams:
    """The minimal constant b: n = 2 needs b^2 = -1, n = 3 needs b^2 = -4/3.

    Even n >= 4 requires non-constant b over composite extensions (square
    roots in Q[x]/(U_(n-1)) need factoring machinery), so only user-supplied
    b is verified there.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        field = NumberField([1, 0, 1])       # theta^2 + 1, theta = i
        b = Poly.constant(field.gen(), field, ("x",))
        return MiyParams(2, b)
    if n == 3:
        field = NumberField([3, 0, 1])       # theta^2 + 3, theta = i*sqrt(3)
        b = Poly.constant(field.gen() * field.elem(Fraction(2, 3)), field, ("x",))
        return MiyParams(3, b)
    raise UnsupportedN(f"no built-in b for n = {n}; supply one and verify")
