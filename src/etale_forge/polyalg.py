"""Uni- and multivariate polynomial arithmetic over an exact coefficient field.

A Poly is a term map {exponent vector: coordinate tuple} over an ordered
tuple of variable names and one coefficient field shared by all terms.  A
coordinate tuple holds the Fractions of a coefficient in the field's power
basis 1, theta, ..., theta^(deg - 1), the same tuple a FieldElement keeps in
`coords`; the ring operations add tuples coordinatewise and multiply and
invert them with NumberField.mul and NumberField.inv, so no FieldElement is
built per term.  A term is zero when no coordinate is nonzero, and zero
terms are never stored.  FieldElement is the type at the boundary: the
coefficient queries, evaluate and Poly.constant take or return FieldElements.

The monomial order is lexicographic in the variable order, so exponent
tuples compare directly.  Degrees in this project stay small (a few hundred
at most), so the representation favors clarity: dense exponent vectors,
sparse term maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub

from .numfield import (QQ, Coords, FieldElement, FieldMismatch, NumberField,
                       power)


class ArityError(ValueError):
    """An operation required a univariate polynomial."""


class NotDivisible(ArithmeticError):
    """Exact division failed; carries the nonzero remainder as diagnostic."""

    def __init__(self, remainder: "Poly"):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder


def _common_field(f1: NumberField, f2: NumberField) -> NumberField:
    if f1 == f2:
        return f1
    if f1.is_rational:
        return f2
    if f2.is_rational:
        return f1
    raise FieldMismatch(
        f"cannot mix polynomials over {f1.minpoly_str()} and {f2.minpoly_str()}")


class Poly:
    """Multivariate polynomial with exact field coefficients.

    `terms` maps each exponent vector to the nonzero coordinate tuple of its
    coefficient in the power basis of `field` (see the module docstring).
    """

    __slots__ = ("field", "variables", "terms")

    def __init__(self, field: NumberField, variables: tuple[str, ...],
                 terms: dict[tuple[int, ...], Coords]):
        self.field = field
        self.variables = variables
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: NumberField = QQ, variables: tuple[str, ...] = ()) -> "Poly":
        return Poly(field, tuple(variables), {})

    @staticmethod
    def constant(value, field: NumberField = QQ,
                 variables: tuple[str, ...] = ()) -> "Poly":
        c = value if isinstance(value, FieldElement) else field.elem(value)
        if c.is_zero():
            return Poly(c.field, tuple(variables), {})
        return Poly(c.field, tuple(variables), {(0,) * len(variables): c.coords})

    @staticmethod
    def variable(name: str, field: NumberField = QQ,
                 variables: tuple[str, ...] | None = None) -> "Poly":
        vs = (name,) if variables is None else tuple(variables)
        if name not in vs:
            raise ValueError(f"{name} not among variables {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return Poly(field, vs, {exps: field.one().coords})

    def clone_const(self, value) -> "Poly":
        return Poly.constant(value, self.field, self.variables)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in k) for k in self.terms)

    def constant_coeff(self) -> FieldElement:
        c = self.terms.get((0,) * len(self.variables))
        return self.field.zero() if c is None else FieldElement(self.field, c)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.variables.index(name)
        return max(k[i] for k in self.terms)

    def is_univariate(self) -> bool:
        used = self.support_variables()
        return len(used) <= 1

    def support_variables(self) -> tuple[str, ...]:
        used = set()
        for k in self.terms:
            for i, e in enumerate(k):
                if e:
                    used.add(self.variables[i])
        return tuple(v for v in self.variables if v in used)

    def deg(self) -> int:
        """Degree as a univariate polynomial (ArityError otherwise)."""
        if not self.is_univariate():
            raise ArityError(f"{self} is not univariate")
        return self.total_degree()

    def leading_monomial(self) -> tuple[int, ...]:
        return max(self.terms)

    def leading_coeff(self) -> FieldElement:
        if not self.terms:
            return self.field.zero()
        return FieldElement(self.field, self.terms[max(self.terms)])

    def univariate_coeffs(self) -> list[FieldElement]:
        """Dense coefficient list (constant first) of a univariate Poly."""
        if not self.terms:
            return []
        if not self.is_univariate():
            raise ArityError(f"{self} is not univariate")
        used = self.support_variables()
        if not used:
            return [self.constant_coeff()]
        i = self.variables.index(used[0])
        d = max(k[i] for k in self.terms)
        out = [self.field.zero()] * (d + 1)
        for k, c in self.terms.items():
            out[k[i]] = FieldElement(self.field, c)
        return out

    # -- alignment ---------------------------------------------------------

    def with_variables(self, variables: tuple[str, ...]) -> "Poly":
        """Reinterpret over a (reordered) superset of the current variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        idx = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v} missing from {variables}")
            idx.append(variables.index(v))
        terms = {}
        for k, c in self.terms.items():
            nk = [0] * len(variables)
            for pos, e in zip(idx, k):
                nk[pos] = e
            terms[tuple(nk)] = c
        return Poly(self.field, variables, terms)

    def drop_unused(self) -> "Poly":
        """Project away variables that appear in no term."""
        used = self.support_variables()
        if used == self.variables:
            return self
        idx = [self.variables.index(v) for v in used]
        terms = {tuple(k[i] for i in idx): c for k, c in self.terms.items()}
        return Poly(self.field, used, terms)

    def with_field(self, field: NumberField) -> "Poly":
        """The same polynomial over field; only rational coefficients move
        to another field, so a nonzero Poly over an extension raises."""
        if field == self.field:
            return self
        if self.terms and not self.field.is_rational:
            raise FieldMismatch(
                f"cannot mix elements of {self.field.minpoly_str()} "
                f"and {field.minpoly_str()}")
        pad = (Fraction(0),) * (field.degree - 1)
        return Poly(field, self.variables,
                    {k: c + pad for k, c in self.terms.items()})

    def _pair(self, other) -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field, self.variables)
        field = _common_field(self.field, other.field)
        a, b = self.with_field(field), other.with_field(field)
        if a.variables == b.variables:
            return a, b
        merged = list(a.variables)
        for v in b.variables:
            if v not in merged:
                merged.append(v)
        merged = tuple(merged)
        return a.with_variables(merged), b.with_variables(merged)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            s = terms.get(k)
            s = c if s is None else tuple(map(add, s, c))
            if any(s):
                terms[k] = s
            else:
                del terms[k]
        return Poly(a.field, a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, self.variables,
                    {k: tuple(map(neg, c)) for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        mul = a.field.mul
        terms: dict[tuple[int, ...], Coords] = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                k = tuple(map(add, k1, k2))
                c = mul(c1, c2)
                s = terms.get(k)
                terms[k] = c if s is None else tuple(map(add, s, c))
        return Poly(a.field, a.variables,
                    {k: c for k, c in terms.items() if any(c)})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for n >= 0: the constant 1 for n = 0, else numfield.power."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.constant(1, self.field, self.variables)
        return power(self, n)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field, self.variables)
        try:
            a, b = self._pair(other)
        except FieldMismatch:
            return False
        return a.terms == b.terms

    def __hash__(self):
        used = sorted(self.support_variables())
        idx = [self.variables.index(v) for v in used]
        items = sorted((tuple(k[i] for i in idx), c)
                       for k, c in self.terms.items())
        return hash((self.field, tuple(used), tuple(items)))

    def __repr__(self):
        from .polyparse import print_poly
        return f"Poly({print_poly(self)!r})"

    def __str__(self):
        from .polyparse import print_poly
        return print_poly(self)

    # -- calculus and substitution --------------------------------------------

    def derivative(self, name: str | None = None) -> "Poly":
        if name is None:
            used = self.support_variables()
            if len(used) > 1:
                raise ArityError("derivative variable required for multivariate")
            if not used:
                return Poly.zero(self.field, self.variables)
            name = used[0]
        i = self.variables.index(name)
        terms = {}
        for k, c in self.terms.items():
            if k[i] == 0:
                continue
            nk = list(k)
            nk[i] -= 1
            terms[tuple(nk)] = tuple(k[i] * x for x in c)
        return Poly(self.field, self.variables, terms)

    def evaluate(self, values: dict[str, FieldElement]) -> FieldElement:
        """Full evaluation; every supported variable must get a value."""
        field = self.field
        for x in values.values():
            if isinstance(x, FieldElement):
                field = _common_field(field, x.field)
        p = self.with_field(field)
        vals = []
        for v in p.variables:
            x = values.get(v)
            if x is None:
                if p.degree_in(v) > 0:
                    raise ValueError(f"no value for variable {v}")
                vals.append(field.zero())
            else:
                vals.append(field.coerce(x))
        acc = None
        for k, c in p.terms.items():
            term = FieldElement(field, c)
            for e, x in zip(k, vals):
                if e:
                    term = term * (x ** e)
            acc = term if acc is None else acc + term
        return acc if acc is not None else field.zero()

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace variables by polynomials (unmentioned ones stay)."""
        out = None
        pow_cache: dict[tuple[str, int], Poly] = {}
        for k, c in self.terms.items():
            term = Poly(self.field, (), {(): c})
            for v, e in zip(self.variables, k):
                if e == 0:
                    continue
                repl = mapping.get(v)
                if repl is None:
                    repl = Poly.variable(v, self.field)
                cached = pow_cache.get((v, e))
                if cached is None:
                    cached = repl ** e
                    pow_cache[(v, e)] = cached
                term = term * cached
            out = term if out is None else out + term
        return out if out is not None else Poly.zero(self.field, ())


# -- convenience constructors ------------------------------------------------


def variables(names: str, field: NumberField = QQ) -> tuple[Poly, ...]:
    """Generators of a polynomial ring: variables("x,y,z") -> (x, y, z)."""
    vs = tuple(n.strip() for n in names.split(","))
    return tuple(Poly.variable(v, field, vs) for v in vs)


def compose(outer: Poly, inner: Poly) -> Poly:
    """Exact substitution outer(inner) for univariate outer (Horner)."""
    if not outer.is_univariate():
        raise ArityError(f"{outer} is not univariate")
    coeffs = outer.univariate_coeffs()
    field = _common_field(outer.field, inner.field)
    inner = inner.with_field(field)
    acc = Poly.constant(0, field, inner.variables)
    for c in reversed(coeffs):
        acc = acc * inner + Poly.constant(field.coerce(c), field)
    return acc


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Multivariate division by a single divisor in lex order.

    Returns (q, r) with a = q*b + r and no monomial of r divisible by the
    leading monomial of b.  For a single divisor this remainder is canonical
    ({b} is a Groebner basis of the principal ideal (b)).

    The leading coefficient of b is inverted once per call, and the
    dividend is reduced in one working term map: each step pops its leading
    term and subtracts shift * (b - lt(b)) in place.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    a, b = a._pair(b)
    mul = a.field.mul
    zero = a.field.zero().coords
    lm = b.leading_monomial()
    inv_lc = a.field.inv(b.terms[lm])
    tail = [(k, c) for k, c in b.terms.items() if k != lm]
    p = dict(a.terms)
    q: dict[tuple[int, ...], Coords] = {}
    r: dict[tuple[int, ...], Coords] = {}
    while p:
        k = max(p)
        c = p.pop(k)
        if all(x >= y for x, y in zip(k, lm)):
            shift = tuple(map(sub, k, lm))
            f = mul(c, inv_lc)
            q[shift] = f
            for kb, cb in tail:
                m = tuple(map(add, shift, kb))
                s = tuple(map(sub, p.get(m, zero), mul(f, cb)))
                if any(s):
                    p[m] = s
                else:
                    p.pop(m, None)
        else:
            r[k] = c
    return Poly(a.field, a.variables, q), Poly(a.field, a.variables, r)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b; raises NotDivisible with the remainder otherwise."""
    q, r = divmod_poly(a, b)
    if not r.is_zero():
        raise NotDivisible(r)
    return q


def gcd_univariate(a: Poly, b: Poly) -> Poly:
    """Monic gcd of univariate polynomials over the coefficient field."""
    a, b = a._pair(b)
    if not a.is_univariate() or not b.is_univariate():
        raise ArityError("gcd requires univariate polynomials")
    u0, u1 = a, b
    while not u1.is_zero():
        _, r = divmod_poly(u0, u1)
        u0, u1 = u1, r
    return monic(u0)


def monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return p * p.clone_const(p.leading_coeff().inverse())


@dataclass(frozen=True)
class MultiplicityFactor:
    """A squarefree factor with its multiplicity in the decomposition."""
    factor: Poly
    multiplicity: int


def squarefree_decomposition(p: Poly) -> list[MultiplicityFactor]:
    """Yun decomposition of a nonzero univariate polynomial (char 0).

    Returns monic pairwise-coprime separable factors with ascending
    multiplicities; the product of factor^multiplicity reconstructs p up
    to its leading coefficient.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero")
    p0 = monic(p)
    if p0.total_degree() == 0:
        return []
    dp = p0.derivative()
    g = gcd_univariate(p0, dp)
    if g.total_degree() == 0:
        return [MultiplicityFactor(p0, 1)]
    out = []
    w = exact_div(p0, g)
    y = exact_div(dp, g)
    z = y - w.derivative()
    i = 1
    while w.total_degree() > 0:
        h = gcd_univariate(w, z)
        if h.total_degree() > 0:
            out.append(MultiplicityFactor(h, i))
        w = exact_div(w, h)
        y = exact_div(z, h)
        z = y - w.derivative()
        i += 1
    return out


def is_separable(p: Poly) -> bool:
    """gcd(p, p') is constant."""
    return gcd_univariate(p, p.derivative()).total_degree() == 0


def multiplicity_profile(phi: Poly, c) -> tuple[int, ...]:
    """Non-increasing root multiplicities of phi - c in an algebraic closure.

    Each multiplicity-m squarefree factor of degree e contributes m repeated
    e times; the sum equals deg(phi).
    """
    if phi.is_zero() or phi.total_degree() < 1:
        raise ValueError("multiplicity profile needs deg(phi) >= 1")
    shifted = phi - Poly.constant(c, phi.field, phi.variables)
    parts: list[int] = []
    for mf in squarefree_decomposition(shifted):
        parts.extend([mf.multiplicity] * mf.factor.total_degree())
    return tuple(sorted(parts, reverse=True))
