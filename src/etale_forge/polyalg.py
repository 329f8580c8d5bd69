"""Uni- and multivariate polynomial arithmetic over an exact coefficient field.

A Poly is a term map {exponent vector: integer numerator tuple} over one
positive common denominator `den`, an ordered tuple of variable names and
one coefficient field shared by all terms.  The coefficient of a term is
its numerator tuple divided by den, read as coordinates in the field's power
basis 1, theta, ..., theta^(deg - 1): the format of a FieldElement, which
holds one such tuple over its own denominator, so the two pass
(numerators, denominator) pairs to each other unchanged.  The ring
operations run on Python ints: they add numerators coordinatewise after
bringing two denominators to their lcm, and multiply and invert them with
NumberField.mul and NumberField.inv, so neither a Fraction nor a
FieldElement is built per term.  The constructor divides out gcd(den, all
numerators), one gcd pass per operation, so the representation is
canonical: den is coprime to the numerators, den is 1 for the zero Poly,
and zero terms are never stored.  FieldElement is the type at the
boundary: the coefficient queries, evaluate and Poly.constant take or
return FieldElements.  Operands over two fields, and a Poly times an int,
Fraction or FieldElement, meet in the field that numfield.common_field
gives.

Every walk of a polynomial in one variable as a coefficient list is in the
dense module; _dense and _poly convert a Poly to a list of its integer
numerators (ints over a degree-one field, coordinate tuples otherwise)
without den, and back.  gcd_univariate is Euclid on those lists, since a
gcd ignores scalars: pseudo-remainders (dense.prem), each divided by the
gcd of its integer numerators (over QQ the primitive remainder sequence),
so every step is exact and stays in ints; the last nonzero remainder is
made monic with one field inverse.  Yun's squarefree_decomposition builds
on it.

separable_mod_p proves a product f of polynomials in one variable separable
without building f or running that Euclid.  With the field's degree-one
prime (p, rho) (NumberField.degree_one_prime), theta -> rho is a ring map
Z_(p)[theta] -> F_p with a maximal kernel P, and the integer coordinates of
the numerators lie in Z_(p)[theta].  The images of the factors are
multiplied in F_p, and f is proved separable when the image of lc(f) is
nonzero and gcd(f mod P, (f mod P)') = 1 in F_p[t].  Why that is exact: a
valuation ring O of the field dominates the localization at P (Chevalley).
Suppose f = h^2*q with h nonconstant.  By Gauss's lemma over O, h may be
taken primitive, and then lc(h) is a unit, because lc(f) is.  So h mod P
has positive degree, its square divides f mod P in the residue field of O,
and gcd(f mod P, (f mod P)') != 1 there and hence in F_p[t].  A scalar such
as den changes nothing.  Failure means "not proved", never "not separable":
a caller that needs the answer, or the repeated factor, then runs
gcd_univariate.  endo.etale_certificate calls it only when C1 or C2
fails: when both hold, a root count proves C3's separability (see there).

kronecker_sum computes a sum of terms c * prod(f**e), each f a polynomial in
one variable over the field, without building a product of polynomials:
Kronecker substitution (von zur Gathen and Gerhard, Modern Computer Algebra,
section 8.4).  Let N_f be the integer numerators of f, coordinate tuples of
its coefficients, E the sum of a term's exponents e, D_F = NumberField.den,
D the product of a term's f.den**e and D_F**(E-1), and M the product of all
the terms' D.  NumberField.mul multiplies coordinate tuples and scales each
product by D_F, so a term's E factors take E - 1 products, and the sum is
P / M for the polynomial P = sum of c * (M / D) * prod(N_f**e) with
integer coordinates, its products taken by NumberField.mul.  The bound:
write ||g||_1 for the sum of the absolute values of all coordinates of all
coefficients of g.  Coefficient k of g*h is the sum of mul(g_i, h_j) over
i + j = k, so ||g*h||_1 <= L * ||g||_1 * ||h||_1 with L =
NumberField.mul_norm (proved there; L = 1 over Q, and for theta^2 + 7 it
is 7, reached by theta*theta).  So every coordinate of P is at most
B = sum of |c| * (M / D) * L**(E-1) * prod(||N_f||_1**e) in absolute value.
kronecker_bits finds 2^K > B from bit lengths alone, as M / D is the product
of the other terms' D, a product has at most the summed bit lengths of its
factors (a factor of 1 adds none), and a sum of n terms adds at most the
bit length of n.  Then with K' = 8*width >= K + 1, each N_f is written at
t = 2^K' coordinate by coordinate, each coefficient into its own width bytes
(dense.at_power_of_two, linear in its size; K also exceeds every
||N_f||_1, so each coordinate fits).  mul is bilinear over Z, so
the same products and sums of these tuples of big integers give coordinate
i of P(2^K') as the sum of rho_(j,i) * 2^(j*K') over j, where rho_(j,i) is
coordinate i of coefficient j of P.  Since |rho_(j,i)| <= B < 2^(K'-1),
those are exactly the balanced base-2^K' digits of that integer
(dense.from_power_of_two): P = 0 iff every coordinate of the value is 0,
an exact answer from big-integer products, and otherwise P, and with it
the sum P / M, is read off the digits of the same value.  endo decides C1
this way on every field, and a failing C1's residual lhs - rhs is its
witness.

The monomial order is lexicographic in the variable order, so exponent
tuples compare directly.  Degrees in this project stay small (a few hundred
at most), so the representation favors clarity: dense exponent vectors,
sparse term maps.  Two operations read the shape of their operands instead.
A product of two Polys of two or more terms in one variable, such as the
products of the certificate in t, is dense.mul of their lists; other
products add exponent tuples, so a one-term factor costs one pass over the
other's terms.  A power of one term c*m is c**n * m**n, computed without a
Poly product (substitute raises variables this way); a base of two or more
terms goes through numfield.power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import gcd, lcm, prod
from operator import add, neg, sub

from .dense import (at_power_of_two, derivative, from_power_of_two, gcd_mod_p, mul,
                    mul_mod_p, prem, value)
from .numfield import (QQ, FieldElement, FieldMismatch, Ints, NumberField,
                       common_field, power)


class ArityError(ValueError):
    """An operation required a univariate polynomial."""


class NotDivisible(ArithmeticError):
    """Exact division failed; carries the nonzero remainder as diagnostic."""

    def __init__(self, remainder: "Poly"):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder


class Poly:
    """Multivariate polynomial with exact field coefficients.

    `terms` maps each exponent vector to the nonzero integer numerators of
    its coefficient's coordinates, all over the common denominator `den`
    (see the module docstring).  The constructor takes any positive den and
    normalizes it against the numerators.
    """

    __slots__ = ("field", "variables", "terms", "den")

    def __init__(self, field: NumberField, variables: tuple[str, ...],
                 terms: dict[tuple[int, ...], Ints], den: int = 1):
        if den != 1:
            g = den
            for c in terms.values():
                g = gcd(g, *c)
                if g == 1:
                    break
            if g != 1:
                den //= g
                terms = {k: tuple([x // g for x in c]) for k, c in terms.items()}
        self.field = field
        self.variables = variables
        self.terms = terms
        self.den = den

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
        return Poly(c.field, tuple(variables), {(0,) * len(variables): c.nums}, c.den)

    @staticmethod
    def variable(name: str, field: NumberField = QQ,
                 variables: tuple[str, ...] | None = None) -> "Poly":
        vs = (name,) if variables is None else tuple(variables)
        if name not in vs:
            raise ValueError(f"{name} not among variables {vs}")
        exps = tuple([1 if v == name else 0 for v in vs])
        return Poly(field, vs, {exps: (1,) + (0,) * (field.degree - 1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _coeff(self, nums: Ints) -> FieldElement:
        return FieldElement(self.field, nums, self.den)

    def constant_coeff(self) -> FieldElement:
        c = self.terms.get((0,) * len(self.variables))
        return self.field.zero() if c is None else self._coeff(c)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

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
        return tuple([v for v in self.variables if v in used])

    def leading_monomial(self) -> tuple[int, ...]:
        return max(self.terms)

    def leading_coeff(self) -> FieldElement:
        if not self.terms:
            return self.field.zero()
        return self._coeff(self.terms[max(self.terms)])

    def univariate_coeffs(self) -> list[FieldElement]:
        """Dense coefficient list (constant first) of a univariate Poly."""
        if not self.is_univariate():
            raise ArityError(f"{self} is not univariate")
        return [self._coeff(c if isinstance(c, tuple) else (c,)) for c in _dense(self)]

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
        return Poly(self.field, variables, terms, self.den)

    def drop_unused(self) -> "Poly":
        """Project away variables that appear in no term."""
        used = self.support_variables()
        if used == self.variables:
            return self
        idx = [self.variables.index(v) for v in used]
        terms = {tuple([k[i] for i in idx]): c for k, c in self.terms.items()}
        return Poly(self.field, used, terms, self.den)

    def with_field(self, field: NumberField) -> "Poly":
        """The same polynomial over field; FieldMismatch for a nonzero Poly
        unless common_field(field, self.field) is field."""
        if field == self.field:
            return self
        if self.terms and common_field(field, self.field) != field:
            raise FieldMismatch(
                f"cannot mix elements of {self.field.minpoly_str()} "
                f"and {field.minpoly_str()}")
        pad = (0,) * (field.degree - 1)
        return Poly(field, self.variables,
                    {k: c + pad for k, c in self.terms.items()}, self.den)

    def _pair(self, other) -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field, self.variables)
        if other.field == self.field:
            a, b = self, other
        else:
            field = common_field(self.field, other.field)
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
        den = a.den if a.den == b.den else lcm(a.den, b.den)
        terms = _scaled(a.terms, den // a.den)
        for k, c in (b.terms if den == b.den else _scaled(b.terms, den // b.den)).items():
            s = terms.get(k)
            s = c if s is None else tuple([*map(add, s, c)])
            if any(s):
                terms[k] = s
            else:
                del terms[k]
        return Poly(a.field, a.variables, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, self.variables,
                    {k: tuple([*map(neg, c)]) for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        field = a.field
        den = a.den * b.den * field.den
        rational, times = field.degree == 1, field.mul
        if len(a.terms) == 1:
            a, b = b, a
        if len(b.terms) == 1:
            # one term c*m: one product per term of a, nothing to accumulate
            ((m, c),) = b.terms.items()
            if rational:
                terms = {tuple([*map(add, k, m)]): (x * c[0],) for k, (x,) in a.terms.items()}
            else:
                terms = {tuple([*map(add, k, m)]): x for k, y in a.terms.items()
                         if any(x := times(y, c))}
            return Poly(field, a.variables, terms, den)
        if len(a.variables) == 1:
            return _poly(field, a.variables, mul(_dense(a), _dense(b), None if rational else times),
                         den)
        acc: dict = {}
        get = acc.get
        if rational:
            # NumberField.mul in degree one, inlined: one int per term
            bt = [(k2, y) for k2, (y,) in b.terms.items()]
            for k1, (x,) in a.terms.items():
                for k2, y in bt:
                    k = tuple([*map(add, k1, k2)])
                    acc[k] = get(k, 0) + x * y
            return Poly(field, a.variables, {k: (c,) for k, c in acc.items() if c}, den)
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                k = tuple([*map(add, k1, k2)])
                c = times(c1, c2)
                s = get(k)
                acc[k] = c if s is None else tuple([*map(add, s, c)])
        return Poly(field, a.variables, {k: c for k, c in acc.items() if any(c)}, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for n >= 0: the constant 1 for n = 0; for one term c*m,
        the one term c**n * m**n in closed form, with no Poly product (int
        pow over a degree-one field, numfield.power on the FieldElement
        otherwise); else numfield.power."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.constant(1, self.field, self.variables)
        if len(self.terms) == 1:
            ((k, c),) = self.terms.items()
            x = self._coeff(c) ** n
            return Poly(self.field, self.variables,
                        {tuple([n * e for e in k]): x.nums}, x.den)
        return power(self, n)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field, self.variables)
        try:
            a, b = self._pair(other)
        except FieldMismatch:
            return False
        return a.den == b.den and a.terms == b.terms

    def __hash__(self):
        used = sorted(self.support_variables())
        idx = [self.variables.index(v) for v in used]
        items = sorted((tuple([k[i] for i in idx]), c)
                       for k, c in self.terms.items())
        return hash((self.field, tuple(used), tuple(items), self.den))

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
            terms[tuple(nk)] = tuple([k[i] * x for x in c])
        return Poly(self.field, self.variables, terms, self.den)

    def evaluate(self, values: dict[str, FieldElement]) -> FieldElement:
        """Full evaluation; every supported variable must get a value.

        Runs on integer numerators: the powers of each value are kept as
        (numerators, denominator) pairs, each computed once, and the terms
        are summed over the lcm of their denominators."""
        field = common_field(self.field, *(x.field for x in values.values()
                                           if isinstance(x, FieldElement)))
        p = self.with_field(field)
        values = {v: field.elem(x) for v, x in values.items()}
        one = ((1,) + (0,) * (field.degree - 1), 1)
        powers = []
        for v in p.variables:
            x = values.get(v)
            if x is None and p.degree_in(v) > 0:
                raise ValueError(f"no value for variable {v}")
            powers.append([one] if x is None else [one, (x.nums, x.den)])
        mul, fd = field.mul, field.den
        num, den = (0,) * field.degree, 1
        for k, c in p.terms.items():
            t, td = c, 1
            for e, pw in zip(k, powers):
                if e:
                    while len(pw) <= e:
                        (n, d), (xn, xd) = pw[-1], pw[1]
                        pw.append((mul(n, xn), d * xd * fd))
                    t, td = mul(t, pw[e][0]), td * pw[e][1] * fd
            m = lcm(den, td)
            num = tuple([a * (m // den) + b * (m // td) for a, b in zip(num, t)])
            den = m
        return FieldElement(field, num, den * p.den)

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace variables by polynomials (unmentioned ones stay).

        Each term starts from its integer numerators; the common denominator
        divides the sum once at the end."""
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
        if out is None:
            return Poly.zero(self.field, ())
        return Poly(out.field, out.variables, out.terms, out.den * self.den)


def _scaled(terms: dict[tuple[int, ...], Ints], m: int) -> dict[tuple[int, ...], Ints]:
    """A copy of a term map with every numerator multiplied by m."""
    if m == 1:
        return dict(terms)
    return {k: tuple([m * x for x in c]) for k, c in terms.items()}


# -- convenience constructors ------------------------------------------------


def variables(names: str, field: NumberField = QQ) -> tuple[Poly, ...]:
    """Generators of a polynomial ring: variables("x,y,z") -> (x, y, z)."""
    vs = tuple([n.strip() for n in names.split(",")])
    return tuple([Poly.variable(v, field, vs) for v in vs])


def compose(outer: Poly, inner: Poly) -> Poly:
    """Exact substitution outer(inner) for univariate outer (Horner)."""
    if not outer.is_univariate():
        raise ArityError(f"{outer} is not univariate")
    coeffs = outer.univariate_coeffs()
    field = common_field(outer.field, inner.field)
    inner = inner.with_field(field)
    acc = Poly.zero(field, inner.variables)
    for c in reversed(coeffs):
        acc = acc * inner + c
    return acc


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Multivariate division by a single divisor in lex order.

    Returns (q, r) with a = q*b + r and no monomial of r divisible by the
    leading monomial of b.  For a single divisor this remainder is canonical
    ({b} is a Groebner basis of the principal ideal (b)).

    The leading coefficient of b is inverted once per call, and the
    dividend is reduced in one working map of integer numerators over a
    running denominator, which the quotient and remainder share: each step
    pops its leading term, records the quotient term and subtracts
    shift * (b - lt(b)) in place.  When b's leading coefficient or the
    field's reduction rows are not integral, a step first multiplies all
    three maps and the denominator by the factor that keeps the subtraction
    integral.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    a, b = a._pair(b)
    field = a.field
    mul = field.mul
    zero = (0,) * field.degree
    lm = b.leading_monomial()
    # 1/lc(b) = b.den * inv / inv_den.  With f = mul(c, inv), the quotient
    # term of a dividend term c / den is b.den * field.den * f / (den * step),
    # and its product with a tail term cb of b is mul(f, cb) / (den * step),
    # where step = inv_den * field.den^2
    inv, inv_den = field.inv(b.terms[lm])
    step = inv_den * field.den * field.den
    unit = step == 1 and inv == (1,) + zero[1:]
    q_factor = b.den * field.den
    tail = [(k, c) for k, c in b.terms.items() if k != lm]
    p = dict(a.terms)
    den = a.den
    q: dict[tuple[int, ...], Ints] = {}
    r: dict[tuple[int, ...], Ints] = {}
    while p:
        k = max(p)
        c = p.pop(k)
        if all(x >= y for x, y in zip(k, lm)):
            shift = tuple([*map(sub, k, lm)])
            f = c if unit else mul(c, inv)
            if step != 1:
                p, q, r = _scaled(p, step), _scaled(q, step), _scaled(r, step)
                den *= step
            q[shift] = f if q_factor == 1 else tuple([q_factor * x for x in f])
            for kb, cb in tail:
                m = tuple([*map(add, shift, kb)])
                s = tuple([*map(sub, p.get(m, zero), mul(f, cb))])
                if any(s):
                    p[m] = s
                else:
                    p.pop(m, None)
        else:
            r[k] = c
    return Poly(field, a.variables, q, den), Poly(field, a.variables, r, den)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b; raises NotDivisible with the remainder otherwise."""
    q, r = divmod_poly(a, b)
    if not r.is_zero():
        raise NotDivisible(r)
    return q


def gcd_univariate(a: Poly, b: Poly) -> Poly:
    """Monic gcd of univariate polynomials over the coefficient field.

    The result has the variables and field of a._pair(b): the zero Poly
    when both operands are zero, and the constant 1 when the gcd has degree
    0.  Euclid runs on pseudo-remainders of dense numerator lists (see
    _dense and dense.prem); only a gcd of positive degree needs a field
    inverse, to make it monic.
    """
    a, b = a._pair(b)
    used = set(a.support_variables()).union(b.support_variables())
    if len(used) > 1:
        raise ArityError("gcd requires univariate polynomials in one variable")
    field = a.field
    times = None if field.degree == 1 else field.mul
    f, g = _dense(a), _dense(b)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, prem(f, g, times)
    if not f:
        return a
    if len(f) == 1:
        return Poly.constant(1, field, a.variables)
    inv, inv_den = field.inv(f[-1] if times else (f[-1],))
    f = [times(c, inv) for c in f] if times else [c * inv[0] for c in f]
    return _poly(field, (used.pop(),), f, inv_den * field.den).with_variables(a.variables)


def _dense(p: Poly) -> list:
    """The coefficient numerators of a Poly in at most one variable as a
    list (see the dense module), without p.den: ints over a degree-one
    field, integer coordinate tuples otherwise."""
    terms = p.terms if len(p.variables) == 1 else {(sum(k),): c for k, c in p.terms.items()}
    size = max(terms, default=(-1,))[0] + 1
    if p.field.degree == 1:
        out = [0] * size
        for (e,), (c,) in terms.items():
            out[e] = c
        return out
    out = [(0,) * p.field.degree] * size
    for (e,), c in terms.items():
        out[e] = c
    return out


def _poly(field: NumberField, variables: tuple[str, ...], c: list, den: int = 1) -> Poly:
    """The Poly in the one variable of variables whose numerators over den
    are the list c, as _dense makes it."""
    if field.degree == 1:
        return Poly(field, variables, {(e,): (x,) for e, x in enumerate(c) if x}, den)
    return Poly(field, variables, {(e,): x for e, x in enumerate(c) if any(x)}, den)


def separable_mod_p(factors: list[Poly]) -> bool:
    """True when the product f of the given polynomials, all in the same
    one variable, is proved separable by its image modulo the degree-one
    prime of their common field; False means only "not proved" (see the
    module docstring for the proof).  The images of the factors' numerators
    under theta -> rho are multiplied in F_p, so f itself is never built;
    every factor must keep its degree there (a zero factor is never
    proved)."""
    field = common_field(*[f.field for f in factors])
    variables = factors[0].variables
    if len(variables) != 1 or any(f.variables != variables for f in factors):
        raise ArityError("separable_mod_p requires polynomials in one same variable")
    prime = field.degree_one_prime()
    if prime is None:
        return False
    p, rho = prime
    prod = [1]
    for f in factors:
        image = ([c % p for c in _dense(f)] if f.field.degree == 1
                 else [value(c, rho) % p for c in _dense(f)])
        if not image or not image[-1]:
            return False
        prod = mul_mod_p(prod, image, p)
    return gcd_mod_p(prod, derivative(prod, p), p) == [1]


def kronecker_sum(terms: list[tuple[int, list[tuple[Poly, int]]]],
                  bits: int | None = None) -> Poly:
    """The sum of c * prod(f**e) over the terms (c, [(f, e), ...]), for
    polynomials in one same variable over one field, from one exact
    evaluation at t = 2^K (see the module docstring): no product of
    polynomials is built, and a nonzero sum is read off the balanced digits
    of the value.  bits is kronecker_bits(terms), when the caller has it."""
    field, steps = _kronecker_shape(terms)
    variables = next((f.variables for _, factors in terms for f, _ in factors), ())
    n, times = field.degree, field.mul
    # 8*width >= K + 1: every coordinate of P is below 2^(8*width - 1)
    width = (kronecker_bits(terms) if bits is None else bits) // 8 + 1
    at = {}
    for _, factors in terms:
        for f, e in factors:
            if e and id(f) not in at:
                nums = _dense(f.with_field(field))
                at[id(f)] = (at_power_of_two(nums, width),) if n == 1 else tuple(
                    [at_power_of_two(col, width) for col in (zip(*nums) if nums else [()] * n)])
    dens = [prod([f.den ** e for f, e in factors]) * field.den ** s
            for (_, factors), s in zip(terms, steps)]
    m = prod(dens)
    total = (0,) * n
    for (c, factors), den in zip(terms, dens):
        powers = [power(at[id(f)], e, times) for f, e in factors if e]
        v = reduce(times, powers) if powers else (1,) + (0,) * (n - 1)
        total = tuple([*map(add, total, [c * (m // den) * x for x in v])])
    if not any(total):
        return Poly(field, variables, {})
    if n == 1:
        coeffs = from_power_of_two(total[0], width)
    else:
        digits = [from_power_of_two(x, width) for x in total]
        coeffs = [tuple([d[j] if j < len(d) else 0 for d in digits])
                  for j in range(max(map(len, digits)))]
    if not variables:   # no factor: the sum is a constant
        return Poly.constant(FieldElement(field, (coeffs[0],) if n == 1 else coeffs[0], m))
    return _poly(field, variables, coeffs, m)


def _kronecker_shape(terms: list[tuple[int, list[tuple[Poly, int]]]]
                     ) -> tuple[NumberField, list[int]]:
    """The common field of the factors (QQ when there is none), and the
    number of field products of each term: E - 1 for E factors counted with
    their exponents, 0 for none."""
    fields = [f.field for _, factors in terms for f, _ in factors]
    steps = [max(sum([e for _, e in factors]) - 1, 0) for _, factors in terms]
    return (common_field(*fields) if fields else QQ), steps


def kronecker_bits(terms: list[tuple[int, list[tuple[Poly, int]]]]) -> int:
    """A K with 2^K above every coefficient coordinate of the integer
    polynomial P of kronecker_sum and of every N_f, from bit lengths alone
    (see the module docstring)."""
    field, steps = _kronecker_shape(terms)
    # a factor of 1 adds no bits
    growth, fden = ((x.bit_length() if x > 1 else 0) for x in (field.mul_norm, field.den))
    norm_bits, den_bits, own_bits = {}, [], []
    for (c, factors), s in zip(terms, steps):
        dbits, nbits = s * fden, abs(c).bit_length() + s * growth
        for f, e in factors:
            b = norm_bits.get(id(f))
            if b is None:
                b = norm_bits[id(f)] = sum(map(abs, chain.from_iterable(f.terms.values()))
                                           ).bit_length()
            dbits += e * f.den.bit_length()
            nbits += e * b
        den_bits.append(dbits)
        own_bits.append(nbits)
    # M / D is the product of the other terms' D
    total = sum(den_bits)
    term_bits = [b + total - d for b, d in zip(own_bits, den_bits)]
    return max([len(terms).bit_length() + max(term_bits, default=0), *norm_bits.values()])


def monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return p * p.leading_coeff().inverse()


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


def multiplicity_profile(phi: Poly, c) -> tuple[int, ...]:
    """Non-increasing root multiplicities of phi - c in an algebraic closure.

    Each multiplicity-m squarefree factor of degree e contributes m repeated
    e times; the sum equals deg(phi).
    """
    if phi.is_zero() or phi.total_degree() < 1:
        raise ValueError("multiplicity profile needs deg(phi) >= 1")
    parts: list[int] = []
    for mf in squarefree_decomposition(phi - c):
        parts.extend([mf.multiplicity] * mf.factor.total_degree())
    return tuple(sorted(parts, reverse=True))
