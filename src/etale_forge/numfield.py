"""Exact arithmetic in Q and in simple number fields Q[theta]/(m(theta)).

A field is presented by a monic minimal polynomial m over Q, stored densely
as a tuple of Fractions, constant term first.  An element is a residue
class, stored as its unique coordinate vector in the power basis 1, theta,
..., theta^(deg m - 1) in the format of a Poly term: integer numerators
`nums` over one positive denominator `den`, divided by their gcd so that the
pair is canonical.  FieldElement.coords is a read-only view of the same
vector as Fractions.  NumberField.mul and NumberField.inv are the one
implementation of multiplication and inversion, on integer tuples:
mul(a, b) is the product times NumberField.den, the common denominator of
the reduction rows theta^n, ..., theta^(2n-2) (so 1 for every monic
integral m), and inv(a) returns the inverse as (numerators, denominator).
FieldElement and Poly both call them.

The rationals are the degree-one field QQ = Q[theta]/(theta).  Every
degree-one presentation is Q as well: its elements are stored by their
rational values, so all degree-one fields compare and hash equal.
NumberField.elem is the one coercion into a field: ints and Fractions
become constants, and an element of another field is taken over when
common_field allows it.  common_field is the one rule for combining fields,
used by every FieldElement and Poly operation: a degree-one field yields to
an extension, and two distinct extensions raise FieldMismatch (no automatic
compositum).  polyparse reads and writes the text form of a field
(field_from_string, field_name).

NumberField.degree_one_prime gives a ring map Z_(p)[theta] -> F_p,
theta -> rho, for the first prime p of one fixed list (the odd primes
below 2^15, largest first) at which m has a root rho mod p.  The roots
come from gcd(x^(p-1) - 1, m) and deterministic equal-degree splitting,
on dense residue lists (mul_mod_p, gcd_mod_p), and the result is cached
per minimal polynomial.  polyalg.separable_mod_p proves separability with
it.

The constructor verifies irreducibility of a minimal polynomial up to
degree 4 (rational-root and cubic-resolvent tests); above that it is taken
on trust, and an inverse that meets a zero divisor raises
ReduciblePolynomial.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

Ints = tuple[int, ...]


class FieldMismatch(ValueError):
    """Two elements of distinct field presentations were combined."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of a field."""


class ReduciblePolynomial(ValueError):
    """A minimal polynomial is reducible: it failed the irreducibility test
    (degree <= 4), or an inverse met a zero divisor (any degree)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


# -- dense univariate helpers over Q (constant term first) ------------------

def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _value(c: list[int], x: int) -> int:
    acc = 0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _root_cells(c: list[int]) -> set[int]:
    """Integers k such that every real root of the integer polynomial c
    (constant term first) lies in some [k, k + 1].  Between the cells of
    its turning points, found by the same routine on the derivative, c is
    monotone, and integer bisection finds the cell of its one root there; a
    cell that holds a turning point may hold two roots and is kept whole."""
    if len(c) <= 1:
        return set()
    turning = _root_cells([i * a for i, a in enumerate(c)][1:])
    bound = 2 + max(abs(a) for a in c[:-1]) // abs(c[-1])   # Cauchy's bound
    cells = set(turning)
    ends = sorted({-bound, bound} | turning | {k + 1 for k in turning})
    for lo, hi in zip(ends, ends[1:]):
        vlo = _value(c, lo)
        if vlo * _value(c, hi) > 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _value(c, mid) * vlo > 0:
                lo = mid
            else:
                hi = mid
        cells.add(lo)
    return cells


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots, ascending, of the polynomial with the given
    Q-coefficients (constant term first)."""
    c = _trim(list(coeffs))
    if len(c) <= 1:
        return []
    den = math.lcm(*[f.denominator for f in c])
    a = [int(f * den) for f in c]
    g = math.gcd(*a)
    a = [x // g for x in a]
    # y = lead * x: the rational roots become the integer roots of a monic
    # integer polynomial
    n, lead = len(a) - 1, a[-1]
    monic = [a[i] * lead ** (n - 1 - i) for i in range(n)] + [1]
    ys = {k + e for k in _root_cells(monic) for e in (0, 1)}
    return sorted(Fraction(y, lead) for y in ys if _value(monic, y) == 0)


def _is_square_fraction(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _sqrt_fraction(x: Fraction) -> Fraction:
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def _is_irreducible_upto_deg4(c: list[Fraction]) -> bool:
    """Irreducibility over Q of a monic polynomial of degree 1..4."""
    deg = len(c) - 1
    if deg == 1:
        return True
    if c[0] == 0:
        return False
    if rational_roots(c):
        return False
    if deg <= 3:
        return True
    # monic quartic without rational roots: exclude two rational quadratics.
    # Depress x -> y - p/4, then y^4 + P y^2 + Q y + R splits as
    # (y^2+uy+v)(y^2-uy+w) over Q iff the resolvent U^3+2P U^2+(P^2-4R)U-Q^2
    # has a rational root which is the square of a rational (u != 0), or
    # Q = 0 and a biquadratic split exists.
    p, q, r, s = c[3], c[2], c[1], c[0]
    P = q - 3 * p * p / 8
    Q = r - p * q / 2 + p ** 3 / 8
    R = s - p * r / 4 + p * p * q / 16 - 3 * p ** 4 / 256
    if Q == 0:
        if _is_square_fraction(P * P - 4 * R):
            return False
        if _is_square_fraction(R):
            b = _sqrt_fraction(R)
            if _is_square_fraction(2 * b - P) or _is_square_fraction(-2 * b - P):
                return False
        return True
    resolvent = [-Q * Q, P * P - 4 * R, 2 * P, Fraction(1)]
    for u2 in rational_roots(resolvent):
        if u2 > 0 and _is_square_fraction(u2):
            return False
    return True


# -- dense univariate helpers over F_p (residues, constant term first) -------
#
# The primes stay below 2^15, so the product of two residues fits in one
# 30-bit digit of a CPython int; lists are trimmed (no zero top entry).


@lru_cache(maxsize=None)
def small_primes() -> tuple[int, ...]:
    """The odd primes below 2^15, largest first: the fixed list from which
    degree_one_prime takes its prime.  Sieved on first use."""
    half = 1 << 14
    odd = bytearray([1]) * half          # odd[i] stands for 2i + 1
    odd[0] = 0
    for i in range(1, 91):               # 2*90 + 1 = 181 = isqrt(2^15)
        if odd[i]:
            q = 2 * i + 1
            odd[q * q // 2::q] = bytes(len(range(q * q // 2, half, q)))
    return tuple([2 * i + 1 for i in range(half - 1, 0, -1) if odd[i]])


def mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The product of two residue lists mod p."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    nb = len(b)
    prod = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            prod[i:i + nb] = [s + x * y for s, y in zip(prod[i:i + nb], b)]
    return [s % p for s in prod]


def _rem_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a by a nonzero b mod p, by long division."""
    nb = len(b) - 1
    if len(a) <= nb:
        return a
    inv = pow(b[-1], -1, p)
    r = list(a)
    for s in range(len(r) - 1 - nb, -1, -1):
        c = r[s + nb] * inv % p
        if c:
            r[s:s + nb] = [(x - c * y) % p for x, y in zip(r[s:s + nb], b)]
    del r[nb:]
    return _trim(r)


def gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of two residue lists in F_p[x] by Euclid ([] when both
    are zero).

    A quotient of degree one, the normal case, takes one pass: with
    q = q1*x + q0, remainder entry i is a_i - q1*b_(i-1) - q0*b_i (the
    entry at the degree of b is 0 by the choice of q0)."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        if len(a) == len(b) + 1:
            inv = pow(b[-1], -1, p)
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * b[-2]) * inv % p
            r = [(x - q1 * y - q0 * z) % p for x, y, z in zip(a, [0] + b, b)]
            r.pop()
            a, b = b, _trim(r)
        else:
            a, b = b, _rem_mod_p(a, b, p)
    if b:
        return [1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _powmod_p(a: int, e: int, m: list[int], p: int) -> list[int]:
    """(x + a)^e - 1 modulo a monic m of degree >= 2, mod p (e >= 1), by
    square-and-multiply; a multiply by x + a is a shift plus a multiple."""
    out = [a, 1]
    for bit in bin(e)[3:]:
        out = _rem_mod_p(mul_mod_p(out, out, p), m, p)
        if bit == "1":
            out = _rem_mod_p([(u + a * v) % p for u, v in zip([0] + out, out + [0])],
                             m, p)
    # out is never zero: x + a vanishes at no root of m (m(0) != 0 for a = 0)
    # or at no more than one of the distinct roots of a splitting g
    return _trim([(out[0] - 1) % p] + out[1:])


def _root_mod_p(g: list[int], p: int) -> int:
    """A root in F_p of a monic g that splits into distinct linear factors
    over F_p, by equal-degree splitting: gcd(g, (x + a)^((p-1)/2) - 1) for
    a = 0, 1, ... until one is a proper factor."""
    a = 0
    while len(g) > 2:
        h = gcd_mod_p(_powmod_p(a, (p - 1) // 2, g, p), g, p)
        if 1 < len(h) < len(g):
            g = h
        a += 1
    return -g[0] % p


@lru_cache(maxsize=256)
def _degree_one_prime(minpoly: tuple[Fraction, ...]) -> tuple[int, int] | None:
    primes = small_primes()
    if len(minpoly) == 2:
        return primes[0], 0
    for p in primes:
        if any(c.denominator % p == 0 for c in minpoly):
            continue
        m = [c.numerator * pow(c.denominator, -1, p) % p for c in minpoly]
        if not m[0]:
            return p, 0
        # the nonzero roots of m in F_p are those of gcd(x^(p-1) - 1, m)
        g = gcd_mod_p(_powmod_p(0, p - 1, m, p), m, p)
        if len(g) > 1:
            return p, _root_mod_p(g, p)
    return None


class NumberField:
    """Q[theta]/(m(theta)) for a monic polynomial m, presented by m."""

    def __init__(self, minpoly, gen: str = "theta"):
        coeffs = _trim([_as_fraction(c) for c in minpoly])
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = tuple(coeffs)
        self.gen_name = gen
        # every degree-one field is Q (see the module docstring)
        self._key = () if self.degree == 1 else (self.minpoly, gen)
        self._tail, self.den = self._power_tail()
        if self.degree <= 4 and not _is_irreducible_upto_deg4(list(coeffs)):
            raise ReduciblePolynomial(f"{self.minpoly_str()} is reducible over Q")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"NumberField({self.minpoly_str()!r})"

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree)

    def one(self) -> "FieldElement":
        return self.elem(1)

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            # theta is congruent to the root of the linear minpoly
            return self.elem(-self.minpoly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def elem(self, x) -> "FieldElement":
        """x as an element of self: an int or Fraction as a constant, a
        FieldElement taken over when common_field(self, x.field) is self,
        FieldMismatch otherwise."""
        if isinstance(x, FieldElement):
            if x.field == self:
                return x
            if common_field(self, x.field) != self:
                raise FieldMismatch(f"cannot mix elements of {x.field.minpoly_str()} "
                                    f"and {self.minpoly_str()}")
            return FieldElement(self, x.nums + (0,) * (self.degree - 1), x.den)
        q = x if isinstance(x, int) else _as_fraction(x)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def from_coords(self, coords) -> "FieldElement":
        cs = [_as_fraction(c) for c in coords]
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(cs)}")
        den = math.lcm(*[c.denominator for c in cs])
        return FieldElement(self, tuple([c.numerator * (den // c.denominator)
                                         for c in cs]), den)

    def _power_tail(self) -> tuple[list[Ints], int]:
        """Integer rows T_j and one denominator D with theta^(n+j) equal to
        T_j / D in the power basis, for j = 0..n-2."""
        n = self.degree
        if n == 1:
            return [], 1
        cur = [-c for c in self.minpoly[:n]]
        rows = [cur]
        for _ in range(n - 2):
            top = cur[-1]
            cur = [Fraction(0)] + cur[:-1]
            if top:
                cur = [a + top * b for a, b in zip(cur, rows[0])]
            rows.append(cur)
        den = math.lcm(*[c.denominator for row in rows for c in row])
        return [tuple([int(c * den) for c in row]) for row in rows], den

    def degree_one_prime(self) -> tuple[int, int] | None:
        """(p, rho) for the first p of small_primes() that divides no
        denominator of m and at which m has a root rho mod p, so that
        theta -> rho is a ring map Z_(p)[theta] -> F_p; (small_primes()[0],
        0) in degree one, where every element is a rational number.  None
        when no listed prime has a root.  Cached per minimal polynomial."""
        return _degree_one_prime(self.minpoly)

    def mul(self, a: Ints, b: Ints) -> Ints:
        """den times the product of two integer coordinate tuples: the one
        field multiply."""
        n = len(a)
        if n == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        den = self.den
        out = prod[:n] if den == 1 else [den * x for x in prod[:n]]
        for x, row in zip(prod[n:], self._tail):
            if x:
                for i in range(n):
                    out[i] += x * row[i]
        return tuple(out)

    def inv(self, a: Ints) -> tuple[Ints, int]:
        """Inverse of a nonzero integer coordinate tuple as (numerators,
        positive denominator): the solution x of a * x = 1, a linear system
        whose columns are a * theta^j (1/a[0] in degree one).

        One fraction-free (Bareiss) Gauss-Jordan elimination of [cols |
        e_0] solves it; every division by the
        previous pivot is exact.  The last pivot is the determinant, up to
        the sign of the row swaps, and the last column ends as that pivot
        times x.  A column without a pivot means a zero divisor."""
        if not any(a):
            raise DivisionByZero("inverse of zero")
        n = len(a)
        if n == 1:
            return ((1,), a[0]) if a[0] > 0 else ((-1,), -a[0])
        # column j is den^j * a * theta^j: theta times a column is its shift
        # plus its top entry times theta^n = T_0 / den, so the columns cost
        # O(n^2); the solution y of these columns has x_j = den^j * y_j
        den, row0 = self.den, self._tail[0]
        cols = [a]
        for _ in range(n - 1):
            col = cols[-1]
            top = col[-1]
            nxt = [0] + [den * x for x in col[:-1]]
            if top:
                nxt = [x + top * y for x, y in zip(nxt, row0)]
            cols.append(nxt)
        m = [[col[i] for col in cols] + [1 if i == 0 else 0] for i in range(n)]
        prev = 1
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                raise ReduciblePolynomial(
                    f"{self.minpoly_str()} is reducible: "
                    f"{FieldElement(self, a)} is a zero divisor")
            m[k], m[pivot] = m[pivot], m[k]
            row = m[k]
            for other in m:
                if other is not row:
                    c = other[k]
                    for j in range(k + 1, n + 1):
                        other[j] = (row[k] * other[j] - c * row[j]) // prev
            prev = row[k]
        det, nums = prev, [r[n] for r in m]
        if den != 1:
            nums = [x * den ** j for j, x in enumerate(nums)]
        if det < 0:
            det, nums = -det, [-x for x in nums]
        g = math.gcd(det, *nums)
        return tuple([x // g for x in nums]), det // g

    def minpoly_str(self) -> str:
        return format_terms(reversed(power_terms(self.minpoly, self.gen_name)))


def common_field(*fields: NumberField) -> NumberField:
    """The field in which elements of the given fields combine: the one
    extension among them, else fields[0], which is then Q (see the module
    docstring); FieldMismatch for two distinct extensions."""
    out = fields[0]
    for f in fields[1:]:
        if f == out or f.degree == 1:
            continue
        if out.degree != 1:
            raise FieldMismatch(
                f"cannot mix elements of {out.minpoly_str()} and {f.minpoly_str()}")
        out = f
    return out


def power_terms(coeffs, name: str) -> list[tuple[str, Fraction]]:
    """(name^e, coefficient) pairs of a constant-first coefficient list."""
    return [("" if e == 0 else name if e == 1 else f"{name}^{e}", c)
            for e, c in enumerate(coeffs)]


def format_terms(terms) -> str:
    """Join (monomial text, rational coefficient) pairs in the given order.

    Zero terms are skipped, a unit magnitude is dropped before a monomial,
    and each sign goes into the separator; nothing left prints as "0".
    """
    parts = []
    for mono, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if parts:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return "".join(parts) if parts else "0"


def power(base, n: int):
    """base**n for n >= 1 by left-to-right square-and-multiply.

    Makes exactly n.bit_length() + n.bit_count() - 2 multiplies and returns
    base itself for n = 1, which is safe because neither FieldElement nor
    Poly is ever mutated.  FieldElement.__pow__ uses it outside degree one
    (where it takes int powers), and Poly.__pow__ for a base of two or more
    terms; a one-term Poly raises its coefficient with FieldElement.__pow__.
    """
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class FieldElement:
    """An element of a NumberField: integer numerators over a positive
    denominator, coprime as a whole (see the module docstring)."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums: Ints, den: int = 1):
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple([x // g for x in nums])
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, for printing, JSON and tests."""
        return tuple([Fraction(x, self.den) for x in self.nums])

    # -- coercion ------------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if not isinstance(other, FieldElement):
            return self, self.field.elem(other)
        if other.field == self.field:
            return self, other
        field = common_field(self.field, other.field)
        return field.elem(self), field.elem(other)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _operand_ok(other) -> bool:
        return isinstance(other, (FieldElement, int, Fraction, str))

    def _combine(self, other, op):
        """op (add or sub) of self and other, coordinatewise over the lcm
        of the two denominators."""
        if not self._operand_ok(other):
            return NotImplemented
        a, b = self._pair(other)
        den = math.lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        return FieldElement(a.field, tuple([op(x * ma, y * mb)
                                            for x, y in zip(a.nums, b.nums)]), den)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not self._operand_ok(other):
            return NotImplemented
        a, b = self._pair(other)
        field = a.field
        return FieldElement(field, field.mul(a.nums, b.nums), a.den * b.den * field.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        inv, inv_den = self.field.inv(self.nums)
        return FieldElement(self.field, tuple([self.den * x for x in inv]), inv_den)

    def __truediv__(self, other):
        if not self._operand_ok(other):
            return NotImplemented
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.field.elem(other) / self

    def __pow__(self, n: int):
        """self**n; a negative n inverts first.  See power() for the cost."""
        if n < 0:
            return self.inverse() ** (-n)
        if len(self.nums) == 1:
            return FieldElement(self.field, (self.nums[0] ** n,), self.den ** n)
        if n == 0:
            return self.field.one()
        return power(self, n)

    # -- comparison, hashing, display -----------------------------------

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except (FieldMismatch, TypeError):
            return NotImplemented
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def __str__(self):
        if self.is_rational():
            return str(self.as_fraction())
        return format_terms(reversed(power_terms(self.coords, self.field.gen_name)))

    def __repr__(self):
        return f"FieldElement({self})"


QQ = NumberField([0, 1], gen="theta")


def rationals(values, what: str) -> list[Fraction]:
    """A JSON list of numbers or numeric strings as Fractions; anything else
    raises ValueError naming what."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of rationals, "
                         f"got {type(values).__name__}")
    try:
        if all(isinstance(v, (int, float, str)) and not isinstance(v, bool)
               for v in values):
            return [Fraction(str(v)) for v in values]
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{what} must be a list of rationals, "
                     f"got {reprlib.repr(values)}")


def json_fields(data, fields: dict[str, type], what: str) -> dict:
    """data, checked to be a JSON object holding each named field with the
    given type (a bool is not an int); anything else raises ValueError
    naming what and the field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    for name, kind in fields.items():
        if name not in data:
            raise ValueError(f"{what} lacks {name!r}")
        if not isinstance(data[name], kind) or isinstance(data[name], bool):
            raise ValueError(f"{what} field {name!r} must be {kind.__name__}, "
                             f"got {type(data[name]).__name__}")
    return data


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(k: int) -> tuple[int, ...]:
    # Phi_k = (x^k - 1) / prod(Phi_d : d | k, d < k), by exact synthetic
    # division over Z: every Phi_d is monic with integer coefficients
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            div = _cyclotomic_coeffs(d)
            e = len(div) - 1
            # in place: the quotient ends in num[e:], the remainder in num[:e]
            for s in range(len(num) - 1, e - 1, -1):
                for i in range(e):
                    num[s - e + i] -= num[s] * div[i]
            assert not any(num[:e])
            num = num[e:]
    return tuple(num)


def cyclotomic_field(k: int) -> NumberField:
    """Q[zeta]/(Phi_k) with Phi_k the k-th cyclotomic polynomial."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return NumberField(list(_cyclotomic_coeffs(k)), gen="zeta")
