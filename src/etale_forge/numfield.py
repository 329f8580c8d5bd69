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
FieldElement and Poly both call them, and NumberField.mul_norm bounds how
much mul can grow the l1 norm of the coordinates (see mul).

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
theta -> rho, for the first prime p of one fixed list at which m has a root
rho mod p (dense.degree_one_prime, cached per minimal polynomial).
polyalg.separable_mod_p proves separability with it.

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
from operator import add, mul, sub

from .dense import degree_one_prime, divide, rational_roots, trim

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


class NumberField:
    """Q[theta]/(m(theta)) for a monic polynomial m, presented by m."""

    def __init__(self, minpoly, gen: str = "theta"):
        coeffs = trim([_as_fraction(c) for c in minpoly])
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = tuple(coeffs)
        self.gen_name = gen
        # every degree-one field is Q (see the module docstring)
        self._key = () if self.degree == 1 else (self.minpoly, gen)
        self._tail, self.den = self._power_tail()
        # ||mul(a, b)||_1 <= mul_norm * ||a||_1 * ||b||_1 (see mul)
        self.mul_norm = max([self.den, *[sum(map(abs, row)) for row in self._tail]])
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
        """dense.degree_one_prime of m: theta -> rho is a ring map
        Z_(p)[theta] -> F_p.  In degree one every element is a rational
        number.  Cached per minimal polynomial."""
        return degree_one_prime(self.minpoly)

    def mul(self, a: Ints, b: Ints) -> Ints:
        """den times the product of two integer coordinate tuples: the one
        field multiply.

        It is bilinear over Z, so it multiplies tuples of any integers the
        same way, such as the values at t = 2^K that polyalg.kronecker_sum
        multiplies.  With p the product of a and b as polynomials in theta,
        entry i < n of the result is den*p_i + sum_j p_(n+j)*T_j[i] for the
        rows T_j of _power_tail, so in the l1 norm of the coordinates
        ||mul(a, b)||_1 <= max(den, ||T_j||_1) * ||p||_1 <= mul_norm *
        ||a||_1 * ||b||_1.  The bound is reached by a = theta^(n-1) and
        b = theta, whose product is T_0, when ||T_0||_1 is the largest."""
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


def power(base, n: int, times=mul):
    """base**n for n >= 1 by left-to-right square-and-multiply, with times
    as the product (polyalg raises coordinate tuples with NumberField.mul).

    Makes exactly n.bit_length() + n.bit_count() - 2 multiplies and returns
    base itself for n = 1, which is safe because neither FieldElement nor
    Poly is ever mutated.  FieldElement.__pow__ uses it outside degree one
    (where it takes int powers), and Poly.__pow__ for a base of two or more
    terms; a one-term Poly raises its coefficient with FieldElement.__pow__.
    """
    result = base
    for bit in bin(n)[3:]:
        result = times(result, result)
        if bit == "1":
            result = times(result, base)
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
    # Phi_k = (x^k - 1) / prod(Phi_d : d | k, d < k), by exact long
    # division over Z: every Phi_d is monic with integer coefficients
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num, rem = divide(num, _cyclotomic_coeffs(d))
            assert not rem
    return tuple(num)


def cyclotomic_field(k: int) -> NumberField:
    """Q[zeta]/(Phi_k) with Phi_k the k-th cyclotomic polynomial."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return NumberField(list(_cyclotomic_coeffs(k)), gen="zeta")
