"""Exact arithmetic in Q and in simple number fields Q[theta]/(m(theta)).

A field is presented by a monic minimal polynomial m over Q, stored densely
as a tuple of Fractions, constant term first.  Elements are residue classes
represented by their unique coordinate vector of length deg(m) in the power
basis 1, theta, ..., theta^(deg m - 1).  NumberField.mul and NumberField.inv
are the one implementation of multiplication and inversion on these
coordinate tuples: FieldElement wraps them, and Poly applies them to its
term values directly.

The rationals are the degree-one field QQ = Q[theta]/(theta).  Ints and
Fractions coerce into any field as constants; elements of two distinct
extensions never mix silently (no automatic compositum).

Irreducibility of a user-supplied minimal polynomial is verified up to
degree 4 (rational-root and quadratic-resolvent tests); above that the
constructor records the polynomial as asserted irreducible.
"""

from __future__ import annotations

import math
import re
import reprlib
from fractions import Fraction
from functools import lru_cache

Coords = tuple[Fraction, ...]


class FieldMismatch(ValueError):
    """Two elements of distinct field presentations were combined."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of a field."""


class ReduciblePolynomial(ValueError):
    """A minimal polynomial of degree <= 4 failed the irreducibility test."""


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


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
        s = len(r) - len(b)
        q[s] = c
        for i in range(len(b)):
            r[s + i] -= c * b[i]
        _trim(r)
        if not r:
            break
    return _trim(q), r


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Return (g, u, v) with u*a + v*b = g, g monic (or zero)."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _trim([x - y for x, y in _zip_pad(u0, _poly_mul(q, u1))])
        v0, v1 = v1, _trim([x - y for x, y in _zip_pad(v0, _poly_mul(q, v1))])
    if r0:
        lc = r0[-1]
        r0 = [c / lc for c in r0]
        u0 = [c / lc for c in u0]
        v0 = [c / lc for c in v0]
    return r0, u0, v0


def _zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    for i in range(n):
        x = a[i] if i < len(a) else Fraction(0)
        y = b[i] if i < len(b) else Fraction(0)
        yield x, y


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial with the given Q-coefficients."""
    c = _trim(list(coeffs))
    if len(c) <= 1:
        return []
    # strip powers of x
    shift = 0
    while c[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    c = c[shift:]
    if len(c) <= 1:
        return roots
    den = math.lcm(*[f.denominator for f in c])
    ints = [int(f * den) for f in c]
    g = math.gcd(*ints)
    ints = [i // g for i in ints]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for coef in reversed(ints):
                    acc = acc * cand + coef
                if acc == 0:
                    roots.append(cand)
    return sorted(roots)


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
    P = q - 3 * p * p / 4
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

    def __init__(self, minpoly, gen: str = "theta", note: str = ""):
        coeffs = _trim([_as_fraction(c) for c in minpoly])
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = tuple(coeffs)
        self.gen_name = gen
        self.note = note
        if self.degree <= 4 and note != "cyclotomic":
            if not _is_irreducible_upto_deg4(list(coeffs)):
                raise ReduciblePolynomial(f"{self.minpoly_str()} is reducible over Q")
            self.irreducibility = "verified"
        elif note == "cyclotomic":
            self.irreducibility = "verified"
        else:
            self.irreducibility = "asserted"

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.gen_name == other.gen_name)

    def __hash__(self):
        return hash((self.minpoly, self.gen_name))

    def __repr__(self):
        return f"NumberField({self.minpoly_str()!r})"

    def zero(self) -> "FieldElement":
        return FieldElement(self, (Fraction(0),) * self.degree)

    def one(self) -> "FieldElement":
        return self.elem(1)

    def gen(self) -> "FieldElement":
        coords = [Fraction(0)] * self.degree
        if self.degree == 1:
            # theta is congruent to the root of the linear minpoly
            coords[0] = -self.minpoly[0]
        else:
            coords[1] = Fraction(1)
        return FieldElement(self, tuple(coords))

    def elem(self, x) -> "FieldElement":
        """Embed a rational constant (or coerce a compatible element)."""
        if isinstance(x, FieldElement):
            return self.coerce(x)
        coords = [Fraction(0)] * self.degree
        coords[0] = _as_fraction(x)
        return FieldElement(self, tuple(coords))

    def from_coords(self, coords) -> "FieldElement":
        cs = [_as_fraction(c) for c in coords]
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(cs)}")
        return FieldElement(self, tuple(cs))

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field == self:
                return x
            if x.field.is_rational:
                return self.elem(x.as_fraction())
            raise FieldMismatch(
                f"cannot mix elements of {x.field.minpoly_str()} and {self.minpoly_str()}")
        return self.elem(x)

    def _power_tail(self) -> list[tuple[Fraction, ...]]:
        """Coordinates of theta^(n+j) for j = 0..n-2, cached."""
        tail = getattr(self, "_tail", None)
        if tail is None:
            n = self.degree
            cur = [-c for c in self.minpoly[:n]]
            tail = [tuple(cur)]
            for _ in range(n - 2):
                top = cur[-1]
                cur = [Fraction(0)] + cur[:-1]
                if top:
                    cur = [a + top * b for a, b in zip(cur, tail[0])]
                tail.append(tuple(cur))
            self._tail = tail
        return tail

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        n = self.degree
        out = list(coeffs[:n]) + [Fraction(0)] * max(0, n - len(coeffs))
        if len(coeffs) > n:
            tail = self._power_tail()
            for j, c in enumerate(coeffs[n:]):
                if c:
                    row = tail[j]
                    for i in range(n):
                        out[i] += c * row[i]
        return tuple(out)

    def mul(self, a: Coords, b: Coords) -> Coords:
        """Product of two coordinate tuples: the one field multiply."""
        if len(a) == 1:
            return (a[0] * b[0],)
        return self._reduce(_poly_mul(a, b))

    def inv(self, a: Coords) -> Coords:
        """Inverse of a coordinate tuple, by the extended Euclidean algorithm
        against the minimal polynomial (1/a[0] in degree one)."""
        if not any(a):
            raise DivisionByZero("inverse of zero")
        if len(a) == 1:
            return (1 / a[0],)
        g, u, _ = _poly_xgcd(_trim(list(a)), list(self.minpoly))
        if len(g) != 1:
            raise ReduciblePolynomial(
                f"{self.minpoly_str()} is reducible: "
                f"gcd with {FieldElement(self, a)} is non-constant")
        return self._reduce(u)

    def minpoly_str(self) -> str:
        return format_terms(reversed(power_terms(self.minpoly, self.gen_name)))


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


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<gen1>[A-Za-z_]\w*)\s*(?:\^\s*(?P<e1>\d+))?)?"
    r"|(?P<gen2>[A-Za-z_]\w*)\s*(?:\^\s*(?P<e2>\d+))?"
    r")\s*")


def parse_minpoly(text: str):
    """Parse the canonical 'c*name^e + ...' form; return (coeffs, gen name).

    This is intentionally strict: it accepts exactly what minpoly_str and
    field serialization emit, e.g. "theta^2 + 2" or "zeta^2 + zeta + 1".
    """
    coeffs: dict[int, Fraction] = {}
    gen = None
    pos = 0
    first = True
    while pos < len(text):
        mm = _TERM_RE.match(text, pos)
        if not mm or mm.end() == pos:
            raise ValueError(f"cannot parse minimal polynomial {text!r} at offset {pos}")
        sign = mm.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- in {text!r} at offset {pos}")
        s = -1 if sign == "-" else 1
        if mm.group("gen2"):
            name, e, coef = mm.group("gen2"), mm.group("e2"), Fraction(1)
        else:
            coef = Fraction(mm.group("coef"))
            name, e = mm.group("gen1"), mm.group("e1")
        exp = int(e) if e else (1 if name else 0)
        if name:
            if gen is None:
                gen = name
            elif gen != name:
                raise ValueError(f"two generator names in {text!r}: {gen}, {name}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + s * coef
        pos = mm.end()
        first = False
    if gen is None:
        raise ValueError(f"no generator symbol in {text!r}")
    top = max(coeffs)
    out = [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
    return out, gen


def power(base, n: int):
    """base**n for n >= 1 by left-to-right square-and-multiply.

    Makes exactly n.bit_length() + n.bit_count() - 2 multiplies and returns
    base itself for n = 1, which is safe because neither FieldElement nor
    Poly is ever mutated.  Shared by FieldElement.__pow__ and Poly.__pow__.
    """
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class FieldElement:
    """An element of a NumberField, reduced mod the minimal polynomial."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # -- coercion ------------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return self, other
            if other.field.is_rational:
                return self, self.field.elem(other.as_fraction())
            if self.field.is_rational:
                return other.field.elem(self.as_fraction()), other
            raise FieldMismatch(
                f"cannot mix elements of {self.field.minpoly_str()} "
                f"and {other.field.minpoly_str()}")
        return self, self.field.elem(other)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if self.field.degree == 1:
            # theta == -m[0] in a degree-one field
            return self.coords[0]
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _operand_ok(other) -> bool:
        return isinstance(other, (FieldElement, int, Fraction, str))

    def __add__(self, other):
        if not self._operand_ok(other):
            return NotImplemented
        a, b = self._pair(other)
        return FieldElement(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.coords))

    def __sub__(self, other):
        if not self._operand_ok(other):
            return NotImplemented
        a, b = self._pair(other)
        return FieldElement(a.field, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not self._operand_ok(other):
            return NotImplemented
        a, b = self._pair(other)
        return FieldElement(a.field, a.field.mul(a.coords, b.coords))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.coords))

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
        if len(self.coords) == 1:
            return FieldElement(self.field, (self.coords[0] ** n,))
        if n == 0:
            return self.field.one()
        return power(self, n)

    # -- comparison, hashing, display -----------------------------------

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except (FieldMismatch, TypeError):
            return NotImplemented
        return a.field == b.field and a.coords == b.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.field.degree == 1 or self.is_rational():
            return str(self.coords[0])
        return format_terms(reversed(power_terms(self.coords, self.field.gen_name)))

    def __repr__(self):
        return f"FieldElement({self})"


QQ = NumberField([0, 1], gen="theta")


def field_from_string(text: str) -> NumberField:
    if text.strip() == "QQ":
        return QQ
    coeffs, gen = parse_minpoly(text)
    return NumberField(coeffs, gen=gen)


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
def _cyclotomic_coeffs(k: int) -> tuple[Fraction, ...]:
    # Phi_k = (x^k - 1) / prod(Phi_d : d | k, d < k), by exact division
    num = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
    for d in range(1, k):
        if k % d == 0:
            q, r = _poly_divmod(num, list(_cyclotomic_coeffs(d)))
            assert not r
            num = q
    return tuple(num)


def cyclotomic_field(k: int) -> NumberField:
    """Q[zeta]/(Phi_k) with Phi_k the k-th cyclotomic polynomial."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return NumberField(list(_cyclotomic_coeffs(k)), gen="zeta", note="cyclotomic")
