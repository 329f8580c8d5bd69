"""Polynomials in one variable as coefficient lists: the one module that walks
a polynomial as a Python list.

A list holds the coefficients constant term first, with no zero top entry,
and [] is the zero polynomial.  Its entries are ints (over Z, or residues
mod a prime p below 2^15, so that a product of two fits in one 30-bit
CPython digit), Fractions where a function says so, or the integer
coordinate tuples of a Poly term over Q(theta), multiplied by `times`
(NumberField.mul).  polyalg._dense and polyalg._poly convert a Poly to and
from a list.  The algorithms are those of von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 3-4 and 14.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub


def trim(c: list, zero=0) -> list:
    """c without its zero top entries, in place; zero is (0,)*n for lists of
    coordinate tuples."""
    while c and c[-1] == zero:
        c.pop()
    return c


def derivative(c: list, p: int = 0) -> list:
    """The derivative of c over Z or Q, or mod p when p is given."""
    d = [i * x for i, x in enumerate(c)][1:]
    return trim([x % p for x in d]) if p else d


def value(c: list, x: int) -> int:
    """c(x) by Horner's rule."""
    acc = 0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def mul(a: list, b: list, times=None) -> list:
    """The product of two lists, of ints without times, of coordinate tuples
    multiplied by times otherwise.  Only nonzero entries are multiplied, and
    the outer loop walks the operand with fewer of them; the top entry of
    the result may be zero only over a ring with zero divisors."""
    if not a or not b:
        return []
    zero = 0 if times is None else (0,) * len(a[0])
    na = [(i, x) for i, x in enumerate(a) if x != zero]
    nb = [(j, y) for j, y in enumerate(b) if y != zero]
    if len(na) > len(nb):
        na, nb = nb, na
    prod = [zero] * (len(a) + len(b) - 1)
    if times is None:
        for i, x in na:
            for j, y in nb:
                prod[i + j] += x * y
        return prod
    for i, x in na:
        for j, y in nb:
            prod[i + j] = tuple([*map(add, prod[i + j], times(x, y))])
    return prod


def mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The product of two residue lists mod p."""
    return [s % p for s in mul(a, b)]


def divide(a: list[int], b: list[int], p: int = 0) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r and deg r < deg b, by long division in place:
    over Z for a monic b (p = 0), else mod p for a b with nonzero top entry.
    The quotient ends in the top entries of the working list, the remainder
    in the rest."""
    nb = len(b) - 1
    inv = pow(b[-1], -1, p) if p else 1
    r = list(a)
    for s in range(len(r) - 1 - nb, -1, -1):
        c = r[s + nb] = r[s + nb] * inv % p if p else r[s + nb]
        if c:
            diff = [x - c * y for x, y in zip(r[s:s + nb], b)]
            r[s:s + nb] = [x % p for x in diff] if p else diff
    return r[nb:], trim(r[:nb])


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
            a, b = b, trim(r)
        else:
            a, b = b, divide(a, b, p)[1]
    if b:
        return [1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def prem(u: list, v: list, times=None) -> list:
    """The primitive part of a pseudo-remainder of u by v, len(u) >= len(v),
    as in mul: each step cancels the top entry of r, r <- l*r - c*t^s*v with
    l = lc(v) and c = lc(r) (over ints first divided by their gcd), and the
    end divides out the gcd of all integer numerators.  Both multiply r by
    a nonzero constant, so the result is an exact scalar multiple of the
    remainder of u by v over the field."""
    n = len(v) - 1
    lv, head = v[-1], v[:-1]
    r = u
    if times is None:
        while len(r) > n:
            c, s = r[-1], len(r) - 1 - n
            g = math.gcd(lv, c)
            x, y = lv // g, c // g
            r = trim([x * ri for ri in r[:s]]
                     + [x * ri - y * vi for ri, vi in zip(r[s:-1], head)])
        g = math.gcd(*r)
        return [ri // g for ri in r] if g > 1 else r
    zero = (0,) * len(lv)
    while len(r) > n:
        c, s = r[-1], len(r) - 1 - n
        r = trim([times(lv, ri) for ri in r[:s]]
                 + [tuple([*map(sub, times(lv, ri), times(c, vi))])
                    for ri, vi in zip(r[s:-1], head)], zero)
    g = math.gcd(*[x for ri in r for x in ri])
    return [tuple([x // g for x in ri]) for ri in r] if g > 1 else r


def at_power_of_two(c: list[int], width: int) -> int:
    """c(2^(8*width)), each coefficient below 2^(8*width - 1) in absolute
    value: each coefficient plus 2^(8*width - 1) is written into its own
    width bytes, and that offset is taken off every place at once."""
    half = 1 << (8 * width - 1)
    return (int.from_bytes(b"".join([(x + half).to_bytes(width, "little") for x in c]), "little")
            - int.from_bytes(half.to_bytes(width, "little") * len(c), "little"))


def from_power_of_two(v: int, width: int) -> list[int]:
    """The list c with at_power_of_two(c, width) == v whose entries are
    below 2^(8*width - 1) in absolute value: the balanced base-2^(8*width)
    digits of v, from one to_bytes of |v| and a carry loop over its
    width-byte chunks.  Unique when such a c exists; -v has the negated
    digits."""
    half = 1 << (8 * width - 1)
    full = half << 1
    n = abs(v).bit_length() // (8 * width) + 1
    raw = abs(v).to_bytes(n * width, "little")
    out, carry = [], 0
    for i in range(0, n * width, width):
        x = int.from_bytes(raw[i:i + width], "little") + carry
        carry = x >= half
        out.append(x - full if carry else x)
    return trim(out if v > 0 else [-x for x in out])


# -- roots --------------------------------------------------------------------


def _root_cells(c: list[int]) -> set[int]:
    """Integers k such that every real root of the integer list c lies in
    some [k, k + 1].  Between the cells of its turning points, found by the
    same routine on the derivative, c is monotone, and integer bisection
    finds the cell of its one root there; a cell that holds a turning point
    may hold two roots and is kept whole."""
    if len(c) <= 1:
        return set()
    turning = _root_cells(derivative(c))
    bound = 2 + max(abs(a) for a in c[:-1]) // abs(c[-1])   # Cauchy's bound
    cells = set(turning)
    ends = sorted({-bound, bound} | turning | {k + 1 for k in turning})
    for lo, hi in zip(ends, ends[1:]):
        vlo = value(c, lo)
        if vlo * value(c, hi) > 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if value(c, mid) * vlo > 0:
                lo = mid
            else:
                hi = mid
        cells.add(lo)
    return cells


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots, ascending, of a list of Fractions."""
    c = trim(list(coeffs))
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
    return sorted(Fraction(y, lead) for y in ys if value(monic, y) == 0)


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


def _powmod_p(a: int, e: int, m: list[int], p: int) -> list[int]:
    """(x + a)^e - 1 modulo a monic m of degree >= 2, mod p (e >= 1), by
    square-and-multiply; a multiply by x + a is a shift plus a multiple."""
    out = [a, 1]
    for bit in bin(e)[3:]:
        out = divide(mul_mod_p(out, out, p), m, p)[1]
        if bit == "1":
            out = divide([(u + a * v) % p for u, v in zip([0] + out, out + [0])], m, p)[1]
    # out is never zero: x + a vanishes at no root of m (m(0) != 0 for a = 0)
    # or at no more than one of the distinct roots of a splitting g
    return trim([(out[0] - 1) % p] + out[1:])


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
def degree_one_prime(minpoly: tuple[Fraction, ...]) -> tuple[int, int] | None:
    """(p, rho) for the first p of small_primes() that divides no
    denominator of the monic minpoly and at which it has a root rho mod p
    (small_primes()[0], 0 in degree one), or None."""
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
