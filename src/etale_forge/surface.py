"""The ambient surface models as quotient rings with a confluent normal form.

Two models are supported:

  * tilde(k, r):  x^r*y = z^k - 1  in variables (x, y, z), the simply
    connected model; torus weights (1, -r, 0); the residual cyclic action
    with parameter a acts with exponents (1, -r, -a).
  * hyper(k, rbar):  u^(rbar+1)*v + u = w^k  in variables (u, v, w), the
    hypersurface model of the quotient with a = 1 and r = rbar*k; torus
    weights (k, -rbar*k, 1).

Equality in the coordinate ring is decided by a single confluent rewrite:
lexicographic order with x > y > z (resp. u > v > w) selects the leading
monomial x^r*y (resp. u^(rbar+1)*v), and the one-element set {relation} is a
Groebner basis of the principal ideal, so the division remainder is a
canonical normal form.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .numfield import QQ, FieldElement, NumberField
from .polyalg import Poly, divmod_poly


class NotOnSurface(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceSpec:
    """One of the ambient models; validated by the module constructors."""
    model: str                    # "tilde" | "hyper"
    k: int
    r: int                        # r for tilde, rbar for hyper

    @property
    def vars(self) -> tuple[str, str, str]:
        return ("x", "y", "z") if self.model == "tilde" else ("u", "v", "w")

    @property
    def weights(self) -> tuple[int, int, int]:
        if self.model == "tilde":
            return (1, -self.r, 0)
        return (self.k, -self.r * self.k, 1)

    def relation(self, field: NumberField = QQ) -> Poly:
        x, y, z = (Poly.variable(v, field, self.vars) for v in self.vars)
        if self.model == "tilde":
            return x ** self.r * y - z ** self.k + 1
        return x ** (self.r + 1) * y + x - z ** self.k

    def surface_id(self) -> str:
        return f"{self.model}({self.k},{self.r})"

    def __str__(self):
        return self.surface_id()


def tilde_surface(k: int, r: int) -> SurfaceSpec:
    if k < 1 or r < 1:
        raise ValueError("tilde(k, r) needs k, r >= 1")
    return SurfaceSpec("tilde", k, r)


def hyper_surface(k: int, rbar: int) -> SurfaceSpec:
    if k < 2 or rbar < 1:
        raise ValueError("hyper(k, rbar) needs k >= 2, rbar >= 1")
    return SurfaceSpec("hyper", k, rbar)


def parse_surface_id(text: str) -> SurfaceSpec:
    text = text.strip()
    for name, ctor in (("tilde", tilde_surface), ("hyper", hyper_surface)):
        if text.startswith(name + "(") and text.endswith(")"):
            inner = text[len(name) + 1:-1]
            a, b = inner.split(",")
            return ctor(int(a), int(b))
    raise ValueError(f"not a surface id: {text!r}")


def normal_form(p: Poly, s: SurfaceSpec) -> Poly:
    """Canonical remainder of p modulo the principal surface ideal.

    p may carry extra parameter variables; the surface variables are moved
    to the front so the lex order of the module docstring applies.
    """
    order = tuple(list(s.vars) + [v for v in p.variables if v not in s.vars])
    aligned = p.with_variables(order)
    _, r = divmod_poly(aligned, relation_poly(s, aligned.field, order))
    return r


@functools.cache
def relation_poly(s: SurfaceSpec, field: NumberField,
                  order: tuple[str, ...]) -> Poly:
    """The relation of s over field, in the variable order `order`.

    Built once per (spec, field, order) and shared by every caller, which
    is safe because Poly operations never mutate their operands.
    """
    return s.relation(field).with_variables(order)


def on_surface(pt, s: SurfaceSpec) -> bool:
    """Exact test relation(pt) == 0. pt is a triple of field elements."""
    rel = relation_poly(s, QQ, s.vars)
    return rel.evaluate(dict(zip(s.vars, _as_elements(pt)))).is_zero()


def _as_elements(pt) -> tuple[FieldElement, FieldElement, FieldElement]:
    out = []
    for c in pt:
        if isinstance(c, FieldElement):
            out.append(c)
        else:
            out.append(QQ.elem(c))
    if len(out) != 3:
        raise ValueError("a surface point has three coordinates")
    return tuple(out)


@dataclass(frozen=True)
class SurfacePoint:
    """An exact point on a surface; the relation is checked on construction."""
    surface: SurfaceSpec
    coords: tuple[FieldElement, FieldElement, FieldElement]

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_elements(self.coords))
        if not on_surface(self.coords, self.surface):
            raise NotOnSurface(
                f"{tuple(str(c) for c in self.coords)} not on {self.surface}")

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def weight_of(p: Poly, s: SurfaceSpec, weights: tuple[int, int, int] | None = None,
              modulus: int | None = None) -> int | None:
    """Common weight of all monomials of p, or None if mixed.

    The surface variables weigh weights (default: the torus weights of s),
    taken mod modulus when one is given.  Variables beyond the surface
    triple (deformation parameters in tests) count with weight zero.
    """
    if p.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    wmap = dict(zip(s.vars, s.weights if weights is None else weights))
    ws = [wmap.get(v, 0) for v in p.variables]
    seen = None
    for k in p.terms:
        w = sum(e * wv for e, wv in zip(k, ws))
        if modulus is not None:
            w %= modulus
        if seen is None:
            seen = w
        elif seen != w:
            return None
    return seen


# -- deterministic exact sampling ---------------------------------------------


def sample_point(s: SurfaceSpec, seed: int) -> SurfacePoint:
    """Deterministic rational point with all coordinates nonzero, drawn from
    random.Random(seed) with numerators and denominators up to 1000.

    tilde: draw x != 0 and z with z^k != 1, z != 0; then y = (z^k - 1)/x^r.
    hyper: draw u != 0 and w with w^k != u, w != 0; then v = (w^k - u)/u^(rbar+1).
    """
    rng = random.Random(seed)

    def fraction() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000),
                        rng.randint(1, 1000))

    tilde = s.model == "tilde"
    while True:
        first, last = fraction(), fraction()
        top = last ** s.k - (1 if tilde else first)
        if top:
            middle = top / first ** (s.r if tilde else s.r + 1)
            return SurfacePoint(s, (QQ.elem(first), QQ.elem(middle), QQ.elem(last)))
