"""Chebyshev polynomial generators and branched-cover feasibility arithmetic.

T_n is generated by the recurrence T_n = 2x T_(n-1) - T_(n-2) with T_0 = 1
and T_1 = x; U_n is the rescaled derivative T_(n+1)'/(n+1).  The feasibility
test for a ramification profile over an ordered branching locus checks the
two counting conditions for branched self-covers of the affine line, and
the profile of a polynomial over {0, 1} is read off two exact squarefree
decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numfield import QQ, FieldElement
from .polyalg import ArityError, Poly, multiplicity_profile


_T_CACHE: list[Poly] = []
_X = Poly.variable("x", QQ)


def chebyshev_T(n: int) -> Poly:
    """Degree-n Chebyshev polynomial of the first kind, by the recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not _T_CACHE:
        _T_CACHE.append(Poly.constant(1, QQ, ("x",)))
        _T_CACHE.append(_X)
    while len(_T_CACHE) <= n:
        m = len(_T_CACHE)
        _T_CACHE.append(2 * _X * _T_CACHE[m - 1] - _T_CACHE[m - 2])
    return _T_CACHE[n]


def chebyshev_U(n: int) -> Poly:
    """Degree-n Chebyshev polynomial of the second kind: T_(n+1)'/(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d = chebyshev_T(n + 1).derivative()
    return d * Fraction(1, n + 1)


@dataclass(frozen=True)
class RamificationProfile:
    """Ordered multiplicity partitions over an ordered branching locus."""
    branch_points: tuple[FieldElement, ...]
    partitions: tuple[tuple[int, ...], ...]
    degree: int

    def __post_init__(self):
        if len(self.branch_points) != len(self.partitions):
            raise ValueError("one partition per branch point")
        for part in self.partitions:
            if not part or any(e < 1 for e in part):
                raise ValueError(f"invalid partition {part}")
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"partition {part} is not non-increasing")


@dataclass(frozen=True)
class ThomResult:
    feasible: bool
    diagnostics: tuple[str, ...] = ()


def thom_feasible(profile: RamificationProfile) -> ThomResult:
    """The two counting conditions for branched self-covers of the line.

    (1) every partition sums to the degree d;
    (2) the total number of parts equals (n-1)d + 1 for n branch points.
    """
    d = profile.degree
    problems = []
    for pt, part in zip(profile.branch_points, profile.partitions):
        if sum(part) != d:
            problems.append(
                f"condition (1): partition over {pt} sums to {sum(part)}, not {d}")
    n = len(profile.partitions)
    total_parts = sum(len(part) for part in profile.partitions)
    expected = (n - 1) * d + 1
    if total_parts != expected:
        problems.append(
            f"condition (2): {total_parts} parts, expected (n-1)d+1 = {expected}")
    return ThomResult(not problems, tuple(problems))


@dataclass(frozen=True)
class MoreThanTwoCriticalValues:
    """Returned when the branch-count over {0, 1} misses the Hurwitz bound."""
    parts_found: int
    parts_expected: int


def extract_profile(phi: Poly):
    """Ramification profile of phi over the normalized branch points {0, 1}.

    The Hurwitz count certifies that no third branch point exists: over two
    points the total number of parts must be d + 1.  Degree-one maps report
    the trivial profile over (0).
    """
    if not phi.is_univariate() or phi.total_degree() < 1:
        raise ArityError("expected a univariate polynomial of degree >= 1")
    field = phi.field
    d = phi.total_degree()
    if d == 1:
        return RamificationProfile((field.zero(),), ((1,),), 1)
    lam0 = multiplicity_profile(phi, field.zero())
    lam1 = multiplicity_profile(phi, field.one())
    found = len(lam0) + len(lam1)
    if found != d + 1:
        return MoreThanTwoCriticalValues(found, d + 1)
    return RamificationProfile((field.zero(), field.one()), (lam0, lam1), d)
