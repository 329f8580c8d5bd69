"""Chebyshev generators, feasibility arithmetic, profile extraction."""

import pytest

from etale_forge.chebyshab import (MoreThanTwoCriticalValues,
                                   RamificationProfile, chebyshev_T,
                                   chebyshev_U, extract_profile,
                                   thom_feasible)
from etale_forge.numfield import QQ
from etale_forge.polyalg import Poly, compose, multiplicity_profile
from etale_forge.polyparse import field_from_string, parse_poly

X = Poly.variable("x", QQ)
T = Poly.variable("t", QQ)


def chebyshev_shabat(n: int) -> Poly:
    """T_n renormalized to branch points {0, 1}: t -> (1 + T_n(2t - 1))/2."""
    half = Poly.constant(QQ.elem("1/2"), QQ, ("t",))
    return (compose(chebyshev_T(n), 2 * T - 1) + 1) * half


def test_chebyshev_T_examples():
    assert chebyshev_T(0) == Poly.constant(1, QQ, ("x",))
    assert chebyshev_T(3) == 4 * X ** 3 - 3 * X
    assert chebyshev_T(5) == 16 * X ** 5 - 20 * X ** 3 + 5 * X


def test_chebyshev_U_examples():
    assert chebyshev_U(0) == Poly.constant(1, QQ, ("x",))
    assert chebyshev_U(1) == 2 * X
    assert chebyshev_U(2) == 4 * X ** 2 - 1


def test_composition_law():
    for n in range(1, 9):
        for m in range(1, 9):
            assert compose(chebyshev_T(n), chebyshev_T(m)) == chebyshev_T(n * m)


def test_parity_and_endpoint_values():
    one = QQ.elem(1)
    for n in range(1, 26):
        tn = chebyshev_T(n)
        flip = tn.substitute({"x": -X})
        assert flip == (tn if n % 2 == 0 else -tn)
        assert tn.evaluate({"x": one}) == one
        un1 = chebyshev_U(n - 1)
        assert un1.evaluate({"x": one}) == QQ.elem(n)
        assert un1.evaluate({"x": -one}) == QQ.elem((-1) ** (n - 1) * n)


def test_thom_feasibility_examples():
    prof = RamificationProfile((QQ.elem(1), QQ.elem(-1)), ((2, 1), (2, 1)), 3)
    assert thom_feasible(prof).feasible
    bad = RamificationProfile((QQ.elem(0), QQ.elem(1)), ((4,), (2, 2)), 4)
    res = thom_feasible(bad)
    assert not res.feasible
    assert any("condition (2)" in d for d in res.diagnostics)
    ident = RamificationProfile((QQ.elem(0),), ((1,),), 1)
    assert thom_feasible(ident).feasible
    wrong_sum = RamificationProfile((QQ.elem(0),), ((2, 2),), 3)
    res = thom_feasible(wrong_sum)
    assert not res.feasible and any("condition (1)" in d for d in res.diagnostics)


def test_profile_validation():
    with pytest.raises(ValueError):
        RamificationProfile((QQ.elem(0),), ((1, 2),), 3)   # not non-increasing
    with pytest.raises(ValueError):
        RamificationProfile((QQ.elem(0),), (), 3)          # missing partition


def test_extract_profile_examples():
    prof = extract_profile(4 * T * (1 - T))
    assert isinstance(prof, RamificationProfile)
    assert prof.degree == 2
    assert prof.partitions == ((1, 1), (2,))
    prof1 = extract_profile(T)
    assert prof1.partitions == ((1,),) and prof1.degree == 1
    res = extract_profile(T * (1 - T) * (T - 3))
    assert isinstance(res, MoreThanTwoCriticalValues)


def test_chebyshev_profiles_up_to_12():
    # after t = (1+x)/2 the branch points are {0, 1}; the partitions are
    # all twos plus a single one, split by parity
    for n in range(2, 13):
        phi = chebyshev_shabat(n)
        prof = extract_profile(phi)
        assert isinstance(prof, RamificationProfile), n
        assert thom_feasible(prof).feasible
        parts = sorted(prof.partitions[0] + prof.partitions[1], reverse=True)
        assert set(parts) <= {1, 2}
        ones = [p for p in parts if p == 1]
        assert sum(parts) == 2 * n and len(ones) == 2
        # parity decides how the two simple points split over the branch
        # points: together for even n, one on each side for odd n
        ones_per_side = sorted(p.count(1) for p in prof.partitions)
        assert ones_per_side == ([0, 2] if n % 2 == 0 else [1, 1])
        assert prof.degree == n


def test_extract_profile_feasibility_for_system_outputs():
    for n in range(2, 8):
        prof = extract_profile(chebyshev_shabat(n))
        assert thom_feasible(prof).feasible


def test_extract_profile_over_a_degree_16_field():
    field = field_from_string("theta^16 + theta + 1")
    phi = parse_poly("t^8 + theta^5*t^5 + theta^15*t^2 + t", ("t",), field)
    assert extract_profile(phi) == MoreThanTwoCriticalValues(16, 9)
    # repeated factors over the same field: Yun's gcds have positive degree
    t, theta = Poly.variable("t", field), field.gen()
    psi = t * (t - theta) ** 2 * (t ** 2 + theta ** 5) ** 3
    assert multiplicity_profile(psi, 0) == (3, 3, 2, 1)
