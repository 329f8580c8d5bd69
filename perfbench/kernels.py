"""Micro-timings of one multiply at each arithmetic layer.

The operands are fixed (seeded with a constant, not the run seed), so the
numbers compare across runs and commits.  Each timing is the median over
repeats of the mean time per multiply inside one repeat.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

OPERAND_SEED = 1701


def _per_call(fn, calls: int, repeats: int = 7) -> float:
    """Median over repeats of seconds per call of fn()."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _dense_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kernel_timings() -> dict[str, float]:
    """The ROADMAP Baseline multiplies, in the units of their metric names."""
    from etale_forge.numfield import QQ, NumberField
    from etale_forge.polyalg import Poly

    rng = random.Random(OPERAND_SEED)

    def frac():
        return Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))

    f1, f2 = frac(), frac()
    q1, q2 = QQ.elem(frac()), QQ.elem(frac())
    field = NumberField([7, 0, 1])            # Q(sqrt(-7))
    k1 = field.from_coords([frac(), frac()])
    k2 = field.from_coords([frac(), frac()])
    dense1 = [frac() for _ in range(21)]
    dense2 = [frac() for _ in range(21)]
    t = Poly.variable("t", QQ)
    p1 = sum((Poly.constant(c, QQ, ("t",)) * t ** i
              for i, c in enumerate(dense1)), Poly.zero(QQ, ("t",)))
    p2 = sum((Poly.constant(c, QQ, ("t",)) * t ** i
              for i, c in enumerate(dense2)), Poly.zero(QQ, ("t",)))
    if (p1 * p2).univariate_coeffs() != [QQ.elem(c) for c in _dense_mul(dense1, dense2)]:
        raise RuntimeError("Poly product differs from the dense reference product")

    return {
        "kernel.fraction_mul_us": _per_call(lambda: f1 * f2, 20000) * 1e6,
        "numfield.mul_qq_us": _per_call(lambda: q1 * q2, 10000) * 1e6,
        "numfield.mul_quadratic_us": _per_call(lambda: k1 * k2, 2000) * 1e6,
        "polyalg.mul_deg20_ms": _per_call(lambda: p1 * p2, 10) * 1e3,
        "kernel.dense_mul_deg20_ms": _per_call(lambda: _dense_mul(dense1, dense2), 20) * 1e3,
    }
