"""make_map's exact gate, run on the output of every constructor that builds
a SurfaceMap directly.

Those constructors skip the gate because an identity proves their formula a
morphism (C1 for the built lifts, the binomial identity for the shears,
x^k times the relation for the covering).  This test re-proves each map the
slow way, so a formula that drifts from its identity fails here even where
the certificate cannot see it.
"""

import dataclasses
import functools

import pytest

from etale_forge.constructor import chebyshev_endo, cyclic_galois_endo
from etale_forge.endo import build_from_params, compose_maps, make_map
from etale_forge.family import (covering, family_member,
                                family_member_symbolic, theta)
from etale_forge.numfield import QQ
from etale_forge.polyalg import Poly
from etale_forge.reproduce import build_corpus
from etale_forge.surface import tilde_surface

CORPUS = dict(build_corpus())


@functools.cache
def _built(name):
    return build_from_params(CORPUS[name])


def _theta_cases():
    p = Poly.variable("p", QQ, ("x", "p"))
    x = Poly.variable("x", QQ)
    shears = {"0": 0, "x": x, "1+3x^2": 1 + 3 * x ** 2, "p": p}
    return [(f"theta-{label}-tilde{k}{r}", lambda P=P, s=tilde_surface(k, r): theta(P, s))
            for k, r in ((2, 2), (3, 3), (2, 3), (4, 2)) for label, P in shears.items()]


def _cases():
    cases = []
    for name, params in CORPUS.items():
        cases.append((f"{name}-tilde", lambda name=name: _built(name).tilde_map))
        if params.a == 1 and params.r % params.k == 0:
            cases.append((f"{name}-hyper", lambda name=name: _built(name).hyper_map))
        if params.alpha == 0:   # the corpus has lam = 1 here, so scale it too
            for scale in (1, 2):
                scaled = dataclasses.replace(params, lam=params.lam * scale)
                cases.append((f"{name}-j-lam*{scale}",
                              lambda p=scaled: build_from_params(p).j))
    cases += _theta_cases()
    cases += [(f"covering-{k}{rbar}", lambda k=k, rbar=rbar: covering(k, rbar))
              for k in (2, 3, 4) for rbar in (1, 2)]
    # d = 1 parameters build the identities of tilde(2, 2) and hyper(2, 1)
    cases += [("identity-tilde22", lambda: build_from_params(chebyshev_endo(1)).tilde_map),
              ("identity-hyper21", lambda: build_from_params(chebyshev_endo(1)).hyper_map)]
    for k, avector in ((2, ()), (2, (1, 2)), (3, (1, 0, 2))):
        cases.append((f"family-k{k}-{len(avector)}", lambda k=k, avector=avector:
                      family_member(build_from_params(cyclic_galois_endo(k)).j,
                                    avector)))
    cases += [(f"family-symbolic-k{k}", lambda k=k: family_member_symbolic(
               build_from_params(cyclic_galois_endo(k)).j, 3)) for k in (2, 3)]
    cases.append(("compose-cheb3-cheb5", lambda: compose_maps(
        _built("cheb_d3_lam2").tilde_map, _built("cheb_d5_lam1").tilde_map)))
    cases += [(f"chebyshev-d{d}-lam2", lambda d=d:
               build_from_params(chebyshev_endo(d, QQ.elem(2))).tilde_map)
              for d in range(1, 102, 2)]
    return cases


CASES = _cases()


@pytest.mark.parametrize("build", [c for _, c in CASES], ids=[i for i, _ in CASES])
def test_gate_accepts_every_constructed_map(build):
    m = build()
    # raises NotAMorphism, with the nonzero pulled-back relation, otherwise
    make_map(m.source, m.target, m.coords)
