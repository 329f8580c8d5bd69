"""The three benchmark workloads and the correctness check of every operation.

Each workload is a closed loop with one client.  Its inputs are built from
the run seed at set-up; the package sees only those inputs.  A workload is
a list of operations, ``Op``, that forms one round.  The benchmark runs
whole rounds, each in a fresh seeded order, so every run measures the same
mix of operations whatever its seed.

* ``reproduce``: one in-process ``reproduce_paper`` per operation; a round
  is two reports under two seeds, which must be byte-identical.
* ``certify``: ``params_from_json`` plus ``etale_certificate`` on one
  parameter document; the univariate kernel only, no surface code.
* ``cli``: one fresh ``python -m etale_forge.cli ... --json`` process per
  operation; the cold-start path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REPORT_ITEMS = (
    "chebyshev_identities", "congruence_law", "s2_galois", "galois_k3",
    "cheb_d3", "cheb_d5", "cheb_d7", "cheb_d9", "cheb_point_fixture",
    "kr32_d01_solver", "kr32_d02_verification", "alpha0_k2r2_d4",
    "factorization_law", "deformation_family", "remark_cube_roots",
    "theta_group_law", "miyanishi_n2", "miyanishi_n3",
    "profile_consistency", "oracle_cross_validation", "ramified_nonexample",
)


@dataclasses.dataclass
class Op:
    """One benchmark operation: ``run`` does the work, ``check`` returns an
    error message for a wrong output, or None."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def child_env() -> dict:
    """Environment of a CLI child: the package from src/, and no seed
    inherited from the caller, so every argv decides its own output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ETALE_FORGE_SEED", None)
    return env


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


# -- reproduce ---------------------------------------------------------------------


def reproduce_setup(seed: int, workdir: Path) -> list[Op]:
    from etale_forge import reproduce

    rng = random.Random(seed)
    fixture_dir = reproduce.default_fixture_dir()
    seeds = rng.sample(range(1, 10_000), 2)
    first_bytes: list[str] = []

    def check(report) -> str | None:
        names = tuple(item["name"] for item in report["items"])
        if names != REPORT_ITEMS:
            return f"report items {names}"
        failed = [i["name"] for i in report["items"] if i["status"] != "pass"]
        if failed or report["all_pass"] is not True:
            return f"items not pass: {failed}"
        text = json.dumps(report, sort_keys=True)
        if not first_bytes:
            first_bytes.append(text)
        elif text != first_bytes[0]:
            return "report JSON differs from the first report of the run"
        return None

    return [Op(f"reproduce_paper(seed={s})",
               lambda s=s: reproduce.reproduce_paper(fixture_dir, seed=s), check)
            for s in seeds]


# -- certify -----------------------------------------------------------------------


def _galois_params(k: int, eps_power: int, lam: Fraction):
    """R1 = (eps - 1) t + 1 and R0 = (R1^k - 1)/(t(t - 1)) over Q(zeta_k),
    built without the factorizing map so set-up touches no surface code."""
    from etale_forge.endo import EtaleParams
    from etale_forge.numfield import QQ, cyclotomic_field
    from etale_forge.polyalg import Poly, exact_div

    field = cyclotomic_field(k)
    if field.degree == 1:
        field, eps = QQ, QQ.elem(-1)
    else:
        eps = field.gen() ** eps_power
    t = Poly.variable("t", field)
    r1 = (eps - 1) * t + 1
    r0 = exact_div(r1 ** k - 1, t * (t - 1))
    return EtaleParams(k=k, r=k, a=1, alpha=0, d=k, lam=field.elem(lam),
                       R0=r0, R1=r1, R2=Poly.constant(1, field, ("t",)))


def _alpha0_params(m: int, lam: Fraction):
    """(k, r, alpha) = (2, 2, 0) of degree 2m: R1 = T_m(1 - 2t),
    R2 = U_(m-1)(1 - 2t)/m, R0 = 4m^2."""
    from etale_forge.chebyshab import chebyshev_T, chebyshev_U
    from etale_forge.endo import EtaleParams
    from etale_forge.numfield import QQ
    from etale_forge.polyalg import Poly, compose

    t = Poly.variable("t", QQ)
    sub = 1 - 2 * t
    r2 = compose(chebyshev_U(m - 1), sub) * Poly.constant(Fraction(1, m), QQ, ("t",))
    return EtaleParams(k=2, r=2, a=1, alpha=0, d=2 * m, lam=QQ.elem(lam),
                       R0=Poly.constant(4 * m * m, QQ, ("t",)),
                       R1=compose(chebyshev_T(m), sub), R2=r2)


def _bump(p, j: int):
    """p plus a change of its t^j coefficient that keeps its degree."""
    from etale_forge.polyalg import Poly
    coeffs = p.univariate_coeffs()
    old = coeffs[j] if j < len(coeffs) else p.field.zero()
    delta = 2 if old == p.field.elem(-1) else 1
    t = Poly.variable("t", p.field)
    return p + Poly.constant(delta, p.field, ("t",)) * t ** j


TAMPERS = ("C1_identity", "C2_degrees", "C3_normalization", "C4_congruence")


def _tamper(params, kind: str):
    """A copy of certified params that breaks the named check."""
    if kind == "C1_identity":
        # the linear coefficient of R2 (of R1 when R2 is constant); a
        # higher one makes the separability gcd of a large document cost
        # up to 100 times more, which would make the mix depend on the seed
        name = "R2" if params.R2.total_degree() >= 1 else "R1"
        return dataclasses.replace(params, **{name: _bump(getattr(params, name), 1)})
    if kind == "C2_degrees":
        # the next degree allowed by the congruence; the R_i keep theirs
        return dataclasses.replace(params, d=params.d + params.k * (params.r - 1))
    if kind == "C3_normalization":
        return dataclasses.replace(params, R1=_bump(params.R1, 0))
    if kind == "C4_congruence":
        return dataclasses.replace(params, d=params.d + 1)
    raise ValueError(kind)


def certify_cases(seed: int) -> list[tuple[str, dict, bool, str | None]]:
    """(label, parameter document, expected verdict, check it must fail).

    The verdicts are fixed here, from how each document was built: the
    constructions are certified families, and each tamper breaks one check.
    A quarter of each family gets a tampered copy, spread evenly over its
    sizes so the cost mix does not depend on the seed.
    """
    from etale_forge.constructor import chebyshev_endo, solve_kr32
    from etale_forge.numfield import QQ

    rng = random.Random(seed)
    families = [
        [(f"cheb_d{d}", chebyshev_endo(d, QQ.elem(_rational(rng))))
         for d in range(3, 62, 2)],
        [(f"galois_k{k}", _galois_params(
            k, rng.choice([e for e in range(1, k) if math.gcd(e, k) == 1]),
            _rational(rng))) for k in range(2, 9)],
        [(f"kr32_{i}", dataclasses.replace(p, lam=p.field.elem(_rational(rng))))
         for i, p in enumerate(solve_kr32(1) + solve_kr32(2))],
        [(f"alpha0_m{m}", _alpha0_params(m, _rational(rng))) for m in range(2, 11)],
    ]
    cases = []
    kinds = list(TAMPERS)
    rng.shuffle(kinds)
    n_tampered = 0
    for family in families:
        offset = rng.randrange(4)
        for i, (label, params) in enumerate(family):
            cases.append((label, params.to_json(), True, None))
            if i % 4 == offset:
                kind = kinds[n_tampered % len(kinds)]
                n_tampered += 1
                bad = _tamper(params, kind)
                cases.append((f"{label}~{kind}", bad.to_json(), False, kind))
    return cases


def certify_setup(seed: int, workdir: Path) -> list[Op]:
    # calls go through the module, so the tracer's wrappers see them
    from etale_forge import endo

    def op(label, doc, verdict, broken) -> Op:
        def check(cert) -> str | None:
            if cert.verdict is not verdict:
                return f"verdict {cert.verdict}, expected {verdict}"
            failing = cert.failing()
            if broken is None and failing:
                return f"failing {failing} on a certified document"
            if broken is not None and broken not in failing:
                return f"{broken} not in failing {failing}"
            return None
        return Op(label, lambda: endo.etale_certificate(endo.params_from_json(doc)),
                  check)

    return [op(*case) for case in certify_cases(seed)]


# -- cli ---------------------------------------------------------------------------


def _json_check(code: int, want: Callable[[dict], bool]):
    """Check of (exit code, stdout): the code must match, stdout must parse
    as JSON, and ``want`` must hold on it."""
    def check(result) -> str | None:
        got_code, stdout = result
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        return None if want(payload) else f"unexpected output {stdout[:160]!r}"
    return check


def _no_json(code: int):
    """Check of an error exit: the code must match and stdout be empty."""
    def check(result) -> str | None:
        got_code, stdout = result
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        return None if stdout == "" else f"unexpected stdout {stdout[:80]!r}"
    return check


def cli_pool(seed: int, workdir: Path) -> list[tuple[list[str], Callable]]:
    """(argv, check) for every subcommand; exit codes fixed by hand."""
    from etale_forge.constructor import chebyshev_endo
    from etale_forge.numfield import QQ

    rng = random.Random(seed)
    d = rng.choice((3, 5, 7, 9))
    good = chebyshev_endo(d, QQ.elem(_rational(rng)))
    galois = _galois_params(3, rng.choice((1, 2)), _rational(rng))
    tampered = _tamper(good, "C1_identity")
    docs = {}
    for name, params in (("good", good), ("galois", galois), ("tampered", tampered)):
        docs[name] = workdir / f"{name}.json"
        docs[name].write_text(json.dumps({"params": params.to_json()}))

    n_u = rng.randint(2, 9)
    d_construct = rng.choice((5, 7, 9, 11))
    lam = _rational(rng)
    profile = json.dumps({"degree": 3, "branch_points": ["0", "1"],
                          "partitions": [[2, 1], [2, 1]]})
    field_i = ["--field", "theta^2 + 1"]
    return [
        (["chebyshev", "T", "--n", "5"],
         _json_check(0, lambda p: p["poly"] == "16*x^5 - 20*x^3 + 5*x")),
        (["chebyshev", "U", "--n", str(n_u)],
         _json_check(0, lambda p: p["n"] == n_u
                     and p["poly"].startswith(f"{2 ** n_u}*x^{n_u} "))),
        (["construct", "chebyshev", "--d", "3"],
         _json_check(0, lambda p: p["params"]["R1"] == "-4*t + 1"
                     and p["params"]["d"] == 3)),
        # "--lam -1/3" would read as an option; "--lam=-1/3" is how argparse
        # takes a negative value
        (["construct", "chebyshev", "--d", str(d_construct), f"--lam={lam}"],
         _json_check(0, lambda p: p["params"]["d"] == d_construct)),
        (["construct", "chebyshev", "--d", "4"], _no_json(2)),
        (["construct", "cyclic-galois", "--k", "2"],
         _json_check(0, lambda p: p["j"]["coords"] == ["w", "4*v", "2*u*v + 1"]
                     and p["params"]["R0"] == "4")),
        (["construct", "kr32", "--d0", "1"],
         _json_check(0, lambda p: len(p["solutions"]) == 2
                     and all(s["d"] == 4 for s in p["solutions"]))),
        (["verify-endo", "--params", str(docs["good"])],
         _json_check(0, lambda p: p["verdict"] is True)),
        (["verify-endo", "--params", str(docs["galois"])],
         _json_check(0, lambda p: p["verdict"] is True)),
        (["verify-endo", "--params", str(docs["tampered"])],
         _json_check(2, lambda p: p["verdict"] is False
                     and "C1_identity" in p["failing"])),
        (["family", "gen", "--k", "2", "--rbar", "1", "--avec", "[]"],
         _json_check(0, lambda p: p["degree"] == 2 and p["map"]["coords"][0] == "w^2")),
        (["family", "equiv", "--f1", "1 + x^2", "--f2", "1 + x^2", "--r", "2"],
         _json_check(0, lambda p: p["equivalent"] is True)),
        (["family", "equiv", "--f1", "1 + x^2", "--f2", "1 + 2*x^2", "--r", "2"],
         _json_check(2, lambda p: p["equivalent"] is False)),
        (["family", "distinct", "--k", "2", "--rbar", "1",
          "--avecs", "[[], [1], [2], [1, 1]]"],
         _json_check(0, lambda p: p["pairwise_distinct"] is True)),
        (["miyanishi", "find-b", "--n", "2"],
         _json_check(0, lambda p: p["field"] == "theta^2 + 1")),
        (["miyanishi", "check", "--n", "2", "--b", "theta", *field_i],
         _json_check(0, lambda p: p["verdict"] is True and p["s"] == "1/2*x")),
        (["miyanishi", "eta0", "--n", "2", "--b", "theta", *field_i],
         _json_check(0, lambda p: p["eta0"][0] == "2*x^2 - 1")),
        (["shabat", "extract", "--poly", "4*t - 4*t^2"],
         _json_check(0, lambda p: p["partitions"] == [[1, 1], [2]])),
        (["shabat", "check-profile", profile],
         _json_check(0, lambda p: p["feasible"] is True)),
        (["shabat", "extract", "--poly", "2x"], _no_json(1)),
        (["family", "equiv", "--f1", "2x", "--f2", "1", "--r", "2"], _no_json(1)),
    ]


def cli_call(argv: list[str], prefix: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(prefix + argv + ["--json"], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout


def cli_setup(seed: int, workdir: Path,
              prefix: list[str] | None = None, env: dict | None = None) -> list[Op]:
    """One Op per pool entry; ``prefix`` is the command that starts the CLI."""
    prefix = prefix or [sys.executable, "-m", "etale_forge.cli"]
    env = env or child_env()
    return [Op(" ".join(argv), lambda argv=argv: cli_call(argv, prefix, env), check)
            for argv, check in cli_pool(seed, workdir)]


SETUPS = {"reproduce": reproduce_setup, "certify": certify_setup, "cli": cli_setup}
