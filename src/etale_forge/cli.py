"""Command-line front end: construction, verification, family generation,
and fixture reproduction.  JSON is the stable machine interface; text output
is human-oriented.

Exit codes: 0 success / verdict true, 2 verdict false, 1 usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
import time
from pathlib import Path

from .chebyshab import (MoreThanTwoCriticalValues, RamificationProfile,
                        chebyshev_T, chebyshev_U, extract_profile,
                        thom_feasible)
from .constructor import (InfeasibleDegree, chebyshev_endo,
                          cyclic_galois_endo, solve_kr32)
from .endo import (build_from_params, degree_of, etale_certificate,
                   map_to_json, params_from_json)
from .family import FamilySpec, ec_equivalent, family_member, family_pairwise_distinct
from .miyanishi import MiyParams, UnsupportedN, miy_b_check, miy_b_find, miy_eta0, miy_lift_check
from .numfield import QQ, field_from_string, json_fields, rationals
from .polyparse import MAX_DEGREE, PolyParseError, parse_poly, print_poly
from .reproduce import default_fixture_dir, reproduce_paper

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(payload: dict, args, text_fn=None) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif text_fn is not None:
        text_fn(payload)
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")


def _load_params(path: str):
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "params" in data:
        data = data["params"]
    return params_from_json(data)


def _degree_arg(value: int, flag: str) -> int:
    if value > MAX_DEGREE:
        raise ValueError(f"{flag} {value} exceeds the bound {MAX_DEGREE}")
    return value


def _cmd_verify_endo(args) -> int:
    params = _load_params(args.params)
    cert = etale_certificate(params)
    payload = {"checks": cert.checks, "verdict": cert.verdict}
    if not cert.verdict:
        payload["failing"] = list(cert.failing())

    def text(p):
        for name, ok in p["checks"].items():
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        print(f"verdict: {p['verdict']}")

    _emit(payload, args, text)
    return EXIT_OK if cert.verdict else EXIT_FALSE


def _cmd_construct(args) -> int:
    if args.what == "chebyshev":
        (lam,) = rationals([args.lam], "--lam")
        params = chebyshev_endo(_degree_arg(args.d, "--d"), QQ.elem(lam))
        payload = {"params": params.to_json()}
        if args.with_map:
            built = build_from_params(params)
            payload["tilde_map"] = map_to_json(built.tilde_map)
    elif args.what == "cyclic-galois":
        params, j = cyclic_galois_endo(args.k, args.eps)
        payload = {"params": params.to_json(), "j": map_to_json(j)}
    else:  # kr32
        candidates = None
        if args.candidates:
            raw = json_fields(json.loads(Path(args.candidates).read_text()),
                              {"candidates": list}, "candidates file")
            names = ("minpoly", "a1", "a2")
            candidates = []
            for cand in raw["candidates"]:
                json_fields(cand, dict.fromkeys(names, list), "candidate")
                candidates.append({name: rationals(cand[name], f"candidate {name!r}")
                                   for name in names})
        sols = solve_kr32(args.d0, candidates)
        payload = {"solutions": [p.to_json() for p in sols]}
    _emit(payload, args)
    return EXIT_OK


def _cmd_family(args) -> int:
    if args.what == "gen":
        if args.base:
            base = _load_params(args.base)
        else:
            base, _ = cyclic_galois_endo(args.k)
        avec = tuple(map(base.field.elem,
                         rationals(json.loads(args.avec), "--avec")))
        spec = FamilySpec(args.k, args.rbar, base, avec)
        member = family_member(spec)
        payload = {"map": map_to_json(member), "degree": degree_of(member)}
        _emit(payload, args)
        return EXIT_OK
    if args.what == "equiv":
        field = field_from_string(args.field) if args.field else QQ
        f1 = parse_poly(args.f1, ("x",), field)
        f2 = parse_poly(args.f2, ("x",), field)
        res = ec_equivalent(f1, f2, args.r)
        payload = {"equivalent": res.equivalent}
        if res.lam is not None:
            payload["lambda"] = str(res.lam)
        if res.lam_pow_r is not None:
            payload["lambda_pow_r"] = str(res.lam_pow_r)
        _emit(payload, args)
        return EXIT_OK if res.equivalent else EXIT_FALSE
    # distinct
    if args.base:
        base = _load_params(args.base)
    else:
        base, _ = cyclic_galois_endo(args.k)
    avecs = json.loads(args.avecs)
    if not isinstance(avecs, list):
        raise ValueError("--avecs must be a list of a-vectors, "
                         f"got {type(avecs).__name__}")
    specs = [FamilySpec(args.k, args.rbar, base,
                        tuple(map(base.field.elem, rationals(av, "an a-vector"))))
             for av in avecs]
    distinct = family_pairwise_distinct(specs)
    _emit({"pairwise_distinct": distinct}, args)
    return EXIT_OK if distinct else EXIT_FALSE


def _cmd_miyanishi(args) -> int:
    if args.what == "find-b":
        try:
            p = miy_b_find(args.n)
        except UnsupportedN as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_FALSE
        field = "QQ" if p.field == QQ else p.field.minpoly_str()
        _emit({"n": p.n, "field": field, "b": print_poly(p.b)}, args)
        return EXIT_OK
    field = field_from_string(args.field) if args.field else QQ
    b = parse_poly(args.b, ("x",), field)
    if args.what == "check":
        bc = miy_b_check(args.n, b)
        payload = {"b_check": bc.ok}
        if bc.ok:
            payload["s"] = print_poly(bc.s)
            report = miy_lift_check(MiyParams(args.n, b))
            payload["lift_checks"] = report.checks
            payload["verdict"] = report.ok
        else:
            payload["verdict"] = False
        _emit(payload, args)
        return EXIT_OK if payload["verdict"] else EXIT_FALSE
    # eta0
    first, second = miy_eta0(MiyParams(args.n, b))
    _emit({"eta0": [print_poly(first), print_poly(second)]}, args)
    return EXIT_OK


def _cmd_chebyshev(args) -> int:
    n = _degree_arg(args.n, "--n")
    poly = chebyshev_T(n) if args.kind == "T" else chebyshev_U(n)
    _emit({"kind": args.kind, "n": args.n, "poly": print_poly(poly)}, args,
          lambda p: print(p["poly"]))
    return EXIT_OK


def _cmd_shabat(args) -> int:
    if args.what == "check-profile":
        text = args.profile
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        data = json_fields(json.loads(text), {"branch_points": list,
                                              "partitions": list, "degree": int},
                           "profile")
        partitions = data["partitions"]
        if not all(isinstance(part, list) and all(
                type(e) is int for e in part) for part in partitions):
            raise ValueError("profile field 'partitions' must be a list of "
                             f"lists of integers, got {reprlib.repr(partitions)}")
        profile = RamificationProfile(
            tuple(map(QQ.elem, rationals(data["branch_points"],
                                         "profile field 'branch_points'"))),
            tuple(map(tuple, partitions)), data["degree"])
        res = thom_feasible(profile)
        _emit({"feasible": res.feasible, "diagnostics": list(res.diagnostics)}, args)
        return EXIT_OK if res.feasible else EXIT_FALSE
    # extract
    field = field_from_string(args.field) if args.field else QQ
    phi = parse_poly(args.poly, ("t",), field)
    prof = extract_profile(phi)
    if isinstance(prof, MoreThanTwoCriticalValues):
        _emit({"result": "MoreThanTwoCriticalValues",
               "parts_found": prof.parts_found,
               "parts_expected": prof.parts_expected}, args)
        return EXIT_FALSE
    _emit({"degree": prof.degree,
           "branch_points": [str(b) for b in prof.branch_points],
           "partitions": [list(p) for p in prof.partitions]}, args)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    fdir = Path(args.fixture_dir) if args.fixture_dir else default_fixture_dir()
    timings = {} if args.timings else None
    start = time.perf_counter()
    report = reproduce_paper(fdir, timings=timings)
    if timings is not None:
        timings["total"] = time.perf_counter() - start
        for name, seconds in timings.items():
            print(f"{name} {seconds:.3f}", file=sys.stderr)

    def text(rep):
        for item in rep["items"]:
            print(f"{item['status']:7s} {item['name']}: {item['detail']}")
        print(f"all_pass: {rep['all_pass']}")

    _emit(report, args, text)
    return EXIT_OK if report["all_pass"] else EXIT_FALSE


def _common_flags(parser, suppress: bool) -> None:
    # the same flags are legal both before and after the subcommand; the
    # after-position copies use SUPPRESS so they never clobber parsed values
    out_default = argparse.SUPPRESS if suppress else "text"
    parser.add_argument("--output", choices=["json", "text"],
                        default=out_default)
    parser.add_argument("--json", dest="output", action="store_const",
                        const="json", default=argparse.SUPPRESS,
                        help="shorthand for --output json")


def build_parser() -> _Parser:
    parser = _Parser(prog="etale-forge",
                     description="Exact certificates and constructions for "
                                 "torus-equivariant etale endomorphisms of "
                                 "pseudo-planes.")
    _common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-endo", help="evaluate the etale certificate")
    p.add_argument("--params", required=True, help="EtaleParams JSON file")
    p.set_defaults(fn=_cmd_verify_endo)
    _common_flags(p, suppress=True)

    p = sub.add_parser("construct", help="closed-form families")
    ps = p.add_subparsers(dest="what", required=True)
    c = ps.add_parser("chebyshev")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--lam", default="1", help="rational lambda (default 1)")
    c.add_argument("--with-map", action="store_true")
    _common_flags(c, suppress=True)
    c = ps.add_parser("cyclic-galois")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--eps", type=int, default=1, help="power of the primitive root")
    _common_flags(c, suppress=True)
    c = ps.add_parser("kr32")
    c.add_argument("--d0", type=int, choices=(1, 2), required=True)
    c.add_argument("--candidates", help="JSON file with candidate (a1, a2) pairs")
    _common_flags(c, suppress=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("family", help="deformation families")
    ps = p.add_subparsers(dest="what", required=True)
    c = ps.add_parser("gen")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--rbar", type=int, required=True)
    c.add_argument("--avec", required=True, help='JSON list, e.g. "[1, 2]"')
    c.add_argument("--base", help="base EtaleParams JSON file (default: cyclic Galois)")
    _common_flags(c, suppress=True)
    c = ps.add_parser("equiv")
    c.add_argument("--f1", required=True)
    c.add_argument("--f2", required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--field", help="minimal polynomial, e.g. 'theta^2 + 2'")
    _common_flags(c, suppress=True)
    c = ps.add_parser("distinct")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--rbar", type=int, required=True)
    c.add_argument("--avecs", required=True, help="JSON list of a-vectors")
    c.add_argument("--base")
    _common_flags(c, suppress=True)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("miyanishi", help="plane endomorphisms lifting to "
                                         "Miyanishi's surface")
    ps = p.add_subparsers(dest="what", required=True)
    c = ps.add_parser("check")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--field")
    _common_flags(c, suppress=True)
    c = ps.add_parser("find-b")
    c.add_argument("--n", type=int, required=True)
    _common_flags(c, suppress=True)
    c = ps.add_parser("eta0")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--field")
    _common_flags(c, suppress=True)
    p.set_defaults(fn=_cmd_miyanishi)

    p = sub.add_parser("chebyshev", help="generate T_n or U_n")
    p.add_argument("kind", choices=["T", "U"])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_chebyshev)
    _common_flags(p, suppress=True)

    p = sub.add_parser("shabat", help="ramification profiles")
    ps = p.add_subparsers(dest="what", required=True)
    c = ps.add_parser("check-profile")
    c.add_argument("profile", help="JSON text or @file")
    _common_flags(c, suppress=True)
    c = ps.add_parser("extract")
    c.add_argument("--poly", required=True, help="polynomial in t")
    c.add_argument("--field")
    _common_flags(c, suppress=True)
    p.set_defaults(fn=_cmd_shabat)

    p = sub.add_parser("reproduce-paper", help="run the full verification report")
    p.add_argument("--fixture-dir")
    p.add_argument("--timings", action="store_true",
                   help="write 'name seconds' per item and the total to stderr")
    p.set_defaults(fn=_cmd_reproduce)
    _common_flags(p, suppress=True)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (PolyParseError, InfeasibleDegree, ValueError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FALSE if isinstance(err, InfeasibleDegree) else EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
