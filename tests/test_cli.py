"""End-to-end CLI tests for every subcommand path.

Most cases call cli.run in-process with stdout and stderr captured; a few
run `python -m etale_forge.cli` to cover the entry point, its exit codes and
the --timings stream.
"""

import ast
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from etale_forge import cli
from etale_forge.numfield import QQ
from etale_forge.polyalg import Poly
from etale_forge.polyparse import (MAX_CONSTANT_BITS, MAX_DEGREE, MAX_FIELD_DEGREE,
                                   MAX_NESTING, print_poly)
from etale_forge.reproduce import default_fixture_dir

CLI = [sys.executable, "-m", "etale_forge.cli"]
# children import the etale_forge under test first, not another copy that
# their inherited PYTHONPATH may name
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))}
# a field of the degree just above MAX_FIELD_DEGREE, as text and as a
# constant-first coefficient list
FIELD_TOO_BIG = f"theta^{MAX_FIELD_DEGREE + 1} + theta + 1"
MINPOLY_TOO_BIG = [1, 1] + [0] * (MAX_FIELD_DEGREE - 1) + [1]
GOLDEN = Path(__file__).parent / "golden" / "reproduce_paper.json"
VERIFY_ENDO_GOLDEN = Path(__file__).parent / "golden" / "verify_endo.json"
FAMILY_GOLDEN = Path(__file__).parent / "golden" / "family_cli.json"
BIG_FIELD_CONSTANT = "1000000000000000000007"
BIG_FIELD = f"theta^2 + {BIG_FIELD_CONSTANT}"
# a certified parameter document, varied into the hostile ones below
_CHEB_D3 = json.loads((default_fixture_dir() / "cheb_d3.json").read_text())["params"]
_BAD_BASE = {"k": 2, "r": 2, "a": 1, "alpha": 0, "d": 2, "field": "QQ", "lambda": ["1"],
             "R0": "5", "R1": "-2*t + 1", "R2": "1"}


def run_cli(*args):
    """cli.run(args) in-process, with the fields of a finished subprocess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(),
                           stderr=err.getvalue())


def run_module(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=CHILD_ENV)


def test_module_entry_point_exit_codes():
    res = run_module("chebyshev", "T", "--n", "5")
    assert (res.returncode, res.stdout, res.stderr) == (0, "16*x^5 - 20*x^3 + 5*x\n", "")
    res = run_module("family", "equiv", "--f1", "1 + x^2", "--f2", "1 + 2*x^2",
                     "--r", "2")
    assert res.returncode == 2
    res = run_module("construct", "chebyshev")           # missing --d
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.splitlines()[-1].startswith("error: ")


def test_output_flags_before_and_after_the_subcommand():
    res = run_cli("--json", "chebyshev", "T", "--n", "2")
    assert json.loads(res.stdout)["poly"] == "2*x^2 - 1"
    res = run_cli("chebyshev", "T", "--n", "2", "--output", "json")
    assert json.loads(res.stdout)["poly"] == "2*x^2 - 1"
    # the later flag wins, in either position
    res = run_cli("--json", "chebyshev", "T", "--n", "2", "--output", "text")
    assert res.stdout == "2*x^2 - 1\n"
    res = run_cli("--output", "text", "construct", "cyclic-galois", "--k", "2",
                  "--json")
    assert json.loads(res.stdout)["params"]["R0"] == "4"
    res = run_cli("chebyshev", "T", "--n", "2")
    assert res.stdout == "2*x^2 - 1\n"


def test_chebyshev_subcommands():
    res = run_cli("chebyshev", "T", "--n", "5")
    assert res.returncode == 0
    assert res.stdout.strip() == "16*x^5 - 20*x^3 + 5*x"
    res = run_cli("chebyshev", "U", "--n", "2", "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["poly"] == "4*x^2 - 1"


def test_construct_chebyshev_and_determinism():
    r1 = run_cli("construct", "chebyshev", "--d", "3", "--json")
    r2 = run_cli("construct", "chebyshev", "--d", "3", "--json")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout          # byte-identical
    params = json.loads(r1.stdout)["params"]
    assert params["d"] == 3 and params["R1"] == "-4*t + 1"
    res = run_cli("construct", "chebyshev", "--d", "3", "--with-map", "--json")
    coords = json.loads(res.stdout)["tilde_map"]["coords"]
    assert coords == ["4*x*z^2 - x", "y", "4*z^3 - 3*z"]
    # infeasible degree: verdict-false exit
    res = run_cli("construct", "chebyshev", "--d", "4")
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr == "error: d = 4 is not 1 mod 2\n"


def test_construct_cyclic_galois():
    res = run_cli("construct", "cyclic-galois", "--k", "2", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["j"]["coords"] == ["w", "4*v", "2*u*v + 1"]
    assert data["params"]["R0"] == "4"


def test_cyclic_galois_k_at_the_field_bound(tmp_path):
    # phi(17) = MAX_FIELD_DEGREE: the document reads back and certifies
    assert MAX_FIELD_DEGREE == 16
    res = run_cli("construct", "cyclic-galois", "--k", "17", "--json")
    assert res.returncode == 0
    doc = tmp_path / "k17.json"
    doc.write_text(res.stdout)
    res = run_cli("verify-endo", "--params", str(doc), "--json")
    assert res.returncode == 0 and json.loads(res.stdout)["verdict"] is True


def test_construct_kr32(tmp_path):
    res = run_cli("construct", "kr32", "--d0", "1", "--json")
    assert res.returncode == 0
    sols = json.loads(res.stdout)["solutions"]
    assert len(sols) == 2 and all(s["d"] == 4 for s in sols)
    res = run_cli("construct", "kr32", "--d0", "2", "--json")
    assert len(json.loads(res.stdout)["solutions"]) == 1
    # custom candidate file: the printed (transposed) pair verifies to nothing
    cand = tmp_path / "cands.json"
    cand.write_text(json.dumps({"candidates": [{
        "minpoly": ["7", "0", "1"],
        "a1": ["87/24", "91/24"],
        "a2": ["-139/24", "-63/24"]}]}))
    res = run_cli("construct", "kr32", "--d0", "2", "--candidates", str(cand), "--json")
    assert json.loads(res.stdout)["solutions"] == []
    cand.write_text(json.dumps({"candidates": [{
        "minpoly": [BIG_FIELD_CONSTANT, "0", "1"], "a1": ["1", "0"], "a2": ["0", "1"]}]}))
    res = run_cli("construct", "kr32", "--d0", "2", "--candidates", str(cand), "--json")
    assert res.returncode == 0 and json.loads(res.stdout)["solutions"] == []


def test_verify_endo_fixture_and_tampered(tmp_path):
    fixture = default_fixture_dir() / "s2_galois.json"
    res = run_cli("verify-endo", "--params", str(fixture))
    assert res.returncode == 0
    assert "verdict: True" in res.stdout
    data = json.loads(fixture.read_text())
    data["params"]["R2"] = "t + 1"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    res = run_cli("verify-endo", "--params", str(bad), "--json")
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert payload["verdict"] is False
    assert "C1_identity" in payload["failing"]
    assert payload["witness"] == {
        "C1_identity": "-4*t^4 - 4*t^3 + 8*t^2",
        "C2_degrees": {"expected": ["0", "1", "0"], "actual": [0, 1, 1]}}
    res = run_cli("verify-endo", "--params", str(fixture), "--json")
    assert "witness" not in json.loads(res.stdout)


def _degree199_document() -> dict:
    """A document whose (1-t)*R0*R1*R2 has degree 199 and is separable; the
    exact gcd of it against its derivative takes seconds, the test modulo a
    prime does not."""
    t = Poly.variable("t", QQ)
    return {"params": {
        **_CHEB_D3, "R0": print_poly((2 + t) ** 66 + t), "R1": print_poly((3 + t) ** 66 + t),
        "R2": print_poly((1 + t) ** 66 + 2 * t)}}


def test_verify_endo_decides_a_degree_199_separability_quickly(tmp_path):
    doc = tmp_path / "deg199.json"
    doc.write_text(json.dumps(_degree199_document()))
    res = run_cli("verify-endo", "--params", str(doc), "--json")
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert payload["checks"]["C3_separability"] is True
    assert "C3_separability" not in payload["failing"]


def _verify_endo_documents() -> list:
    """(name, document) for the verify-endo golden file: every fixture, a
    C1- and a C3-tampered copy of each that holds parameters (2*R0 breaks
    C1 alone; R0*R1 squares R1 in the C3 product), and the degree-199
    document."""
    docs = []
    for path in sorted(default_fixture_dir().glob("*.json")):
        data = json.loads(path.read_text())
        docs.append([path.stem, data])
        if "params" in data:
            p = data["params"]
            docs.append([f"{path.stem}~C1", {"params": {**p, "R0": f"2*({p['R0']})"}}])
            docs.append([f"{path.stem}~C3",
                         {"params": {**p, "R0": f"({p['R0']})*({p['R1']})"}}])
    return docs + [["degree199", _degree199_document()]]


def _verify_endo_replay(tmp_path, docs) -> list:
    """[name, document, exit code, stdout] of verify-endo --json per document."""
    out = []
    for name, data in docs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        res = run_cli("verify-endo", "--params", str(path), "--json")
        out.append([name, data, res.returncode, res.stdout])
    return out


def test_verify_endo_output_matches_golden(tmp_path):
    # verdicts, witnesses and exit codes, byte for byte
    golden = json.loads(VERIFY_ENDO_GOLDEN.read_text())
    docs = _verify_endo_documents()
    assert [[name, data] for name, data, _, _ in golden] == docs
    assert _verify_endo_replay(tmp_path, docs) == golden


S2_AVECS = ("[]", "[1]", "[2]", "[1, 1]")


def _family_argv() -> list:
    """The argv of the family golden file: family gen on the default base
    for k = 2..5, on family_s2.json as given (not a parameter document) and
    on its base alone (TMP/s2_base.json), and the README's family distinct."""
    argv = [["family", "gen", "--k", str(k), "--rbar", "1", "--avec", avec, "--json"]
            for k in (2, 3, 4, 5) for avec in S2_AVECS]
    argv.append(["family", "gen", "--k", "2", "--rbar", "1", "--avec", "[1]",
                 "--base", "FIXTURES/family_s2.json", "--json"])
    argv += [["family", "gen", "--k", "2", "--rbar", "1", "--avec", avec,
              "--base", "TMP/s2_base.json", "--json"] for avec in S2_AVECS]
    readme = ["family", "distinct", "--k", "2", "--rbar", "1",
              "--avecs", "[[], [1], [2], [1, 1]]"]
    return argv + [readme, readme + ["--json"],
                   readme + ["--base", "TMP/s2_base.json", "--json"]]


def _family_replay(tmp_path) -> list:
    """[argv, exit code, stdout, stderr] of each argv of _family_argv."""
    base = json.loads((default_fixture_dir() / "family_s2.json").read_text())["base"]
    (tmp_path / "s2_base.json").write_text(json.dumps(base))
    out = []
    for argv in _family_argv():
        res = run_cli(*(a.replace("FIXTURES", str(default_fixture_dir()))
                        .replace("TMP", str(tmp_path)) for a in argv))
        out.append([argv, res.returncode, res.stdout,
                    res.stderr.replace(str(tmp_path), "TMP")])
    return out


def test_family_output_matches_golden(tmp_path):
    # members, degrees, decisions and errors, byte for byte
    golden = json.loads(FAMILY_GOLDEN.read_text())
    assert [argv for argv, *_ in golden] == _family_argv()
    assert _family_replay(tmp_path) == golden


def test_verify_endo_rejects_an_oversized_c1_at_once(tmp_path):
    # a parser-valid document whose failing C1 held the certificate for minutes
    doc = tmp_path / "c1.json"
    doc.write_text(json.dumps({**_CHEB_D3, "r": 999, "d": 1999, "lambda": ["1"],
                               "R0": "1", "R1": "1 - t",
                               "R2": "123456789012345678901234567890*t + 1"}))
    start = time.perf_counter()
    res = run_cli("verify-endo", "--params", str(doc), "--json")
    assert time.perf_counter() - start < 1
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("error: the coefficients of C1 may have ")


def test_seed_flag_is_a_usage_error():
    fixture = default_fixture_dir() / "cheb_d3.json"
    res = run_cli("--seed", "1", "verify-endo", "--params", str(fixture), "--json")
    assert res.returncode == 1
    assert res.stdout == ""


def test_family_gen_equiv_distinct():
    res = run_cli("family", "gen", "--k", "2", "--rbar", "1", "--avec", "[]",
                  "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["degree"] == 2
    assert data["map"]["coords"][0] == "w^2"
    res = run_cli("family", "equiv", "--f1", "1 + x^2", "--f2", "1 + x^2",
                  "--r", "2", "--json")
    assert res.returncode == 0 and json.loads(res.stdout)["equivalent"]
    res = run_cli("family", "equiv", "--f1", "1 + x^2", "--f2", "1 + 2*x^2",
                  "--r", "2")
    assert res.returncode == 2
    res = run_cli("family", "distinct", "--k", "2", "--rbar", "1",
                  "--avecs", "[[], [1], [2], [1, 1]]", "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["pairwise_distinct"] is True
    res = run_cli("family", "distinct", "--k", "2", "--rbar", "1",
                  "--avecs", "[[1], [1, 0]]")
    assert res.returncode == 2


def test_family_avec_at_the_degree_bound_is_accepted():
    # 500 entries give F = 1 + x^2 + ... + x^1000 of degree MAX_DEGREE
    at_bound = [1] * (MAX_DEGREE // 2)
    res = run_cli("family", "gen", "--k", "2", "--rbar", "1",
                  "--avec", json.dumps(at_bound), "--json")
    assert res.returncode == 0 and json.loads(res.stdout)["degree"] == 2
    res = run_cli("family", "distinct", "--k", "2", "--rbar", "1",
                  "--avecs", json.dumps([[1], at_bound]), "--json")
    assert res.returncode == 0 and json.loads(res.stdout)["pairwise_distinct"]


def test_miyanishi_subcommands():
    res = run_cli("miyanishi", "find-b", "--n", "2", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["field"] == "theta^2 + 1"
    res = run_cli("miyanishi", "check", "--n", "2", "--b", "theta",
                  "--field", "theta^2 + 1", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] and payload["s"] == "1/2*x"
    res = run_cli("miyanishi", "check", "--n", "2", "--b", "1")
    assert res.returncode == 2
    res = run_cli("miyanishi", "eta0", "--n", "2", "--b", "theta",
                  "--field", "theta^2 + 1", "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["eta0"][0] == "2*x^2 - 1"
    res = run_cli("miyanishi", "find-b", "--n", "4")
    assert res.returncode == 2


def test_shabat_subcommands():
    res = run_cli("shabat", "extract", "--poly", "4*t - 4*t^2", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["partitions"] == [[1, 1], [2]]
    res = run_cli("shabat", "extract", "--poly", "t^3 - 4*t^2 + 3*t")
    assert res.returncode == 2
    # a 22-digit constant term: the irreducibility gate does not factor it
    res = run_cli("shabat", "extract", "--poly", "t^2", "--field", BIG_FIELD, "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["partitions"] == [[2], [1, 1]]
    profile = json.dumps({"degree": 3, "branch_points": ["0", "1"],
                          "partitions": [[2, 1], [2, 1]]})
    res = run_cli("shabat", "check-profile", profile)
    assert res.returncode == 0
    bad = json.dumps({"degree": 4, "branch_points": ["0", "1"],
                      "partitions": [[4], [2, 2]]})
    res = run_cli("shabat", "check-profile", bad, "--json")
    assert res.returncode == 2
    assert "condition (2)" in json.loads(res.stdout)["diagnostics"][0]


def test_usage_errors_exit_one():
    res = run_cli("construct", "chebyshev")           # missing --d
    assert res.returncode == 1
    res = run_cli("no-such-command")
    assert res.returncode == 1
    res = run_cli("family", "equiv", "--f1", "2x", "--f2", "1", "--r", "2")
    assert res.returncode == 1                        # parse error in input


@pytest.mark.parametrize("argv,docs,names", [
    (["verify-endo", "--params", "FIXTURES/miy_n2.json"], {}, "'k'"),
    (["verify-endo", "--params", "TMP/k2.json"], {"k2.json": '{"k": 2}'}, "'r'"),
    (["verify-endo", "--params", "TMP/list.json"], {"list.json": "[1, 2]"}, "object"),
    (["family", "distinct", "--k", "2", "--rbar", "1", "--avecs", "[1]"], {}, "a-vector"),
    (["family", "gen", "--k", "2", "--rbar", "1", "--avec", "{}"], {}, "--avec"),
    (["shabat", "check-profile", '{"degree": 3}'], {}, "'branch_points'"),
    (["shabat", "check-profile", "[1]"], {}, "object"),
    (["shabat", "check-profile",
      '{"branch_points": [0], "partitions": [["1"]], "degree": 1}'], {}, "'partitions'"),
    (["construct", "kr32", "--d0", "1", "--candidates", "TMP/c.json"],
     {"c.json": "[1]"}, "object"),
    (["construct", "kr32", "--d0", "1", "--candidates", "TMP/c.json"],
     {"c.json": '{"candidates": [{"minpoly": [7, 0, 1], "a2": [1, 2]}]}'}, "'a1'"),
    (["construct", "chebyshev", "--d", "3", "--lam", "1/0"], {}, "--lam"),
    (["construct", "chebyshev", "--d", str(MAX_DEGREE + 1)], {}, "--d"),
    (["construct", "chebyshev", "--d", "0"], {}, "d must be a positive integer"),
    (["construct", "chebyshev", "--d=-3"], {}, "d must be a positive integer"),
    (["chebyshev", "T", "--n", str(MAX_DEGREE + 1)], {}, "--n"),
    (["miyanishi", "check", "--n", "100000", "--b", "1"], {}, "--n"),
    (["miyanishi", "eta0", "--n", "100000", "--b", "1"], {}, "--n"),
    (["miyanishi", "find-b", "--n", "1"], {}, "n must be >= 2"),
    # phi(37) = 36 and phi(61) = 60; 10^30 is refused without counting
    (["construct", "cyclic-galois", "--k", "37"], {}, f"bound {MAX_FIELD_DEGREE}"),
    (["construct", "cyclic-galois", "--k", str(10 ** 30)], {}, "--k"),
    (["family", "gen", "--k", "61", "--rbar", "1", "--avec", "[1]"], {}, "--k"),
    (["family", "distinct", "--k", "100", "--rbar", "1", "--avecs", "[[1]]"], {},
     "--k"),
    # F = 1 + sum a_i x^(2i) would have degree 1002
    (["family", "gen", "--k", "2", "--rbar", "1", "--avec", json.dumps([1] * 501)], {},
     f"F of degree 1002, which exceeds the bound {MAX_DEGREE}"),
    (["family", "distinct", "--k", "2", "--rbar", "1",
      "--avecs", json.dumps([[1], [1] * 501])], {},
     f"F of degree 1002, which exceeds the bound {MAX_DEGREE}"),
    (["shabat", "extract", "--poly", "t", "--field", FIELD_TOO_BIG], {},
     f"bound {MAX_FIELD_DEGREE}"),
    (["verify-endo", "--params", "TMP/p.json"],
     {"p.json": json.dumps({"k": 2, "r": 2, "a": 1, "alpha": 0, "d": 2,
                            "field": FIELD_TOO_BIG, "lambda": ["1"],
                            "R0": "4", "R1": "1", "R2": "1"})},
     f"bound {MAX_FIELD_DEGREE}"),
    (["construct", "kr32", "--d0", "2", "--candidates", "TMP/c.json"],
     {"c.json": json.dumps({"candidates": [{"minpoly": MINPOLY_TOO_BIG,
                                            "a1": [1], "a2": [1]}]})},
     f"bound {MAX_FIELD_DEGREE}"),
    # four allowed powers whose product has degree 4000
    (["shabat", "extract", "--poly", "*".join(["(1+t)^1000"] * 4)], {},
     f"product of degree 2000 exceeds the bound {MAX_DEGREE}"),
    (["shabat", "extract", "--poly", "t", "--field", "theta^2 - 10^40"], {},
     "is reducible over Q"),
    (["shabat", "extract", "--poly", "(" * 400 + "t" + ")" * 400], {},
     f"bound {MAX_NESTING} (offset {MAX_NESTING})"),
    (["shabat", "extract", "--poly=" + "-" * 3000 + "t"], {},
     f"bound {MAX_NESTING} (offset {MAX_NESTING})"),
    (["shabat", "extract", "--poly", "((10^10)^100)^100*t"], {},
     f"bound {MAX_CONSTANT_BITS}"),
    # C1 would expand R1^100001 and R2^100000
    (["verify-endo", "--params", "TMP/p.json"],
     {"p.json": json.dumps({**_CHEB_D3, "k": 100001, "d": 100001, "R1": "1 - 4*t"})},
     f"'k' = 100001 exceeds the bound {MAX_DEGREE}"),
    (["verify-endo", "--params", "TMP/p.json"],
     {"p.json": json.dumps({**_CHEB_D3, "r": 100000, "R2": "1 + t"})},
     f"'r' = 100000 exceeds the bound {MAX_DEGREE}"),
    (["verify-endo", "--params", "TMP/p.json"],
     {"p.json": json.dumps({**_CHEB_D3, "R2": "1 + t^600"})},
     f"C1 of degree 1201 exceeds the bound {MAX_DEGREE}"),
    (["verify-endo", "--params", "TMP/p.json"],
     {"p.json": json.dumps({**_CHEB_D3, "field": "t^2 + 2", "lambda": ["3", "0"]})},
     "generator 't' is also a variable"),
    # str.isdigit accepts '²' but int() does not; only ASCII 0-9 are digits
    (["shabat", "extract", "--poly", "t^²"], {}, "unexpected character '²' (offset 2)"),
    # the k = 2 cyclic Galois base with R0 = 5 fails C1
    (["family", "distinct", "--k", "2", "--rbar", "1", "--avecs", "[[1],[2]]",
      "--base", "TMP/bad.json"], {"bad.json": json.dumps(_BAD_BASE)},
     "certificate verdict false; failing: C1_identity"),
    (["family", "gen", "--k", "2", "--rbar", "1", "--avec", "[1]",
      "--base", "TMP/bad.json"], {"bad.json": json.dumps(_BAD_BASE)},
     "certificate verdict false; failing: C1_identity"),
    # the base is checked before any a-vector is read, so also with none
    (["family", "distinct", "--k", "2", "--rbar", "2", "--avecs", "[]"], {},
     "base parameters are for tilde(2,2)"),
    # the output of construct chebyshev --d 3 --json: alpha = 1, so no j
    (["family", "distinct", "--k", "2", "--rbar", "1", "--avecs", "[]",
      "--base", "TMP/cheb3.json"], {"cheb3.json": json.dumps({"params": _CHEB_D3})},
     "family base must have alpha = 0, a = 1"),
], ids=["other-fixture", "missing-field", "not-an-object", "avecs-not-nested",
        "avec-not-a-list", "profile-missing-field", "profile-not-an-object",
        "profile-partition-not-int", "candidates-not-an-object",
        "candidate-missing-a1", "lam-zero-denominator", "d-above-cap", "d-zero",
        "d-negative",
        "n-above-cap", "miyanishi-check-n-above-cap", "miyanishi-eta0-n-above-cap",
        "miyanishi-find-b-n-below-two",
        "cyclic-galois-k-above-cap", "cyclic-galois-k-huge", "family-gen-k-above-cap",
        "family-distinct-k-above-cap", "family-gen-avec-above-cap",
        "family-distinct-avec-above-cap", "field-text-above-cap", "document-field-above-cap",
        "candidate-minpoly-above-cap", "product-above-cap", "field-reducible",
        "parentheses-above-cap", "minus-signs-above-cap", "constant-power-above-cap",
        "document-k-above-cap", "document-r-above-cap", "document-c1-above-cap",
        "generator-named-like-a-variable", "superscript-digit-exponent",
        "family-distinct-uncertified-base", "family-gen-uncertified-base",
        "family-distinct-no-avecs-other-base", "family-distinct-no-avecs-alpha1-base"])
def test_malformed_input_is_one_error_line(tmp_path, argv, docs, names):
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("FIXTURES", str(default_fixture_dir())).replace("TMP", str(tmp_path))
            for a in argv]
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0]


# run in a fresh interpreter, since this one has imported every module
_LOADED = """
import contextlib, io, sys
from etale_forge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(name for name in sys.modules if name.startswith("etale_forge.")))
"""


@pytest.mark.parametrize("argv,loaded", [
    ([], set()),
    (["chebyshev", "T", "--n", "2"], {"chebyshab"}),
    (["miyanishi", "find-b", "--n", "2"], {"chebyshab", "miyanishi"}),
    (["verify-endo", "--params", "FIXTURES/s2_galois.json"], {"endo", "surface"}),
], ids=["import", "chebyshev", "miyanishi", "verify-endo"])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    argv = [a.replace("FIXTURES", str(default_fixture_dir())) for a in argv]
    res = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                         capture_output=True, text=True, check=True, env=CHILD_ENV)
    shared = {"cli", "dense", "numfield", "polyalg", "polyparse"}
    assert res.stdout.split() == ["0"] + sorted(f"etale_forge.{m}"
                                                for m in shared | loaded)


# the README's load order: a module imports only modules of lower rank
LOAD_ORDER = {"dense": 0, "numfield": 1, "polyalg": 2, "polyparse": 3, "chebyshab": 3,
              "surface": 3, "endo": 4, "miyanishi": 4, "constructor": 5,
              "family": 6, "reproduce": 7}


def _top_level_imports(module: str) -> set:
    """The package modules a module imports at load time."""
    tree = ast.parse((Path(cli.__file__).parent / f"{module}.py").read_text())
    return {node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_modules_import_in_the_load_order():
    package = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
    assert package == set(LOAD_ORDER) | {"cli", "__init__"}
    for module, rank in LOAD_ORDER.items():
        for imported in _top_level_imports(module):
            assert LOAD_ORDER[imported] < rank, f"{module} imports {imported}"
    assert _top_level_imports("cli") <= {"numfield", "polyparse"}


@pytest.mark.slow
def test_reproduce_paper_with_missing_fixture(tmp_path):
    trimmed = tmp_path / "fixtures"
    shutil.copytree(default_fixture_dir(), trimmed)
    (trimmed / "miy_n3.json").unlink()
    res = run_cli("reproduce-paper", "--fixture-dir", str(trimmed), "--json")
    assert res.returncode == 2
    report = json.loads(res.stdout)
    by_name = {i["name"]: i for i in report["items"]}
    assert by_name["miyanishi_n3"]["status"] == "missing"
    assert "miy_n3.json" in by_name["miyanishi_n3"]["detail"]
    assert by_name["miyanishi_n2"]["status"] == "pass"
    assert report["all_pass"] is False


@pytest.mark.slow
def test_reproduce_paper_timings_go_to_stderr():
    plain = run_cli("reproduce-paper", "--json")
    timed = run_module("reproduce-paper", "--json", "--timings")
    assert plain.returncode == timed.returncode == 0
    assert timed.stdout == plain.stdout          # byte-identical report
    assert plain.stdout == GOLDEN.read_text()
    assert plain.stderr == ""
    names = [item["name"] for item in json.loads(plain.stdout)["items"]]
    rows = [line.split() for line in timed.stderr.splitlines()]
    assert [name for name, _ in rows] == names + ["total"]
    assert all(float(seconds) >= 0 for _, seconds in rows)
