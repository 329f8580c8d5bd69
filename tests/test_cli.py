"""End-to-end CLI tests executing the binary for every subcommand path."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from etale_forge.polyparse import MAX_DEGREE
from etale_forge.reproduce import default_fixture_dir

CLI = [sys.executable, "-m", "etale_forge.cli"]
GOLDEN = Path(__file__).parent / "golden" / "reproduce_paper.json"


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


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


def test_construct_cyclic_galois():
    res = run_cli("construct", "cyclic-galois", "--k", "2", "--json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["j"]["coords"] == ["w", "4*v", "2*u*v + 1"]
    assert data["params"]["R0"] == "4"


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
    (["chebyshev", "T", "--n", str(MAX_DEGREE + 1)], {}, "--n"),
], ids=["other-fixture", "missing-field", "not-an-object", "avecs-not-nested",
        "avec-not-a-list", "profile-missing-field", "profile-not-an-object",
        "profile-partition-not-int", "candidates-not-an-object",
        "candidate-missing-a1", "lam-zero-denominator", "d-above-cap",
        "n-above-cap"])
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
    timed = run_cli("reproduce-paper", "--json", "--timings")
    assert plain.returncode == timed.returncode == 0
    assert timed.stdout == plain.stdout          # byte-identical report
    assert plain.stdout == GOLDEN.read_text()
    assert plain.stderr == ""
    names = [item["name"] for item in json.loads(plain.stdout)["items"]]
    rows = [line.split() for line in timed.stderr.splitlines()]
    assert [name for name, _ in rows] == names + ["total"]
    assert all(float(seconds) >= 0 for _, seconds in rows)
