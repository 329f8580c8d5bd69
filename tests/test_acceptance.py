"""Acceptance gate: the twelve criteria, all exact (tolerance = 0).

The report is computed once per module by the same engine the CLI's
reproduce-paper command uses; each criterion asserts its items and prints
one pass/fail line.  Known paper errata (the (3,2) d0 = 1 printed a1 and
the transposed d0 = 2 pair) are machine-verified inside the corresponding
items: the corrected values satisfy the paper's own conditions and
reproduce its printed R0's exactly, while the literal printed values
provably violate them.
"""

import dataclasses
import functools
import json
import shutil
import sys
from pathlib import Path

import pytest

from etale_forge import endo, reproduce
from etale_forge.constructor import chebyshev_endo, cyclic_galois_endo, solve_kr32
from etale_forge.numfield import QQ
from etale_forge.reproduce import build_corpus, default_fixture_dir, reproduce_paper

GOLDEN = Path(__file__).parent / "golden" / "reproduce_paper.json"


@pytest.fixture(scope="module")
def report():
    return reproduce_paper()


def _criterion(report, number, label, item_names):
    by_name = {item["name"]: item for item in report["items"]}
    problems = []
    details = []
    for name in item_names:
        item = by_name[name]
        if item["status"] != "pass":
            problems.append(f"{name} [{item['status']}]: {item['detail']}")
        else:
            details.append(item["detail"])
    verdict = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {number:>2} {label}: {verdict}"
          + (f" ({'; '.join(d for d in details if d)})" if not problems else ""))
    assert not problems, "; ".join(problems)


def test_criterion_01_chebyshev_identity_suite(report):
    _criterion(report, 1, "Chebyshev identities n <= 50",
               ["chebyshev_identities"])


def test_criterion_02_s2_cyclic_galois_fixture(report):
    _criterion(report, 2, "S2 cyclic Galois fixture", ["s2_galois"])


def test_criterion_03_chebyshev_endomorphisms(report):
    _criterion(report, 3, "Chebyshev endomorphisms d in {3,5,7,9}",
               ["cheb_d3", "cheb_d5", "cheb_d7", "cheb_d9",
                "cheb_point_fixture"])


def test_criterion_04_kr32_d0_1_solver(report):
    _criterion(report, 4, "(3,2) d0=1 solver", ["kr32_d01_solver"])


def test_criterion_05_kr32_d0_2_verification(report):
    _criterion(report, 5, "(3,2) d0=2 verification", ["kr32_d02_verification"])


def test_criterion_06_degree_congruence_law(report):
    _criterion(report, 6, "degree congruence law", ["congruence_law"])


def test_criterion_07_factorization_law(report):
    _criterion(report, 7, "factorization through the cover",
               ["factorization_law", "alpha0_k2r2_d4"])


def test_criterion_08_deformation_family(report):
    _criterion(report, 8, "deformation family and cube-root remark",
               ["deformation_family", "remark_cube_roots"])


def test_criterion_09_theta_group_law(report):
    _criterion(report, 9, "shear group law", ["theta_group_law"])


def test_criterion_10_miyanishi(report):
    _criterion(report, 10, "Miyanishi n=2 and n=3",
               ["miyanishi_n2", "miyanishi_n3"])


def test_criterion_11_profile_consistency(report):
    _criterion(report, 11, "profile consistency", ["profile_consistency"])


def test_criterion_12_oracle_cross_validation(report):
    _criterion(report, 12, "certificate vs Jacobian oracle",
               ["oracle_cross_validation", "ramified_nonexample"])


def test_every_report_item_passes(report):
    bad = [(i["name"], i["status"], i["detail"])
           for i in report["items"] if i["status"] != "pass"]
    assert not bad, bad
    assert report["all_pass"]


def test_report_matches_golden_bytes(report):
    # a change that alters the report on purpose regenerates this file with
    # json.dumps(reproduce_paper(), sort_keys=True, indent=2) + "\n"
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert text == GOLDEN.read_text()


def _record_calls(monkeypatch, name, home=reproduce):
    """The argument tuples of every call the report makes to name, the
    function that home binds, through any module of the package that
    binds it."""
    calls = []
    original = getattr(home, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("etale_forge") \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return calls


def test_report_builds_each_corpus_map_once(monkeypatch):
    built = _record_calls(monkeypatch, "build_from_params")
    galois = _record_calls(monkeypatch, "cyclic_galois_endo")
    kr32 = _record_calls(monkeypatch, "solve_kr32")
    oracle = _record_calls(monkeypatch, "jacobian_spotcheck")
    members = _record_calls(monkeypatch, "family_member")
    certificates = _record_calls(monkeypatch, "etale_certificate", endo)
    assert reproduce_paper()["all_pass"]
    # the 22 builds and the 4 solutions that solve_kr32 certifies
    assert len(certificates) == 26
    counts = {name: built.count((params,)) for name, params in build_corpus()}
    assert counts == dict.fromkeys(counts, 1)
    # fixtures and family members included, no parameter set is built twice
    assert len(built) == len(set(built)) == 22
    # one constructor call per distinct argument: k = 2..6 and d0 = 1, 2
    assert sorted(galois) == [(k,) for k in range(2, 7)]
    assert sorted(kr32) == [(1,), (2,)]
    # one verdict per map: the 41 corpus maps (the fixture items share
    # theirs), the 4 family members and the ramified non-example
    assert len(oracle) == len({id(m) for m, in oracle}) == 46
    # the 4 members and the symbolic one
    assert len(members) == 5


def _fixture_copy(tmp_path) -> Path:
    fdir = tmp_path / "fixtures"
    shutil.copytree(default_fixture_dir(), fdir)
    return fdir


def test_an_outside_fixture_map_keeps_its_oracle_check(tmp_path, monkeypatch):
    # lambda = 3 is not in the corpus, so the oracle runs once more
    fdir = _fixture_copy(tmp_path)
    path = fdir / "cheb_d3.json"
    data = json.loads(path.read_text())
    data["params"] = chebyshev_endo(3, QQ.elem(3)).to_json()
    path.write_text(json.dumps(data))
    oracle = _record_calls(monkeypatch, "jacobian_spotcheck")
    by_name = {item["name"]: item for item in reproduce_paper(fdir)["items"]}
    assert by_name["cheb_d3"]["status"] == "pass"
    assert len(oracle) == len({id(m) for m, in oracle}) == 47


@pytest.mark.parametrize("fixture,item", [
    ("s2_galois.json", "s2_galois"),
    ("kr32_d01_plus.json", "kr32_d01_solver"),
    ("kr32_d01_minus.json", "kr32_d01_solver"),
    ("kr32_d02.json", "kr32_d02_verification"),
])
def test_a_flipped_zk_kind_fails_its_item(tmp_path, fixture, item):
    fdir = _fixture_copy(tmp_path)
    path = fdir / fixture
    data = json.loads(path.read_text())
    flip = {"invariant": "equivariant", "equivariant": "invariant"}
    data["expect"]["zk_kind"] = flip[data["expect"]["zk_kind"]]
    path.write_text(json.dumps(data))
    by_name = {i["name"]: i for i in reproduce_paper(fdir)["items"]}
    assert by_name[item]["status"] == "fail"
    assert by_name[item]["detail"].startswith("zk ")
    assert [name for name, i in by_name.items() if i["status"] != "pass"] == [item]


def _run_item(item: str, fdir: Path) -> dict:
    """The one report item that reads the fixtures of fdir, run alone."""
    build, oracle = endo.build_from_params, endo.jacobian_spotcheck
    runs = {
        "s2_galois": lambda: reproduce._check_s2_galois(fdir, build, cyclic_galois_endo),
        "kr32_d01_solver": lambda: reproduce._check_kr32_solver(fdir, build, solve_kr32),
        "kr32_d02_verification": lambda: reproduce._check_kr32_d02(fdir, build),
        "deformation_family": lambda: reproduce._check_family(fdir, build, oracle),
    }
    run = runs.get(item) or (lambda: reproduce._verify_params_fixture(
        reproduce._load(fdir, f"{item}.json"), build, oracle))
    return reproduce._item(item, run)


# (fixture, key path, changed value, the item that reads it)
FIXTURE_VALUES = [
    ("s2_galois.json", ("expect", "degree"), 3, "s2_galois"),
    ("s2_galois.json", ("expect", "has_hyper"), False, "s2_galois"),
    ("kr32_d01_plus.json", ("expect", "degree"), 5, "kr32_d01_solver"),
    ("kr32_d01_minus.json", ("expect", "degree"), 5, "kr32_d01_solver"),
    ("kr32_d01_plus.json", ("paper_R0",), "(6 + 12*theta)*t + (8 - 5*theta)",
     "kr32_d01_solver"),
    ("kr32_d01_minus.json", ("paper_R0",), "(6 - 12*theta)*t + (8 + 5*theta)",
     "kr32_d01_solver"),
    ("kr32_d02.json", ("expect", "degree"), 8, "kr32_d02_verification"),
    ("family_s2.json", ("point", "member"), 1, "deformation_family"),
] + [(f"{item}.json", ("expect", "has_hyper"), False, item)
     for item in ("galois_k3", "cheb_d3", "cheb_d5", "cheb_d7", "cheb_d9", "alpha0_k2r2_d4")]


@pytest.mark.parametrize("fixture,keys,value,item", FIXTURE_VALUES)
def test_a_changed_fixture_value_fails_its_item(tmp_path, fixture, keys, value, item):
    fdir = _fixture_copy(tmp_path)
    assert _run_item(item, fdir)["status"] == "pass"
    path = fdir / fixture
    data = json.loads(path.read_text())
    *parents, last = keys
    node = functools.reduce(lambda d, key: d[key], parents, data)
    assert node[last] != value
    node[last] = value
    path.write_text(json.dumps(data))
    assert _run_item(item, fdir)["status"] == "fail"


def test_failed_corpus_build_fails_both_corpus_items(monkeypatch):
    def tampered_corpus(*constructors):
        corpus = build_corpus(*constructors)
        name, params = corpus[-1]
        corpus[-1] = (name, dataclasses.replace(params, R2=params.R2 + 1))
        return corpus

    name = build_corpus()[-1][0]
    monkeypatch.setattr(reproduce, "build_corpus", tampered_corpus)
    by_name = {item["name"]: item for item in reproduce_paper()["items"]}
    for item in ("profile_consistency", "oracle_cross_validation"):
        assert by_name[item]["status"] == "fail"
        assert by_name[item]["detail"].startswith(f"{name}: CertificateRequired")
