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
import json
from pathlib import Path

import pytest

from etale_forge import reproduce
from etale_forge.reproduce import build_corpus, reproduce_paper

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


def test_report_builds_each_corpus_map_once(monkeypatch):
    built = []
    original = reproduce.build_from_params

    def counting(params):
        built.append(params)
        return original(params)

    monkeypatch.setattr(reproduce, "build_from_params", counting)
    assert reproduce_paper()["all_pass"]
    counts = {name: built.count(params) for name, params in build_corpus()}
    assert counts == dict.fromkeys(counts, 1)


def test_failed_corpus_build_fails_both_corpus_items(monkeypatch):
    def tampered_corpus():
        corpus = build_corpus()
        name, params = corpus[-1]
        corpus[-1] = (name, dataclasses.replace(params, R2=params.R2 + 1))
        return corpus

    name = build_corpus()[-1][0]
    monkeypatch.setattr(reproduce, "build_corpus", tampered_corpus)
    by_name = {item["name"]: item for item in reproduce_paper()["items"]}
    for item in ("profile_consistency", "oracle_cross_validation"):
        assert by_name[item]["status"] == "fail"
        assert by_name[item]["detail"].startswith(f"{name}: CertificateRequired")
