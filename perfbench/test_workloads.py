"""Self-tests of the benchmark's output checks and span accounting.

    python3 -m pytest perfbench/test_workloads.py
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mzvkit.cli import main as cli_main  # noqa: E402
from mzvkit.maps import word_to_index  # noqa: E402
from mzvkit.ncpoly import NcPoly  # noqa: E402
from trace_child import summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    check_certificates,
    check_reports,
    check_residual,
    reference_residual,
    residual_input,
    word_parts,
)

WEIGHT = 5


def nonzero_cases(data):
    """Indices of the certificates whose target is not zero."""
    return [i for i, e in enumerate(data) if e["certificate"]["target"]["terms"]]


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "certs.json"
    assert cli_main(["verify", "corollary", "--weight", str(WEIGHT), "--certificates", str(path)]) == 0
    return json.loads(path.read_text())


def test_certificates_pass(certificates):
    stats = check_certificates(certificates, WEIGHT)
    assert stats["span.cert_terms"] > 0
    assert stats["span.cert_coeff_bits"] >= 1


def test_tampered_coefficient_is_rejected(certificates):
    data = copy.deepcopy(certificates)
    term = data[nonzero_cases(data)[0]]["certificate"]["combination"][0]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    with pytest.raises(CheckFailed, match="does not verify"):
        check_certificates(data, WEIGHT)


def test_swapped_target_is_rejected(certificates):
    data = copy.deepcopy(certificates)
    # Each certificate still verifies on its own, but two of them now claim
    # each other's (m, l) case.
    i, j = nonzero_cases(data)[:2]
    data[i]["certificate"], data[j]["certificate"] = data[j]["certificate"], data[i]["certificate"]
    with pytest.raises(CheckFailed, match="another target"):
        check_certificates(data, WEIGHT)


def test_missing_case_is_rejected(certificates):
    with pytest.raises(CheckFailed, match="cases"):
        check_certificates(certificates[:-1], WEIGHT)


def test_failed_report_is_rejected():
    reports = [{"name": "duality-k1", "order": 8, "passed": False}]
    with pytest.raises(CheckFailed, match="not passed"):
        check_reports(reports, [("duality-k1", 8)])


def test_report_order_must_match():
    reports = [{"name": "duality-k1", "order": 7, "passed": True}]
    with pytest.raises(CheckFailed, match="differ"):
        check_reports(reports, [("duality-k1", 8)])


def test_residual_checks():
    reference = (-0.5, 1.0)
    assert check_residual({"value": "-0.5", "cutoff": 10, "tail_bound": "1.0"}, 10, reference)
    with pytest.raises(CheckFailed, match="exceeds"):
        check_residual({"value": "2.0", "cutoff": 10, "tail_bound": "1.0"}, 10, reference)
    with pytest.raises(CheckFailed, match="non-finite"):
        check_residual({"value": "nan", "cutoff": 10, "tail_bound": "1.0"}, 10, reference)
    with pytest.raises(CheckFailed, match="differs from the reference"):
        check_residual({"value": "0.0", "cutoff": 10, "tail_bound": "1.0"}, 10, reference)


def residual_artifact(tmp_path, poly: NcPoly, cutoff: int, capsys) -> dict:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(poly.to_dict()))
    capsys.readouterr()
    assert cli_main(["--format", "json", "residual", str(path), "--cutoff", str(cutoff)]) == 0
    return json.loads(capsys.readouterr().out)


def test_residual_with_a_dropped_word_is_rejected(tmp_path, capsys):
    cutoff = 2000
    poly = residual_input(1)
    reference = reference_residual(poly, cutoff)
    stats = check_residual(residual_artifact(tmp_path, poly, cutoff, capsys), cutoff, reference)
    assert stats["numeric.residual_abs"] > 0
    word, coeff = max(poly.items())
    dropped = poly + NcPoly({word: -coeff})
    with pytest.raises(CheckFailed, match="differs from the reference"):
        check_residual(residual_artifact(tmp_path, dropped, cutoff, capsys), cutoff, reference)


def test_word_parts_matches_the_library():
    words = [w for w, _ in residual_input(1).items()]
    assert words and all(word_parts(w) == word_to_index(w) for w in words)


def test_malformed_artifact_is_rejected():
    for name in WORKLOADS:
        with pytest.raises(CheckFailed, match="malformed"):
            WORKLOADS[name].check_artifact(b"{")


def test_residual_input_follows_seed():
    assert residual_input(1) == residual_input(1)
    assert residual_input(1) != residual_input(2)
    assert residual_input(1).admissible_support()


def test_summarize_self_and_inclusive_time():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("series.mul", 1.0, 5.0, 0),
        ("ncpoly.add", 2.0, 3.0, 1),
        ("series.add", 3.5, 4.5, 1),
        ("ncpoly.add", 6.0, 7.0, 0),
    ]
    s = summarize(spans)
    assert s["by_name"]["cli.main"]["self_s"] == pytest.approx(5.0)
    assert s["by_name"]["series.mul"]["self_s"] == pytest.approx(2.0)
    assert s["by_name"]["ncpoly.add"] == {"calls": 2, "self_s": pytest.approx(2.0)}
    # series.add runs inside series.mul, so the layer's inclusive time is 4, not 5.
    assert s["layers"]["series"] == {"self_s": pytest.approx(3.0), "incl_s": pytest.approx(4.0)}
