import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mzvkit
from mzvkit.cli import MAX_OUTPUT_LETTERS, MAX_SIZE, _check_size, _dump, main
from mzvkit.ncpoly import NcPoly
from mzvkit.span import MembershipCertificate

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _run_under_1gb(argv):
    """Run the CLI on argv in a child under a 1 GB address-space limit, so
    that an attempt to build a huge output fails at once; the child must
    finish within 1 s."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "mzvkit.cli", *argv], capture_output=True, text=True,
        env=_child_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=limit_memory,
    )
    assert time.perf_counter() - start < 1.0
    return r


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env(**extra):
    """The environment of a child process that imports the same mzvkit
    source as this suite."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(mzvkit.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    return env


class TestDual:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "dual", "(3)")
        assert code == 0
        assert out.strip() == "(2,1)"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "dual", "(3)")
        assert code == 0
        assert json.loads(out) == {"dual": "(2,1)"}

    def test_non_admissible_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dual", "(1,2)")
        assert code == 2
        assert "dual undefined" in err


class TestDerive:
    def test_word_emits_ncpoly_json(self, capsys):
        code, out, _ = run(capsys, "derive", "1", "xy")
        assert code == 0
        assert NcPoly.from_dict(json.loads(out)) == NcPoly({"xxy": -1, "xyy": 1})

    def test_index_argument(self, capsys):
        code, out, _ = run(capsys, "derive", "1", "(2)")
        assert code == 0
        assert NcPoly.from_dict(json.loads(out)) == NcPoly({"xxy": -1, "xyy": 1})

    def test_long_word_below_the_output_bound_runs(self, capsys):
        # 6000 letters give about 36 MB of JSON, well inside the bound
        code, out, err = run(capsys, "derive", "1", "(6000)")
        assert (code, err) == (0, "")
        assert json.loads(out)["terms"]


class TestDelta:
    def test_delta_on_x(self, capsys):
        code, out, _ = run(capsys, "delta", "--var", "u", "--order", "2", "x")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 2
        words = {(t["u"], t["v"], t["w"]): t["poly"]["terms"][0]["word"] for t in data["terms"]}
        assert words == {(0, 0, 0): "x", (1, 0, 0): "xy", (2, 0, 0): "xyy"}

    def test_order_below_the_output_bound_runs(self, capsys):
        # 2001 words; the bound's (n + 2)(n + 1) letters are about 4.0e6
        code, out, err = run(capsys, "delta", "--var", "u", "--order", "2000", "x")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["terms"]) == 2001

    def test_500_letter_word_runs(self, capsys):
        # The linear term of Delta_u = exp(sum_n d_n u^n / n) is d_1.
        word = "xy" * 250
        code, out, _ = run(capsys, "delta", "--var", "u", "--order", "1", word)
        assert code == 0
        coeffs = {
            (t["u"], t["v"], t["w"]): NcPoly.from_dict(t["poly"])
            for t in json.loads(out)["terms"]
        }
        _, d1, _ = run(capsys, "derive", "1", word)
        assert coeffs == {
            (0, 0, 0): NcPoly.word(word),
            (1, 0, 0): NcPoly.from_dict(json.loads(d1)),
        }


class TestVerifyTheorem:
    def test_eq2(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem", "--order", "6", "--eq", "2")
        assert code == 0
        assert "PASS" in out

    def test_lemmas_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "theorem", "--order", "4", "--eq", "lemmas"
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 5
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_order_below_one_is_usage_error(self, capsys, order):
        code, out, err = run(capsys, "verify", "theorem", "--order", order, "--eq", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("eq, order", [("3", "0"), ("lemmas", "1")])
    def test_order_below_the_identity_minimum_is_usage_error(self, capsys, eq, order):
        code, out, err = run(capsys, "verify", "theorem", "--order", order, "--eq", eq)
        assert (code, out) == (2, "")
        assert err.startswith("error: order must be >= ") and err.count("\n") == 1

    def test_failure_prints_its_first_failing_monomial(self, capsys, monkeypatch):
        import mzvkit.identities as identities_mod

        report = identities_mod.IdentityReport("duality-zeta", 3, False, (1, 0, 0), "-xy")
        monkeypatch.setattr(identities_mod, "verify_duality_zeta", lambda order: report)
        code, out, err = run(capsys, "verify", "theorem", "--order", "3", "--eq", "2")
        assert (code, err) == (1, "")
        assert out == "FAIL  duality-zeta (order 3)  first failure at (1, 0, 0): -xy\n"


class TestVerifyCorollary:
    def test_weight3(self, capsys):
        code, out, _ = run(capsys, "verify", "corollary", "--weight", "3")
        assert code == 0
        assert "3 case(s)" in out

    def test_zero_targets_counted(self, capsys):
        # (1 - tau) of the self-dual sum_word(10, 5, 5) is 0
        code, out, _ = run(
            capsys, "verify", "corollary", "--weight", "10", "--m", "5", "--l", "5"
        )
        assert code == 0
        assert out == "PASS  corollary at weight 10: 1 case(s) certified, 1 of them with target 0\n"

    def test_single_case_with_certificates(self, capsys, tmp_path):
        path = tmp_path / "certs.json"
        code, _, _ = run(
            capsys,
            "verify", "corollary", "--weight", "5", "--m", "2", "--l", "2",
            "--certificates", str(path),
        )
        assert code == 0
        certs = json.loads(path.read_text())
        assert len(certs) == 1
        cert = MembershipCertificate.from_dict(certs[0]["certificate"])
        assert cert.verify()

    @pytest.mark.parametrize(
        "weight, digest",
        [
            ("8", "fd6e0da1f09a14875943242546245e001e0ae2debe49e22b9eb429986213db19"),
            ("10", "c2ab8a33b3d326ea5d6f04129d2f7b8ec5e893d1b0b7f116d45c2fda57cce215"),
            ("11", "c26036df035f23de7757bfec45806dd083c300f2a2b121754cb789a506d460ca"),
            ("12", "787b460546fc70a5e5eb1cc20aec8a8c534a9ae07aa6aa70495739c4769f1ea9"),
        ],
        ids=["8", "10", "11", "12"],
    )
    def test_certificates_pinned(self, capsys, tmp_path, weight, digest):
        # sha256 of the certificate file as an earlier solver wrote it (the
        # rational one up to weight 11, the least-word integer one at 12);
        # pins the bytes across solver rewrites
        path = tmp_path / "certs.json"
        code, _, _ = run(
            capsys, "verify", "corollary", "--weight", weight, "--certificates", str(path)
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_certificate_file_round_trips(self, capsys, tmp_path):
        # each record of the weight-8 file loads, writes back as itself and
        # re-verifies
        path = tmp_path / "certs.json"
        code, _, _ = run(
            capsys, "verify", "corollary", "--weight", "8", "--certificates", str(path)
        )
        assert code == 0
        records = json.loads(path.read_text())
        assert len(records) == 28
        for r in records:
            cert = MembershipCertificate.from_dict(r["certificate"])
            assert cert.to_dict() == r["certificate"] and cert.verify()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "corollary", "--weight", "6", "--certificates"),
             "5f8e9146434fa3a330d7cd2f541b2994a562b64063d72673568434f78c5992c5"),
            (("span", "--weight", "6", "--dump"),
             "461f836018f0f6cd45e0d2a1131c09a099a5044ae37c8c57806b130236e48a30"),
        ],
        ids=["corollary", "span"],
    )
    def test_json_stdout_matches_certificate_file(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "--format", "json", *argv, str(path))
        assert code == 0
        assert out == path.read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_m_without_l_is_usage_error(self, capsys):
        for flag in ("--m", "--l"):
            code, out, err = run(capsys, "verify", "corollary", "--weight", "4", flag, "1")
            assert (code, out) == (2, "")
            assert err == "error: --m and --l must be given together\n"

    def test_falsification_exits_1(self, capsys, monkeypatch):
        import mzvkit.span as span_mod

        monkeypatch.setattr(span_mod, "membership", lambda target, k: None)
        code, out, err = run(capsys, "verify", "corollary", "--weight", "4")
        assert (code, out) == (1, "")
        assert err == (
            "FAIL  FALSIFICATION: (1-tau)(sum_word(4,1,1)) is not in the "
            "derivation span at weight 4\n"
        )

    @pytest.mark.parametrize("weight", ["1", "0", "-3"])
    def test_weight_below_two_is_usage_error(self, capsys, weight):
        code, out, err = run(capsys, "verify", "corollary", "--weight", weight)
        assert code == 2
        assert "PASS" not in out
        assert err.startswith("error: ")

    @pytest.mark.parametrize("m, l", [("2", "0"), ("0", "2"), ("-1", "2")])
    def test_m_or_l_below_one_is_usage_error(self, capsys, m, l):
        code, out, err = run(
            capsys, "verify", "corollary", "--weight", "5", "--m", m, "--l", l
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "FAIL" not in out + err


class TestEvalAndResidual:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "(2)", "--cutoff", "10000")
        assert code == 0
        assert out.startswith("value=1.6448")

    def test_residual_roundtrip(self, capsys, tmp_path):
        # artifact emitted by derive is re-readable by residual
        code, out, _ = run(capsys, "derive", "1", "xy")
        assert code == 0
        path = tmp_path / "p.json"
        path.write_text(out)
        code, out, _ = run(capsys, "residual", str(path), "--cutoff", "10000")
        assert code == 0
        value = float(out.split()[0].split("=")[1])
        assert abs(value) < 5e-3

    def test_residual_workload_stdout_is_pinned(self, capsys, tmp_path, monkeypatch):
        # the benchmark's numeric-residual input at seed 1, written as the
        # benchmark writes it; its own check allows a 1e-12 relative error,
        # this pin none
        monkeypatch.syspath_prepend(str(PYPROJECT.parent / "perfbench"))
        from workloads import residual_input

        path = tmp_path / "input.json"
        path.write_text(json.dumps(residual_input(1).to_dict()) + "\n")
        code, out, err = run(capsys, "--format", "json", "residual", str(path),
                             "--cutoff", "200000")
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "b0dfd209ce38dcc328842241e007d2027e82267ca4dce119a76706ae25aee27f"

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "(1,2)", "--cutoff", "100")
        assert code == 2
        assert "divergent" in err

    @pytest.mark.parametrize("index", ["(2,0)", "(3,0,0)"])
    def test_zero_part_is_usage_error(self, capsys, index):
        # (2,0) would be sum m^-2 (m-1), a divergent series
        code, out, err = run(capsys, "eval", index, "--cutoff", "1000")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("cutoff", ["0", "-5"])
    def test_cutoff_below_one_is_usage_error(self, capsys, tmp_path, cutoff):
        code, out, err = run(capsys, "eval", "(2)", "--cutoff", cutoff)
        assert (code, out) == (2, "")
        assert "error:" in err and "at least 1" in err
        # a constant alone has no depth to check the cutoff against
        path = tmp_path / "c.json"
        path.write_text(json.dumps(NcPoly.one().scale(3).to_dict()))
        code, out, err = run(capsys, "residual", str(path), "--cutoff", cutoff)
        assert (code, out) == (2, "")
        assert "error:" in err and "at least 1" in err

    @pytest.mark.parametrize(
        "data, field",
        [({}, "terms"), ({"terms": [{"word": "xy"}]}, "coeff"), ([], "terms"),
         ({"terms": [{"word": "xz", "coeff": "1"}]}, "terms[0].word")],
    )
    def test_malformed_residual_input_is_usage_error(self, capsys, tmp_path, data, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "residual", str(path), "--cutoff", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize(
        "coeff", ["Infinity", "1e400", '"1e400"', "true"], ids=["inf", "float", "str", "bool"]
    )
    def test_coeff_not_a_finite_rational_is_usage_error(self, capsys, tmp_path, coeff):
        # a JSON number too large for a float reads as inf; as a string it
        # is an exact rational that z_eval cannot convert to a float
        path = tmp_path / "bad.json"
        path.write_text('{"terms": [{"word": "xy", "coeff": %s}]}' % coeff)
        code, out, err = run(capsys, "residual", str(path), "--cutoff", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "coeff" in err

    def test_non_finite_residual_is_usage_error(self, capsys, tmp_path):
        # each coefficient fits in a float, but their Z-value overflows
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"terms": [
            {"word": "xy", "coeff": "1.5e308"}, {"word": "xxy", "coeff": "1.5e308"},
        ]}))
        code, out, err = run(capsys, "--format", "json", "residual", str(path), "--cutoff", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "overflows" in err


def _deep_index(depth):
    """(2,1,...,1) of the given depth."""
    return "(2" + ",1" * (depth - 1) + ")"


def _write(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _nested_residual(tmp_path, cutoff):
    """residual of (2), (2,1), ..., (2,1,...,1) of depth 11: 21 trie nodes."""
    words = {"x" + "y" * j: 1 for j in range(1, 12)}
    return ["residual", _write(tmp_path, json.dumps(NcPoly(words).to_dict())), "--cutoff", cutoff]


# Inputs too deep for a finite tail bound or for the recursion limit, whose
# partial sums would take more than numeric.MAX_SUM_TERMS terms, whose derive
# or delta output could not fit in memory, whose size is past its measured
# 1 GB limit, or whose word ends in a newline.
HOSTILE = {
    "eval-depth172": lambda tmp: ["eval", _deep_index(172), "--cutoff", "1000"],
    "eval-depth400": lambda tmp: ["eval", _deep_index(400), "--cutoff", "500"],
    "eval-depth1200": lambda tmp: ["eval", _deep_index(1200), "--cutoff", "1300"],
    "residual-depth400": lambda tmp: [
        "residual", _write(tmp, json.dumps(NcPoly.word("x" + "y" * 400).to_dict())),
        "--cutoff", "500",
    ],
    "eval-cutoff-1e12": lambda tmp: ["eval", "(2)", "--cutoff", "1000000000000"],
    "eval-cutoff-1e10": lambda tmp: ["eval", "(2)", "--cutoff", "10000000000"],
    # 10^400 + 1 terms: past the work bound, though a float cannot hold the
    # cutoff, so the tail bound overflows too
    "eval-cutoff-1e400": lambda tmp: ["eval", "(2)", "--cutoff", "1" + "0" * 400],
    # (2), (2,1), ..., (2,1,...,1) of depth 11: 21 trie nodes of 10^9 + 1
    # terms, refused by its deepest index; at 5 * 10^8 + 1 terms, by its trie
    "residual-past-work-bound": lambda tmp: _nested_residual(tmp, "1000000000"),
    "residual-trie-past-work-bound": lambda tmp: _nested_residual(tmp, "500000000"),
    # one word of depth 10^6 (about 1 MB): refused before its trie is built
    "residual-depth-1e6": lambda tmp: [
        "residual", _write(tmp, json.dumps(NcPoly.word("x" + "y" * 10**6).to_dict())),
        "--cutoff", "1000000",
    ],
    "residual-nested-json": lambda tmp: [
        "residual", _write(tmp, "[" * 100000 + "]" * 100000), "--cutoff", "100",
    ],
    "derive-long-word": lambda tmp: ["derive", "1", "(10000000)"],
    "derive-high-order": lambda tmp: ["derive", "40", "xy"],
    "derive-huge-order": lambda tmp: ["derive", "1000000000", "xy"],
    "derive-empty-word": lambda tmp: ["derive", "26", ""],
    "derive-trailing-newline": lambda tmp: ["derive", "1", "xy\n"],
    "delta-trailing-newline": lambda tmp: ["delta", "--var", "u", "--order", "1", "xy\n"],
    # C(n + size + 1, size) * (n + size) letters: (n + 2)(n + 1) = 4.0e8,
    # C(2003, 2) * 2002 = 4.0e9, C(305, 4) * 304 = 1.1e11 and, for the
    # prefixes of a 320000-letter word at order 0, 320001 * 320000 = 1.0e11,
    # all past the bound of 1e8
    "delta-order-20000-x": lambda tmp: ["delta", "--var", "u", "--order", "20000", "x"],
    "delta-order-2000-xy": lambda tmp: ["delta", "--var", "u", "--order", "2000", "xy"],
    "delta-order-300-xyxy": lambda tmp: ["delta", "--var", "u", "--order", "300", "xyxy"],
    "delta-order-0-320000-letters": lambda tmp: [
        "delta", "--var", "u", "--order", "0", "(320000)",
    ],
    "residual-trailing-newline": lambda tmp: [
        "residual", _write(tmp, json.dumps({"terms": [{"word": "xy\n", "coeff": "1"}]})),
        "--cutoff", "100",
    ],
    # orders whose series would take far more than 1 GB
    "theorem-eq3-order-40": lambda tmp: ["verify", "theorem", "--eq", "3", "--order", "40"],
    "theorem-eq2-order-40000": lambda tmp: [
        "verify", "theorem", "--eq", "2", "--order", "40000",
    ],
    "theorem-lemmas-order-100000": lambda tmp: [
        "verify", "theorem", "--eq", "lemmas", "--order", "100000",
    ],
    "theorem-order-1e9": lambda tmp: ["verify", "theorem", "--order", "1000000000"],
    # 1763 MB as JSON and 1125 MB as text at weight 18
    "span-weight-18": lambda tmp: ["span", "--weight", "18"],
    # 1609 MB at index weight 2*10^7
    "dual-weight-2e7": lambda tmp: ["dual", "(20000000)"],
}

_PAST_1GB = ", the largest whose peak memory stays under 1 GB"
# every entry of cli.MAX_SIZE with the line that refuses one past it
SIZE_LIMITS = [
    ("order of --eq 2", 19000, "order 19001 of --eq 2 exceeds 19000"),
    ("order of --eq 3", 16, "order 17 of --eq 3 exceeds 16"),
    ("order of --eq lemmas", 1100, "order 1101 of --eq lemmas exceeds 1100"),
    ("order of --eq all", 16, "order 17 of --eq all exceeds 16"),
    ("weight of verify corollary", 15, "weight 16 of verify corollary exceeds 15"),
    ("weight of span", 17, "weight 18 of span exceeds 17"),
    ("weight of dual", 10**7, "weight 10000001 of dual exceeds 10000000"),
]


class TestHostileInput:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, case):
        code, out, err = run(capsys, *HOSTILE[case](tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["residual-nested-json"])
    def test_recursion_error_names_the_limit(self, capsys, tmp_path, case):
        _, _, err = run(capsys, *HOSTILE[case](tmp_path))
        limit = sys.getrecursionlimit()
        assert err == f"error: input nested too deeply for Python's recursion limit ({limit})\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "(100000000000)"],
            ["eval", "(100000000000)", "--cutoff", "10"],
            ["derive", "1", "(100000000000)"],
            ["delta", "--var", "u", "--order", "1", "(100000000000)"],
        ],
        ids=["dual", "eval", "derive", "delta"],
    )
    def test_oversized_index_part_exits_2(self, argv):
        # The part's word alone would need about 100 GB; its weight is
        # refused before the word is built.
        r = _run_under_1gb(argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (
            "error: index of weight 100000000000 exceeds the bound of 100000000 letters\n"
        )

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["span", "--weight", "40"], "weight 40 of span exceeds 17"),
            (["verify", "corollary", "--weight", "40"],
             "weight 40 of verify corollary exceeds 15"),
            (["verify", "corollary", "--weight", "40", "--m", "1", "--l", "2"],
             "weight 40 of verify corollary exceeds 15"),
        ],
        ids=["span", "corollary", "corollary-m-l"],
    )
    def test_infeasible_span_weight_exits_2(self, argv, refused):
        # d_1 alone maps 2^37 admissible words at weight 40; the weight is
        # refused before any generator is built
        r = _run_under_1gb(argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: {refused}{_PAST_1GB}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "corollary", "--weight", "16"],
            ["verify", "corollary", "--weight", "18", "--m", "1", "--l", "2"],
        ],
        ids=["corollary", "corollary-m-l"],
    )
    def test_infeasible_corollary_weight_exits_2(self, argv):
        # past weight 15, the measured limit of verify corollary; refused
        # before any generator is built
        r = _run_under_1gb(argv)
        assert (r.returncode, r.stdout) == (2, "")
        k = argv[3]
        assert r.stderr == (f"error: weight {k} of verify corollary exceeds 15, "
                            "the largest whose peak memory stays under 1 GB\n")

    @pytest.mark.parametrize(
        "argv", [["verify", "corollary", "--weight", "16"], ["span", "--weight", "18"]],
        ids=["corollary", "span"],
    )
    def test_infeasible_weight_loads_no_span(self, tmp_path, argv):
        r = subprocess.run(
            [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        )
        assert r.returncode == 2
        assert "mzvkit.span" not in r.stdout.split()

    @pytest.mark.parametrize(
        "case, refused",
        [
            ("theorem-eq3-order-40", "order 40 of --eq 3 exceeds 16"),
            ("theorem-eq2-order-40000", "order 40000 of --eq 2 exceeds 19000"),
            ("theorem-lemmas-order-100000", "order 100000 of --eq lemmas exceeds 1100"),
            ("theorem-order-1e9", "order 1000000000 of --eq all exceeds 16"),
        ],
    )
    def test_infeasible_theorem_order_exits_2(self, tmp_path, case, refused):
        # refused before any series is built
        r = _run_under_1gb(HOSTILE[case](tmp_path))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: {refused}{_PAST_1GB}\n"

    @pytest.mark.parametrize(
        "case, refused",
        [
            ("span-weight-18", f"weight 18 of span exceeds 17{_PAST_1GB}"),
            ("dual-weight-2e7", f"weight 20000000 of dual exceeds 10000000{_PAST_1GB}"),
            ("residual-depth-1e6",
             "1000000 nested sums of 1000001 terms: more than 10000000000 terms in all"),
        ],
        ids=["span-weight-18", "dual-weight-2e7", "residual-depth-1e6"],
    )
    def test_past_a_measured_limit_exits_2(self, tmp_path, case, refused):
        # each would take more than 1 GB; refused before any word is built
        r = _run_under_1gb(HOSTILE[case](tmp_path))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: {refused}\n"

    def test_size_limits_are_the_table(self):
        assert MAX_SIZE == {what: top for what, top, _ in SIZE_LIMITS}

    @pytest.mark.parametrize("what, top, refused", SIZE_LIMITS, ids=[w for w, _, _ in SIZE_LIMITS])
    def test_size_bound_is_the_stated_one(self, what, top, refused):
        # the limit passes, and one past it raises the exact line; --eq all
        # takes the smallest order, and no --order is refused
        assert _check_size(what, top) == top
        assert _check_size(what, None) is None
        with pytest.raises(ValueError) as exc:
            _check_size(what, top + 1)
        assert str(exc.value) == refused + _PAST_1GB

    def test_long_word_at_order_0_exits_2(self, tmp_path):
        # refused before any letter's image is multiplied, though the output
        # would be the 320000-letter word alone
        r = _run_under_1gb(HOSTILE["delta-order-0-320000-letters"](tmp_path))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == ("error: Delta_u to order 0 of a length-320000 word may exceed "
                            "100000000 letters\n")

    @pytest.mark.parametrize("order, top", [(0, 9999), (1, 583)])
    def test_delta_bound_cuts_past_the_longest_word(self, capsys, order, top):
        # C(n + size + 1, size) * (n + size) letters: 10000 * 9999 = 9.999e7 and
        # 585 * 584 / 2 * 584 = 9.98e7 pass, one more letter exceeds 1e8
        argv = ("delta", "--var", "u", "--order", str(order))
        code, out, err = run(capsys, *argv, f"({top})")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["terms"]) == order + 1
        code, out, err = run(capsys, *argv, f"({top + 1})")
        assert (code, out) == (2, "")
        assert err == (f"error: Delta_u to order {order} of a length-{top + 1} word may "
                       "exceed 100000000 letters\n")

    def test_delta_bound_matches_the_prefix_product_loop(self, capsys, monkeypatch):
        # the closed form C(n + size + 1, min(n + 1, size)) * (n + size) against the
        # running product over the prefixes that it replaced, which stopped once past
        # the bound; delta_subst is stubbed, so the bound alone sets the exit code
        import mzvkit.series as series

        monkeypatch.setattr(series, "delta_subst", lambda var, p, order: NcPoly.zero())

        def loop_refuses(n, size):
            letters = n + size
            for i in range(1, min(n + 1, size) + 1):
                if letters > MAX_OUTPUT_LETTERS:
                    break
                letters = letters * (n + size + 2 - i) // i
            return letters > MAX_OUTPUT_LETTERS

        orders = [-3, -1, 0, 1, 2, 3, 4, 5, 8, 13, 26, 27, 28, 100, 583, 584, 2000, 9999,
                  10**4, 10**8, 10**30]
        sizes = [1, 2, 3, 4, 5, 8, 13, 26, 27, 28, 29, 100, 154, 155, 583, 584, 9999, 10000]
        refused = 0
        for n in orders:
            for size in sizes:
                code, _, _ = run(capsys, "delta", "--var", "u", "--order", str(n), "x" * size)
                assert code == (2 if loop_refuses(n, size) else 0), (n, size)
                refused += code == 2
        assert 0 < refused < len(orders) * len(sizes)

    def test_long_index_within_the_bound_still_evaluates(self, capsys):
        # zeta(10^7) summed to 10 is 1 + 2^-(10^7) + ..., which is 1.0
        code, out, err = run(capsys, "eval", "(10000000)", "--cutoff", "10")
        assert (code, err) == (0, "")
        assert out == "value=1.000000000000 tail_bound=0.000000000000\n"

    def test_deepest_finite_bound_still_evaluates(self, capsys):
        # depth 171 is the last whose (2,1,...,1) bound is finite (about
        # 2e307, so meaningless); its output is pinned
        code, out, _ = run(capsys, "eval", _deep_index(171), "--cutoff", "1000")
        assert code == 0
        assert out.startswith("value=0.000000000000 tail_bound=19727700988666652")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "b538d39dcb7bae565dd543808e9c59ffd0eab5e441084ecb742f3193a763a55f"


class TestSpanCommand:
    def test_dump_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "span.json"
        code, out, _ = run(capsys, "span", "--weight", "4", "--dump", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["weight"] == 4
        assert [g["n"] for g in data["generators"]] == [1, 1, 2]
        for g in data["generators"]:
            NcPoly.from_dict(g["image"])

    def test_text_mode_builds_no_payload(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("text output must not build the JSON payload")

        monkeypatch.setattr(NcPoly, "to_dict", refuse)
        assert run(capsys, "span", "--weight", "6") == (0, "weight 6: 15 generators\n", "")

    # the JSON that --format json prints and that --dump writes in either mode
    SPAN6_SHA256 = "461f836018f0f6cd45e0d2a1131c09a099a5044ae37c8c57806b130236e48a30"

    def test_json_digest(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "span", "--weight", "6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SPAN6_SHA256

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dump_digest(self, capsys, tmp_path, fmt):
        path = tmp_path / "span.json"
        code, out, _ = run(capsys, "--format", fmt, "span", "--weight", "6", "--dump", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SPAN6_SHA256
        if fmt == "text":
            assert out == "weight 6: 15 generators\n"


class TestPinnedOutput:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "theorem"),
             "68613b68527dfc0195854efc1e4dfff9326a90c0bd3e7054c5b3f88c29cc83cd"),
            (("verify", "corollary", "--weight", "8"),
             "7e1bafd421df43a2f3bfc4dce14c85b4e6a8765f72aa31ffae198be4c7f5d036"),
            (("--format", "json", "verify", "theorem"),
             "183ad94840b88053c73fd78081e743035c6d3e08136ab2c2f94c6eb9c159988a"),
            (("--format", "json", "dual", "(3,1,2)"),
             "083a2d2b845abd1845c484a5b1251ef23d595fcc62656b81f9ae6ccba223bfee"),
        ],
        ids=["theorem-text", "corollary-text", "theorem-json", "dual-json"],
    )
    def test_stdout_bytes(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "corollary", "--weight", "4"),
            ("verify", "theorem", "--eq", "2", "--order", "3"),
            ("dual", "(3)"),
            ("eval", "(2,1)", "--cutoff", "10"),
        ],
    )
    def test_text_mode_does_not_serialize(self, capsys, monkeypatch, argv):
        import mzvkit.cli as cli_mod

        def refuse(obj):
            raise AssertionError("text output must not encode JSON")

        monkeypatch.setattr(cli_mod, "_dump", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


# characters that JSON escapes or that the indented writer splits on
_FUZZ_CHARS = '{}[],:"\\\n\x00 xy-0\u00e9\u20ac\U0001d11e'


def _fuzz_scalar(rng):
    return rng.choice([
        lambda: "".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randrange(6))),
        lambda: rng.choice([0, -1, 7, 10**30, -(10**40), rng.randrange(-5, 5)]),
        lambda: rng.choice([-0.0, 0.0, 1.5, 1e300, -2.5e-300, float("inf"), float("nan")]),
        lambda: rng.choice([True, False, None]),
    ])()


def _fuzz_key(rng):
    if rng.randrange(6) == 0:  # json.dumps writes these keys as strings
        return rng.choice([1, -2, 1.5, True, False, None])
    return "".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randrange(4)))


def _fuzz_flat_dict(rng, size):
    return {_fuzz_key(rng): _fuzz_scalar(rng) for _ in range(size)}


def _fuzz_value(rng, depth=0):
    kind = rng.randrange(6) if depth < 4 else 0
    n = rng.randrange(4)
    if kind == 0:
        return _fuzz_scalar(rng)
    if kind == 1:
        return {_fuzz_key(rng): _fuzz_value(rng, depth + 1) for _ in range(n)}
    if kind == 2:
        return [_fuzz_value(rng, depth + 1) for _ in range(n)]
    if kind == 3:
        return tuple(_fuzz_value(rng, depth + 1) for _ in range(n))
    if kind == 4:  # a list of dicts of scalars, some of them empty
        return [_fuzz_flat_dict(rng, rng.randrange(3)) for _ in range(n)]
    return {_fuzz_key(rng): [_fuzz_flat_dict(rng, 1 + rng.randrange(3)) for _ in range(n)]}


class TestDump:
    def test_matches_json_dumps_indent_2(self):
        # json.dumps(indent=2) is the oracle that _dump must match byte for byte
        rng = random.Random(20000)
        for _ in range(20000):
            value = _fuzz_value(rng)
            assert _dump(value) == json.dumps(value, indent=2), repr(value)

    def test_refuses_what_json_refuses(self):
        for value in ({(1, 2): 0}, [{"a": object()}], {"a": [{"b": {1j}}]}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                _dump(value)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "json", "verify", "theorem", "--order", "4", "--eq", "all"),
            ("--format", "json", "verify", "corollary", "--weight", "5"),
            ("--format", "json", "span", "--weight", "5"),
            ("--format", "json", "delta", "--var", "v", "--order", "3", "xxy"),
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def _script_target(name):
    """The ``module:attr`` target that ``[project.scripts]`` declares for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # tomllib is new in Python 3.11
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


# What an installed console script does: load the target and exit with its
# return value, with the CLI arguments in sys.argv.
_CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
func = EntryPoint(name="mzvkit", value=sys.argv.pop(1), group="console_scripts").load()
sys.argv[0] = "mzvkit"
sys.exit(func())
"""


def test_console_entry_point(tmp_path):
    # Runs the declared script target in a fresh process, importing the same
    # mzvkit source as this suite, so no installed script is needed.
    target = _script_target("mzvkit")
    env = _child_env()

    def run_script(*argv):
        return subprocess.run(
            [sys.executable, "-c", _CONSOLE_SCRIPT, target, *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )

    r = run_script("dual", "(4)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "(2,1,1)"

    r = run_script("dual", "(1,2)")
    assert r.returncode == 2
    assert "dual undefined" in r.stderr


@pytest.mark.skipif(shutil.which("mzvkit") is None, reason="mzvkit console script not installed")
def test_installed_console_script():
    r = subprocess.run(["mzvkit", "dual", "(4)"], capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.strip() == "(2,1,1)"


# Runs mzvkit.cli.main on the arguments, then prints the loaded modules
# as the last line of stdout.
_LOADED_AFTER_MAIN = """\
import sys
from mzvkit.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(" ".join(sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, layers, numpy",
    [
        (lambda tmp: [], set(), False),
        (lambda tmp: ["verify", "theorem", "--order", "3"],
         {"ncpoly", "maps", "series", "identities"}, False),
        (lambda tmp: ["verify", "corollary", "--weight", "4"], {"ncpoly", "maps", "span"}, False),
        (lambda tmp: ["span", "--weight", "4"], {"ncpoly", "maps", "span"}, False),
        (lambda tmp: ["residual", _write(tmp, json.dumps(NcPoly({"xy": 1}).to_dict())),
                      "--cutoff", "10"],
         {"ncpoly", "maps", "numeric"}, True),
        (lambda tmp: ["eval", "(2,1)", "--cutoff", "10"], {"ncpoly", "maps", "numeric"}, True),
        (lambda tmp: ["dual", "(4)"], {"ncpoly", "maps"}, False),
        (lambda tmp: ["derive", "1", "xy"], {"ncpoly", "maps"}, False),
        (lambda tmp: ["delta", "--var", "u", "--order", "2", "xy"],
         {"ncpoly", "maps", "series"}, False),
    ],
    ids=["import", "theorem", "corollary", "span", "residual", "eval", "dual", "derive",
         "delta"],
)
def test_command_loads_only_its_layers(tmp_path, argv, layers, numpy):
    # each run starts a fresh interpreter, so nothing is loaded beforehand
    r = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.splitlines()[-1].split())
    assert {m.split(".", 1)[1] for m in loaded if m.startswith("mzvkit.")} == layers | {"cli"}
    assert ("numpy" in loaded) == numpy
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv, refused",
    [
        (lambda tmp: ["eval", "(2)", "--cutoff", "0"], "cutoff must be at least 1, got 0"),
        (lambda tmp: ["eval", "(2,1,1)", "--cutoff", "2"], "cutoff smaller than depth"),
        (HOSTILE["eval-cutoff-1e400"],
         f"1 nested sums of 1{'0' * 399}1 terms: more than 10000000000 terms in all"),
        (HOSTILE["residual-past-work-bound"],
         "11 nested sums of 1000000001 terms: more than 10000000000 terms in all"),
        (HOSTILE["residual-trie-past-work-bound"],
         "21 nested sums of 500000001 terms: more than 10000000000 terms in all"),
        (lambda tmp: ["eval", _deep_index(200), "--cutoff", "1000"],
         "tail bound overflows double precision at cutoff 1000: an index is too deep"
         " or a coefficient too large for a bound"),
    ],
    ids=["cutoff-0", "below-depth", "eval-work-bound", "residual-work-bound",
         "residual-trie-work-bound", "tail-bound"],
)
def test_refusal_loads_no_numpy(tmp_path, argv, refused):
    # z_eval makes every refusal of its input, in order, before numpy loads
    r = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert (r.returncode, r.stderr) == (2, f"error: {refused}\n")
    loaded = set(r.stdout.splitlines()[-1].split())
    assert "mzvkit.numeric" in loaded and "numpy" not in loaded


_LAZY_NAMES = """\
import mzvkit
assert "mzvkit.span" not in __import__("sys").modules
assert mzvkit.span.corollary_check is mzvkit.corollary_check
# span and the fixed-sum words live on the word layer: no series code loads
assert mzvkit.sum_word is mzvkit.maps.sum_word
loaded = __import__("sys").modules
assert "mzvkit.series" not in loaded and "mzvkit.identities" not in loaded
assert mzvkit.identities.sum_word is mzvkit.maps.sum_word
try:
    mzvkit.no_such_name
except AttributeError as exc:
    print(exc)
names = {}
exec("from mzvkit import *", names)
missing = [n for n in mzvkit.__all__ if n not in names or n not in dir(mzvkit)]
print(missing)
"""


def test_package_names_resolve_on_first_access(tmp_path):
    r = subprocess.run(
        [sys.executable, "-c", _LAZY_NAMES],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "module 'mzvkit' has no attribute 'no_such_name'\n[]\n"
