import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mzvkit
from mzvkit.cli import main
from mzvkit.ncpoly import NcPoly
from mzvkit.span import MembershipCertificate

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert NcPoly.from_dict(json.loads(out)) == NcPoly.parse("-xxy + xyy")

    def test_index_argument(self, capsys):
        code, out, _ = run(capsys, "derive", "1", "(2)")
        assert code == 0
        assert NcPoly.from_dict(json.loads(out)) == NcPoly.parse("-xxy + xyy")


class TestDelta:
    def test_delta_on_x(self, capsys):
        code, out, _ = run(capsys, "delta", "--var", "u", "--order", "2", "x")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 2
        words = {(t["u"], t["v"], t["w"]): t["poly"]["terms"][0]["word"] for t in data["terms"]}
        assert words == {(0, 0, 0): "x", (1, 0, 0): "xy", (2, 0, 0): "xyy"}


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


class TestVerifyCorollary:
    def test_weight3(self, capsys):
        code, out, _ = run(capsys, "verify", "corollary", "--weight", "3")
        assert code == 0
        assert "3 case(s)" in out

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
        ],
        ids=["8", "10"],
    )
    def test_certificates_pinned(self, capsys, tmp_path, weight, digest):
        # sha256 of the certificate file as the rational solver wrote it;
        # pins the bytes across solver rewrites
        path = tmp_path / "certs.json"
        code, _, _ = run(
            capsys, "verify", "corollary", "--weight", weight, "--certificates", str(path)
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_json_stdout_matches_certificate_file(self, capsys, tmp_path):
        path = tmp_path / "certs.json"
        code, out, _ = run(
            capsys, "--format", "json",
            "verify", "corollary", "--weight", "6", "--certificates", str(path),
        )
        assert code == 0
        assert out == path.read_text()

    def test_m_without_l_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "corollary", "--weight", "4", "--m", "1")
        assert code == 2

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
        [({}, "terms"), ({"terms": [{"word": "xy"}]}, "coeff"), ([], "terms")],
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(mzvkit.__file__).parent.parent), env.get("PYTHONPATH")])
    )

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


def test_cli_import_leaves_numpy_unloaded():
    # numpy is loaded only by the numeric commands that need it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(mzvkit.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [sys.executable, "-c", "import sys, mzvkit.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
