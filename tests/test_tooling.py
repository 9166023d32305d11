"""Scripts outside the package that import it: the traced benchmark child
must find every library name it wraps, every demo must run, and the tier-1
workflow's certificate check must pass a good file and fail a bad one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzvkit
from mzvkit.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _env():
    """The environment with PYTHONPATH led by the suite's src."""
    env = dict(os.environ)
    src = str(Path(mzvkit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_trace_child_wraps_every_traced_name(tmp_path):
    out = tmp_path / "trace.json"
    r = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(out), "--format", "json", "dual", "(4)"],
        capture_output=True, text=True, cwd=tmp_path, env=_env(),
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"dual": "(2,1,1)"}
    summary = json.loads(out.read_text())
    assert "by_name" in summary
    assert summary["by_name"]["cli.main"]["calls"] == 1


def test_trace_child_records_span_solver(tmp_path):
    # weight 5: 7 generators of rank 5, and 10 (m, l) cases
    out = tmp_path / "trace.json"
    r = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(out), "verify", "corollary", "--weight", "5"],
        capture_output=True, text=True, cwd=tmp_path, env=_env(),
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads(out.read_text())
    assert summary["counters"]["span.rank"] == 5
    assert summary["counters"]["span.generators"] == 7
    assert summary["by_name"]["span.build"]["calls"] == 1
    assert summary["by_name"]["span.membership"]["calls"] == 10


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    r = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=tmp_path, env=_env(),
    )
    assert r.returncode == 0, r.stderr


def test_workflow_certificate_check(tmp_path):
    # the workflow's own command line, with its $certs and $k, run from the
    # repository root as the workflow runs it, on weight-5 certificates
    [command] = [line.strip() for line in WORKFLOW.read_text().splitlines()
                 if line.strip().startswith("PYTHONPATH=src:perfbench ")]
    assert "check_certificates" in command
    certs = tmp_path / "certs.json"
    assert cli_main(["verify", "corollary", "--weight", "5", "--certificates", str(certs)]) == 0
    # "python" is this interpreter
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]])

    def check():
        return subprocess.run(["bash", "-c", command], capture_output=True, text=True,
                              cwd=ROOT, env=dict(os.environ, PATH=path, certs=str(certs), k="5"))

    r = check()
    assert r.returncode == 0, r.stderr
    assert "span.cert_terms" in r.stdout
    # two certificates with nonzero targets swapped: each still verifies, for
    # the other's case
    data = json.loads(certs.read_text())
    i, j = [n for n, e in enumerate(data) if e["certificate"]["target"]["terms"]][:2]
    data[i]["certificate"], data[j]["certificate"] = data[j]["certificate"], data[i]["certificate"]
    certs.write_text(json.dumps(data))
    r = check()
    assert r.returncode == 1
    assert "another target" in r.stderr
