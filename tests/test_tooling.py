"""The traced benchmark child must find every library name it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mzvkit

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def test_trace_child_wraps_every_traced_name(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(mzvkit.__file__).parent.parent)
    r = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(out), "--format", "json", "dual", "(4)"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"dual": "(2,1,1)"}
    summary = json.loads(out.read_text())
    assert "by_name" in summary
    assert summary["by_name"]["cli.main"]["calls"] == 1
