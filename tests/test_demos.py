"""Every demo script runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_cleanly(script, tmp_path):
    # conftest has pinned BLAS to one thread in os.environ; the child inherits
    # that, and TMPDIR keeps the demos' scratch output under tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if script.name == "limited_data_identifiability.py":
        assert "verdict: unique_by_dual" in proc.stdout
        assert "dual certificate rank: 2" in proc.stdout
