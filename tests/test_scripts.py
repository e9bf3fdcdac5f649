"""Smoke test of the scripts in `scripts/`, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_family_atlas_12():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "scripts/family_atlas.py", "12"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("class ") for line in lines) == 7
    members = [set(line.strip().split(", ")) for line in lines if line.startswith("  ")]
    assert any({"T_{12,1,2}", "T_{6,2,1}"} <= names for names in members)
