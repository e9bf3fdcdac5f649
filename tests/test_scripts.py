"""Smoke test of the scripts in `scripts/`, run as a user would run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_atlas(n: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "scripts/family_atlas.py", n],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_family_atlas_12():
    proc = run_atlas("12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("class ") for line in lines) == 7
    members = [set(line.strip().split(", ")) for line in lines if line.startswith("  ")]
    assert any({"T_{12,1,2}", "T_{6,2,1}"} <= names for names in members)


def test_family_atlas_bad_vertex_count_is_a_usage_error():
    proc = run_atlas("0")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.endswith("error: vertex count must be at least 1\n")


def test_bench_aut_smallest_member(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, "scripts/bench_aut.py", "--ks", "6", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(out.read_text())["ladder"]
    assert (row["k"], row["n"], row["order"]) == (6, 36, 432)


def test_bench_iso_smallest_ladder(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, "scripts/bench_iso.py", "--ns", "9", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    pairs = {which: {verdict: row["pairs"] for verdict, row in result[which]["classes"].items()}
             for which in ("catalog", "members")}
    assert pairs == {"catalog": {"G_3": 4, "isomorphic": 6, "orientability": 5},
                     "members": {"isomorphic": 11, "orientability": 4}}
