"""Smoke test of the scripts in `scripts/`, run as a user would run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.conftest import census_report

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


def test_family_atlas_lists_names_in_catalog_order():
    # The order `classify` prints: T_{14,1,2} before T_{14,1,11}.
    proc = run_atlas("14")
    assert proc.returncode == 0, proc.stderr
    expected = [", ".join(item.matched_family_names) for item in census_report(14).items]
    assert [line.strip() for line in proc.stdout.splitlines() if line.startswith("  ")] == expected
    assert "  T_{14,1,2}, T_{14,1,4}, T_{14,1,9}, T_{14,1,11}, T_{7,2,1}, T_{7,2,4}" in proc.stdout


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


def test_bench_census_smallest_member(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, "scripts/bench_census.py", "--ns", "12", "--out",
                           str(out)], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["ladder"]
    assert [(row["n"], row["jobs"], row["classes"], row["tori"], row["klein_bottles"],
             row["traversals"], row["catalog_scans"], row["stopped_at_v0"]) for row in rows] == [
        (12, 1, 7, 4, 3, 510, 16, 15), (12, 2, 7, 4, 3, 510, 16, 15)]


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


def test_bench_baseline_on_the_same_tree(tmp_path):
    # Both trees are timed in the same run, so the same tree must give the
    # same orders and the same verdicts on both sides.
    outs = {}
    for script, args in (("bench_aut.py", ["--ks", "6"]), ("bench_iso.py", ["--ns", "9"])):
        outs[script] = tmp_path / script.replace(".py", ".json")
        proc = subprocess.run([sys.executable, f"scripts/{script}", *args, "--out",
                               str(outs[script]), "--baseline", "src"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    aut = json.loads(outs["bench_aut.py"].read_text())
    assert [row["order"] for row in aut["ladder"]] == [row["order"] for row in
                                                      aut["baseline"]["ladder"]] == [432]
    iso = json.loads(outs["bench_iso.py"].read_text())
    for which in ("catalog", "members"):
        assert iso[which]["verdicts_sha256"] == iso["baseline"][which]["verdicts_sha256"]
        assert iso[which]["classes"].keys() == iso["baseline"][which]["classes"].keys()
