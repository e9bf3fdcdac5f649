"""Smoke test of the scripts in `scripts/` and of README's library
example, run as a user would run them."""

import json
import os
import re
import runpy
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


def test_readme_library_example(tmp_path):
    # Each line the example prints is the value its print call's trailing
    # comment gives: the comment up to its first comma outside parentheses.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [re.match(r"\(.*?\)|[^,]+", line.split("#", 1)[1].strip()).group()
                for line in code.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected == ["torus", "60", "(0, 1, 2, 0, 1, 3)", "7 4 3"]


def script(name: str, monkeypatch) -> dict:
    """The globals of a script in `scripts/`, loaded without running it."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # for its `import timing`
    return runpy.run_path(str(ROOT / "scripts" / name), run_name=name.removesuffix(".py"))


def test_bench_aut_fails_only_on_a_wrong_group(monkeypatch):
    # A wrong result exits 1; scan work that moved is only listed.
    compare = script("bench_aut.py", monkeypatch)["compare"]
    torus = {"member": "T(6,6,0)", "n": 36, "order": 432, "vertex_orbits": 1,
             "traversals": 13, "checks": 3}
    klein = {"member": "K(10,20)", "n": 200, "order": 80, "vertex_orbits": 6,
             "traversals": 14, "checks": 3}

    def result(theirs: dict) -> dict:
        return {"ladder": [torus], "klein": [klein],
                "baseline": {"ladder": [torus], "klein": [theirs]}}

    assert compare(result(klein)) == ([], [])
    assert compare(result({**klein, "traversals": 43, "checks": 4})) == ([], ["K(10,20)"])
    assert compare(result({**klein, "order": 40})) == (
        ["the trees give different groups for K(10,20)"], [])
    assert compare(result({**klein, "vertex_orbits": 5, "traversals": 43})) == (
        ["the trees give different groups for K(10,20)"], ["K(10,20)"])
    assert compare({"ladder": [{**torus, "order": 216}], "klein": []}) == (
        ["order is not 12n for T(6,6,0)"], [])


def test_bench_census_fails_only_on_different_classes(monkeypatch):
    # Across trees the classes must agree and the codes may move; within a
    # tree the whole census must agree.
    compare = script("bench_census.py", monkeypatch)["compare"]

    def run(n: int, codes: str, classes: str) -> dict:
        return {"n": n, "census_sha256": codes, "classes_sha256": classes}

    ours = [run(12, "a", "x"), run(12, "a", "x"), run(24, "b", "y")]
    assert compare([ours, [run(12, "a", "x"), run(24, "b", "y")]]) == ([], [])
    assert compare([ours, [run(12, "a", "x"), run(24, "c", "y")]]) == ([], [24])
    assert compare([ours, [run(12, "a", "x"), run(24, "c", "z")]]) == ([24], [])
    assert compare([ours + [run(24, "c", "y")]]) == ([24], [])


def test_bench_aut_smallest_member(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, "scripts/bench_aut.py", "--ks", "6", "--kleins",
                           "K(10,20)", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    # Traversal and check counts are the scan's work, pinned so that a
    # refresh shows whether its time moved with it.
    (row,) = result["ladder"]
    assert (row["member"], row["n"], row["order"], row["traversals"], row["checks"]) == (
        "T(6,6,0)", 36, 432, 13, 3)
    (row,) = result["klein"]
    assert (row["member"], row["n"], row["order"], row["vertex_orbits"], row["traversals"],
            row["checks"]) == ("K(10,20)", 200, 80, 6, 14, 3)
    for row in (*result["ladder"], *result["klein"]):  # the load, layer by layer
        assert row["parse_s"] > 0 and row["build_s"] > 0
        assert row["seconds"] <= row["median_s"]  # the best of the children, and their median


def test_bench_census_smallest_member(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, "scripts/bench_census.py", "--ns", "12", "--out",
                           str(out)], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert 1 <= result["machine"]["usable_cpus"] <= result["machine"]["cpus"]
    rows = result["ladder"]
    assert [(row["n"], row["jobs"], row["classes"], row["tori"], row["klein_bottles"],
             row["traversals"], row["catalog_scans"], row["stopped_at_v0"], row["nodes"],
             row["leaves"], row["pruned"], row["largest_task_nodes"]) for row in rows] == [
        (12, 1, 7, 4, 3, 373, 16, 15, 174, 7, 26, 116),
        (12, 2, 7, 4, 3, 373, 16, 15, 174, 7, 26, 116)]


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
    # Without a baseline no rounds are won, neither by a set nor by a class.
    for which in ("catalog", "members"):
        assert "rounds_won" not in result[which]
        assert all(row.keys() == {"pairs", "seconds"} for row in result[which]["classes"].values())


def test_bench_baseline_on_the_same_tree(tmp_path):
    # Both trees are timed in the same run, so the same tree must give the
    # same orders and the same verdicts on both sides.  Each row or set
    # counts the rounds its --src child won, out of REPEATS.
    outs = {}
    for script, args in (("bench_aut.py", ["--ks", "6", "--kleins"]), ("bench_iso.py", ["--ns", "9"]),
                         ("bench_census.py", ["--ns", "12", "--jobs", "1"])):
        outs[script] = tmp_path / script.replace(".py", ".json")
        proc = subprocess.run([sys.executable, f"scripts/{script}", *args, "--out",
                               str(outs[script]), "--baseline", "src"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    repeats = runpy.run_path(str(ROOT / "scripts" / "timing.py"))["REPEATS"]
    aut = json.loads(outs["bench_aut.py"].read_text())
    facts = [[(row["order"], row["traversals"]) for row in rows]
             for rows in (aut["ladder"], aut["baseline"]["ladder"])]
    assert facts == [[(432, 13)]] * 2
    assert aut["work_differs"] == []
    for row in (*aut["ladder"], *aut["baseline"]["ladder"]):
        assert row["parse_s"] > 0 and row["build_s"] > 0
    iso = json.loads(outs["bench_iso.py"].read_text())
    for which in ("catalog", "members"):
        assert iso[which]["verdicts_sha256"] == iso["baseline"][which]["verdicts_sha256"]
        assert iso[which]["classes"].keys() == iso["baseline"][which]["classes"].keys()
    census = json.loads(outs["bench_census.py"].read_text())
    assert census["ladder"][0]["census_sha256"] == census["baseline"]["ladder"][0]["census_sha256"]
    assert census["codes_differ"] == []
    classes = [row for which in ("catalog", "members") for row in iso[which]["classes"].values()]
    for row in (*aut["ladder"], iso["catalog"], iso["members"], *classes, *census["ladder"]):
        assert row["rounds_won"] in range(repeats + 1)
