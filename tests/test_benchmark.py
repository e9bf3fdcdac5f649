"""The benchmark's self-check: it traces flatland through the private names
`bench/` wraps (`census._frontier`, `census._LinkSearch`, ...), so a change
that drops one fails here and not only in a later benchmark run.  The
benchmark's census count gate is checked against the lattice oracle."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from flatland import census
from tests.lattice_oracle import klein_classes, torus_classes

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    # Names each (module, attribute) of `bench/tracing.py` that flatland lacks.
    tracing = _bench_module("tracing")
    modules = {mod: importlib.import_module(f"flatland.{mod}") for mod, _, _ in tracing.BINDINGS}
    wanted = [(mod, attr) for mod, attr, _ in tracing.BINDINGS]
    wanted += [("census", "_LinkSearch"), ("census", "ProcessPoolExecutor")]
    assert [(mod, attr) for mod, attr in wanted if not hasattr(modules[mod], attr)] == []


def test_frontier_replay_calls():
    # The calls the traced census-parallel run replays serially (bench/layers.py).
    states, leaves = census._frontier(12, 8)
    assert (len(states), len(leaves)) == (9, 0)
    nodes = 0
    for faces in states:
        search, found = census._LinkSearch(12, list(faces), None, None), []
        search.run(found)
        nodes += search.nodes
        leaves += found
    assert (nodes, len(leaves)) == (731, 43)
    assert len(census._canonicalize_leaves(12, leaves)) == 7


def test_census_count_gate_matches_the_lattice_oracle():
    # `bench/checks.py` gates every benchmark census on hand-typed counts.
    gate = _bench_module("checks").CENSUS_COUNTS
    oracle = {}
    for n in gate:
        tori, bottles = len(torus_classes(n)), len(klein_classes(n))
        oracle[n] = (tori + bottles, tori, bottles)
    assert gate == oracle
