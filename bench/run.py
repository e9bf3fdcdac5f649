#!/usr/bin/env python3
"""flatland benchmark: census and symmetry-query workloads.

    python3 bench/run.py --workload census-serial --seed 1 --seconds 20 --trace 0

Runs one workload in-process through `flatland.cli.run`, checks every output,
and prints one JSON object as its last line of stdout.  With `--trace 0` it
reports the end-to-end metrics, measured with tracing off; their times are
reference-speed times (see calibrate.py).  With `--trace 1`
it alternates untraced and traced passes and reports per-layer metrics from
the traced pass of median length (see tracing.py); on census-parallel it also
replays the pool's work serially in-process, one frontier state at a time.

The package is imported from `src/` next to this directory; nothing is
installed.  Temporary `.tri` inputs go to `.bench_tmp/` and are removed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from checks import Checks
from layers import traced_run
from tracing import LAYERS
from workloads import (CLOCK, LADDER, PARALLEL_JOBS, CensusWorkload, QueryWorkload, measure,
                       pass_ref_seconds)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "check_pass_rate": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
             "trace.spans": "count", "machine.kernel_ms": "ms"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "census.search_s": "s", "census.nodes": "count", "census.us_per_node": "us",
        "census.leaves": "count", "census.classes": "count", "census.leaf_yield": "ratio",
        "census.leaf_canon_s": "s", "census.catalog_canon_s": "s",
        "census.frontier_states": "count", "census.frontier_max_share": "ratio",
        "census.frontier_critical_s": "s", "census.pool_wait_s": "s",
    })
    for n in LADDER:
        units.update({f"census.nodes.n{n}": "count", f"census.leaves.n{n}": "count",
                      f"census.classes.n{n}": "count", f"census.search_s.n{n}": "s",
                      f"census.frontier_states.n{n}": "count",
                      f"census.frontier_max_share.n{n}": "ratio"})
    units.update({
        "families.known_catalog_s": "s", "families.catalog_size": "count",
        "symmetry.canonical_form_s": "s", "symmetry.traversals": "count",
        "symmetry.automorphism_group_s": "s", "symmetry.find_isomorphism_s": "s",
        "surface.build_triangulation_s": "s", "graphs.invariants_s": "s",
        "tri_io.read_s": "s",
    })
    return units


def import_flatland() -> dict[str, Any]:
    """Import flatland afresh from SRC and return its modules by short name."""
    for name in [m for m in sys.modules if m == "flatland" or m.startswith("flatland.")]:
        del sys.modules[name]
    flatland = importlib.import_module("flatland")
    if Path(flatland.__file__).resolve().parent != SRC / "flatland":
        raise ImportError(f"flatland imported from {flatland.__file__}, not {SRC}")
    modules = {"flatland": flatland}
    for short in ("cli", "census", "symmetry", "surface", "families", "graphs", "tri_io"):
        modules[short] = importlib.import_module(f"flatland.{short}")
    return modules


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def end_to_end(workload: Any, cli: Any, checks: Any, seconds: float,
               setup_s: float) -> dict[str, float]:
    passes, _ = measure(workload, cli, checks, seconds)
    workload.finish(cli, checks, passes)
    samples_ms = [r.ref_seconds() * 1e3 for results in passes for r in results]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(pass_ref_seconds(p) for p in passes),
        "query_p50_ms": quantile(samples_ms, 0.50),
        "query_p90_ms": quantile(samples_ms, 0.90),
        "check_pass_rate": (checks.attempted - checks.failed) / max(checks.attempted, 1),
        "peak_rss_mb": peak_rss_mb(),
    }


def run(args: argparse.Namespace) -> dict[str, Any]:
    factories = {
        "census-serial": lambda: CensusWorkload(1),
        "census-parallel": lambda: CensusWorkload(PARALLEL_JOBS),
        "symmetry-queries": QueryWorkload,
    }
    os.environ.pop("FLATLAND_BUDGET_SECS", None)  # no budget: every call completes
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    checks = Checks()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(tmp, ignore_errors=True)
            CLOCK.tick(force=True)
            start = time.perf_counter()
            modules = import_flatland()
            tmp.mkdir(parents=True)
            workload = factories[args.workload]()
            workload.setup(modules, args.seed, tmp)
            seconds = time.perf_counter() - start
            CLOCK.tick(force=True)
            setup_times.append(CLOCK.normalise(start, seconds))
        cli = modules["cli"]
        if args.trace:
            metrics = traced_run(workload, modules, checks, args.seconds, tmp / "selfcheck")
            units = per_layer_units()
        else:
            metrics = end_to_end(workload, cli, checks, args.seconds,
                                 statistics.median(setup_times))
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["census-serial", "census-parallel", "symmetry-queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "flatland" / "cli.py").is_file():
        print(f"error: no flatland sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
