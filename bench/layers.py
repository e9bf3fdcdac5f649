"""Per-layer metrics: the traced run and the serial replay of the pool's work."""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any

from selfcheck import run_selfcheck
from tracing import Tracer, count, inclusive, layer_self_times, root_time, self_times
from workloads import CLOCK, measure, pass_ref_seconds, pass_seconds

# Counts that must repeat exactly from one traced pass to the next.
REPEATING = ("census.nodes", "census.leaves", "census.classes", "symmetry.traversals",
             "families.catalog_size", "trace.spans")


def pass_metrics(workload: Any, tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass.  Keys starting with `_` are
    intermediate values that are not reported."""
    spans = tracer.spans
    own = self_times(spans)
    m: dict[str, float] = {"trace.run_s": root_time(spans), "trace.spans": len(spans)}
    layers = layer_self_times(spans)
    m.update({f"{layer}.self_s": t for layer, t in layers.items()})
    m["_layer_sum"] = sum(layers.values())
    m["families.known_catalog_s"] = inclusive(spans, "families.known_catalog")
    m["families.catalog_size"] = sum(s[5] or 0 for s in spans if s[0] == "families.known_catalog")
    m["symmetry.canonical_form_s"] = inclusive(spans, "symmetry.canonical_form")
    m["symmetry.traversals"] = count(spans, "symmetry._traverse")
    m["symmetry.automorphism_group_s"] = inclusive(spans, "symmetry.automorphism_group")
    m["symmetry.find_isomorphism_s"] = inclusive(spans, "symmetry.find_isomorphism")
    m["surface.build_triangulation_s"] = inclusive(spans, "surface.build_triangulation")
    m["graphs.invariants_s"] = (inclusive(spans, "graphs.common_neighbor_graph")
                                + inclusive(spans, "graphs.graph_shape"))
    m["tri_io.read_s"] = inclusive(spans, "tri_io.read_tri")
    m["census.pool_wait_s"] = inclusive(spans, "census.pool")
    m["census.catalog_canon_s"] = sum(
        s[2] - s[1] for s in spans
        if s[0] == "symmetry.canonical_form" and s[3] >= 0
        and spans[s[3]][0] == "census.classify_census")
    m["census.leaf_canon_s"] = inclusive(spans, "census._canonicalize_leaves")
    for r, n in enumerate(getattr(workload, "ladder", ())):
        objects = [o for rid, o in tracer.objects if rid == r]
        m[f"_probes.n{n}"] = len(objects)
        m[f"census.nodes.n{n}"] = sum(getattr(o, "nodes", 0) for o in objects)
        m[f"census.leaves.n{n}"] = sum(s[5] or 0 for s in spans
                                       if s[0] == "census._canonicalize_leaves" and s[4] == r)
        m[f"census.classes.n{n}"] = sum(s[5] or 0 for s in spans
                                        if s[0] == "census._enumerate_with_codes" and s[4] == r)
        m[f"census.search_s.n{n}"] = sum(t for s, t in zip(spans, own)
                                         if s[0] == "census._search_worker" and s[4] == r)
    return m


def replay_frontier(census: Any, workload: Any, m: dict[str, float]) -> None:
    """Re-run in this process, one state at a time, the work that
    `--jobs J` hands to its pool: `_frontier(n, 4*J)`, then search and
    canonicalise each state serially.  Overwrites the search, node and leaf
    figures of `m` (the workers are not traced) and adds the frontier shape."""
    max_nodes = critical = 0.0
    for n in workload.ladder:
        states, _ = census._frontier(n, workload.jobs * 4)
        per_state = []
        for faces in states:
            state = census._LinkSearch(n, list(faces), None, None)
            leaves: list = []
            t0 = time.perf_counter()
            state.run(leaves)
            t1 = time.perf_counter()
            census._canonicalize_leaves(n, leaves)
            t2 = time.perf_counter()
            per_state.append((state.nodes, t1 - t0, t2 - t1, len(leaves)))
        nodes = m[f"_probes.n{n}"] + sum(p[0] for p in per_state)
        m[f"census.nodes.n{n}"] = nodes
        m[f"census.leaves.n{n}"] += sum(p[3] for p in per_state)  # frontier leaves already counted
        m[f"census.search_s.n{n}"] = sum(p[1] for p in per_state)
        m["census.leaf_canon_s"] += sum(p[2] for p in per_state)
        m[f"census.frontier_states.n{n}"] = len(states)
        largest = max((p[0] for p in per_state), default=0)
        m[f"census.frontier_max_share.n{n}"] = largest / nodes if nodes else 0.0
        max_nodes += largest
        critical += max((p[1] + p[2] for p in per_state), default=0.0)
    m["_frontier_max_nodes"] = max_nodes
    m["census.frontier_critical_s"] = critical


def totals(workload: Any, m: dict[str, float]) -> None:
    ladder = getattr(workload, "ladder", ())
    for key in ("census.nodes", "census.leaves", "census.classes", "census.search_s",
                "census.frontier_states"):
        m[key] = sum(m.get(f"{key}.n{n}", 0) for n in ladder)
    if m["census.nodes"]:
        m["census.us_per_node"] = m["census.search_s"] / m["census.nodes"] * 1e6
        m["census.frontier_max_share"] = m.get("_frontier_max_nodes", 0) / m["census.nodes"]
    if m["census.leaves"]:
        m["census.leaf_yield"] = m["census.classes"] / m["census.leaves"]


def traced_run(workload: Any, modules: dict[str, Any], checks: Any, seconds: float,
               workdir: Any) -> dict[str, float]:
    """Alternate untraced and traced passes for `seconds`; report the traced
    pass of median length plus the untraced median and their difference."""
    run_selfcheck(modules, checks, workdir)
    cli = modules["cli"]
    tracer = Tracer()
    traced_results = []

    def traced_pass() -> dict[str, float]:
        missing = tracer.install(modules)
        try:
            results = workload.run_pass(cli)
        finally:
            tracer.restore()
        for name in missing:
            print(f"trace: binding {name} not found, not traced", file=sys.stderr)
        workload.check_pass(checks, results)
        traced_results.append(results)
        m = pass_metrics(workload, tracer)
        m["_pass"] = len(traced_results) - 1
        checks.expect(abs(m["_layer_sum"] - m["trace.run_s"]) < 1e-6,
                      f"layer self times sum to {m['_layer_sum']}, traced run_s {m['trace.run_s']}")
        tracer.reset()  # free the spans before the next pass
        totals(workload, m)
        return m

    untraced, traced = measure(workload, cli, checks, seconds, traced_pass, min_passes=1)
    workload.finish(cli, checks, untraced + traced_results)
    for key in REPEATING:
        values = {m.get(key) for m in traced}
        checks.expect(len(values) == 1, f"{key} differs between traced passes: {values}")
    chosen = sorted(traced, key=lambda m: m["trace.run_s"])[(len(traced) - 1) // 2]
    if getattr(workload, "jobs", 1) > 1:
        try:
            replay_frontier(modules["census"], workload, chosen)
        except (AttributeError, TypeError, ValueError) as exc:
            print(f"trace: frontier replay unavailable ({exc})", file=sys.stderr)
    totals(workload, chosen)
    chosen["trace.untraced_run_s"] = statistics.median(pass_seconds(p) for p in untraced)
    # In reference-speed seconds, so that the machine's drift between the
    # two passes does not show as overhead.
    chosen["trace.overhead_s"] = (pass_ref_seconds(traced_results[int(chosen["_pass"])])
                                  - statistics.median(pass_ref_seconds(p) for p in untraced))
    chosen["machine.kernel_ms"] = CLOCK.median_kernel_ms()
    return chosen
