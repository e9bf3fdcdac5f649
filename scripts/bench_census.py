#!/usr/bin/env python3
"""Time `classify_census` on a ladder of n at jobs 1 and 2 and write the
figures as JSON (by default to BENCH_census.json).

Each timing runs in a fresh child process, which times one
`classify_census(n, jobs=jobs)` call (wall clock) and reports the class
counts, a digest of the census and its own peak resident set size (the
pool's workers aside).  Each (n, jobs) keeps the best of REPEATS children
per tree; with `--baseline`, the two trees are timed alternately, and each
row counts the rounds its tree won (`rounds_won`, see timing.py).  One more
child per tree and n, at jobs 1 and not timed, counts the `_traverse` calls
of the whole census, the distinct catalog complexes whose scan stopped
after the flags at v0 (an unseeded scan that never ran its second phase),
the link-search nodes and the nodes its prefix test ended (`pruned`), both
summed over every `_LinkSearch`, the frontier probes included, the most
nodes of any one `_LinkSearch` (`largest_task_nodes`: the largest frontier
state, which bounds what a second job can gain), and the leaves handed to
`_canonicalize_leaves`.
The tasks, the leaves and the catalog do not depend on the job count, so
neither do these counts.  The script exits 1 if two children of one n give
different censuses.

Examples:
    python3 scripts/bench_census.py
    python3 scripts/bench_census.py --ns 12 24 --jobs 1 --out other.json
    python3 scripts/bench_census.py --label "this change" --baseline ../parent/src
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import itemgetter

import timing

LADDER = (12, 24, 30, 36, 42)


def child(mode: str, n: int, jobs: int) -> None:
    import hashlib
    import resource
    import time

    from flatland import census, classify_census, symmetry

    counts = {}
    if mode == "count":
        traverse, scanner = symmetry._traverse, symmetry._Scanner
        init, second_phase = scanner.__init__, scanner.second_phase
        traversals, unseeded = [0], []  # unseeded scanners, kept alive
        searches, leaves = [], [0]  # every link search, frontier probes included
        search_init, canonicalize = census._LinkSearch.__init__, census._canonicalize_leaves

        def counted(*args):
            traversals[0] += 1
            return traverse(*args)

        def recorded_init(self, t, seed=None, *args, **kwargs):
            if seed is None:
                unseeded.append(self)
            init(self, t, seed, *args, **kwargs)

        def recorded_second_phase(self):
            self.finished = True
            return second_phase(self)

        def recorded_search_init(self, *args, **kwargs):
            searches.append(self)
            search_init(self, *args, **kwargs)

        def counted_leaves(n, found, *args, **kwargs):
            leaves[0] += len(found)
            return canonicalize(n, found, *args, **kwargs)

        symmetry._traverse = counted
        census._LinkSearch.__init__ = recorded_search_init
        census._canonicalize_leaves = counted_leaves
        scanner.__init__, scanner.second_phase = recorded_init, recorded_second_phase
    start = time.perf_counter()
    report = classify_census(n, jobs=jobs)
    seconds = time.perf_counter() - start
    if mode == "count":
        counts = {"traversals": traversals[0], "catalog_scans": len(unseeded),
                  "stopped_at_v0": sum(not hasattr(s, "finished") for s in unseeded),
                  "nodes": sum(search.nodes for search in searches),
                  # a tree without the prefix test ends no node by it
                  "pruned": sum(getattr(search, "pruned", 0) for search in searches),
                  "largest_task_nodes": max((search.nodes for search in searches), default=0),
                  "leaves": leaves[0]}
    digest = hashlib.sha256()
    for item in report.items:
        digest.update(f"{item.code} {item.weakly_regular} {item.combinatorially_regular} "
                      f"{item.matched_family_names}\n".encode())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"n": n, "jobs": jobs, "seconds": round(seconds, 4),
                      "classes": report.total, "tori": report.torus_count,
                      "klein_bottles": report.klein_bottle_count,
                      "census_sha256": digest.hexdigest(), "peak_rss_mb": round(peak, 1),
                      **counts}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", type=int, nargs="+", default=LADDER, metavar="N")
    ap.add_argument("--jobs", type=int, nargs="+", default=(1, 2), metavar="JOBS")
    timing.add_tree_arguments(ap, timing.ROOT / "BENCH_census.json")
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        mode, n, jobs = args.child
        child(mode, int(n), int(jobs))
        return 0

    trees = [args.src] + ([args.baseline] if args.baseline else [])
    ladders: list[list[dict]] = [[] for _ in trees]
    censuses: dict[int, set[str]] = {}  # n -> the census digests its children gave
    seconds = itemgetter("seconds")
    for n in args.ns:
        counts = [timing.child_output(__file__, ["count", str(n), "1"], src) for src in trees]
        for jobs in args.jobs:
            rounds = timing.alternate(__file__, ["time", str(n), str(jobs)],
                                      args.src, args.baseline)
            for ladder, tree_runs, counted in zip(ladders, zip(*rounds), counts):
                row = min(tree_runs, key=seconds)
                row.update({key: counted[key] for key in
                            ("traversals", "catalog_scans", "stopped_at_v0", "nodes", "pruned",
                             "largest_task_nodes", "leaves")})
                ladder.append(row)
                censuses.setdefault(n, set()).update(run["census_sha256"]
                                                     for run in (*tree_runs, counted))
            if args.baseline:
                ladders[0][-1]["rounds_won"] = timing.rounds_won(rounds, seconds)
            for ladder in ladders:
                print(json.dumps(ladder[-1]), file=sys.stderr)
    result = {
        "what": f"classify_census(n, jobs=jobs): the best of {timing.REPEATS} fresh processes "
                "that each time one census, in wall-clock seconds, and the peak RSS of that "
                f"process; with a baseline, rounds_won counts the rounds of {timing.REPEATS} "
                "in which this tree was the faster; traversals, stopped_at_v0 (of "
                "catalog_scans), the link-search nodes (frontier probes included), the "
                "nodes the prefix test ended (pruned), the most nodes of any one link search "
                "(largest_task_nodes) and the leaves canonicalised come from one more census "
                "at jobs 1.  Per-layer times wait for a census stats record.",
        "machine": timing.machine(),
        "label": args.label,
        "ladder": ladders[0],
    }
    if args.baseline:
        result["baseline"] = {"ladder": ladders[1]}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    differ = [n for n, digests in censuses.items() if len(digests) > 1]
    if differ:
        print(f"error: the censuses differ at n = {differ}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
