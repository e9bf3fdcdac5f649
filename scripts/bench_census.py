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
of the whole census, the distinct catalog complexes (the calls through
`census.canonical_form`) and those whose scan stopped after the flags at
v0 (it never ran its second phase),
the link-search nodes and the nodes its prefix test ended (`pruned`), both
summed over every `_LinkSearch`, the frontier probes included, the most
nodes of any one `_LinkSearch` (`largest_task_nodes`: the largest frontier
state, which bounds what a second job can gain), and the leaves handed to
`_canonicalize_leaves`.
The tasks, the leaves and the catalog do not depend on the job count, so
neither do these counts.  Each child digests its census twice: with the
canonical codes (`census_sha256`), and without them (`classes_sha256`: the
surface, flags and family names of each class, which give the class
counts too).  The script exits 1 on a wrong result: two children of one
tree and n with different censuses, or two trees with different classes.
Where the trees' classes agree but their codes differ, a change to the scan
moved the codes on purpose: the n are listed in the JSON (`codes_differ`)
and on stderr, and the script exits 0.

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
        traverse, second_phase = symmetry._traverse, symmetry._Scanner.second_phase
        catalog_form = census.canonical_form
        traversals, catalog_scans, finished = [0], [0], [0]
        in_catalog = [False]  # whether a catalog scan is running
        searches, leaves = [], [0]  # every link search, frontier probes included
        search_init, canonicalize = census._LinkSearch.__init__, census._canonicalize_leaves

        def counted(*args):
            traversals[0] += 1
            return traverse(*args)

        def counted_catalog_form(*args, **kwargs):
            catalog_scans[0] += 1
            in_catalog[0] = True
            try:
                return catalog_form(*args, **kwargs)
            finally:
                in_catalog[0] = False

        def recorded_second_phase(self):
            finished[0] += in_catalog[0]
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
        census.canonical_form = counted_catalog_form
        symmetry._Scanner.second_phase = recorded_second_phase
    start = time.perf_counter()
    report = classify_census(n, jobs=jobs)
    seconds = time.perf_counter() - start
    if mode == "count":
        counts = {"traversals": traversals[0], "catalog_scans": catalog_scans[0],
                  "stopped_at_v0": catalog_scans[0] - finished[0],
                  "nodes": sum(search.nodes for search in searches),
                  # a tree without the prefix test ends no node by it
                  "pruned": sum(getattr(search, "pruned", 0) for search in searches),
                  "largest_task_nodes": max((search.nodes for search in searches), default=0),
                  "leaves": leaves[0]}
    digest = hashlib.sha256()
    for item in report.items:
        digest.update(f"{item.code} {item.weakly_regular} {item.combinatorially_regular} "
                      f"{item.matched_family_names}\n".encode())
    classes = sorted(f"{item.surface} {item.weakly_regular} {item.combinatorially_regular} "
                     f"{item.matched_family_names}\n" for item in report.items)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"n": n, "jobs": jobs, "seconds": round(seconds, 4),
                      "classes": report.total, "tori": report.torus_count,
                      "klein_bottles": report.klein_bottle_count,
                      "census_sha256": digest.hexdigest(),
                      "classes_sha256": hashlib.sha256("".join(classes).encode()).hexdigest(),
                      "peak_rss_mb": round(peak, 1), **counts}))


def compare(runs: list[list[dict]]) -> tuple[list[int], list[int]]:
    """(wrong, recoded) over the child outputs of each tree: the n with a
    wrong result, which makes the script exit 1, and the n at which the
    trees' classes agree but their canonical codes differ."""
    wrong, recoded = [], []
    for n in sorted({run["n"] for outputs in runs for run in outputs}):
        trees = [[run for run in outputs if run["n"] == n] for outputs in runs]
        codes = [{run["census_sha256"] for run in tree} for tree in trees]
        if (any(len(digests) > 1 for digests in codes)
                or len({run["classes_sha256"] for tree in trees for run in tree}) > 1):
            wrong.append(n)
        elif len(set().union(*codes)) > 1:
            recoded.append(n)
    return wrong, recoded


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
    runs: list[list[dict]] = [[] for _ in trees]  # every child output of each tree
    seconds = itemgetter("seconds")
    for n in args.ns:
        counts = [timing.child_output(__file__, ["count", str(n), "1"], src) for src in trees]
        for outputs, counted in zip(runs, counts):
            outputs.append(counted)
        for jobs in args.jobs:
            rounds = timing.alternate(__file__, ["time", str(n), str(jobs)],
                                      args.src, args.baseline)
            for ladder, outputs, tree_runs, counted in zip(ladders, runs, zip(*rounds), counts):
                outputs.extend(tree_runs)
                row = min(tree_runs, key=seconds)
                row.update({key: counted[key] for key in
                            ("traversals", "catalog_scans", "stopped_at_v0", "nodes", "pruned",
                             "largest_task_nodes", "leaves")})
                ladder.append(row)
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
    wrong, recoded = compare(runs)
    if args.baseline:
        result["baseline"] = {"ladder": ladders[1]}
        result["codes_differ"] = recoded
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    if recoded:
        print(f"note: the trees give the same classes but different codes at n = {recoded}",
              file=sys.stderr)
    if wrong:
        print(f"error: the censuses differ at n = {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
