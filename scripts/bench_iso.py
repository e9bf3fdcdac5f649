#!/usr/bin/env python3
"""Time `find_isomorphism` per verdict class and write the figures as JSON
(by default to BENCH_iso.json).

Two sets of pairs, each timed in fresh child processes:
- catalog: every pair of distinct complexes in `known_catalog(n)`, for each
  n of the ladder (n = 9..30 by default: 5 477 pairs on 402 complexes);
- members: the 11 family members of the benchmark's `symmetry-queries`
  workload, each against a seeded relabelled copy of itself, and every
  same-n torus/Klein-bottle pair of them.

A pair's verdict class is "isomorphic" or the invariant that told it apart:
"orientability", "G_0" .. "G_6" or "canonical code".  A child times each
pair of its set once, on freshly built complexes (so nothing a complex
caches is reused).  Each set runs in REPEATS children per tree, and each
pair's best wall time counts; with `--baseline`, the two trees are timed
alternately (see timing.py).  A class's seconds are the sum over its
pairs.  `verdicts_sha256` digests every pair's verdict string in order,
the mapping aside, so two outputs with the same digest gave the same
verdicts and invariants.  A child exits 1 if a mapping it gets is not an
isomorphism, and the script then exits 1.

Examples:
    python3 scripts/bench_iso.py
    python3 scripts/bench_iso.py --src ../other/src --out other.json
    python3 scripts/bench_iso.py --label "this change" --baseline ../parent/src
"""

from __future__ import annotations

import argparse
import json
import sys

import timing

LADDER = tuple(range(9, 31))
# The members of the benchmark's symmetry-queries workload, 18 <= n <= 48.
MEMBERS = ("T(6,3,0)", "B(3,6)", "T(21,1,4)", "T(12,2,5)", "K(4,6)", "T(9,3,3)",
           "Q(7,4)", "T(6,6,0)", "K(3,12)", "T(12,4,4)", "B(6,8)")
SEED = 19


def catalog_pairs(ns):
    from flatland import known_catalog

    for n in ns:
        complexes = list(dict.fromkeys(named.complex for named in known_catalog(n)))
        for i, a in enumerate(complexes):
            for b in complexes[i + 1:]:
                yield a, b


def member_pairs():
    import random

    from flatland import build_triangulation, construct_family, parse_name

    rng = random.Random(SEED)
    members = []
    for name in MEMBERS:
        t = construct_family(parse_name(name)).complex
        perm = list(range(t.n))
        rng.shuffle(perm)
        copy = build_triangulation(t.n, [[perm[v] for v in face] for face in t.faces])
        members.append((name[0] == "T", t, copy))
    for i, (torus, t, copy) in enumerate(members):
        yield t, copy
        for other_torus, other, _ in members[i + 1:]:
            if other.n == t.n and other_torus != torus:
                yield copy, other


def verdict_class(result) -> str:
    if result.isomorphic:
        return "isomorphic"
    return result.distinguishing_invariant.split("(EG)")[0].split(" (")[0]


def child(which: str, ns) -> int:
    import hashlib
    import resource
    import time

    from flatland import build_triangulation, find_isomorphism

    verdicts, seconds = [], []
    digest = hashlib.sha256()
    wrong = 0
    for a, b in (catalog_pairs(ns) if which == "catalog" else member_pairs()):
        fresh_a, fresh_b = build_triangulation(a.n, a.faces), build_triangulation(b.n, b.faces)
        start = time.perf_counter()
        result = find_isomorphism(fresh_a, fresh_b)
        seconds.append(round(time.perf_counter() - start, 7))
        if result.isomorphic:
            image = {tuple(sorted(result.mapping[v] for v in face)) for face in a.faces}
            wrong += image != set(b.faces)
        verdicts.append(verdict_class(result))
        digest.update(f"{result.distinguishing_invariant or 'isomorphic'}\n".encode())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"verdicts": verdicts, "seconds": seconds,
                      "verdicts_sha256": digest.hexdigest(),
                      "peak_rss_mb": round(peak, 1), "wrong_mappings": wrong}))
    return 1 if wrong else 0


def summary(runs: list[dict]) -> dict:
    """One set's figures from its children on one tree: each pair's best
    time, summed per verdict class."""
    if len({run["verdicts_sha256"] for run in runs}) != 1:
        raise SystemExit("error: the children of one tree gave different verdicts")
    best = [min(times) for times in zip(*(run["seconds"] for run in runs))]
    classes: dict[str, dict] = {}
    for verdict, seconds in zip(runs[0]["verdicts"], best):
        row = classes.setdefault(verdict, {"pairs": 0, "seconds": 0.0})
        row["pairs"] += 1
        row["seconds"] += seconds
    for row in classes.values():
        row["seconds"] = round(row["seconds"], 6)
    return {"pairs": len(best), "seconds": round(sum(best), 4),
            "classes": dict(sorted(classes.items())),
            "verdicts_sha256": runs[0]["verdicts_sha256"],
            "peak_rss_mb": min(run["peak_rss_mb"] for run in runs),
            "wrong_mappings": max(run["wrong_mappings"] for run in runs)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", type=int, nargs="+", default=LADDER, metavar="N",
                    help="catalog vertex counts (default 9..30)")
    timing.add_tree_arguments(ap, timing.ROOT / "BENCH_iso.json")
    ap.add_argument("--child", choices=("catalog", "members"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        return child(args.child, args.ns)

    sets, baseline = {}, {}
    for which in ("catalog", "members"):
        argv = [which, "--ns", *map(str, args.ns)]
        ours, theirs = timing.alternate(__file__, argv, args.src, args.baseline)
        for figures, runs in ((sets, ours), (baseline, theirs)):
            if runs:
                figures[which] = summary(runs)
                print(json.dumps({which: figures[which]}), file=sys.stderr)
    result = {
        "what": f"find_isomorphism per verdict class: the sum over its pairs of each pair's "
                f"best of {timing.REPEATS} wall-clock seconds on freshly built complexes, one "
                "per fresh process, and the least peak RSS of those processes",
        "machine": timing.machine(),
        "label": args.label,
        "ns": list(args.ns),
        "member_names": list(MEMBERS),
        **sets,
    }
    if args.baseline:
        result["baseline"] = baseline
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    wrong = sum(row["wrong_mappings"] for row in [*sets.values(), *baseline.values()])
    if wrong:
        print(f"error: {wrong} mappings are not isomorphisms", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
