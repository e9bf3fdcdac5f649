#!/usr/bin/env python3
"""Time `find_isomorphism` per verdict class and write the figures as JSON
(by default to BENCH_iso.json).

Two sets of pairs, each timed in a fresh child process:
- catalog: every pair of distinct complexes in `known_catalog(n)`, for each
  n of the ladder (n = 9..30 by default: 5 477 pairs on 402 complexes);
- members: the 11 family members of the benchmark's `symmetry-queries`
  workload, each against a seeded relabelled copy of itself, and every
  same-n torus/Klein-bottle pair of them.

A pair's verdict class is "isomorphic" or the invariant that told it apart:
"orientability", "G_0" .. "G_6" or "canonical code".  Each pair is timed
REPEATS times on freshly built complexes (so nothing a complex caches is
reused), and the best wall time counts; a class's seconds are the sum over
its pairs.  `verdicts_sha256` digests every pair's verdict string in order,
the mapping aside, so two outputs with the same digest gave the same
verdicts and invariants.  A child exits 1 if a mapping it gets is not an
isomorphism, and the script then exits 1.

Examples:
    python3 scripts/bench_iso.py
    python3 scripts/bench_iso.py --src ../other/src --out other.json
    python3 scripts/bench_iso.py --label "this change" --baseline other.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = tuple(range(9, 31))
# The members of the benchmark's symmetry-queries workload, 18 <= n <= 48.
MEMBERS = ("T(6,3,0)", "B(3,6)", "T(21,1,4)", "T(12,2,5)", "K(4,6)", "T(9,3,3)",
           "Q(7,4)", "T(6,6,0)", "K(3,12)", "T(12,4,4)", "B(6,8)")
REPEATS = 3
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

    pairs = catalog_pairs(ns) if which == "catalog" else member_pairs()
    classes: dict[str, dict] = {}
    digest = hashlib.sha256()
    wrong = 0
    for a, b in pairs:
        best = float("inf")
        for _ in range(REPEATS):
            fresh_a, fresh_b = build_triangulation(a.n, a.faces), build_triangulation(b.n, b.faces)
            start = time.perf_counter()
            result = find_isomorphism(fresh_a, fresh_b)
            best = min(best, time.perf_counter() - start)
        if result.isomorphic:
            image = {tuple(sorted(result.mapping[v] for v in face)) for face in a.faces}
            wrong += image != set(b.faces)
        verdict = verdict_class(result)
        digest.update(f"{result.distinguishing_invariant or 'isomorphic'}\n".encode())
        row = classes.setdefault(verdict, {"pairs": 0, "seconds": 0.0})
        row["pairs"] += 1
        row["seconds"] += best
    for row in classes.values():
        row["seconds"] = round(row["seconds"], 6)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"pairs": sum(row["pairs"] for row in classes.values()),
                      "seconds": round(sum(row["seconds"] for row in classes.values()), 4),
                      "classes": dict(sorted(classes.items())),
                      "verdicts_sha256": digest.hexdigest(),
                      "peak_rss_mb": round(peak, 1), "wrong_mappings": wrong}))
    return 1 if wrong else 0


def measure(which: str, ns, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--child", which, "--ns", *map(str, ns)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout:
        raise SystemExit(f"error: the {which} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", type=int, nargs="+", default=LADDER, metavar="N",
                    help="catalog vertex counts (default 9..30)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the flatland package to time")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_iso.json")
    ap.add_argument("--label", default="", help="what was timed, e.g. a commit")
    ap.add_argument("--baseline", type=Path,
                    help="an earlier output of this script, kept in the new one")
    ap.add_argument("--child", choices=("catalog", "members"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        return child(args.child, args.ns)

    sets = {}
    for which in ("catalog", "members"):
        sets[which] = measure(which, args.ns, args.src.resolve())
        print(json.dumps({which: sets[which]}), file=sys.stderr)
    result = {
        "what": f"find_isomorphism per verdict class: the sum over its pairs of each pair's "
                f"best of {REPEATS} wall-clock seconds on freshly built complexes, and the "
                "peak RSS of the fresh process that timed the set",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "system": platform.system()},
        "label": args.label,
        "ns": list(args.ns),
        "member_names": list(MEMBERS),
        **sets,
    }
    if args.baseline:
        earlier = json.loads(args.baseline.read_text())
        result["baseline"] = {key: earlier[key] for key in ("label", "catalog", "members")}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    wrong = sum(row["wrong_mappings"] for row in sets.values())
    if wrong:
        print(f"error: {wrong} mappings are not isomorphisms", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
