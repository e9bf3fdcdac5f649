#!/usr/bin/env python3
"""Time `automorphism_group` on the flag-regular tori T(k,k,0) and write the
figures as JSON (by default to BENCH_aut.json).

T(k,k,0) has n = k*k vertices and |Aut| = 12n, the largest group a degree-6
complex on n vertices can have.  Each k runs in a fresh child process, which
builds the member, times `automorphism_group` (best of 3, wall clock) and
reports its own peak resident set size: the interpreter, the member and the
scan.  A child that gets the order wrong makes the script exit 1.

Examples:
    python3 scripts/bench_aut.py
    python3 scripts/bench_aut.py --src ../other/src --ks 6 12 20 --out other.json
    python3 scripts/bench_aut.py --label "this change" --baseline other.json
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
LADDER = (6, 12, 20, 30, 40, 60)
REPEATS = 3


def child(k: int) -> None:
    import resource
    import time

    from flatland import automorphism_group, construct_family, parse_name

    t = construct_family(parse_name(f"T({k},{k},0)")).complex
    best, order = float("inf"), 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        order = automorphism_group(t).order
        best = min(best, time.perf_counter() - start)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"k": k, "n": t.n, "order": order, "seconds": round(best, 4),
                      "peak_rss_mb": round(peak, 1)}))


def measure(k: int, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--child", str(k)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ks", type=int, nargs="+", default=LADDER, metavar="K")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the flatland package to time")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_aut.json")
    ap.add_argument("--label", default="", help="what was timed, e.g. a commit")
    ap.add_argument("--baseline", type=Path,
                    help="an earlier output of this script, kept in the new one")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        child(args.child)
        return 0

    ladder = []
    for k in args.ks:
        row = measure(k, args.src.resolve())
        print(json.dumps(row), file=sys.stderr)
        ladder.append(row)
    result = {
        "what": f"automorphism_group(T(k,k,0)): best of {REPEATS} wall-clock seconds, "
                "and peak RSS of a fresh process that builds the member and scans it",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "system": platform.system()},
        "label": args.label,
        "ladder": ladder,
    }
    if args.baseline:
        earlier = json.loads(args.baseline.read_text())
        result["baseline"] = {"label": earlier.get("label", ""), "ladder": earlier["ladder"]}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    wrong = [row["k"] for row in ladder if row["order"] != 12 * row["n"]]
    if wrong:
        print(f"error: order is not 12n for k = {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
