#!/usr/bin/env python3
"""Time `automorphism_group` on the flag-regular tori T(k,k,0) and write the
figures as JSON (by default to BENCH_aut.json).

T(k,k,0) has n = k*k vertices and |Aut| = 12n, the largest group a degree-6
complex on n vertices can have.  Each timing runs in a fresh child process,
which builds the member, times one `automorphism_group` call (wall clock)
and reports its own peak resident set size: the interpreter, the member and
the scan.  Each k keeps the best of REPEATS children per tree; with
`--baseline`, the two trees are timed alternately, and each row counts the
rounds its tree won (`rounds_won`, see timing.py).  A child
that gets the order wrong makes the script exit 1.

Examples:
    python3 scripts/bench_aut.py
    python3 scripts/bench_aut.py --src ../other/src --ks 6 12 20 --out other.json
    python3 scripts/bench_aut.py --label "this change" --baseline ../parent/src
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import itemgetter

import timing

LADDER = (6, 12, 20, 30, 40, 60)


def child(k: int) -> None:
    import resource
    import time

    from flatland import automorphism_group, construct_family, parse_name

    t = construct_family(parse_name(f"T({k},{k},0)")).complex
    start = time.perf_counter()
    order = automorphism_group(t).order
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"k": k, "n": t.n, "order": order, "seconds": round(seconds, 4),
                      "peak_rss_mb": round(peak, 1)}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ks", type=int, nargs="+", default=LADDER, metavar="K")
    timing.add_tree_arguments(ap, timing.ROOT / "BENCH_aut.json")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        child(args.child)
        return 0

    ladder: list[dict] = []
    baseline: list[dict] = []
    seconds = itemgetter("seconds")
    for k in args.ks:
        rounds = timing.alternate(__file__, [str(k)], args.src, args.baseline)
        ours, theirs = zip(*rounds)
        ladder.append(min(ours, key=seconds))
        if args.baseline:
            ladder[-1]["rounds_won"] = timing.rounds_won(rounds, seconds)
            baseline.append(min(theirs, key=seconds))
            print(json.dumps(baseline[-1]), file=sys.stderr)
        print(json.dumps(ladder[-1]), file=sys.stderr)
    result = {
        "what": f"automorphism_group(T(k,k,0)): the best of {timing.REPEATS} fresh processes "
                "that each build the member and time one scan, in wall-clock seconds, "
                "and the peak RSS of that process; with a baseline, rounds_won counts the "
                f"rounds of {timing.REPEATS} in which this tree was the faster",
        "machine": timing.machine(),
        "label": args.label,
        "ladder": ladder,
    }
    if args.baseline:
        result["baseline"] = {"ladder": baseline}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    wrong = [row["k"] for row in ladder + baseline if row["order"] != 12 * row["n"]]
    if wrong:
        print(f"error: order is not 12n for k = {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
