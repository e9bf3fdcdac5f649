#!/usr/bin/env python3
"""Time `automorphism_group` on the flag-regular tori T(k,k,0) and on Klein
bottles K(m,2n), and write the figures as JSON (by default to
BENCH_aut.json).

T(k,k,0) has n = k*k vertices and |Aut| = 12n, the largest group a degree-6
complex on n vertices can have.  A Klein bottle has several vertex orbits,
so its scan first finds the cell whose flags it reads (`_first_cell`, grown
by balls), and its key may read more than one vertex class.  Each timing
runs in a fresh child process, which builds the member, times its load from
`.tri` text (`parse_tri`, then `build_triangulation`: `parse_s` and
`build_s`) and one `automorphism_group` call on the loaded complex
(`seconds`), all wall clock, and reports its own peak resident set size: the
interpreter, the member and the scan.  A second, untimed
`automorphism_group` call in the same child counts the scan's `_traverse`
calls (`traversals`) and its checks of a generator against the face set
(`_face_map` calls, `checks`), so the timed call runs unwrapped and a
refresh shows whether the time moved with the work.  Each member keeps the
best of REPEATS children per tree: the row of the fastest scan, with each
load figure the least of its own, and the median of the children's scan
times (`median_s`), which a single fast or slow child does not move.  With
`--baseline`, the two trees are timed alternately, and each row counts the
rounds its tree won (`rounds_won`, by `seconds`; see timing.py).  The script
exits 1 on a wrong result: a torus whose order is not 12n, or a member to
which the two trees give different orders or vertex orbits.  Members on
which the trees do different scan work (traversals or checks) are listed in
the JSON (`work_differs`) and on stderr, and the script exits 0: a change to
the scan moves its work on purpose.

Examples:
    python3 scripts/bench_aut.py
    python3 scripts/bench_aut.py --src ../other/src --ks 6 12 20 --kleins --out other.json
    python3 scripts/bench_aut.py --label "this change" --baseline ../parent/src
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from operator import itemgetter

import timing

LADDER = (6, 12, 20, 30, 40, 60)
KLEINS = ("K(10,20)", "K(20,40)", "K(50,100)")


def child(name: str) -> None:
    import resource
    import time

    from flatland import (automorphism_group, build_triangulation, construct_family, format_tri,
                          parse_name, parse_tri, symmetry)

    text = format_tri(construct_family(parse_name(name)).complex)
    start = time.perf_counter()
    n, faces = parse_tri(text)
    parsed = time.perf_counter()
    t = build_triangulation(n, faces)
    built = time.perf_counter()
    group = automorphism_group(t)
    seconds = time.perf_counter() - built
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    calls = {"_traverse": 0, "_face_map": 0}

    def counting(attr):
        fn = getattr(symmetry, attr)

        def counted(*args):
            calls[attr] += 1
            return fn(*args)
        return counted

    for attr in calls:
        setattr(symmetry, attr, counting(attr))
    automorphism_group(t)
    print(json.dumps({"member": name, "n": t.n, "order": group.order,
                      "vertex_orbits": len(group.vertex_orbits),
                      "traversals": calls["_traverse"], "checks": calls["_face_map"],
                      "seconds": round(seconds, 4),
                      "parse_s": round(parsed - start, 5), "build_s": round(built - parsed, 5),
                      "peak_rss_mb": round(peak, 1)}))


def best(rows: tuple[dict, ...]) -> dict:
    """The row of the fastest scan, with each load figure the least of any
    row, and the median scan time of the rows."""
    return {**min(rows, key=itemgetter("seconds")),
            **{key: min(row[key] for row in rows) for key in ("parse_s", "build_s")},
            "median_s": statistics.median(row["seconds"] for row in rows)}


GROUP = itemgetter("order", "vertex_orbits")
WORK = itemgetter("traversals", "checks")


def compare(result: dict) -> tuple[list[str], list[str]]:
    """(wrong, work) for a result: what makes the script exit 1, and the
    members on which the two trees do different scan work."""
    base = result.get("baseline", {"ladder": [], "klein": []})
    wrong = [f"order is not 12n for {row['member']}"
             for row in result["ladder"] + base["ladder"] if row["order"] != 12 * row["n"]]
    pairs = list(zip(result["ladder"] + result["klein"], base["ladder"] + base["klein"]))
    wrong += [f"the trees give different groups for {ours['member']}"
              for ours, theirs in pairs if GROUP(ours) != GROUP(theirs)]
    return wrong, [ours["member"] for ours, theirs in pairs if WORK(ours) != WORK(theirs)]


def time_members(names: list[str], args: argparse.Namespace) -> tuple[list[dict], list[dict]]:
    """The best child per member on --src and, with a baseline, on it."""
    ours: list[dict] = []
    theirs: list[dict] = []
    for name in names:
        rounds = timing.alternate(__file__, [name], args.src, args.baseline)
        mine, other = zip(*rounds)
        ours.append(best(mine))
        if args.baseline:
            ours[-1]["rounds_won"] = timing.rounds_won(rounds, itemgetter("seconds"))
            theirs.append(best(other))
            print(json.dumps(theirs[-1]), file=sys.stderr)
        print(json.dumps(ours[-1]), file=sys.stderr)
    return ours, theirs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ks", type=int, nargs="+", default=LADDER, metavar="K")
    ap.add_argument("--kleins", nargs="*", default=KLEINS, metavar="NAME",
                    help="Klein bottles to time after the tori; none when given empty")
    timing.add_tree_arguments(ap, timing.ROOT / "BENCH_aut.json")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        child(args.child)
        return 0

    ladder, baseline = time_members([f"T({k},{k},0)" for k in args.ks], args)
    klein, klein_baseline = time_members(list(args.kleins), args)
    result = {
        "what": f"automorphism_group on T(k,k,0) (ladder) and on Klein bottles (klein): the "
                f"best of {timing.REPEATS} fresh processes that each load the member from its "
                ".tri text (parse_s: parse_tri, build_s: build_triangulation; each the best of "
                "its own) and time one scan (seconds; median_s is the median of the "
                f"{timing.REPEATS}), in wall-clock seconds, and the peak RSS "
                "of the fastest scan's process; traversals counts the _traverse calls and "
                "checks the _face_map calls (generators checked against the face set) of a "
                "second, untimed scan; with "
                f"a baseline, rounds_won counts the rounds of {timing.REPEATS} in which this "
                "tree was the faster",
        "machine": timing.machine(),
        "label": args.label,
        "ladder": ladder,
        "klein": klein,
    }
    if args.baseline:
        result["baseline"] = {"ladder": baseline, "klein": klein_baseline}
    wrong, work = compare(result)
    if args.baseline:
        result["work_differs"] = work
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    if work:
        print(f"note: the trees do different scan work for {work}", file=sys.stderr)
    for message in wrong:
        print(f"error: {message}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
