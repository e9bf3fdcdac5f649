"""Command-line front end.

Exit codes: 0 success / affirmative verdict; 1 well-formed negative verdict
(non-isomorphic; an invalid complex under `check`); 2 usage, I/O or input
error (an invalid complex under any other command, an oversized input, or
any unexpected error); 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence, TextIO

from . import census as census_mod
from . import tri_io
from .census import CensusReport, ResourceLimit
from .families import construct_family, parse_name
from .graphs import common_neighbor_graph, graph_shape
from .surface import Triangulation, build_triangulation, manifold_report, skeleton_graph
from .symmetry import automorphism_group, find_isomorphism, regularity_flags


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep usage failures inside run()
        raise _UsageError(message)


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="flatland", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    census_args = argparse.ArgumentParser(add_help=False)
    census_args.add_argument("--n", type=int, required=True)
    census_args.add_argument("--jobs", type=int, default=1)
    census_args.add_argument("--budget", type=float, default=None, metavar="SECONDS")

    p = sub.add_parser("family", help="construct a named family member")
    p.add_argument("name", help="family name, e.g. T(12,1,3), B(3,4), Q(5,2)")
    out_or_json = p.add_mutually_exclusive_group()
    out_or_json.add_argument("--out", help="write a .tri file instead of stdout")
    out_or_json.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="validate a .tri file and report invariants")
    p.add_argument("path")

    p = sub.add_parser("invariant", help="shape of the common-neighbor graph G_C(EG(M))")
    p.add_argument("path")
    p.add_argument("--g", type=int, required=True, metavar="C", dest="count")

    p = sub.add_parser("iso", help="isomorphism certificate or distinguishing invariant")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("aut", help="automorphism group summary")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="census emission to a directory",
                       parents=[census_args])
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="census classification summary",
                       parents=[census_args])
    p.add_argument("--json", action="store_true")
    return parser


def _census(args: argparse.Namespace) -> CensusReport:
    return census_mod.classify_census(args.n, budget_seconds=args.budget, jobs=args.jobs)


def _load(path: str) -> Triangulation:
    n, faces = tri_io.read_tri(path)
    return build_triangulation(n, faces)


def _report_json(report: CensusReport) -> dict:
    return {
        "n": report.n,
        "total": report.total,
        "torus": report.torus_count,
        "klein_bottle": report.klein_bottle_count,
        "weakly_regular": report.weakly_regular_count,
        "items": [
            {
                "index": i,
                "surface": str(item.surface),
                "weakly_regular": item.weakly_regular,
                "combinatorially_regular": item.combinatorially_regular,
                "families": list(item.matched_family_names),
                "faces": [list(f) for f in item.triangulation.faces],
            }
            for i, item in enumerate(report.items)
        ],
    }


def _cmd_family(args, out: TextIO) -> int:
    named = construct_family(parse_name(args.name))
    comments = [named.name] + [
        f"vertex {v} = {label}" for v, label in enumerate(named.label_table)
    ]
    if args.json:
        payload = tri_io.to_json_dict(named.complex)
        payload["name"] = named.name
        payload["labels"] = list(named.label_table)
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.out:
        tri_io.write_tri(named.complex, args.out, comments)
    else:
        out.write(tri_io.format_tri(named.complex, comments))
    return 0


def _cmd_check(args, out: TextIO) -> int:
    n, faces = tri_io.read_tri(args.path)
    report = manifold_report(n, faces)
    if not report.ok:
        for diag in report.diagnostics:
            out.write(f"invalid: {diag}\n")
        return 1
    out.write(f"surface: {report.surface}\n")
    out.write(f"euler: {report.euler}\n")
    out.write(f"orientable: {'yes' if report.orientable else 'no'}\n")
    if report.regular_degree is not None:
        out.write(f"regular_degree: {report.regular_degree}\n")
    else:
        out.write(f"degrees: {' '.join(map(str, report.degrees))}\n")
    return 0


def _cmd_invariant(args, out: TextIO) -> int:
    t = _load(args.path)
    shape = graph_shape(common_neighbor_graph(skeleton_graph(t), args.count))
    out.write(f"G_{args.count}(EG) = {shape}\n")
    return 0


def _cmd_iso(args, out: TextIO) -> int:
    a, b = _load(args.path1), _load(args.path2)
    result = find_isomorphism(a, b)
    if args.json:
        payload = {"isomorphic": result.isomorphic}
        if result.isomorphic:
            payload["mapping"] = list(result.mapping)
        else:
            payload["distinguishing_invariant"] = result.distinguishing_invariant
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif result.isomorphic:
        out.write("isomorphic\n")
        out.write(f"mapping: {' '.join(map(str, result.mapping))}\n")
    else:
        out.write(f"not isomorphic: {result.distinguishing_invariant}\n")
    return 0 if result.isomorphic else 1


def _cmd_aut(args, out: TextIO) -> int:
    t = _load(args.path)
    group = automorphism_group(t)
    weakly, comb = regularity_flags(t, group)
    payload = {
        "order": group.order,
        "vertex_orbits": len(group.vertex_orbits),
        "face_orbits": len(group.face_orbits),
        "flag_orbits": 6 * t.f2 // group.order,  # the action on flags is free
        "weakly_regular": weakly,
        "combinatorially_regular": comb,
    }
    if args.json:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            out.write(f"{key}: {value}\n")
    return 0


def _cmd_enumerate(args, out: TextIO) -> int:
    report = _census(args)
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(report.items):
        name = f"{report.n}_{i}_{item.surface}.tri"
        comments = [f"census item {i} on {report.n} vertices"]
        if item.matched_family_names:
            comments.append("families: " + ", ".join(item.matched_family_names))
        tri_io.write_tri(item.triangulation, directory / name, comments)
    summary = directory / f"census_{report.n}.json"
    summary.write_text(
        json.dumps(_report_json(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    out.write(f"wrote {report.total} items to {directory}\n")
    return 0


def _cmd_classify(args, out: TextIO) -> int:
    report = _census(args)
    if args.json:
        out.write(json.dumps(_report_json(report), indent=2, sort_keys=True) + "\n")
        return 0
    out.write(
        f"n={report.n}: total {report.total}, torus {report.torus_count}, "
        f"klein_bottle {report.klein_bottle_count}, "
        f"weakly_regular {report.weakly_regular_count}\n"
    )
    for i, item in enumerate(report.items):
        families = ", ".join(item.matched_family_names) or "-"
        flags = []
        if item.weakly_regular:
            flags.append("weakly_regular")
        if item.combinatorially_regular:
            flags.append("combinatorially_regular")
        out.write(
            f"  [{i}] {item.surface}  {families}  {' '.join(flags) or '-'}\n"
        )
    return 0


_COMMANDS = {
    "family": _cmd_family,
    "check": _cmd_check,
    "invariant": _cmd_invariant,
    "iso": _cmd_iso,
    "aut": _cmd_aut,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
}


def run(argv: Sequence[str], out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    try:
        return _COMMANDS[args.command](args, out)
    except ResourceLimit as exc:
        err.write(f"resource limit: {exc}\n")
        return 3
    except (OSError, ValueError) as exc:  # bad input, including an invalid complex
        err.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a last resort: never end in a traceback
        err.write(f"error: unexpected {exc!r}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
