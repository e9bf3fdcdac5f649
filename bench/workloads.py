"""The benchmark's workloads: what one pass runs and how its output is checked.

Every workload drives flatland in-process through `cli.run`, one call at a
time (closed loop, one caller).  A pass returns one wall time per CLI call;
its outputs are checked after the clock stops.  Before a call, `CLOCK` may
take a machine-speed sample (see calibrate.py), outside the call's time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from calibrate import SpeedClock
from checks import Checks, apply_mapping, check_census_output, shape_vertex_count

# Leaf canonicalisation dominates at n=12 (the search is 0.04 s of the call);
# at n=24 the link search visits 64 058 nodes and takes about a third of the
# call.  A larger n would not fit two passes into one run.
LADDER = (12, 18, 24)
PARALLEL_JOBS = 2
WARMUP_N = 9

# Named family members, 18 <= n <= 48.  T(9,3,3), T(6,6,0) and T(12,4,4) are
# regular maps (|Aut| = 12n), where every start of the canonical scan ties.
# Same-n torus/Klein-bottle pairs are non-isomorphic by construction.
MEMBERS = ("T(6,3,0)", "B(3,6)", "T(21,1,4)", "T(12,2,5)", "K(4,6)", "T(9,3,3)",
           "Q(7,4)", "T(6,6,0)", "K(3,12)", "T(12,4,4)", "B(6,8)")
COPIES = 3  # seeded relabellings written per member
G_COUNTS = (0, 1, 2, 3, 4)  # common-neighbour counts asked of `invariant`

MIN_PASSES = 2
# What a check raises on program output of an unexpected shape.
MALFORMED = (AttributeError, TypeError, ValueError, KeyError, IndexError)
MAX_MEASURE_S = 110.0  # start no pass after this, so a run ends within 180 s
CLOCK = SpeedClock()


@dataclass(frozen=True)
class CallResult:
    argv: list[str]
    rc: int
    out: str
    err: str
    start: float
    seconds: float

    def ref_seconds(self) -> float:
        """The call's time in reference-speed seconds (calibrate.py)."""
        return CLOCK.normalise(self.start, self.seconds)


def call(cli: Any, argv: list[str]) -> CallResult:
    """Run one CLI command in-process and time it.  `cli.run` is looked up on
    every call so that a traced run goes through the wrapped binding."""
    CLOCK.tick()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        rc = cli.run(argv, out=out, err=err)
    except Exception as exc:  # a traceback is a failed check, not a crash
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return CallResult(argv, rc, out.getvalue(), err.getvalue(), start, seconds)


def write_tri(path: Path, n: int, faces: list[tuple[int, int, int]], comment: str) -> None:
    lines = [f"# {comment}", f"{n} {len(faces)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in faces)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def relabelled(faces, perm: list[int]) -> list[tuple[int, int, int]]:
    return sorted(tuple(sorted(perm[v] for v in f)) for f in faces)  # type: ignore[misc]


class CensusWorkload:
    """`classify --n N --json` over the ladder, with `jobs` workers."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.ladder = LADDER
        self.census: Any = None
        self.spool = Path()

    def setup(self, modules: dict[str, Any], seed: int, workdir: Path) -> None:
        """The census inputs are fixed; the seed only names the run.  A small
        warm-up census (with the pool, if any) runs lazy imports before timing."""
        self.census = modules["census"]
        self.spool = workdir / "clock"
        call(modules["cli"], self.argv(WARMUP_N, self.jobs))

    def timing(self) -> contextlib.AbstractContextManager:
        """Speed samples during calls, taken by this process and, while the
        pool is open, by the pool's workers instead."""
        if self.jobs > 1:
            return CLOCK.sampling_in_workers(self.census, "_search_worker",
                                             "ProcessPoolExecutor", self.spool)
        return CLOCK.sampling()

    def argv(self, n: int, jobs: int) -> list[str]:
        return ["classify", "--n", str(n), "--jobs", str(jobs), "--json"]

    def run_pass(self, cli: Any) -> list[CallResult]:
        return [call(cli, self.argv(n, self.jobs)) for n in self.ladder]

    def check_pass(self, checks: Checks, results: list[CallResult]) -> None:
        for n, r in zip(self.ladder, results):
            try:
                check_census_output(checks, n, r.rc, r.out, r.err)
            except MALFORMED as exc:
                checks.expect(False, f"classify n={n}: malformed output ({exc!r})")

    def finish(self, cli: Any, checks: Checks, passes: list[list[CallResult]]) -> None:
        """Parallel output must be byte-identical to the serial output."""
        if self.jobs == 1:
            return
        for n in self.ladder:
            serial = call(cli, self.argv(n, 1))
            for results in passes:
                got = results[self.ladder.index(n)].out
                checks.expect(got == serial.out,
                              f"classify n={n}: --jobs {self.jobs} output differs from --jobs 1")


@dataclass(frozen=True)
class Query:
    kind: str  # check | invariant | aut | iso | iso-negative
    member: int  # index into MEMBERS
    argv: list[str]
    copies: tuple[int, int] = (0, 0)  # iso: the two relabellings compared
    against: int = -1  # iso-negative: the other member


class QueryWorkload:
    """A seeded stream of `iso`, `aut`, `check` and `invariant` calls on
    relabelled family members.  A pass is one round: every member gets one
    `check`, one `invariant`, two `aut` and two isomorphic `iso` calls, and
    every same-n torus/Klein-bottle pair one `iso` call, in seeded order."""

    def __init__(self) -> None:
        self.rng = random.Random()
        self.members: list[dict[str, Any]] = []
        self.aut_orders: dict[int, int] = {}
        self.shapes: dict[tuple[int, int], str] = {}
        self._queries: list[Query] = []

    def setup(self, modules: dict[str, Any], seed: int, workdir: Path) -> None:
        flatland = modules["flatland"]
        rng = random.Random(seed)
        members = []
        for i, name in enumerate(MEMBERS):
            named = flatland.construct_family(flatland.parse_name(name))
            t = named.complex
            kind = "torus" if name.startswith("T") else "klein_bottle"
            copies = []
            for c in range(COPIES):
                perm = list(range(t.n))
                rng.shuffle(perm)
                faces = relabelled(t.faces, perm)
                path = workdir / f"m{i}_c{c}.tri"
                write_tri(path, t.n, faces, f"{name} relabelled")
                copies.append((str(path), faces))
            members.append({"name": name, "n": t.n, "kind": kind, "copies": copies})
        self.members = members
        self.rng = rng

    def _round(self) -> list[Query]:
        rng = self.rng
        queries = []
        for i, m in enumerate(self.members):
            paths = [p for p, _ in m["copies"]]
            queries.append(Query("check", i, ["check", rng.choice(paths)]))
            g = rng.choice(G_COUNTS)
            queries.append(Query("invariant", i, ["invariant", rng.choice(paths), "--g", str(g)]))
            for _ in range(2):
                queries.append(Query("aut", i, ["aut", rng.choice(paths), "--json"]))
                a, b = rng.sample(range(COPIES), 2)
                queries.append(Query("iso", i, ["iso", paths[a], paths[b], "--json"], copies=(a, b)))
        for i, m in enumerate(self.members):
            for j in range(i + 1, len(self.members)):
                o = self.members[j]
                if m["n"] == o["n"] and m["kind"] != o["kind"]:
                    argv = ["iso", rng.choice(m["copies"])[0], rng.choice(o["copies"])[0], "--json"]
                    queries.append(Query("iso-negative", i, argv, against=j))
        rng.shuffle(queries)
        return queries

    def timing(self) -> contextlib.AbstractContextManager:
        return CLOCK.sampling()

    def run_pass(self, cli: Any) -> list[CallResult]:
        self._queries = self._round()
        return [call(cli, q.argv) for q in self._queries]

    def check_pass(self, checks: Checks, results: list[CallResult]) -> None:
        for q, r in zip(self._queries, results):
            try:
                self._check(checks, q, r)
            except MALFORMED as exc:
                checks.expect(False, f"{q.argv[0]}: malformed output ({exc!r})")

    def finish(self, cli: Any, checks: Checks, passes: list[list[CallResult]]) -> None:
        """Every verdict was checked as it came in."""

    def _check(self, checks: Checks, q: Query, r: CallResult) -> None:
        m = self.members[q.member]
        label = f"{q.argv[0]} on {m['name']}"
        if q.kind == "iso-negative":
            verdict = _json(r.out)
            checks.expect(r.rc == 1 and verdict.get("isomorphic") is False,
                          f"{label} vs {self.members[q.against]['name']}: exit {r.rc}, expected 1")
            return
        if not checks.expect(r.rc == 0, f"{label}: exit {r.rc} {r.err.strip()}"):
            return
        if q.kind == "iso":
            a, b = q.copies
            verdict = _json(r.out)
            mapping = verdict.get("mapping")
            ok = (verdict.get("isomorphic") is True and isinstance(mapping, list)
                  and sorted(mapping) == list(range(m["n"]))
                  and apply_mapping(mapping, m["copies"][a][1]) == set(m["copies"][b][1]))
            checks.expect(ok, f"{label}: mapping is not an isomorphism")
        elif q.kind == "aut":
            order = _json(r.out).get("order")
            first = self.aut_orders.setdefault(q.member, order)
            ok = isinstance(order, int) and order > 0 and (12 * m["n"]) % order == 0
            checks.expect(ok and order == first,
                          f"{label}: order {order} (first seen {first}, 12n = {12 * m['n']})")
            if m["kind"] == "torus":  # degree-6 tori are vertex-transitive
                checks.expect(_json(r.out).get("vertex_orbits") == 1,
                              f"{label}: torus with several vertex orbits")
        elif q.kind == "check":
            fields = dict(line.split(": ", 1) for line in r.out.splitlines() if ": " in line)
            want = {"surface": m["kind"], "euler": "0", "regular_degree": "6",
                    "orientable": "yes" if m["kind"] == "torus" else "no"}
            checks.expect(all(fields.get(k) == v for k, v in want.items()),
                          f"{label}: reported {fields}, expected {want}")
        elif q.kind == "invariant":
            g = int(q.argv[-1])
            match = re.fullmatch(rf"G_{g}\(EG\) = (\S+)\n", r.out)
            shape = match.group(1) if match else None
            first = self.shapes.setdefault((q.member, g), shape)
            ok = shape is not None and shape_vertex_count(shape) == m["n"] and shape == first
            checks.expect(ok, f"{label} --g {g}: shape {shape!r} (first seen {first!r})")


def _json(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


def measure(workload: Any, cli: Any, checks: Any, seconds: float,
            traced_pass: Callable[[], Any] | None = None,
            min_passes: int = MIN_PASSES) -> tuple[list, list]:
    """Run passes until `seconds` have passed (at least `min_passes`).  With
    `traced_pass`, every untraced pass is followed by a traced one, and
    `CLOCK` samples only between calls, outside the traced spans."""
    if traced_pass is None:
        with workload.timing():
            return _measure(workload, cli, checks, seconds, None, min_passes)
    return _measure(workload, cli, checks, seconds, traced_pass, min_passes)


def _measure(workload: Any, cli: Any, checks: Any, seconds: float,
             traced_pass: Callable[[], Any] | None, min_passes: int) -> tuple[list, list]:
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(untraced) >= min_passes and elapsed >= seconds:
            break
        if untraced and elapsed >= MAX_MEASURE_S:
            break
        gc.collect()
        results = workload.run_pass(cli)
        workload.check_pass(checks, results)
        untraced.append(results)
        if traced_pass is not None:
            gc.collect()
            traced.append(traced_pass())
    CLOCK.tick(force=True)  # the speed after the last call
    return untraced, traced


def pass_seconds(results: list) -> float:
    return sum(r.seconds for r in results)


def pass_ref_seconds(results: list) -> float:
    return sum(r.ref_seconds() for r in results)
