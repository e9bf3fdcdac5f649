#!/usr/bin/env python3
"""Quick self-check of the tracing harness (a few seconds).

    python3 bench/selfcheck.py

Runs a small census (n = 9, serial and with a pool) and a few queries on a
relabelled T(3,3,0) twice, untraced and traced, and checks that
  * tracing changes no output,
  * every wrapped binding is the original object again afterwards,
  * each span's self time is its duration minus its children, so the self
    times of a root span's tree add up to the root span,
  * the spans the per-layer metrics read were recorded.
Every traced benchmark run performs the same check first.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
from pathlib import Path
from typing import Any

from checks import Checks
from tracing import BINDINGS, Tracer, self_times
from workloads import call, relabelled, write_tri

EXPECTED_SPANS = ("cli.run", "census.classify_census", "census._search_worker",
                  "census._frontier", "census.pool", "symmetry._traverse",
                  "symmetry.find_isomorphism", "tri_io.read_tri", "graphs.graph_shape")


def _commands(modules: dict[str, Any], workdir: Path) -> list[list[str]]:
    flatland = modules["flatland"]
    t = flatland.construct_family(flatland.parse_name("T(3,3,0)")).complex
    rng = random.Random(0)
    paths = []
    for c in range(2):
        perm = list(range(t.n))
        rng.shuffle(perm)
        path = workdir / f"selfcheck{c}.tri"
        write_tri(path, t.n, relabelled(t.faces, perm), "T(3,3,0) relabelled")
        paths.append(str(path))
    return [
        ["classify", "--n", "9", "--json"],
        ["classify", "--n", "9", "--jobs", "2", "--json"],
        ["iso", paths[0], paths[1], "--json"],
        ["aut", paths[0], "--json"],
        ["check", paths[1]],
        ["invariant", paths[0], "--g", "2"],
    ]


def run_selfcheck(modules: dict[str, Any], checks: Checks, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = _commands(modules, workdir)
        cli = modules["cli"]
        plain = [call(cli, argv) for argv in commands]
        originals = {(mod, attr): getattr(modules[mod], attr) for mod, attr, _ in BINDINGS
                     if hasattr(modules[mod], attr)}
        tracer = Tracer()
        tracer.install(modules)
        saved = tracer.saved()
        try:
            traced = [call(cli, argv) for argv in commands]
        finally:
            tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for argv, a, b in zip(commands, plain, traced):
        checks.expect((a.rc, a.out) == (b.rc, b.out) and a.rc in (0, 1),
                      f"selfcheck: `{' '.join(argv[:1])}` differs under tracing or failed")
    checks.expect(len(saved) == len(BINDINGS) + 2,
                  f"selfcheck: {len(saved)} bindings wrapped, expected {len(BINDINGS) + 2}")
    checks.expect(all(getattr(owner, attr) is original for owner, attr, original in saved)
                  and all(getattr(modules[mod], attr) is fn for (mod, attr), fn in originals.items()),
                  "selfcheck: a wrapped binding was not restored")

    spans = tracer.spans
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    checks.expect(len(roots) == len(commands), f"selfcheck: {len(roots)} root spans")
    for i in roots:
        tree_self = sum(t for s, t in zip(spans, own) if s[4] == spans[i][4])
        duration = spans[i][2] - spans[i][1]
        checks.expect(abs(tree_self - duration) < 1e-9 * max(1.0, len(spans)),
                      f"selfcheck: self times {tree_self} != root span {duration}")
    checks.expect(all(t >= -1e-9 for t in own), "selfcheck: negative self time")
    checks.expect(all(spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2]
                      for s in spans if s[3] >= 0), "selfcheck: child span outside its parent")
    seen = {s[0] for s in spans}
    absent = [name for name in EXPECTED_SPANS if name not in seen]
    checks.expect(not absent, f"selfcheck: no spans for {absent}")


def main() -> int:
    from run import ROOT, SRC, import_flatland

    sys.path.insert(0, str(SRC))
    checks = Checks()
    workdir = ROOT / ".bench_tmp" / f"selfcheck-{os.getpid()}"
    run_selfcheck(import_flatland(), checks, workdir)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run is using it
    for message in checks.messages:
        print(message, file=sys.stderr)
    print(f"selfcheck: {checks.attempted - checks.failed}/{checks.attempted} checks passed")
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
