"""Fresh-process timing shared by `bench_aut.py`, `bench_iso.py` and
`bench_census.py`.

A script times a tree of the flatland package by running itself with
`--child ...` in a fresh interpreter whose PYTHONPATH is that tree's `src`
directory.  The child does the work once and prints one JSON object.  Each
tree gets REPEATS children.  With a baseline tree, the two trees are timed
alternately, one child at a time, and which goes first swaps every round,
so both see the same load on a shared machine; the script keeps each
tree's best.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def add_tree_arguments(ap: argparse.ArgumentParser, out: Path) -> None:
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the flatland package to time")
    ap.add_argument("--out", type=Path, default=out)
    ap.add_argument("--label", default="", help="what was timed, e.g. a commit")
    ap.add_argument("--baseline", type=Path, metavar="SRC",
                    help="the src directory of a tree to time alternately with --src, "
                         "e.g. the parent commit's")


def machine() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "system": platform.system()}


def child_output(script: str, argv: list[str], src: Path) -> dict:
    """The JSON object that `script --child *argv` prints when it imports
    flatland from `src`.  A child may exit 1 to report a wrong result."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run([sys.executable, script, "--child", *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout:
        raise SystemExit(f"error: the child {argv} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def alternate(script: str, argv: list[str], src: Path,
              baseline: Optional[Path]) -> tuple[list[dict], list[dict]]:
    """REPEATS child outputs on `src`, and as many on `baseline` (none
    without one), taken in turn; each round swaps which tree goes first."""
    trees = [src] if baseline is None else [src, baseline]
    runs: list[list[dict]] = [[] for _ in trees]
    for r in range(REPEATS):
        for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
            runs[i].append(child_output(script, argv, trees[i]))
    return runs[0], runs[1] if baseline is not None else []
