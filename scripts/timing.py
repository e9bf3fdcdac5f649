"""Fresh-process timing shared by `bench_aut.py`, `bench_iso.py` and
`bench_census.py`.

A script times a tree of the flatland package by running itself with
`--child ...` in a fresh interpreter whose PYTHONPATH is that tree's `src`
directory.  The child does the work once and prints one JSON object.  Each
tree gets REPEATS children.  With a baseline tree, the two trees are timed
alternately, one child at a time, and which goes first swaps every round,
so both see the same load on a shared machine; the script keeps each
tree's best, and counts the rounds in which `--src` was the faster tree
(`rounds_won`, out of REPEATS): a best-of-REPEATS difference smaller than
the spread between runs shows up as a split count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

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
    """The interpreter and the CPUs: all of the machine's, and those this
    process may run on (its affinity set, or all of them where the platform
    has none), which cap the census's `--jobs`."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "usable_cpus": usable, "system": platform.system()}


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
              baseline: Optional[Path]) -> list[tuple[dict, Optional[dict]]]:
    """REPEATS rounds, each a pair of child outputs: one on `src` and one on
    `baseline` (None without one).  Each round swaps which tree goes first."""
    trees = [src] if baseline is None else [src, baseline]
    rounds = []
    for r in range(REPEATS):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        outputs = {i: child_output(script, argv, trees[i]) for i in order}
        rounds.append((outputs[0], outputs.get(1)))
    return rounds


def rounds_won(rounds: list[tuple[dict, Optional[dict]]], seconds: Callable[[dict], float]) -> int:
    """The number of rounds in which `src` took fewer seconds than the baseline."""
    return sum(seconds(ours) < seconds(theirs) for ours, theirs in rounds)
