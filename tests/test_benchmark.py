"""The benchmark's self-check: it traces flatland through the private names
`bench/` wraps (`census._frontier`, `census._LinkSearch`, ...), so a change
that drops one fails here and not only in a later benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
