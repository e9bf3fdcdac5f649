"""Machine-speed reference: the benchmark's times in reference-speed units.

The benchmark runs on a few cores of a shared host whose speed drifts with
the neighbours' load: the same `classify --n 12` call takes 0.55 s for some
seconds and 0.80 s for the next, in process time as in wall time.  Wall
times therefore spread by a quarter from one run to the next, whatever the
code does.

To compare two versions of flatland across such drift, the benchmark samples
the machine's speed with a fixed pure-Python kernel that does not touch
flatland (dict, set, tuple and small-sort work, the operations the census and
the canonical scans spend their time in), and times the kernel in CPU time.
A call's reference-speed time is its wall time, less the samples taken inside
it, scaled by ``REFERENCE_S / k``, where ``k`` is the mean kernel time of the
last sample before the call, the samples inside it and the first after it.  A
change to flatland moves the call's time and leaves the kernel alone, so it
shows in full; a slower machine slows both, and the ratio stays.

Samples are taken before a call when none was taken in the last
``INTERVAL_S``, and during calls from a SIGALRM timer every ``INTERVAL_S``,
by the process that does the work: this one, or, while a process pool is
open, the pool's workers (see `SpeedClock.sampling_in_workers`).  Traced runs
sample only between calls, so that no sample falls inside a traced span.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import os
import random
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Iterator

# Sets the scale of reported times: a call reads as it would on a machine on
# which the kernel takes 15 ms of CPU, about its median on the reference
# machine (2-vCPU Xeon VM, Python 3.11.7).
REFERENCE_S = 0.015
INTERVAL_S = 0.25  # kernel overhead: about 6% of a run


def _key(x: int, r: int) -> int:
    return (x * 31 + r) % 1009


def kernel() -> float:
    """Run the fixed reference work once and return its CPU time."""
    start = time.thread_time()
    rng = random.Random(5)
    base = [rng.randrange(100) for _ in range(64)]
    acc = 0
    for r in range(300):
        keys = set()
        seen = {}
        for i, x in enumerate(base):
            k = _key(x, r)
            keys.add(k)
            seen[(x, i & 7)] = k
        acc += len(keys) + len(seen)
        acc += sorted(base, key=lambda v: (v * r) % 97)[0]
    if acc < 0:  # never true; keeps the work observable
        raise AssertionError(acc)
    return time.thread_time() - start


class SpeedClock:
    """Kernel samples ``(end time, wall seconds, kernel CPU seconds, here)``;
    `here` is False for a sample taken in a pool worker."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float, bool]] = []
        self.paused = False  # while a pool runs: its workers sample instead

    def sample(self) -> None:
        start = time.perf_counter()
        cpu = kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start, cpu, True))

    def tick(self, force: bool = False) -> None:
        """Take a kernel sample if none was taken in the last INTERVAL_S."""
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Also take a sample every INTERVAL_S during calls, from a SIGALRM
        handler, so that a call of several seconds is scaled by the speed over
        its whole length."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: None if self.paused else self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def sampling_in_workers(self, owner: Any, task_attr: str, pool_attr: str,
                            spool: Path) -> Iterator[None]:
        """`sampling()` for a caller that runs a process pool: `owner.pool_attr`
        (the executor class) and `owner.task_attr` (the task it maps) are
        replaced for the duration.  While a pool is open this process takes
        no samples, so that it takes no core from a worker; instead each
        task samples from its worker's own timer and appends the samples to
        a file in `spool`, read back on exit.  The work of a parallel call
        runs in the workers, on cores this process does not see."""
        task = getattr(owner, task_attr)
        executor = getattr(owner, pool_attr)
        parent = os.getpid()
        clock = self
        spool.mkdir(parents=True, exist_ok=True)

        class Pool(executor):  # type: ignore[misc, valid-type]
            def __enter__(self) -> Any:
                clock.paused = True
                return super().__enter__()

            def __exit__(self, *exc: Any) -> Any:
                try:
                    return super().__exit__(*exc)
                finally:
                    clock.paused = False

        @functools.wraps(task)
        def sampled(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == parent:
                return task(*args, **kwargs)
            clock = SpeedClock()
            try:
                with clock.sampling():
                    return task(*args, **kwargs)
            finally:
                with open(spool / f"{os.getpid()}.samples", "a", encoding="ascii") as f:
                    f.writelines(f"{t!r} {w!r} {c!r}\n" for t, w, c, _ in clock.samples)

        setattr(owner, task_attr, sampled)
        setattr(owner, pool_attr, Pool)
        try:
            with self.sampling():
                yield
        finally:
            setattr(owner, task_attr, task)
            setattr(owner, pool_attr, executor)
            self.paused = False
            for path in spool.glob("*.samples"):
                for line in path.read_text(encoding="ascii").splitlines():
                    t, w, c = map(float, line.split())
                    self.samples.append((t, w, c, False))
                path.unlink()
            self.samples.sort()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time around [start, end]: the
        last sample before `start`, any inside, and the first after `end`."""
        ends = [s[0] for s in self.samples]
        first = max(bisect.bisect_right(ends, start) - 1, 0)
        last = min(bisect.bisect_left(ends, end), len(ends) - 1)
        around = [s[2] for s in self.samples[first:last + 1]]
        return REFERENCE_S / statistics.mean(around)

    def normalise(self, start: float, seconds: float) -> float:
        """Reference-speed seconds of a span of `seconds` from `start`,
        leaving out the kernel samples this process took inside the span."""
        end = start + seconds
        inside = sum(wall for t, wall, _, here in self.samples if here and start < t <= end)
        return (seconds - inside) * self.scale(start, end)

    def median_kernel_ms(self) -> float:
        return statistics.median(s[2] for s in self.samples) * 1e3
