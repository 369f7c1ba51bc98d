"""The benchmark's clock: main-thread CPU time, scaled by the machine's speed.

Every time the benchmark reports is CPU time of the thread that runs the
program (`time.thread_time`). The workloads run in one process, the program
in one thread, with no I/O in the timed phase, so this differs from wall
time only by the time the machine gives the CPU to other work.

On a shared machine the CPU time of identical work still drifts, by 15-25 %
over seconds to minutes, because other tenants share the cores and caches.
So while a timed phase runs, a sampler thread times a fixed pure-Python loop
(no efalg code, so no change to the program moves it) every PERIOD_S seconds.
The phase's speed factor is NOMINAL_S / (the mean loop time over the phase),
and every time measured in the phase, the whole phase and each item, counts
as its CPU time times that factor: CPU seconds at the loop's nominal speed.
The loops run in their own thread and are not part of any reported time;
they take about 5 % of the wall time. Set-up is timed the same way, as a
phase of its own.
"""

from __future__ import annotations

import contextlib
import threading
import time

clock = time.thread_time

# one reference loop takes about this long on the machine the benchmark
# was defined on (2-vCPU Xeon, 2.1 GHz)
NOMINAL_S = 0.0023
ROUNDS = 40
PERIOD_S = 0.05


def _loop(rounds: int) -> int:
    table = tuple(tuple((i * j + 3) % 17 for j in range(17)) for i in range(17))
    counts: dict[int, int] = {}
    acc = 0
    for k in range(rounds):
        for row in table:
            for v in row:
                acc ^= (v << (k & 7)) & 0xFFFF
                counts[v] = counts.get(v, 0) + 1
    return acc


class Stopwatch:
    """Sums the CPU time of a phase's stretches and samples the machine's speed.

    Use as a context manager around the phase; the sampler thread runs
    inside it and has stopped when it exits.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.items: list[float] = []  # CPU time of each stretch marked as an item
        self.samples: list[float] = []  # loop times
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sampler, name="speed-sampler")

    def _sample(self) -> None:
        start = clock()
        _loop(ROUNDS)
        self.samples.append(clock() - start)

    def _sampler(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> "Stopwatch":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @contextlib.contextmanager
    def stretch(self, item: bool = False):
        start = clock()
        try:
            yield
        finally:
            spent = clock() - start
            self.raw_s += spent
            if item:
                self.items.append(spent)

    @property
    def factor(self) -> float:
        """Nominal over measured loop time: CPU seconds to nominal seconds."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)

    @property
    def scaled_s(self) -> float:
        """The phase's CPU time at the nominal speed."""
        return self.raw_s * self.factor
