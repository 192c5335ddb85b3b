"""Measured times scaled by the machine's speed at the moment they were taken.

On the 2-core machine the benchmark was built on, the same code runs up to
1.6 times slower for stretches of a second to several minutes, while the
benchmark's own process is the only one busy in its container: the cause
lies outside it. Per-segment floors within a run remove the short stretches
but not those that last a whole run. So a fixed probe, made of the work a
kcoref doc-step is made of (small numpy products and tanh, Python dict, set
and list work) and independent of the kcoref sources, runs at every block
boundary of a measured repeat. Each segment's time is divided by the mean
of the two probes around its block and multiplied by PROBE_REF_NS, the
probe's time on that machine in its fast state: a time in reference
nanoseconds. A probe is the median of three short runs, as single runs
vary by a third within a second. Probes run with the garbage collector off,
so the program's own heap does not change them, and they are not part of
any measured time.
"""

from __future__ import annotations

import gc
import time

import numpy as np

PROBE_REF_NS = 1_650_000
PROBE_RUNS = 3

_A = np.random.default_rng(0).random((32, 24))


def _probe_work() -> float:
    acc = 0.0
    for i in range(100):
        h = np.tanh(_A @ _A[:24, :(i % 7) + 1])
        acc += float(h.sum()) + float(_A.take([i % 32, (i * 7) % 32],
                                              axis=0).max())
        table = {(j, i % 13): j * 0.5 for j in range(24)}
        acc += sum(table.values())
        spans = sorted(set(range(i % 17, 48)) | {i % 50})
        acc += len(frozenset(spans[::2]) & frozenset(spans[::3]))
    return acc


def probe_ns() -> int:
    """Median wall time of PROBE_RUNS probe runs, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_RUNS):
            t0 = time.perf_counter_ns()
            _probe_work()
            times.append(time.perf_counter_ns() - t0)
        return sorted(times)[PROBE_RUNS // 2]
    finally:
        if enabled:
            gc.enable()


def warm_up(seconds: float = 0.3) -> None:
    """Run probes until the core has left any idle clock speed."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        probe_ns()


class Clock:
    """Consecutive segments of one repeat, with a probe every `block` of them.

    The clock starts with a probe. `mark()` ends a segment; `scaled()`
    closes the last block with a probe and returns every segment in
    reference nanoseconds.
    """

    def __init__(self, block: int):
        self.block = block
        self.raw: list[int] = []          # measured ns, probes excluded
        self.probes: list[int] = [probe_ns()]
        self._block_of: list[int] = []
        self._last = time.perf_counter_ns()

    def mark(self) -> None:
        now = time.perf_counter_ns()
        self.raw.append(now - self._last)
        self._block_of.append(len(self.probes) - 1)
        if len(self.raw) % self.block == 0:
            self.probes.append(probe_ns())
        self._last = time.perf_counter_ns()

    def scaled(self) -> list[float]:
        if self._block_of[-1] == len(self.probes) - 1:
            self.probes.append(probe_ns())
        p = self.probes
        return [t * PROBE_REF_NS * 2 / (p[b] + p[b + 1])
                for t, b in zip(self.raw, self._block_of)]

    def scaled_whole(self) -> float:
        """The whole repeat scaled by its first and last probe alone, as a
        repeat with one segment is; call after `scaled()`."""
        return sum(self.raw) * PROBE_REF_NS * 2 \
            / (self.probes[0] + self.probes[-1])
