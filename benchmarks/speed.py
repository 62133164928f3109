"""CPU speed meter: child timings scaled to one reference CPU speed.

On a shared host the CPU under the benchmark runs faster or slower as
other tenants load the same physical core. On a shared 2-core x86 virtual
machine one `flowlens analyze` child over the same trace took from 3.4 s
to 6.9 s of wall time, and as much user CPU time, within four minutes;
whole minutes ran slow, so the medians of 30-second runs still spread by
about 30%.

So the benchmark runs on one CPU (`pin_to_one_cpu`), and while a child
runs, a thread of the benchmark times a `ReferenceLoop` on that same CPU
every `PERIOD_S`. A child's time is reported at the reference speed, at
which the loop takes `REF_LOOP_S`: its wall time times `REF_LOOP_S` over
the loop's trimmed mean time while the child ran. On that machine the
loop's time tracked the analyze child's wall time with a correlation of
0.93 to 0.98 and left 3-5% of scatter per child. The loop takes about 3%
of the CPU, the same share on every run. `REF_LOOP_S` is about the loop's
time there when the host was quiet; it only sets the scale.
"""

from __future__ import annotations

import os
import random
import struct
import threading
import time
from typing import List, Tuple

PERIOD_S = 0.03         # one loop timing per period
RECORDS = 800           # 16-byte records unpacked per loop
LOOKUPS = 500           # random dict lookups per loop
REF_LOOP_S = 6.0e-4     # the loop's time at the reference speed
TRIM = 0.1              # share of loop times dropped at each end per child

Span = Tuple[float, float]   # (start, end) of a child, in time.perf_counter()


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and so every child and thread it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ReferenceLoop:
    """A fixed slice of interpreter work, like the program's own.

    Each call unpacks `RECORDS` header-like records from a 4 MiB buffer and
    looks up `LOOKUPS` random keys in a dict of 2^19 entries, so that it
    waits on memory beyond the CPU's caches as the program does; successive
    calls walk on through both.
    """

    def __init__(self) -> None:
        self.buf = bytes(range(256)) * (1 << 14)
        rng = random.Random(0)
        self.keys = [rng.getrandbits(40) for _ in range(1 << 19)]
        self.table = dict.fromkeys(self.keys, 1)
        rng.shuffle(self.keys)
        self.calls = 0

    def __call__(self) -> int:
        step = 16 * RECORDS
        off = self.calls * step % (len(self.buf) - step)
        k = self.calls * LOOKUPS % (len(self.keys) - LOOKUPS)
        self.calls += 1
        unpack, buf, table = struct.unpack_from, self.buf, self.table
        s = 0
        for i in range(off, off + step, 16):
            s += unpack("!HHI", buf, i)[2]
        for key in self.keys[k:k + LOOKUPS]:
            s += table[key]
        return s


class SpeedMeter:
    """Times a `ReferenceLoop` every `PERIOD_S` on the caller's CPU set."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []   # (start, duration)
        self._loop = ReferenceLoop()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-meter",
                                        daemon=True)

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            self._loop()
            self.samples.append((t0, time.perf_counter() - t0))

    def loop_s(self, span: Span) -> float:
        """Trimmed mean loop time within `span` (all samples if none fell in it)."""
        a, b = span
        ds = sorted(d for t, d in self.samples if a <= t and t + d <= b) \
            or sorted(d for _, d in self.samples)
        if not ds:
            return REF_LOOP_S
        k = int(len(ds) * TRIM)
        ds = ds[k:len(ds) - k]
        return sum(ds) / len(ds)

    def scaled(self, span: Span) -> float:
        """`span`'s length at the reference speed."""
        return (span[1] - span[0]) * REF_LOOP_S / self.loop_s(span)
