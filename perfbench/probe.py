"""Host-speed probe interleaved with the measured code.

The host this benchmark runs on is shared: the same Python code runs up
to about 1.5x slower in spells of seconds to minutes.  A probe timed
*next to* a repetition does not follow them, because the host's speed
changes within a repetition.  So the probe runs *inside* it: every
``PERIOD_S`` of process CPU time a ``SIGPROF`` handler times two fixed
pieces of work,

* a spin: ``SPIN`` turns of an arithmetic loop, which stays in L1 and
  tracks the interpreter's speed on the core;
* a walk: ``WALK`` reads of a list of distinct ``int`` objects, each a
  pointer chase to a line no earlier probe touched recently, which
  tracks memory latency.

The speed of an interval is the geometric mean of the two probes'
trimmed means inside it (the slowest ``TRIM`` of each dropped, since a
probe that is preempted says nothing about speed).
:meth:`SpeedProbe.scaled` turns an interval's host wall into the wall at
reference speed: the wall less the probes' own time, times
``REFERENCE_S`` over that speed.  In 20-second blocks of repetitions
spread over a few minutes, this cut the interquartile range of the
block medians (over the median) from 0.04-0.25 to 0.01-0.035 on all
three workloads; the spin or the walk alone did about half as well.

The probes cost about 2% of the wall and hold ``SLOTS`` ints (about
20 MB, part of ``peak_rss_mb``).  The handler touches no program state.
"""

from __future__ import annotations

import math
import signal
import time
from typing import List, Optional, Sequence, Tuple

#: CPU time between probes
PERIOD_S = 0.02
#: turns of the spin loop per probe
SPIN = 1500
#: list reads per probe
WALK = 1000
#: ints in the walked list (a power of two)
SLOTS = 1 << 19
#: odd stride, so consecutive reads land far apart
STRIDE = 7919
#: share of the slowest probes dropped from an interval's mean
TRIM = 0.2
#: geometric mean of the two probe times that defines reference speed
#: (about the median on a 2-vCPU VM)
REFERENCE_S = 2.5e-4
#: fewest probes an interval must hold to be scaled by its own probes
MIN_PROBES = 5


def trimmed_mean(values: Sequence[float]) -> float:
    kept = sorted(values)[:len(values) - int(len(values) * TRIM)]
    return sum(kept) / len(kept)


class SpeedProbe:
    def __init__(self) -> None:
        self.slots = list(range(10**6, 10**6 + SLOTS))
        self.next = 0
        #: (spin, walk) durations of every probe so far, in order
        self.samples: List[Tuple[float, float]] = []

    def _probe(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(SPIN):
            s += i * i % 7
        t1 = time.perf_counter()
        slots, mask = self.slots, SLOTS - 1
        for k in range(self.next, self.next + WALK):
            s += slots[(k * STRIDE) & mask]
        t2 = time.perf_counter()
        self.next = (self.next + WALK) & mask
        self.samples.append((t1 - t0, t2 - t1))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, first: int = 0, last: Optional[int] = None) -> float:
        """Geometric mean of the trimmed spin and walk times of
        ``samples[first:last]``."""
        window = self.samples[first:last]
        if not window:
            raise RuntimeError("no probe ran during the interval")
        return math.sqrt(trimmed_mean([s for s, _ in window])
                         * trimmed_mean([w for _, w in window]))

    def scaled(self, first: int, last: int, wall: float,
               around: Optional[Tuple[int, int]] = None) -> float:
        """``wall`` of the interval whose probes are ``samples[first:last]``,
        at reference speed.  An interval with fewer than ``MIN_PROBES``
        probes takes its speed from the probes of ``around`` instead."""
        own = sum(s + w for s, w in self.samples[first:last])
        if last - first < MIN_PROBES and around is not None:
            first, last = around
        return (wall - own) * REFERENCE_S / self.speed(first, last)
