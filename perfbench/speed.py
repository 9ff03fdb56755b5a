"""How fast the machine ran while the benchmark measured.

On a small shared machine each CPU's speed swings by up to 1.7x within
seconds, driven by other tenants' load, and the CPUs swing independently:
on a 2-CPU Xeon virtual machine, a fixed pure-Python loop pinned to each CPU
for 30 s took 41-69 ms per one-second bin on each, with a correlation of
-0.01 between them.  Wall times of the same code then differ by more between runs
than any useful regression bound.

A :class:`SpeedMeter` runs one small process per CPU, pinned to it.  Every
``period`` seconds each runs a fixed reference kernel (about 1.5 ms of pure
Python) and records when it ended and how long it took.  Whatever else runs
on that CPU in that interval runs at the same speed, so the benchmark reports
its timings at a fixed reference speed: a measured interval is multiplied by
``NOMINAL_S`` over the mean kernel time recorded on all CPUs inside it
(inside the second around it, if shorter).  A change that makes the program
slower still reads slower; a machine that slows down for a while no longer
does: five 30-s runs of offline-embed in a row gave median repetitions of
5.22-6.24 s as measured and 5.23-5.43 s at the reference speed.

Run as a script (``python3 perfbench/speed.py CPU PERIOD``) it is one meter
process: it samples until its standard input closes, then writes its
samples to standard output, one ``end duration`` pair a line.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import List, Sequence, Tuple

#: Seconds the reference kernel takes at the reference speed.  Timings are
#: reported as if every kernel had taken this long.
NOMINAL_S = 0.0015

#: Seconds between the starts of two kernels on one CPU.
PERIOD_S = 0.02

#: Shortest interval whose kernel samples give the speed of a shorter
#: measured interval (such as one request) around its middle.
MIN_WINDOW_S = 1.0


def kernel() -> int:
    """A fixed piece of pure-Python work of the kinds the library does:
    dict and list updates, tuple keys, attribute-free function calls and a
    sort."""
    counts = {}
    for i in range(1100):
        key = ((i * 7919) % 211, i & 7)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return sum(len(str(key)) for key, _ in ranked[:100])


def sample(cpu: int, period: float) -> List[Tuple[float, float]]:
    """Run the kernel on ``cpu`` every ``period`` seconds until standard
    input closes; return ``(end, duration)`` pairs."""
    os.sched_setaffinity(0, {cpu})
    kernel()  # warm up
    samples: List[Tuple[float, float]] = []
    stdin = sys.stdin.fileno()
    while True:
        began = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        samples.append((ended, ended - began))
        ready, _, _ = select.select([stdin], [], [], max(0.0, period - (ended - began)))
        if ready and not os.read(stdin, 4096):
            return samples


class SpeedMeter:
    """One sampling process per CPU this process may use."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.procs: List[subprocess.Popen] = []
        self.samples: List[Tuple[float, float]] = []
        self._ends: List[float] = []

    def start(self) -> None:
        script = str(Path(__file__).resolve())
        for cpu in sorted(os.sched_getaffinity(0)):
            self.procs.append(subprocess.Popen(
                [sys.executable, script, str(cpu), str(self.period)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))

    def pids(self) -> List[int]:
        return [proc.pid for proc in self.procs]

    def stop(self) -> None:
        """Stop every meter process, wait for it, and keep its samples."""
        procs, self.procs = self.procs, []
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            for line in out.splitlines():
                end, duration = line.split()
                self.samples.append((float(end), float(duration)))
        self.samples.sort()

    def at_reference_speed(self, start: float, duration: float) -> float:
        """``duration`` seconds measured from ``start``, at the reference speed."""
        if len(self._ends) != len(self.samples):
            self._ends = [end for end, _ in self.samples]
        return at_reference_speed(self.samples, self._ends, start, duration)


def at_reference_speed(
    samples: Sequence[Tuple[float, float]], ends: Sequence[float], start: float, duration: float,
    min_window: float = MIN_WINDOW_S,
) -> float:
    """``duration`` seconds measured from ``start``, at the reference speed.

    The speed is the mean kernel time of the ``samples`` (``(end, duration)``
    pairs sorted by end; ``ends`` their end times) that ended inside the
    interval, widened about its middle to ``min_window`` seconds if shorter.
    With no sample inside, the duration is returned as measured.
    """
    pad = max(0.0, min_window - duration) / 2.0
    inside = samples[bisect_left(ends, start - pad):bisect_right(ends, start + duration + pad)]
    if not inside:
        return duration
    return duration * NOMINAL_S * len(inside) / sum(kernel_s for _, kernel_s in inside)


if __name__ == "__main__":
    for end, duration in sample(int(sys.argv[1]), float(sys.argv[2])):
        print(f"{end!r} {duration!r}")
