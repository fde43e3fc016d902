"""A CPU speed sensor, so that timings can be normalised to one speed.

The benchmark's host gives each virtual CPU a speed that changes from
second to second, by up to a factor of about 1.8, with what else the
host runs.  The changes are common to every process on that CPU, so a
cold command's wall time tells as much about the host as about the
program.  This sensor measures the speed on the CPU the benchmark pins
its children to.

The sensor is a separate process pinned to that CPU.  Every PERIOD_S it
runs a fixed chunk of pure-Python work (the closure of S_6 on tuples,
the same kind of work as the package's group code) and writes when the
chunk started and the CPU time it took.  CPU time, not wall time: a chunk
that the scheduler interrupts for the command under test is not slowed
by it.  The chunk never imports polytope_forge, so no change to the
program moves it.

`Sensor.normalise` turns the wall time of an interval into the time it
would have taken at the reference speed, at which the chunk takes
REFERENCE_CHUNK_S of CPU time: the wall time minus what the sensor's own
chunks took of it, times the mean of REFERENCE_CHUNK_S / chunk over the
chunks that ran inside the interval.

    python3 perfbench/speed.py <cpu>     # the sensor loop itself
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import threading
import time

PERIOD_S = 0.025
# CPU time of one chunk on an uncontended vCPU of the 2-vCPU Xeon (family
# 6, model 143) on which the bounds were set, with Python 3.11.7.
REFERENCE_CHUNK_S = 0.0014


def chunk() -> int:
    """The fixed unit of work: close {(0 1), (0 1 2 3 4 5)} in S_6."""
    gens = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    seen = {tuple(range(6))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def sense(out) -> None:
    """Write `start cpu_seconds` for one chunk every PERIOD_S until the
    reader goes away."""
    while True:
        time.sleep(PERIOD_S)
        start = time.perf_counter()
        cpu = time.thread_time()
        chunk()
        cpu = time.thread_time() - cpu
        try:
            out.write(f"{start:.9f} {cpu:.9f}\n")
            out.flush()
        except BrokenPipeError:
            return


class Sensor:
    """The sensor process on `cpu`, and the readings it has sent.

    Both processes read time.perf_counter, which is CLOCK_MONOTONIC on
    Linux and so shared between them."""

    def __init__(self, cpu: int):
        self.starts: list[float] = []
        self.cpus: list[float] = []
        self.died = False
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self._proc.stdout:
            start, cpu = map(float, line.split())
            self.starts.append(start)
            self.cpus.append(cpu)

    def close(self) -> None:
        """Stop the sensor.  `died` tells whether it had stopped early."""
        self.died = self._proc.poll() is not None
        self._proc.kill()
        self._proc.wait()
        self._reader.join()
        self._proc.stdout.close()

    def __enter__(self) -> "Sensor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def normalise(self, start: float, end: float) -> float:
        """Seconds that the interval [start, end] of perf_counter time
        would have lasted at the reference speed.  Call it after close(),
        when every reading is in.  An interval too short to hold a
        reading takes the speed of the nearest one."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = self.cpus[lo:hi]
        if inside:
            speed = statistics.fmean(REFERENCE_CHUNK_S / c for c in inside)
        else:
            nearest = min(max(lo, 0), len(self.starts) - 1)
            speed = REFERENCE_CHUNK_S / self.cpus[nearest]
        return (end - start - sum(inside)) * speed


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    sense(sys.stdout)
