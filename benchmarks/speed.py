"""A reference kernel that scales CPU times to a nominal machine speed.

On a shared host the same serial, CPU-bound code runs at one of two speeds
that differ by about 1.75x and switch every few seconds to minutes (cores
shared with other tenants), so raw CPU time follows the neighbours. The
harness pins itself to one core and measures that core's speed with this
fixed pure-Python kernel, which does not touch ``dimspec``: once in-process
right after every timed operation, and every ``SAMPLE_PERIOD_S`` in a small
sampler process on the same core (``python3 speed.py --sample``), so an
operation that lasts seconds is matched with the speed the core had while it
ran, not only at its edges. An operation's CPU time is scaled by
``NOMINAL_S`` over the mean kernel time of those runs. A normalized second
is the CPU time the operation would take on a machine that runs the kernel
in ``NOMINAL_S``; the kernel is never changed, so the unit stays fixed
across commits. Raw CPU seconds go to the result file beside them.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from statistics import mean, median

NOMINAL_S = 0.004  # kernel CPU time that defines one normalized second
SAMPLE_PERIOD_S = 0.1  # the sampler's kernel takes about 4 % of the core

_Point = namedtuple("_Point", "i x y")


def kernel() -> float:
    """Fixed interpreter work: small tuples, a dict, a list and float arithmetic."""
    table: dict = {}
    recent: list = []
    acc = 0.0
    for i in range(4000):
        p = _Point(i, i * 0.5, -i)
        table[i & 127] = p
        recent.append(p)
        key = (i * 7) & 127
        if key in table:
            acc += table[key].x * 1.0000001
        if len(recent) > 64:
            recent.clear()
    return acc


def kernel_cpu_s() -> float:
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


def cpu_clock() -> float:
    """CPU seconds used so far by this process and the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def pin_to_one_core() -> set:
    """Pin this process (and the children it starts) to one core; returns the old set.

    The two speeds switch independently per core, so the kernel must run on
    the core the timed work runs on.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    return cores


class Measurement:
    """CPU and normalized seconds of one measured operation, set when its body ends."""

    cpu_s = 0.0
    norm_s = 0.0


class Speed:
    """Kernel runs of one harness run and the scaling they imply. Use as a
    context manager, so the sampler process is stopped on every way out."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []  # in-process runs
        self.sampled: list[tuple[float, float]] = []  # (monotonic time, kernel CPU s) from the sampler
        self._pending = b""
        self._sampler = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        os.set_blocking(self._sampler.stdout.fileno(), False)
        kernel()  # warm-up: the interpreter specializes the loop on its first runs
        self.last = self._run_kernel()

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self._sampler.kill()
        self._sampler.wait()
        self._sampler.stdout.close()

    def _run_kernel(self) -> float:
        elapsed = kernel_cpu_s()
        self.kernel_s.append(elapsed)
        return elapsed

    def _drain(self) -> None:
        """Collect the sampler's lines written so far, without waiting."""
        while True:
            try:
                chunk = os.read(self._sampler.stdout.fileno(), 1 << 16)
            except BlockingIOError:
                return
            if not chunk:  # the sampler has ended
                return
            lines = (self._pending + chunk).split(b"\n")
            self._pending = lines.pop()
            for line in lines:
                at, cpu = line.split()
                self.sampled.append((float(at), float(cpu)))

    @contextmanager
    def measure(self):
        """Time the body in CPU seconds (children included) and normalize it.

        The kernel runs that count are the in-process one just before the
        body (the previous operation's), the one right after it, and every
        sampler run inside the body's interval.
        """
        m = Measurement()
        start, t0 = time.monotonic(), cpu_clock()
        yield m
        m.cpu_s = cpu_clock() - t0
        end = time.monotonic()
        before, self.last = self.last, self._run_kernel()
        self._drain()
        runs = [before, self.last] + [cpu for at, cpu in self.sampled if start <= at <= end]
        m.norm_s = m.cpu_s * NOMINAL_S / mean(runs)

    def summary(self) -> dict:
        return {
            "kernel_runs": len(self.kernel_s),
            "kernel_ms_median": 1e3 * median(self.kernel_s),
            "sampler_runs": len(self.sampled),
            "sampler_kernel_ms_median": 1e3 * median(c for _, c in self.sampled) if self.sampled else None,
        }


def sample_forever() -> None:
    """The sampler: one kernel run every SAMPLE_PERIOD_S, written as "time cpu" lines.

    It ends when the harness closes the pipe or kills it.
    """
    kernel()
    try:
        while True:
            cpu = kernel_cpu_s()
            sys.stdout.write(f"{time.monotonic()!r} {cpu!r}\n")
            sys.stdout.flush()
            time.sleep(SAMPLE_PERIOD_S)
    except BrokenPipeError:
        pass


if __name__ == "__main__" and sys.argv[1:] == ["--sample"]:
    sample_forever()
