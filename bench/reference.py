"""The reference kernel: how fast is this machine right now?

The sandbox's speed wanders: the same single-threaded work costs 1.0-1.6x
as much for minutes at a time (the guest's own CPU accounting inflates
with it and steal reads 0, so the guest cannot see why).  Runs of one
commit made minutes apart then differ by more than any regression bound.
So every measured phase interleaves a small fixed piece of work with its
ops and times it in *thread CPU time* (which leaves out time the CPU spent
on another thread or process).  The work is what the program's own
per-container work is made of: a Python loop over small numpy slices and
dicts, then a walk over scattered heap objects.  The mean of those timings
over ``REFERENCE_KERNEL_MS`` is the phase's *speed factor*: about 1.0 on
this box when it is quiet, above 1 when it is slow.  End-to-end times are
divided by it and rates multiplied by it, so they read as on a machine
where the kernel takes ``REFERENCE_KERNEL_MS``.  The kernel belongs to the
benchmark: no change to the program can move it.

On seed-commit runs the factor explains most of the spread: over twelve
``scan_sweep`` runs ``ops_per_s`` correlated 0.97 with 1/kernel time and
normalising cut its spread (quartile distance / median) from 0.19 to
0.04; over eleven ``remote_tenants`` runs from 0.15 to 0.06, and that of
``latency_ms_p50`` from 0.22 to 0.04.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

#: thread-CPU milliseconds one kernel run takes on the quiet sandbox
REFERENCE_KERNEL_MS = 2.2
#: seconds between two kernel runs while a run sets up
SETUP_SAMPLE_INTERVAL_S = 0.1

_ROWS = np.arange(4096, dtype=np.float64)


@functools.cache
def _heap():
    """Scattered heap objects (~25 MB) and the fixed order they are
    visited in; built on the first kernel run, which the warm-up makes."""
    objects = [(i, float(i)) for i in range(250_000)]
    walk = np.random.default_rng(0).permutation(len(objects))[:3500].tolist()
    return objects, walk


def kernel_seconds():
    """Run the kernel once; returns the thread CPU seconds it took."""
    rows = _ROWS
    heap, walk = _heap()
    total = 0.0
    started = time.thread_time()
    for i in range(250):
        part = rows[i % 7 :: 3] * 1.0001
        total += float(part.sum())
        _index = {j: j for j in range(20)}
    for j in walk:
        total += heap[j][1]
    return time.thread_time() - started


def speed_factor(kernel_times):
    """The speed factor of a phase from its kernel timings (seconds)."""
    return float(np.mean(kernel_times)) * 1e3 / REFERENCE_KERNEL_MS


class SetupSpeed:
    """The speed factor of a run's set-up.

    Set-up is a few long calls (store builds, child start-up), so the
    kernel cannot run between ops as it does in a measured phase; a thread
    of its own runs it every ``SETUP_SAMPLE_INTERVAL_S`` instead (about
    2 % of the set-up's CPU), again timed in thread CPU time.
    """

    def __init__(self):
        self._times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="bench-setup-speed", daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def _sample(self):
        kernel_seconds()  # builds the heap: not a sample
        while not self._stop.is_set():
            self._times.append(kernel_seconds())
            self._stop.wait(SETUP_SAMPLE_INTERVAL_S)

    def stop(self):
        """End the sampling; returns the speed factor over its samples
        (1.0 when set-up was too short to give one)."""
        self._stop.set()
        self._thread.join()
        return speed_factor(self._times) if self._times else 1.0
