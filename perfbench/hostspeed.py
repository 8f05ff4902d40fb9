"""Host-speed calibration: a fixed kernel timed around and inside every run.

The benchmark host is shared.  When its neighbours are busy, the Python
interpreter here runs up to ~45% slower, in spells of a second to
minutes, so raw times move with the neighbours rather than with the
program.  The layers spend their time building Python objects and
driving numpy operations on small arrays, and a fixed kernel that does
the same slows by much the same share.

Kernels were probed on a 2-vCPU Xeon host over windows of consecutive
runs, each sub-seed's own cost divided out.  Python object churn
tracked the slow spells best; numpy-only and memory-bound kernels did
worst.  Quartile spread of the window means:

* gd-stress-small, 24-run windows, one spell: 0.28 uncalibrated, 0.15
  with a small numpy loop, 0.09 with that loop plus 2500-dict churn;
* gd-stress-small, 24-run windows, another spell: 0.18 uncalibrated,
  0.13 with a 32 MB random gather, 0.06 with a numpy loop plus
  5000-dict churn, 0.03 with 20000-dict churn;
* core-sweep, 100-run windows: 0.16 uncalibrated, 0.07 with the numpy
  loop, 0.02 with the loop plus 2500-dict churn.

:class:`HostSpeed` times the kernel between consecutive runs and, in
runs long enough to span several spells, every :data:`INTERVAL_S`
seconds during the run from a ``SIGALRM`` handler.  The time spent in
the handler is taken out of the run's wall and CPU time.  Each run is
credited with the mean kernel time of the points before, during and
after it, and its times are reported in reference seconds: host seconds
scaled by :data:`REFERENCE_S` over that mean.  For a run whose work is
done by worker processes on every CPU, each point between runs times
the kernel pinned to each CPU in turn and takes the mean, since the two
vCPUs of a shared host can differ by 30% at one moment.  The kernel
depends on nothing in ``src/``, so a change to the program cannot move
it.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time

import numpy as np

#: The kernel's time at the reference speed (the median on a 2-vCPU Xeon
#: host), so reference seconds read close to host seconds.
REFERENCE_S = 0.014
#: Kernel timings per point between runs; their median is the point.
SAMPLES = 3
#: Period of the in-run samples.
INTERVAL_S = 0.2

_SMALL = np.arange(2000, dtype=np.int64)


def kernel() -> int:
    """Python object churn (build, sort and join ten thousand dicts) and
    a few small numpy operations driven from Python, like the layers.
    The collector is paused while it runs, so the size of the program's
    heap cannot change its time."""
    values = _SMALL
    total = 0
    for _ in range(50):
        values = (values * 3 + 1) % 1021
        total += int(values.argsort()[:10].sum())
    collecting = gc.isenabled()
    gc.disable()
    try:
        items = [{"op": f"ADD r{i % 32}", "dst": i % 32, "src": i * 7 % 32}
                 for i in range(10000)]
        items.sort(key=lambda item: (item["dst"], item["src"]))
        total += len("\n".join(item["op"] for item in items))
    finally:
        if collecting:
            gc.enable()
    return total


def time_kernel() -> float:
    """Median of :data:`SAMPLES` timings of :func:`kernel`, in seconds."""
    timings = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        kernel()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def time_kernel_every_cpu() -> float:
    """Mean over the CPUs this process may use of :func:`time_kernel`
    pinned to each; plain :func:`time_kernel` where pinning is not
    available."""
    if not hasattr(os, "sched_setaffinity"):
        return time_kernel()
    cpus = sorted(os.sched_getaffinity(0))
    timings = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append(time_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(timings)


class HostSpeed:
    """Calibration points around and inside runs.

    :meth:`arm` starts in-run sampling, :meth:`disarm` stops it, and
    :meth:`settle`, called once after each run, returns what to credit
    that run with.  With ``every_cpu`` the points between runs are
    :func:`time_kernel_every_cpu`.
    """

    def __init__(self, every_cpu: bool = False):
        self._point = time_kernel_every_cpu if every_cpu else time_kernel
        self.last = self._point()
        self._samples: list[float] = []
        self._sampling_s = 0.0
        self._sampling_cpu_s = 0.0

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _on_alarm(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        took = time.perf_counter() - start
        self._samples.append(took)
        self._sampling_s += took
        self._sampling_cpu_s += time.thread_time() - cpu

    def settle(self) -> tuple[float, float, float]:
        """(kernel_s, sampling_s, sampling_cpu_s) for the run just ended:
        the mean kernel time of the point before it, its in-run samples
        and a new point after it; and the wall and CPU seconds its
        in-run samples took."""
        self.disarm()
        before, self.last = self.last, self._point()
        kernel_s = statistics.mean([before, *self._samples, self.last])
        spent = (self._sampling_s, self._sampling_cpu_s)
        self._samples, self._sampling_s, self._sampling_cpu_s = [], 0.0, 0.0
        return (kernel_s, *spent)


def reference_s(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, in
    seconds at the reference speed."""
    return seconds * REFERENCE_S / kernel_s
