"""Host-speed adjustment of the benchmark's timings.

On a shared host a CPU runs the same code up to half again faster or
slower from one moment to the next, in phases of a few seconds to a
minute: longer than most samples and as long as a whole run, so no median
inside a run averages them away.  The two CPUs of such a host drift apart,
too.  So the benchmark pins itself and every child process to one CPU
(:func:`pin`) and times a fixed kernel of its own (:func:`kernel`) right
before and right after every timed sample.  A sample is reported as

    raw seconds × REFERENCE_S / kernel seconds around it

that is, the seconds it would have taken on a host where the kernel takes
:data:`REFERENCE_S` (the kernel's median on the machine the README gives
reference figures for).  Serve streams are calibrated the same way with
:func:`measure_serve`, a kernel that does socket work too, against
:data:`SERVE_REFERENCE_S`.  The kernels are the benchmark's own code, so a
change to the program moves adjusted timings exactly as it moves raw ones.
Each run prints its host factors (the reference over the run's median
kernel time): a raw time is about the adjusted one divided by its factor.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

#: Median seconds of one :func:`kernel` on the reference machine (Intel
#: Xeon, ``nproc`` 2, Python 3.11.7; see README.md).
REFERENCE_S = 0.0060

#: Loopback round trips of :func:`measure_serve`: about as long as one
#: :func:`kernel` on the reference machine.
LOOPBACK_ROUNDS = 90

#: Median seconds of one :func:`measure_serve` on the reference machine.
SERVE_REFERENCE_S = 0.0125

#: Seconds one calibration spends repeating the kernel; it reports their
#: median.
CALIBRATION_S = 0.08

#: A calibration that ended this recently still counts as "right before"
#: the next sample.
REUSE_S = 0.25

#: Seconds between the kernels :meth:`HostClock.sampling` runs while a
#: child process works.
SAMPLE_EVERY_S = 0.5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def kernel() -> int:
    """A fixed slice of interpreter work of the kinds the program does:
    object and dict churn, a sort, a JSON round trip and a hash."""
    items = [_Item(i, i * 1.5) for i in range(4000)]
    table = {}
    for item in items:
        table[(item.key, item.key % 97)] = item.value * 2.0 + item.key
    ranked = sorted(table.items(), key=lambda kv: -kv[1])
    blob = json.dumps([[k[0], k[1], v] for k, v in ranked[:1500]])
    hashlib.sha256(blob.encode()).hexdigest()
    return len(json.loads(blob))


@contextmanager
def _no_gc() -> Iterator[None]:
    """Keep this process's collector, which walks every object the
    benchmark holds, out of the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def measure(budget_s: float = CALIBRATION_S) -> float:
    """Median seconds of :func:`kernel` over ``budget_s`` (at least three
    runs)."""
    samples: List[float] = []
    with _no_gc():
        started = time.perf_counter()
        while len(samples) < 3 or time.perf_counter() - started < budget_s:
            t0 = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure_busy() -> float:
    """CPU seconds of one :func:`kernel`, run after a first one warms the
    caches: what the kernel costs while another process shares the CPU,
    without the time it waits for that process."""
    with _no_gc():
        kernel()
        t0 = time.thread_time()
        kernel()
        return time.thread_time() - t0


def loopback(rounds: int = LOOPBACK_ROUNDS) -> None:
    """``rounds`` TCP exchanges over loopback, each on a new connection,
    with a request and a reply about the size of a served one."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        address = server.getsockname()
        for _ in range(rounds):
            with socket.create_connection(address) as client:
                conn, _peer = server.accept()
                with conn:
                    client.sendall(b"q" * 200)
                    conn.recv(4096)
                    conn.sendall(b"r" * 3000)
                    client.recv(65536)


def measure_serve() -> float:
    """CPU seconds of one :func:`kernel` and one :func:`loopback`: the
    calibration of serve streams.  A store-served request is as much
    socket and kernel work as interpreter work, and the host's phases
    move the two apart; a kernel of both tracked the latency of 50
    store-served requests over 10-s windows to 0.05-0.06 of the median,
    :func:`kernel` alone to 0.06-0.08."""
    with _no_gc():
        t0 = time.thread_time()
        kernel()
        loopback()
        return time.thread_time() - t0


def pin() -> Optional[int]:
    """Pin this process, and so every child it starts, to its lowest
    allowed CPU.  Returns the CPU, or ``None`` where affinity cannot be
    set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class HostClock:
    """Calibrations of one run, and the adjustment of samples by them.

    Call :meth:`before` right before a timed sample and :meth:`after`
    right after it; :meth:`factor` then gives the sample's adjustment from
    the calibrations that bracket it.
    """

    def __init__(self, measure=measure, quick=measure_busy,
                 reference: float = REFERENCE_S):
        self._measure = measure
        self._quick = quick
        self.reference = reference
        #: ``(start, end, kernel seconds)`` of every calibration, in order.
        self.marks: List[Tuple[float, float, float]] = []

    def _calibrate(self, measure=None) -> None:
        start = time.perf_counter()
        value = (measure or self._measure)()
        self.marks.append((start, time.perf_counter(), value))

    def before(self) -> None:
        """Calibrate, unless the last calibration just ended."""
        if not self.marks or time.perf_counter() - self.marks[-1][1] > REUSE_S:
            self._calibrate()

    def after(self) -> None:
        self._calibrate()

    def tick(self) -> None:
        """A quick calibration, one kernel, between short pieces of work."""
        self._calibrate(self._quick)

    @contextmanager
    def sampling(self, measure=measure_busy) -> Iterator[None]:
        """While the block runs (a child process working on the pinned
        CPU, this process waiting for it), measure the kernel from a
        thread as it starts and every :data:`SAMPLE_EVERY_S` after, so
        that a long sample is adjusted by the host's speed all through it,
        not only at its ends."""
        stop = threading.Event()

        def sample() -> None:
            while True:
                self._calibrate(measure)
                if stop.wait(SAMPLE_EVERY_S):
                    return

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """``reference`` over the mean kernel time of the last
        calibration ending by ``t0``, those taken within ``[t0, t1]`` and
        the first starting from ``t1``."""
        before = [v for _s, end, v in self.marks if end <= t0]
        within = [v for start, end, v in self.marks
                  if t0 <= start and end <= t1]
        after = [v for start, _e, v in self.marks if start >= t1]
        around = before[-1:] + within + after[:1]
        if not around:
            raise ValueError("no calibration around the sample")
        return self.reference / statistics.mean(around)

    def median_kernel_s(self) -> float:
        return statistics.median(v for _s, _e, v in self.marks)
