"""Machine-speed probe, to report times at a fixed reference speed.

On a shared host the CPU speed a process gets changes by up to 2x within
seconds, whatever the process runs. A :class:`SpeedProbe` runs a background
thread that, every :data:`INTERVAL_S`, times :func:`job`: a fixed piece of
pure Python work of about half a millisecond, shorter than the interpreter's
switch interval, so it mostly runs uninterrupted. The job runs no `pne` code,
so its time tracks the machine, not the program. :meth:`SpeedProbe.factor`
turns the probe times seen during an interval into the factor that scales
that interval's wall time to the reference speed, at which the job takes
:data:`REF_JOB_S`. The thread costs the measured code a few per cent, the
same on every commit.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.02
REF_JOB_S = 5e-4
# An interval shorter than this is widened, evenly on both sides, so its
# factor rests on about ten probe times.
MIN_SPAN_S = 0.2
# The slowest tenth of probe times is dropped: those are the probes that
# waited for the interpreter lock or were preempted.
TRIM = 0.1


def job() -> int:
    """The fixed work the probe times: dict, tuple and integer operations."""
    seen: dict[tuple[int, int], int] = {}
    for i in range(900):
        key = (i % 7, i % 13)
        seen[key] = seen.get(key, 0) + len(str(i * i))
    return len(seen)


class SpeedProbe:
    """Background thread timing :func:`job`; use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t = time.perf_counter()
            job()
            d = time.perf_counter() - t
            self.samples.append((t + d / 2, d))

    def job_s(self, t0: float, t1: float) -> float:
        """Trimmed mean probe time over [t0, t1], widened to MIN_SPAN_S."""
        pad = max(0.0, (MIN_SPAN_S - (t1 - t0)) / 2)
        near = sorted(d for t, d in self.samples if t0 - pad <= t <= t1 + pad)
        if not near:
            raise RuntimeError("speed probe: no probe time near the interval")
        return statistics.fmean(near[:max(1, round(len(near) * (1 - TRIM)))])

    def factor(self, t0: float, t1: float) -> float:
        """Factor that scales wall time in [t0, t1] to the reference speed."""
        return REF_JOB_S / self.job_s(t0, t1)
