"""Host-speed correction of the benchmark's timings.

On a shared host the CPU that runs the benchmark slows down and speeds up
again as other tenants come and go: the same render takes anywhere from 1x to
2x its quiet time, in swings that last from seconds to minutes. Wall times of
whole runs then differ between runs by more than the changes the benchmark is
meant to resolve.

``HostClock`` therefore measures the host's speed *while* the program runs. A
``SIGALRM`` timer interrupts the benchmark's process every 0.1 s, and the
signal handler, which Python runs in the main thread between two bytecodes of
whatever the program is doing, times two fixed kernels of the benchmark's own:

- ``interp``: a Python loop of ray-triangle arithmetic on a 24x24 pixel block,
  many small numpy calls as in ``render.render_depth`` (interpreter-bound);
- ``stream``: L1 distances from a query to a 300 x 784 float64 table, as in
  ``KnnViewPredictor.predict`` (1.9 MB, bandwidth-bound).

Their times, over their reference times, give a *speed index*: 1.0 on the
reference host when it is quiet, 2.0 when the kernels take twice as long. An
operation's corrected time is its wall time, less the time spent in the
handler during it, over the median index of the samples taken from 1 s before
it starts to 1 s after it ends. The median, because now and then a few
samples run several times slower than the program around them does: the mean
made one 30-second build read 25% faster than the builds of other runs. The
kernels do not call viewsphere, so a change to the program moves operation
times but not the index. One sample takes about 3 ms, so sampling costs about
3% of a run.

How well the index tracks was measured over 300 s of a loop that alternated
rendering a 264-face sphere with recognizing a desk test split, on a 2-vCPU
Intel Xeon. Medians of raw times over 20-second windows spread by 0.26
(render) and 0.32 (recognition), as IQR over median. Corrected with the
weights below (and the window mean) they spread by 0.04 and 0.03; with the
interp kernel alone by 0.04 and 0.04, with the stream kernel alone by 0.20
and 0.19.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Kernel times (s) that make the index 1.0: the 10th percentile of samples on
#: a 2-vCPU Intel Xeon (105 MiB L3) under numpy 2.4.6.
REF_INTERP_S = 0.00103
REF_STREAM_S = 0.00123
INTERP_WEIGHT = 0.75
#: Seconds between two samples.
SAMPLE_PERIOD_S = 0.1
#: An operation's index is taken over samples up to this long before and after it.
WINDOW_S = 1.0

_rng = np.random.default_rng(20210317)
_BLOCK = _rng.random((3, 24, 24))
_TABLE = _rng.random((300, 784))
_QUERY = _rng.random(784)


def _interp_kernel() -> float:
    ox, oy, oz = _BLOCK
    nearest = np.full((24, 24), np.inf)
    for i in range(40):
        e = 0.001 * (i % 17) + 0.1
        u = e * (ox - 0.3) + oy * 0.2
        v = e * (oy - 0.1) - oz * 0.3
        t = (ox * 0.5 + oz) * e
        hit = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 0.0)
        np.minimum(nearest, np.where(hit, t, np.inf), out=nearest)
    return float(nearest.min())


def _stream_kernel() -> float:
    return float(np.abs(_TABLE - _QUERY).sum(axis=1).min())


@dataclass
class Interval:
    """Start and end (``time.perf_counter``) of one timed operation."""

    start: float
    end: float = float("nan")

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class HostClock:
    """Times operations and corrects them for the host's speed during them.

    Use as a context manager: sampling runs from ``__enter__`` to ``__exit__``.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._indexes: list[float] = []
        self._previous_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _interp_kernel()
        t1 = time.perf_counter()
        _stream_kernel()
        t2 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t2)
        interp = (t1 - t0) / REF_INTERP_S
        stream = (t2 - t1) / REF_STREAM_S
        self._indexes.append(INTERP_WEIGHT * interp + (1.0 - INTERP_WEIGHT) * stream)

    def __enter__(self) -> HostClock:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @contextmanager
    def timed(self):
        """Record the start and end of the ``with`` body in the yielded ``Interval``."""
        interval = Interval(time.perf_counter())
        try:
            yield interval
        finally:
            interval.end = time.perf_counter()

    def index(self, start: float, end: float) -> float:
        """Median speed index of the samples from ``WINDOW_S`` before ``start``
        to ``WINDOW_S`` after ``end``."""
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no host-speed sample within {WINDOW_S} s of an operation")
        return statistics.median(self._indexes[lo:hi])

    def sampling_s(self, start: float, end: float) -> float:
        """Time the signal handler ran between ``start`` and ``end``."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        return sum(e - s for s, e in zip(self._starts[lo:hi], self._ends[lo:hi]))

    def scaled_s(self, interval: Interval) -> float:
        """Time of ``interval`` without sampling, at the reference host's speed."""
        net = interval.wall_s - self.sampling_s(interval.start, interval.end)
        return net / self.index(interval.start, interval.end)

    def summary(self) -> dict:
        return {
            "samples": len(self._indexes),
            "median": statistics.median(self._indexes),
            "p10": float(np.percentile(self._indexes, 10)),
            "p90": float(np.percentile(self._indexes, 90)),
            "sampling_s": sum(e - s for s, e in zip(self._starts, self._ends)),
        }
