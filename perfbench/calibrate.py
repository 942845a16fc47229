"""Host-speed calibration: a small fixed computation run every few milliseconds.

The benchmark shares a few cores of a host whose speed changes by half or
more, within a fraction of a second and for minutes on end. So every time
the runner reports is a wall time scaled by ``REFERENCE_S`` over the mean
time of this calibration around and during it: seconds on a host that runs
the calibration in ``REFERENCE_S``.

While a ``Calibration`` is entered, an interval timer runs the calibration
from a ``SIGALRM`` handler every ``PERIOD_S`` seconds, so it also samples
the host's speed in the middle of a long op. Python runs the handler
between bytecodes, never inside a C call, and ``scaled`` takes the
handler's own time out of the op's time. The calibration does what the
program's ops spend their time on (interpreter work, parsing and formatting
floats, small numpy calls and a LAPACK eigensolve) with the standard
library and numpy only, never ``insep``, so a change to the program cannot
move it.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import signal
import statistics
import time

import numpy as np

# Bound at import, before a traced run wraps numpy.linalg.eigh.
_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

PERIOD_S = 0.02
# Calibrations within this long before or after an op count for it.
WINDOW_S = 2 * PERIOD_S
# About the calibration's time on an idle 2-core Intel Xeon VM.
REFERENCE_S = 0.0007


class Calibration:
    """The reference work, built once from a fixed seed, and its timings.

    ``times`` and ``seconds`` hold when each calibration started and how
    long it took, on the ``time.perf_counter`` clock.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((24, 24))
        self._hermitian = m + m.T
        s = rng.standard_normal((4, 4))
        self._small = s + s.T
        self._text = json.dumps(rng.standard_normal((10, 20)).tolist())
        self._floats = rng.standard_normal(100).tolist()
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._running = False
        self._previous = None

    def _work(self) -> int:
        json.loads(self._text)
        ",".join(f"[{x!r},{-x!r}]" for x in self._floats)
        total, table = 0, {}
        for i in range(600):
            total += i * i % 7
            table[i & 63] = total
        for _ in range(4):
            np.allclose(self._small, self._small.conj().T)
            _eigvalsh(self._small)
        _eigh(self._hermitian)
        return total

    def _on_alarm(self, signum, frame) -> None:
        if self._running:  # a late signal while the last calibration runs
            return
        self._running = True
        start = time.perf_counter()
        self._work()
        self.seconds.append(time.perf_counter() - start)
        self.times.append(start)
        self._running = False

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop calibrating while another process works: a calibration
        beside it would share its cores and read the host as slower."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def settle(self, window: float = WINDOW_S) -> None:
        """Wait until a calibration has started ``window`` seconds after now."""
        until = time.perf_counter() + window
        while not self.times or self.times[-1] < until:
            time.sleep(PERIOD_S / 4)

    def scaled(self, start: float, seconds: float, window: float = WINDOW_S) -> float:
        """``seconds`` of wall time timed from ``start``, in reference seconds.

        The calibrations that ran inside the interval are taken out of it.
        The host's speed is the mean time of those and of the ones within
        ``window`` seconds of either end.
        """
        end = start + seconds
        inside = slice(bisect.bisect_left(self.times, start), bisect.bisect_left(self.times, end))
        own = math.fsum(self.seconds[inside])
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        if lo == hi:
            raise RuntimeError("no calibration near a timed interval")
        return (seconds - own) * REFERENCE_S / statistics.fmean(self.seconds[lo:hi])
