"""A speed probe that factors the shared host's CPU speed out of timings.

On a shared VM the speed of one vCPU drifts, over seconds and over
minutes, by more than any bound a regression gate could use.  The probe
measures that drift beside the program: while it is started, a timer
signal runs a fixed piece of the benchmark's own exact-arithmetic work
(`reference`) every INTERVAL seconds in this thread, between the engine's
bytecodes, and records how long it took.  A unit of work that ran while
the probe ran `d` seconds per piece is reported as

    normalized = raw * NOMINAL_S / d

that is, in seconds on a machine where the piece takes NOMINAL_S.  The
probe's own time is left out of `raw`.  The program under test never runs
the probe's code, so no change to the program can move it.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05  # seconds between probe pieces
NOMINAL_S = 0.002  # a piece's time on a 2-vCPU Xeon VM, Python 3.11
MIN_PIECES = 3  # pieces that set a unit's speed, at least


def reference() -> Fraction:
    """Fixed work shaped like the engine's: Fractions, tuples and a dict."""
    table, total = {}, Fraction(0)
    for i in range(1, 61):
        row = tuple(Fraction(i * j + 1, j + 2) for j in range(5))
        table[i % 17, row[0].denominator] = row
        total += sum(a * b for a, b in zip(row, row[1:]))
    return total + len(table)


EXPECTED = reference()


def timed_piece() -> float:
    """Seconds one `reference` piece takes here, now."""
    start = time.perf_counter()
    if reference() != EXPECTED:
        raise AssertionError("the speed probe computed a wrong value")
    return time.perf_counter() - start


class Probe:
    """Runs `reference` on a timer; `own_s` is the time spent in it."""

    def __init__(self):
        self.pieces: list[tuple[float, float]] = []  # (end time, seconds)
        self.own_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        seconds = timed_piece()
        self.pieces.append((time.perf_counter(), seconds))
        self.own_s += seconds

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def piece_s(self, start: float, end: float) -> float:
        """Median time of the pieces run during [start, end], widened on
        both sides until it holds MIN_PIECES pieces (or all there are).

        The speed changes within a second (the process moves between
        vCPUs of different speed), so the narrowest window does best.
        """
        if not self.pieces:
            raise RuntimeError("the speed probe recorded no pieces")
        widen = 0.0
        while True:
            near = [d for t, d in self.pieces if start - widen <= t <= end + widen]
            if len(near) >= min(MIN_PIECES, len(self.pieces)):
                return statistics.median(near)
            widen = 2 * widen or INTERVAL
