"""Wall-clock timing, corrected for the speed the shared machine gives this core.

On a machine shared with other tenants the same work can take up to twice
as long for tens of seconds at a time, with CPU time rising as much as wall
time. A fixed calibration loop is timed on the same thread before and after
each timed part, and inside a long part at program call boundaries. The
calibrations cut the part into segments. A segment's scaled time is its
wall time times CAL_REFERENCE_S over the mean of the two calibration times
that bound it: the seconds it would take where the loop takes
CAL_REFERENCE_S. A part's scaled time is the sum over its segments.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from datetime import datetime

import numpy as np

CAL_REFERENCE_S = 0.01
# The loop mixes what the workloads spend their time on: numpy calls on small
# arrays (the models), text-to-number and date parsing (the CSV reader) and a
# product over a 4000-row design matrix (the ADF regressions).
CAL_STEPS = 1000
_CAL_X = np.linspace(-1.0, 1.0, 65)[None, :]
_CAL_W = np.cos(np.arange(65.0 * 64.0)).reshape(65, 64) / 8.0
_CAL_TEXT = [repr(v) for v in np.linspace(1.0, 2.0, 64).tolist()]
_CAL_DESIGN = np.cos(np.arange(4000.0 * 32.0)).reshape(4000, 32)


def calibration_s() -> float:
    """Seconds one fixed calibration loop takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_STEPS):
        acc += float(np.tanh(_CAL_X @ _CAL_W)[0, i % 64]) + float(_CAL_TEXT[i % 64])
        if i % 10 == 0:
            acc += datetime.strptime(f"2015-01-{1 + i % 28:02d}", "%Y-%m-%d").day
        if i % 100 == 0:
            acc += float((_CAL_DESIGN.T @ _CAL_DESIGN)[0, 0])
    return time.perf_counter() - start


class Clock:
    """Wall and scaled times of a round's timed parts, traced when given a tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.parts: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.paused = 0.0  # calibration time inside the current part
        self._segment_start = 0.0
        self._segment_cal = 0.0
        self._part_scaled = 0.0

    @property
    def total(self) -> float:
        return sum(sum(times) for times in self.parts.values())

    def _cut(self) -> None:
        """End the current segment with a calibration and start the next."""
        end = time.perf_counter()
        cal = calibration_s()
        self._part_scaled += (
            (end - self._segment_start) * CAL_REFERENCE_S * 2.0 / (self._segment_cal + cal)
        )
        self._segment_cal = cal
        self._segment_start = time.perf_counter()

    @contextlib.contextmanager
    def timed(self, part: str):
        self.paused = 0.0
        self._part_scaled = 0.0
        self._segment_cal = calibration_s()
        if self.tracer:
            self.tracer.install()
        start = self._segment_start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start - self.paused
            if self.tracer:
                self.tracer.uninstall()
            self._cut()
            self.parts[part].append(wall)
            self.scaled[part].append(self._part_scaled)

    @contextlib.contextmanager
    def sampling(self, module, attr: str, every: int):
        """Inside a long part, cut a segment before every `every`-th call of module.attr.

        Calibration time is left out of the part's wall and scaled time.
        Traced rounds take no samples, so spans hold program time only.
        """
        if self.tracer:
            yield
            return
        original = getattr(module, attr)
        calls = 0

        @functools.wraps(original)
        def sampled(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % every == 0:
                start = time.perf_counter()
                self._cut()
                self.paused += time.perf_counter() - start
            return original(*args, **kwargs)

        setattr(module, attr, sampled)
        try:
            yield
        finally:
            setattr(module, attr, original)


@contextlib.contextmanager
def stopwatch(module, attr: str, clock: Clock):
    """Time every call of module.attr, less the clock's calibration pauses inside it.

    Yields a list that fills with (args, kwargs, result, seconds).
    """
    original = getattr(module, attr)
    calls: list = []

    @functools.wraps(original)
    def timed(*args, **kwargs):
        paused, start = clock.paused, time.perf_counter()
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result, time.perf_counter() - start - (clock.paused - paused)))
        return result

    setattr(module, attr, timed)
    try:
        yield calls
    finally:
        setattr(module, attr, original)
