"""Trend-line fitting for clock drift.

The paper fits "a trend line using least squares polynomial fit with a
first degree polynomial" over the recorded offsets — the slope is the
drift (skew) estimate, re-estimated on every accepted sample.  The
filter measures each candidate offset's squared error against the
line's extrapolation.

The fit is the closed-form degree-1 least-squares solution computed
from running sums, so adding a sample and refitting cost O(1) however
long the window is; ``tests/core/test_trend.py`` checks it against
``np.polyfit``.
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional, Tuple

import numpy as np


class TrendLine:
    """Degree-1 least-squares fit over a sliding window of samples.

    Points are (time, offset) pairs, kept in float64 buffers: the oldest
    point is evicted by advancing a start index, and the live window is
    copied back to the front only when the buffer end is reached.  The
    buffers start small and double up to twice the window size, so a
    short-lived line does not hold the full window's memory.

    Running sums of x, y, x² and xy, taken relative to an anchor point
    so fits at the 1.46e9 trace epoch keep their precision, give the
    slope and intercept in O(1).  The anchor is the first point added
    to an empty line; each compaction moves it to the oldest live point
    and re-sums from the buffer, so eviction updates cannot drift.

    Two points with the same time have zero time variance; the fit is
    then a flat line at the mean offset (the minimum-norm least-squares
    answer).
    """

    def __init__(self, max_points: int = 4096) -> None:
        if max_points < 2:
            raise ValueError("window must hold at least 2 points")
        self._max_points = max_points
        self._times = np.empty(min(64, 2 * max_points))
        self._offsets = np.empty(min(64, 2 * max_points))
        self.clear()

    def __len__(self) -> int:
        return self._end - self._start

    def add(self, time: float, offset: float) -> None:
        """Record an accepted offset sample."""
        time = float(time)
        offset = float(offset)
        if self._end == self._start:
            self._t0 = time
            self._y0 = offset
        elif self._end == len(self._times):
            self._compact()
        self._times[self._end] = time
        self._offsets[self._end] = offset
        self._end += 1
        x = time - self._t0
        y = offset - self._y0
        self._sx += x
        self._sy += y
        self._sxx += x * x
        self._sxy += x * y
        if self._end - self._start > self._max_points:
            x = float(self._times[self._start]) - self._t0
            y = float(self._offsets[self._start]) - self._y0
            self._start += 1
            self._sx -= x
            self._sy -= y
            self._sxx -= x * x
            self._sxy -= x * y
        self._coeffs = None
        self._stats = None

    def clear(self) -> None:
        """Forget all samples (protocol reset)."""
        self._start = self._end = 0
        self._t0 = self._y0 = 0.0
        self._sx = self._sy = self._sxx = self._sxy = 0.0
        self._coeffs: Optional[Tuple[float, float]] = None
        self._stats: Optional[Tuple[float, float]] = None

    def _compact(self) -> None:
        """Move the live window to the front of the (possibly grown)
        buffers, re-anchor and re-sum."""
        n = self._end - self._start
        times, offsets = self._times, self._offsets
        size = min(2 * len(times), 2 * self._max_points)
        if size > len(times):
            self._times, self._offsets = np.empty(size), np.empty(size)
        self._times[:n] = times[self._start:self._end]
        self._offsets[:n] = offsets[self._start:self._end]
        self._start, self._end = 0, n
        self._t0 = float(self._times[0])
        self._y0 = float(self._offsets[0])
        x = self._times[:n] - self._t0
        y = self._offsets[:n] - self._y0
        self._sx = float(x.sum())
        self._sy = float(y.sum())
        self._sxx = float(x @ x)
        self._sxy = float(x @ y)

    def _fit(self) -> Optional[Tuple[float, float]]:
        """(slope, offset at the anchor time), or None below two points."""
        if self._coeffs is None:
            n = self._end - self._start
            if n < 2:
                return None
            mean_x = self._sx / n
            mean_y = self._sy / n
            var_x = self._sxx - self._sx * mean_x
            # A centred variance this small against the raw sum of
            # squares is rounding noise: the times are all equal
            # (``np.linalg.lstsq``'s rcond cut-off plays the same role).
            if var_x <= n * sys.float_info.epsilon * self._sxx:
                slope = 0.0
            else:
                slope = (self._sxy - self._sx * mean_y) / var_x
            self._coeffs = (slope, self._y0 + (mean_y - slope * mean_x))
        return self._coeffs

    @property
    def slope(self) -> Optional[float]:
        """Drift estimate in seconds of offset per second, or None if
        fewer than two points are recorded."""
        coeffs = self._fit()
        return None if coeffs is None else coeffs[0]

    def predict(self, time: float) -> Optional[float]:
        """Extrapolated offset at ``time``, or None if unfit."""
        coeffs = self._fit()
        if coeffs is None:
            return None
        slope, intercept = coeffs
        return intercept + slope * (time - self._t0)

    def squared_errors(self) -> np.ndarray:
        """Squared residuals of the recorded points against the fit."""
        coeffs = self._fit()
        if coeffs is None:
            return np.asarray([])
        slope, intercept = coeffs
        t = self._times[self._start:self._end]
        resid = self._offsets[self._start:self._end] - (
            intercept + slope * (t - self._t0)
        )
        resid *= resid
        return resid

    def residual_stats(self) -> Tuple[float, float]:
        """(mean, std) of the squared residuals; (0, 0) when unfit.

        Same arithmetic as ``errs.mean(), errs.std()``, cached until
        the next :meth:`add` or :meth:`clear`.
        """
        if self._stats is None:
            errs = self.squared_errors()
            n = errs.size
            if n == 0:
                return 0.0, 0.0
            mean = errs.sum() / n
            dev = errs - mean
            dev *= dev
            self._stats = (float(mean), math.sqrt(dev.sum() / n))
        return self._stats

    def points(self) -> "Tuple[List[float], List[float]]":
        """Copies of the recorded (times, offsets)."""
        return (
            self._times[self._start:self._end].tolist(),
            self._offsets[self._start:self._end].tolist(),
        )
