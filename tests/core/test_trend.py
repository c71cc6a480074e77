"""TrendLine fitting."""

import math
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trend import TrendLine

TRACE_EPOCH = 1_460_000_000.0


class PolyfitTrendLine:
    """Reference fit: ``np.polyfit`` over the whole window on every query.

    Times are centred on their mean before fitting and before evaluating
    the line, so the reference keeps full precision at the trace epoch.
    The running-sums :class:`TrendLine` must agree with it to rounding;
    ``tests/tuner/test_emulator.py`` also swaps it into the filter to
    check that every accept/reject decision is unchanged.
    """

    def __init__(self, max_points: int = 4096) -> None:
        self._times: List[float] = []
        self._offsets: List[float] = []
        self._max_points = max_points

    def __len__(self) -> int:
        return len(self._times)

    def add(self, time: float, offset: float) -> None:
        self._times.append(float(time))
        self._offsets.append(float(offset))
        if len(self._times) > self._max_points:
            self._times.pop(0)
            self._offsets.pop(0)

    def clear(self) -> None:
        self._times.clear()
        self._offsets.clear()

    def _fit(self) -> Optional[Tuple[float, float, float]]:
        """(slope, intercept at the mean time, mean time)."""
        if len(self._times) < 2:
            return None
        t = np.asarray(self._times)
        t0 = float(t.mean())
        slope, intercept = np.polyfit(t - t0, np.asarray(self._offsets), 1)
        return float(slope), float(intercept), t0

    @property
    def slope(self) -> Optional[float]:
        coeffs = self._fit()
        return None if coeffs is None else coeffs[0]

    def predict(self, time: float) -> Optional[float]:
        coeffs = self._fit()
        if coeffs is None:
            return None
        slope, intercept, t0 = coeffs
        return slope * (time - t0) + intercept

    def squared_errors(self) -> np.ndarray:
        coeffs = self._fit()
        if coeffs is None:
            return np.asarray([])
        slope, intercept, t0 = coeffs
        resid = np.asarray(self._offsets) - (
            slope * (np.asarray(self._times) - t0) + intercept
        )
        return resid**2

    def residual_stats(self) -> Tuple[float, float]:
        errs = self.squared_errors()
        if errs.size == 0:
            return 0.0, 0.0
        return float(errs.mean()), float(errs.std())

    def points(self) -> Tuple[List[float], List[float]]:
        return list(self._times), list(self._offsets)


def test_unfit_with_fewer_than_two_points():
    t = TrendLine()
    assert t.slope is None
    assert t.predict(10.0) is None
    t.add(0.0, 1.0)
    assert t.slope is None


def test_exact_line_recovered():
    t = TrendLine()
    for x in range(10):
        t.add(float(x), 2.0 + 0.5 * x)
    assert t.slope == pytest.approx(0.5)
    assert t.predict(20.0) == pytest.approx(12.0)


def test_residual_stats_zero_on_exact_fit():
    t = TrendLine()
    for x in range(5):
        t.add(float(x), 3.0 * x)
    mean, std = t.residual_stats()
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_residuals_reflect_noise():
    rng = np.random.default_rng(0)
    t = TrendLine()
    for x in range(100):
        t.add(float(x), 0.001 * x + float(rng.normal(0, 0.01)))
    mean, std = t.residual_stats()
    assert mean == pytest.approx(0.0001, rel=0.5)  # E[resid^2] ~ 1e-4


def test_matches_numpy_polyfit():
    rng = np.random.default_rng(1)
    xs = np.sort(rng.uniform(0, 1000, 50))
    ys = rng.normal(0, 1, 50)
    t = TrendLine()
    for x, y in zip(xs, ys):
        t.add(float(x), float(y))
    slope_np, intercept_np = np.polyfit(xs, ys, 1)
    assert t.slope == pytest.approx(float(slope_np), rel=1e-6)
    assert t.predict(0.0) == pytest.approx(float(intercept_np), rel=1e-4, abs=1e-9)


def test_large_epoch_numerically_stable():
    """Fits at epoch ~1.46e9 (the trace epoch) must not lose precision."""
    t = TrendLine()
    t0 = 1_460_000_000.0
    for x in range(20):
        t.add(t0 + x * 5.0, 0.001 + 1e-6 * x * 5.0)
    assert t.slope == pytest.approx(1e-6, rel=1e-3)
    assert t.predict(t0 + 200.0) == pytest.approx(0.001 + 2e-4, rel=1e-3)


def test_window_bounds_memory():
    t = TrendLine(max_points=10)
    for x in range(100):
        t.add(float(x), float(x))
    assert len(t) == 10
    times, _ = t.points()
    assert times[0] == 90.0


def test_clear():
    t = TrendLine()
    t.add(0.0, 1.0)
    t.add(1.0, 2.0)
    t.clear()
    assert len(t) == 0
    assert t.slope is None


def test_min_window_size_rejected():
    with pytest.raises(ValueError):
        TrendLine(max_points=1)


def test_refit_after_add():
    t = TrendLine()
    t.add(0.0, 0.0)
    t.add(1.0, 1.0)
    assert t.slope == pytest.approx(1.0)
    t.add(2.0, 4.0)  # bends the fit upward
    assert t.slope == pytest.approx(2.0)


@given(
    slope=st.floats(-1e-3, 1e-3),
    intercept=st.floats(-1.0, 1.0),
    n=st.integers(3, 40),
)
def test_noiseless_line_property(slope, intercept, n):
    t = TrendLine()
    for i in range(n):
        x = i * 7.0
        t.add(x, intercept + slope * x)
    assert t.slope == pytest.approx(slope, abs=1e-9)


def test_same_timestamp_fits_flat_line_at_mean_offset():
    t = TrendLine()
    t.add(5.0, 0.1)
    t.add(5.0, 0.3)
    assert t.slope == 0.0
    assert t.predict(5.0) == pytest.approx(0.2)
    assert t.predict(100.0) == pytest.approx(0.2)
    mean, std = t.residual_stats()
    assert mean == pytest.approx(0.01)
    assert std == pytest.approx(0.0, abs=1e-15)


def test_same_timestamp_after_eviction_at_trace_epoch():
    t = TrendLine(max_points=3)
    t.add(TRACE_EPOCH, 0.0)
    for offset in (0.1, 0.2, 0.3, 0.4):
        t.add(TRACE_EPOCH + 0.1, offset)
    assert t.slope == 0.0
    assert t.predict(TRACE_EPOCH) == pytest.approx(0.3)


def test_long_slide_keeps_precision():
    """Compaction re-anchors the running sums on the window, so a window
    far from the first point fits as precisely as a fresh one."""
    rng = np.random.default_rng(3)
    line = TrendLine(max_points=8)
    for i in range(100_000):
        time = TRACE_EPOCH + 5.0 * i
        line.add(time, 5e-5 * i + float(rng.normal(0.0, 1e-4)))
    ref = PolyfitTrendLine(max_points=8)
    for time, offset in zip(*line.points()):
        ref.add(time, offset)
    end = line.points()[0][-1]
    assert line.slope == pytest.approx(ref.slope, rel=1e-9)
    assert line.predict(end) == pytest.approx(ref.predict(end), rel=1e-9)


def _close(actual: float, expected: float, floor: float) -> None:
    """Agreement to 1e-9 relative, or to ``floor`` for near-zero values."""
    assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=floor)


def _feed(line: TrendLine, ref: PolyfitTrendLine, samples) -> None:
    """Add ``samples`` to both fits, comparing them after every add.

    Evicted points leave rounding in the running sums, so the floor
    scales with the largest offset recorded since the last clear, not
    just with the points still in the window.
    """
    scale = 0.0
    for time, offset in samples:
        line.add(time, offset)
        ref.add(time, offset)
        scale = max(scale, abs(offset))
        assert line.points() == ref.points()
        if len(ref) < 2:
            assert line.slope is None and ref.slope is None
            continue
        times, _ = ref.points()
        span = times[-1] - times[0]
        floor = 1e-9 * scale
        _close(line.slope, ref.slope, floor / span)
        for at in (times[0], times[-1], times[-1] + span):
            _close(line.predict(at), ref.predict(at), floor)
        mean, std = line.residual_stats()
        ref_mean, ref_std = ref.residual_stats()
        _close(mean, ref_mean, floor * scale)
        _close(std, ref_std, floor * scale)


# Strictly increasing times (the filter never records two samples at one
# instant; that case has its own test above) and offsets with a drift.
_gaps = st.lists(st.floats(0.5, 120.0), min_size=0, max_size=100)
_noise = st.floats(-0.05, 0.05)


@st.composite
def _samples(draw, epoch: float) -> List[Tuple[float, float]]:
    gaps = draw(_gaps)
    drift = draw(st.floats(-1e-4, 1e-4))
    base = draw(st.floats(-1.0, 1.0))
    time = epoch + draw(st.floats(0.0, 3600.0))
    out = []
    for gap in gaps:
        time += gap
        out.append((time, base + drift * (time - epoch) + draw(_noise)))
    return out


@settings(max_examples=150, deadline=None)
@given(
    samples=st.one_of(_samples(0.0), _samples(TRACE_EPOCH)),
    # Small windows evict and compact; 40 and 4096 also grow the buffers.
    max_points=st.integers(2, 12) | st.sampled_from((40, 4096)),
)
def test_matches_polyfit_reference(samples, max_points):
    _feed(TrendLine(max_points), PolyfitTrendLine(max_points), samples)


@settings(max_examples=50, deadline=None)
@given(
    before=st.one_of(_samples(0.0), _samples(TRACE_EPOCH)),
    after=st.one_of(_samples(0.0), _samples(TRACE_EPOCH)),
    max_points=st.integers(2, 12),
)
def test_matches_polyfit_reference_across_clear(before, after, max_points):
    line, ref = TrendLine(max_points), PolyfitTrendLine(max_points)
    _feed(line, ref, before)
    line.clear()
    ref.clear()
    assert len(line) == 0 and line.slope is None
    _feed(line, ref, after)
