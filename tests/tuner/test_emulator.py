"""Trace-driven MNTP emulation."""

import numpy as np
import pytest

from repro.core import filter as filter_module
from repro.core.config import MntpConfig
from repro.tuner import LoggerOptions, TraceLogger
from repro.tuner.emulator import MntpEmulator
from repro.tuner.searcher import SearchSpace
from repro.tuner.traces import OffsetTrace, TraceEntry
from tests.core.test_trend import PolyfitTrendLine

GOOD = dict(rssi_dbm=-45.0, noise_dbm=-92.0)
BAD = dict(rssi_dbm=-85.0, noise_dbm=-60.0)
SOURCES = ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")


def _trace(duration=3600.0, cadence=5.0, drift=2e-6, noise=0.002,
           spike_every=None, bad_hints_window=None, seed=0):
    """Synthetic trace: linear drift + noise, optional spikes/bad hints."""
    rng = np.random.default_rng(seed)
    trace = OffsetTrace(cadence=cadence)
    t = 0.0
    i = 0
    while t < duration:
        hints = dict(GOOD)
        if bad_hints_window and bad_hints_window[0] <= t < bad_hints_window[1]:
            hints = dict(BAD)
        offsets = {}
        for s in SOURCES:
            value = drift * t + float(rng.normal(0, noise))
            if spike_every and i % spike_every == spike_every - 1:
                value += 0.5
            offsets[s] = value
        trace.append(TraceEntry(time=t, offsets=offsets, **hints))
        t += cadence
        i += 1
    return trace


def _config(**overrides):
    base = dict(
        warmup_period=300.0,
        warmup_wait_time=5.0,
        regular_wait_time=30.0,
        reset_period=7200.0,
        min_warmup_samples=10,
    )
    base.update(overrides)
    return MntpConfig(**base)


def test_empty_trace():
    result = MntpEmulator(OffsetTrace(), _config()).run()
    assert result.reported == []
    assert result.rmse() == 0.0


def test_clean_trace_low_rmse():
    result = MntpEmulator(_trace(), _config()).run()
    assert result.reported
    assert result.rmse_ms() < 10.0


def test_spikes_rejected():
    result = MntpEmulator(_trace(spike_every=20), _config()).run()
    assert result.rejected
    # Spikes are 500 ms; reported (corrected) offsets stay small.
    assert result.rmse_ms() < 20.0


def test_bad_hints_defer():
    trace = _trace(bad_hints_window=(600.0, 1200.0))
    result = MntpEmulator(trace, _config()).run()
    assert result.deferred > 0


def test_hint_gate_disabled():
    trace = _trace(bad_hints_window=(600.0, 1200.0))
    config = _config(enable_hint_gate=False)
    result = MntpEmulator(trace, config).run()
    assert result.deferred == 0


def test_warmup_completion_and_reset():
    config = _config(warmup_period=300.0, reset_period=1800.0)
    result = MntpEmulator(_trace(duration=3700.0), config).run()
    assert result.warmup_completions >= 2
    assert result.resets >= 1


def test_more_frequent_sampling_more_requests():
    sparse = MntpEmulator(_trace(), _config(warmup_wait_time=60.0)).run()
    dense = MntpEmulator(_trace(), _config(warmup_wait_time=5.0)).run()
    assert dense.requests > sparse.requests


def test_longer_warmup_lower_rmse_shape():
    """Table 2's headline shape: more warm-up sampling, lower RMSE."""
    trace = _trace(duration=4 * 3600.0, noise=0.004, seed=3)
    short = MntpEmulator(
        trace, _config(warmup_period=600.0, warmup_wait_time=30.0,
                       regular_wait_time=900.0, reset_period=4 * 3600.0)
    ).run()
    long = MntpEmulator(
        trace, _config(warmup_period=2 * 3600.0, warmup_wait_time=5.0,
                       regular_wait_time=900.0, reset_period=4 * 3600.0)
    ).run()
    assert long.requests > short.requests
    assert long.rmse_ms() <= short.rmse_ms() * 1.5


def test_filter_disabled_reports_everything():
    result = MntpEmulator(
        _trace(spike_every=20), _config(enable_filter=False)
    ).run()
    assert result.rejected == []
    # Spikes leak through: RMSE inflated.
    assert result.rmse_ms() > 20.0


def test_regular_phase_falls_back_to_any_source():
    trace = OffsetTrace()
    t = 0.0
    while t < 900.0:
        # Regular source missing; another answers.
        trace.append(TraceEntry(
            time=t, offsets={"1.pool.ntp.org": 1e-6 * t}, **GOOD,
        ))
        t += 5.0
    config = _config(warmup_period=100.0, regular_wait_time=30.0)
    result = MntpEmulator(trace, config).run()
    assert result.raw_accepted


def test_decisions_match_polyfit_reference(monkeypatch):
    """The running-sums trend fit makes the same filter decisions as a
    refit with ``np.polyfit``, on every Table 2 grid configuration."""
    trace = TraceLogger(seed=3, options=LoggerOptions(duration=3600.0)).run()
    configs = [
        MntpConfig().with_overrides(
            warmup_period=wp, warmup_wait_time=ww,
            regular_wait_time=rw, reset_period=rp,
        )
        for wp, ww, rw, rp in SearchSpace().combinations()
    ]
    fast = [MntpEmulator(trace, config).run() for config in configs]
    monkeypatch.setattr(filter_module, "TrendLine", PolyfitTrendLine)
    reference = [MntpEmulator(trace, config).run() for config in configs]
    for got, want in zip(fast, reference):
        assert got.requests == want.requests
        assert len(got.reported) == len(want.reported)
        assert got.raw_accepted == want.raw_accepted
        assert got.rejected == want.rejected
        assert got.deferred == want.deferred
        assert got.resets == want.resets
        assert got.rmse_ms() == pytest.approx(want.rmse_ms(), rel=1e-12)
    # The short trace still reaches the gated regular phase and rejects.
    assert any(r.warmup_completions for r in fast)
    assert any(r.rejected for r in fast)
