"""Telemetry bundle: clocks, snapshots, simulator integration."""

import pytest

from repro.obs import (
    TELEMETRY_FORMAT,
    ManualClock,
    Telemetry,
    record_from_dict,
    record_to_dict,
    snapshot_metric_names,
    snapshot_span_kinds,
)
from repro.simcore.simulator import Simulator
from repro.simcore.trace import TraceRecord


def test_manual_clock_ticks():
    clock = ManualClock(start=2.0, step=0.5)
    assert clock.now() == 2.0
    assert clock.tick() == 2.5
    assert clock.now() == 2.5
    with pytest.raises(ValueError):
        ManualClock(step=0.0)


def test_standalone_bundle_is_manual():
    telemetry = Telemetry.standalone()
    assert telemetry.manual
    assert telemetry.now == 0.0
    assert telemetry.advance(3) == 3.0
    with pytest.raises(ValueError):
        telemetry.advance(0)


def test_simulator_bundle_is_not_manual():
    sim = Simulator(seed=0)
    assert not sim.telemetry.manual
    with pytest.raises(RuntimeError):
        sim.telemetry.advance()


def test_simulator_bundle_shares_trace_and_clock():
    sim = Simulator(seed=0)
    assert sim.telemetry.trace is sim.trace
    sim.call_after(5.0, lambda: None)
    sim.run_until(10.0)
    assert sim.telemetry.now == 10.0
    # The event loop recorded its span and its counter.
    assert sim.telemetry.metrics.value("sim_events_total") == 1.0
    assert len(sim.trace.select(kind="sim.run")) == 1


def test_record_dict_roundtrip():
    record = TraceRecord(time=1.5, component="mntp", kind="x", data={"a": 1})
    again = record_from_dict(record_to_dict(record))
    assert again == record


def test_snapshot_shape_and_helpers():
    telemetry = Telemetry.standalone()
    telemetry.metrics.counter("a_total").inc()
    telemetry.metrics.gauge("b_gauge").set(2)
    with telemetry.spans.span("phase.one"):
        telemetry.advance()
    snap = telemetry.snapshot()
    assert snap["format"] == TELEMETRY_FORMAT
    assert snapshot_metric_names(snap) == ["a_total", "b_gauge"]
    assert snapshot_span_kinds(snap) == ["phase.one"]
    assert len(snap["records"]) == 1


def test_every_emission_lands_at_once_in_call_order():
    sim = Simulator(seed=0)
    telemetry = sim.telemetry
    sim.trace.emit(0.0, "net", "direct", i=0)
    telemetry.emit(1.0, "mntp", "bundled", i=1)
    span = telemetry.spans.begin("mntp.warmup", t=1.5)
    sim.trace.emit(2.0, "net", "direct", i=2)
    span.end(t=3.0)
    telemetry.emit(3.5, "mntp", "bundled", i=3)
    telemetry.count("x_total")
    # Read before anything could flush: the increment is already there.
    assert telemetry.metrics.value("x_total") == 1.0
    assert [(r.time, r.component, r.kind) for r in sim.trace] == [
        (0.0, "net", "direct"),
        (1.0, "mntp", "bundled"),
        (2.0, "net", "direct"),
        (1.5, "span", "mntp.warmup"),
        (3.5, "mntp", "bundled"),
    ]
    assert sim.trace.select(kind="mntp.warmup")[0].data == {
        "t0": 1.5, "t1": 3.0, "dur": 1.5,
    }


def test_uninstrumented_bundle_discards_emissions():
    sim = Simulator(seed=0, instrument=False)
    telemetry = sim.telemetry
    telemetry.emit(1.0, "mntp", "bundled")
    telemetry.count("x_total")
    telemetry.spans.begin("mntp.warmup").end()
    sim.trace.emit(2.0, "net", "direct")
    assert len(telemetry.metrics) == 0
    assert [r.kind for r in sim.trace] == ["direct"]
