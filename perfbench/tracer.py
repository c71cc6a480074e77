"""Outside-in span tracer for the per-layer leg of the benchmark.

The tracer wraps entry points of each ``repro`` layer at run time (the
:data:`PROBES` table) and records one span per call: operation, parent
span, start and end in host nanoseconds.  Spans stay in memory; a
layer's self time is its spans' durations minus the durations of their
direct children.  Calls run on one thread and nest strictly, so the
children of a span never overlap and their summed durations are exactly
the part of the parent's interval they cover.

``EventQueue.push`` is wrapped so that every callback the simulator
dispatches opens a ``simcore.event`` span.  The kernel runs callbacks
with no span open, so each event is the root of its own tree, and the
root's self time is the dispatch plus callback code that no other probe
claims (experiment glue, process stepping).

:class:`Instrumentation` installs the probes and restores every patched
attribute to the original object on exit, so untraced runs execute the
unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: [op id, parent span index (-1 for a root), start ns, end ns].
Span = List[int]

Before = Callable[["SpanLog", tuple, dict], Tuple[tuple, dict]]
After = Callable[["SpanLog", tuple, Any], None]


class SpanLog:
    """Spans and tallies recorded while probes are installed.

    Attributes:
        ops: Operation names, indexed by op id.
        spans: Recorded spans in start order.
        stack: Indices of the spans open right now, innermost last.
        counts: Outcome tallies the probe hooks keep (timeouts, drops,
            accepted offers ...).
        peaks: Largest value seen per gauge (event-queue depth).
    """

    def __init__(self) -> None:
        self.ops: List[str] = []
        self._op_ids: Dict[str, int] = {}
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.peaks: Dict[str, int] = {}

    def op_id(self, name: str) -> int:
        """The id of operation ``name``, allocated on first use."""
        op = self._op_ids.get(name)
        if op is None:
            op = self._op_ids[name] = len(self.ops)
            self.ops.append(name)
        return op

    def clear(self) -> None:
        """Drop recorded spans and tallies; op ids stay allocated.

        Lists are emptied in place because installed wrappers hold
        references to them.
        """
        del self.spans[:]
        del self.stack[:]
        self.counts.clear()
        self.peaks.clear()


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


@dataclass
class OpTotals:
    """Aggregate of one operation's spans.

    Attributes:
        calls: Spans recorded (calls made while the same op was not
            already open).
        total_ns: Summed inclusive durations.
        self_ns: Summed self times.
    """

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def add(self, other: "OpTotals") -> None:
        """Accumulate ``other`` into this total."""
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns

    def mean_ns(self) -> float:
        """Mean inclusive duration per call (0 with no calls)."""
        return self.total_ns / self.calls if self.calls else 0.0


def op_totals(log: SpanLog) -> Dict[str, OpTotals]:
    """Per-operation call counts, inclusive and self time of ``log``."""
    totals = [OpTotals() for _ in log.ops]
    for (op, _, start, end), own in zip(log.spans, self_times(log.spans)):
        entry = totals[op]
        entry.calls += 1
        entry.total_ns += end - start
        entry.self_ns += own
    return {name: totals[op] for op, name in enumerate(log.ops)}


def _traced(fn: Callable, op: int, log: SpanLog,
            before: Optional[Before] = None,
            after: Optional[After] = None) -> Callable:
    """``fn`` wrapped to record an ``op`` span per call.

    A call made while a span of the same op is innermost (a public
    method calling another of the same op) joins that span instead of
    opening a nested one.
    """
    spans, stack, clock = log.spans, log.stack, time.perf_counter_ns

    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(log, args, kwargs)
        parent = stack[-1] if stack else -1
        if parent >= 0 and spans[parent][0] == op:
            result = fn(*args, **kwargs)
        else:
            span = [op, parent, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        if after is not None:
            after(log, args, result)
        return result

    return traced


# -- probe hooks -------------------------------------------------------------


def _root_event(log: SpanLog, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    """EventQueue.push(self, time, callback, label): trace the callback."""
    event_op = log.op_id("simcore.event")
    if len(args) > 2:
        args = args[:2] + (_traced(args[2], event_op, log),) + args[3:]
    else:
        kwargs["callback"] = _traced(kwargs["callback"], event_op, log)
    return args, kwargs


def _queue_depth(log: SpanLog, args: tuple, result: Any) -> None:
    depth = len(args[0]._heap)  # heap entries, lazily-cancelled included
    if depth > log.peaks.get("simcore.queue_depth", 0):
        log.peaks["simcore.queue_depth"] = depth


def _link_outcome(log: SpanLog, args: tuple, result: Any) -> None:
    """Link.send(self, datagram): a drop is decided inside send."""
    log.counts["net.sent"] += 1
    if args[1].dropped:
        log.counts["net.dropped"] += 1


def _offer_outcome(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["core.offers"] += 1
    if result.decision.accepted:
        log.counts["core.accepted"] += 1


def _gate_outcome(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["core.gate_checks"] += 1
    if not result:
        log.counts["core.deferred"] += 1


def _watch_timeouts(log: SpanLog, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    """SntpClient.query(self, server, callback, ...): tally timed-out results."""
    counts = log.counts
    counts["ntp.queries"] += 1
    positional = len(args) > 2
    callback = args[2] if positional else kwargs["callback"]

    def observed(result):
        if result.timed_out:
            counts["ntp.timeouts"] += 1
        return callback(result)

    if positional:
        args = args[:2] + (observed,) + args[3:]
    else:
        kwargs["callback"] = observed
    return args, kwargs


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    Attributes:
        owner: ``"module"`` or ``"module:Class"`` holding the attribute.
        attr: Attribute name; a module function is also replaced in
            every ``repro`` module that imported it by name.
        op: Span operation; the part before the first dot is the layer.
        before: Optional hook that may replace the call's arguments.
        after: Optional hook that sees the arguments and the result.
    """

    owner: str
    attr: str
    op: str
    before: Optional[Before] = None
    after: Optional[After] = None


def _probes(owner: str, attrs: Sequence[str], op: str) -> List[Probe]:
    return [Probe(owner, attr, op) for attr in attrs]


#: Layer entry points.  Private methods appear where a layer's per-event
#: work enters through one (the ping probe, the monitor control step,
#: the MNTP rounds and the ntpd poll round).
PROBES: Tuple[Probe, ...] = (
    Probe("repro.simcore.events:EventQueue", "push", "simcore.push",
          before=_root_event, after=_queue_depth),
    Probe("repro.simcore.events:EventQueue", "pop", "simcore.pop"),
    Probe("repro.simcore.events:EventQueue", "peek_time", "simcore.peek"),
    Probe("repro.wireless.effects:ChannelEffects", "sample", "wireless.sample"),
    *_probes("repro.wireless.channel:WirelessChannel",
             ("read_hints", "interference_active"), "wireless.hints"),
    Probe("repro.testbed.pingtool:PingTool", "_probe", "testbed.ping"),
    Probe("repro.testbed.monitor:MonitorNode", "_control", "testbed.monitor"),
    Probe("repro.net.link:Link", "send", "net.send", after=_link_outcome),
    Probe("repro.ntp.packet:NtpPacket", "encode", "codec.encode"),
    Probe("repro.ntp.packet:NtpPacket", "decode", "codec.decode"),
    Probe("repro.clock.simclock:SimClock", "read", "clock.read"),
    *_probes("repro.clock.simclock:SimClock",
             ("true_offset", "step", "slew", "adjust_frequency", "nudge_frequency"),
             "clock.other"),
    Probe("repro.core.filter:OffsetFilter", "offer", "core.offer",
          after=_offer_outcome),
    *_probes("repro.core.trend:TrendLine",
             ("add", "clear", "predict", "squared_errors", "residual_stats", "points"),
             "core.trend"),
    Probe("repro.core.thresholds", "favorable_snr_condition", "core.gate",
          after=_gate_outcome),
    Probe("repro.core.falsetickers", "reject_false_tickers", "core.falsetickers"),
    *_probes("repro.core.protocol:Mntp",
             ("_warmup_round", "_regular_round", "_warmup_collect", "_handle_offset"),
             "core.protocol"),
    Probe("repro.ntp.sntp_client:SntpClient", "query", "ntp.query",
          before=_watch_timeouts),
    Probe("repro.ntp.sntp_client:SntpClient", "on_datagram", "ntp.client_rx"),
    Probe("repro.ntp.server:NtpServer", "on_datagram", "ntp.server_rx"),
    *_probes("repro.ntp.discipline:ClockDiscipline",
             ("_poll_round", "_absorb", "_update_clock"), "ntp.discipline"),
    Probe("repro.obs.telemetry:Telemetry", "emit", "obs.emit"),
    Probe("repro.obs.telemetry:Telemetry", "count", "obs.count"),
    Probe("repro.obs.telemetry:Telemetry", "flush", "obs.flush"),
    Probe("repro.obs.telemetry:Telemetry", "snapshot", "obs.snapshot"),
    Probe("repro.obs.spans:SpanTracer", "begin", "obs.span"),
    Probe("repro.obs.spans:Span", "end", "obs.span"),
    *_probes("repro.obs.health:HealthMonitor",
             ("observe_exchange", "evaluate"), "obs.health"),
    Probe("repro.tuner.searcher:ParameterSearcher", "evaluate", "tuner.evaluate"),
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap_raw(raw: Any, op: int, log: SpanLog, probe: Probe) -> Any:
    """The traced replacement for a raw class/module attribute value."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap_raw(raw.__func__, op, log, probe))
    if not callable(raw):
        raise TypeError(f"{probe.owner}.{probe.attr} is not callable")
    return functools.update_wrapper(
        _traced(raw, op, log, probe.before, probe.after), raw
    )


class Instrumentation:
    """Context manager that installs :data:`PROBES` recording into ``log``.

    On exit every patched attribute is set back to the object it held
    before, including on the error path of a partial install.

    Attributes:
        patched: ``(target, name, original)`` for each attribute
            replaced while installed; empty outside the context.
    """

    def __init__(self, log: SpanLog, probes: Sequence[Probe] = PROBES) -> None:
        self.log = log
        self.probes = probes
        self.patched: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanLog:
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self._restore()
            raise
        return self.log

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _install(self, probe: Probe) -> None:
        target = _resolve(probe.owner)
        try:
            raw = vars(target)[probe.attr]
        except KeyError:
            raise LookupError(
                f"probe target {probe.owner}.{probe.attr} no longer exists"
            ) from None
        wrapped = _wrap_raw(raw, self.log.op_id(probe.op), self.log, probe)
        targets = [target]
        if isinstance(target, type(sys)):
            targets += [
                module for name, module in sorted(sys.modules.items())
                if name.startswith("repro.") and module is not target
                and vars(module).get(probe.attr) is raw
            ]
        for holder in targets:
            self.patched.append((holder, probe.attr, raw))
            setattr(holder, probe.attr, wrapped)

    def _restore(self) -> None:
        while self.patched:
            holder, name, original = self.patched.pop()
            setattr(holder, name, original)


# -- per-layer metrics ---------------------------------------------------------

#: Per-layer metric name -> (unit, better).  Counts are per traced
#: iteration; ``_ns``/``_ms`` are mean inclusive time per call; a
#: ``self_share`` is the layer's summed self time over traced wall time.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "simcore.events": ("count", "lower"),
    "simcore.push_ns": ("ns", "lower"),
    "simcore.pop_ns": ("ns", "lower"),
    "simcore.queue_depth_max": ("count", "lower"),
    "simcore.self_share": ("ratio", "lower"),
    "wireless.sample.calls": ("count", "lower"),
    "wireless.sample_ns": ("ns", "lower"),
    "wireless.hints_ns": ("ns", "lower"),
    "wireless.self_share": ("ratio", "lower"),
    "testbed.ping.calls": ("count", "lower"),
    "testbed.ping_ns": ("ns", "lower"),
    "testbed.self_share": ("ratio", "lower"),
    "net.send.calls": ("count", "lower"),
    "net.send_ns": ("ns", "lower"),
    "net.delivered_ratio": ("ratio", "higher"),
    "net.self_share": ("ratio", "lower"),
    "codec.encode_ns": ("ns", "lower"),
    "codec.decode_ns": ("ns", "lower"),
    "codec.self_share": ("ratio", "lower"),
    "clock.read.calls": ("count", "lower"),
    "clock.read_ns": ("ns", "lower"),
    "clock.self_share": ("ratio", "lower"),
    "core.offer.calls": ("count", "lower"),
    "core.offer_ns": ("ns", "lower"),
    "core.trend_ns": ("ns", "lower"),
    "core.accept_ratio": ("ratio", "higher"),
    "core.defer_ratio": ("ratio", "lower"),
    "core.self_share": ("ratio", "lower"),
    "ntp.query_ns": ("ns", "lower"),
    "ntp.client_rx_ns": ("ns", "lower"),
    "ntp.server_rx_ns": ("ns", "lower"),
    "ntp.timeout_ratio": ("ratio", "lower"),
    "ntp.self_share": ("ratio", "lower"),
    "obs.emit.calls": ("count", "lower"),
    "obs.emit_ns": ("ns", "lower"),
    "obs.snapshot_ms": ("ms", "lower"),
    "obs.self_share": ("ratio", "lower"),
    "tuner.evaluate_ms": ("ms", "lower"),
}


def layer_metrics(totals: Dict[str, OpTotals], counts: Counter,
                  peaks: Dict[str, int], iterations: int,
                  wall_ns: int) -> Dict[str, float]:
    """The :data:`LAYER_METRICS` values of ``iterations`` traced iterations.

    Args:
        totals: Per-op totals summed over the traced iterations.
        counts: Probe-hook tallies summed over them.
        peaks: Largest gauge values over them.
        iterations: Number of traced iterations (> 0).
        wall_ns: Their summed host wall time (> 0).
    """
    def op(name: str) -> OpTotals:
        return totals.get(name, OpTotals())

    def calls(name: str) -> float:
        return op(name).calls / iterations

    def share(layer: str) -> float:
        prefix = layer + "."
        return sum(t.self_ns for n, t in totals.items() if n.startswith(prefix)) / wall_ns

    def ratio(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    values = {
        "simcore.events": calls("simcore.event"),
        "simcore.push_ns": op("simcore.push").mean_ns(),
        "simcore.pop_ns": op("simcore.pop").mean_ns(),
        "simcore.queue_depth_max": float(peaks.get("simcore.queue_depth", 0)),
        "wireless.sample.calls": calls("wireless.sample"),
        "wireless.sample_ns": op("wireless.sample").mean_ns(),
        "wireless.hints_ns": op("wireless.hints").mean_ns(),
        "testbed.ping.calls": calls("testbed.ping"),
        "testbed.ping_ns": op("testbed.ping").mean_ns(),
        "net.send.calls": calls("net.send"),
        "net.send_ns": op("net.send").mean_ns(),
        "net.delivered_ratio": (
            1.0 - ratio("net.dropped", "net.sent") if counts["net.sent"] else 0.0
        ),
        "codec.encode_ns": op("codec.encode").mean_ns(),
        "codec.decode_ns": op("codec.decode").mean_ns(),
        "clock.read.calls": calls("clock.read"),
        "clock.read_ns": op("clock.read").mean_ns(),
        "core.offer.calls": calls("core.offer"),
        "core.offer_ns": op("core.offer").mean_ns(),
        "core.trend_ns": op("core.trend").mean_ns(),
        "core.accept_ratio": ratio("core.accepted", "core.offers"),
        "core.defer_ratio": ratio("core.deferred", "core.gate_checks"),
        "ntp.query_ns": op("ntp.query").mean_ns(),
        "ntp.client_rx_ns": op("ntp.client_rx").mean_ns(),
        "ntp.server_rx_ns": op("ntp.server_rx").mean_ns(),
        "ntp.timeout_ratio": ratio("ntp.timeouts", "ntp.queries"),
        "obs.emit.calls": calls("obs.emit"),
        "obs.emit_ns": op("obs.emit").mean_ns(),
        "obs.snapshot_ms": op("obs.snapshot").mean_ns() / 1e6,
        "tuner.evaluate_ms": op("tuner.evaluate").mean_ns() / 1e6,
    }
    for layer in ("simcore", "wireless", "testbed", "net", "codec", "clock",
                  "core", "ntp", "obs"):
        values[f"{layer}.self_share"] = share(layer)
    return {name: values[name] for name in LAYER_METRICS}
