"""Tests of the benchmark itself: tracer arithmetic, wrapper removal,
non-perturbation and the bypass predictions.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import tracer, workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0, 100] > a [10, 40] > leaf [15, 25]; root > b [50, 90]
    spans = [[0, -1, 0, 100], [1, 0, 10, 40], [2, 1, 15, 25], [1, 0, 50, 90]]
    assert tracer.self_times(spans) == [30, 20, 10, 40]

    log = tracer.SpanLog()
    for name in ("root", "mid", "leaf"):
        log.op_id(name)
    log.spans.extend(spans)
    totals = tracer.op_totals(log)
    assert (totals["root"].calls, totals["root"].total_ns, totals["root"].self_ns) == (1, 100, 30)
    assert (totals["mid"].calls, totals["mid"].total_ns, totals["mid"].self_ns) == (2, 70, 60)
    assert totals["mid"].mean_ns() == 35
    assert sum(t.self_ns for t in totals.values()) == 100


@pytest.fixture
def fake_layer(monkeypatch):
    """A throwaway ``repro`` module with a class and a module function."""
    module = types.ModuleType("repro._perfbench_fake")

    class Worker:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return module.helper(n)

    def helper(n):
        return n + 1

    module.Worker = Worker
    module.helper = helper
    importer = types.ModuleType("repro._perfbench_importer")
    importer.helper = helper  # a ``from ... import helper`` binding
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)
    return module, importer


def test_spans_nest_and_same_op_calls_join(fake_layer):
    module, importer = fake_layer
    probes = (
        tracer.Probe(f"{module.__name__}:Worker", "outer", "fake.work"),
        tracer.Probe(f"{module.__name__}:Worker", "inner", "fake.work"),
        tracer.Probe(module.__name__, "helper", "other.helper"),
    )
    raw = module.helper
    log = tracer.SpanLog()
    with tracer.Instrumentation(log, probes):
        assert importer.helper is module.helper is not raw
        assert module.Worker().outer(1) == 4
        assert importer.helper(1) == 2
    assert importer.helper is module.helper is raw
    ops = [log.ops[span[0]] for span in log.spans]
    # inner() runs inside outer()'s span of the same op: no nested span.
    assert ops == ["fake.work", "other.helper", "other.helper", "other.helper"]
    parents = [span[1] for span in log.spans]
    assert parents == [-1, 0, 0, -1]
    assert all(start <= end for _, _, start, end in log.spans)
    totals = tracer.op_totals(log)
    work = totals["fake.work"]
    helper_ns = sum(end - start for op, parent, start, end in log.spans if parent == 0)
    assert work.self_ns == work.total_ns - helper_ns


def _bindings():
    """Every object a probe can replace, keyed by where it is bound."""
    found = {}
    for probe in tracer.PROBES:
        owner = tracer._resolve(probe.owner)
        found[(probe.owner, probe.attr)] = vars(owner)[probe.attr]
        if isinstance(owner, types.ModuleType):
            for name, module in list(sys.modules.items()):
                if name.startswith("repro.") and probe.attr in vars(module):
                    found[(name, probe.attr)] = vars(module)[probe.attr]
    return found


class _Boom(Exception):
    pass


def test_wrappers_are_removed_after_traced_runs():
    workload = workloads.make_workload("wired_sntp", ROOT, 0)
    workload.prepare()
    before = _bindings()
    instrumentation = tracer.Instrumentation(tracer.SpanLog())
    with instrumentation:
        assert instrumentation.patched
        assert any(_bindings()[key] is not raw for key, raw in before.items())
        workload.run_once()
    assert not instrumentation.patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is raw for key, raw in before.items())

    with pytest.raises(_Boom):
        with tracer.Instrumentation(tracer.SpanLog()):
            raise _Boom()
    after = _bindings()
    assert all(after[key] is raw for key, raw in before.items())


@pytest.fixture(scope="module")
def traced_pairs():
    """Per workload: untraced outcome, traced outcome, per-op totals."""
    pairs = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, ROOT, 0)
        workload.prepare()
        plain = workload.outcome(workload.run_once())
        log = tracer.SpanLog()
        with tracer.Instrumentation(log):
            result = workload.run_once()
        pairs[name] = (plain, workload.outcome(result), tracer.op_totals(log))
    return pairs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_perturb_the_result(traced_pairs, name):
    plain, traced, totals = traced_pairs[name]
    assert plain.problems == [] and traced.problems == []
    assert traced.digest == plain.digest
    assert traced.fidelity == plain.fidelity
    assert sum(t.calls for t in totals.values()) > 0


def _calls(totals, layer):
    return sum(t.calls for op, t in totals.items() if op.startswith(layer + "."))


def test_wired_sntp_bypasses_wireless_testbed_and_core(traced_pairs):
    totals = traced_pairs["wired_sntp"][2]
    for layer in ("wireless", "testbed", "core"):
        assert _calls(totals, layer) == 0, layer
    for layer in ("simcore", "net", "codec", "clock", "ntp"):
        assert _calls(totals, layer) > 0, layer


def test_tuner_search_has_no_event_kernel_or_network(traced_pairs):
    totals = traced_pairs["tuner_search"][2]
    for layer in ("simcore", "wireless", "net"):
        assert _calls(totals, layer) == 0, layer
    assert totals["core.offer"].calls > 0
    assert totals["tuner.evaluate"].calls > 0


def test_wireless_mntp_crosses_every_simulation_layer(traced_pairs):
    totals = traced_pairs["wireless_mntp"][2]
    for layer in ("simcore", "wireless", "testbed", "net", "codec", "clock",
                  "core", "ntp", "obs"):
        assert _calls(totals, layer) > 0, layer


def test_run_fails_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("__init__.py", "run.py", "tracer.py", "workloads.py"):
        shutil.copy(os.path.join(ROOT, "perfbench", name), bench / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wired_sntp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
