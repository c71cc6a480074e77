"""EventQueue ordering, cancellation, and edge cases."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simcore.events import EventQueue
from repro.simcore.simulator import Simulator


def test_empty_queue_pops_none():
    q = EventQueue()
    assert q.pop() is None
    assert q.peek_time() is None
    assert len(q) == 0
    assert not q


def test_fifo_within_same_time():
    q = EventQueue()
    order = []
    q.push(1.0, lambda: order.append("a"))
    q.push(1.0, lambda: order.append("b"))
    q.push(1.0, lambda: order.append("c"))
    while (ev := q.pop()) is not None:
        ev.callback()
    assert order == ["a", "b", "c"]


def test_time_ordering():
    q = EventQueue()
    q.push(3.0, lambda: None, label="late")
    q.push(1.0, lambda: None, label="early")
    q.push(2.0, lambda: None, label="mid")
    labels = []
    while (ev := q.pop()) is not None:
        labels.append(ev.label)
    assert labels == ["early", "mid", "late"]


def test_cancelled_event_skipped():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None, label="first")
    q.push(2.0, lambda: None, label="second")
    ev1.cancel()
    popped = q.pop()
    assert popped is not None and popped.label == "second"
    assert q.pop() is None


def test_len_excludes_cancelled():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    ev.cancel()
    assert len(q) == 1


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    ev.cancel()
    assert q.peek_time() == 5.0


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("nan"), lambda: None)


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert q.pop() is None


def test_bool_reflects_live_events():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    assert q
    ev.cancel()
    assert not q


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_pop_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (ev := q.pop()) is not None:
        popped.append(ev.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
    st.data(),
)
def test_cancellation_never_loses_other_events(times, data):
    q = EventQueue()
    events = [q.push(t, lambda: None) for t in times]
    cancel_idx = data.draw(
        st.sets(st.integers(0, len(events) - 1), max_size=len(events))
    )
    for i in cancel_idx:
        events[i].cancel()
    survivors = 0
    while q.pop() is not None:
        survivors += 1
    assert survivors == len(times) - len(cancel_idx)


def test_pop_leaves_event_beyond_horizon_queued():
    q = EventQueue()
    q.push(2.0, lambda: None, label="later")
    assert q.pop(1.5) is None
    assert len(q) == 1
    assert q.pop(2.0).label == "later"


def test_pop_horizon_skips_cancelled_head():
    q = EventQueue()
    head = q.push(1.0, lambda: None)
    q.push(3.0, lambda: None)
    head.cancel()
    assert q.pop(2.0) is None
    assert q.peek_time() == 3.0


def test_heap_entries_never_compare_events():
    q = EventQueue()
    for _ in range(50):
        q.push(1.0, lambda: None)  # all tied: seq alone must order them
    assert all(type(entry) is tuple for entry in q._heap)
    seqs = [q.pop().seq for _ in range(50)]
    assert seqs == sorted(seqs)


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _model_check(seed, ops=400):
    """Random push/cancel/pop against a sorted (time, seq) reference."""
    rng = np.random.default_rng(seed)
    q = EventQueue()
    live = {}  # seq -> time, for queued events not cancelled
    events = []
    for _ in range(ops):
        op = float(rng.random())
        if op < 0.5:
            # Few distinct times, so ties are common.
            t = _pick(rng, [0.0, 0.5, 1.0, 1.0, 2.0, float(rng.uniform(0.0, 3.0))])
            ev = q.push(t, lambda: None)
            assert ev.seq not in live
            live[ev.seq] = t
            events.append(ev)
        elif op < 0.7 and events:
            ev = _pick(rng, events)  # may be popped or cancelled already
            ev.cancel()
            live.pop(ev.seq, None)
        else:
            horizon = _pick(rng, [float("inf"), float(rng.uniform(0.0, 3.0))])
            want = min(((t, s) for s, t in live.items()), default=None)
            if want is not None and want[0] > horizon:
                want = None
            got = q.pop(horizon)
            if want is None:
                assert got is None
            else:
                assert (got.time, got.seq) == want
                del live[got.seq]
        assert len(q) == len(live)
        assert bool(q) == bool(live)
    order = []
    while (ev := q.pop()) is not None:
        order.append((ev.time, ev.seq))
    assert order == sorted((t, s) for s, t in live.items())


@pytest.mark.parametrize("seed", range(25))
def test_random_push_cancel_pop_matches_sorted_reference(seed):
    _model_check(seed)


@pytest.mark.parametrize("seed", range(10))
def test_simulator_fires_in_reference_order(seed):
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    fired = []
    scheduled = {}  # label -> (time, schedule index) of live events
    handles = {}
    for i in range(200):
        t = _pick(rng, [1.0, 2.0, 2.0, float(rng.uniform(0.0, 10.0))])
        label = f"e{i}"
        handles[label] = sim.call_at(t, lambda label=label: fired.append(label), label=label)
        scheduled[label] = (t, i)
    for label in rng.choice(sorted(handles), size=40, replace=False).tolist():
        handles[label].cancel()
        del scheduled[label]
    horizon = 5.0
    sim.run_until(horizon)
    due = sorted((order, label) for label, order in scheduled.items() if order[0] <= horizon)
    assert fired == [label for _, label in due]
    assert sim.pending_events == len(scheduled) - len(due)
    assert sim.now == horizon
