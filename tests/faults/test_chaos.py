"""Chaos specs: fault coverage, survival, determinism, fault visibility.

The chaos matrices are the ``chaos_smoke`` and ``chaos_full`` scenario
specs; these tests run the smoke one and judge hardened MNTP's recovery
after every fault episode.
"""

import io

import pytest

from repro.faults.schedule import FaultEpisode, FaultKind, FaultSchedule
from repro.testbed.persistence import save_result
from repro.testbed.scenarios import load_scenario, run_scenario

#: Settling time after an episode before its judged window opens
#: (covers one step-recovery detection latency).
GRACE_S = 60.0
#: Recovery bar on MNTP's |measurement error| inside a judged window.
THRESHOLD_S = 0.025


def post_windows(schedule, duration, grace):
    """Each episode with its judged post-episode window.

    The window runs from ``end + grace`` to the start of the next
    later-starting episode (or the run horizon).
    """
    ordered = sorted(schedule, key=lambda e: (e.start, e.end, e.kind.value))
    out = []
    for episode in ordered:
        nxt = min(
            (e.start for e in ordered if e.start > episode.end),
            default=duration,
        )
        out.append((episode, (episode.end + grace, min(nxt, duration))))
    return out


def archive(result):
    """The byte form of a run (what ``run --save`` writes)."""
    buf = io.StringIO()
    save_result(result, buf)
    return buf.getvalue()


@pytest.fixture(scope="module")
def smoke_run():
    return run_scenario("chaos_smoke", seed=0)


def test_default_matrix_covers_every_kind():
    kinds = {e.kind for e in load_scenario("chaos_full").faults}
    assert kinds == set(FaultKind)
    smoke_kinds = {e.kind for e in load_scenario("chaos_smoke").faults}
    assert smoke_kinds < kinds


def test_post_windows_end_at_next_episode_or_horizon():
    schedule = FaultSchedule(episodes=[
        FaultEpisode(FaultKind.BLACKOUT, start=100.0, duration=50.0),
        FaultEpisode(FaultKind.SERVER_STEP, start=300.0, duration=50.0),
    ])
    windows = dict(
        (ep.kind, win)
        for ep, win in post_windows(schedule, duration=1000.0, grace=20.0)
    )
    assert windows[FaultKind.BLACKOUT] == (170.0, 300.0)
    assert windows[FaultKind.SERVER_STEP] == (370.0, 1000.0)


def assert_mntp_survives(name, result):
    """Hardened MNTP recovers after every fault episode of spec ``name``."""
    spec = load_scenario(name)
    errors = [
        (p.time, abs(p.error))
        for p in result.mntp_accepted()
        if p.truth == p.truth  # not NaN
    ]
    windows = post_windows(spec.faults, spec.duration_s, GRACE_S)
    assert len(windows) == len(spec.faults.episodes)
    for episode, (w0, w1) in windows:
        in_window = [e for t, e in errors if w0 <= t < w1]
        # Sampling again after the episode ...
        assert in_window, f"no MNTP sample after {episode.kind.value}"
        # ... and back under the 25 ms bar.
        assert max(in_window) < THRESHOLD_S, episode.kind.value


def test_smoke_run_is_byte_deterministic_and_survives(smoke_run):
    assert archive(run_scenario("chaos_smoke", seed=0)) == archive(smoke_run)
    assert_mntp_survives("chaos_smoke", smoke_run)


def test_full_matrix_survives():
    assert_mntp_survives("chaos_full", run_scenario("chaos_full", seed=0))


def test_seed_changes_the_report(smoke_run):
    assert archive(run_scenario("chaos_smoke", seed=11)) != archive(smoke_run)


def test_fault_episodes_visible_in_causal_exchanges():
    from repro.obs.causal import assemble_exchanges
    from repro.ntp.sntp_client import HardeningPolicy
    from repro.testbed.experiment import ExperimentRunner
    from repro.testbed.nodes import TestbedOptions

    schedule = FaultSchedule(episodes=[
        FaultEpisode(FaultKind.SERVER_STEP, start=100.0, duration=50.0,
                     target="0.pool.ntp.org", params={"step_s": 0.5}),
    ])
    result = ExperimentRunner(
        seed=0,
        options=TestbedOptions(
            wireless=False, ntp_correction=False, monitor_active=False,
            fault_schedule=schedule, mntp_hardening=HardeningPolicy(),
        ),
        duration=200.0,
    ).run()
    exchanges = assemble_exchanges(result.telemetry)
    overlapping = [e for e in exchanges if 100.0 <= e.t0 < 150.0]
    assert overlapping
    for exchange in overlapping:
        assert any(f.fault == "server_step" for f in exchange.faults)
    outside = [e for e in exchanges if e.t1 < 100.0]
    assert outside and all(not e.faults for e in outside)
