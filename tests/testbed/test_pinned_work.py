"""Exact per-seed work of two checked-in scenarios.

A run's event count, span counts, trace length and simulated series are
exact for a fixed seed, so they are pinned here with no tolerance: a
change that adds or drops one event, one span or one output bit fails
this test with no timing noise.

After a deliberate change to the simulated work, re-record with::

    PYTHONPATH=src python tests/testbed/test_pinned_work.py

and paste the printed table over :data:`PINNED`.
"""

import hashlib
from pathlib import Path

import pytest

from repro.testbed.specs import load_spec

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"
SEED = 1

#: scenario -> (sim_events_total, link.transit spans, server.turnaround
#: spans, trace records, sha256 of the simulated series).
PINNED = {
    "wired_corrected": (
        4063, 1685, 843, 3406,
        "9de2034ef8716afb4a34f991e21128f035fcb6b3ac2d46952872bbbdc1e8aeba",
    ),
    "mntp_wireless_corrected": (
        16692, 3685, 1859, 11289,
        "a69bb8decb2f7d3edcae978133a11ff8b9338a8e11f2b4a2e542dcadaeebe109",
    ),
}


def measure(name: str) -> tuple:
    """The pinned quantities of one seed-``SEED`` run of ``name``."""
    result = load_spec(str(SCENARIOS / f"{name}.json")).build_runner(seed=SEED).run()
    records = result.telemetry["records"]
    counters = {
        m["name"]: m["value"]
        for m in result.telemetry["metrics"]
        if m["type"] == "counter"
    }

    def spans(kind: str) -> int:
        return sum(1 for r in records if r["component"] == "span" and r["kind"] == kind)

    series = repr((
        [(p.time, p.offset, p.truth) for p in result.sntp],
        [(r.time, r.offset, r.accepted) for r in result.mntp_reports],
        result.sntp_failures,
    ))
    return (
        int(counters["sim_events_total"]),
        spans("link.transit"),
        spans("server.turnaround"),
        len(records),
        hashlib.sha256(series.encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_work(name):
    got = measure(name)
    assert got == PINNED[name], (
        f"{name} at seed {SEED} did different work: got {got}, pinned "
        f"{PINNED[name]} (events, link.transit spans, server.turnaround "
        "spans, trace records, series sha256).  If the change is meant to "
        "alter the simulated work, re-record with `PYTHONPATH=src python "
        "tests/testbed/test_pinned_work.py` and update PINNED."
    )


if __name__ == "__main__":
    for scenario in sorted(PINNED):
        print(f"    {scenario!r}: {measure(scenario)!r},")
