"""Telemetry overhead — instrumented vs bare, same scenario and seed.

Runs the profile smoke scenario (wireless + MNTP: event loop, channel
sampler, and both protocol stacks all hot) twice: once with telemetry
on and once with instrumentation disabled (``instrument=False`` — null
metrics/spans facades, discarding ``telemetry.emit``/``count``).
Reports the wall-clock pair, the derived overhead ratio, and how much
telemetry each leg recorded, so the cost of observing the system is
itself observed.

The strict overhead gate (instrumented ≤ 15% over bare, min-of-3)
lives in ``scripts/obs_overhead.py`` / ``scripts/check.sh``; the bench
only asserts a loose sanity bound so suite runs stay robust to
scheduler noise.
"""

import time

from repro.core.config import MntpConfig
from repro.reporting import render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

SEED = 1
DURATION_S = 900.0

#: Loose sanity bound for the single-shot bench (the CI gate is 1.15
#: on a min-of-3; one cold pair can be noisier).
MAX_RATIO = 2.0


def _run(instrument):
    runner = ExperimentRunner(
        seed=SEED,
        options=TestbedOptions(wireless=True, ntp_correction=True),
        duration=DURATION_S,
        mntp_config=MntpConfig.baseline_headtohead(),
        instrument=instrument,
    )
    start = time.perf_counter()
    result = runner.run()
    return runner, result, time.perf_counter() - start


def _work(result):
    """(samples, failures) — virtual work done, telemetry-independent."""
    return len(result.sntp), result.sntp_failures, len(result.mntp_reports)


def bench_obs_overhead(once, report, throughput):
    def run():
        bare = _run(instrument=False)
        inst = _run(instrument=True)
        return bare, inst

    (bare_runner, bare_result, bare_s), (inst_runner, inst_result, inst_s) \
        = once(run)
    exchanges = sum(
        len(r.sntp) + r.sntp_failures + len(r.mntp_reports)
        for r in (bare_result, inst_result)
    )
    throughput(exchanges=exchanges, simulated_s=2 * DURATION_S)

    recorded = {
        label: (len(runner.sim.telemetry.metrics), len(runner.sim.trace))
        for label, runner in (("bare", bare_runner), ("instrumented", inst_runner))
    }
    ratio = inst_s / bare_s if bare_s > 0 else float("inf")
    report(
        "TELEMETRY OVERHEAD — instrumented vs bare "
        f"({DURATION_S:g} virtual s, wireless + MNTP)\n\n"
        + render_table(
            ["variant", "wall (s)", "sntp", "failures", "mntp"],
            [
                ["bare (instrument=False)", f"{bare_s:.3f}",
                 *_work(bare_result)],
                ["instrumented", f"{inst_s:.3f}",
                 *_work(inst_result)],
            ],
        )
        + f"\n\noverhead ratio: {ratio:.2f}x\n"
        + "\n".join(
            f"{label}: {n_metrics} metrics, {n_records} trace records"
            for label, (n_metrics, n_records) in recorded.items()
        )
    )

    # Same virtual work on both sides — instrumentation must never
    # change the simulation itself.
    assert _work(bare_result) == _work(inst_result)
    # Only the instrumented leg recorded metrics, and it traced more
    # (the bare leg keeps just the components' direct trace writes)...
    assert recorded["bare"][0] == 0 < recorded["instrumented"][0]
    assert recorded["bare"][1] < recorded["instrumented"][1]
    # ...and its cost stays within the loose single-shot bound.
    assert ratio < MAX_RATIO, (
        f"instrumented run {ratio:.2f}x slower than bare "
        f"(bound {MAX_RATIO}x)"
    )
