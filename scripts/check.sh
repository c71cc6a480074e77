#!/usr/bin/env bash
# One-shot verification gate: domain static analysis, ruff, mypy, the
# tier-1 test suite and the benchmark's self-tests.  Intended for CI and
# as a pre-push check.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # skip the test suites
#
# ruff/mypy are optional extras (pip install -e ".[lint]"); when they
# are not installed the corresponding step is skipped with a notice so
# the gate still works in minimal environments.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro-mntp lint (all rules, src)"
# Every shipped rule, including the hot-closure telemetry rule (OBS003)
# and the CFG resource-typestate rules (RES).  Warm runs hit the
# content-hash cache (.repro-lint-cache.json) and skip re-parsing
# unchanged files entirely.
python -m repro.analysis src

echo "== repro-mntp lint (determinism + resource rules, tests)"
python -m repro.analysis tests \
    --select DET001,DET002,DET003,DET004,RES001,RES002,RES003

if python -m ruff --version >/dev/null 2>&1; then
    echo "== ruff"
    python -m ruff check src tests
else
    echo "== ruff: skipped (not installed; pip install -e '.[lint]')"
fi

if python -m mypy --version >/dev/null 2>&1; then
    echo "== mypy"
    python -m mypy
else
    echo "== mypy: skipped (not installed; pip install -e '.[lint]')"
fi

if [[ "${1:-}" != "--fast" ]]; then
    echo "== pytest (tier-1)"
    python -m pytest -x -q

    echo "== benchmark self-tests (perfbench)"
    # The repository benchmark's own tests sit outside tier-1's
    # testpaths; run them here so a broken benchmark fails the gate.
    python -m pytest perfbench -q

    echo "== bench harness (smoke)"
    # Appends a run to the BENCH_obs.json trajectory; fails if the
    # timing document cannot be produced, any smoke bench regresses
    # >25% against benchmarks/bench-baseline.json, or a bench's
    # exchanges/sec falls below the same-mode trajectory median.  On a
    # tripped throughput gate the harness auto-diffs the run's archived
    # telemetry against the trajectory's median baseline run and prints
    # ranked triage suspects before the REGRESSION lines.
    python scripts/bench.py --smoke

    echo "== run-health SLO gate (smoke)"
    # Runs the chaos smoke scenario under the streaming HealthMonitor
    # (smoke SloSpec) and fails unless the seeded fault episode lands
    # on a degraded/violated -> recovered cycle with every violation
    # inside a fault window; see docs/OBSERVABILITY.md "Health & SLOs".
    python -m repro.cli health --smoke > /dev/null

    echo "== telemetry overhead gate (instrumented <= 15% over bare)"
    # Median per-pair ratio over five interleaved instrumented/bare
    # runs of the smoke scenario (health monitor attached); fails if
    # the full telemetry stack costs more than 15%.
    python scripts/obs_overhead.py

    echo "== scenario matrix gate (smoke tier)"
    # Runs the smoke-tagged specs under scenarios/ through the
    # fault-tolerant matrix runner (chaos smoke matrix + wired
    # baseline), judges each against its embedded SloSpec guarantees,
    # and appends a "mode": "matrix" timing run (wall time, specs/min)
    # to the BENCH_obs.json trajectory.  Exit 1 on any hard-failed
    # spec; see docs/SCENARIOS.md.
    python scripts/bench.py --matrix scenarios
fi

echo "== all checks passed"
