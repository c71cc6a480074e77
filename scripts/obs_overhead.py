#!/usr/bin/env python3
"""Telemetry overhead gate: instrumented ≤ 15% over bare.

Runs the profile smoke scenario (wireless + MNTP, 900 virtual seconds)
with telemetry fully enabled (trace records, metrics, spans, and the
streaming run-health monitor evaluating the default SLO spec)
and with ``instrument=False`` (null facades), nine interleaved pairs
after one discarded warm-up pair, and gates the **median of the
per-pair ratios**.  The two runs of a pair follow each other, so both
sides see the same thermal/scheduler conditions, and the leg that runs
first alternates from pair to pair, so neither leg always pays the
cost of running first (cold caches, a frequency step) or always gets
its benefit; the median across pairs then discards the pairs where a
noise burst hit one side only — markedly more stable than comparing
min-of-N wall times on shared or frequency-scaled machines (the min
estimator fails whenever one variant happens to draw all its runs from
a disturbed interval)::

    python scripts/obs_overhead.py                 # gate at 1.15
    python scripts/obs_overhead.py --ratio 1.25 --repeats 7

Both variants must do identical virtual work (same SNTP sample count,
failures, and MNTP reports); a mismatch means instrumentation perturbed
the simulation and is an immediate failure regardless of timing.

Exit codes: 0 within budget, 1 over budget or work mismatch, 2 usage.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SEED = 1
DURATION_S = 900.0
DEFAULT_RATIO = 1.15
DEFAULT_REPEATS = 9


def _run_once(instrument: bool) -> Tuple[Tuple[int, int, int], float]:
    """((work triple), wall seconds) for one scenario run.

    The instrumented leg also attaches the streaming health monitor
    (default :class:`~repro.obs.health.SloSpec`), so the budget covers
    the full observability stack, SLO evaluation included.
    """
    from repro.core.config import MntpConfig
    from repro.obs.health import SloSpec
    from repro.testbed.experiment import ExperimentRunner
    from repro.testbed.nodes import TestbedOptions

    runner = ExperimentRunner(
        seed=SEED,
        options=TestbedOptions(wireless=True, ntp_correction=True),
        duration=DURATION_S,
        mntp_config=MntpConfig.baseline_headtohead(),
        instrument=instrument,
        health_spec=SloSpec() if instrument else None,
    )
    # The previous run's simulator is cyclic garbage (its telemetry
    # clock closes over it); collect it here so this run is not charged
    # for freeing the other leg's records.
    gc.collect()
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    work = (len(result.sntp), result.sntp_failures, len(result.mntp_reports))
    return work, wall


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ratio", type=float, default=DEFAULT_RATIO,
                        help="maximum instrumented/bare wall-time ratio "
                        f"(default {DEFAULT_RATIO})")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="interleaved bare/instrumented pairs, after "
                        "one discarded warm-up pair; the median per-pair "
                        f"ratio is gated (default {DEFAULT_REPEATS})")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parse_args(argv)
    if args.repeats < 1 or args.ratio <= 0:
        print("--repeats must be >= 1 and --ratio > 0", file=sys.stderr)
        return 2

    bare_times: List[float] = []
    inst_times: List[float] = []
    works = {}
    # Pair 0 warms imports and caches and is discarded.  Interleaved
    # pairs so thermal / frequency drift hits both variants, with the
    # first leg alternating; each pair's ratio is one sample for the
    # median.
    for pair in range(args.repeats + 1):
        walls = {}
        for instrument in ((False, True) if pair % 2 else (True, False)):
            works[instrument], walls[instrument] = _run_once(instrument)
        if pair:
            bare_times.append(walls[False])
            inst_times.append(walls[True])
    bare_work, inst_work = works[False], works[True]

    if bare_work != inst_work:
        print(f"FAIL work mismatch: bare {bare_work} vs instrumented "
              f"{inst_work} — telemetry perturbed the simulation",
              file=sys.stderr)
        return 1

    ratios = [
        inst / bare if bare > 0 else float("inf")
        for bare, inst in zip(bare_times, inst_times)
    ]
    ratio = statistics.median(ratios)
    print(f"bare          min {min(bare_times):.4f}s  "
          f"(runs: {', '.join(f'{t:.4f}' for t in bare_times)})")
    print(f"instrumented  min {min(inst_times):.4f}s  "
          f"(runs: {', '.join(f'{t:.4f}' for t in inst_times)})")
    print(f"pair ratios   {', '.join(f'{r:.3f}' for r in ratios)}")
    print(f"overhead ratio {ratio:.3f} median of {len(ratios)} pairs "
          f"(budget {args.ratio})")
    if ratio > args.ratio:
        print(f"FAIL telemetry overhead {ratio:.3f} exceeds budget "
              f"{args.ratio}", file=sys.stderr)
        return 1
    print("telemetry overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
