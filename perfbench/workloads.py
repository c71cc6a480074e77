"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload has a set-up, one iteration that the benchmark times, and
an :class:`Outcome` that digests the iteration's output and runs its
output checks.  Every simulated statistic repeats
exactly under a fixed seed, so iterations of one run must all produce
the digest of the warm-up iteration.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import TABLE2_CONFIGS
from repro.simcore.simulator import Simulator
from repro.testbed.nodes import Testbed
from repro.testbed.specs import load_spec
from repro.tuner import LoggerOptions, ParameterSearcher, TraceLogger


def digest(*parts: Any) -> str:
    """SHA-256 of the ``repr`` of ``parts`` (floats repr exactly)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class Outcome:
    """What one iteration produced, reduced to what the benchmark checks.

    Attributes:
        digest: Hash of the output series and telemetry counters.
        exchanges: Protocol queries issued, or emulator requests
            replayed, by the iteration.
        sim_hours: Simulated or replayed client-hours.
        fidelity: Simulated accuracy statistics (exact per seed).
        problems: Output checks the iteration failed, besides the digest.
    """

    digest: str
    exchanges: int
    sim_hours: float
    fidelity: Dict[str, float]
    problems: List[str] = field(default_factory=list)


class ScenarioWorkload:
    """One checked-in scenario spec run through its experiment runner.

    Args:
        root: Repository root holding ``scenarios/``.
        spec_name: Spec file stem under ``scenarios/``.
        seed: Simulation seed.
    """

    def __init__(self, root: str, spec_name: str, seed: int) -> None:
        self.path = os.path.join(root, "scenarios", f"{spec_name}.json")
        self.seed = seed
        self.spec = None

    def prepare(self) -> None:
        """Load the spec and build its runner and testbed once."""
        self.spec = load_spec(self.path)
        self.spec.build_runner(seed=self.seed)
        Testbed(Simulator(seed=self.seed), self.spec.build_options())

    def run_once(self) -> Any:
        """One full scenario run (the timed iteration)."""
        return self.spec.build_runner(seed=self.seed).run()

    def outcome(self, result: Any) -> Outcome:
        """Digest and check one :class:`ExperimentResult`."""
        counters = {
            m["name"]: m["value"]
            for m in result.telemetry["metrics"]
            if m["type"] == "counter"
        }
        queries = counters.get("sntp_queries_total", 0.0)
        exchanges = queries + counters.get("mntp_query_sent_total", 0.0)
        sntp_error_ms = result.sntp_error_stats().mean_abs * 1e3
        fidelity = {
            "sntp_error_ms": sntp_error_ms,
            "exchange_fail_ratio": (
                counters.get("sntp_query_failures_total", 0.0) / queries
                if queries else 0.0
            ),
        }
        problems = []
        if self.spec.mntp is not None:
            mntp_error_ms = result.mntp_error_stats().mean_abs * 1e3
            fidelity["mntp_error_ms"] = mntp_error_ms
            if not mntp_error_ms < sntp_error_ms:
                problems.append(
                    f"MNTP error {mntp_error_ms:.3f} ms is not below "
                    f"SNTP error {sntp_error_ms:.3f} ms"
                )
        return Outcome(
            digest=digest(
                [(p.time, p.offset, p.truth) for p in result.sntp],
                [(r.time, r.offset, r.accepted) for r in result.mntp_reports],
                result.sntp_failures,
                sorted(counters.items()),
            ),
            exchanges=int(exchanges),
            sim_hours=result.duration / 3600.0,
            fidelity=fidelity,
            problems=problems,
        )


class TunerWorkload:
    """Table 2: grid search of the MNTP tuner over a logged trace.

    Set-up logs the trace; the timed iteration is the full
    :meth:`ParameterSearcher.search`.

    Args:
        seed: Trace-logging seed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.options = LoggerOptions()
        self.trace = None

    def prepare(self) -> None:
        """Log the trace the search replays."""
        self.trace = TraceLogger(seed=self.seed, options=self.options).run()

    def run_once(self) -> Any:
        """One grid search over the trace (the timed iteration)."""
        return ParameterSearcher(self.trace).search()

    def outcome(self, results: Any) -> Outcome:
        """Digest and check the search results."""
        by_params = {
            (r.config.warmup_period, r.config.warmup_wait_time,
             r.config.regular_wait_time, r.config.reset_period): r
            for r in results
        }
        problems = []
        requests = []
        for num, config in TABLE2_CONFIGS.items():
            found = by_params.get((config.warmup_period, config.warmup_wait_time,
                                   config.regular_wait_time, config.reset_period))
            if found is None:
                problems.append(f"Table 2 config {num} is missing from the grid")
            else:
                requests.append(found.requests)
        if any(a >= b for a, b in zip(requests, requests[1:])):
            problems.append(
                f"Table 2 request counts are not strictly increasing: {requests}"
            )
        return Outcome(
            digest=digest(sorted(
                (key, r.rmse_ms, r.requests, r.reported_count)
                for key, r in by_params.items()
            )),
            exchanges=sum(r.requests for r in results),
            sim_hours=len(results) * self.options.duration / 3600.0,
            fidelity={"tuner_rmse_ms": statistics.mean(r.rmse_ms for r in results)},
            problems=problems,
        )


#: Workload name -> (spec stem, or None for the tuner; instances a run
#: covers).  Why each was chosen is in ``perfbench/README.md``.  The
#: simulated workloads take eight instances because their cost varies by
#: up to 11 % between seeds; the tuner's four cost 10 s of trace logging.
WORKLOADS: Dict[str, Tuple[Optional[str], int]] = {
    "wireless_mntp": ("mntp_wireless_corrected", 8),
    "wired_sntp": ("wired_corrected", 8),
    "tuner_search": (None, 4),
}


def make_workload(name: str, root: str, seed: int) -> Any:
    """Build workload ``name`` for ``seed`` (KeyError on an unknown name)."""
    spec_name, _ = WORKLOADS[name]
    if spec_name is None:
        return TunerWorkload(seed)
    return ScenarioWorkload(root, spec_name, seed)
