"""Named experiment scenarios: the spec files under ``scenarios/``.

Each paper condition (§3.2 testbed; Figs 4 and 6–12, plus the
extension and chaos runs) is one checked-in
:class:`~repro.testbed.specs.ScenarioSpec` JSON file, and its file stem
is its name.  Those files are the only definition: the figure benches,
the CLI, the benchmark and the matrix runner all load them.
"""

from __future__ import annotations

import os
from typing import List

from repro.testbed.experiment import ExperimentResult, ExperimentRunner
from repro.testbed.specs import ScenarioSpec, iter_spec_files, load_spec

#: The checked-in spec directory (``<repo>/scenarios``); the package
#: runs from source, so it is resolved relative to this file.
SCENARIO_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "scenarios")
)


def scenario_names() -> List[str]:
    """The named scenarios: the spec file stems, sorted."""
    return [
        os.path.basename(path)[: -len(".json")]
        for path in iter_spec_files(SCENARIO_DIR)
    ]


def load_scenario(name: str) -> ScenarioSpec:
    """Load the spec of a named scenario.

    Raises:
        KeyError: ``name`` has no spec file under :data:`SCENARIO_DIR`.
    """
    if name not in scenario_names():
        raise KeyError(name)
    return load_spec(os.path.join(SCENARIO_DIR, f"{name}.json"))


def run_scenario(
    name: str,
    seed: int = 0,
    health_spec=None,
    on_health=None,
) -> ExperimentResult:
    """Run a named scenario and return its result.

    Unlike :meth:`ScenarioSpec.build_runner`, the run is unmonitored
    unless ``health_spec`` or ``on_health`` is given; the spec's own
    guarantees are the matrix runner's business.

    Args:
        name: A spec file stem (see :func:`scenario_names`).
        seed: Root seed for the run.
        health_spec: Optional :class:`repro.obs.health.SloSpec`; attaches
            a streaming health monitor whose verdict lands on the
            result's ``health`` field.
        on_health: Optional per-evaluation callback (``run --watch``);
            implies monitoring with the default spec.

    Raises:
        KeyError: Unknown scenario name.
    """
    spec = load_scenario(name)
    runner = ExperimentRunner(
        seed=seed,
        options=spec.build_options(),
        duration=spec.duration_s,
        sntp_cadence=spec.cadence_s,
        run_sntp=spec.run_sntp,
        mntp_config=spec.mntp,
        health_spec=health_spec,
        on_health=on_health,
    )
    return runner.run()
