#!/usr/bin/env python3
"""Bench-trajectory harness.

Runs the ``benchmarks/`` suite with the ``REPRO_BENCH_OBS`` timing hook
armed (see ``benchmarks/conftest.py``), appends the per-module
wall-clock totals as a new run to the cumulative ``BENCH_obs.json``
trajectory at the repo root, and compares the fresh run against the
recorded baseline (``benchmarks/bench-baseline.json``)::

    python scripts/bench.py                  # full suite
    python scripts/bench.py --smoke          # fast subset (CI gate)
    python scripts/bench.py --matrix scenarios   # smoke matrix timing
    python scripts/bench.py --update-baseline

``--matrix DIR`` times the scenario-matrix smoke tier instead of the
pytest benches: the smoke-tagged specs under ``DIR`` run through
``repro.testbed.run_matrix`` and the wall time plus throughput
(``specs_per_min``) land in the trajectory as a ``"mode": "matrix"``
run, so matrix cost is tracked across commits alongside the bench
suite.  The exit code follows the matrix verdict — any hard-failed
spec is exit 1.

``BENCH_obs.json`` keeps the trailing history (run number, mode,
per-bench seconds, per-run ``wall_seconds``) so performance can be
tracked across commits instead of only gated against the latest
baseline; every append prunes the trajectory to the last
``TRAJECTORY_KEEP_PER_MODE`` runs of each mode (run numbers stay
monotonic), which also caps unbounded pre-existing files.

Benches that call the ``throughput`` fixture additionally record how
much simulated work the measured seconds bought — protocol exchanges
and simulated virtual time — and the trajectory stores the derived
rates (``exchanges_per_s``, ``sim_hours_per_s``).  Those rates are
gated against the trajectory itself: the median of the last runs *of
the same mode* (smoke compares against smoke only — full-suite and
matrix runs never contaminate the baseline).  The comparison happens
in the seconds domain (``exchanges / median_rate`` is the time this
run's work should have taken) so the same tolerance + floor semantics
as the baseline gate apply.

Exit codes: 0 all benches within tolerance, 1 a bench regressed or the
timing document could not be produced, 2 usage errors.

A bench "regresses" when its wall time exceeds
``baseline * (1 + tolerance) + floor``; the absolute floor absorbs
scheduler noise on very fast benches so sub-second jitter does not turn
into false alarms across machines.

Benches that hand their telemetry snapshots to the ``throughput``
fixture get automatic triage: each run's merged per-bench snapshot is
archived under ``benchmarks/telemetry/`` (last few runs per mode), and
when a throughput gate trips, the failing run is diffed against the
trajectory's median baseline run (``repro.obs.diff``) and the ranked
suspect components are printed next to the REGRESSION verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_OUT = REPO_ROOT / "BENCH_obs.json"
DEFAULT_BASELINE = BENCH_DIR / "bench-baseline.json"
TELEMETRY_DIR = BENCH_DIR / "telemetry"
BENCH_FORMAT = "mntp-bench-v1"
TRAJECTORY_FORMAT = "mntp-bench-trajectory-v1"

#: Trajectory runs retained per mode; appending prunes older ones.
TRAJECTORY_KEEP_PER_MODE = 25

#: The fast subset exercised by ``--smoke`` (seconds each, not minutes).
SMOKE_BENCHES = (
    "bench_fig4_sntp_wired_wireless.py",
    "bench_fig7_signals_selection.py",
    "bench_table2_tuner_configs.py",
)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the fast smoke subset")
    parser.add_argument("--matrix", type=Path, default=None, metavar="DIR",
                        help="time the smoke-tagged scenario matrix under "
                        "DIR instead of the bench suite")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="cumulative trajectory to append to "
                        "(BENCH_obs.json)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="recorded baseline to compare against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    parser.add_argument("--floor", type=float, default=0.25,
                        help="absolute slack in seconds (default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record the measured times as the new baseline")
    return parser.parse_args(argv)


def _run_pytest(
    targets: List[str], out: Path, telemetry_dir: Optional[Path] = None
) -> int:
    """Run the bench suite with the timing hook armed."""
    env = dict(os.environ)
    env["REPRO_BENCH_OBS"] = str(out)
    if telemetry_dir is not None:
        env["REPRO_BENCH_TELEMETRY"] = str(telemetry_dir)
    env["PYTHONPATH"] = (
        f"{REPO_ROOT / 'src'}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(REPO_ROOT / "src")
    )
    cmd = [sys.executable, "-m", "pytest", "-q", *targets]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    return proc.returncode


def _load_document(
    path: Path,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """(bench seconds, bench throughput inputs) from a run document."""
    with open(path) as f:
        document = json.load(f)
    if document.get("format") != BENCH_FORMAT:
        raise ValueError(f"{path} is not a {BENCH_FORMAT} document")
    benches = {str(k): float(v) for k, v in document["benches"].items()}
    throughput = {
        str(k): {
            "exchanges": float(v["exchanges"]),
            "simulated_s": float(v["simulated_s"]),
        }
        for k, v in document.get("throughput", {}).items()
    }
    return benches, throughput


def _throughput_entry(
    seconds: float, exchanges: float, simulated_s: float
) -> Dict[str, float]:
    """Denominate one bench's measured seconds in simulated work."""
    rate = exchanges / seconds if seconds > 0 else 0.0
    sim_hours = simulated_s / 3600.0
    return {
        "exchanges": exchanges,
        "simulated_s": simulated_s,
        "exchanges_per_s": round(rate, 3),
        "sim_hours_per_s": round(
            sim_hours / seconds if seconds > 0 else 0.0, 3
        ),
    }


def _prune_runs(
    runs: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Keep the newest TRAJECTORY_KEEP_PER_MODE runs of each mode."""
    keep: set = set()
    counts: Dict[str, int] = {}
    for index in range(len(runs) - 1, -1, -1):
        mode = str(runs[index].get("mode", "unknown"))
        if counts.get(mode, 0) < TRAJECTORY_KEEP_PER_MODE:
            counts[mode] = counts.get(mode, 0) + 1
            keep.add(index)
    return [run for index, run in enumerate(runs) if index in keep]


def _append_trajectory(
    path: Path,
    measured: Dict[str, float],
    throughput: Dict[str, Dict[str, float]],
    mode: str,
    extra: Optional[Dict[str, object]] = None,
) -> Tuple[int, List[Dict[str, object]]]:
    """Append one run to the cumulative trajectory.

    Returns ``(run number, prior runs)`` — the priors feed the
    throughput gate.  A file at ``path`` that is not a trajectory
    document is replaced by a fresh trajectory.  The stored trajectory
    is pruned to the last
    :data:`TRAJECTORY_KEEP_PER_MODE` runs per mode (run numbers keep
    counting up), which caps unbounded pre-existing files too.
    ``extra`` keys merge into the run entry verbatim — the matrix mode
    uses it to record spec counts and throughput next to the timing.
    """
    runs: List[Dict[str, object]] = []
    if path.exists():
        try:
            with open(path) as f:
                existing = json.load(f)
        except (OSError, json.JSONDecodeError):
            existing = None
        if (
            isinstance(existing, dict)
            and existing.get("format") == TRAJECTORY_FORMAT
        ):
            runs = list(existing.get("runs", []))
    runs = _prune_runs(runs)
    priors = list(runs)
    number = max(
        (int(run.get("run", 0)) for run in runs), default=0
    ) + 1
    total = round(sum(measured.values()), 3)
    entry: Dict[str, object] = {
        "run": number,
        "mode": mode,
        "benches": {k: round(v, 3) for k, v in sorted(measured.items())},
        "wall_seconds": total,
        "total_seconds": total,
    }
    if throughput:
        entry["throughput"] = {
            name: _throughput_entry(
                measured.get(name, 0.0),
                inputs["exchanges"], inputs["simulated_s"],
            )
            for name, inputs in sorted(throughput.items())
            if name in measured
        }
    if extra:
        entry.update(extra)
    runs.append(entry)
    runs = _prune_runs(runs)
    with open(path, "w") as f:
        json.dump(
            {"format": TRAJECTORY_FORMAT, "runs": runs},
            f, indent=2, sort_keys=True,
        )
        f.write("\n")
    return number, priors


#: Same-mode prior runs feeding each throughput baseline (median).
THROUGHPUT_WINDOW = 5

#: Archived per-bench telemetry snapshots kept per (mode, bench) —
#: enough to cover the whole throughput window plus the fresh run.
TELEMETRY_KEEP = THROUGHPUT_WINDOW + 1


def _telemetry_path(mode: str, number: int, bench: str) -> Path:
    """Archive location of one run's merged per-bench snapshot."""
    return TELEMETRY_DIR / f"{mode}-run-{number}-{bench}.json"


def _archived_run_number(path: Path, mode: str, bench: str) -> Optional[int]:
    """Run number encoded in an archived snapshot name, else None."""
    prefix, suffix = f"{mode}-run-", f"-{bench}.json"
    name = path.name
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    middle = name[len(prefix):len(name) - len(suffix)]
    try:
        return int(middle)
    except ValueError:
        return None


def _archive_telemetry(scratch: Path, number: int, mode: str) -> None:
    """Move this run's captured snapshots into benchmarks/telemetry/.

    The bench conftest writes one merged ``<bench>.json`` per module
    into the scratch directory; each is renamed to carry the run's
    mode and trajectory number, and older archives of the same
    (mode, bench) are pruned down to :data:`TELEMETRY_KEEP`.
    """
    if not scratch.is_dir():
        return
    for source in sorted(scratch.glob("*.json")):
        bench = source.stem
        TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)
        source.replace(_telemetry_path(mode, number, bench))
        archived = sorted(
            (run, path)
            for path in TELEMETRY_DIR.glob(f"{mode}-run-*-{bench}.json")
            for run in [_archived_run_number(path, mode, bench)]
            if run is not None
        )
        for _run, path in archived[:-TELEMETRY_KEEP]:
            path.unlink(missing_ok=True)
    shutil.rmtree(scratch, ignore_errors=True)


def _median_baseline_run(
    priors: List[Dict[str, object]], name: str, mode: str
) -> Optional[int]:
    """Trajectory run number whose rate sits at the gate's median.

    Mirrors :func:`_compare_throughput`'s baseline selection — the
    same-mode runs in the trailing window that recorded a positive
    rate for ``name`` — and returns the run whose ``exchanges_per_s``
    is closest to their median (ties go to the most recent run), so
    the triage diff compares against a representative healthy run.
    """
    candidates = [
        (int(run.get("run", 0)),
         float(run["throughput"][name]["exchanges_per_s"]))
        for run in priors
        if run.get("mode") == mode
        and name in run.get("throughput", {})
        and float(run["throughput"][name].get("exchanges_per_s", 0)) > 0
    ][-THROUGHPUT_WINDOW:]
    if not candidates:
        return None
    median = statistics.median(rate for _number, rate in candidates)
    return min(
        candidates, key=lambda pair: (abs(pair[1] - median), -pair[0])
    )[0]


def _triage_failures(
    failures: List[str],
    priors: List[Dict[str, object]],
    number: int,
    mode: str,
    top: int = 5,
) -> None:
    """Diff each failing bench's run against its median baseline run.

    Failure strings lead with the bench name (``name: ...``); the
    corresponding archived snapshots — this run's and the median
    baseline run's — feed ``repro.obs.diff`` and the ranked suspect
    components print under a ``triage`` heading.  Benches without
    archived telemetry degrade to a one-line notice.
    """
    from repro.obs.diff import (
        coerce_snapshot, diff_snapshots, render_diff_text,
    )

    for failure in failures:
        name = failure.split(":", 1)[0]
        current = _telemetry_path(mode, number, name)
        baseline_number = _median_baseline_run(priors, name, mode)
        if baseline_number is None:
            print(f"triage {name}: no same-mode baseline run to diff")
            continue
        baseline = _telemetry_path(mode, baseline_number, name)
        missing = [p for p in (baseline, current) if not p.exists()]
        if missing:
            print(f"triage {name}: no archived telemetry to diff "
                  f"(missing {', '.join(p.name for p in missing)})")
            continue
        try:
            with open(baseline) as f:
                snap_a, samples_a = coerce_snapshot(json.load(f))
            with open(current) as f:
                snap_b, samples_b = coerce_snapshot(json.load(f))
            diff = diff_snapshots(
                snap_a, snap_b, samples_a=samples_a, samples_b=samples_b
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"triage {name}: cannot diff archived telemetry: {exc}")
            continue
        print(f"triage {name}: run {number} vs median baseline "
              f"run {baseline_number} ({baseline.name})")
        for line in render_diff_text(diff, top=top).splitlines():
            print(f"  {line}")


def _compare_throughput(
    priors: List[Dict[str, object]],
    measured: Dict[str, float],
    throughput: Dict[str, Dict[str, float]],
    mode: str,
    tolerance: float,
    floor: float,
) -> List[str]:
    """Throughput regression verdicts against same-mode trajectory runs.

    For each bench with recorded throughput, the baseline rate is the
    median ``exchanges_per_s`` over the last ``THROUGHPUT_WINDOW``
    prior runs of the *same mode* (smoke-vs-smoke only; full and
    matrix runs never enter a smoke baseline).  The verdict happens
    in the seconds domain: this run's exchange count divided by the
    baseline rate is the time the work should have taken, and the
    usual ``* (1 + tolerance) + floor`` slack applies.
    """
    failures: List[str] = []
    for name, inputs in sorted(throughput.items()):
        seconds = measured.get(name)
        if seconds is None or seconds <= 0:
            continue
        rates = [
            float(run["throughput"][name]["exchanges_per_s"])
            for run in priors
            if run.get("mode") == mode
            and name in run.get("throughput", {})
            and float(run["throughput"][name].get("exchanges_per_s", 0)) > 0
        ][-THROUGHPUT_WINDOW:]
        rate = inputs["exchanges"] / seconds
        if not rates:
            print(f"  {name}: {rate:,.0f} exch/s "
                  "(no same-mode trajectory baseline — recorded new)")
            continue
        baseline_rate = statistics.median(rates)
        baseline_sec = inputs["exchanges"] / baseline_rate
        limit = baseline_sec * (1.0 + tolerance) + floor
        verdict = "ok" if seconds <= limit else "REGRESSED"
        print(f"  {name}: {rate:,.0f} exch/s vs median "
              f"{baseline_rate:,.0f} exch/s over {len(rates)} {mode} "
              f"run(s) (limit {limit:.2f}s for {inputs['exchanges']:,.0f} "
              f"exchanges) {verdict}")
        if seconds > limit:
            failures.append(
                f"{name}: {seconds:.2f}s for {inputs['exchanges']:,.0f} "
                f"exchanges exceeds {limit:.2f}s "
                f"({baseline_rate:,.0f} exch/s median of last "
                f"{len(rates)} {mode} runs, +{tolerance:.0%} +{floor}s)"
            )
    return failures


def _compare(
    measured: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
    floor: float,
) -> List[str]:
    """Human-readable regression verdicts; empty means all clear."""
    failures: List[str] = []
    for name, seconds in sorted(measured.items()):
        base = baseline.get(name)
        if base is None:
            print(f"  {name}: {seconds:.2f}s (no baseline — recorded new)")
            continue
        limit = base * (1.0 + tolerance) + floor
        verdict = "ok" if seconds <= limit else "REGRESSED"
        print(f"  {name}: {seconds:.2f}s vs baseline {base:.2f}s "
              f"(limit {limit:.2f}s) {verdict}")
        if seconds > limit:
            failures.append(
                f"{name}: {seconds:.2f}s exceeds {limit:.2f}s "
                f"({base:.2f}s baseline, +{tolerance:.0%} +{floor}s)"
            )
    return failures


def _run_matrix_mode(args: argparse.Namespace) -> int:
    """Time the smoke-tier scenario matrix and append a trajectory run.

    Runs the smoke-tagged specs under ``--matrix DIR`` through the
    fault-tolerant matrix runner, records the wall time (and derived
    ``specs_per_min``) as a ``"mode": "matrix"`` trajectory run, and
    mirrors the matrix verdict in the exit code so the CI gate can
    lean on this one invocation for both timing and correctness.
    """
    import time

    from repro.testbed import MatrixOptions, run_matrix

    directory = args.matrix
    if not directory.is_dir():
        print(f"--matrix: {directory} is not a directory", file=sys.stderr)
        return 2
    options = MatrixOptions(tags=("smoke",))
    started = time.monotonic()
    try:
        report = run_matrix(str(directory), options)
    except ValueError as exc:
        print(f"--matrix: {exc}", file=sys.stderr)
        return 2
    wall = time.monotonic() - started
    spec_count = len(report["specs"])
    if spec_count == 0:
        print(f"--matrix: no smoke-tagged specs under {directory}",
              file=sys.stderr)
        return 2
    specs_per_min = round(spec_count / wall * 60.0, 3) if wall > 0 else 0.0
    measured = {"matrix_smoke": wall}
    extra: Dict[str, object] = {
        "matrix": {
            "specs": spec_count,
            "specs_per_min": specs_per_min,
            "counts": report["counts"],
        },
    }
    number, _priors = _append_trajectory(
        args.out, measured, {}, "matrix", extra=extra
    )
    print(f"run {number} appended to trajectory {args.out}")
    print(f"  matrix_smoke: {wall:.2f}s for {spec_count} spec(s) "
          f"({specs_per_min} specs/min)")
    if not report["verdict"]["ok"]:
        for name in report["verdict"]["hard_failed"]:
            print(f"MATRIX FAIL {name}", file=sys.stderr)
        return 1
    print("matrix verdict ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parse_args(argv)
    if args.matrix is not None:
        return _run_matrix_mode(args)
    if args.smoke:
        targets = [str(BENCH_DIR / name) for name in SMOKE_BENCHES]
        missing = [t for t in targets if not Path(t).exists()]
        if missing:
            print(f"smoke benches missing: {missing}", file=sys.stderr)
            return 2
    else:
        targets = [str(BENCH_DIR)]

    # The pytest hook writes a single-run document to a scratch path;
    # the run is then folded into the cumulative trajectory at --out.
    # Telemetry snapshots land in a sibling scratch directory and are
    # archived (with the run number) once the trajectory assigns one.
    run_doc = args.out.with_name(args.out.stem + "-run.json")
    if run_doc.exists():
        run_doc.unlink()
    telemetry_scratch = args.out.with_name(args.out.stem + "-telemetry")
    shutil.rmtree(telemetry_scratch, ignore_errors=True)
    rc = _run_pytest(targets, run_doc, telemetry_scratch)
    if not run_doc.exists():
        print(f"bench run produced no {run_doc} (pytest exit {rc})",
              file=sys.stderr)
        return 1
    try:
        measured, throughput = _load_document(run_doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read {run_doc}: {exc}", file=sys.stderr)
        return 1
    finally:
        run_doc.unlink(missing_ok=True)
    if rc != 0:
        print(f"bench suite failed (pytest exit {rc})", file=sys.stderr)
        return 1
    if not measured:
        print("bench run recorded no timings", file=sys.stderr)
        return 1
    mode = "smoke" if args.smoke else "full"
    number, priors = _append_trajectory(args.out, measured, throughput, mode)
    print(f"run {number} appended to trajectory {args.out}")
    _archive_telemetry(telemetry_scratch, number, mode)

    if args.update_baseline:
        baseline = (
            _load_document(args.baseline)[0] if args.baseline.exists() else {}
        )
        baseline.update(measured)
        with open(args.baseline, "w") as f:
            json.dump(
                {"format": BENCH_FORMAT, "benches": baseline},
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    failures: List[str] = []
    if throughput:
        print("throughput (trajectory, same-mode median):")
        failures.extend(_compare_throughput(
            priors, measured, throughput, mode, args.tolerance, args.floor,
        ))
    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update-baseline "
              "to record one")
    else:
        try:
            baseline = _load_document(args.baseline)[0]
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 1
        failures.extend(
            _compare(measured, baseline, args.tolerance, args.floor)
        )
    if failures:
        _triage_failures(failures, priors, number, mode)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    print("all benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
