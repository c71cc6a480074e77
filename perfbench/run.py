"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wireless_mntp --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an outside-in traced run (see ``perfbench/README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every timed iteration passed its output checks.
"""

import os
import sys
import time

START = time.perf_counter()

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads
# (np.polyfit in the MNTP trend fit reaches OpenBLAS).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fewest rounds (one iteration of every instance) a run makes.
MIN_ROUNDS = 2
#: An iteration slower than this many warm-up iterations misses its deadline.
DEADLINE_FACTOR = 10.0
#: :func:`calibrate` seconds on the reference host (Intel Xeon, 2 vCPU,
#: Python 3.11).  Timed iterations are scaled to this host speed.
REFERENCE_CALIBRATION_S = 0.017
#: Share of an instance's warm-up time spent calibrating on each side of
#: its iterations (at least one :func:`calibrate` call per side).
CALIBRATION_SHARE = 0.05
#: :func:`calibrate` calls on each side of a set-up step.
SETUP_SAMPLES = 3

#: Simulated outputs (exact per seed) -> unit; printed by both legs and
#: reported as metrics by the traced leg.
FIDELITY_UNITS = {
    "fidelity.mntp_error_ms": "ms",
    "fidelity.sntp_error_ms": "ms",
    "fidelity.exchange_fail_ratio": "ratio",
    "fidelity.tuner_rmse_ms": "ms",
}


def parse_args(argv):
    """Command-line arguments of one benchmark run."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(calibrations):
    """Machine and toolchain the numbers were measured on."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "calibration_s": statistics.median(calibrations),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
    }


class _Node:
    __slots__ = ("key", "label")

    def __init__(self, key, label):
        self.key = key
        self.label = label


def calibrate():
    """Seconds a fixed pure-Python loop takes on this host right now.

    The loop does the simulator's kind of work (heap push/pop of
    tuples, dict updates, small objects, float arithmetic), so the host
    slowing it down slows the simulator alike.
    """
    start = time.perf_counter()
    heap, table = [], {}
    for i in range(8000):
        heapq.heappush(heap, (i * 7919 % 1000 * 0.5, i, _Node(i, str(i))))
        table[i % 512] = table.get(i % 512, 0.0) + i * 1.5
        if len(heap) > 64:
            entry = heapq.heappop(heap)
            table[entry[1] % 512] = entry[2].key
    return time.perf_counter() - start


def timed(fn, samples):
    """Call ``fn`` between two sets of ``samples`` :func:`calibrate` calls.

    Returns its result, its host seconds and the median calibration
    seconds around it.
    """
    speeds = [calibrate() for _ in range(samples)]
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    speeds += [calibrate() for _ in range(samples)]
    return result, elapsed, statistics.median(speeds)


def scaled(host_s, calibration_s):
    """``host_s`` as the seconds it would take at the reference host speed."""
    return host_s * REFERENCE_CALIBRATION_S / calibration_s


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Timed iterations of a workload's instances against their warm-ups.

    Args:
        instances: Prepared workload instances.
        references: Outcome of each instance's warm-up iteration.
        warmups_s: Host seconds of each instance's warm-up iteration,
            which set its deadline and its calibration samples.
    """

    def __init__(self, instances, references, warmups_s):
        self.instances = instances
        self.references = references
        self.deadlines_s = [DEADLINE_FACTOR * t for t in warmups_s]
        self.samples = [max(1, round(CALIBRATION_SHARE * t / REFERENCE_CALIBRATION_S))
                        for t in warmups_s]
        self.attempted = 0
        self.failures = Counter()
        self.host_times = []
        self.calibrations = []

    def iterate(self, j, instrumentation=None):
        """Run, time and check one iteration of instance ``j``.

        Returns its host seconds and its :func:`scaled` seconds, or None
        when it failed.  A full collection runs
        first, outside the timer, so every iteration starts from the
        same heap.
        """
        workload, reference = self.instances[j], self.references[j]
        self.attempted += 1
        gc.collect()
        try:
            with instrumentation or contextlib.nullcontext():
                result, elapsed, speed_s = timed(workload.run_once, self.samples[j])
            outcome = workload.outcome(result)
        except Exception:
            self._fail("raised", traceback.format_exc())
            return None
        self.calibrations.append(speed_s)
        if elapsed > self.deadlines_s[j]:
            self._fail("deadline", f"iteration took {elapsed:.3f} s")
        elif outcome.digest != reference.digest:
            self._fail("digest", "result digest differs from the warm-up iteration")
        elif outcome.problems:
            self._fail("check", "; ".join(outcome.problems))
        else:
            self.host_times.append(elapsed)
            return elapsed, scaled(elapsed, speed_s)
        return None

    def _fail(self, kind, detail):
        if not self.failures[kind]:
            print(f"iteration {self.attempted} failed ({kind}): {detail}",
                  file=sys.stderr)
        self.failures[kind] += 1

    @property
    def failed(self):
        """Iterations that raised, missed the deadline or failed a check."""
        return sum(self.failures.values())


def round_seconds(times):
    """Seconds of one round: the sum of per-instance median times.

    None when some instance has no passing iteration.
    """
    if not all(times):
        return None
    return sum(statistics.median(ts) for ts in times)


def measure(run, seconds):
    """Untraced rounds for ``seconds``; each instance's scaled times."""
    times = [[] for _ in run.instances]
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for j in range(len(run.instances)):
            passed = run.iterate(j)
            if passed is not None:
                times[j].append(passed[1])
        rounds += 1
    return times


def measure_traced(run, seconds, tracer):
    """Rounds for ``seconds`` running each instance untraced, then traced.

    Returns (untraced times, traced times, traced host ns, per-op
    totals, tallies, peaks); times are scaled and per instance.
    """
    log = tracer.SpanLog()
    plain = [[] for _ in run.instances]
    traced = [[] for _ in run.instances]
    totals, counts, peaks = {}, Counter(), {}
    traced_ns = 0
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for j in range(len(run.instances)):
            passed = run.iterate(j)
            if passed is not None:
                plain[j].append(passed[1])
            passed = run.iterate(j, tracer.Instrumentation(log))
            if passed is not None:
                traced[j].append(passed[1])
                traced_ns += int(passed[0] * 1e9)
                for name, entry in tracer.op_totals(log).items():
                    totals.setdefault(name, tracer.OpTotals()).add(entry)
                counts.update(log.counts)
                for name, value in log.peaks.items():
                    peaks[name] = max(value, peaks.get(name, 0))
            log.clear()
        rounds += 1
    return plain, traced, traced_ns, totals, counts, peaks


def print_metrics(title, metrics):
    """Human-readable metric lines."""
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:16.6f} {unit}")


def main(argv=None):
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import tracer, workloads

    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up: prepare and warm up every instance; setup_s counts the
    # imports plus the median prepare and the median warm-up, all scaled.
    import_scaled_s = scaled(
        import_s, statistics.median(calibrate() for _ in range(SETUP_SAMPLES)))
    instances, references = [], []
    prepare_times, warmup_times, prepare_scaled, warmup_scaled = [], [], [], []
    # A run covers several instances, seeded ``seed * count + j``: the
    # work behind one varies with its seed, so a run averages several to
    # keep its figures comparable across seeds.
    count = workloads.WORKLOADS[args.workload][1]
    for j in range(count):
        workload = workloads.make_workload(args.workload, ROOT, args.seed * count + j)
        _, host_s, speed_s = timed(workload.prepare, SETUP_SAMPLES)
        prepare_times.append(host_s)
        prepare_scaled.append(scaled(host_s, speed_s))
        result, host_s, speed_s = timed(workload.run_once, SETUP_SAMPLES)
        warmup_times.append(host_s)
        warmup_scaled.append(scaled(host_s, speed_s))
        reference = workload.outcome(result)
        if reference.problems:
            print(f"warm-up iteration of instance {j} failed its checks: "
                  + "; ".join(reference.problems), file=sys.stderr)
        instances.append(workload)
        references.append(reference)
    prepare_s = statistics.median(prepare_times)
    warmup_s = statistics.median(warmup_times)
    setup_host_s = import_s + prepare_s + warmup_s
    setup_s = (import_scaled_s + statistics.median(prepare_scaled)
               + statistics.median(warmup_scaled))

    run = Run(instances, references, warmup_times)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {count}")
    print(f"  setup: imports {import_s:.3f} s, prepare median {prepare_s:.3f} s, "
          f"warm-up median {warmup_s:.3f} s, host total {setup_host_s:.3f} s")
    sim_hours = sum(r.sim_hours for r in references)
    exchanges = sum(r.exchanges for r in references)
    fidelity = {
        f"fidelity.{key}": (statistics.mean(r.fidelity[key] for r in references),
                            FIDELITY_UNITS[f"fidelity.{key}"])
        for key in references[0].fidelity
    }

    metrics = {}
    if args.trace:
        plain, traced, traced_ns, totals, counts, peaks = measure_traced(
            run, args.seconds, tracer)
        plain_s, traced_s = round_seconds(plain), round_seconds(traced)
        if plain_s and traced_s:
            iterations = sum(len(ts) for ts in traced)
            layers = tracer.layer_metrics(totals, counts, peaks, iterations, traced_ns)
            metrics = {name: (value, tracer.LAYER_METRICS[name][0])
                       for name, value in layers.items()}
            metrics["tuner.log_s"] = (
                prepare_s if args.workload == "tuner_search" else 0.0, "s")
            metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
            for name, unit in FIDELITY_UNITS.items():
                metrics[name] = fidelity.get(name, (0.0, unit))
    else:
        times = measure(run, args.seconds)
        round_s = round_seconds(times)
        if round_s:
            metrics = {
                "sim_hours_per_s": (sim_hours / round_s, "h/s"),
                "exchanges_per_s": (exchanges / round_s, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        print_metrics("simulated outputs (exact per seed)", fidelity)

    if len(run.host_times) > 1:
        quartiles = statistics.quantiles(run.host_times, n=4)
        print(f"  iterations: {len(run.host_times)} passed, host time median "
              f"{statistics.median(run.host_times):.4f} s, quartiles "
              f"{quartiles[0]:.4f}..{quartiles[2]:.4f} s; calibration median "
              f"{statistics.median(run.calibrations) * 1e3:.3f} ms "
              f"(reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms)")
    print_metrics("metrics", metrics)
    print(f"  attempted {run.attempted}  failed {run.failed}  "
          f"failed_ratio {run.failed / run.attempted:.4f}  {dict(run.failures)}")
    print("fingerprint " + json.dumps(fingerprint(run.calibrations), sort_keys=True))
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
