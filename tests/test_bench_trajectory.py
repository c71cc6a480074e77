"""The bench harness's cumulative BENCH_obs.json trajectory."""

import importlib.util
import json
from pathlib import Path


def load_bench_module():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_appends_runs(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_obs.json"
    number, priors = bench._append_trajectory(
        out, {"a": 1.0, "b": 2.0}, {}, "smoke"
    )
    assert (number, priors) == (1, [])
    number, priors = bench._append_trajectory(
        out, {"a": 1.1, "b": 2.2}, {}, "full"
    )
    assert number == 2
    assert [r["run"] for r in priors] == [1]
    doc = json.loads(out.read_text())
    assert doc["format"] == bench.TRAJECTORY_FORMAT
    assert [r["run"] for r in doc["runs"]] == [1, 2]
    assert [r["mode"] for r in doc["runs"]] == ["smoke", "full"]
    assert doc["runs"][0]["total_seconds"] == 3.0
    assert doc["runs"][0]["wall_seconds"] == 3.0
    assert doc["runs"][1]["benches"] == {"a": 1.1, "b": 2.2}


def test_trajectory_records_throughput(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_obs.json"
    throughput = {"a": {"exchanges": 500.0, "simulated_s": 7200.0}}
    bench._append_trajectory(out, {"a": 2.0, "b": 1.0}, throughput, "smoke")
    doc = json.loads(out.read_text())
    entry = doc["runs"][0]["throughput"]
    assert list(entry) == ["a"]  # bench "b" recorded no throughput
    assert entry["a"]["exchanges_per_s"] == 250.0
    assert entry["a"]["sim_hours_per_s"] == 1.0


def test_trajectory_recovers_from_corrupt_file(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_obs.json"
    out.write_text("{ not json")
    number, priors = bench._append_trajectory(out, {"a": 1.0}, {}, "smoke")
    assert (number, priors) == (1, [])
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 1


def _prior(run, mode, seconds, exchanges):
    return {
        "run": run, "mode": mode, "benches": {"a": seconds},
        "wall_seconds": seconds,
        "throughput": {"a": {
            "exchanges": exchanges, "simulated_s": 3600.0,
            "exchanges_per_s": round(exchanges / seconds, 3),
            "sim_hours_per_s": round(1.0 / seconds, 3),
        }},
    }


def test_throughput_gate_same_mode_only(capsys):
    bench = load_bench_module()
    priors = [
        _prior(1, "smoke", 1.0, 1000.0),   # 1000 exch/s
        # A slow full-suite run must not drag the smoke baseline down.
        _prior(2, "full", 10.0, 1000.0),   # 100 exch/s
    ]
    throughput = {"a": {"exchanges": 1000.0, "simulated_s": 3600.0}}
    # 10x slower than the smoke baseline: fails against smoke priors...
    failures = bench._compare_throughput(
        priors, {"a": 10.0}, throughput, "smoke", 0.25, 0.25
    )
    assert len(failures) == 1
    assert "1,000 exch/s median" in failures[0]
    # ...but the same measurement gated as a full run compares against
    # the full prior only, and passes.
    assert bench._compare_throughput(
        priors, {"a": 10.0}, throughput, "full", 0.25, 0.25
    ) == []
    capsys.readouterr()


def test_throughput_gate_uses_median_of_window(capsys):
    bench = load_bench_module()
    # One outlier fast run among normal ones: the median absorbs it.
    priors = [
        _prior(i, "smoke", s, 1000.0)
        for i, s in enumerate([1.0, 1.0, 0.1, 1.0, 1.0], start=1)
    ]
    throughput = {"a": {"exchanges": 1000.0, "simulated_s": 3600.0}}
    assert bench._compare_throughput(
        priors, {"a": 1.2}, throughput, "smoke", 0.25, 0.25
    ) == []
    capsys.readouterr()


def test_throughput_gate_without_priors_records_only(capsys):
    bench = load_bench_module()
    throughput = {"a": {"exchanges": 100.0, "simulated_s": 3600.0}}
    assert bench._compare_throughput(
        [], {"a": 1.0}, throughput, "smoke", 0.25, 0.25
    ) == []
    assert "no same-mode trajectory baseline" in capsys.readouterr().out


def test_trajectory_pruned_to_keep_per_mode(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_obs.json"
    for i in range(30):
        bench._append_trajectory(out, {"a": 1.0 + i * 0.001}, {}, "smoke")
    doc = json.loads(out.read_text())
    runs = doc["runs"]
    assert len(runs) == bench.TRAJECTORY_KEEP_PER_MODE
    # Oldest runs dropped, numbering still monotonic from the max.
    assert [r["run"] for r in runs] == list(range(6, 31))
    number, priors = bench._append_trajectory(out, {"a": 2.0}, {}, "smoke")
    assert number == 31
    assert len(priors) == bench.TRAJECTORY_KEEP_PER_MODE


def test_trajectory_prunes_per_mode_independently(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_obs.json"
    for i in range(28):
        bench._append_trajectory(out, {"a": 1.0}, {}, "smoke")
    bench._append_trajectory(out, {"a": 1.0}, {}, "full")
    runs = json.loads(out.read_text())["runs"]
    modes = [r["mode"] for r in runs]
    assert modes.count("smoke") == bench.TRAJECTORY_KEEP_PER_MODE
    assert modes.count("full") == 1


def test_trajectory_migration_prunes_oversized_file(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_obs.json"
    runs = [
        {"run": i + 1, "mode": "smoke", "benches": {"a": 1.0},
         "total_seconds": 1.0, "wall_seconds": 1.0, "throughput": {}}
        for i in range(40)
    ]
    out.write_text(json.dumps(
        {"format": bench.TRAJECTORY_FORMAT, "runs": runs}
    ))
    number, priors = bench._append_trajectory(out, {"a": 1.0}, {}, "smoke")
    assert number == 41
    assert len(priors) == bench.TRAJECTORY_KEEP_PER_MODE
    doc = json.loads(out.read_text())
    assert [r["run"] for r in doc["runs"]][:3] == [17, 18, 19]
    assert len(doc["runs"]) == bench.TRAJECTORY_KEEP_PER_MODE


def test_archived_run_number_round_trip(tmp_path, monkeypatch):
    bench = load_bench_module()
    monkeypatch.setattr(bench, "TELEMETRY_DIR", tmp_path / "telemetry")
    path = bench._telemetry_path("smoke", 12, "bench_fig7")
    assert path.name == "smoke-run-12-bench_fig7.json"
    assert bench._archived_run_number(path, "smoke", "bench_fig7") == 12
    assert bench._archived_run_number(path, "full", "bench_fig7") is None
    assert bench._archived_run_number(path, "smoke", "bench_fig4") is None
    odd = tmp_path / "smoke-run-xx-bench_fig7.json"
    assert bench._archived_run_number(odd, "smoke", "bench_fig7") is None


def test_archive_telemetry_moves_and_prunes(tmp_path, monkeypatch):
    bench = load_bench_module()
    telemetry_dir = tmp_path / "telemetry"
    monkeypatch.setattr(bench, "TELEMETRY_DIR", telemetry_dir)
    for number in range(1, 9):
        scratch = tmp_path / f"scratch-{number}"
        scratch.mkdir()
        (scratch / "bench_x.json").write_text(json.dumps({"n": number}))
        bench._archive_telemetry(scratch, number, "smoke")
        assert not scratch.exists()  # scratch is consumed
    names = sorted(p.name for p in telemetry_dir.glob("*.json"))
    assert len(names) == bench.TELEMETRY_KEEP
    assert names[0] == f"smoke-run-{9 - bench.TELEMETRY_KEEP}-bench_x.json"
    assert names[-1] == "smoke-run-8-bench_x.json"
    # Another mode's archives are untouched by smoke pruning.
    scratch = tmp_path / "scratch-full"
    scratch.mkdir()
    (scratch / "bench_x.json").write_text(json.dumps({"n": 99}))
    bench._archive_telemetry(scratch, 1, "full")
    assert (telemetry_dir / "full-run-1-bench_x.json").exists()
    assert len(list(telemetry_dir.glob("smoke-*.json"))) == (
        bench.TELEMETRY_KEEP
    )


def make_prior(number, rate, name="bench_x", mode="smoke"):
    return {
        "run": number, "mode": mode, "benches": {name: 1.0},
        "throughput": {
            name: {"exchanges": rate, "simulated_s": 3600.0,
                   "exchanges_per_s": rate},
        },
    }


def test_median_baseline_run_selection():
    bench = load_bench_module()
    priors = [make_prior(n, rate) for n, rate in
              [(1, 100.0), (2, 90.0), (3, 110.0), (4, 105.0), (5, 95.0)]]
    # Median of [100, 90, 110, 105, 95] is 100 -> run 1.
    assert bench._median_baseline_run(priors, "bench_x", "smoke") == 1
    # Other modes and other benches never qualify.
    assert bench._median_baseline_run(priors, "bench_x", "full") is None
    assert bench._median_baseline_run(priors, "bench_y", "smoke") is None
    # Ties go to the most recent run.
    tied = [make_prior(1, 100.0), make_prior(2, 100.0)]
    assert bench._median_baseline_run(tied, "bench_x", "smoke") == 2


def test_triage_without_baseline_or_telemetry(tmp_path, monkeypatch, capsys):
    bench = load_bench_module()
    monkeypatch.setattr(bench, "TELEMETRY_DIR", tmp_path / "telemetry")
    bench._triage_failures(["bench_x: too slow"], [], 3, "smoke")
    out = capsys.readouterr().out
    assert "triage bench_x: no same-mode baseline run to diff" in out
    bench._triage_failures(
        ["bench_x: too slow"], [make_prior(1, 100.0)], 3, "smoke"
    )
    out = capsys.readouterr().out
    assert "no archived telemetry to diff" in out
    assert "smoke-run-1-bench_x.json" in out


def test_triage_diffs_against_median_baseline(tmp_path, monkeypatch, capsys):
    from repro.obs import Telemetry

    bench = load_bench_module()
    telemetry_dir = tmp_path / "telemetry"
    telemetry_dir.mkdir()
    monkeypatch.setattr(bench, "TELEMETRY_DIR", telemetry_dir)

    def snapshot(queries):
        telemetry = Telemetry.standalone()
        telemetry.metrics.counter("q_total").inc(queries)
        return telemetry.snapshot()

    baseline_path = bench._telemetry_path("smoke", 1, "bench_x")
    baseline_path.write_text(json.dumps(snapshot(100)))
    current_path = bench._telemetry_path("smoke", 2, "bench_x")
    current_path.write_text(json.dumps(snapshot(60)))
    bench._triage_failures(
        ["bench_x: 2.0s exceeds allowed"], [make_prior(1, 100.0)], 2, "smoke"
    )
    out = capsys.readouterr().out
    assert "triage bench_x: run 2 vs median baseline run 1" in out
    assert "q_total" in out
    # Identical archives triage to the identity line.
    current_path.write_text(json.dumps(snapshot(100)))
    bench._triage_failures(
        ["bench_x: 2.0s exceeds allowed"], [make_prior(1, 100.0)], 2, "smoke"
    )
    assert "snapshots are identical" in capsys.readouterr().out
