"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests -q

Every workload runs once at its smallest size (one warm-up block and one
measured block), untraced and traced; perturbed references must fail the
output check; a run's length and failures repeat for the same seed.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402
from screwgrasp.solver import Residuals, SolveResult  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}


def test_workloads_match_config():
    assert set(workloads.WORKLOADS) == {w["name"] for w in CONFIG["workloads"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_smoke(workload):
    result, lines = run.run_once(workload, seed=1, seconds=0, trace=False, setup_runs=1)
    assert result["correct"]
    assert result["attempted"] >= 1
    if workload != "fuzz_oracle":
        assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("failed_share") for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert meta["seed"] == 1 and meta["load_generator_threads"] == 1
    assert meta["src.nonblank_lines"] == workloads.nonblank_src_lines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_smoke(workload):
    result, _ = run.run_once(workload, seed=1, seconds=0, trace=True)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["solver.solve_ms_p50"] > 0
    assert metrics["problem.compile_ms_p50"] > 0
    path = workloads.OUT_DIR / f"spans-{workload}-seed1.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    ids = {r["id"] for r in records}
    assert all(r["parent"] is None or r["parent"] in ids for r in records)
    assert all(r["end_us"] >= r["start_us"] for r in records)
    if workload == "batch_cli":
        assert metrics["cli.job_ms_p50"] > metrics["cli.overhead_ms_p50"] > 0
        assert metrics["metric.sweep_concurrency"] > 0
        # sweep points run in worker threads but still hang off their sweep
        builds = [r for r in records if r["name"] == "scenarios.build"]
        sweeps = {r["id"] for r in records if r["name"] == "metric.sweep"}
        assert builds and all(r["parent"] in sweeps for r in builds)
    if workload == "fuzz_oracle":
        assert metrics["solver.oracle_ms_p50"] > 0


def test_eta_within_tolerance_passes_and_beyond_fails():
    ref = workloads.load_reference("eval_grid")
    close = copy.deepcopy(ref)
    far = copy.deepcopy(ref)
    for p in close["points"]:
        p["eta"] += 0.1 * workloads.ETA_RTOL * max(1.0, abs(p["eta"]))
    for p in far["points"]:
        p["eta"] += 10.0 * workloads.ETA_RTOL * max(1.0, abs(p["eta"]))
    ok, _ = run.run_once("eval_grid", seed=1, seconds=0, trace=False, setup_runs=1, reference=close)
    bad, lines = run.run_once("eval_grid", seed=1, seconds=0, trace=False, setup_runs=1, reference=far)
    assert ok["correct"] and ok["failed"] == 0
    assert not bad["correct"] and bad["failed"] == bad["attempted"]
    assert any("!= reference" in line for line in lines)


def test_perturbed_csv_row_fails():
    ref = workloads.load_reference("batch_cli")
    job = next(j for j in ref["jobs"] if j["name"] == "sweep_door")
    rows = job["csv"].split("\n")
    rows[3] = rows[3].replace("Optimal", "Infeasible")
    job["csv"] = "\n".join(rows)
    result, lines = run.run_once("batch_cli", seed=1, seconds=0, trace=False, setup_runs=1, reference=ref)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("CSV differs" in line for line in lines)


def test_mismatch_makes_the_command_exit_nonzero(monkeypatch, capsys):
    ref = workloads.load_reference("eval_grid")
    for p in ref["points"]:
        p["status"] = "Infeasible"
    monkeypatch.setattr(workloads, "load_reference", lambda name: ref)
    monkeypatch.setattr(run, "setup_seconds", lambda *a: [1.0])
    code = run.main(["--workload", "eval_grid", "--seed", "1", "--seconds", "0", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last)["correct"] is False


def test_run_length_and_failures_depend_on_seed_and_seconds_only():
    first, _ = run.run_once("fuzz_oracle", seed=3, seconds=1, trace=False, setup_runs=1)
    again, _ = run.run_once("fuzz_oracle", seed=3, seconds=1, trace=False, setup_runs=1)
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
    wl = workloads.FuzzOracle(3)
    assert wl.run_blocks(1) == 2
    assert wl.run_blocks(0) == 1
    assert wl.run_blocks(1e6) == len(wl.order)
    assert workloads.BatchCli(3).run_blocks(20) == 8


def test_time_metrics_are_divided_by_the_slowdown():
    cal = Calibration()
    cal.after(2.5 * calibrate.NOMINAL_S / calibrate.SHARE)  # 2.5 rounds due: 2 run now
    assert cal.rounds == 2 and cal.slowdown() > 0
    cal.after(0.6 * calibrate.NOMINAL_S / calibrate.SHARE)
    assert cal.rounds == 3
    rec = run.Record("untraced")
    rec.latency_ms = rec.wall_latency_ms = [10.0] * 20
    rec.cpu_s = rec.wall_s = 2.0
    rec.solves = rec.attempted = 20
    rec.cal.rounds, rec.cal.seconds = 4, 8 * calibrate.NOMINAL_S  # twice as slow as the reference
    metrics, _ = run.end_to_end(rec, [0.5, 0.7, 0.6])
    assert metrics["latency_ms_p50"][0] == pytest.approx(5.0)
    assert metrics["solves_per_s"][0] == pytest.approx(20.0)
    assert metrics["setup_s"][0] == pytest.approx(0.3)


def test_wall_ms_column_is_the_only_one_ignored():
    text = "param,eta,status,iterations,wall_ms\n0,1.5,Optimal,5,3.25\n"
    assert workloads.csv_without_wall_ms(text) == "param,eta,status,iterations\n0,1.5,Optimal,5\n"
    gws = "fx,fz,ty,eta,status\n0,0,1,2.4,Optimal\n"
    assert workloads.csv_without_wall_ms(gws) == gws


def _res(status, objective=None):
    return SolveResult(status, objective, None, Residuals(0.0, 0.0, 0.0), 0)


def test_oracle_contract():
    breach = workloads.oracle_breach
    assert breach(_res("Optimal", 1.0), _res("Optimal", 1.0)) is None
    assert breach(_res("Optimal", 1.0), _res("Optimal", 1.1)) is not None
    assert breach(_res("Infeasible"), _res("Infeasible")) is None
    assert breach(_res("Infeasible"), _res("Optimal", 0.5)) is not None
    assert breach(_res("Unbounded"), _res("Unbounded")) is None
    assert breach(_res("Unbounded"), _res("Infeasible")) is not None
    assert breach(_res("NumericalFailure"), _res("Optimal", 1.0)) is not None
    assert breach(_res("IterationLimit"), _res("Optimal", 1.0)) is not None


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(1000) == 99.0


def test_self_time_subtracts_the_union_of_children():
    s = [
        spans.Span(1, None, 1, "parent", 0, 10_000_000),
        spans.Span(2, 1, 1, "a", 1_000_000, 5_000_000),
        spans.Span(3, 1, 1, "b", 3_000_000, 6_000_000),  # overlaps a (another thread)
        spans.Span(4, 1, 1, "c", 8_000_000, 9_000_000),
    ]
    assert spans.self_times_ms(s)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "eval_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
