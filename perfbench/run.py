"""Benchmark of screw-grasp: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload eval_grid|batch_cli|fuzz_oracle \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop: one caller in
one thread sends each call only after the previous one returned.  After one
untimed warm-up block, a fixed number of blocks of operations runs: about
``--seconds`` of CPU time on the reference machine, so that the same seed
always gives the same operations.  Every operation's output is checked (see
workloads.py).

Times are CPU time of the whole process, all threads: on a shared virtual
machine that leaves out the time the host ran other guests instead (steal).
Between operations a calibration kernel runs (calibrate.py); the time
metrics are divided by its slowdown against the idle reference machine.
The unscaled CPU times and the wall-clock times are printed beside them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every block twice, untraced and then with spans recorded around the
program's public functions (spans.py), half as many blocks; it prints
the per-layer metrics of BENCHMARK.json and writes the spans to
``perfbench/out/spans-<workload>-seed<N>.jsonl``.

Human-readable lines come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 unless an output disagreed with the committed reference (then 1,
after the result line) or the run could not start (2, no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import spans
from calibrate import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# fresh-process set-ups per run; setup_s is their median
SETUP_RUNS = 5
# latency_ms_tail is the highest of these percentiles with >= 10 samples beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least TAIL_BEYOND of n samples beyond it."""
    ok = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_BEYOND]
    return max(ok) if ok else None


class Record:
    """Timings and checks of the measured operations of one pass.

    Each operation is timed twice: in CPU time of the whole process (all
    threads; the time metrics) and in wall-clock time (printed for people).
    Calibration rounds run between operations and are in neither.
    """

    def __init__(self, label: str):
        self.label = label
        self.latency_ms: list[float] = []  # CPU time per operation
        self.wall_latency_ms: list[float] = []
        self.cpu_s = 0.0  # both summed over operations
        self.wall_s = 0.0
        self.blocks = 0
        self.solves = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.failures: list[str] = []
        self.cal = Calibration()


def run_block(block, rec: Record, tracer=None, op_span: str = "op") -> None:
    for op in block:
        rec.attempted += 1
        op_id = rec.attempted
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                res = op()
            else:
                with tracer.operation(op_id), tracer.span(op_span):
                    res = op()
            solves, failure, mismatch = res.solves, res.failure, res.mismatch
        except Exception as exc:  # an exception from the program is a failed operation
            solves, failure, mismatch = 0, f"{type(exc).__name__}: {exc}", False
        cpu_s, wall_s = time.process_time() - c0, time.perf_counter() - t0
        rec.latency_ms.append(cpu_s * 1e3)
        rec.wall_latency_ms.append(wall_s * 1e3)
        rec.cpu_s += cpu_s
        rec.wall_s += wall_s
        rec.solves += solves
        if failure is not None:
            rec.failed += 1
            rec.mismatches += mismatch
            rec.failures.append(f"{rec.label} op {op_id}: {failure}")
        rec.cal.after(cpu_s)
    rec.blocks += 1


def measure(wl, n_blocks: int, label: str = "untraced") -> Record:
    """Run ``n_blocks`` blocks, with calibration rounds between operations."""
    rec = Record(label)
    blocks = wl.blocks()
    for _ in range(n_blocks):
        run_block(next(blocks), rec)  # drawing inputs is not timed
    return rec


def measure_traced(wl, n_blocks: int, tracer) -> tuple[Record, Record]:
    """Run each of ``n_blocks`` blocks untraced and then again traced.

    Pairing the two runs of a block keeps a slow moment of the machine from
    landing on one side only, so their ratio is the cost of tracing.
    """
    plain, traced = Record("untraced"), Record("traced")
    blocks = wl.blocks()
    for _ in range(n_blocks):
        block = next(blocks)
        run_block(block, plain)
        with spans.instrument(tracer):
            run_block(block, traced, tracer, wl.op_span)
    return plain, traced


def setup_seconds(workload: str, seed: int, runs: int) -> list[float]:
    """Import-plus-set-up CPU time of ``runs`` fresh interpreters, one after another."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str:
    """HEAD of the checkout's own .git, read from files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import nonblank_src_lines

    def blas(config) -> str:
        try:
            return str(config(mode="dicts")["Build Dependencies"]["blas"].get("version"))
        except (KeyError, TypeError):
            return "unknown"

    pool = ThreadPoolExecutor()  # starts no thread until work is submitted
    pool_size = pool._max_workers
    pool.shutdown()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "sweep_pool_default_threads": pool_size,
        "load_generator_threads": 1,
        "src.nonblank_lines": nonblank_src_lines(),
        "git_commit": git_commit(),
    }


def end_to_end(rec: Record, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics: CPU times divided by the calibration slowdown.

    Set-up runs just before the measurement, so it is scaled by the same
    slowdown, which rests on far more rounds than a few set-ups could take.
    """
    lat = sorted(rec.latency_ms)
    wall = sorted(rec.wall_latency_ms)
    p_tail = tail_percentile(len(lat))

    def tail(values):
        return percentile(values, p_tail) if p_tail is not None else values[-1]

    slow = rec.cal.slowdown()
    raw = {
        "setup_s": statistics.median(setup),
        "solves_per_s": rec.solves / rec.cpu_s,
        "latency_ms_p50": percentile(lat, 50.0),
        "latency_ms_tail": tail(lat),
    }
    metrics = {
        "setup_s": (raw["setup_s"] / slow, "s"),
        "solves_per_s": (raw["solves_per_s"] * slow, "1/s"),
        "latency_ms_p50": (raw["latency_ms_p50"] / slow, "ms"),
        "latency_ms_tail": (raw["latency_ms_tail"] / slow, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups; unscaled CPU {raw['setup_s']:.6g} s",
        "solves_per_s": (f"{rec.solves} solves in {rec.cpu_s:.2f} CPU s of {rec.blocks} blocks;"
                         f" unscaled {raw['solves_per_s']:.6g}, wall-clock {rec.solves / rec.wall_s:.6g}"),
        "latency_ms_p50": (f"n={len(lat)}; unscaled CPU {raw['latency_ms_p50']:.6g},"
                           f" wall-clock {percentile(wall, 50.0):.6g}"),
        "latency_ms_tail": ((f"p{p_tail:g} of n={len(lat)}, {sum(1 for v in lat if v > raw['latency_ms_tail'])}"
                             f" beyond" if p_tail is not None
                             else f"max of n={len(lat)}, too few for a percentile with {TAIL_BEYOND} beyond")
                            + f"; unscaled CPU {raw['latency_ms_tail']:.6g}, wall-clock {tail(wall):.6g}"),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    lines = [f"{k:<16} {v:.6g} {u:<6} ({notes[k]})" for k, (v, u) in metrics.items()]
    share = rec.failed / rec.attempted
    lines.insert(4, f"{'failed_share':<16} {share:.6g} fraction ({rec.failed} of {rec.attempted}"
                    f" operations; also the result's failed/attempted)")
    lines.append(f"{'slowdown':<16} {slow:.4g} (CPU time of a calibration round over its time"
                 f" on the idle reference machine; {rec.cal.rounds} rounds)")
    return metrics, lines


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             setup_runs: int = SETUP_RUNS, reference: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the human-readable lines."""
    import workloads  # imports screwgrasp, so only once main() found it

    cls = workloads.WORKLOADS[workload]
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
             "meta " + json.dumps(run_metadata(seed), sort_keys=True)]
    wl = cls(seed, reference)
    measure(wl, 1, label="warm-up")  # first calls, BLAS and allocator set-up
    if not trace:
        setup = setup_seconds(workload, seed, setup_runs)
        rec = measure(wl, wl.run_blocks(seconds))
        metrics, more = end_to_end(rec, setup)
        records = [rec]
    else:
        tracer = spans.Tracer()
        cls(seed, reference, span=tracer.span)  # set-up again, for its scenario builds
        plain, traced = measure_traced(wl, wl.run_blocks(seconds / 2), tracer)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_share"] = (traced.cpu_s / plain.cpu_s - 1.0, "ratio")
        metrics["src.nonblank_lines"] = (workloads.nonblank_src_lines(), "count")
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        more = [f"{k:<34} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        more.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        records = [plain, traced]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    mismatches = sum(r.mismatches for r in records)
    failures = [f for r in records for f in r.failures]
    lines += more
    if failures:
        lines.append(f"failures ({len(failures)}):")
        lines += ["  " + f for f in failures[:20]]
        if len(failures) > 20:
            lines.append(f"  ... {len(failures) - 20} more")
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["eval_grid", "batch_cli", "fuzz_oracle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "screwgrasp", ROOT / "tests" / "test_random_scenarios.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    result, lines = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
