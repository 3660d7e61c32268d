"""The three benchmark workloads: ``eval_grid``, ``batch_cli`` and ``fuzz_oracle``.

Importing this module imports ``screwgrasp`` from ``src/`` of the checkout
that holds it, and the fuzz generator from ``tests/``; nothing else.

A workload is built from its seed (set-up) and then hands out *blocks* of
operations.  The harness times whole blocks for throughput and single
operations for latency.  A run of ``--seconds`` measures a fixed number of
blocks, ``run_blocks(seconds)``: about that much CPU time on the reference
machine (``block_cpu_s`` per block), so that a seed always gives the same
operations, however fast the shared host is at the time.  Every operation
checks its own output:

* ``eval_grid`` and ``batch_cli`` compare against the committed reference in
  ``perfbench/reference/`` (written by ``make_reference.py``).  A mismatch is
  both a failed operation and a wrong output (``correct`` becomes false).
* ``fuzz_oracle`` has no reference; it applies the oracle contract of
  ``tests/test_random_scenarios.test_random_battery_against_oracle``.  A
  breach is a failed operation, never hidden and never a harness error.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = Path(__file__).resolve().parent / "out"

for _p in (ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy as np  # noqa: E402

import screwgrasp  # noqa: E402

if not Path(screwgrasp.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"screwgrasp imported from {screwgrasp.__file__}, not from {ROOT / 'src'}")

from screwgrasp import cli, metric, problem, scenarios, solver  # noqa: E402

# eta must agree with the reference to this share of max(1, |eta_ref|);
# it equals the default relative duality-gap tolerance of SolveSettings
ETA_RTOL = 1e-6

# statuses the solver may return on a well-posed program
CLEAN_STATUSES = ("Optimal", "Infeasible", "Unbounded")

FUZZ_SETTINGS = solver.SolveSettings(duality_gap_tol=1e-9)
FUZZ_FACETS = 32
FUZZ_GENERATOR_SEEDS = range(1, 9)
FUZZ_TRIALS = 250
FUZZ_CHUNK = 25  # trials per block; small, so a run that covers part of the corpus samples it evenly


class Workload:
    """What the harness needs of a workload besides its blocks."""

    # CPU seconds of one block on the idle reference machine (calibrate.NOMINAL_S)
    block_cpu_s: float

    def run_blocks(self, seconds: float) -> int:
        """Blocks in a run of ``seconds``: at least one."""
        return max(1, round(seconds / self.block_cpu_s))


@dataclass
class OpResult:
    """Outcome of one operation: solves completed and why it failed, if it did.

    ``mismatch`` marks a failure that contradicts the committed reference.
    """

    solves: int
    failure: str | None = None
    mismatch: bool = False


def _nullspan(_name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# eval_grid: serial local_metric calls on the acceptance-suite grid
# ---------------------------------------------------------------------------

def eval_grid_points() -> list[tuple[str, dict[str, float], int]]:
    """(builtin, parameters, direction) for every point, in reference order.

    The grid is the one of tests/test_acceptance.py: door ``x_c x theta``
    (41 angles over 0..40 deg) and cuboid ``alpha x x_E``, both directions.
    """
    pts = []
    for x_c in (0.0, 0.05, 0.10, 0.15):
        for theta in np.radians(np.linspace(0.0, 40.0, 41)):
            pts.append(("door_handle", {"x_c": x_c, "theta": float(theta)}))
    for name in ("cuboid_pivot", "cuboid_slide"):
        for x_E in (0.06, 0.09, 0.12):
            for alpha in np.radians(np.arange(0, 61, 10)):
                pts.append((name, {"alpha": float(alpha), "x_E": x_E}))
    return [(name, params, d) for name, params in pts for d in (+1, -1)]


def point_key(name: str, params: dict[str, float], direction: int) -> str:
    args = " ".join(f"{k}={v!r}" for k, v in sorted(params.items()))
    return f"{name} {args} dir={direction:+d}"


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_eta(status: str, eta: float | None, ref: dict) -> str | None:
    """Reason the (status, eta) pair disagrees with its reference, or None."""
    if status != ref["status"]:
        return f"status {status} != reference {ref['status']}"
    if (eta is None) != (ref["eta"] is None):
        return f"eta {eta} != reference {ref['eta']}"
    if eta is not None and abs(eta - ref["eta"]) > ETA_RTOL * max(1.0, abs(ref["eta"])):
        return f"eta {eta!r} != reference {ref['eta']!r} (rtol {ETA_RTOL:g})"
    return None


class EvalGrid(Workload):
    """Serial ``metric.local_metric`` calls, one eta per operation."""

    name = "eval_grid"
    op_span = "eval.point"
    block_cpu_s = 3.3

    def __init__(self, seed: int, reference: dict | None = None, span=_nullspan):
        self.reference = reference if reference is not None else load_reference(self.name)
        points = eval_grid_points()
        if [point_key(*p) for p in points] != [r["key"] for r in self.reference["points"]]:
            raise RuntimeError("eval_grid reference does not match the grid; rerun make_reference.py")
        built: dict[tuple, object] = {}
        self.cases = []
        for (name, params, d), ref in zip(points, self.reference["points"]):
            key = (name, tuple(sorted(params.items())))
            if key not in built:
                with span("scenarios.build"):
                    built[key] = scenarios.builtin_scenario(name, **params).problem()
            self.cases.append((built[key], d, ref))
        self.order = np.random.default_rng(seed).permutation(len(self.cases))

    def blocks(self):
        """Endless blocks of every grid point once, in one seeded order."""
        while True:
            yield [lambda case=self.cases[k]: self.run(*case) for k in self.order]

    @staticmethod
    def run(prob, direction: int, ref: dict) -> OpResult:
        try:
            r = metric.local_metric(prob, direction)
        except Exception as exc:  # the reference has no exceptions
            return OpResult(1, f"{type(exc).__name__}: {exc}", mismatch=True)
        why = check_eta(r.status, r.eta, ref)
        if why is not None:
            return OpResult(1, why, mismatch=True)
        if r.status not in CLEAN_STATUSES:
            return OpResult(1, f"status {r.status}")
        return OpResult(1)


# ---------------------------------------------------------------------------
# batch_cli: in-process CLI jobs writing CSV, as in the README
# ---------------------------------------------------------------------------

# (name, argv without --out); the sweeps use the program's default worker pool
BATCH_JOBS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sweep_door", ("sweep", "--builtin", "door_handle", "--set", "x_c=0",
                    "--sweep", "theta=0deg:40deg:41")),
    ("sweep_pivot", ("sweep", "--builtin", "cuboid_pivot", "--set", "x_E=0.4L",
                     "--sweep", "alpha=0deg:60deg:17")),
    ("sweep_slide_push", ("sweep", "--builtin", "cuboid_slide", "--set", "x_E=0.4L",
                          "--dir", "+", "--sweep", "alpha=0deg:60deg:17")),
    ("sweep_slide_pull", ("sweep", "--builtin", "cuboid_slide", "--set", "x_E=0.4L",
                          "--dir", "-", "--sweep", "alpha=0deg:60deg:17")),
    ("gws_slide", ("gws", "--builtin", "cuboid_slide", "--set", "alpha=50deg",
                   "--set", "x_E=0.4L", "--subspace", "fx,fz,ty", "--rays", "8")),
)


def csv_without_wall_ms(text: str) -> str:
    """The CSV with its wall-clock column removed; everything else byte for byte."""
    lines = text.split("\n")
    header = lines[0].split(",")
    if "wall_ms" not in header:
        return text
    drop = header.index("wall_ms")
    return "\n".join(
        ",".join(f for i, f in enumerate(line.split(",")) if i != drop) if line else line
        for line in lines
    )


def run_cli_job(argv: list[str], out: Path) -> tuple[int, str]:
    """``cli.main(argv + --out)``, its exit code and the CSV it wrote."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


class BatchCli(Workload):
    """In-process ``cli.main`` jobs; each writes its CSV to a file under
    ``perfbench/out/`` that is read back and removed."""

    name = "batch_cli"
    op_span = "cli.job"
    block_cpu_s = 2.6

    def __init__(self, seed: int, reference: dict | None = None, span=_nullspan):
        self.reference = reference if reference is not None else load_reference(self.name)
        refs = {job["name"]: job for job in self.reference["jobs"]}
        self.jobs = []
        for name, argv in BATCH_JOBS:
            ref = refs.get(name)
            if ref is None or tuple(ref["argv"]) != argv:
                raise RuntimeError(f"batch_cli reference has no job {name} {argv}; rerun make_reference.py")
            self.jobs.append((name, list(argv), ref))
        self.order = np.random.default_rng(seed).permutation(len(self.jobs))
        OUT_DIR.mkdir(exist_ok=True)
        self.out = OUT_DIR / f"batch_cli-{os.getpid()}.csv"

    def blocks(self):
        """Endless rounds of every job once, in one seeded order."""
        while True:
            yield [lambda job=self.jobs[k]: self.run(job[1], job[2], self.out) for k in self.order]

    @staticmethod
    def run(argv: list[str], ref: dict, out: Path) -> OpResult:
        try:
            code, text = run_cli_job(argv, out)
        except Exception as exc:  # the reference has no exceptions
            return OpResult(0, f"{type(exc).__name__}: {exc}", mismatch=True)
        finally:
            out.unlink(missing_ok=True)
        rows = text.count("\n") - 1 if text else 0
        if code != ref["exit"]:
            return OpResult(rows, f"exit code {code} != expected {ref['exit']}", mismatch=True)
        got = csv_without_wall_ms(text)
        if got != ref["csv"]:
            return OpResult(rows, "CSV differs from reference (wall_ms excluded)", mismatch=True)
        return OpResult(rows)


# ---------------------------------------------------------------------------
# fuzz_oracle: seeded random programs, solved and checked against the oracle
# ---------------------------------------------------------------------------

def oracle_breach(res, lp) -> str | None:
    """The contract of test_random_battery_against_oracle, as a reason or None."""
    if res.status not in CLEAN_STATUSES:
        return f"solver returned {res.status} ({res.certificate})"
    if res.status == "Optimal" and lp.status == "Optimal":
        if lp.objective > res.objective + 1e-7 * max(1.0, abs(res.objective)):
            return f"oracle {lp.objective!r} exceeds SOCP optimum {res.objective!r}"
    elif res.status == "Infeasible" and lp.status == "Optimal":
        return "SOCP Infeasible but oracle Optimal"
    elif res.status == "Unbounded" and lp.status == "Infeasible":
        return "SOCP Unbounded but oracle Infeasible"
    return None


class FuzzOracle(Workload):
    """Draws of ``tests/test_random_scenarios.random_problem``, solved with a
    1e-9 gap tolerance and cross-checked with the LP oracle at 32 facets.

    The draws are a fixed corpus: trials 0-249 of the test's loop run with
    ``default_rng(g)`` for each generator seed ``g`` in 1..8 (the same rng
    supplies each problem and its direction).  It holds every known
    oracle-contract breach of ROADMAP item 2.  The run's seed only orders the
    corpus, in chunks of FUZZ_CHUNK trials, so that every run measures nearly
    the same mix of structures.  As a run measures a fixed number of chunks,
    a seed always meets the same draws and the same known breaches.
    """

    name = "fuzz_oracle"
    op_span = "fuzz.draw"
    block_cpu_s = 0.5

    def __init__(self, seed: int, reference: dict | None = None, span=_nullspan):
        import test_random_scenarios

        self.random_problem = test_random_scenarios.random_problem
        chunks = [(g, c) for g in FUZZ_GENERATOR_SEEDS for c in range(FUZZ_TRIALS // FUZZ_CHUNK)]
        self.order = [chunks[i] for i in np.random.default_rng(seed).permutation(len(chunks))]
        self._drawn: dict[int, list] = {}

    def run_blocks(self, seconds: float) -> int:
        """As for every workload, but at most the corpus, each chunk once."""
        return min(len(self.order), super().run_blocks(seconds))

    def _draws(self, gen_seed: int) -> list:
        """(problem, direction, trial) of every trial of one generator seed, drawn once."""
        if gen_seed not in self._drawn:
            rng = np.random.default_rng(gen_seed)
            cases = []
            for trial in range(FUZZ_TRIALS):
                prob = self.random_problem(rng)
                if prob is not None:
                    cases.append((prob, +1 if rng.random() < 0.5 else -1, trial))
            self._drawn[gen_seed] = cases
        return self._drawn[gen_seed]

    def blocks(self):
        """Endless chunks of the corpus in the seeded order; drawing is not timed."""
        for i in itertools.count():
            g, c = self.order[i % len(self.order)]
            chunk = [case for case in self._draws(g) if case[2] // FUZZ_CHUNK == c]
            yield [lambda case=case, g=g: self.run(g, *case) for case in chunk]

    @staticmethod
    def run(gen_seed: int, prob, direction: int, trial: int) -> OpResult:
        prog = problem.compile_program(prob, direction)
        res = solver.solve(prog, FUZZ_SETTINGS)
        lp = solver.solve_with_oracle(prog, FUZZ_FACETS)
        why = oracle_breach(res, lp)
        if why is not None:
            return OpResult(1, f"generator seed {gen_seed} trial {trial}: {why}")
        return OpResult(1)


WORKLOADS = {w.name: w for w in (EvalGrid, BatchCli, FuzzOracle)}


def nonblank_src_lines() -> int:
    """Non-blank lines of the Python sources under src/ (ROADMAP's size measure)."""
    return sum(
        1
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
