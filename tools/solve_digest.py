"""Print SHA-256 digests over the solver's results on the benchmark's inputs.

A change meant to speed the solver up without changing its arithmetic must
leave all nine digests unchanged; a change to the LP oracle's results alone
leaves the interior-point, sweep, batch, presolve, limit, stacked corpus and
dual digests unchanged and moves only the two oracle digests.  Run it on the change and on the
parent commit (another checkout, for example a ``git archive`` of it, digested
by this file's lines through ``--root`` if it has ``solver._presolve``, else by
its own copy of this tool), and compare the outputs:

    python3 tools/solve_digest.py
    python3 tools/solve_digest.py --root ../parent

The interior-point digest (second line) covers the inputs of
``perfbench/workloads.py``: every ``eval_grid`` point (compiled and solved
alone with the default settings), and every draw of the 2000-draw
``fuzz_oracle`` corpus, solved by the interior-point method with the
benchmark's settings.  Each result contributes its status, iteration count,
objective, certificate, residuals and primal bytes.

The oracle digest (third line) covers the same 2000 draws solved by the LP
oracle at the benchmark's facet count, each result's bytes as above.

The sweep digest (fourth line) covers the multi-point jobs: the
``metric_sweep`` rows of the four ``batch_cli`` sweep jobs (run through the
CLI) and of the door acceptance sweeps (x_c in 0, 0.05, 0.10, 0.15; 41 angles;
both directions), each row's status, iteration count and eta bytes, and the
``gws_sample`` rays of ``gws --builtin cuboid_slide --rays 64``, each ray's
status and eta bytes.

The batch digest (fifth line) covers what the sweep digest leaves out of
the multi-point jobs: every ``solve_batch`` result, all of its bytes as in the
first digest, of the five ``batch_cli`` jobs (four sweeps and one GWS probe,
run through the CLI) and of the door acceptance sweeps.

The presolve digest (sixth line) covers the programs of the second: what
``solver._presolve`` returns for each one as a stack of one (standard form,
equilibration and the two reductions): c, A, b, G, h, the column scales and
the basis, with their shapes, and the masks of the reductions that ran.  It
pins the presolve's arithmetic directly, not only through the results it
leads to.

The 64-facet oracle digest (seventh line) covers the LP oracle at 64
facets, the facet count of ``oracle-check`` in the README: the six bundled
programs (door, pivot and slide, both directions) and the first 200 draws
of the corpus, each result's bytes as above.

The limit digest (eighth line) covers the failure exits that report a best
iterate: every ``eval_grid`` program and the first 500 draws of the corpus,
each solved alone, and the stacks that the five ``batch_cli`` jobs hand to
``solve_batch``, each solved as one stack, all at ``max_iterations`` 1, 2 and
3 (the benchmark's settings otherwise), each result's bytes as above.

The stacked corpus digest (ninth line) covers the 2000 draws of the corpus
once more, each direction's draws compiled into stacks by
``problem.compile_stacks`` and solved by ``solver.solve_batch`` at the
benchmark's fuzz settings, each result's bytes as above, in corpus order.
Its rows stop at many different passes and by different exits.  The line
also counts the mismatches: the rows whose bytes differ from the same
draw's single solve (of the second line), which must be 0: the tool
exits 1 when it is not, after printing every line.

The dual digest (tenth line) covers the conic duals of the 2000 draws
(``dual_program`` of ``tests/conftest.py``), each solved alone at the
benchmark's fuzz settings, each result's bytes as above.  The corpus reaches
presolve's free-ray mark on few draws; its duals reach it on about a quarter,
and the loop's improving ray on about half.  The whole run takes about 30 s
on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # the checkout to digest, read before its packages are imported
    _parser = argparse.ArgumentParser(description="Digest the solver's results on the benchmark's inputs.")
    _parser.add_argument("--root", type=Path, default=ROOT,
                         help="root of the checkout to digest (default: the one holding this file)")
    ROOT = _parser.parse_args().root.resolve()
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402  (puts this checkout's src/ and tests/ on sys.path)
from screwgrasp import cli, metric, problem, scenarios, solver  # noqa: E402

import conftest  # noqa: E402  (tests/: dual_program)


def result_bytes(res: solver.SolveResult) -> bytes:
    """Every field of a SolveResult that the arithmetic decides, as bytes."""
    objective = b"none" if res.objective is None else struct.pack("<d", res.objective)
    resid = struct.pack("<3d", res.residuals.primal, res.residuals.cone, res.residuals.gap)
    primal = b"none" if res.primal is None else res.primal.astype("<f8").tobytes()
    text = f"{res.status}|{res.iterations}|{res.certificate}|".encode()
    return text + objective + resid + primal


def presolved_bytes(prog: problem.ConicProgram) -> bytes:
    """One program's presolved form and exit masks, as ``solver._presolve``
    returns them, as bytes."""
    sf, masks = solver._presolve(problem.ProgramStack.of([prog]))
    arrays = [getattr(sf, name) for name in ("c", "A", "b", "G", "h", "col_scale", "basis")]
    return b"|".join([b"none" if v is None else f"{v.shape}".encode() + v.astype("<f8").tobytes() for v in arrays]
                     + [np.asarray(m).tobytes() for m in masks])


def eta_bytes(eta: float | None) -> bytes:
    return b"none" if eta is None else struct.pack("<d", eta)


def cli_results(argv: list[str], name: str) -> list:
    """What ``cli.<name>`` (metric_sweep or gws_sample) returned while the CLI ran ``argv``."""
    original, captured = getattr(cli, name), []

    def record(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    setattr(cli, name, record)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = workloads.run_cli_job(argv, Path(tmp) / "out.csv")
    finally:
        setattr(cli, name, original)
    if code != 0 or len(captured) != 1:
        raise RuntimeError(f"{argv} exited {code} after {len(captured)} call(s) of {name}")
    return captured[0]


def sweep_digest() -> str:
    """The sweep digest line: CLI sweeps, door acceptance sweeps, 64-ray GWS."""
    digest = hashlib.sha256()
    rows = []
    for _name, argv in workloads.BATCH_JOBS:
        if argv[0] == "sweep":
            rows += cli_results(list(argv), "metric_sweep")
    thetas = np.radians(np.linspace(0.0, 40.0, 41))
    for x_c in (0.0, 0.05, 0.10, 0.15):
        family = scenarios.scenario_family(scenarios.builtin_scenario("door_handle", x_c=x_c), "theta")
        for direction in (+1, -1):
            rows += metric.metric_sweep(family, thetas, direction)
    for r in rows:
        digest.update(f"{r.status}|{r.iterations}|".encode() + eta_bytes(r.eta))
    rays = cli_results(["gws", "--builtin", "cuboid_slide", "--rays", "64"], "gws_sample")
    for ray in rays:
        digest.update(f"{ray.status}|".encode() + eta_bytes(ray.eta))
    return f"sweep_rows={len(rows)} gws_rays={len(rays)} sweep_digest={digest.hexdigest()}"


@contextlib.contextmanager
def batches():
    """Record each ``solve_batch`` call of ``metric`` in the block, as its
    (stacks, settings, results), in the list it gives."""
    calls, original = [], metric.solve_batch

    def record(stacks, settings=None):
        calls.append((stacks, settings or solver.SolveSettings(), original(stacks, settings)))
        return calls[-1][2]

    metric.solve_batch = record
    try:
        yield calls
    finally:
        metric.solve_batch = original


def batch_cli_jobs() -> None:
    """Run the five ``batch_cli`` jobs through the CLI, writing to a temporary directory."""
    for _name, argv in workloads.BATCH_JOBS:
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = workloads.run_cli_job(list(argv), Path(tmp) / "out.csv")
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")


def batch_digest() -> str:
    """The batch digest line: every ``solve_batch`` result of the ``batch_cli``
    jobs and the door acceptance sweeps, recorded where ``metric`` calls it."""
    digest = hashlib.sha256()
    with batches() as calls:
        batch_cli_jobs()
        thetas = np.radians(np.linspace(0.0, 40.0, 41))
        for x_c in (0.0, 0.05, 0.10, 0.15):
            family = scenarios.scenario_family(scenarios.builtin_scenario("door_handle", x_c=x_c), "theta")
            for direction in (+1, -1):
                metric.metric_sweep(family, thetas, direction)
    results = [res for _stacks, _settings, found in calls for res in found]
    for res in results:
        digest.update(result_bytes(res))
    return f"batch_results={len(results)} batch_digest={digest.hexdigest()}"


def limit_digest(progs: list, draws: list) -> str:
    """The limit digest line: ``progs`` (at the default settings) and
    ``draws`` (at the benchmark's fuzz settings) solved alone, then the
    ``batch_cli`` jobs' stacks as stacks (at their jobs' settings), all at
    ``max_iterations`` 1, 2 and 3."""
    digest, count = hashlib.sha256(), 0
    with batches() as calls:
        batch_cli_jobs()
    for limit in (1, 2, 3):
        settings = solver.SolveSettings(max_iterations=limit)
        fuzz = replace(workloads.FUZZ_SETTINGS, max_iterations=limit)
        results = [solver.solve(prog, settings) for prog in progs] + [solver.solve(prog, fuzz) for prog in draws]
        for stacks, job_settings, _found in calls:
            results += solver.solve_batch(stacks, replace(job_settings, max_iterations=limit))
        for res in results:
            digest.update(result_bytes(res))
        count += len(results)
    return f"limited={count} limit_digest={digest.hexdigest()}"


def oracle64_digest(draws: list) -> str:
    """The 64-facet oracle digest line: the six bundled programs, then ``draws``."""
    digest = hashlib.sha256()
    bundled = [problem.compile_program(scenarios.builtin_scenario(name).problem(), direction)
               for name in ("door_handle", "cuboid_pivot", "cuboid_slide") for direction in (+1, -1)]
    for prog in bundled + draws:
        digest.update(result_bytes(solver.solve_with_oracle(prog, 64)))
    return f"oracle64={len(bundled) + len(draws)} oracle64_digest={digest.hexdigest()}"


def stacked_corpus_digest(draws: list, singles: list[bytes]) -> tuple[str, int]:
    """The stacked corpus digest line and its count of mismatches: ``draws``,
    (problem, direction) in corpus order, compiled by ``compile_stacks`` and
    solved by ``solve_batch`` a direction at a time, at the benchmark's fuzz
    settings, against ``singles``, the bytes of each draw's single solve."""
    got: list = [None] * len(draws)
    for direction in (+1, -1):
        members = [i for i, (_prob, d) in enumerate(draws) if d == direction]
        stacks, placed = problem.compile_stacks([draws[i][0] for i in members], direction)
        results = solver.solve_batch(stacks, workloads.FUZZ_SETTINGS)
        starts = np.cumsum([0] + [len(st) for st in stacks])
        for i, where in zip(members, placed):
            if isinstance(where, Exception):
                raise where
            got[i] = result_bytes(results[starts[where[0]] + where[1]])
    mismatches = sum(mine != single for mine, single in zip(got, singles))
    return (f"stacked_corpus={len(got)} mismatches={mismatches} "
            f"stacked_corpus_digest={hashlib.sha256(b''.join(got)).hexdigest()}"), mismatches


def main() -> int:
    digest, oracle, presolved, duals = hashlib.sha256(), hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    counts = {"eval_grid": 0, "fuzz_socp": 0, "fuzz_oracle": 0}
    grid, first_draws, draws, singles = [], [], [], []
    for name, params, direction in workloads.eval_grid_points():
        grid.append(prog := problem.compile_program(scenarios.builtin_scenario(name, **params).problem(), direction))
        digest.update(result_bytes(solver.solve(prog)))
        presolved.update(presolved_bytes(prog))
        counts["eval_grid"] += 1
    corpus = workloads.FuzzOracle(seed=0)
    for gen_seed in workloads.FUZZ_GENERATOR_SEEDS:
        for prob, direction, _trial in corpus._draws(gen_seed):
            prog = problem.compile_program(prob, direction)
            singles.append(result_bytes(solver.solve(prog, workloads.FUZZ_SETTINGS)))
            digest.update(singles[-1])
            draws.append((prob, direction))
            presolved.update(presolved_bytes(prog))
            oracle.update(result_bytes(solver.solve_with_oracle(prog, workloads.FUZZ_FACETS)))
            duals.update(result_bytes(solver.solve(conftest.dual_program(prog), workloads.FUZZ_SETTINGS)))
            counts["fuzz_socp"] += 1
            counts["fuzz_oracle"] += 1
            if len(first_draws) < 500:
                first_draws.append(prog)
    print(" ".join(f"{k}={v}" for k, v in counts.items()), f"results={sum(counts.values())}")
    print(digest.hexdigest())
    print(f"oracle_digest={oracle.hexdigest()}")
    print(sweep_digest())
    print(batch_digest())
    print(f"presolved={counts['eval_grid'] + counts['fuzz_socp']} presolve_digest={presolved.hexdigest()}")
    print(oracle64_digest(first_draws[:200]))
    print(limit_digest(grid, first_draws))
    line, mismatches = stacked_corpus_digest(draws, singles)
    print(line)
    print(f"duals={counts['fuzz_socp']} dual_digest={duals.hexdigest()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
