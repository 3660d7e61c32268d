"""Interleaved in-process A/B timing of this checkout against another.

    python3 tools/ab_solve.py OTHER_CHECKOUT [--calls N] [--batch-calls M] [--only TEXT ...]

Loads ``OTHER_CHECKOUT/src/screwgrasp`` as a package of its own
(``screwgrasp_ab_other``) beside this checkout's ``screwgrasp``, so each side
runs only its own code, and calls the two sides in turn, alternating which
goes first, so that both see the same machine state:

* ``builtin_scenario`` of the bundled door, pivot and slide scenarios (N calls
  each side);
* ``compile_program`` on the bundled door, pivot and slide problems (N calls
  each side);
* ``solve`` on the bundled door, pivot and slide programs (N calls each side);
* ``solve_with_oracle`` at 64 facets on the same three programs (N calls);
* the ``eval_grid`` workload's operation: ``local_metric`` on each of its 412
  grid points, one call of the case being all 412 (M calls);
* ``grid`` on the door, pivot and slide sweeps of the ``batch_cli`` workload
  (41, 17 and 17 points): ``metric_sweep`` of the side's ``scenario_family``
  from the grid values up to the stacks it hands to ``solve_batch`` (building
  and compiling every point; M calls each side);
* ``solve_batch`` on the stacks that ``compile_stacks`` writes for the door,
  pivot and slide sweeps of the ``batch_cli`` workload (41, 17 and 17
  points) and on what the ``gws_slide`` job hands to ``solve_batch`` (M
  calls each side);
* ``solve_batch corpus stacks``: ``solve_batch`` at ``FUZZ_SETTINGS`` on the
  stacks of 3 or more rows that ``compile_stacks`` writes for the 2000 draws
  of the ``fuzz_oracle`` corpus, a direction at a time (57 stacks, 1564
  rows, whose rows stop at many different passes; M calls each side);
* ``solve_with_oracle`` at 32 facets on each of the first 200 draws of the
  ``fuzz_oracle`` corpus, one call of the case being all 200 (M calls);
* the ``fuzz_oracle`` operation on the same 200 draws: per draw, the three
  calls of ``FuzzOracle.run`` (``compile_program``, ``solve`` at
  ``FUZZ_SETTINGS`` and ``solve_with_oracle`` at 32 facets), one call of the
  case being all 200 (M calls);
* each of the five ``batch_cli`` jobs, run whole through the side's own
  ``cli.main`` (build, compile, solve, CSV; M calls);
* ``stack of k`` for k = 1, 2, 3 and 4: this checkout's ``solve_batch`` on
  the stack of the first k programs of the pivot sweep, run as one stacked
  interior-point loop (``solver._MIN_BATCH`` set to 1 for the call), against
  this checkout's ``solve`` of the same k programs one by one (M calls).  Both
  columns of these cases are this checkout, stack first: a ratio below 1 means
  the stack beats k single solves, which is how ``_MIN_BATCH`` is chosen.

Each side compiles its own programs from its own scenarios, outside the
timed calls (the ``compile`` and ``eval_grid`` cases build each side's
problems outside them and compile inside); the fuzz corpus, drawn with this
checkout's generator, is compiled once by this checkout and handed to both
oracles, while the ``fuzz op`` and ``corpus stacks`` cases hand each side
the drawn problems rebuilt from its own classes (``fuzz op`` times its own
compile).  The results of each case's first pair of calls, which are timed
too, must be equal byte for byte, and each job's CSV the other side's with
the ``wall_ms`` column left out.  Times are process CPU time,
which other processes on a shared machine disturb less than wall time.  For
every case it prints the p10 and p50 time per call of both sides, their
ratios this / other, and the median of the per-pair ratios (each call of
this side over the other side's call next to it), so a ratio above 1 means
this checkout is slower.  ``--only TEXT`` (repeatable) times only the cases
whose name contains one of the texts, for example ``--only job`` to skip the
slow oracle case.  Run it from the root of a checkout, with another checkout
(for example a ``git archive`` of the parent commit) as the argument.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import pickle
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import screwgrasp  # noqa: E402
from screwgrasp import cli, metric, problem, scenarios, solver  # noqa: E402, F401  (the package's modules, loaded)
from solve_digest import result_bytes  # noqa: E402  (puts this checkout's root on sys.path)
from perfbench import workloads  # noqa: E402

OTHER = "screwgrasp_ab_other"


def load_other(checkout: Path):
    """The other checkout's ``screwgrasp`` package, imported as ``OTHER``
    with every module of its own."""
    src = checkout / "src" / "screwgrasp"
    spec = importlib.util.spec_from_file_location(OTHER, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[OTHER] = package  # dataclasses look their module up there
    spec.loader.exec_module(package)
    for name in ("cli", "metric", "problem", "scenarios", "solver"):
        importlib.import_module(f"{OTHER}.{name}")
    return package


class _Remap(pickle.Unpickler):
    """Unpickles this checkout's ``screwgrasp`` objects as ``OTHER``'s."""

    def find_class(self, module, name):
        if module.split(".")[0] == "screwgrasp":
            module = OTHER + module[len("screwgrasp"):]
        return super().find_class(module, name)


def in_package(pkg, obj):
    """``obj``, built from this checkout's classes, as built from ``pkg``'s."""
    return obj if pkg is screwgrasp else _Remap(io.BytesIO(pickle.dumps(obj))).load()


def job_inputs(pkg, name: str) -> list:
    """What the ``batch_cli`` job ``name`` hands to ``solve_batch`` when run by ``pkg``."""
    seen = []

    def record(progs, settings=None):
        seen.extend(progs)
        return pkg.solver.solve_batch(progs, settings)

    with mock.patch.object(pkg.metric, "solve_batch", record):
        run_job(pkg, name)
    return seen


def run_job(pkg, name: str) -> str:
    """The CSV the ``batch_cli`` job ``name`` writes when run by ``pkg``, without its wall_ms column."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main([*dict(workloads.BATCH_JOBS)[name], "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"job {name} exited {code}")
        return workloads.csv_without_wall_ms(out.read_text(encoding="utf-8"))


def sweep(pkg, name: str, param: str, values, **fixed) -> list:
    """The stacks ``pkg`` compiles for a sweep of ``name`` over ``param``."""
    scenarios = [pkg.scenarios.builtin_scenario(name, **fixed, **{param: float(v)}) for v in values]
    return pkg.problem.compile_stacks([s.problem() for s in scenarios], +1)[0]


class _Stacks(Exception):
    """Raised in place of ``solve_batch`` with the stacks it was handed."""


def sweep_stacks(pkg, name: str, param: str, values, **fixed):
    """The call that runs ``pkg``'s ``metric_sweep`` of ``name`` over ``param``
    up to ``solve_batch`` and returns the stacks it would hand to it."""
    family = pkg.scenarios.scenario_family(pkg.scenarios.builtin_scenario(name, **fixed), param)

    def stop(stacks, settings=None):
        raise _Stacks(stacks)

    def call():
        original, pkg.metric.solve_batch = pkg.metric.solve_batch, stop
        try:
            pkg.metric.metric_sweep(family, values)
        except _Stacks as exc:
            return exc.args[0]
        finally:
            pkg.metric.solve_batch = original
    return call


def stacked_against_single(pkg, k: int, alphas):
    """The two calls of the ``stack of k`` case, both ``pkg``'s: ``solve_batch``
    of the first k pivot sweep programs as one stacked run, and ``solve`` of each."""
    stacks = sweep(pkg, "cuboid_pivot", "alpha", alphas[:k])
    progs = [st.program(i) for st in stacks for i in range(len(st))]

    def stacked():
        least, pkg.solver._MIN_BATCH = pkg.solver._MIN_BATCH, 1
        try:
            return pkg.solver.solve_batch(stacks)
        finally:
            pkg.solver._MIN_BATCH = least
    return stacked, lambda: [pkg.solver.solve(prog) for prog in progs]


def cases() -> list[tuple[str, bool, object]]:
    """(name, whether it is a batch case, sides) of every timed case;
    ``sides(this, other)`` returns the two calls that are timed, one per side:
    ``prepare(this)`` and ``prepare(other)`` for a case that compares the
    checkouts."""
    alphas = np.radians(np.linspace(0.0, 60.0, 17))
    thetas = np.radians(np.linspace(0.0, 40.0, 41))
    points = workloads.eval_grid_points()
    every = [(prob, direction) for gen_seed in workloads.FUZZ_GENERATOR_SEEDS
             for prob, direction, _trial in workloads.FuzzOracle(seed=0)._draws(gen_seed)]
    draws = every[:200]
    corpus = [problem.compile_program(prob, direction) for prob, direction in draws]

    def bundled(pkg, name):
        return pkg.problem.compile_program(pkg.scenarios.builtin_scenario(name).problem(), +1)

    def sweep_case(name, param, values, **fixed):
        def prepare(pkg):
            stacks = sweep(pkg, name, param, values, **fixed)
            return lambda: pkg.solver.solve_batch(stacks)
        return prepare

    def compile_case(pkg, name):
        prob = pkg.scenarios.builtin_scenario(name).problem()
        return lambda: pkg.problem.compile_program(prob, +1)

    def fuzz_op(pkg):
        """FuzzOracle.run's three calls on each draw, with ``pkg``'s own code."""
        mine, settings = in_package(pkg, (draws, workloads.FUZZ_SETTINGS))

        def call():
            out = []
            for prob, direction in mine:
                prog = pkg.problem.compile_program(prob, direction)
                out += [pkg.solver.solve(prog, settings), pkg.solver.solve_with_oracle(prog, workloads.FUZZ_FACETS)]
            return out
        return call

    def eval_case(pkg):
        """``local_metric`` on every ``eval_grid`` point, as the workload calls it."""
        probs = [(pkg.scenarios.builtin_scenario(name, **params).problem(), direction)
                 for name, params, direction in points]
        return lambda: [pkg.metric.local_metric(prob, direction).solve_result for prob, direction in probs]

    def corpus_stacks(pkg):
        """``solve_batch`` of the corpus's stacks of 3 or more rows, compiled by ``pkg``."""
        mine, settings = in_package(pkg, (every, workloads.FUZZ_SETTINGS))
        stacks = [st for d in (+1, -1) for st in pkg.problem.compile_stacks([p for p, pd in mine if pd == d], d)[0]
                  if len(st) >= 3]
        return lambda: pkg.solver.solve_batch(stacks, settings)

    def gws_case(pkg):
        inputs = job_inputs(pkg, "gws_slide")
        return lambda: pkg.solver.solve_batch(inputs)

    names = ("door_handle", "cuboid_pivot", "cuboid_slide")
    both = ([(f"builtin {name}", False, lambda pkg, n=name: lambda: pkg.scenarios.builtin_scenario(n))
             for name in names]
            + [(f"compile {name}", False, lambda pkg, n=name: compile_case(pkg, n)) for name in names]
            + [(f"solve {name}", False, lambda pkg, n=name: (lambda p=bundled(pkg, n): pkg.solver.solve(p)))
             for name in names]
            + [(f"oracle@64 {name}", False,
                lambda pkg, n=name: (lambda p=bundled(pkg, n): pkg.solver.solve_with_oracle(p, 64))) for name in names]
            + [(f"eval_grid local_metric ({len(points)})", True, eval_case),
               ("grid door sweep (41)", True, lambda pkg: sweep_stacks(pkg, "door_handle", "theta", thetas, x_c=0.0)),
               ("grid pivot sweep (17)", True, lambda pkg: sweep_stacks(pkg, "cuboid_pivot", "alpha", alphas)),
               ("grid slide sweep (17)", True, lambda pkg: sweep_stacks(pkg, "cuboid_slide", "alpha", alphas)),
               ("solve_batch door sweep (41)", True, sweep_case("door_handle", "theta", thetas, x_c=0.0)),
               ("solve_batch pivot sweep (17)", True, sweep_case("cuboid_pivot", "alpha", alphas)),
               ("solve_batch slide sweep (17)", True, sweep_case("cuboid_slide", "alpha", alphas)),
               ("solve_batch gws_slide", True, gws_case),
               ("solve_batch corpus stacks", True, corpus_stacks)]
            + [(f"oracle@{workloads.FUZZ_FACETS} fuzz corpus ({len(corpus)})", True,
                lambda pkg: (lambda: [pkg.solver.solve_with_oracle(p, workloads.FUZZ_FACETS) for p in corpus])),
               (f"fuzz op ({len(draws)})", True, fuzz_op)]
            + [(f"job {name}", True, lambda pkg, n=name: (lambda: run_job(pkg, n)))
               for name, _ in workloads.BATCH_JOBS])
    return ([(name, batch, lambda this, other, prepare=prepare: (prepare(this), prepare(other)))
             for name, batch, prepare in both]
            + [(f"stack of {k} vs {k} singles (pivot)", True,
                lambda this, other, k=k: stacked_against_single(this, k, alphas)) for k in (1, 2, 3, 4)])


def as_bytes(res) -> bytes:
    if isinstance(res, str):
        return res.encode()
    if isinstance(res, list) and res and hasattr(res[0], "labels"):  # program stacks: their arrays, in order
        return b"".join(v.tobytes() for st in res for v in (st.f, st.F, st.g, st.lb, st.ub, *sum(st.socs, ())))
    if hasattr(res, "tasks"):  # a scenario: its file
        return json.dumps(sys.modules[type(res).__module__].scenario_to_dict(res)).encode()
    if hasattr(res, "socs"):  # a compiled program: its arrays, in order
        parts = [res.f, res.F, res.g, res.lb, res.ub, *(v for blk in res.socs for v in (blk.A, blk.b, blk.c))]
        return b"".join(v.tobytes() for v in parts) + repr([blk.d for blk in res.socs]).encode()
    return b"".join(map(result_bytes, res)) if isinstance(res, list) else result_bytes(res)


def timed(call) -> tuple[float, object]:
    t0 = time.process_time()
    res = call()
    return time.process_time() - t0, res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="root of the other checkout")
    ap.add_argument("--calls", type=int, default=300, help="single-solve calls per side and case")
    ap.add_argument("--batch-calls", type=int, default=60, help="batch and job calls per side and case")
    ap.add_argument("--only", action="append", default=[], metavar="TEXT",
                    help="time only the cases whose name contains TEXT (repeatable)")
    args = ap.parse_args(argv)
    other = load_other(args.other.resolve())
    print(f"this: {ROOT}\nother: {args.other.resolve()}")
    print(f"{'case':30s} {'this p10':>9s} {'other p10':>9s} {'ratio':>6s} "
          f"{'this p50':>9s} {'other p50':>9s} {'ratio':>6s} {'paired':>6s}   (ms)")
    for name, batch, sides in cases():
        if args.only and not any(text in name for text in args.only):
            continue
        mine, theirs = sides(screwgrasp, other)
        t_mine, t_theirs = [], []
        for k in range(args.batch_calls if batch else args.calls):
            (a, got), (b, want) = (timed(theirs), timed(mine))[::-1] if k % 2 else (timed(mine), timed(theirs))
            if k == 0 and as_bytes(got) != as_bytes(want):  # the first pair's results, compared
                print(f"{name}: results differ")
                return 1
            t_mine.append(a)
            t_theirs.append(b)
        a10, a50 = np.percentile(t_mine, [10, 50]) * 1e3
        b10, b50 = np.percentile(t_theirs, [10, 50]) * 1e3
        paired = np.median(np.array(t_mine) / np.array(t_theirs))
        print(f"{name:30s} {a10:9.3f} {b10:9.3f} {a10 / b10:6.3f} {a50:9.3f} {b50:9.3f} {a50 / b50:6.3f} {paired:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
