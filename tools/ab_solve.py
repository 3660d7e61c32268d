"""Interleaved in-process A/B timing of this checkout's solver against another's.

    python3 tools/ab_solve.py OTHER_CHECKOUT [--calls N] [--batch-calls M]

Loads ``OTHER_CHECKOUT/src/screwgrasp/solver.py`` and the ``contacts.py``
beside it next to this checkout's modules.  The other solver imports its own
``contacts``, so each side builds the oracle's rays with its own code, and
this checkout's ``problem``.  The tool compiles the programs once with this
checkout and calls the two solvers in turn, alternating which goes first, so
that both see the same machine state:

* ``solve`` on the bundled door, pivot and slide programs (N calls each side);
* ``solve_with_oracle`` at 64 facets on the same three programs (N calls);
* ``solve_batch`` on the door, pivot and slide sweeps of the ``batch_cli``
  workload (41, 17 and 17 points) and on the programs its ``gws_slide`` job
  hands to ``solve_batch`` (M calls each side);
* ``solve_with_oracle`` at 32 facets on each of the first 200 draws of the
  ``fuzz_oracle`` corpus, one call of the case being all 200 (M calls).

Each result of one solver must equal the other's byte for byte.  Times are
process CPU time, which other processes on a shared machine disturb less
than wall time.  For every case it prints the p10 and p50 time per call of
both sides, their ratios this / other, and the median of the per-pair
ratios (each call of this side over the other side's call next to it), so
a ratio above 1 means this checkout is slower.  Run it from
the root of a checkout, with another checkout (for example a ``git archive``
of the parent commit) as the argument.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
import types
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from screwgrasp import cli, metric, solver  # noqa: E402
from screwgrasp.problem import compile_program  # noqa: E402
from screwgrasp.scenarios import builtin_scenario  # noqa: E402
from solve_digest import result_bytes  # noqa: E402  (puts this checkout's root on sys.path)
from perfbench import workloads  # noqa: E402


def load_other(checkout: Path):
    """The other checkout's solver module, as a sibling of this checkout's.

    It lives in a package of its own whose ``contacts`` is the other
    checkout's and whose ``errors``, ``screws`` and ``problem`` are this
    checkout's, so both sides read the same compiled programs."""
    package = "screwgrasp_ab_other"
    pkg = types.ModuleType(package)
    pkg.__path__ = [str(checkout / "src" / "screwgrasp")]
    sys.modules[package] = pkg
    for name in ("errors", "screws", "problem"):
        sys.modules[f"{package}.{name}"] = sys.modules[f"screwgrasp.{name}"]
    for name in ("contacts", "solver"):
        path = checkout / "src" / "screwgrasp" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"{package}.{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return module


def job_programs(name: str) -> list:
    """The programs the ``batch_cli`` job ``name`` hands to ``solve_batch``,
    recorded while the job runs with its output sent to the null device."""
    seen = []

    def record(progs, settings=None):
        seen.extend(progs)
        return solver.solve_batch(progs, settings)

    with mock.patch.object(metric, "solve_batch", record):
        cli.main([*dict(workloads.BATCH_JOBS)[name], "--out", os.devnull])
    return seen


def cases() -> list[tuple[str, bool, object]]:
    """(name, whether it is a batch case, call on a solver module) of every timed case."""
    alphas = np.radians(np.linspace(0.0, 60.0, 17))
    door = [compile_program(builtin_scenario("door_handle", x_c=0.0, theta=float(t)).problem(), +1)
            for t in np.radians(np.linspace(0.0, 40.0, 41))]
    pivot = [compile_program(builtin_scenario("cuboid_pivot", alpha=float(a)).problem(), +1) for a in alphas]
    slide = [compile_program(builtin_scenario("cuboid_slide", alpha=float(a)).problem(), +1) for a in alphas]
    gws = job_programs("gws_slide")
    bundled = {name: compile_program(builtin_scenario(name).problem(), +1)
               for name in ("door_handle", "cuboid_pivot", "cuboid_slide")}
    corpus = [compile_program(prob, direction) for gen_seed in workloads.FUZZ_GENERATOR_SEEDS
              for prob, direction, _trial in workloads.FuzzOracle(seed=0)._draws(gen_seed)][:200]
    return ([(f"solve {name}", False, lambda mod, p=prog: mod.solve(p)) for name, prog in bundled.items()]
            + [(f"oracle@64 {name}", False, lambda mod, p=prog: mod.solve_with_oracle(p, 64))
               for name, prog in bundled.items()]
            + [(f"solve_batch {name} sweep ({len(progs)})", True, lambda mod, ps=progs: mod.solve_batch(ps))
               for name, progs in (("door", door), ("pivot", pivot), ("slide", slide))]
            + [(f"solve_batch gws_slide ({len(gws)})", True, lambda mod: mod.solve_batch(gws))]
            + [(f"oracle@{workloads.FUZZ_FACETS} fuzz corpus ({len(corpus)})", True,
                lambda mod: [mod.solve_with_oracle(p, workloads.FUZZ_FACETS) for p in corpus])])


def as_bytes(res) -> bytes:
    return b"".join(map(result_bytes, res)) if isinstance(res, list) else result_bytes(res)


def timed(call, module) -> float:
    t0 = time.process_time()
    call(module)
    return time.process_time() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="root of the other checkout")
    ap.add_argument("--calls", type=int, default=300, help="single-solve calls per side and case")
    ap.add_argument("--batch-calls", type=int, default=60, help="solve_batch calls per side and case")
    args = ap.parse_args(argv)
    other = load_other(args.other.resolve())
    print(f"this: {ROOT}\nother: {args.other.resolve()}")
    print(f"{'case':30s} {'this p10':>9s} {'other p10':>9s} {'ratio':>6s} "
          f"{'this p50':>9s} {'other p50':>9s} {'ratio':>6s} {'paired':>6s}   (ms)")
    for name, batch, call in cases():
        if as_bytes(call(solver)) != as_bytes(call(other)):
            print(f"{name}: results differ")
            return 1
        t_mine, t_theirs = [], []
        for k in range(args.batch_calls if batch else args.calls):
            if k % 2:
                t_theirs.append(timed(call, other))
                t_mine.append(timed(call, solver))
            else:
                t_mine.append(timed(call, solver))
                t_theirs.append(timed(call, other))
        a10, a50 = np.percentile(t_mine, [10, 50]) * 1e3
        b10, b50 = np.percentile(t_theirs, [10, 50]) * 1e3
        paired = np.median(np.array(t_mine) / np.array(t_theirs))
        print(f"{name:30s} {a10:9.3f} {b10:9.3f} {a10 / b10:6.3f} {a50:9.3f} {b50:9.3f} {a50 / b50:6.3f} {paired:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
