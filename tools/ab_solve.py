"""Interleaved in-process A/B timing of this checkout's solver against another's.

    python3 tools/ab_solve.py OTHER_CHECKOUT [--calls N] [--batch-calls M]

Loads ``OTHER_CHECKOUT/src/screwgrasp/solver.py`` as a module beside this
checkout's solver (it imports this checkout's ``problem`` and ``contacts``),
compiles the programs once with this checkout, and calls the two solvers in
turn, alternating which goes first, so that both see the same machine state:

* ``solve`` on the bundled door, pivot and slide programs (N calls each side);
* ``solve_batch`` on the door, pivot and slide sweeps of the ``batch_cli``
  workload (41, 17 and 17 points; M calls each side).

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
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from screwgrasp import solver  # noqa: E402
from screwgrasp.problem import compile_program  # noqa: E402
from screwgrasp.scenarios import builtin_scenario  # noqa: E402
from solve_digest import result_bytes  # noqa: E402


def load_other(checkout: Path):
    """The other checkout's solver module, as a sibling of this checkout's."""
    path = checkout / "src" / "screwgrasp" / "solver.py"
    spec = importlib.util.spec_from_file_location("screwgrasp._ab_other_solver", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def cases() -> list[tuple[str, str, object]]:
    """(name, solver function name, argument) of every timed case."""
    alphas = np.radians(np.linspace(0.0, 60.0, 17))
    door = [compile_program(builtin_scenario("door_handle", x_c=0.0, theta=float(t)).problem(), +1)
            for t in np.radians(np.linspace(0.0, 40.0, 41))]
    pivot = [compile_program(builtin_scenario("cuboid_pivot", alpha=float(a)).problem(), +1) for a in alphas]
    slide = [compile_program(builtin_scenario("cuboid_slide", alpha=float(a)).problem(), +1) for a in alphas]
    single = [(f"solve {name}", "solve", compile_program(builtin_scenario(name).problem(), +1))
              for name in ("door_handle", "cuboid_pivot", "cuboid_slide")]
    return single + [("solve_batch door sweep (41)", "solve_batch", door),
                     ("solve_batch pivot sweep (17)", "solve_batch", pivot),
                     ("solve_batch slide sweep (17)", "solve_batch", slide)]


def as_bytes(res) -> bytes:
    return b"".join(map(result_bytes, res)) if isinstance(res, list) else result_bytes(res)


def timed(fn, arg) -> float:
    t0 = time.process_time()
    fn(arg)
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
    for name, fname, arg in cases():
        mine, theirs = getattr(solver, fname), getattr(other, fname)
        if as_bytes(mine(arg)) != as_bytes(theirs(arg)):
            print(f"{name}: results differ")
            return 1
        calls = args.calls if fname == "solve" else args.batch_calls
        t_mine, t_theirs = [], []
        for k in range(calls):
            if k % 2:
                t_theirs.append(timed(theirs, arg))
                t_mine.append(timed(mine, arg))
            else:
                t_mine.append(timed(mine, arg))
                t_theirs.append(timed(theirs, arg))
        a10, a50 = np.percentile(t_mine, [10, 50]) * 1e3
        b10, b50 = np.percentile(t_theirs, [10, 50]) * 1e3
        paired = np.median(np.array(t_mine) / np.array(t_theirs))
        print(f"{name:30s} {a10:9.3f} {b10:9.3f} {a10 / b10:6.3f} {a50:9.3f} {b50:9.3f} {a50 / b50:6.3f} {paired:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
