"""Check the duality law on the fuzz corpus: each program and its conic dual,
both solved by the interior-point method, must pair up.

    python3 tools/duality.py              # the 2000-draw corpus; about 15 s
    python3 tools/duality.py --draws 20   # its first 20 draws

The dual of a program is ``dual_program`` of ``tests/conftest.py``, and the
draws are its ``fuzz_corpus``, the corpus of ``perfbench/workloads.py``.  Both
solves use the benchmark's fuzz settings (``duality_gap_tol=1e-9``).  By weak
and strong duality (Boyd and Vandenberghe, section 5.9) the statuses pair up:

* Optimal with Optimal, at values within 1e-8 max(1, |eta|) of each other
  (the dual program's optimum is -eta);
* Infeasible with Unbounded, or with Infeasible;
* Unbounded with Infeasible.

Anything else is a break.  The tool prints the count of each pair of
statuses (primal/dual), the largest relative difference of the Optimal
pairs, and each break by (generator seed, trial); it exits 1 if there is a
break.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402  (puts src/ and tests/ on sys.path)
from screwgrasp import problem, solver  # noqa: E402

import conftest  # noqa: E402  (tests/: the fuzz corpus and dual_program)

# the dual statuses each primal status may pair with
PAIRS = {"Optimal": ("Optimal",), "Infeasible": ("Unbounded", "Infeasible"), "Unbounded": ("Infeasible",)}
ETA_RTOL = 1e-8


def solve_pair(prog: problem.ConicProgram) -> tuple[solver.SolveResult, solver.SolveResult]:
    """The results of ``prog`` and of its conic dual, at the fuzz settings."""
    return (solver.solve(prog, workloads.FUZZ_SETTINGS),
            solver.solve(conftest.dual_program(prog), workloads.FUZZ_SETTINGS))


def relative_difference(primal: solver.SolveResult, dual: solver.SolveResult) -> float:
    """|eta - (-dual optimum)| / max(1, |eta|) of an Optimal pair."""
    return abs(primal.objective + dual.objective) / max(1.0, abs(primal.objective))


def law_break(primal: solver.SolveResult, dual: solver.SolveResult) -> str | None:
    """How a program's and its dual's results break the law, or None."""
    if dual.status not in PAIRS.get(primal.status, ()):
        return f"{primal.status} ({primal.certificate}) against {dual.status} ({dual.certificate})"
    if primal.status == "Optimal" and relative_difference(primal, dual) > ETA_RTOL:
        return f"eta {primal.objective!r} against {-dual.objective!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check the duality law on the fuzz corpus.")
    parser.add_argument("--draws", type=int, help="check only the first DRAWS draws of the corpus (default: all)")
    args = parser.parse_args(argv)
    pairs, largest, breaks = Counter(), 0.0, []
    for seed, trial, p, direction in conftest.fuzz_corpus()[: args.draws]:
        primal, dual = solve_pair(problem.compile_program(p, direction))
        pairs[f"{primal.status}/{dual.status}"] += 1
        if primal.status == dual.status == "Optimal":
            largest = max(largest, relative_difference(primal, dual))
        if (why := law_break(primal, dual)) is not None:
            breaks.append(f"break ({seed}, {trial}): {why}")
    for pair, count in pairs.most_common():
        print(f"{pair}: {count}")
    print(f"largest relative difference of the Optimal pairs: {largest:.2g}")
    for line in breaks:
        print(line)
    print(f"{len(breaks)} breaks in {pairs.total()} draws")
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main())
