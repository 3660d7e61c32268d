"""Print one SHA-256 over the solver's results on the benchmark's inputs.

A change meant to speed the solver up without changing its arithmetic must
leave this digest unchanged.  Run it at the parent commit and at the change,
from the root of each checkout, and compare the two lines:

    python3 tools/solve_digest.py

The inputs are those of ``perfbench/workloads.py``: every ``eval_grid`` point
(compiled and solved with the default settings), and every draw of the
2000-draw ``fuzz_oracle`` corpus, solved by the interior-point method and by
the LP oracle with the benchmark's settings.  Each result contributes its
status, iteration count, objective, certificate, residuals and primal bytes.
Takes about a minute.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402  (puts this checkout's src/ on sys.path)
from screwgrasp import problem, scenarios, solver  # noqa: E402


def result_bytes(res: solver.SolveResult) -> bytes:
    """Every field of a SolveResult that the arithmetic decides, as bytes."""
    objective = b"none" if res.objective is None else struct.pack("<d", res.objective)
    resid = struct.pack("<3d", res.residuals.primal, res.residuals.cone, res.residuals.gap)
    primal = b"none" if res.primal is None else res.primal.astype("<f8").tobytes()
    text = f"{res.status}|{res.iterations}|{res.certificate}|".encode()
    return text + objective + resid + primal


def main() -> int:
    digest = hashlib.sha256()
    counts = {"eval_grid": 0, "fuzz_socp": 0, "fuzz_oracle": 0}
    for name, params, direction in workloads.eval_grid_points():
        prob = scenarios.builtin_scenario(name, **params).problem()
        digest.update(result_bytes(solver.solve(problem.compile_program(prob, direction))))
        counts["eval_grid"] += 1
    corpus = workloads.FuzzOracle(seed=0)
    for gen_seed in workloads.FUZZ_GENERATOR_SEEDS:
        for prob, direction, _trial in corpus._draws(gen_seed):
            prog = problem.compile_program(prob, direction)
            digest.update(result_bytes(solver.solve(prog, workloads.FUZZ_SETTINGS)))
            digest.update(result_bytes(solver.solve_with_oracle(prog, workloads.FUZZ_FACETS)))
            counts["fuzz_socp"] += 1
            counts["fuzz_oracle"] += 1
    print(" ".join(f"{k}={v}" for k, v in counts.items()), f"results={sum(counts.values())}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
