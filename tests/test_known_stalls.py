"""The known near-optimal stalls of the fuzz corpus, kept visible.

Each law below keeps a draw of ``test_random_scenarios.random_problem`` an
exact program (reordered, relaxed or scaled), yet the draws named here stop
as NumericalFailure at a gap tolerance of 1e-9, within a small factor of it:
ROADMAP items 13 and 17 mend them.  They are strict expected failures, so a
change that mends one fails here until its mark goes.

These tests live apart from ``test_random_scenarios``, which the benchmark's
``fuzz_oracle`` workload imports for its generator: that module imports
neither pytest nor ``conftest``.
"""

from dataclasses import replace

import pytest

from conftest import corpus_draw, scale_f_n_max, scale_problem
from test_random_scenarios import TIGHT
from screwgrasp.problem import compile_program
from screwgrasp.solver import solve


LAWS = {
    "as drawn": lambda p: p,
    "contacts reversed": lambda p: replace(p, manipulator_contacts=p.manipulator_contacts[::-1],
                                           environment_contacts=p.environment_contacts[::-1]),
    "f_n_max x2": lambda p: scale_f_n_max(p, 2.0),
    "scale_problem x3": lambda p: scale_problem(p, 3.0),
}

# (law, generator seed, trial) and the status of the draw as drawn
KNOWN_STALLS = [
    ("contacts reversed", 2, 191, "Optimal"),
    ("contacts reversed", 6, 3, "Optimal"),
    ("contacts reversed", 6, 46, "Optimal"),
    ("f_n_max x2", 5, 177, "Infeasible"),
    ("f_n_max x2", 5, 206, "Infeasible"),
    ("scale_problem x3", 1, 100, "Optimal"),
    ("scale_problem x3", 3, 155, "Optimal"),
    ("as drawn", 2, 9, "NumericalFailure"),  # defect 2
]


@pytest.mark.parametrize("law, seed, trial, as_drawn", [case for case in KNOWN_STALLS if case[0] != "as drawn"])
def test_known_stall_draws_as_drawn(law, seed, trial, as_drawn):
    """The draws that a law makes stall are rebuilt as the corpus draws them,
    and solve cleanly as drawn."""
    problem, direction = corpus_draw(seed, trial)
    assert solve(compile_program(problem, direction), TIGHT).status == as_drawn


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="near-optimal stall: NumericalFailure within a small factor of the gap tolerance "
                          "(ROADMAP items 13 and 17)")
@pytest.mark.parametrize("law, seed, trial, as_drawn", KNOWN_STALLS)
def test_known_stall_solves_cleanly(law, seed, trial, as_drawn):
    """Each law keeps the draw's program exact (reordered, relaxed or scaled),
    so the solve ends Optimal, Infeasible or Unbounded, as the corpus's other
    draws do."""
    problem, direction = corpus_draw(seed, trial)
    res = solve(compile_program(LAWS[law](problem), direction), TIGHT)
    assert res.status in ("Optimal", "Infeasible", "Unbounded"), (res.status, res.iterations, res.certificate)
