"""The physical-law battery on a seeded pick of the fuzz corpus.

Each law maps a draw of ``test_random_scenarios.random_problem`` to a program
whose optimum it fixes exactly, so a break is a solver defect:

* the contacts reversed, or the whole scenario re-framed by one seeded
  rigid motion (``transform_problem``), keep the status and eta;
* every finite ``f_n_max`` scaled by 2 relaxes the program, so eta never
  falls (Optimal never turns Infeasible); scaled by 0.5 it tightens it, so
  eta never rises;
* every limit and load scaled by 3 (``scale_problem``) scales eta by 3.

Eta is read as the program maximizes it: -inf for Infeasible, +inf for
Unbounded.  Values agree within 1e-7 max(1, |eta|); statuses exactly.  Every
solve runs at the benchmark's fuzz settings, and each must end Optimal,
Infeasible or Unbounded.  The pick meets none of the known breaks of
``test_known_stalls``; a break a pick meets is listed here by (law,
generator seed, trial) as a strict expected failure naming ROADMAP items 13
and 17, never avoided by another seed.
"""

import functools
import math

import numpy as np
import pytest

from conftest import corpus_pick, scale_f_n_max, transform_problem
from test_known_stalls import LAWS as MOVES
from test_random_scenarios import random_rotation
from perfbench.workloads import FUZZ_SETTINGS
from screwgrasp.problem import compile_program
from screwgrasp.solver import solve

TOL = 1e-7
DRAWS = {(seed, trial): (problem, direction) for seed, trial, problem, direction in corpus_pick(80, 10)}
_rng = np.random.default_rng(10)
MOTION = random_rotation(_rng), _rng.uniform(-1.0, 1.0, 3)


def eta(res) -> float:
    return {"Optimal": res.objective, "Infeasible": -math.inf, "Unbounded": math.inf}[res.status]


def same(k):
    """eta scaled by k, and the status kept."""
    def holds(before, after):
        want = k * eta(before)
        return after.status == before.status and (
            math.isinf(want) or abs(eta(after) - want) <= TOL * max(1.0, abs(want)))
    return holds


def no_lower(before, after):
    """eta does not fall (an infinite one only to itself)."""
    return eta(after) >= eta(before) or eta(after) >= eta(before) - TOL * max(1.0, abs(eta(before)))


LAWS = {
    "contacts reversed": (MOVES["contacts reversed"], same(1.0)),
    "transform_problem": (lambda p: transform_problem(p, *MOTION), same(1.0)),
    "f_n_max x2": (MOVES["f_n_max x2"], no_lower),
    "f_n_max x0.5": (lambda p: scale_f_n_max(p, 0.5), lambda before, after: no_lower(after, before)),
    "scale_problem x3": (MOVES["scale_problem x3"], same(3.0)),
}


@functools.cache
def as_drawn(seed: int, trial: int):
    problem, direction = DRAWS[seed, trial]
    return solve(compile_program(problem, direction), FUZZ_SETTINGS)


@pytest.mark.parametrize("law, seed, trial", [(law, *draw) for law in LAWS for draw in DRAWS])
def test_law(law, seed, trial):
    (move, holds), (problem, direction) = LAWS[law], DRAWS[seed, trial]
    before = as_drawn(seed, trial)
    after = solve(compile_program(move(problem), direction), FUZZ_SETTINGS)
    certified = ("Optimal", "Infeasible", "Unbounded")
    assert before.status in certified and after.status in certified, (before.status, after.status)
    assert holds(before, after), (before.status, before.objective, after.status, after.objective)
