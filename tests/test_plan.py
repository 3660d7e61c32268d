"""The solver's per-structure plan (``solver._plan``): what every program of
one structure shares in presolve and the interior-point loop, built once per
structure and cached.  A result must not depend on what the cache holds, so
every program here is solved with the cache cleared before it, and again
among programs of other plans, the cache warm and cold, one by one and in
stacks: each result must be the same bytes.  The key must tell apart exactly
the programs that ``ProgramStack.of`` keeps apart, and nothing a plan holds
may be written to.
"""

from dataclasses import replace
from itertools import chain, zip_longest

import numpy as np
import pytest

from conftest import bundled_programs, corpus_draw, mkprog, soc, with_edge_cap
from solve_digest import result_bytes
from screwgrasp import solver
from screwgrasp.errors import CompileError
from screwgrasp.problem import ProgramStack, TorqueModel, compile_program, compile_stacks
from screwgrasp.scenarios import builtin_scenario, scenario_family

SETTINGS = solver.SolveSettings(duality_gap_tol=1e-9)

# fuzz-corpus draws (seed, trial) of each presolve exit: an inconsistent
# rank-deficient F x = g; a free ray on a feasible and on an infeasible
# program; null columns pinned without a free ray
FUZZ_EXITS = [(1, 3), (1, 55), (1, 187), (1, 7)]


def torque_problem():
    """The door problem with a two-joint torque model on its two fingers."""
    p = builtin_scenario("door_handle").problem()
    J = np.zeros((12, 2))
    J[2, 0], J[4, 0], J[8, 1], J[9, 1] = 1.0, 0.05, 1.0, -0.03
    return replace(p, torque_model=TorqueModel(jacobian=J, tau_g=[0.1, -0.2], tau_min=[-5.0, -4.0],
                                               tau_max=[5.0, 6.0]))


def hand_built() -> list:
    """Programs over 3 variables with 2 equality rows and x1 >= 0: one cone of
    2 rows and one of 3 (a plan apart for each row count), one with an
    all-zero row (presolve drops it) and one with an all-zero column (pinned);
    and two of no constraint at all (the degenerate exit)."""
    two = soc([[0, 0, 1]], [0], [1, 1, 0], 1.0)  # |x3| <= x1 + x2 + 1
    three = soc([[0, 0, 1], [1, 0, 0]], [0, 0.1], [0, 1, 0], 2.0)
    F, g, lb = [[1, 0, 0], [0, 1, 0]], [0.5, 0.2], [0.0, -np.inf, -np.inf]
    return [mkprog([0, 0, 1], F, g, (two,), lb=lb), mkprog([0, 0, 1], F, g, (three,), lb=lb),
            mkprog([0, 0, 1], [[1, 0, 0], [0, 0, 0], [0, 1, 0]], [0.5, 0.0, 0.2], (two,), lb=lb),
            mkprog([0, 0, 1, 0], [[1, 0, 0, 0], [0, 1, 0, 0]], g, (soc([[0, 0, 1, 0]], [0], [1, 1, 0, 0], 1.0),)),
            mkprog([1.0], np.zeros((0, 1)), []), mkprog([0.0], np.zeros((0, 1)), [])]


def programs() -> list:
    """Programs of many plans, each next to programs of other plans."""
    slide = builtin_scenario("cuboid_slide").problem()
    edges = [compile_program(with_edge_cap(slide, cap), d) for cap in (40.0, None) for d in (+1, -1)]
    torque = [compile_program(torque_problem(), d) for d in (+1, -1)]
    fuzz = [compile_program(*corpus_draw(*draw)) for draw in FUZZ_EXITS]
    groups = [bundled_programs(), edges, torque, hand_built(), fuzz]
    return [prog for prog in chain(*zip_longest(*groups)) if prog is not None]


def arrays(obj) -> list[np.ndarray]:
    """Every array a plan holds: in its attributes, in those of its cones, and
    in their lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in arrays(v)]
    if isinstance(obj, (solver._Plan, solver._Cone)):
        return [a for v in vars(obj).values() for a in arrays(v)]
    return []


@pytest.fixture
def cold_plans():
    solver._plan.cache_clear()
    yield
    solver._plan.cache_clear()


def alone(prog) -> bytes:
    """The result of ``prog`` solved with no plan cached."""
    solver._plan.cache_clear()
    return result_bytes(solver.solve(prog, SETTINGS))


def test_results_do_not_depend_on_the_cached_plans(cold_plans):
    progs = programs()
    want = [alone(prog) for prog in progs]
    assert {res.split(b"|")[0] for res in want} == {b"Optimal", b"Infeasible", b"Unbounded"}
    for exit_ in (b"(no constraints)", b"rank-deficient and inconsistent", b"no constraint sees", b"Farkas"):
        assert any(exit_ in res for res in want)
    solver._plan.cache_clear()
    for order in (range(len(progs)), reversed(range(len(progs)))):  # cold, then warm
        for k in order:
            assert result_bytes(solver.solve(progs[k], SETTINGS)) == want[k]
    assert solver._plan.cache_info().misses == len({id(solver._plan_of(ProgramStack.of([p]))) for p in progs})


def test_stacked_results_do_not_depend_on_the_cached_plans(cold_plans):
    """Stacks of two plans (an environment contact with and without f_n_max)
    and of the door, solved warm and cold: each row as the program alone."""
    slide = scenario_family(builtin_scenario("cuboid_slide"), "alpha")
    slide = [with_edge_cap(slide(a), None if k % 2 else 40.0) for k, a in enumerate(np.linspace(0.0, 1.0, 8))]
    door = [scenario_family(builtin_scenario("door_handle"), "theta")(t) for t in np.linspace(0.0, 0.6, 5)]
    stacks = compile_stacks(slide, -1)[0] + compile_stacks(door, +1)[0]
    want = [alone(st.program(k)) for st in stacks for k in range(len(st))]
    assert [len(st) for st in stacks] == [4, 4, 5]
    for clear in (True, False):
        if clear:
            solver._plan.cache_clear()
        assert [result_bytes(res) for res in solver.solve_batch(stacks, SETTINGS)] == want


def test_a_plan_is_shared_exactly_where_a_stack_may_be():
    """Two programs have one plan if and only if ``ProgramStack.of`` stacks them."""
    progs = programs()
    plans = [solver._plan_of(ProgramStack.of([prog])) for prog in progs]
    shared = 0
    for i, a in enumerate(progs):
        for j in range(i + 1, len(progs)):
            try:
                ProgramStack.of([a, progs[j]])
                stackable = True
            except CompileError:
                stackable = False
            assert (plans[i] is plans[j]) == stackable, (i, j)
            shared += stackable
    assert shared


def test_cached_arrays_are_read_only():
    plans = {id(plan): plan for plan in (solver._plan_of(ProgramStack.of([prog])) for prog in programs())}
    held = [a for plan in plans.values() for a in arrays(plan) + arrays(plan.batch)]
    assert len(held) > 10 * len(plans)
    assert not [a for a in held if a.flags.writeable]
