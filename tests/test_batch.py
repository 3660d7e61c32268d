"""Batched solves give the bytes of solving each program alone.

``solver.solve_batch`` runs each ``ProgramStack`` it is given as one stacked
interior-point loop; the stacks come from ``problem.compile_stacks``, or from
``ProgramStack.of`` for hand-built programs of one structure.  Every result
here is compared with ``solver.solve`` of the same row through
``result_bytes`` of ``tools/solve_digest.py``: status, iterations, objective,
certificate, residuals and primal bytes.
"""

import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (ALPHAS, THETAS, bundled_programs, cuboid_problems, door_problems, fuzz_corpus, mkprog,
                      presolve_group, rot, stacks_of, with_edge_cap)
from solve_digest import eta_bytes, result_bytes
from screwgrasp import problem, solver
from screwgrasp.cli import _subspace_directions, main
from screwgrasp.contacts import EnvironmentContact, FixedSupport, ManipulatorContact
from screwgrasp.errors import CompileError, ScrewGraspError, SolverDataError
from screwgrasp.metric import PathPoint, global_metric, gws_sample, local_metric, metric_sweep
from screwgrasp.problem import ProgramStack, compile_program, compile_stacks
from screwgrasp.scenarios import (
    BUILTINS, Scenario, builtin_scenario, cuboid_scenario, load_scenario, save_scenario, scenario_family)
from screwgrasp.screws import TaskScrew, Wrench, wrench_to_screw
from screwgrasp.solver import SolveSettings, solve, solve_batch


def rows(stacks) -> list:
    return [st.program(k) for st in stacks for k in range(len(st))]


def assert_same_as_alone(stacks, settings=None):
    batch = solve_batch(stacks, settings)
    progs = rows(stacks)
    assert len(batch) == len(progs)
    for i, (prog, res) in enumerate(zip(progs, batch)):
        assert result_bytes(res) == result_bytes(solve(prog, settings)), f"program {i}"
    return batch


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("x_c", [0.0, 0.05, 0.10, 0.15])
def test_door_acceptance_sweeps(x_c, direction):
    stacks = stacks_of(door_problems(x_c), direction)
    assert [len(st) for st in stacks] == [len(THETAS)]
    batch = assert_same_as_alone(stacks)
    assert {r.status for r in batch} == {"Optimal"}


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("name", ["cuboid_pivot", "cuboid_slide"])
def test_pivot_and_slide_grids(name, direction):
    batch = assert_same_as_alone(stacks_of(cuboid_problems(name), direction))
    # instances stop at different iterations, each keeping its row to the end of the run
    assert len({r.iterations for r in batch}) > 1


def test_gws_cuboid_slide_64_rays():
    """The 962 rays of ``gws --builtin cuboid_slide --rays 64``."""
    p = builtin_scenario("cuboid_slide").problem()
    screws = []
    for d in _subspace_directions(3, 64):
        w6 = np.zeros(6)
        w6[[0, 2, 4]] = d  # fx, fz, ty
        screws.append(wrench_to_screw(Wrench.from_array(w6)).axis)
    stacks = stacks_of([replace(p, task=s) for s in screws], +1)
    assert [len(st) for st in stacks] == [962]
    batch = assert_same_as_alone(stacks)
    rays = gws_sample(p, screws)
    assert [(r.status, r.eta) for r in rays] == [
        (b.status, b.objective if b.status == "Optimal" else None) for b in batch]


def test_iteration_limit_for_every_instance():
    settings = SolveSettings(max_iterations=3)
    batch = assert_same_as_alone(stacks_of(door_problems(0.05), +1), settings)
    assert {(r.status, r.iterations) for r in batch} == {("IterationLimit", 3)}


def unscaled_iterates(monkeypatch) -> list:
    """(col_scale, basis, x, tau, point) of each ``solver._unscale`` call, as made:
    one per pass that an interior-point run checks against the original
    program, and one per pass that a failure exit replays."""
    calls, unscale = [], solver._unscale

    def record(col_scale, basis, x, tau):
        calls.append((col_scale, basis, x, tau, unscale(col_scale, basis, x, tau)))
        return calls[-1][-1]

    monkeypatch.setattr(solver, "_unscale", record)
    return calls


def assert_point_of(res, prog, iterate, row, running):
    """``res`` reports row ``row`` of ``iterate`` (one ``_unscale`` call), and
    each row of the call in ``running`` is its fresh one-program ``_unscale``
    byte for byte; the residuals are those a fresh ``_ResidualCheck`` of that
    point gives."""
    col_scale, basis, x, tau, point = iterate
    if x.ndim == 1:
        rows, alone = [point], [solver._unscale(col_scale, basis, x, tau)]
    else:
        rows = [point[r] for r in running]
        alone = [solver._unscale(col_scale[r], None if basis is None else basis[r], x[r], tau[r, 0])
                 for r in running]
    assert [p.tobytes() for p in rows] == [p.tobytes() for p in alone]
    assert res.primal.tobytes() == alone[running.index(row)].tobytes()
    check = solver._ResidualCheck(problem.ProgramStack.of([prog]), 0)
    assert np.array(check(res.primal)).tobytes() == np.array([res.residuals.primal, res.residuals.cone]).tobytes()


@pytest.mark.parametrize("stacked", [False, True])
def test_optimal_result_is_the_checked_point_of_its_last_iterate(monkeypatch, stacked):
    """An Optimal result reports the point and residuals of the last pass
    that its run checked against the original program, and they are those
    of the program alone: a stack's rows are each a fresh one-program
    ``_unscale`` and ``_ResidualCheck``.  A stack's rows keep their places to
    the end of its run, so every call of the run has all of them, and row k
    reports row k of the call of the pass it stopped at.  An untraced run
    checks the passes where a running row can stop, read here from each
    row's traced solve alone; only the rows still running at a pass are
    compared, since a stopped row's numbers are never read."""
    calls, settings = unscaled_iterates(monkeypatch), SolveSettings()
    for stack in (stacks_of(door_problems(0.05)[::4], +1)[0], stacks_of(cuboid_problems("cuboid_pivot")[::3], -1)[0]):
        if stacked:
            passes = []
            for prog in rows([stack]):
                passes.append([])
                solve(prog, settings, passes[-1].append)
            calls.clear()
            results = solve_batch([stack], settings)
            assert {call[2].shape[0] for call in calls} == {len(stack)} and {call[2].ndim for call in calls} == {2}
            checked = sorted({p["iteration"] for res, own in zip(results, passes) for p in own
                              if p["iteration"] <= res.iterations and p["dual"] <= settings.feasibility_tol
                              and p["relgap"] <= settings.duality_gap_tol})
            assert len(calls) == len(checked)  # no replay
        for k, prog in enumerate(rows([stack])):
            if not stacked:
                calls.clear()
                results = {k: solve(prog, settings)}
                running, call = [k], calls[-1]
            else:
                running = [j for j, res in enumerate(results) if res.iterations >= results[k].iterations]
                call = calls[checked.index(results[k].iterations)]
            assert results[k].status == "Optimal"
            assert_point_of(results[k], prog, call, k, running)


def test_untraced_run_checks_only_the_passes_that_can_stop(monkeypatch):
    """A traced run checks every pass against the original program; an
    untraced one only the passes whose dual residual and gap are within
    their tolerances, the only ones where it can stop (Optimal runs: no
    failure exit replays the history)."""
    calls, settings = unscaled_iterates(monkeypatch), SolveSettings()
    for prog in bundled_programs():
        calls.clear()
        passes = []
        res = solve(prog, settings, passes.append)
        assert res.status == "Optimal" and len(calls) == len(passes) == res.iterations + 1
        calls.clear()
        solve(prog, settings)
        can = [p for p in passes if p["dual"] <= settings.feasibility_tol and p["relgap"] <= settings.duality_gap_tol]
        assert 1 <= len(calls) == len(can) < len(passes)


def every_exit_cases() -> list:
    """(program, settings) that reach every exit of the loop at the default
    iteration limit: the six bundled programs, the first ten draws of the
    fuzz corpus's generator seed 2 at the benchmark's fuzz settings (Optimal,
    Farkas rays, and its trial 9, defect 2: a NumericalFailure that reports
    its best iterate), an improving ray, and maximize x s.t. x <= 1e12, whose
    large optimum is Optimal like any other."""
    fuzz = SolveSettings(duality_gap_tol=1e-9)
    return ([(prog, SolveSettings()) for prog in bundled_programs()]
            + [(compile_program(p, d), fuzz) for seed, trial, p, d in fuzz_corpus() if seed == 2 and trial < 10]
            + [(mkprog([0.0, 1.0], [[1.0, -2.0]], [1.0], lb=[0.0, -np.inf]), SolveSettings()),
               (mkprog([1.0], np.zeros((0, 1)), [], ub=[1e12]), SolveSettings())])


@pytest.mark.parametrize("limit", [None, 1, 2, 3, 4])
def test_traced_and_untraced_runs_give_the_same_bytes(limit):
    """Whether a run checks every pass (traced) or only those that can stop,
    its result is the same, byte for byte, alone and as each row of a stack
    of three copies, for every exit of the loop, at the default iteration
    limit and at ``max_iterations`` 1-4 (IterationLimit)."""
    exits = set()
    for prog, settings in every_exit_cases():
        settings = replace(settings, max_iterations=limit or settings.max_iterations)
        res = solve(prog, settings)
        assert result_bytes(solve(prog, settings, lambda _: None)) == result_bytes(res)
        assert list(map(result_bytes, solve_batch([ProgramStack.of([prog] * 3)], settings))) == [result_bytes(res)] * 3
        exits.add(loop_exit(res))
    assert exits >= ({"IterationLimit"} if limit else {
        "Optimal", "Infeasible", "improving ray", "NumericalFailure, best iterate"})


@pytest.mark.parametrize("limit", [None, 1, 2, 3, 4])
def test_failure_exit_reports_the_first_pass_of_least_merit(limit):
    """A failure exit reports the first pass of least merit max(eq, cone,
    dual, relgap), computed from the numbers a traced run gives its trace:
    that pass's residuals and gap, and its iteration unless the run hit the
    iteration limit."""
    failures = []
    for prog, settings in every_exit_cases():
        passes = []
        res = solve(prog, replace(settings, max_iterations=limit or settings.max_iterations), passes.append)
        if res.status in ("IterationLimit", "NumericalFailure"):
            best = min(passes, key=lambda p: max(max(max(p["eq"], p["cone"]), p["dual"]), p["relgap"]))
            assert (res.residuals.primal, res.residuals.cone, res.residuals.gap) == (
                best["eq"], best["cone"], best["relgap"])
            assert res.iterations == (best["iteration"] if res.status == "NumericalFailure" else limit)
            failures.append(res.status)
    assert set(failures) == ({"IterationLimit"} if limit else {"NumericalFailure"})


def test_initial_point_that_is_not_finite_stops_without_warnings():
    """Finite data so huge that the initial point overflows: each program,
    alone or in a stack, is a NumericalFailure at 0 iterations that says so,
    and no numpy warning is raised on the way."""
    stacks = stacks_of([builtin_scenario("door_handle", L=1e308, x_c=1e308, theta=t).problem()
                        for t in (1e300, 2e300, 3e300)], +1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = assert_same_as_alone(stacks)
    assert {(r.status, r.iterations, r.certificate) for r in batch} == {
        ("NumericalFailure", 0, "initial point is not finite")}


def test_two_structures_keep_input_order():
    """Interleaved problems of two structures compile into two stacks; the
    results come back stack by stack in the order given, row by row."""
    door, pivot = door_problems(0.0)[:6], cuboid_problems("cuboid_pivot")[:7]
    stacks, placed = compile_stacks([p for pair in zip(door, pivot) for p in pair] + pivot[6:], +1)
    assert [len(st) for st in stacks] == [6, 7]
    assert placed == [(k % 2, k // 2) for k in range(12)] + [(1, 6)]
    batch = assert_same_as_alone(stacks[::-1])
    assert len({r.iterations for r in batch[:7]} & {r.iterations for r in batch[7:]}) == 0


def test_environment_bound_presence_makes_a_stack_of_its_own():
    """Problems that differ only in whether an environment contact gives
    f_n_max compile into one stack per finite-bound pattern, and each row
    solves as that program alone."""
    problems = [with_edge_cap(p, None if k % 2 else 40.0) for k, p in enumerate(cuboid_problems("cuboid_slide")[:13])]
    stacks, placed = compile_stacks(problems, -1)
    assert [len(st) for st in stacks] == [7, 6]
    assert placed == [(k % 2, k // 2) for k in range(13)]
    assert np.isfinite(stacks[0].ub[0]).sum() == np.isfinite(stacks[1].ub[0]).sum() + 1  # the capped stack
    assert_same_as_alone(stacks)


def test_programs_of_other_finite_bounds_are_no_stack():
    capped, free = (compile_program(with_edge_cap(builtin_scenario("cuboid_slide").problem(), cap), -1)
                    for cap in (40.0, None))
    assert len(ProgramStack.of([capped, capped])) == 2
    with pytest.raises(CompileError, match="finite-bound pattern"):
        ProgramStack.of([capped, free])
    with pytest.raises(CompileError, match="finite-bound pattern"):
        ProgramStack.of([mkprog([1.0], np.zeros((0, 1)), [], ub=[1.0]), mkprog([1.0], np.zeros((0, 1)), [])])


def test_a_program_is_no_stack(monkeypatch):
    """``solve_batch`` takes stacks only: a ConicProgram among them is a
    TypeError before any stack is solved."""
    stack = stacks_of(door_problems(0.0)[:3], +1)[0]
    seen, standardize = [], solver._standardize
    monkeypatch.setattr(solver, "_standardize", lambda st: seen.append(st) or standardize(st))
    for items in ([stack.program(0)], [stack, stack.program(0)]):
        with pytest.raises(TypeError):
            solve_batch(items)
    assert seen == []


def test_lambda_on_the_cone_boundary_is_a_numerical_failure_without_warnings(monkeypatch):
    """At cuboid_slide alpha = 20 deg, x_E = 0.06, direction -1 and
    tolerances of 1e-10, an iterate's lambda = W z has a block whose det
    a^2 - b'b rounds to 0.  The scaling marks the iterate, and the solve
    stops there as a NumericalFailure with its best iterate, alone and as a
    row of a stacked run alike, without dividing by 0 (no numpy warning)."""
    runs = stacked_runs(monkeypatch)
    settings = SolveSettings(feasibility_tol=1e-10, duality_gap_tol=1e-10)
    problems = [builtin_scenario("cuboid_slide", alpha=float(a), x_E=0.06).problem() for a in ALPHAS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = solve(compile_program(problems[2], -1), settings)
        batch = assert_same_as_alone(stacks_of(problems, -1), settings)
    assert (alone.status, alone.iterations, alone.certificate) == (
        "NumericalFailure", 15, "iterate left the cone interior")
    assert alone.primal is not None
    assert result_bytes(batch[2]) == result_bytes(alone)
    assert [len(r) for r in runs] == [len(ALPHAS)] and len(ALPHAS) >= solver._MIN_BATCH


def stacked_runs(monkeypatch) -> list:
    """The results of each ``solver._ipm`` run on a stacked (2-D) state, as they are made."""
    runs, run = [], solver._ipm

    def record(progs, sf, settings, trace=None):
        results = run(progs, sf, settings, trace)
        if sf.c.ndim == 2:
            runs.append(results)
        return results

    monkeypatch.setattr(solver, "_ipm", record)
    return runs


def test_groups_below_min_batch_are_solved_alone(monkeypatch):
    runs = stacked_runs(monkeypatch)
    problems = door_problems(0.0)[: solver._MIN_BATCH - 1] + cuboid_problems("cuboid_pivot")[: solver._MIN_BATCH]
    assert_same_as_alone(stacks_of(problems, +1))
    assert [len(r) for r in runs] == [solver._MIN_BATCH]


def test_presolve_exits_and_reduced_shapes_within_a_group(monkeypatch):
    runs = stacked_runs(monkeypatch)
    batch = assert_same_as_alone([ProgramStack.of(presolve_group())])
    assert [r.status for r in batch] == ["Optimal", "Optimal", "Optimal", "Infeasible",
                                         "Optimal", "Optimal", "Unbounded", "Optimal",
                                         "Optimal", "Optimal"]
    assert abs(batch[0].objective - 1.7) < 1e-7 and abs(batch[1].objective - 1.3) < 1e-7
    assert sorted(len(r) for r in runs) == [4, 4]


def test_each_program_is_presolved_once(monkeypatch):
    """``solve`` and ``solve_batch`` share one presolve: a single program is
    equilibrated once; the presolve group above once as a whole (10
    programs), once for its rank-deficient members (6), and once for the
    free-ray member's feasibility program.  Presolve exits are not presolved
    again."""
    calls = []
    equilibrate = solver._equilibrate
    monkeypatch.setattr(solver, "_equilibrate", lambda sf: calls.append(sf.c.shape[:-1]) or equilibrate(sf))
    solve(compile_program(door_problems(0.05)[0], +1))
    assert len(calls) == 1
    calls.clear()
    solve_batch([ProgramStack.of(presolve_group())])
    assert calls == [(10,), (6,), (1,)]


def test_rejected_program_raises_before_solving():
    """A program with NaN data is refused when it is built, so no stack
    holds one and no solve sees it."""
    progs = rows(stacks_of(door_problems(0.0)[:3], +1))
    g = progs[1].g.copy()
    g[0] = np.nan
    with pytest.raises(SolverDataError, match="program rhs contains NaN/Inf"):
        replace(progs[1], g=g)


def test_sweep_records_failing_points_in_grid_order():
    def family(theta):
        if 0.2 < theta < 0.4:
            raise ScrewGraspError(f"no pose at {theta:.3f}")
        return builtin_scenario("door_handle", theta=float(theta)).problem()

    rows = metric_sweep(family, THETAS, +1)
    assert [r.parameter for r in rows] == list(THETAS)
    for theta, row in zip(THETAS, rows):
        if 0.2 < theta < 0.4:
            assert row.status == f"error: no pose at {theta:.3f}"
            assert row.eta is None and row.iterations == 0
        else:
            alone = local_metric(family(theta), +1)
            assert (row.status, row.eta, row.iterations) == (alone.status, alone.eta, alone.iterations)
    assert sum(r.status.startswith("error: ") for r in rows) == 11


def pinned(p, moments: float):
    """``p`` with one more environment contact: a support with every component
    prescribed, 0 but for m_t = m_o = ``moments``, turned 45 degrees about z,
    so that both moments load the rhs entry of the body's y moment."""
    values = dict.fromkeys(("f_t", "f_o", "f_n", "m_t", "m_o", "m_n"), 0.0) | {"m_t": moments, "m_o": moments}
    pin = EnvironmentContact(rotation=rot([0, 0, 1], np.pi / 4), position=np.zeros(3),
                             model=FixedSupport(prescribed=values))
    return replace(p, environment_contacts=(*p.environment_contacts, pin))


def test_sweep_point_the_solver_rejects_is_its_own_row():
    """A point whose program has NaN/Inf data fails when it is compiled;
    only that row records it, and the other points are solved as usual.
    The third point's pinned moments overflow its rhs; the points share one
    structure, so the failing row is a row of the sweep's stack."""
    def family(v):
        return pinned(builtin_scenario("cuboid_pivot", alpha=float(v)).problem(), 1.7e308 if v == ALPHAS[2] else 0.0)

    compiled = [None if i == 2 else compile_program(family(v), +1) for i, v in enumerate(ALPHAS)]
    with pytest.raises(SolverDataError, match="program rhs contains NaN/Inf"):
        compile_program(family(ALPHAS[2]), +1)
    rows = metric_sweep(family, ALPHAS, +1)
    assert rows[2].status == "error: program rhs contains NaN/Inf"
    for i in (0, 1, 3, 4, 5, 6):
        alone = solve(compiled[i])
        assert (rows[i].status, rows[i].eta, rows[i].iterations) == (alone.status, alone.objective, alone.iterations)


def failing_second_compile(monkeypatch, exc):
    """Compiling the second problem a job compiles raises ``exc``."""
    key, calls = problem._key, []

    def failing(p):
        calls.append(p)
        if len(calls) == 2:
            raise exc
        return key(p)

    monkeypatch.setattr(problem, "_key", failing)


def test_gws_ray_that_fails_to_compile_is_a_row_only_for_a_screw_grasp_error(monkeypatch):
    """A GWS probe compiles its rays from one problem whose task is an array
    over them.  A ray whose wrench overflows is that ray's error row; an
    error of the problem's structure is every ray's; an error that is not a
    ScrewGraspError propagates."""
    pivot = builtin_scenario("cuboid_pivot").problem()
    far = TaskScrew(l=[0.0, -np.sqrt(0.5), np.sqrt(0.5)], q=[0.0, 1.7e308, 1.7e308])  # q x l overflows
    rays = gws_sample(pivot, [pivot.task, far, pivot.task])
    assert [(r.status, r.eta is None) for r in rays] == [
        ("Optimal", False), ("error: wrench components must be finite", True), ("Optimal", False)]
    monkeypatch.setattr(problem, "_row_error", lambda st, W, k: ValueError("defect"))
    with pytest.raises(ValueError, match="defect"):
        gws_sample(pivot, [pivot.task, far, pivot.task])
    def no_structure(p):
        raise ScrewGraspError("no structure")

    monkeypatch.setattr(problem, "_key", no_structure)
    assert [r.status for r in gws_sample(pivot, [pivot.task] * 3)] == ["error: no structure"] * 3


def test_global_metric_raises_on_a_point_that_fails_to_compile(monkeypatch):
    path = [PathPoint(float(a), builtin_scenario("cuboid_pivot", alpha=float(a)).problem()) for a in ALPHAS]
    failing_second_compile(monkeypatch, ScrewGraspError("no pose"))
    with pytest.raises(ScrewGraspError, match="no pose"):
        global_metric(path, +1)


def test_batch_defect_is_not_retried_point_by_point(monkeypatch):
    """An error of the batched run surfaces from the job; no job falls back
    to solving its points one by one."""
    run = solver._ipm

    def broken(progs, sf, settings, trace=None):
        if sf.c.ndim == 2:
            raise IndexError("defect in the batched loop")
        return run(progs, sf, settings, trace)

    monkeypatch.setattr(solver, "_ipm", broken)
    family = lambda v: builtin_scenario("cuboid_pivot", alpha=float(v)).problem()  # noqa: E731
    with pytest.raises(IndexError, match="defect in the batched loop"):
        metric_sweep(family, ALPHAS, +1)
    with pytest.raises(IndexError, match="defect in the batched loop"):
        gws_sample(family(0.0), [builtin_scenario("cuboid_pivot").problem().task] * solver._MIN_BATCH)


def constructions(monkeypatch) -> Counter:
    """The count of each of these classes' objects built from now on (each
    ``__init__`` call; ``replace`` is one too)."""
    counts = Counter()
    for cls in (Scenario, ManipulatorContact, EnvironmentContact, problem.GraspProblem):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, __init=init, **kwargs: (
            counts.update([type(self).__name__]), __init(self, *args, **kwargs))[1])
    return counts


def test_sweep_and_gws_build_no_program_per_point(monkeypatch, tmp_path, capsys):
    """A sweep or GWS probe compiles each structure's points into one stack
    and hands the stacks to the solver: no ConicProgram or SocBlock is built
    for a point.  A ``scenario_family`` sweep (of a builtin, or of a file
    with a family block) and a CLI-style GWS probe build no Scenario,
    contact or GraspProblem per point either: their counts do not grow with
    the grid.  A path builds its points' programs as row views of the stack,
    for their active constraints."""
    built = []
    make = problem._built
    monkeypatch.setattr(problem, "_built", lambda cls, **fields: built.append(cls) or make(cls, **fields))
    for cls in (problem.ConicProgram, problem.SocBlock):
        monkeypatch.setattr(cls, "__post_init__", lambda self, cls=cls: built.append(cls))
    programs = lambda: [cls for cls in built if cls in (problem.ConicProgram, problem.SocBlock)]  # noqa: E731
    family = lambda v: builtin_scenario("door_handle", theta=float(v)).problem()  # noqa: E731
    rows = metric_sweep(family, THETAS, +1)
    slide = builtin_scenario("cuboid_slide").problem()
    rays = gws_sample(slide, [wrench_to_screw(Wrench.from_array(np.eye(6)[k])).axis for k in (0, 2, 4)])
    assert {r.status for r in rows} == {r.status for r in rays} == {"Optimal"}
    assert programs() == []

    save_scenario(cuboid_scenario(), tmp_path / "cuboid.scenario")
    door = scenario_family(builtin_scenario("door_handle"), "theta")
    pivot = scenario_family(load_scenario(tmp_path / "cuboid.scenario"), "alpha", "S1")
    counts, seen = constructions(monkeypatch), []
    for points in (5, 41):
        counts.clear()
        rows = metric_sweep(door, THETAS[:points], +1) + metric_sweep(pivot, THETAS[:points], -1)
        assert len(rows) == 2 * points and {r.status for r in rows} == {"Optimal"}
        assert main(["gws", "--builtin", "cuboid_slide", "--rays", str(points - 1)]) == 0
        seen.append(dict(counts))
    assert seen[0] == seen[1] and seen[0]["Scenario"] > 0
    assert programs() == []
    capsys.readouterr()

    global_metric([PathPoint(float(t), family(t)) for t in THETAS[:4]], +1)
    assert built.count(problem.ConicProgram) == 4


def assert_sweep_rows_as_alone(family, grid, direction: int) -> list:
    """Each row of ``metric_sweep(family, grid)`` is what building and
    solving its point alone gives: that error's text, or its status,
    iterations and eta bytes.  Returns the error rows' statuses."""
    rows, errors = metric_sweep(family, grid, direction), []
    for value, row in zip(grid, rows):
        try:
            alone = local_metric(family(value), direction)
        except ScrewGraspError as exc:
            errors.append(row.status)
            assert (row.status, row.eta, row.iterations) == (f"error: {exc}", None, 0)
        else:
            assert (row.status, row.iterations) == (alone.status, alone.iterations)
            assert eta_bytes(row.eta) == eta_bytes(alone.eta)
    return errors


@pytest.mark.parametrize("name, parameter, grid, rejected", [
    ("door_handle", "x_c", [0.0, 0.1, 0.2, 0.25, 0.3], "x_c must lie on the handle: 0 <= 0.25 <= 0.2"),
    ("cuboid_pivot", "alpha", np.radians([0.0, 45.0, 90.0, 100.0, 120.0]), "alpha must lie in [0, pi/2]"),
    ("cuboid_slide", "x_E", [-0.05, 0.0, 0.06, 0.15, 0.2], "x_E must satisfy 0 < x_E <= L/2, got 0.2"),
    ("door_handle", "W", [0.02, 0.03, np.inf], "W must be positive and finite"),
])
@pytest.mark.parametrize("direction", [+1, -1])
def test_sweep_across_a_parameter_bound(name, parameter, grid, rejected, direction):
    """A sweep whose grid crosses a bound of its parameter: each value out of
    range is an error row with the parameter type's text, as building that
    point alone raises it, and each row in range is its ``local_metric``
    solve, byte for byte."""
    errors = assert_sweep_rows_as_alone(scenario_family(builtin_scenario(name), parameter), grid, direction)
    assert f"error: {rejected}" in errors and 0 < len(errors) < len(grid)


@pytest.mark.parametrize("name, parameter, grid", [
    ("door_handle", "theta", [0.1, 1e300, -1e300]),
    ("door_handle", "k_t", [0.6, 1e300, 1.7e308]),
    ("door_handle", "L", [0.2, 1e300, 1e308]),
    ("door_handle", "W", [0.03, 1e300, 1e308]),
    ("door_handle", "e_n", [0.03, 1e-300, 5e-324]),
    ("door_handle", "f_n_max", [20.0, 1e-300, 1e-100]),
    ("cuboid_pivot", "weight", [9.81, 1e-300, 1e308]),
    ("cuboid_pivot", "mu_c", [0.15, 1e-100, 1e-300]),
    ("cuboid_slide", "L", [0.3, 1e300, 1.7e308]),
    ("cuboid_pivot", "alpha", [0.0, 5e-324, np.pi / 2]),
])
@pytest.mark.parametrize("direction", [+1, -1])
def test_sweep_at_extreme_accepted_values(name, parameter, grid, direction):
    """Values that the parameter type accepts, down to the smallest
    subnormal and up to the largest finite magnitudes: each row of the
    sweep, stacked, is still that point built and solved alone, whether it
    solves, stops or fails to compile (a cone of ``e_n = 5e-324`` has an
    infinite entry)."""
    for value in grid:
        BUILTINS[name].params_cls(**{parameter: value})  # accepted by the type
    assert_sweep_rows_as_alone(scenario_family(builtin_scenario(name), parameter), grid, direction)


def test_stacked_kkt_rows_are_solved_in_place(monkeypatch):
    """The stacked KKT solve hands each live row of its solution array to
    ``dsytrs`` to be overwritten and keeps no returned copy, so f2py must
    write the row in place: the returned array is that row."""
    seen, sytrs = [], solver._sytrs

    def spy(a, ipiv, b, lower, overwrite_b):
        x, info = sytrs(a, ipiv, b, lower, overwrite_b)
        seen.append(b.ndim == 1 and np.shares_memory(x, b) and b.base is not None)
        return x, info

    monkeypatch.setattr(solver, "_sytrs", spy)
    solve_batch(stacks_of(door_problems(0.05)[: solver._MIN_BATCH], +1))
    assert len(seen) > 10 * solver._MIN_BATCH and all(seen)


def test_kkt_factorization_failure_alone_and_in_a_stack(monkeypatch):
    """When ``dsytrf`` reports INFO > 0 (an exactly zero pivot), a solve
    stops at its first factorization, the one call for that matrix, as a
    NumericalFailure "KKT factorization failed", alone and as a row of a
    stack of ``_MIN_BATCH`` programs alike, byte for byte."""
    calls = []

    def singular(a, lower):
        calls.append(lower)
        return a, np.zeros(len(a), dtype=np.int32), 1

    monkeypatch.setattr(solver, "_sytrf", singular)
    runs = stacked_runs(monkeypatch)
    batch = assert_same_as_alone(stacks_of(door_problems(0.05)[: solver._MIN_BATCH], +1))
    assert [len(r) for r in runs] == [solver._MIN_BATCH]
    assert {(r.status, r.iterations, r.certificate, r.primal is None) for r in batch} == {
        ("NumericalFailure", 0, "KKT factorization failed", True)}
    assert calls == [1] * (2 * solver._MIN_BATCH)  # one attempt per program, stacked and alone


def test_kkt_factorization_failure_of_one_member_of_a_stack(monkeypatch):
    """One program's third ``dsytrf`` (its KKT matrix at iteration 1)
    reports INFO > 0 and no other call does: in a stack of four, that row is
    what the program gives alone under the same failure, a NumericalFailure
    "KKT factorization failed" with its best iterate, and the other rows run
    on past it, each the bytes of its own solve.  The stopped row keeps its
    place to the end of the run, and the stacked factor and solve skip it."""
    progs = rows(stacks_of(door_problems(0.05)[:4], +1))
    target, sytrf, seen = progs[1], solver._sytrf, []

    def key(a):
        return a[:, 0].tobytes()  # [0; A; G]'s first column: one program's at every iteration

    def record(a, lower):
        seen.append(key(a))
        return sytrf(a, lower)

    monkeypatch.setattr(solver, "_sytrf", record)
    solve(target)
    calls = {}

    def third_fails(a, lower):
        k = key(a)
        calls[k] = calls.get(k, 0) + 1
        if k == seen[0] and calls[k] == 3:
            return a, np.zeros(len(a), dtype=np.int32), 1
        return sytrf(a, lower)

    monkeypatch.setattr(solver, "_sytrf", third_fails)
    runs = stacked_runs(monkeypatch)
    batch = solve_batch(stacks_of(door_problems(0.05)[:4], +1))
    assert [len(r) for r in runs] == [4]
    assert len(calls) == 4 and calls.pop(seen[0]) == 3 and min(calls.values()) > 3  # the others factor on
    calls.clear()
    alone = [solve(prog) for prog in progs]
    assert list(map(result_bytes, batch)) == list(map(result_bytes, alone))
    assert (batch[1].status, batch[1].certificate) == ("NumericalFailure", "KKT factorization failed")
    assert batch[1].primal is not None
    assert [r.status for i, r in enumerate(batch) if i != 1] == ["Optimal"] * 3


def test_global_metric_per_point_matches_local_metric():
    path = [PathPoint(float(t), builtin_scenario("door_handle", theta=float(t)).problem(), f"{t:.2f}")
            for t in THETAS[::5]]
    res = global_metric(path, +1)
    for pt, r in zip(path, res.per_point):
        alone = local_metric(pt.problem, +1)
        assert result_bytes(r.solve_result) == result_bytes(alone.solve_result)
        assert (r.eta, r.active_constraints, r.warning) == (alone.eta, alone.active_constraints, alone.warning)


def direction_stacks(problems) -> list:
    """The stacks of each direction's problems."""
    return [st for d in (+1, -1) for st in stacks_of([p for p, pd in problems if pd == d], d)]


def loop_exit(res) -> str:
    """The exit of the interior-point loop that gave ``res``."""
    cert = res.certificate or ""
    if res.status == "NumericalFailure":
        return "NumericalFailure, best iterate" if res.primal is not None else "NumericalFailure"
    if res.status == "Unbounded":
        return "improving ray" if cert.startswith("improving ray") else "?"
    return res.status if res.status != "Infeasible" or cert.startswith("Farkas ray") else "?"


def test_every_loop_exit_is_the_same_from_a_stack(monkeypatch):
    """Each exit of the loop is reached inside a stack of at least
    ``_MIN_BATCH`` programs and gives the bytes of the program solved alone:
    Optimal (large optima included), a Farkas ray, an improving ray, a
    numerical failure reporting its best iterate, and the iteration limit."""
    runs = stacked_runs(monkeypatch)
    fuzz = SolveSettings(duality_gap_tol=1e-9)  # the benchmark's fuzz settings
    draws = [(p, d) for seed, _, p, d in fuzz_corpus() if seed == 2]
    assert_same_as_alone(direction_stacks(draws), fuzz)
    assert_same_as_alone(direction_stacks(draws[:40]), replace(fuzz, max_iterations=4))
    # maximize x2 with x1 = a x2 + g, x1 >= 0: every direction is constrained, the objective improves along (a, 1)
    rays = [mkprog([0.0, 1.0], [[1.0, -a]], [g], lb=[0.0, -np.inf]) for a, g in ((1, 0), (2, 1), (0.5, 3), (3, -1))]
    bounds = (2e10, 5e11, 1e12, 3e13)
    huge = [mkprog([1.0], np.zeros((0, 1)), [], ub=[u]) for u in bounds]
    batch = assert_same_as_alone([ProgramStack.of(rays), ProgramStack.of(huge)])
    assert [(r.status, r.objective) for r in batch[len(rays):]] == [("Optimal", u) for u in bounds]
    assert min(map(len, runs)) >= solver._MIN_BATCH
    assert {loop_exit(res) for results in runs for res in results} == {
        "Optimal", "Infeasible", "improving ray", "NumericalFailure, best iterate", "IterationLimit"}


def test_program_with_nothing_but_its_objective_exits_in_presolve(monkeypatch):
    """No equality row, no finite bound and no cone: a nonzero objective is a
    free ray, a zero one is Optimal at 0, alone and as rows of a stack of
    ``_MIN_BATCH`` programs, each row the bytes of its solve alone, and
    ``_ipm`` is never run."""
    monkeypatch.setattr(solver, "_ipm", lambda *args, **kwargs: pytest.fail("the loop ran"))
    progs = [mkprog(f, np.zeros((0, 2)), []) for f in ([1.0, 0.0], [0.0, 0.0], [0.0, -2.5])]
    assert len(progs) == solver._MIN_BATCH
    alone = [solve(prog) for prog in progs]
    assert [(r.status, r.objective, r.certificate) for r in alone] == [
        ("Unbounded", None, "objective is a free ray (no constraints)"), ("Optimal", 0.0, None),
        ("Unbounded", None, "objective is a free ray (no constraints)")]
    assert alone[1].primal.tolist() == [0.0, 0.0]
    batch = solve_batch([ProgramStack.of(progs)])
    assert list(map(result_bytes, batch)) == list(map(result_bytes, alone))
