"""Task-dependent grasp quality metric.

``local_metric`` solves one scenario: the optimal eta is the largest wrench
magnitude the grasp can apply along the task screw (force magnitude for a
finite-pitch screw, torque magnitude for an infinite-pitch one).
``global_metric`` takes the minimum over a discretized motion path,
``metric_sweep`` tabulates eta over a parameter grid, tolerating per-point
failures (a sweep routinely runs past the pose where the task becomes
infeasible), and ``gws_sample`` probes the grasp wrench space boundary along
a set of screw directions.  The three multi-point jobs compile their points
into stacks, one per structure and finite-bound pattern, and hand those to
``solver.solve_batch``, which solves them as stacked interior-point runs
with the same results as solving each point alone.  A sweep of a builtin
family (``Family.stacks``) or a GWS probe builds no object per point; a path
or a sweep of another callable builds each point's problem in order for
``compile_stacks``.  Only ``global_metric`` reads each point's program, as
row views, for its active constraints.  ``local_metric`` calls
``compile_program`` and ``solver.solve``, the one-program cases of the same
paths; the solver reads the stack of one that ``compile_program`` wrote the
program into, with no second copy.  A point the solver could not take
(NaN/Inf data, crossed bounds) fails when its stack is compiled, so in a
sweep or GWS probe it is that point's error row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ScrewGraspError
from .problem import (ConicProgram, GraspProblem, _built, _stacked, compile_columns, compile_program,
                      compile_stacks)
from .screws import TaskScrew
from .solver import SolveResult, SolveSettings, solve, solve_batch

ACTIVE_TOL = 1e-6


@dataclass(frozen=True)
class MetricResult:
    """Outcome of one metric solve.

    ``eta`` is present only for Optimal solves.  A negative eta means the
    grasp cannot even null the external wrench along the task direction; it
    is reported as-is with ``warning`` set rather than clamped.

    ``wall_ms`` is the compile and solve time of this point; for a point of a
    ``global_metric`` path it is an equal share of the path's build, stacked
    compile and batched solve time.
    """

    eta: float | None
    direction: int
    status: str
    active_constraints: tuple[str, ...]
    iterations: int
    wall_ms: float
    warning: str | None = None
    solve_result: SolveResult | None = None


@dataclass(frozen=True)
class PathPoint:
    """One pose on a discretized motion path."""

    parameter: float
    problem: GraspProblem
    label: str = ""


@dataclass(frozen=True)
class GlobalMetricResult:
    """Minimum of the local metric over a path.

    ``eta_star`` is defined only when every point solved to optimality;
    otherwise the failing labels are listed in ``failures``.
    """

    eta_star: float | None
    argmin: str | None
    per_point: tuple[MetricResult, ...]
    failures: tuple[str, ...]


def active_constraints(prog: ConicProgram, x) -> tuple[str, ...]:
    """Names of the bounds and cones tight at the primal point x (``ACTIVE_TOL``):
    each variable's lower, then upper bound, in variable order; then the cones."""
    names, lb, ub = prog.layout.variable_names(), prog.lb, prog.ub
    # an infinite x makes NaNs, which no test takes as tight: inf - inf at an
    # infinite bound, and 0 * inf in a cone's products, as a NaN x does
    with np.errstate(invalid="ignore"):
        low = np.isfinite(lb) & (x - lb <= ACTIVE_TOL * np.maximum(1.0, np.abs(lb)))
        high = np.isfinite(ub) & (ub - x <= ACTIVE_TOL * np.maximum(1.0, np.abs(ub)))
        active = [f"{names[j]} {op} {bound[j]:g}" for j in np.flatnonzero(low | high).tolist()
                  for op, bound, tight in ((">=", lb, low), ("<=", ub, high)) if tight[j]]
        for blk in prog.socs:
            r, head = blk.A @ x + blk.b, blk.c @ x + blk.d
            if head - math.sqrt(r @ r) <= ACTIVE_TOL * max(1.0, abs(head)):
                active.append(blk.label or "cone")
    return tuple(active)


def _eta(res: SolveResult) -> float | None:
    """The objective of an Optimal solve, else None."""
    return res.objective if res.status == "Optimal" else None


def _metric_result(prog: ConicProgram, res: SolveResult, direction: int, wall_ms: float) -> MetricResult:
    eta = _eta(res)
    warning = None
    if eta is not None and eta < 0:
        warning = "eta < 0: the grasp cannot null the external wrench along the task screw"
    actives = ()
    if res.primal is not None and res.status == "Optimal":
        actives = active_constraints(prog, res.primal)
    return MetricResult(
        eta=eta,
        direction=direction,
        status=res.status,
        active_constraints=actives,
        iterations=res.iterations,
        wall_ms=wall_ms,
        warning=warning,
        solve_result=res,
    )


def local_metric(
    p: GraspProblem, direction: int = +1, settings: SolveSettings | None = None, trace=None
) -> MetricResult:
    """Compile and solve one scenario along +/- the task screw."""
    t0 = time.perf_counter()
    prog = compile_program(p, direction=direction)
    res = solve(prog, settings, trace=trace)
    return _metric_result(prog, res, direction, (time.perf_counter() - t0) * 1e3)


def _compile_each(build, items: list, direction: int) -> tuple[list, list]:
    """``compile_stacks`` of ``build(item)`` for each item, in order; an item
    whose build raised is placed as that error."""
    problems, placed = [], []
    for item in items:
        try:
            problems.append(build(item))
            placed.append(len(problems) - 1)
        except Exception as exc:  # noqa: BLE001  (a sweep records any failure of a point)
            placed.append(exc)
    stacks, where = compile_stacks(problems, direction)
    return stacks, [p if isinstance(p, Exception) else where[p] for p in placed]


def _solve_points(compile, settings, tolerated=()) -> list[tuple]:
    """Solve the stacks of ``compile()``, which gives them and per item its
    ``(stack, row)`` or error, in one batch.  Per item: ``(stack, row,
    result, ms)``, or ``(None, None, exc, ms)`` for an error ``exc``, one of
    ``tolerated`` (anything else propagates before any solve); ms is an
    equal share of the build and compile time and, if it was solved, of the
    solve time."""
    t0 = time.perf_counter()
    stacks, placed = compile()
    for exc in placed:
        if isinstance(exc, Exception) and not isinstance(exc, tolerated):
            raise exc
    t1 = time.perf_counter()
    results = solve_batch(stacks, settings)
    built, solved = (t1 - t0) * 1e3 / max(1, len(placed)), (time.perf_counter() - t1) * 1e3 / max(1, len(results))
    first = np.cumsum([0, *map(len, stacks)]).tolist()  # each stack's first result
    return [(None, None, where, built) if isinstance(where, Exception)
            else (stacks[where[0]], where[1], results[first[where[0]] + where[1]], built + solved) for where in placed]


def global_metric(
    path: list[PathPoint], direction: int = +1, settings: SolveSettings | None = None
) -> GlobalMetricResult:
    """Minimum local metric over a discretized path (the whole-task metric)."""
    if not path:
        raise ValueError("path must contain at least one point")
    per_point = tuple(_metric_result(stack.program(row), res, direction, ms) for stack, row, res, ms
                      in _solve_points(lambda: compile_stacks([pt.problem for pt in path], direction), settings))
    failures = tuple(pt.label or f"#{i}" for i, (pt, r) in enumerate(zip(path, per_point))
                     if r.status != "Optimal")
    if failures:
        return GlobalMetricResult(eta_star=None, argmin=None, per_point=per_point, failures=failures)
    i_min = min(range(len(path)), key=lambda i: per_point[i].eta)
    return GlobalMetricResult(
        eta_star=per_point[i_min].eta,
        argmin=path[i_min].label or f"#{i_min}",
        per_point=per_point,
        failures=(),
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep.  ``wall_ms`` is an equal share of the
    sweep's build and stacked compile time and, if the point was solved, of
    its batched solve time."""

    parameter: float
    eta: float | None
    status: str
    iterations: int
    wall_ms: float


def metric_sweep(
    family,
    grid,
    direction: int = +1,
    settings: SolveSettings | None = None,
) -> list[SweepRow]:
    """Evaluate ``family(value)`` at every grid value, in grid order.

    ``family`` maps a parameter value to a GraspProblem; one with a
    ``stacks(grid, direction)`` method (``scenarios.Family``) compiles the
    grid itself.  A point that fails to build or compile is an ``error: ...``
    row, one that fails to solve has its solver status; neither is fatal.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    stacks = getattr(family, "stacks", None) or partial(_compile_each, family)
    points = _solve_points(lambda: stacks(grid, direction), settings, Exception)  # no point fails the sweep
    return [SweepRow(value, None, f"error: {res}", 0, ms) if stack is None
            else SweepRow(value, _eta(res), res.status, res.iterations, ms)
            for value, (stack, _row, res, ms) in zip(grid, points)]


@dataclass(frozen=True)
class RaySupport:
    """Support of the grasp wrench space along one screw direction."""

    screw: TaskScrew
    eta: float | None
    status: str


def _compile_rays(p: GraspProblem, screws: list) -> tuple[list, list]:
    """``compile_stacks`` of ``p`` with each screw as its task, from one problem
    whose task and load are arrays over the rays (an error of its structure
    is every ray's)."""
    if not screws:
        return [], []
    n = len(screws)
    rays = _built(GraspProblem, **{**vars(p), "task": _stacked(screws), "external": _stacked([p.external] * n)})
    try:
        return compile_columns(rays, n)
    except ScrewGraspError as exc:
        return [], [exc] * n


def gws_sample(p: GraspProblem, directions, settings: SolveSettings | None = None) -> list[RaySupport]:
    """Boundary of the grasp wrench space along a set of screw directions.

    Each direction is its own program (all solved in one batch); failed rays
    are tagged with their solver status instead of aborting the sweep.
    """
    directions = list(directions)
    points = _solve_points(lambda: _compile_rays(p, directions), settings, ScrewGraspError)
    return [RaySupport(screw=screw, eta=None, status=f"error: {res}") if stack is None
            else RaySupport(screw=screw, eta=_eta(res), status=res.status)
            for screw, (stack, _row, res, _ms) in zip(directions, points)]
