"""Spans for the traced run, recorded from outside the program.

``instrument(tracer)`` replaces the public functions the workloads reach
(``local_metric``, ``metric_sweep``, ``compile_program``, ``solve``,
``solve_with_oracle``) in every ``screwgrasp`` module that imported them with
wrappers that open a span around the call, and restores the originals on
exit.  ``solve`` is additionally handed a ``trace=`` callback (chained to any
caller-supplied one), whose call times split the solve into presolve,
iteration and finish spans.  Sweep points run in the program's worker
threads; the ``metric_sweep`` wrapper wraps the family callable so that each
point's spans name the sweep as their parent.

Spans live in memory and are written out once, by ``write_jsonl``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current_op(self) -> int | None:
        return getattr(self._local, "op", None)

    def adopt(self, parent: int, op: int | None) -> None:
        """Make ``parent`` the root of this thread's spans (for worker threads)."""
        self._local.stack = [parent]
        self._local.op = op

    @contextlib.contextmanager
    def operation(self, op: int):
        """Attribute the spans opened inside to operation ``op``."""
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = None

    def _new(self, name: str, parent: int | None, start: int, end: int = 0) -> Span:
        with self._lock:
            sp = Span(next(self._ids), parent, self.current_op(), name, start, end,
                      threading.get_ident())
            self.spans.append(sp)
        return sp

    @contextlib.contextmanager
    def span(self, name: str):
        st = self._stack()
        sp = self._new(name, st[-1] if st else None, time.perf_counter_ns())
        st.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            st.pop()

    def child(self, parent: Span, name: str, start: int, end: int) -> None:
        """Record a span whose times were taken elsewhere (solver callbacks)."""
        self._new(name, parent.id, start, end)

    def write_jsonl(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start_us": (s.start - t0) / 1e3, "end_us": (s.end - t0) / 1e3,
                    "thread": s.thread, **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


def _wrap_plain(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_solve(tracer: Tracer, fn):
    def wrapper(prog, settings=None, trace=None, backend=None):
        marks: list[int] = []

        def hook(payload):
            marks.append(time.perf_counter_ns())
            if trace is not None:
                trace(payload)

        with tracer.span("solver.solve") as sp:
            res = fn(prog, settings, hook, backend)
            end = time.perf_counter_ns()
            sp.attrs.update(status=res.status, iterations=res.iterations, callbacks=len(marks))
        if marks:
            tracer.child(sp, "solver.presolve", sp.start, marks[0])
            for a, b in zip(marks, marks[1:]):
                tracer.child(sp, "solver.iteration", a, b)
            tracer.child(sp, "solver.finish", marks[-1], end)
        return res
    return wrapper


def _wrap_oracle(tracer: Tracer, fn):
    def wrapper(prog, facets):
        with tracer.span("solver.oracle") as sp:
            res = fn(prog, facets)
            sp.attrs.update(status=res.status, iterations=res.iterations)
        return res
    return wrapper


def _wrap_sweep(tracer: Tracer, fn):
    def wrapper(family, *args, **kwargs):
        with tracer.span("metric.sweep") as sp:
            op = tracer.current_op()

            def point(value):
                tracer.adopt(sp.id, op)  # runs in a worker thread of the sweep
                with tracer.span("scenarios.build"):
                    return family(value)

            rows = fn(point, *args, **kwargs)
            sp.attrs["row_ms"] = [r.wall_ms for r in rows]
        return rows
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the workloads' calls into screwgrasp through span wrappers."""
    from screwgrasp import cli, metric, problem, solver

    targets = [
        ([metric, cli], "local_metric", lambda f: _wrap_plain(tracer, f, "metric.local")),
        ([cli], "metric_sweep", lambda f: _wrap_sweep(tracer, f)),
        ([metric, cli, problem], "compile_program", lambda f: _wrap_plain(tracer, f, "problem.compile")),
        ([metric, cli, solver], "solve", lambda f: _wrap_solve(tracer, f)),
        ([cli, solver], "solve_with_oracle", lambda f: _wrap_oracle(tracer, f)),
    ]
    saved = []
    try:
        for modules, attr, make in targets:
            for mod in modules:
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, make(original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def self_times_ms(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its child spans cover.

    Children of a sweep overlap each other (worker threads), so coverage is
    the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_a, cur_b = 0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s.id] = (s.end - s.start - covered) / 1e6
    return out


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


STATUSES = ("Optimal", "Infeasible", "Unbounded", "IterationLimit", "NumericalFailure")


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    A layer the workload does not reach reports 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_ms = self_times_ms(spans)

    def durations(name):
        return [s.ms for s in by_name.get(name, ())]

    solves = by_name.get("solver.solve", [])
    oracles = by_name.get("solver.oracle", [])
    sweeps = by_name.get("metric.sweep", [])
    rows = [ms for s in sweeps for ms in s.attrs["row_ms"]]
    sweep_wall = sum(s.ms for s in sweeps)

    m = {
        "scenarios.build_ms_p50": (_p50(durations("scenarios.build")), "ms"),
        "problem.compile_ms_p50": (_p50(durations("problem.compile")), "ms"),
        "solver.solve_ms_p50": (_p50(durations("solver.solve")), "ms"),
        "solver.presolve_ms_p50": (_p50(durations("solver.presolve")), "ms"),
        "solver.iteration_ms_p50": (_p50(durations("solver.iteration")), "ms"),
        "solver.finish_ms_p50": (_p50(durations("solver.finish")), "ms"),
        "solver.iterations_mean": (_mean(s.attrs["iterations"] for s in solves), "count"),
        "solver.presolve_exits": (sum(1 for s in solves if s.attrs["callbacks"] == 0), "count"),
    }
    for status in STATUSES:
        m[f"solver.status.{status}"] = (sum(1 for s in solves if s.attrs["status"] == status), "count")
    m.update({
        "solver.oracle_ms_p50": (_p50(s.ms for s in oracles), "ms"),
        "solver.oracle_lp_iterations_mean": (_mean(s.attrs["iterations"] for s in oracles), "count"),
        "metric.local_overhead_ms_p50": (_p50(self_ms[s.id] for s in by_name.get("metric.local", ())), "ms"),
        "metric.sweep_row_ms_p50": (_p50(rows), "ms"),
        "metric.sweep_concurrency": (sum(rows) / sweep_wall if sweep_wall else 0.0, "ratio"),
        "cli.job_ms_p50": (_p50(durations("cli.job")), "ms"),
        "cli.overhead_ms_p50": (_p50(self_ms[s.id] for s in by_name.get("cli.job", ())), "ms"),
    })
    return m
