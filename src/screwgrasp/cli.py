"""Command-line front end.

    screw-grasp eval         solve one scenario and print eta
    screw-grasp sweep        tabulate eta over a parameter grid (CSV)
    screw-grasp oracle-check cross-check the solver against the LP oracle
    screw-grasp gws          sample the grasp wrench space boundary (CSV)

Scenarios come from ``--builtin NAME`` (door_handle, cuboid_pivot,
cuboid_slide) or ``--scenario PATH``.  ``--set key=value`` overrides family
parameters; values take the unit suffixes ``deg``, ``rad``, ``N``, ``Nm``,
``m`` or ``L`` (fractions of the family's length parameter L).  Unknown keys
are errors, not warnings.

Exit codes: 0 success/Optimal, 2 Infeasible, 3 Unbounded, 4 input error,
5 solver failure.  ``SCREW_GRASP_LOG`` (debug|info|warning) selects log
verbosity.  CSV output uses 9 significant digits, '.' decimals and LF line
endings; apart from the wall-clock column it is deterministic for fixed
inputs and settings.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ScenarioError, ScrewGraspError
from .metric import gws_sample, local_metric, metric_sweep
from .problem import compile_program
from .scenarios import (
    BUILTINS,
    Scenario,
    builtin_scenario,
    load_bundled,
    load_scenario,
    rebuild_scenario,
    scenario_family,
)
from .screws import Wrench, wrench_to_screw
from .solver import SolveSettings, solve, solve_with_oracle

log = logging.getLogger("screwgrasp")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INPUT = 4
EXIT_SOLVER = 5

_STATUS_EXIT = {"Optimal": EXIT_OK, "Infeasible": EXIT_INFEASIBLE, "Unbounded": EXIT_UNBOUNDED}

_WRENCH_COMPONENTS = {"fx": 0, "fy": 1, "fz": 2, "tx": 3, "ty": 4, "tz": 5}


class CliError(Exception):
    """Bad invocation or bad input; maps to exit code 4."""


@dataclass
class RunConfig:
    """Everything one subcommand run needs (assembled from argv)."""

    command: str
    builtin: str | None = None
    scenario_path: str | None = None
    task: str | None = None
    direction: int = +1
    overrides: dict[str, str] = field(default_factory=dict)  # values as typed, parsed against the scenario
    sweep: tuple[str, str, str, int] | None = None  # param, start and stop as typed, count
    facets: int = 64
    max_rel_gap: float = 0.02
    out: str | None = None
    output_format: str = "text"  # eval only: text | csv
    subspace: tuple[str, ...] = ("fx", "fz", "ty")
    rays: int = 64
    feasibility_tol: float | None = None
    duality_gap_tol: float | None = None

    def settings(self, **defaults) -> SolveSettings:
        kw = dict(defaults)
        if self.feasibility_tol is not None:
            kw["feasibility_tol"] = self.feasibility_tol
        if self.duality_gap_tol is not None:
            kw["duality_gap_tol"] = self.duality_gap_tol
        return SolveSettings(**kw)


def _fmt(x: float) -> str:
    """9 significant digits, locale-independent."""
    return f"{x:.9g}"


def _parse_quantity(text: str, length_unit: float | None) -> float:
    """Number with an optional unit suffix; lengths may be fractions of L."""
    text = text.strip()
    for suffix in ("deg", "rad", "Nm", "N", "L", "m"):
        if text.endswith(suffix):
            body = text[: -len(suffix)]
            try:
                value = float(body)
            except ValueError:
                raise CliError(f"cannot parse quantity {text!r}") from None
            if suffix == "deg":
                return math.radians(value)
            if suffix == "L":
                if length_unit is None:
                    raise CliError("the 'L' suffix needs a scenario family with an L parameter")
                return value * length_unit
            return value
    try:
        return float(text)
    except ValueError:
        raise CliError(f"cannot parse quantity {text!r}") from None


def _resolve_scenario(cfg: RunConfig) -> Scenario:
    if (cfg.builtin is None) == (cfg.scenario_path is None):
        raise CliError("exactly one of --builtin or --scenario is required")
    if cfg.builtin is not None:
        if cfg.builtin not in BUILTINS:
            try:  # allow a bundled golden file name as well
                return load_bundled(cfg.builtin)
            except ScrewGraspError:
                raise CliError(
                    f"unknown builtin {cfg.builtin!r}; available: {sorted(BUILTINS)}"
                ) from None
        base = builtin_scenario(cfg.builtin)
    else:
        try:
            base = load_scenario(cfg.scenario_path)
        except ScenarioError as exc:
            raise CliError(str(exc)) from None

    if not cfg.overrides:
        return base
    if base.family is None:
        raise CliError("--set requires a scenario with generator family information")
    params = dict(base.family.params)
    length = params.get("L")
    for key, raw in cfg.overrides.items():
        if key not in params:
            raise CliError(f"unknown parameter {key!r}; valid: {sorted(params)}")
        params[key] = _parse_quantity(raw, length)
    try:
        return rebuild_scenario(base, params, cfg.task)
    except ScrewGraspError as exc:
        raise CliError(str(exc)) from None


def _trace_logger(payload: dict) -> None:
    log.debug("solver %s", payload)


def _problem_for(scenario: Scenario, task: str | None):
    try:
        return scenario.problem(task)
    except ScrewGraspError as exc:  # unknown task label is an input error
        raise CliError(str(exc)) from None


def _write_rows(header: list[str], rows: list[list[str]], out: str | None):
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(cfg: RunConfig) -> int:
    scenario = _resolve_scenario(cfg)
    problem = _problem_for(scenario, cfg.task)
    settings = cfg.settings()
    trace = _trace_logger if log.isEnabledFor(logging.DEBUG) else None
    result = local_metric(problem, cfg.direction, settings, trace=trace)
    if cfg.output_format == "csv":
        eta = "" if result.eta is None else _fmt(result.eta)
        _write_rows(
            ["param", "eta", "status", "iterations", "wall_ms"],
            [["", eta, result.status, str(result.iterations), _fmt(result.wall_ms)]],
            cfg.out,
        )
    else:
        label = cfg.task or scenario.tasks[0][0]
        print(f"scenario: {scenario.name}  task: {label}  direction: {'+' if cfg.direction > 0 else '-'}")
        print(f"status: {result.status}")
        if result.eta is not None:
            print(f"eta: {_fmt(result.eta)}")
        if result.warning:
            print(f"warning: {result.warning}")
        if result.active_constraints:
            print("active: " + ", ".join(result.active_constraints))
        print(f"iterations: {result.iterations}  wall_ms: {result.wall_ms:.2f}")
    return _STATUS_EXIT.get(result.status, EXIT_SOLVER)


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise CliError("sweep requires --sweep PARAM=START:STOP:COUNT")
    scenario = _resolve_scenario(cfg)
    param, start_s, stop_s, count = cfg.sweep
    # the bounds may carry unit suffixes that need the family's L
    length = None if scenario.family is None else scenario.family.params.get("L")
    start, stop = _parse_quantity(start_s, length), _parse_quantity(stop_s, length)
    try:
        family = scenario_family(scenario, param, cfg.task)
    except ScrewGraspError as exc:
        raise CliError(str(exc)) from None
    grid = np.linspace(start, stop, count)
    rows = metric_sweep(family, grid, cfg.direction, cfg.settings())
    table = [
        [
            _fmt(r.parameter),
            "" if r.eta is None else _fmt(r.eta),
            r.status,
            str(r.iterations),
            _fmt(r.wall_ms),
        ]
        for r in rows
    ]
    _write_rows(["param", "eta", "status", "iterations", "wall_ms"], table, cfg.out)
    solved = [(r.parameter, r.eta) for r in rows if r.eta is not None]
    sink = sys.stdout if cfg.out else sys.stderr
    if solved and len(solved) == len(rows):
        p_min, eta_star = min(solved, key=lambda t: t[1])
        sink.write(f"eta_star: {_fmt(eta_star)} at {param}={_fmt(p_min)}\n")
    else:
        sink.write(f"eta_star: undefined ({len(rows) - len(solved)} of {len(rows)} points not Optimal)\n")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    if cfg.facets < 4:
        raise CliError("--facets must be >= 4")
    scenario = _resolve_scenario(cfg)
    problem = _problem_for(scenario, cfg.task)
    prog = compile_program(problem, cfg.direction)
    # the oracle is exact for the LP relaxation, so compare against a tightly
    # solved SOCP or the comparison is dominated by our own gap tolerance
    settings = cfg.settings(duality_gap_tol=1e-9)
    socp = solve(prog, settings, trace=_trace_logger)
    lp = solve_with_oracle(prog, cfg.facets)
    print(f"socp: {socp.status}" + (f" eta={_fmt(socp.objective)}" if socp.objective is not None else ""))
    print(f"lp[{cfg.facets}]: {lp.status}" + (f" eta={_fmt(lp.objective)}" if lp.objective is not None else ""))
    if socp.status == "Optimal" and lp.status == "Optimal":
        gap = socp.objective - lp.objective
        rel = gap / max(1.0, abs(socp.objective))
        print(f"gap: {_fmt(gap)}  relative: {_fmt(rel)}")
        ok = lp.objective <= socp.objective + settings.feasibility_tol and rel <= cfg.max_rel_gap
        return EXIT_OK if ok else EXIT_SOLVER
    if socp.status == lp.status == "Infeasible":
        print("gap: both paths report infeasible")
        return EXIT_OK
    print("gap: status mismatch")
    if socp.status in ("Infeasible", "Unbounded"):
        return _STATUS_EXIT[socp.status]
    return EXIT_SOLVER


def _subspace_directions(k: int, rays: int) -> np.ndarray:
    """Deterministic unit directions in R^k (k = 2 or 3); includes the
    coordinate axes whenever rays is a multiple of 4."""

    def snap(x):
        return 0.0 if abs(x) < 1e-15 else float(x)

    if k == 2:
        ang = 2.0 * np.pi * np.arange(rays) / rays
        return np.array([[snap(np.cos(a)), snap(np.sin(a))] for a in ang])
    n_lat = max(2, rays // 4)
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for i in range(1, n_lat):
        theta = np.pi * i / n_lat
        s, c = np.sin(theta), snap(np.cos(theta))
        for j in range(rays):
            phi = 2.0 * np.pi * j / rays
            dirs.append(np.array([snap(s * np.cos(phi)), snap(s * np.sin(phi)), c]))
    return np.vstack(dirs)


def cmd_gws(cfg: RunConfig) -> int:
    comps = cfg.subspace
    if not 2 <= len(comps) <= 3 or len(set(comps)) != len(comps):
        raise CliError("--subspace needs 2 or 3 distinct components")
    for c in comps:
        if c not in _WRENCH_COMPONENTS:
            raise CliError(f"unknown wrench component {c!r}; valid: {sorted(_WRENCH_COMPONENTS)}")
    if cfg.rays < 4:
        raise CliError("--rays must be >= 4")
    scenario = _resolve_scenario(cfg)
    problem = _problem_for(scenario, cfg.task)
    dirs = _subspace_directions(len(comps), cfg.rays)
    coords = []
    for d in dirs:
        w6 = np.zeros(6)
        for value, comp in zip(d, comps):
            w6[_WRENCH_COMPONENTS[comp]] = value
        coords.append(wrench_to_screw(Wrench.from_array(w6)))
    rays = gws_sample(problem, [sc.axis for sc in coords], cfg.settings())
    table = [
        [*(_fmt(v) for v in d), "" if ray.eta is None else _fmt(ray.eta / sc.magnitude), ray.status]
        for d, sc, ray in zip(dirs, coords, rays)
    ]
    _write_rows([*comps, "eta", "status"], table, cfg.out)
    return EXIT_OK


@cache  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="screw-grasp", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--builtin", help="builtin scenario name")
        sp.add_argument("--scenario", help="scenario file path")
        sp.add_argument("--task", help="task label (default: first task)")
        sp.add_argument("--dir", default="+", choices=["+", "-"], help="task direction")
        sp.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="family parameter override (units: deg, rad, N, Nm, m, L)")
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--tol-feas", type=float, dest="tol_feas", help="feasibility tolerance")
        sp.add_argument("--tol-gap", type=float, dest="tol_gap", help="relative duality gap tolerance")

    pe = sub.add_parser("eval", help="solve one scenario")
    common(pe)
    pe.add_argument("--format", choices=["text", "csv"], default="text")

    ps = sub.add_parser("sweep", help="sweep a family parameter, emit CSV")
    common(ps)
    ps.add_argument("--sweep", required=True, metavar="PARAM=START:STOP:COUNT")

    po = sub.add_parser("oracle-check", help="cross-check against the polyhedral LP oracle")
    common(po)
    po.add_argument("--facets", type=int, default=64)
    po.add_argument("--max-rel-gap", type=float, default=0.02, dest="max_rel_gap")

    pg = sub.add_parser("gws", help="sample the grasp wrench space boundary, emit CSV")
    common(pg)
    pg.add_argument("--subspace", default="fx,fz,ty",
                    help="comma-separated wrench components (fx,fy,fz,tx,ty,tz)")
    pg.add_argument("--rays", type=int, default=64)
    return top


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set expects K=V, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    cfg = RunConfig(
        command=args.command,
        builtin=args.builtin,
        scenario_path=args.scenario,
        task=args.task,
        direction=+1 if args.dir == "+" else -1,
        overrides=overrides,
        out=args.out,
        feasibility_tol=args.tol_feas,
        duality_gap_tol=args.tol_gap,
    )
    if args.command == "eval":
        cfg.output_format = args.format
    if args.command == "sweep":
        spec = args.sweep
        try:
            param, rng = spec.split("=", 1)
            start_s, stop_s, count_s = rng.split(":")
            count = int(count_s)
        except ValueError:
            raise CliError(f"--sweep expects PARAM=START:STOP:COUNT, got {spec!r}") from None
        if count < 1:
            raise CliError("sweep count must be >= 1")
        cfg.sweep = (param.strip(), start_s, stop_s, count)
    if args.command == "oracle-check":
        cfg.facets = args.facets
        cfg.max_rel_gap = args.max_rel_gap
    if args.command == "gws":
        cfg.subspace = tuple(c.strip() for c in args.subspace.split(","))
        cfg.rays = args.rays
    return cfg


def main(argv: list[str] | None = None) -> int:
    level = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}.get(
        os.environ.get("SCREW_GRASP_LOG", "").lower(), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        handler = {
            "eval": cmd_eval,
            "sweep": cmd_sweep,
            "oracle-check": cmd_oracle_check,
            "gws": cmd_gws,
        }[cfg.command]
        return handler(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScrewGraspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
