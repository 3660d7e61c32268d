"""Command-line front end.

    screw-grasp eval         solve one scenario and print eta (--format text|csv)
    screw-grasp sweep        tabulate eta over a parameter grid (CSV; --sweep)
    screw-grasp oracle-check cross-check the solver against the LP oracle
                             (--facets, --max-rel-gap)
    screw-grasp gws          sample the grasp wrench space boundary (CSV;
                             --subspace, --rays)

Scenarios come from exactly one of ``--builtin NAME`` (door_handle,
cuboid_pivot, cuboid_slide) or ``--scenario PATH``.  ``--set key=value``
overrides family parameters; values are finite numbers with an optional unit
suffix ``deg``, ``rad``, ``N``, ``Nm``, ``m`` or ``L`` (fractions of the
family's length parameter L).  Every subcommand writes its report to ``--out
PATH`` if given, else to stdout.

Exit codes: 0 success/Optimal, 2 Infeasible, 3 Unbounded, 4 input error (a
bad or truncated flag, an unwritable ``--out``, or a ``ScenarioError``, bad
scenario input of any source), 5 solver failure.  ``SCREW_GRASP_LOG=debug``
traces the solver's iterations in ``eval`` and ``oracle-check`` only, as
sweeps and GWS probes solve stacked programs, which take no trace.  CSV output
uses 9 significant digits, '.' decimals and LF line endings; apart from the
wall-clock column it is deterministic for fixed inputs and settings.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from functools import cache

import numpy as np

from .contacts import _pcwf_units, _snap, check_facets
from .errors import ScenarioError, ScrewGraspError
from .metric import gws_sample, local_metric, metric_sweep
from .problem import compile_program
from .scenarios import Scenario, builtin_scenario, load_scenario, rebuild_scenario, scenario_family
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
    """A bad quantity or ``--out`` path; maps to exit code 4."""


# argparse ``type=`` converters; an ArgumentTypeError is an input error (exit 4)


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _key_value(text: str) -> tuple[str, str]:
    """``--set K=V``; the value is parsed later, against the scenario."""
    key, eq, value = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"--set expects K=V, got {text!r}")
    return key.strip(), value


def _sweep_spec(text: str) -> tuple[str, str, str, int]:
    """``--sweep PARAM=START:STOP:COUNT``; START and STOP stay as typed."""
    try:
        param, rng = text.split("=", 1)
        start, stop, count = rng.split(":")
        count = int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--sweep expects PARAM=START:STOP:COUNT, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("sweep count must be >= 1")
    return param.strip(), start, stop, count


def _direction(text: str) -> int:
    if text not in ("+", "-"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from '+', '-')")
    return +1 if text == "+" else -1


def _subspace(text: str) -> tuple[str, ...]:
    comps = tuple(c.strip() for c in text.split(","))
    if not 2 <= len(comps) <= 3 or len(set(comps)) != len(comps):
        raise argparse.ArgumentTypeError("--subspace needs 2 or 3 distinct components")
    for c in comps:
        if c not in _WRENCH_COMPONENTS:
            raise argparse.ArgumentTypeError(f"unknown wrench component {c!r}; valid: {sorted(_WRENCH_COMPONENTS)}")
    return comps


def _rays(text: str) -> int:
    rays = _number(text, int)
    if rays < 4:
        raise argparse.ArgumentTypeError("--rays must be >= 4")
    return rays


def _facets(text: str) -> int:
    try:
        return check_facets(_number(text, int))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance(text: str) -> float:
    tol = _number(text)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return tol


def _max_rel_gap(text: str) -> float:
    if not (gap := _number(text)) >= 0:
        raise argparse.ArgumentTypeError(f"--max-rel-gap must be a nonnegative number, got {text!r}")
    return gap


def _fmt(x: float) -> str:
    """9 significant digits, locale-independent."""
    return f"{x:.9g}"


def _parse_quantity(text: str, scenario: Scenario) -> float:
    """A finite number with an optional unit suffix; lengths may be fractions
    of the L parameter of the scenario's family."""
    text = text.strip()
    suffix = next((s for s in ("deg", "rad", "Nm", "N", "L", "m") if text.endswith(s)), "")
    try:
        value = float(text[: len(text) - len(suffix)])
    except ValueError:
        value = math.nan
    if suffix == "deg":
        value = math.radians(value)
    elif suffix == "L":
        length = None if scenario.family is None else scenario.family.params.get("L")
        if length is None:
            raise CliError("the 'L' suffix needs a scenario family with an L parameter")
        value *= length
    if not math.isfinite(value):
        raise CliError(f"cannot parse quantity {text!r}")
    return value


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    base = builtin_scenario(args.builtin) if args.scenario is None else load_scenario(args.scenario)
    overrides = dict(args.set)  # the last value of a key wins; the others are never parsed
    if not overrides:
        return base
    changes = {key: _parse_quantity(raw, base) for key, raw in overrides.items()}
    return rebuild_scenario(base, changes, args.task)


def _settings(args: argparse.Namespace, **defaults) -> SolveSettings:
    """``defaults`` with --tol-feas and --tol-gap applied when given."""
    if args.tol_feas is not None:
        defaults["feasibility_tol"] = args.tol_feas
    if args.tol_gap is not None:
        defaults["duality_gap_tol"] = args.tol_gap
    return SolveSettings(**defaults)


def _trace():
    """The solver's trace hook, one debug line per iteration, when debug
    logging is on; else None, so no payload is built for nobody to read."""
    return (lambda payload: log.debug("solver %s", payload)) if log.isEnabledFor(logging.DEBUG) else None


def _write(lines: list[str], out: str | None) -> None:
    """One report, one line per entry with LF endings, to ``out`` or stdout."""
    text = "".join(line + "\n" for line in lines)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list[str]]) -> list[str]:
    return [",".join(row) for row in [header, *rows]]


_ROW_HEADER = ["param", "eta", "status", "iterations", "wall_ms"]


def _row(param: str, r) -> list[str]:
    """One eval or sweep CSV row (a MetricResult or a SweepRow)."""
    return [param, "" if r.eta is None else _fmt(r.eta), r.status, str(r.iterations), _fmt(r.wall_ms)]


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    problem = scenario.problem(args.task)
    result = local_metric(problem, args.dir, _settings(args), trace=_trace())
    if args.format == "csv":
        lines = _csv(_ROW_HEADER, [_row("", result)])
    else:
        label = args.task or scenario.tasks[0][0]
        lines = [f"scenario: {scenario.name}  task: {label}  direction: {'+' if args.dir > 0 else '-'}",
                 f"status: {result.status}"]
        if result.eta is not None:
            lines.append(f"eta: {_fmt(result.eta)}")
        if result.warning:
            lines.append(f"warning: {result.warning}")
        if result.active_constraints:
            lines.append("active: " + ", ".join(result.active_constraints))
        lines.append(f"iterations: {result.iterations}  wall_ms: {result.wall_ms:.2f}")
    _write(lines, args.out)
    return _STATUS_EXIT.get(result.status, EXIT_SOLVER)


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    param, start_s, stop_s, count = args.sweep
    start, stop = _parse_quantity(start_s, scenario), _parse_quantity(stop_s, scenario)
    family = scenario_family(scenario, param, args.task)
    grid = np.linspace(start, stop, count)
    rows = metric_sweep(family, grid, args.dir, _settings(args))
    _write(_csv(_ROW_HEADER, [_row(_fmt(r.parameter), r) for r in rows]), args.out)
    solved = [(r.parameter, r.eta) for r in rows if r.eta is not None]
    sink = sys.stdout if args.out else sys.stderr
    if solved and len(solved) == len(rows):
        p_min, eta_star = min(solved, key=lambda t: t[1])
        sink.write(f"eta_star: {_fmt(eta_star)} at {param}={_fmt(p_min)}\n")
    else:
        sink.write(f"eta_star: undefined ({len(rows) - len(solved)} of {len(rows)} points not Optimal)\n")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    problem = scenario.problem(args.task)
    prog = compile_program(problem, args.dir)
    # the oracle is exact for the LP relaxation, so compare against a tightly
    # solved SOCP or the comparison is dominated by our own gap tolerance
    settings = _settings(args, duality_gap_tol=1e-9)
    socp = solve(prog, settings, trace=_trace())
    lp = solve_with_oracle(prog, args.facets)
    lines = [f"{name}: {r.status}" + ("" if r.objective is None else f" eta={_fmt(r.objective)}")
             for name, r in (("socp", socp), (f"lp[{args.facets}]", lp))]
    if socp.status == "Optimal" and lp.status == "Optimal":
        gap = socp.objective - lp.objective
        rel = gap / max(1.0, abs(socp.objective))
        lines.append(f"gap: {_fmt(gap)}  relative: {_fmt(rel)}")
        ok = lp.objective <= socp.objective + settings.feasibility_tol and rel <= args.max_rel_gap
        code = EXIT_OK if ok else EXIT_SOLVER
    elif socp.status == lp.status in ("Infeasible", "Unbounded"):
        lines.append(f"gap: both paths report {socp.status.lower()}")
        code = EXIT_OK
    else:
        lines.append("gap: status mismatch")
        code = EXIT_SOLVER if socp.status == "Optimal" else _STATUS_EXIT.get(socp.status, EXIT_SOLVER)
    _write(lines, args.out)
    return code


def _subspace_directions(k: int, rays: int) -> np.ndarray:
    """Deterministic unit directions in R^k (k = 2 or 3); includes the
    coordinate axes whenever rays is a multiple of 4."""
    if k == 2:  # the regular rays-gon of the PCWF rays
        return _pcwf_units(rays).T
    n_lat = max(2, rays // 4)
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for i in range(1, n_lat):
        theta = np.pi * i / n_lat
        s, c = np.sin(theta), _snap(np.cos(theta))
        for j in range(rays):
            phi = 2.0 * np.pi * j / rays
            dirs.append(np.array([_snap(s * np.cos(phi)), _snap(s * np.sin(phi)), c]))
    return np.vstack(dirs)


def cmd_gws(args: argparse.Namespace) -> int:
    comps = args.subspace
    scenario = _resolve_scenario(args)
    problem = scenario.problem(args.task)
    dirs = _subspace_directions(len(comps), args.rays)
    coords = []
    for d in dirs:
        w6 = np.zeros(6)
        for value, comp in zip(d, comps):
            w6[_WRENCH_COMPONENTS[comp]] = value
        coords.append(wrench_to_screw(Wrench.from_array(w6)))
    rays = gws_sample(problem, [sc.axis for sc in coords], _settings(args))
    table = [
        [*(_fmt(v) for v in d), "" if ray.eta is None else _fmt(ray.eta / sc.magnitude), ray.status]
        for d, sc, ray in zip(dirs, coords, rays)
    ]
    _write(_csv([*comps, "eta", "status"], table), args.out)
    return EXIT_OK


@cache  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a truncated flag is an error, not the flag it starts
    top = argparse.ArgumentParser(prog="screw-grasp", description=__doc__, allow_abbrev=False,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, summary):
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.set_defaults(run=run)
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--builtin", help="builtin scenario name")
        source.add_argument("--scenario", help="scenario file path")
        sp.add_argument("--task", help="task label (default: first task)")
        sp.add_argument("--dir", default="+", type=_direction, metavar="{+,-}", help="task direction")
        sp.add_argument("--set", action="append", default=[], type=_key_value, metavar="K=V",
                        help="family parameter override (units: deg, rad, N, Nm, m, L)")
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--tol-feas", type=_tolerance, dest="tol_feas", help="feasibility tolerance")
        sp.add_argument("--tol-gap", type=_tolerance, dest="tol_gap", help="relative duality gap tolerance")
        return sp

    add("eval", cmd_eval, "solve one scenario").add_argument(
        "--format", choices=["text", "csv"], default="text")
    add("sweep", cmd_sweep, "sweep a family parameter, emit CSV").add_argument(
        "--sweep", required=True, type=_sweep_spec, metavar="PARAM=START:STOP:COUNT")
    po = add("oracle-check", cmd_oracle_check, "cross-check against the polyhedral LP oracle")
    po.add_argument("--facets", type=_facets, default=64)
    po.add_argument("--max-rel-gap", type=_max_rel_gap, default=0.02, dest="max_rel_gap")
    pg = add("gws", cmd_gws, "sample the grasp wrench space boundary, emit CSV")
    pg.add_argument("--subspace", default="fx,fz,ty", type=_subspace,
                    help="comma-separated wrench components (fx,fy,fz,tx,ty,tz)")
    pg.add_argument("--rays", type=_rays, default=64)
    return top


def main(argv: list[str] | None = None) -> int:
    level = logging.DEBUG if os.environ.get("SCREW_GRASP_LOG", "").lower() == "debug" else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (CliError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScrewGraspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
