import csv
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import screwgrasp
from screwgrasp import cli
from screwgrasp.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
from screwgrasp.contacts import EnvironmentContact, Pcwf, PcwfParams
from screwgrasp.problem import ExternalWrench
from screwgrasp.scenarios import BUILTINS, Scenario, save_scenario
from screwgrasp.screws import INFINITE_PITCH, TaskScrew


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def infeasible_file(tmp_path):
    # a ceiling contact can only push down; gravity also pulls down
    ceiling = EnvironmentContact(rotation=np.diag([1.0, -1.0, -1.0]), position=np.zeros(3),
                                 model=Pcwf(PcwfParams(mu=0.3)))
    s = Scenario(
        name="ceiling",
        manipulator_contacts=(),
        environment_contacts=(ceiling,),
        external=ExternalWrench(force=[0, 0, -5.0]),
        tasks=(("S", TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)),),
    )
    path = tmp_path / "ceiling.scenario"
    save_scenario(s, path)
    return str(path)


class TestEval:
    def test_door_handle_optimal(self, capsys):
        code, out, _ = run(capsys, "eval", "--builtin", "door_handle",
                           "--set", "x_c=0", "--set", "theta=0deg", "--dir", "+")
        assert code == EXIT_OK
        assert "status: Optimal" in out
        eta = float(next(l for l in out.splitlines() if l.startswith("eta:")).split()[1])
        assert abs(eta - 0.12) < 1e-5

    def test_dash_direction_parses(self, capsys):
        code, out, _ = run(capsys, "eval", "--builtin", "door_handle", "--dir", "-")
        assert code == EXIT_OK

    def test_infeasible_exit_code(self, capsys, infeasible_file):
        code, out, _ = run(capsys, "eval", "--scenario", infeasible_file)
        assert code == EXIT_INFEASIBLE
        assert "Infeasible" in out

    def test_slide_asymmetry(self, capsys, tmp_path):
        etas = {}
        for d in ("+", "-"):
            out_path = tmp_path / f"slide{d}.csv"
            code, _, _ = run(capsys, "eval", "--builtin", "cuboid_slide",
                             "--set", "alpha=50deg", "--set", "x_E=0.4L",
                             "--dir", d, "--format", "csv", "--out", str(out_path))
            assert code == EXIT_OK
            etas[d] = float(rows_of(out_path)[0]["eta"])
        assert etas["+"] > etas["-"]

    def test_tolerance_flags_forwarded(self, capsys):
        code, out, _ = run(capsys, "eval", "--builtin", "door_handle",
                           "--tol-feas", "1e-7", "--tol-gap", "1e-4")
        assert code == EXIT_OK
        assert "status: Optimal" in out

    def test_unknown_set_key(self, capsys):
        code, _, err = run(capsys, "eval", "--builtin", "door_handle", "--set", "bogus=1")
        assert code == EXIT_INPUT
        assert "bogus" in err

    def test_out_of_range_set_names_the_parameter(self, capsys):
        code, out, err = run(capsys, "eval", "--builtin", "door_handle", "--set", "x_c=5")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: x_c must lie on the handle: 0 <= 5.0 <= 0.2\n"

    def test_last_set_value_wins_and_dropped_values_are_not_parsed(self, capsys):
        code, out, _ = run(capsys, "eval", "--builtin", "door_handle", "--set", "x_c=abc", "--set", "x_c=0.1")
        assert code == EXIT_OK and "status: Optimal" in out

    def test_requires_exactly_one_source(self, capsys):
        assert run(capsys, "eval")[0] == EXIT_INPUT
        assert run(capsys, "eval", "--builtin", "door_handle", "--scenario", "x")[0] == EXIT_INPUT

    def test_builtin_takes_only_builtin_names(self, capsys):
        # a packaged scenario file is not a builtin name; files go through --scenario
        code, _, err = run(capsys, "eval", "--builtin", "../data/door_handle")
        assert code == EXIT_INPUT
        assert f"available: {sorted(BUILTINS)}" in err

    def test_set_on_family_less_file(self, capsys, infeasible_file):
        code, _, err = run(capsys, "eval", "--scenario", infeasible_file, "--set", "x_c=0")
        assert code == EXIT_INPUT
        assert "family" in err

    def test_task_selection_from_multi_task_file(self, capsys, tmp_path):
        from screwgrasp.scenarios import CuboidParams, cuboid_scenario

        path = tmp_path / "both.scenario"
        save_scenario(cuboid_scenario(CuboidParams(alpha=0.5)), path)
        etas = {}
        for label in ("S1", "S2"):
            out_csv = tmp_path / f"{label}.csv"
            code, _, _ = run(capsys, "eval", "--scenario", str(path), "--task", label,
                             "--format", "csv", "--out", str(out_csv))
            assert code == EXIT_OK
            etas[label] = float(rows_of(out_csv)[0]["eta"])
        assert etas["S1"] != pytest.approx(etas["S2"], rel=1e-3)
        code, _, err = run(capsys, "eval", "--scenario", str(path), "--task", "S9")
        assert code == EXIT_INPUT
        assert "unknown task" in err


class TestSweep:
    def test_csv_shape_and_monotone_theta(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--builtin", "door_handle", "--set", "x_c=0",
                           "--sweep", "theta=0deg:40deg:41", "--out", str(out_path))
        assert code == EXIT_OK
        assert "eta_star:" in out
        rows = rows_of(out_path)
        assert len(rows) == 41
        assert list(rows[0].keys()) == ["param", "eta", "status", "iterations", "wall_ms"]
        etas = [float(r["eta"]) for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(etas, etas[1:]))

    def test_deterministic_apart_from_wall_clock(self, capsys, tmp_path):
        frames = []
        for run_idx in range(2):
            out_path = tmp_path / f"s{run_idx}.csv"
            code, _, _ = run(capsys, "sweep", "--builtin", "cuboid_pivot",
                             "--sweep", "alpha=0deg:40deg:5", "--out", str(out_path))
            assert code == EXIT_OK
            text = out_path.read_text()
            assert "\r" not in text
            stripped = [",".join(line.split(",")[:-1]) for line in text.splitlines()]
            frames.append(stripped)
        assert frames[0] == frames[1]

    def test_count_one_matches_eval(self, capsys, tmp_path):
        sweep_path = tmp_path / "one.csv"
        code, _, _ = run(capsys, "sweep", "--builtin", "door_handle", "--set", "x_c=0.1",
                         "--sweep", "theta=5deg:5deg:1", "--out", str(sweep_path))
        assert code == EXIT_OK
        eval_path = tmp_path / "eval.csv"
        code, _, _ = run(capsys, "eval", "--builtin", "door_handle", "--set", "x_c=0.1",
                         "--set", "theta=5deg", "--format", "csv", "--out", str(eval_path))
        assert code == EXIT_OK
        assert rows_of(sweep_path)[0]["eta"] == rows_of(eval_path)[0]["eta"]

    def test_unknown_sweep_parameter(self, capsys):
        code, _, err = run(capsys, "sweep", "--builtin", "door_handle", "--sweep", "zeta=0:1:3")
        assert code == EXIT_INPUT

    def test_malformed_sweep_spec(self, capsys):
        code, _, _ = run(capsys, "sweep", "--builtin", "door_handle", "--sweep", "theta=0:1")
        assert code == EXIT_INPUT

    def test_failed_points_recorded_not_fatal(self, capsys, tmp_path):
        # past ~11.5deg eta goes negative but stays Optimal; the status
        # column is the record, the sweep itself succeeds
        out_path = tmp_path / "wide.csv"
        code, out, _ = run(capsys, "sweep", "--builtin", "door_handle", "--set", "x_c=0",
                           "--sweep", "theta=0deg:40deg:9", "--out", str(out_path))
        assert code == EXIT_OK
        assert any(float(r["eta"]) < 0 for r in rows_of(out_path))

    @pytest.mark.parametrize("task,builtin", [("S1", "cuboid_pivot"), ("S2", "cuboid_slide")])
    @pytest.mark.parametrize("overrides", [(), ("--set", "x_E=0.4L")])
    def test_two_task_file_sweeps_as_its_builtin(self, capsys, tmp_path, task, builtin, overrides):
        # --set rebuilds the scenario and --sweep rebuilds each point; both
        # map the two-task cuboid family to the builtin of the chosen task
        from screwgrasp.scenarios import cuboid_scenario

        path = tmp_path / "both.scenario"
        save_scenario(cuboid_scenario(), path)
        texts = []
        for source in (("--scenario", str(path), "--task", task), ("--builtin", builtin)):
            out_path = tmp_path / "out.csv"
            code, _, _ = run(capsys, "sweep", *source, *overrides,
                             "--sweep", "alpha=0deg:60deg:4", "--out", str(out_path))
            assert code == EXIT_OK
            texts.append([line.rsplit(",", 1)[0] for line in out_path.read_text().splitlines()])
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("source", ["--builtin", "--scenario"])
    def test_scenario_resolved_once(self, capsys, tmp_path, monkeypatch, source):
        # the bounds' L suffix is read from the one scenario the sweep runs on
        from screwgrasp import cli
        from screwgrasp.scenarios import builtin_scenario

        calls = []
        resolve = cli._resolve_scenario
        monkeypatch.setattr(cli, "_resolve_scenario", lambda cfg: calls.append(cfg) or resolve(cfg))
        path = tmp_path / "pivot.scenario"
        save_scenario(builtin_scenario("cuboid_pivot"), path)
        name = "cuboid_pivot" if source == "--builtin" else str(path)
        out_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "sweep", source, name, "--sweep", "x_E=0.2L:0.4L:3", "--out", str(out_path))
        assert code == EXIT_OK
        assert len(calls) == 1
        assert len(rows_of(out_path)) == 3

    def test_parallel_flag_removed(self, capsys):
        code, _, _ = run(capsys, "sweep", "--builtin", "door_handle", "--parallel", "2",
                         "--sweep", "theta=0deg:5deg:2")
        assert code == EXIT_INPUT


class TestOracleCheck:
    def test_door_handle_within_threshold(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--builtin", "door_handle", "--facets", "64")
        assert code == EXIT_OK
        assert "relative:" in out

    def test_gap_shrinks_with_facets(self, capsys):
        rels = {}
        for facets in ("8", "64"):
            code, out, _ = run(capsys, "oracle-check", "--builtin", "cuboid_slide",
                               "--set", "alpha=50deg", "--facets", facets,
                               "--max-rel-gap", "0.5")
            assert code == EXIT_OK
            rels[facets] = float(next(l for l in out.splitlines() if l.startswith("gap:")).split("relative:")[1])
        assert rels["64"] <= rels["8"] + 1e-12

    def test_agreement_on_infeasible(self, capsys, infeasible_file):
        code, out, _ = run(capsys, "oracle-check", "--scenario", infeasible_file)
        assert code == EXIT_OK
        assert "both paths report infeasible" in out

    def test_agreement_on_unbounded(self, capsys, tmp_path):
        # the door's support with no component prescribed: its free m_n supplies the task's moment without bound
        data = json.loads((BUNDLED / "door_handle.scenario").read_text())
        data["environment_contacts"][0]["model"]["prescribed"] = {}
        del data["family"]
        path = tmp_path / "free_support.scenario"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "oracle-check", "--scenario", str(path), "--facets", "8")
        assert (code, out) == (EXIT_OK, "socp: Unbounded\nlp[8]: Unbounded\ngap: both paths report unbounded\n")

    @pytest.mark.parametrize("command, entry", [("eval", "local_metric"), ("oracle-check", "solve")])
    def test_solver_trace_only_under_debug_logging(self, capsys, caplog, monkeypatch, command, entry):
        # eval and oracle-check solve one program each; the trace hook is built only when it will be logged
        from screwgrasp import cli

        traces, original = [], getattr(cli, entry)
        monkeypatch.setattr(cli, entry, lambda *args, trace=None, **kw: traces.append(trace) or original(
            *args, trace=trace, **kw))
        for level in (logging.INFO, logging.DEBUG):
            with caplog.at_level(level, logger="screwgrasp"):
                assert run(capsys, command, "--builtin", "door_handle")[0] == EXIT_OK
        assert traces[0] is None and callable(traces[1])
        assert any(r.levelno == logging.DEBUG and r.getMessage().startswith("solver {") for r in caplog.records)

    @pytest.mark.parametrize("source", ["door", "ceiling"])
    def test_status_mismatch(self, capsys, monkeypatch, infeasible_file, source):
        """When the LP oracle's status differs from the SOCP's and they are not
        both Optimal, the report ends "gap: status mismatch" and the exit is
        the SOCP's: 5 for an Optimal SOCP, else its status's code."""
        oracle = cli.solve_with_oracle

        def flipped(prog, facets):
            res = oracle(prog, facets)
            if res.status == "Optimal":
                return replace(res, status="Infeasible", objective=None, primal=None)
            return replace(res, status="Optimal", objective=1.5)

        monkeypatch.setattr(cli, "solve_with_oracle", flipped)
        argv = ("--builtin", "door_handle") if source == "door" else ("--scenario", infeasible_file)
        code, out, err = run(capsys, "oracle-check", *argv, "--facets", "8")
        socp, lp, gap = out.splitlines()
        assert (lp, gap, err) == (("lp[8]: Infeasible" if source == "door" else "lp[8]: Optimal eta=1.5"),
                                  "gap: status mismatch", "")
        if source == "door":
            assert socp.startswith("socp: Optimal eta=") and code == EXIT_SOLVER
        else:
            assert (socp, code) == ("socp: Infeasible", EXIT_INFEASIBLE)

    @pytest.mark.parametrize("gap", ["nan", "-1", "-inf", "x"])
    def test_bad_max_rel_gap_is_input_error(self, capsys, gap):
        """A gap bound no relative gap can be checked against is a bad flag
        value, not a failed cross-check."""
        code, out, err = run(capsys, "oracle-check", "--builtin", "door_handle", "--facets", "8",
                             f"--max-rel-gap={gap}")
        assert code == EXIT_INPUT
        assert out == ""
        assert "--max-rel-gap" in err and "Traceback" not in err

    def test_zero_max_rel_gap_is_accepted(self, capsys):
        assert run(capsys, "oracle-check", "--builtin", "door_handle", "--facets", "8",
                   "--max-rel-gap", "0")[0] != EXIT_INPUT


class TestGws:
    def test_boundary_cloud_is_convex_and_consistent(self, capsys, tmp_path):
        out_path = tmp_path / "gws.csv"
        code, _, _ = run(capsys, "gws", "--builtin", "cuboid_slide",
                         "--set", "alpha=50deg", "--set", "x_E=0.4L",
                         "--subspace", "fx,fz,ty", "--rays", "16", "--out", str(out_path))
        assert code == EXIT_OK
        rows = rows_of(out_path)
        pts, dirs, etas = [], [], []
        for r in rows:
            assert r["status"] == "Optimal"
            d = np.array([float(r["fx"]), float(r["fz"]), float(r["ty"])])
            eta = float(r["eta"])
            dirs.append(d)
            etas.append(eta)
            pts.append(eta * d)
        # convexity: ray-exit points of a convex set are never interior to
        # the hull of the sampled boundary, so each must touch a hull facet
        from scipy.spatial import ConvexHull

        hull = ConvexHull(np.vstack(pts))
        scale = np.max(np.abs(pts))
        for p in pts:
            closest = np.max(hull.equations[:, :3] @ p + hull.equations[:, 3])
            assert closest >= -1e-6 * scale

        # cardinal rays reproduce the per-task eval metrics
        def eta_at(v):
            return next(e for d, e in zip(dirs, etas) if np.allclose(d, v, atol=1e-12))

        def eval_eta(builtin, direction):
            out_csv = tmp_path / f"{builtin}{direction}.csv"
            code, _, _ = run(capsys, "eval", "--builtin", builtin,
                             "--set", "alpha=50deg", "--set", "x_E=0.4L",
                             "--dir", direction, "--format", "csv", "--out", str(out_csv))
            assert code == EXIT_OK
            return float(rows_of(out_csv)[0]["eta"])

        # the slide axis points toward the edge (-x), so dir + is the -fx ray
        assert eta_at([-1, 0, 0]) == pytest.approx(eval_eta("cuboid_slide", "+"), rel=1e-6)
        assert eta_at([1, 0, 0]) == pytest.approx(eval_eta("cuboid_slide", "-"), rel=1e-6)
        assert eta_at([0, 0, 1]) == pytest.approx(eval_eta("cuboid_pivot", "+"), rel=1e-6)
        assert eta_at([0, 0, -1]) == pytest.approx(eval_eta("cuboid_pivot", "-"), rel=1e-6)

    def test_unbounded_rays_tagged_not_fatal(self, capsys, tmp_path):
        # the door-handle hinge reacts with unbounded force: force rays fail,
        # moment rays about the hinge axis succeed
        out_path = tmp_path / "door_gws.csv"
        code, _, _ = run(capsys, "gws", "--builtin", "door_handle",
                         "--subspace", "fx,tz", "--rays", "8", "--out", str(out_path))
        assert code == EXIT_OK
        rows = rows_of(out_path)
        by_dir = {(float(r["fx"]), float(r["tz"])): r for r in rows}
        assert by_dir[(1.0, 0.0)]["status"] == "Unbounded"
        assert by_dir[(0.0, 1.0)]["status"] == "Optimal"
        assert float(by_dir[(0.0, 1.0)]["eta"]) == pytest.approx(0.12, abs=1e-5)
        assert float(by_dir[(0.0, -1.0)]["eta"]) == pytest.approx(0.12, abs=1e-5)

    def test_bad_subspace(self, capsys):
        assert run(capsys, "gws", "--builtin", "door_handle", "--subspace", "fx")[0] == EXIT_INPUT
        assert run(capsys, "gws", "--builtin", "door_handle", "--subspace", "fx,zz")[0] == EXIT_INPUT


# mu * e_t underflows to 0, or is subnormal so that 1 / (mu e_t) overflows
UNDERFLOWING_FRICTION = [("mu_c=1e-200", "e_t=1e-200"), ("mu_c=1e-300", "e_t=1e-10")]


@pytest.mark.parametrize("mu, e_t", UNDERFLOWING_FRICTION)
class TestUnderflowingFriction:
    """A friction cone whose coefficient 1 / (mu e) is not finite is a solver
    data error: ``eval`` exits 5, and ``sweep`` and ``gws`` write error rows."""

    def test_eval_exits_with_solver_data_error(self, capsys, mu, e_t):
        code, _, err = run(capsys, "eval", "--builtin", "door_handle", "--set", mu, "--set", e_t)
        assert code == 5
        assert err == "error: SOC block 'm0.cone' contains NaN/Inf\n"

    def test_sweep_rows_are_errors(self, capsys, tmp_path, mu, e_t):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--builtin", "door_handle", "--set", mu, "--set", e_t,
                         "--sweep", "theta=0deg:10deg:3", "--out", str(out))
        assert code == EXIT_OK
        assert [r["status"] for r in rows_of(out)] == ["error: SOC block 'm0.cone' contains NaN/Inf"] * 3

    def test_gws_rows_are_errors(self, capsys, tmp_path, mu, e_t):
        out = tmp_path / "gws.csv"
        code, _, _ = run(capsys, "gws", "--builtin", "door_handle", "--set", mu, "--set", e_t,
                         "--subspace", "fx,fz,ty", "--rays", "4", "--out", str(out))
        assert code == EXIT_OK
        rows = rows_of(out)
        assert len(rows) == 6 and {r["status"] for r in rows} == {"error: SOC block 'm0.cone' contains NaN/Inf"}


# with s = sqrt(1/2), q x l = (2 s 1.7e308, 0, 0) and p x f = (0, 0, -3.4e308) overflow
_S = np.sqrt(0.5)
OVERFLOWING_TASK = TaskScrew(l=[0.0, -_S, _S], q=[0.0, 1.7e308, 1.7e308], pitch=0.0)
OVERFLOWING_LOAD = ExternalWrench(force=[1.0, -1.0, 0.0], application_point=[1.7e308, 1.7e308, 0.0])


class TestOverflowingWrench:
    """A task screw or external wrench whose components overflow is a solver
    data error: ``eval`` exits 5 and ``gws`` writes error rows."""

    @staticmethod
    def scenario_file(tmp_path, **change):
        from dataclasses import replace

        from screwgrasp.scenarios import builtin_scenario

        path = tmp_path / "overflow.scenario"
        save_scenario(replace(builtin_scenario("door_handle"), family=None, **change), path)
        return str(path)

    @pytest.mark.parametrize("change", [{"tasks": (("S", OVERFLOWING_TASK),)}, {"external": OVERFLOWING_LOAD}],
                             ids=["task", "external"])
    def test_eval_exits_with_solver_data_error(self, capsys, tmp_path, change):
        code, out, err = run(capsys, "eval", "--scenario", self.scenario_file(tmp_path, **change))
        assert code == 5
        assert (out, err) == ("", "error: wrench components must be finite\n")

    def test_gws_rows_are_errors(self, capsys, tmp_path):
        out = tmp_path / "gws.csv"
        code, _, _ = run(capsys, "gws", "--scenario", self.scenario_file(tmp_path, external=OVERFLOWING_LOAD),
                         "--subspace", "fx,fz,ty", "--rays", "4", "--out", str(out))
        assert code == EXIT_OK
        rows = rows_of(out)
        assert len(rows) == 6 and {r["status"] for r in rows} == {"error: wrench components must be finite"}


def run_child(*argv):
    """``python -m screwgrasp.cli argv`` in a child process that imports the same screwgrasp as this suite."""
    src = str(Path(screwgrasp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "screwgrasp.cli", *argv], capture_output=True, text=True, env=env)


def test_console_entry_point_smoke():
    proc = run_child("eval", "--builtin", "door_handle")
    assert proc.returncode == 0
    assert "status: Optimal" in proc.stdout


def test_huge_finite_data_fails_without_warnings():
    """Parameters that pass every check but overflow the solver's initial
    point give a NumericalFailure at 0 iterations, with nothing on stderr
    (no numpy RuntimeWarning)."""
    proc = run_child("eval", "--builtin", "door_handle", "--set", "L=1e308", "--set", "x_c=1e308",
                     "--set", "theta=1e300")
    assert (proc.returncode, proc.stderr) == (EXIT_SOLVER, "")
    assert "status: NumericalFailure" in proc.stdout and "iterations: 0 " in proc.stdout


@pytest.mark.parametrize("argv", [
    ("gws", "--builtin", "door_handle", "--ray", "4", "--subspace", "fx,tz"),
    ("eval", "--built", "door_handle"),
    ("sweep", "--builtin", "door_handle", "--swee", "theta=0deg:5deg:2"),
    ("oracle-check", "--builtin", "door_handle", "--facet", "8"),
])
def test_truncated_flag_is_refused(capsys, argv):
    """A flag must be spelled out: a unique prefix is not taken for the flag it starts."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert "unrecognized arguments" in err or "required" in err


def test_parser_built_once_per_process(capsys):
    """``main`` reuses one parser; its help and error exits stay as they were."""
    from screwgrasp import cli

    assert cli._build_parser() is cli._build_parser()
    code, help_text, _ = run(capsys, "--help")
    assert code == EXIT_OK and help_text.startswith("usage: screw-grasp")
    assert run(capsys, "--help") == (EXIT_OK, help_text, "")
    assert run(capsys, "nonsense")[0] == EXIT_INPUT


@pytest.mark.parametrize("argv, message", [
    (("eval", "--builtin", "door_handle", "--set", "x_c"),
     "screw-grasp eval: error: argument --set: --set expects K=V, got 'x_c'"),
    (("sweep", "--builtin", "door_handle", "--sweep", "theta=0:1:0"),
     "screw-grasp sweep: error: argument --sweep: sweep count must be >= 1"),
    (("eval", "--builtin", "door_handle", "--dir", "x"),
     "screw-grasp eval: error: argument --dir: invalid choice: 'x' (choose from '+', '-')"),
    (("gws", "--builtin", "cuboid_slide", "--rays", "3"),
     "screw-grasp gws: error: argument --rays: --rays must be >= 4"),
    (("oracle-check", "--builtin", "door_handle", "--facets", "3"),
     "screw-grasp oracle-check: error: argument --facets: facets must be >= 4"),
    (("sweep", "--scenario", None, "--sweep", "theta=0:0.5L:3"),
     "error: the 'L' suffix needs a scenario family with an L parameter"),
], ids=["set-without-value", "sweep-count-0", "dir", "rays", "facets", "L-without-family"])
def test_input_rule_exits_4_with_its_message(capsys, tmp_path, infeasible_file, argv, message):
    """Each flag rule README's exit codes promise: exit 4, nothing on stdout
    or in ``--out``, and one message as the last line on stderr (None in
    ``argv`` is a scenario file without a generator family)."""
    out = tmp_path / "out.csv"
    code, printed, err = run(capsys, *(infeasible_file if a is None else a for a in argv), "--out", str(out))
    assert (code, printed, err.splitlines()[-1]) == (EXIT_INPUT, "", message)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("eval", "--builtin", "door_handle", "--tol-feas", "-1"),
    ("eval", "--builtin", "door_handle", "--tol-gap", "0"),
    ("gws", "--builtin", "door_handle", "--tol-gap", "nan"),
    ("eval", "--builtin", "door_handle", "--tol-feas", "inf"),
    ("sweep", "--builtin", "door_handle", "--tol-gap", "inf", "--sweep", "theta=0deg:5deg:2"),
])
def test_bad_tolerance_is_input_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert "tolerance must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    (("sweep", "--builtin", "door_handle", "--sweep", "theta=0:nan:3"), "nan"),
    (("sweep", "--builtin", "door_handle", "--sweep", "theta=0:inf:3"), "inf"),
    (("sweep", "--builtin", "door_handle", "--sweep", "theta=-infdeg:0:3"), "-infdeg"),
    (("sweep", "--builtin", "door_handle", "--sweep", "theta=0:1e400:3"), "1e400"),
    (("eval", "--builtin", "door_handle", "--set", "theta=inf"), "inf"),
])
def test_non_finite_quantity_is_input_error(capsys, tmp_path, argv, text):
    """A sweep bound or ``--set`` value that is not a finite number exits 4
    before anything is solved or written."""
    out = tmp_path / "out.csv"
    code, printed, err = run(capsys, *argv, "--out", str(out))
    assert (code, printed, err) == (EXIT_INPUT, "", f"error: cannot parse quantity {text!r}\n")
    assert not out.exists()


def test_non_numeric_quantity_is_input_error(capsys, tmp_path):
    """A sweep bound that is no number at all exits 4, as a non-finite one does."""
    out = tmp_path / "out.csv"
    code, printed, err = run(capsys, "sweep", "--builtin", "door_handle", "--sweep", "theta=0:abc:3", "--out", str(out))
    assert (code, printed, err) == (EXIT_INPUT, "", "error: cannot parse quantity 'abc'\n")
    assert not out.exists()


def test_eval_reports_a_negative_eta_with_a_warning(capsys):
    """A spring stiffer than the pinch can turn: eta < 0 is reported as is,
    with a warning line, and eval exits 0."""
    code, out, err = run(capsys, "eval", "--builtin", "door_handle", "--set", "k_t=100", "--set", "theta=0.5")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:4] == [
        "status: Optimal", "eta: -49.8800003",
        "warning: eta < 0: the grasp cannot null the external wrench along the task screw"]


@pytest.mark.parametrize("argv", [
    ("eval", "--builtin", "door_handle"),
    ("sweep", "--builtin", "door_handle", "--sweep", "theta=0deg:5deg:2"),
    ("oracle-check", "--builtin", "door_handle", "--facets", "8"),
    ("gws", "--builtin", "door_handle", "--subspace", "fx,tz", "--rays", "4"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_out_is_input_error(capsys, tmp_path, argv, where):
    path = tmp_path / "missing" / "report.csv" if where == "missing_directory" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("value, level", [("debug", logging.DEBUG), ("DEBUG", logging.DEBUG),
                                          ("info", logging.WARNING), ("warning", logging.WARNING),
                                          ("", logging.WARNING)])
def test_debug_is_the_one_log_setting(capsys, monkeypatch, value, level):
    """``SCREW_GRASP_LOG=debug`` turns debug logging on; any other value
    leaves the default, as the package logs at debug only."""
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    monkeypatch.setenv("SCREW_GRASP_LOG", value)
    run(capsys, "nonsense")
    assert levels == [level]


@pytest.mark.parametrize("argv", [
    ("eval", "--builtin", "door_handle"),
    ("oracle-check", "--builtin", "door_handle", "--facets", "8"),
])
def test_out_writes_the_stdout_report(capsys, tmp_path, argv):
    """``--out`` takes the report that would go to stdout, for every subcommand."""

    def masked(text):  # eval's wall-clock time differs between runs
        return re.sub(r"wall_ms: \S+", "wall_ms: -", text)

    code, printed, _ = run(capsys, *argv)
    assert code == EXIT_OK and printed
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    assert masked(out_path.read_bytes().decode("utf-8")) == masked(printed)


def test_readme_commands_parse():
    """Every ``screw-grasp`` command in the README's sh blocks parses as written,
    so the README and the parser cannot drift apart."""
    from screwgrasp import cli

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0].replace("\\\n", " ") for block in text.split("```sh\n")[1:]]
    commands = [shlex.split(line) for block in blocks for line in block.splitlines()
                if line.startswith("screw-grasp ")]
    assert {argv[1] for argv in commands} == {"eval", "sweep", "oracle-check", "gws"}
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def _torque_document() -> dict:
    """The door handle with a joint-torque model: one joint per finger, along its normal."""
    from dataclasses import replace

    from screwgrasp.problem import TorqueModel
    from screwgrasp.scenarios import builtin_scenario, scenario_to_dict

    J = np.zeros((12, 2))
    J[2, 0] = J[8, 1] = 1.0
    tm = TorqueModel(jacobian=J, tau_g=[0.0, 0.0], tau_min=[-5.0, -5.0], tau_max=[5.0, 5.0], dofs=(1, 1))
    return scenario_to_dict(replace(builtin_scenario("door_handle"), torque_model=tm))


def _set(*keys_and_value):
    """An edit of the document: the node at ``keys`` becomes ``value``."""
    *keys, last, value = keys_and_value

    def edit(doc):
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
    return edit


BUNDLED = Path(screwgrasp.__file__).parent / "data"  # the golden scenarios shipped with the package


def _document(base: str) -> dict:
    return _torque_document() if base == "torque" else json.loads((BUNDLED / f"{base}.scenario").read_text())


# one edit of a base document, and the path the error must name
MALFORMED = [pytest.param(base, edit, field, id=name) for name, base, edit, field in [
    ("contact_not_an_object", "door_handle", _set("manipulator_contacts", 0, 5), "$.manipulator_contacts[0]:"),
    ("family_param_string", "door_handle", _set("family", "params", "theta", "x"), "$.family.params.theta:"),
    ("tau_g_entry_string", "torque", _set("torque_model", "tau_g", 1, "x"), "$.torque_model.tau_g[1]:"),
    ("dofs_strings", "torque", _set("torque_model", "dofs", ["1", "1"]), "$.torque_model.dofs[0]:"),
    ("dofs_bare_integer", "torque", _set("torque_model", "dofs", 2), "$.torque_model.dofs:"),
    ("finger_f_n_max_infinity", "door_handle", _set("manipulator_contacts", 1, "f_n_max", math.inf),
     "$.manipulator_contacts[1].f_n_max:"),
    ("environment_f_n_max_infinity", "cuboid_pivot", _set("environment_contacts", 0, "f_n_max", math.inf),
     "$.environment_contacts[0].f_n_max:"),
    ("f_n_min_nan", "cuboid_pivot", _set("environment_contacts", 1, "f_n_min", math.nan),
     "$.environment_contacts[1].f_n_min:"),
    ("prescribed_nan", "door_handle", _set("environment_contacts", 0, "model", "prescribed", "m_n", math.nan),
     "$.environment_contacts[0].model.prescribed.m_n:"),
    ("pitch_nan", "door_handle", _set("tasks", 0, "pitch", math.nan), "$.tasks[0].pitch:"),
    ("schema_version_true", "door_handle", _set("schema_version", True), "$.schema_version:"),
    ("jacobian_booleans", "torque", _set("torque_model", "jacobian", [[True] * 2] * 12),
     "$.torque_model.jacobian[0][0]:"),
    ("description_number", "door_handle", _set("description", 5), "$.description:"),
    ("family_param_1e400", "door_handle", _set("family", "params", "theta", "1e400"), "$.family.params.theta:"),
    ("repeated_label", "cuboid_slide", lambda doc: doc["tasks"].append(dict(doc["tasks"][0])),
     "$.tasks[1].label: 'S2' repeats $.tasks[0].label"),
    ("family_generator_unknown", "door_handle", _set("family", "generator", "door"),
     "$.family.generator: unknown generator 'door'"),
    ("family_param_unknown", "door_handle", _set("family", "params", "bogus", 1.0),
     "$.family.params.bogus: unknown parameter of 'door_handle'"),
    ("family_param_out_of_range", "door_handle", _set("family", "params", "L", -0.2),
     "$.family.params: L must be positive"),
    # two fingers need 12 jacobian rows; without dofs only the problem checks the count
    ("jacobian_six_rows", "torque", lambda doc: doc["torque_model"].update(
        jacobian=doc["torque_model"]["jacobian"][:6], dofs=None),
     "$: jacobian has 6 rows, expected 6 x 2 manipulator contacts"),
    ("tasks_empty", "door_handle", _set("tasks", []), "$.tasks: at least one task is required"),
    # entries whose squares overflow: rejected before the arithmetic, without a RuntimeWarning
    ("rotation_entry_1e200", "door_handle", _set("manipulator_contacts", 0, "rotation", 0, 1, 1e200),
     "$.manipulator_contacts[0].rotation: not a rotation matrix"),
    ("task_axis_entry_1e200", "door_handle", _set("tasks", 0, "axis", 0, 1e200),
     "$.tasks[0].axis: expected a unit vector"),
]]


class TestMalformedScenario:
    """Every malformed scenario file exits 4 ("input error") and names the
    offending field, with no traceback."""

    @staticmethod
    def write(tmp_path, doc) -> str:
        # the string "1e400" is written as that bare number, which json.dumps never writes
        path = tmp_path / "malformed.scenario"
        path.write_text(json.dumps(doc, indent=2).replace('"1e400"', "1e400"), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("base", ["door_handle", "cuboid_pivot", "cuboid_slide", "torque"])
    def test_unedited_documents_evaluate(self, capsys, tmp_path, base):
        assert run(capsys, "eval", "--scenario", self.write(tmp_path, _document(base)))[0] == EXIT_OK

    @pytest.mark.parametrize("base,edit,field", MALFORMED)
    def test_exits_4_naming_the_field(self, capsys, tmp_path, base, edit, field):
        doc = _document(base)
        edit(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a rejection writes no warning first
            code, out, err = run(capsys, "eval", "--scenario", self.write(tmp_path, doc))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: {field}") and "Traceback" not in err

    def test_sweep_exits_4_naming_the_generator(self, capsys, tmp_path):
        doc = _document("door_handle")
        doc["family"]["generator"] = "door"
        code, out, err = run(capsys, "sweep", "--scenario", self.write(tmp_path, doc),
                             "--sweep", "theta=0deg:40deg:3", "--out", str(tmp_path / "sweep.csv"))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: $.family.generator: unknown generator 'door'") and "Traceback" not in err

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.scenario"
        path.write_bytes((BUNDLED / "door_handle.scenario").read_bytes().replace(b"door_handle", b"t\xfcr", 1))
        code, out, err = run(capsys, "eval", "--scenario", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode") and "Traceback" not in err
