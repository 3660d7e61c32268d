import importlib.util
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (bundled_programs, corpus_draw, corpus_pick, cuboid_problems, door_problems, mkprog,
                      plan_for, presolve_group, soc, stacks_of)
from solve_digest import result_bytes
import screwgrasp
from screwgrasp import contacts, solver
from screwgrasp.errors import SolverDataError, UnsupportedProgramError
from screwgrasp.problem import ProgramStack, compile_program
from screwgrasp.scenarios import DoorHandleParams, builtin_scenario, door_handle_scenario
from screwgrasp.solver import Residuals, SolveResult, SolveSettings, solve, solve_with_oracle
from test_plan import FUZZ_EXITS

TIGHT = SolveSettings(feasibility_tol=1e-9, duality_gap_tol=1e-10)


def box_only():
    """maximize eta s.t. eta <= 3"""
    return mkprog([1.0], np.zeros((0, 1)), [], ub=[3.0])


def disk():
    """maximize x + y s.t. ||(x, y)|| <= 1; optimum sqrt(2) at x = y"""
    return mkprog([1.0, 1.0], np.zeros((0, 2)), [], socs=[soc(np.eye(2), np.zeros(2), np.zeros(2), 1.0)])


def unsupported_load():
    """a cone that can only push +n asked to balance a -n load: infeasible"""
    # x0 >= 0 (cone surrogate), equality x0 = -5
    return mkprog([0.0, 1.0], [[1.0, 0.0]], [-5.0], lb=[0.0, -np.inf], ub=[np.inf, 3.0])


def free_ray():
    """maximize eta with eta = f_n, f_n >= 0 uncapped: unbounded"""
    return mkprog([0.0, 1.0], [[1.0, -1.0]], [0.0], lb=[0.0, -np.inf])


class TestClosedFormPrograms:
    def test_box(self):
        r = solve(box_only(), TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - 3.0) <= 1e-8

    def test_disk(self):
        r = solve(disk(), TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - np.sqrt(2.0)) <= 1e-8
        assert np.allclose(r.primal, [1 / np.sqrt(2)] * 2, atol=1e-6)

    def test_forced_eta_through_redundant_equalities(self):
        w = np.array([0.0, 0, 1, 0, 0, 0])
        prog = mkprog([1.0], (-w).reshape(6, 1), -2.0 * w)
        r = solve(prog, TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - 2.0) <= 1e-8

    def test_infeasible(self):
        assert solve(unsupported_load(), TIGHT).status == "Infeasible"

    def test_unbounded(self):
        r = solve(free_ray(), TIGHT)
        assert r.status == "Unbounded"
        assert r.certificate is not None

    def test_unseen_free_ray_needs_feasibility(self):
        # eta appears in no constraint, so presolve finds a free improving
        # ray; it proves unboundedness only when x0 = g is feasible
        def prog(g):
            return mkprog([0.0, 1.0], [[1.0, 0.0]], [g], lb=[0.0, -np.inf])

        assert solve(prog(5.0), TIGHT).status == "Unbounded"
        r = solve(prog(-5.0), TIGHT)
        assert r.status == "Infeasible"
        assert r.objective is None


class TestResultContracts:
    def test_optimal_residuals_certified(self):
        p = door_handle_scenario(DoorHandleParams(x_c=0.05)).problem()
        prog = compile_program(p)
        r = solve(prog)
        assert r.status == "Optimal"
        # re-derive the residuals straight from the primal and program data
        eq = np.max(np.abs(prog.F @ r.primal - prog.g)) / (1 + np.max(np.abs(prog.g)))
        assert eq <= SolveSettings().feasibility_tol
        for blk in prog.socs:
            viol = np.linalg.norm(blk.A @ r.primal + blk.b) - (blk.c @ r.primal + blk.d)
            assert viol <= SolveSettings().feasibility_tol
        lo = np.where(np.isfinite(prog.lb), prog.lb - r.primal, -np.inf)
        hi = np.where(np.isfinite(prog.ub), r.primal - prog.ub, -np.inf)
        assert max(lo.max(), hi.max()) <= SolveSettings().feasibility_tol
        assert isinstance(r.residuals, Residuals)
        assert r.residuals.gap <= SolveSettings().duality_gap_tol

    def test_determinism(self):
        prog = compile_program(door_handle_scenario(DoorHandleParams(x_c=0.1, theta=0.2)).problem())
        a = solve(prog, TIGHT)
        b = solve(prog, TIGHT)
        assert a.status == b.status
        assert a.objective == b.objective  # bitwise identical path
        assert np.array_equal(a.primal, b.primal)

    def test_iteration_limit_is_not_silent_optimal(self):
        r = solve(disk(), SolveSettings(max_iterations=2))
        assert r.status == "IterationLimit"
        assert r.objective is not None  # best iterate reported

    def test_nan_input_is_data_error(self):
        with pytest.raises(SolverDataError):
            solve(mkprog([np.nan], np.zeros((0, 1)), []))

    def test_inf_bound_crossing_is_data_error(self):
        with pytest.raises(SolverDataError):
            solve(mkprog([1.0], np.zeros((0, 1)), [], lb=[2.0], ub=[1.0]))

    @pytest.mark.parametrize("name", ["feasibility_tol", "duality_gap_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-8, np.nan, np.inf])
    def test_settings_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolveSettings(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "200", None, 0])
    def test_max_iterations_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            SolveSettings(max_iterations=value)

    def test_trace_callback(self):
        seen = []
        res = solve(disk(), SolveSettings(), trace=seen.append)
        assert seen and {"iteration", "mu", "relgap"} <= set(seen[0])
        assert [payload["iteration"] for payload in seen] == list(range(res.iterations + 1))
        for payload in seen:
            assert set(payload) == {"iteration", "mu", "eq", "cone", "dual", "relgap", "tau", "kappa"}
            # plain Python numbers, so a logged payload reads 0.1656, not np.float64(0.1656)
            assert {type(v) for v in payload.values()} == {int, float} and type(payload["iteration"]) is int

    @pytest.mark.parametrize("name,calls", [("door_handle", 6), ("cuboid_pivot", 12), ("cuboid_slide", 14)])
    def test_trace_one_call_per_iteration(self, name, calls):
        seen = []
        res = solve(compile_program(builtin_scenario(name).problem()), trace=seen.append)
        assert len(seen) == res.iterations + 1 == calls

    def test_a_large_bounded_optimum_is_optimal(self):
        """Unbounded needs an improving ray: maximize x s.t. x <= u is
        Optimal at exactly u however large u is, with zero residuals."""
        for u in (2e10, 5e11, 1e12, 3e13):
            r = solve(mkprog([1.0], np.zeros((0, 1)), [], ub=[u]))
            assert (r.status, r.objective, r.certificate) == ("Optimal", u, None)
            assert r.primal.tolist() == [u] and (r.residuals.primal, r.residuals.cone) == (0.0, 0.0)

    def test_backend_seam(self):
        from screwgrasp.solver import Residuals, SolveResult

        def fake_backend(prog, settings, trace):
            return SolveResult("Optimal", 42.0, np.zeros(prog.n_vars),
                               Residuals(0.0, 0.0, 0.0), 0)

        r = solve(box_only(), TIGHT, backend=fake_backend)
        assert r.objective == 42.0

    def test_certificates_carry_residual_magnitudes(self):
        infeasible = solve(unsupported_load(), TIGHT)
        assert "Farkas" in infeasible.certificate and "=" in infeasible.certificate
        unbounded = solve(free_ray(), TIGHT)
        assert "ray" in unbounded.certificate


def test_singular_kkt_matrix_is_a_factorization_failure():
    """An exactly singular KKT matrix (a repeated equality row) is a
    factorization failure: ``dsytrf`` meets an exactly zero pivot,
    ``_factor_one`` gives None, ``factor`` reports it, and K is left as it was."""
    kkt = solver._KKT(np.ones((2, 2)), np.zeros((0, 2)), solver._Cone(0, []))
    K = kkt.K.copy()
    assert solver._sytrf(K, lower=1)[2] > 0
    assert kkt._factor_one(kkt.K) is None
    assert kkt.factor(np.ones(0), [])
    assert np.array_equal(K, kkt.K)


def oracle_lp(prog, facets: int) -> tuple[np.ndarray, ...]:
    """The oracle's LP as dense arrays (c, A_eq, b_eq, lower, upper), built as
    ``solver._oracle_model`` documents it: minimize c'x s.t. A_eq x = b_eq,
    lower <= x <= upper, with x the program's variables and then each block's
    ray weights lambda >= 0, a block ||A x + b|| <= c'x + d of k rows giving
    A x - U lambda = -b and c'x - 1'lambda = -d.  The reference of the CSC
    arrays that the oracle hands to HiGHS, and the LP of ``linprog_oracle``."""
    units = [{2: contacts._pcwf_units, 3: contacts._sfce_units}[blk.A.shape[0]](facets) for blk in prog.socs]
    n, m = prog.n_vars, prog.F.shape[0]
    total = n + sum(U.shape[1] for U in units)
    A_eq = np.zeros((m + sum(U.shape[0] + 1 for U in units), total))
    b_eq = np.zeros(A_eq.shape[0])
    A_eq[:m, :n], b_eq[:m] = prog.F, prog.g
    row, col = m, n
    for blk, U in zip(prog.socs, units):
        k, r = U.shape
        A_eq[row : row + k, :n], A_eq[row : row + k, col : col + r], b_eq[row : row + k] = blk.A, -U, -blk.b
        A_eq[row + k, :n], A_eq[row + k, col : col + r], b_eq[row + k] = blk.c, -1.0, -blk.d
        row, col = row + k + 1, col + r
    c_lp, lower, upper = np.zeros(total), np.zeros(total), np.full(total, np.inf)
    c_lp[:n], lower[:n], upper[:n] = -prog.f, prog.lb, prog.ub
    return c_lp, A_eq, b_eq, lower, upper


class TestOracle:
    def test_lower_bound_and_monotone_facets(self):
        prog = compile_program(door_handle_scenario(DoorHandleParams(x_c=0.05, theta=0.1)).problem())
        socp = solve(prog, TIGHT)
        prev = -np.inf
        for facets in (8, 16, 32, 64):
            lp = solve_with_oracle(prog, facets)
            assert lp.status == "Optimal"
            assert lp.objective <= socp.objective + 1e-8
            assert lp.objective >= prev - 1e-9
            prev = lp.objective
        assert (socp.objective - prev) / abs(socp.objective) <= 0.02

    def test_oracle_solution_is_cone_feasible(self):
        prog = compile_program(door_handle_scenario(DoorHandleParams(x_c=0.05)).problem())
        lp = solve_with_oracle(prog, 16)
        assert lp.residuals.cone <= 1e-7  # inscribed rays stay inside the true cones
        assert lp.residuals.primal <= 1e-7

    def test_any_two_row_block_is_inscribed(self):
        # the octagon has a vertex at 45 degrees, where x + y is largest on the disk
        lp = solve_with_oracle(disk(), 8)
        assert lp.status == "Optimal"
        assert lp.objective == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("name", ["door_handle", "cuboid_pivot", "cuboid_slide"])
    def test_lp_rows_are_each_block_and_its_unit_table(self, name):
        # ||A x + b|| <= c'x + d becomes A x - U lambda = -b and c'x - 1'lambda = -d, lambda >= 0
        prog = compile_program(builtin_scenario(name).problem())
        _, A_eq, b_eq, lower, upper = oracle_lp(prog, 16)
        n = prog.n_vars
        row, col = prog.F.shape[0], n
        assert A_eq[:row, :n].tobytes() == prog.F.tobytes() and not A_eq[:row, n:].any()
        for blk in prog.socs:
            U = {2: contacts._pcwf_units, 3: contacts._sfce_units}[blk.A.shape[0]](16)
            k, r = U.shape
            want = np.zeros((k + 1, A_eq.shape[1]))
            want[:k, :n], want[:k, col : col + r] = blk.A, -U
            want[k, :n], want[k, col : col + r] = blk.c, -1.0
            assert A_eq[row : row + k + 1].tobytes() == want.tobytes()
            assert b_eq[row : row + k + 1].tobytes() == np.append(-blk.b, -blk.d).tobytes()
            row, col = row + k + 1, col + r
        assert (row, col) == A_eq.shape
        assert (lower[n:] == 0.0).all() and (upper[n:] == np.inf).all()

    def test_five_row_block_rejected(self):
        prog = mkprog(np.ones(5), np.zeros((0, 5)), [], socs=[soc(np.eye(5), np.zeros(5), np.zeros(5), 1.0, "ball")])
        with pytest.raises(UnsupportedProgramError, match="SOC block 'ball' has 5 rows"):
            solve_with_oracle(prog, 8)

    def test_agreement_on_infeasible(self):
        prog = unsupported_load()
        assert solve(prog).status == "Infeasible"
        assert solve_with_oracle(prog, 8).status == "Infeasible"

    def test_facet_floor(self):
        with pytest.raises(ValueError):
            solve_with_oracle(unsupported_load(), 3)

    def test_facets_must_be_an_integer(self):
        prog = compile_program(builtin_scenario("door_handle").problem())
        for facets in (32.5, 7.9):
            with pytest.raises(ValueError, match="integer"):
                solve_with_oracle(prog, facets)
        assert result_bytes(solve_with_oracle(prog, np.int64(32))) == result_bytes(solve_with_oracle(prog, 32))

    def test_result_does_not_depend_on_cached_tables(self):
        # cold tables at 64 and 32, then 64 again from the cache
        contacts._ray_columns.cache_clear()
        for name in ("door_handle", "cuboid_pivot", "cuboid_slide"):
            prog = compile_program(builtin_scenario(name).problem())
            first, _, again = (result_bytes(solve_with_oracle(prog, k)) for k in (64, 32, 64))
            assert first == again, name

    def test_unit_tables_are_built_once_per_facet_count(self, monkeypatch):
        # the tables have no cache of their own: the ray columns' cache is what holds them
        calls = []

        def spy(table):
            def build(facets):
                calls.append((table.__name__, facets))
                return table(facets)
            return build

        for table in (contacts._sfce_units, contacts._pcwf_units):
            monkeypatch.setattr(contacts, table.__name__, spy(table))
        contacts._ray_columns.cache_clear()
        for name in ("door_handle", "cuboid_pivot", "cuboid_slide") * 2:
            solve_with_oracle(compile_program(builtin_scenario(name).problem()), 64)
        assert sorted(calls) == [("_pcwf_units", 64), ("_sfce_units", 64)]


# Run in a fresh interpreter: the CLI jobs, then one oracle solve, reporting the
# exit codes, which of scipy.linalg and scipy.optimize were loaded by then, and
# the pickled oracle result; then import both packages and report whether
# they reuse the solver's LAPACK and HiGHS modules and whether linprog solves.
_FRESH_PROCESS = """
import json, pickle, sys
from pathlib import Path
import screwgrasp
from screwgrasp import cli
out = Path(sys.argv[1])
codes = [
    cli.main(["eval", "--builtin", "door_handle"]),
    cli.main(["sweep", "--builtin", "door_handle", "--sweep", "theta=0deg:40deg:3", "--out", str(out / "sweep.csv")]),
    cli.main(["gws", "--builtin", "door_handle", "--rays", "4", "--out", str(out / "gws.csv")]),
]
from screwgrasp import solver
from screwgrasp.problem import compile_program
from screwgrasp.scenarios import builtin_scenario
res = solver.solve_with_oracle(compile_program(builtin_scenario("door_handle").problem()), 16)
(out / "oracle.pickle").write_bytes(pickle.dumps(res))
loaded = [name for name in ("scipy.linalg", "scipy.optimize") if name in sys.modules]
highs = sys.modules["scipy.optimize._highspy._core"]
import scipy.linalg, scipy.optimize
from scipy.optimize._highspy import _core
lp = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
print(json.dumps({
    "codes": codes, "loaded": loaded,
    "same_lapack": [solver._sytrf is scipy.linalg.lapack.dsytrf, solver._sytrs is scipy.linalg.lapack.dsytrs],
    "same_highs": _core is highs, "linprog": [lp.status, lp.fun],
}))
"""


def _child_env() -> dict:
    """This process's environment, for a child that imports the same screwgrasp as this suite."""
    src = str(Path(screwgrasp.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestOracleImport:
    """The solver loads scipy's compiled LAPACK module with itself and the
    HiGHS binding on the first oracle solve, each from its file, so no job
    imports ``scipy.linalg`` or ``scipy.optimize``, and a later import of
    either package reuses the same modules."""

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fresh")
        proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, str(out)],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        return report, pickle.loads((out / "oracle.pickle").read_bytes()), out

    def test_jobs_and_oracle_load_neither_package(self, fresh):
        report, res, out = fresh
        assert report["codes"] == [0, 0, 0]
        assert (out / "sweep.csv").is_file() and (out / "gws.csv").is_file()
        assert res.status == "Optimal"
        assert report["loaded"] == []

    def test_deferred_import_gives_the_same_oracle_result(self, fresh):
        _, res, _ = fresh
        prog = compile_program(builtin_scenario("door_handle").problem())
        assert result_bytes(res) == result_bytes(solve_with_oracle(prog, 16))

    def test_later_package_imports_reuse_the_modules(self, fresh):
        report, _, _ = fresh
        assert report["same_lapack"] == [True, True]
        assert report["same_highs"] is True
        assert report["linprog"] == [0, 1.0]


# Run in a fresh interpreter: the native threads after numpy, and after the
# solver has loaded scipy's LAPACK, and the OpenBLAS setting left behind.
_THREAD_COUNT = """
import json, os
threads = lambda: len(os.listdir("/proc/self/task"))
import numpy
before = threads()
import screwgrasp.solver
print(json.dumps([before, threads(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestScipyExtensions:
    """The oracle's reading of HiGHS's statuses, and ``_scipy_extension``'s
    fallback through the package, its BLAS thread setting and its clean-up."""

    def test_statuses_match_linprog_codes(self):
        # linprog names HiGHS's statuses by its codes 2 (Infeasible) and 3 (Unbounded)
        from scipy.optimize._highspy._core import HighsModelStatus
        from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

        for status in HighsModelStatus.__members__.values():
            code, _ = _highs_to_scipy_status_message(status, "")
            want = {2: "Infeasible", 3: "Unbounded"}.get(code, "NumericalFailure")
            if status.name == "kModelError":
                want = "NumericalFailure"  # linprog's code 2, but a model HiGHS refuses was never solved
            assert solver._ORACLE_STATUS.get(status.name, "NumericalFailure") == want, status

    def test_no_extension_file_for_a_missing_module(self):
        assert solver._extension_file("scipy.linalg._no_such_module") is None

    def test_fallback_imports_through_the_package(self, monkeypatch):
        # a scipy with another layout: no extension file is found, so the module
        # comes from importing it through scipy.linalg; CPython keeps one copy of
        # a single-phase extension's state, so its functions are the same objects
        name = "scipy.linalg._flapack"
        monkeypatch.setattr(solver, "_extension_file", lambda _name: None)
        monkeypatch.delitem(sys.modules, name)
        module = solver._scipy_extension(name)
        assert sys.modules[name] is module
        assert module.dsytrf is solver._sytrf and module.dsytrs is solver._sytrs

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
    def test_loading_lapack_starts_no_thread(self):
        """Without a BLAS thread setting, importing the solver loads scipy's
        OpenBLAS with one thread, so it starts no worker beside numpy's, and
        leaves the environment as it was; a caller's setting is kept."""
        env = {k: v for k, v in _child_env().items() if k not in _BLAS_THREADS}
        for setting in (None, "2"):
            proc = subprocess.run([sys.executable, "-c", _THREAD_COUNT], capture_output=True, text=True,
                                  env=env if setting is None else {**env, "OPENBLAS_NUM_THREADS": setting})
            assert proc.returncode == 0, proc.stderr
            before, after, left = json.loads(proc.stdout)
            assert left == setting
            if setting is None:
                assert after == before

    @pytest.mark.parametrize("setting", [None, "3"])
    def test_failed_load_leaves_no_trace(self, monkeypatch, setting):
        """A load that fails re-raises its error, with the module's name left
        out of ``sys.modules`` and the environment as it was; the one-thread
        setting is in place when the file is loaded, unless the caller set one."""
        name = "scipy.linalg._flapack"
        for var in _BLAS_THREADS:
            monkeypatch.delenv(var, raising=False)
        if setting is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
        environ, seen = dict(os.environ), []

        def fail(spec):
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            raise ImportError(f"cannot load {spec.name}")

        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(importlib.util, "module_from_spec", fail)
        with pytest.raises(ImportError, match=f"cannot load {name}"):
            solver._scipy_extension(name)
        assert seen == [setting or "1"]
        assert name not in sys.modules
        assert dict(os.environ) == environ


# two FixedSupport contacts whose free reactions align with the task: the
# objective improves along a ray no constraint sees, yet the program is infeasible
FREE_RAY_DRAWS = [(1, 187), (1, 189), (3, 94), (3, 116), (3, 197), (6, 41), (8, 52), (8, 198)]


@pytest.mark.parametrize("seed,trial", FREE_RAY_DRAWS)
def test_free_ray_on_infeasible_draw(seed, trial):
    prog = compile_program(*corpus_draw(seed, trial))
    res = solve(prog, SolveSettings(duality_gap_tol=1e-9))
    assert res.status == "Infeasible", res.certificate
    assert "Farkas" in res.certificate
    assert solve_with_oracle(prog, 32).status == "Infeasible"


def linprog_oracle(prog, facets: int) -> SolveResult:
    """The oracle's LP solved by ``scipy.optimize.linprog(method="highs")`` and
    read as the oracle reads HiGHS, without a certificate: the reference of
    ``solve_with_oracle``, which must give the same ``lp_bytes``."""
    from scipy.optimize import linprog

    c, A_eq, b_eq, lower, upper = oracle_lp(prog, facets)
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=np.column_stack([lower, upper]), method="highs")
    if res.status == 0:
        x = res.x[: prog.n_vars]
        eq, viol = solver._ResidualCheck(ProgramStack.of([prog]), 0)(x)
        return SolveResult("Optimal", float(prog.f @ x), x, Residuals(eq, viol, math.nan), int(res.nit))
    status = {2: "Infeasible", 3: "Unbounded"}.get(res.status, "NumericalFailure")
    return SolveResult(status, None, None, Residuals(math.nan, math.nan, math.nan), int(getattr(res, "nit", 0) or 0))


def lp_bytes(res: SolveResult) -> bytes:
    """``result_bytes`` of an oracle result but for its certificate, which is
    HiGHS's own status text, not linprog's message."""
    return result_bytes(replace(res, certificate=None))


BUNDLED = ("door_handle", "cuboid_pivot", "cuboid_slide")


class TestOracleAgainstLinprog:
    """``solve_with_oracle`` hands its LP straight to scipy's bundled HiGHS;
    every result must equal ``linprog``'s on the same arrays, byte for byte
    (status, objective, primal, residuals and iterations).  A scipy release
    that changes the private binding fails here."""

    @pytest.mark.parametrize("facets", [8, 16, 32, 64])
    @pytest.mark.parametrize("direction", [+1, -1])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled(self, name, direction, facets):
        prog = compile_program(builtin_scenario(name).problem(), direction)
        assert lp_bytes(solve_with_oracle(prog, facets)) == lp_bytes(linprog_oracle(prog, facets))

    def test_infeasible(self):
        res = solve_with_oracle(unsupported_load(), 8)
        assert (res.status, res.certificate) == ("Infeasible", "model_status is Infeasible; primal_status is None")
        assert lp_bytes(res) == lp_bytes(linprog_oracle(unsupported_load(), 8))

    @pytest.mark.parametrize("seed,trial", FREE_RAY_DRAWS)
    def test_free_ray_draws(self, seed, trial):
        prog = compile_program(*corpus_draw(seed, trial))
        assert lp_bytes(solve_with_oracle(prog, 32)) == lp_bytes(linprog_oracle(prog, 32))

    def test_fuzz_corpus_slice(self):
        progs = [compile_program(p, d) for _, _, p, d in corpus_pick(200, 14)]
        got = [solve_with_oracle(prog, 32) for prog in progs]
        assert [lp_bytes(r) for r in got] == [lp_bytes(linprog_oracle(prog, 32)) for prog in progs]
        assert {r.status for r in got} >= {"Optimal", "Infeasible"}

    def test_model_highs_rejects(self):
        # HiGHS refuses a matrix entry of 1e15 or more (kModelError): that LP was never solved,
        # so the oracle reads NumericalFailure where linprog reads Infeasible
        prog = mkprog([0.0, 1.0], [[1e16, 0.0]], [-5.0], lb=[0.0, -np.inf], ub=[np.inf, 3.0])
        res = solve_with_oracle(prog, 8)
        assert (res.status, res.iterations, res.certificate) == (
            "NumericalFailure", 0, "model_status is Model error")

    def test_highs_infinity_is_ieee_infinity(self):
        # so the bounds reach HiGHS as they are, with no conversion
        from scipy.optimize._highspy._core import kHighsInf

        assert kHighsInf == np.inf

    def test_no_warnings(self):
        progs = bundled_programs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prog in [*progs, unsupported_load(), free_ray()]:
                for facets in (8, 64):
                    solve_with_oracle(prog, facets)


def highs_refuses():
    """``test_model_highs_rejects``'s program: a matrix entry HiGHS refuses to load."""
    return mkprog([0.0, 1.0], [[1e16, 0.0]], [-5.0], lb=[0.0, -np.inf], ub=[np.inf, 3.0])


def bytes_of(arrays) -> list:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestOracleHandOver:
    """What ``solve_with_oracle`` hands to HiGHS: the CSC arrays written block
    by block must be the dense reference LP's, bit for bit, and the HiGHS
    each thread keeps must carry nothing from one call to the next."""

    def assert_model_is_reference(self, prog, facets):
        from scipy.optimize._highspy import _core as hs

        (num_col, num_row, num_nz, fmt, sense, offset, cost, lower, upper, row_lower, row_upper,
         start, index, value, integrality) = solver._oracle_model(prog, facets)
        c, A_eq, b_eq, lo, up = oracle_lp(prog, facets)
        cols, rows = np.nonzero(A_eq.T)  # A_eq's nonzeros, column by column
        want_start = np.append(0, np.cumsum(np.bincount(cols, minlength=A_eq.shape[1]))).astype(np.int32)
        assert (num_col, num_row, num_nz) == (A_eq.shape[1], A_eq.shape[0], len(rows))
        assert (fmt, sense, offset) == (int(hs.MatrixFormat.kColwise), int(hs.ObjSense.kMinimize), 0.0)
        assert bytes_of([start, index, value]) == bytes_of([want_start, rows.astype(np.int32), A_eq.T[cols, rows]])
        assert bytes_of([cost, lower, upper, row_lower, row_upper]) == bytes_of([c, lo, up, b_eq, b_eq])
        assert bytes_of([integrality]) == bytes_of([np.full(num_col, int(hs.HighsVarType.kContinuous), np.int32)])
        return cost, row_lower

    @pytest.mark.parametrize("facets", [8, 16, 32, 64])
    @pytest.mark.parametrize("direction", [+1, -1])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_model_is_the_dense_reference(self, name, direction, facets):
        prog = compile_program(builtin_scenario(name).problem(), direction)
        cost, _ = self.assert_model_is_reference(prog, facets)
        assert np.signbit(cost[: prog.n_vars][prog.f == 0.0]).all()  # -f's signed zeros reach HiGHS

    def test_fuzz_model_is_the_dense_reference(self):
        signed_rhs = 0
        for _, _, p, d in corpus_pick(200, 14):
            _, rhs = self.assert_model_is_reference(compile_program(p, d), 32)
            signed_rhs += np.signbit(rhs[rhs == 0.0]).any()
        assert signed_rhs  # some -b and -d are -0.0, and they reach HiGHS so

    def test_refused_model_leaves_nothing_behind(self):
        for name in BUNDLED:
            for direction in (+1, -1):
                prog = compile_program(builtin_scenario(name).problem(), direction)
                assert solve_with_oracle(highs_refuses(), 8).status == "NumericalFailure"
                assert lp_bytes(solve_with_oracle(prog, 64)) == lp_bytes(linprog_oracle(prog, 64)), (name, direction)

    def test_order_of_calls_does_not_matter(self):
        progs = [compile_program(p, d) for _, _, p, d in corpus_pick(60, 15)]
        forward = [result_bytes(solve_with_oracle(prog, 32)) for prog in progs]
        backward = [result_bytes(solve_with_oracle(prog, 32)) for prog in reversed(progs)]
        assert backward[::-1] == forward

    def test_each_thread_solves_alone(self):
        progs = [compile_program(p, d) for _, _, p, d in corpus_pick(60, 16)]
        serial = [result_bytes(solve_with_oracle(prog, 32)) for prog in progs]
        halves, got, highs = (progs[:30], progs[30:]), [None, None], [None, None]
        barrier = threading.Barrier(2)

        def run(i):
            barrier.wait(timeout=60)
            got[i] = [result_bytes(solve_with_oracle(prog, 32)) for prog in halves[i]]
            highs[i] = solver._THREAD_HIGHS.highs

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert got[0] + got[1] == serial
        assert len({id(h) for h in [*highs, solver._THREAD_HIGHS.highs]}) == 3


# ---------------------------------------------------------------------------
# Presolve's rank test: singular values alone, a full SVD only to reduce
# ---------------------------------------------------------------------------

def sv_rank(sv, shape):
    """Rank from singular values, per instance, at one tolerance: max(shape)
    * eps times the largest.  The references' own, not the solver's."""
    return (sv > sv[..., :1] * (max(shape) * np.finfo(float).eps)).sum(axis=-1)


def ref_reduce_equalities(sf):
    """``_reduce_equalities`` with its rank from a full SVD every time: the
    reference."""
    p, n = sf.A.shape[-2:]
    if p == 0:
        return sf, np.zeros(sf.A.shape[:-2], dtype=bool), np.ones(sf.A.shape[:-2], dtype=bool)
    U, sv, _ = np.linalg.svd(sf.A, full_matrices=True)
    rank = sv_rank(sv, (p, n))
    r = int(np.ravel(rank)[0])
    if r == p:
        return sf, np.zeros(rank.shape, dtype=bool), rank == r
    UrT = np.swapaxes(U[..., :r], -1, -2)
    b = np.matvec(UrT, sf.b)
    resid = sf.b - np.matvec(U[..., :r], b)
    inconsistent = np.abs(resid).max(axis=-1, initial=0.0) > 1e-9 * (1.0 + np.abs(sf.b).max(axis=-1, initial=0.0))
    return replace(sf, A=UrT @ sf.A, b=b), inconsistent, rank == r


def ref_reduce_null_columns(sf):
    """``_reduce_null_columns`` with its rank from a full SVD every time: the reference."""
    n = sf.c.shape[-1]
    M = np.concatenate([sf.A, sf.G], axis=-2)
    _, sv, Vt = np.linalg.svd(M, full_matrices=True)
    rank = sv_rank(sv, M.shape[-2:])
    r = int(np.ravel(rank)[0])
    if r == n:
        return sf, np.zeros(rank.shape, dtype=bool), rank == r
    free = np.abs(np.matvec(Vt[..., r:, :], sf.c)).max(axis=-1, initial=0.0) > 1e-10 * (
        1.0 + np.abs(sf.c).max(axis=-1, initial=0.0))
    basis = np.swapaxes(Vt[..., :r, :], -1, -2)
    return replace(sf, c=np.matvec(Vt[..., :r, :], sf.c), A=sf.A @ basis, G=sf.G @ basis, basis=basis), free, rank == r


def same_reduction(got, want) -> bool:
    """Equal reduced forms (every array, bit for bit) and equal masks."""
    (a, *masks_a), (b, *masks_b) = got, want
    arrays = [(getattr(a, k), getattr(b, k)) for k in ("c", "A", "b", "G", "h", "col_scale", "basis")]
    return (all((u is None and v is None) or (u is not None and v is not None and u.shape == v.shape
                                             and np.array_equal(u, v)) for u, v in arrays)
            and all(np.array_equal(u, v) for u, v in zip(masks_a, masks_b)))


def svd_ranks(M):
    """(rank from singular values alone, rank from a full SVD's), per instance."""
    alone, full = np.linalg.svd(M, compute_uv=False), np.linalg.svd(M, full_matrices=True)[1]
    return sv_rank(alone, M.shape[-2:]), sv_rank(full, M.shape[-2:])


class TestPresolveRanks:
    """Both reductions take their rank from singular values alone and a full
    SVD only to reduce.  That rank equals the full SVD's on every program here
    but matrices built to sit near the tolerance, and each reduction gives the
    bits of the reference that takes its rank from a full SVD every time."""

    def check(self, sf):
        """The ranks agree and both reductions equal their references; returns
        whether each reduction was needed (a member not of full rank)."""
        eq_alone, eq_full = svd_ranks(sf.A)
        assert np.array_equal(eq_alone, eq_full)
        got = solver._reduce_equalities(sf)
        assert same_reduction(got, ref_reduce_equalities(sf))
        reduced = got[0]
        M = np.concatenate([reduced.A, reduced.G], axis=-2)
        null_alone, null_full = svd_ranks(M)
        assert np.array_equal(null_alone, null_full)
        assert same_reduction(solver._reduce_null_columns(reduced), ref_reduce_null_columns(reduced))
        return bool((eq_full < sf.A.shape[-2]).any()), bool((null_full < sf.c.shape[-1]).any())

    def presolved(self, stack):
        return solver._equilibrate(solver._standardize(stack))

    def test_eval_grid_programs(self):
        """Every program of the ``eval_grid`` benchmark grid: neither reduction fires."""
        count = 0
        for problems in [door_problems(x_c) for x_c in (0.0, 0.05, 0.10, 0.15)] + [
                cuboid_problems(name) for name in ("cuboid_pivot", "cuboid_slide")]:
            for direction in (+1, -1):
                for stack in stacks_of(problems, direction):
                    assert self.check(self.presolved(stack)) == (False, False)
                    count += len(stack)
        assert count == 412

    def test_fuzz_corpus_slice(self):
        progs = [compile_program(p, d) for _, _, p, d in corpus_pick(300, 17)]
        needed = [self.check(self.presolved(ProgramStack.of([prog]))) for prog in progs]
        assert any(eq for eq, _ in needed) and any(null for _, null in needed)

    def test_rank_deficient_stacks(self):
        """The presolve group of the batch tests, whole and its deficient members alone."""
        stack = ProgramStack.of(presolve_group())
        assert self.check(self.presolved(stack)) == (True, True)
        assert self.check(self.presolved(stack.take([1, 3, 4, 6, 7, 9]))) == (True, True)

    @pytest.mark.parametrize("factor", [0.3, 0.9, 0.99, 1.01, 1.1, 1.5, 1.9, 2.5, 10.0])
    def test_smallest_singular_value_near_the_tolerance(self, factor, monkeypatch):
        """Matrices whose smallest singular value is ``factor`` times the rank
        tolerance (as designed; as computed it moves by a few eps times the
        largest): each reduction takes a full SVD if and only if the singular
        values alone show a rank below full, none from a factor of 1.1 on, and
        is its reference wherever that rank and the full SVD's agree.  They
        must agree only for factors well away from 1; near it they may split on
        last bits, which depend on the LAPACK build."""
        full_svds, svd = [], np.linalg.svd

        def spy(M, **kw):
            if kw.get("compute_uv", True):
                full_svds.append(M.shape)
            return svd(M, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rng, eps = np.random.default_rng(int(factor * 100)), np.finfo(float).eps

        def designed(rows, cols):
            k = min(rows, cols)
            U = np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :k]
            V = np.linalg.qr(rng.normal(size=(cols, cols)))[0][:k]
            sv = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
            sv[0], sv[-1] = 1.0, factor * max(rows, cols) * eps
            return (U * sv) @ V

        for p, m, n in ((3, 4, 5), (5, 8, 6), (6, 12, 14)):
            for _ in range(20):
                A, M = designed(p, n), designed(p + m, n)
                for sf, X, full, reduce, ref in (
                        (solver._StdForm(c=rng.normal(size=n), A=A, b=A @ rng.normal(size=n), G=rng.normal(size=(m, n)),
                                         h=rng.normal(size=m), plan=plan_for(p, n, m, [])),
                         A, p, solver._reduce_equalities, ref_reduce_equalities),
                        (solver._StdForm(c=rng.normal(size=n), A=M[:p], b=rng.normal(size=p), G=M[p:],
                                         h=rng.normal(size=m), plan=plan_for(p, n, m, [])),
                         M, n, solver._reduce_null_columns, ref_reduce_null_columns)):
                    alone, rank = svd_ranks(X)
                    if not 0.5 < factor < 2.0:
                        assert alone == rank
                    full_svds.clear()
                    got, calls = reduce(sf), list(full_svds)
                    assert not calls or factor < 1.1
                    assert calls == ([X.shape] if alone < full else [])
                    if alone == rank:
                        assert same_reduction(got, ref(sf))


def test_ipm_receives_the_presolved_form(monkeypatch):
    """On the bundled programs and the fuzz draws of every presolve exit, a
    program that reaches ``_ipm`` hands it the arrays ``_presolve`` returns,
    with c zeroed exactly where presolve marks a free ray."""
    ipm, received = solver._ipm, []
    monkeypatch.setattr(solver, "_ipm", lambda st, sf, *args: received.append(sf) or ipm(st, sf, *args))
    reached = []
    for prog in bundled_programs() + [compile_program(*corpus_draw(*draw)) for draw in FUZZ_EXITS]:
        received.clear()
        solve(prog)
        if received:
            (sf,), (pre, masks) = received, solver._presolve(ProgramStack.of([prog]))
            free = len(masks) == 4 and bool(masks[2][0])
            assert sf.c.tobytes() == (np.zeros_like(pre.c[0]) if free else pre.c[0]).tobytes()
            for name in ("A", "b", "G", "h", "col_scale", "basis"):
                got, want = getattr(sf, name), getattr(pre, name)
                assert (got is want is None) or got.tobytes() == want[0].tobytes(), name
            reached.append((sf.basis is not None, free))
    # the six bundled programs; the free-ray draws on a feasible and an infeasible program; the draw with
    # null columns pinned: the last three have a basis
    assert reached == [(False, False)] * 6 + [(True, True)] * 2 + [(True, False)]
