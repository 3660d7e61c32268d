import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    adjoint_matrix,
    cone_blocks,
    external_wrench_in_b,
    fuzz_corpus,
    mkprog,
    rot,
    scale_problem,
    screw_to_unit_wrench,
    soc,
    transform_problem,
    wrench_vector,
)
from screwgrasp.contacts import (
    LOCAL_COMPONENTS,
    EnvironmentContact,
    FixedSupport,
    ManipulatorContact,
    Pcwf,
    PcwfParams,
    SfceParams,
)
from screwgrasp.errors import CompileError, ScrewGraspError, SolverDataError
from screwgrasp import problem as problem_module
from screwgrasp.problem import (
    ConicProgram,
    ExternalWrench,
    GraspProblem,
    ProgramStack,
    SocBlock,
    TorqueModel,
    compile_program,
    compile_stacks,
)
from screwgrasp.scenarios import (
    CuboidParams,
    DoorHandleParams,
    builtin_scenario,
    cuboid_scenario,
    door_handle_scenario,
)
from screwgrasp.screws import INFINITE_PITCH, TaskScrew
from screwgrasp.solver import SolveSettings, solve, solve_with_oracle

TIGHT = SolveSettings(duality_gap_tol=1e-9)


class TestGraspMap:
    """The body-frame wrench of local contact wrenches: adjoint blocks side by side."""

    def test_single_contact_at_origin(self):
        G = adjoint_matrix(np.eye(3), np.zeros(3))
        assert G.shape == (6, 6)
        assert np.allclose(G, np.eye(6))

    def test_offset_contact_column(self):
        G = adjoint_matrix(np.eye(3), np.array([1.0, 0, 0]))
        # local f_n = +z maps to force +z with moment (0,-1,0)
        col = G @ np.array([0, 0, 1, 0, 0, 0.0])
        assert np.allclose(col, [0, 0, 1, 0, -1, 0])

    def test_door_handle_antipodal_normals_cancel(self):
        p = door_handle_scenario(DoorHandleParams(x_c=0.07, theta=0.3)).problem()
        G = np.hstack([adjoint_matrix(c.rotation, c.position) for c in p.manipulator_contacts])
        f = np.zeros(12)
        f[2] = 5.0  # c1 normal force
        f[8] = 5.0  # c2 normal force (opposed normal)
        net = G @ f
        assert np.allclose(net[:3], 0.0, atol=1e-12)


class TestExternalWrench:
    def test_gravity_at_centroid(self):
        w = external_wrench_in_b(ExternalWrench(force=[0, 0, -9.81]))
        assert np.allclose(w.force, [0, 0, -9.81])
        assert np.allclose(w.moment, 0.0)

    def test_pure_moment(self):
        w = external_wrench_in_b(ExternalWrench(moment=[0, 0, 1]))
        assert np.allclose(w.force, 0.0)
        assert np.allclose(w.moment, [0, 0, 1])

    def test_offset_force_moment(self):
        # p x f = (0.1,0,0) x (0,0,-9.81) = (0, +0.981, 0)
        w = external_wrench_in_b(ExternalWrench(force=[0, 0, -9.81], application_point=[0.1, 0, 0]))
        assert np.allclose(w.moment, [0, 0.981, 0])
        assert np.allclose(w.moment, np.cross([0.1, 0, 0], [0, 0, -9.81]))


class TestCompile:
    def test_variable_and_row_counts(self):
        # 2 SFCE (4 vars each) + 2 PCWF (3 each) + eta = 15; 6 equality rows
        prog = compile_program(cuboid_scenario(CuboidParams()).problem("S1"))
        assert prog.n_vars == 2 * 4 + 2 * 3 + 1
        assert prog.F.shape == (6, 15)
        assert len(prog.socs) == 4
        assert prog.layout.eta_index == 14
        names = prog.layout.variable_names()
        assert names[0] == "m0.f_t" and names[-1] == "eta"

    def test_empty_contacts_forced_eta(self):
        task = TaskScrew(l=[0, 0, 1], pitch=0.0)
        p = GraspProblem(
            manipulator_contacts=(), environment_contacts=(),
            external=ExternalWrench(force=[0, 0, 2.0]), task=task,
        )
        r = solve(compile_program(p), TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - 2.0) <= 1e-8

    def test_no_contacts_no_load_rejected(self):
        with pytest.raises(ScrewGraspError):
            GraspProblem(manipulator_contacts=(), environment_contacts=(),
                         external=ExternalWrench(), task=TaskScrew(l=[0, 0, 1]))

    def test_eta_zero_feasible_without_external_load(self):
        p = door_handle_scenario(DoorHandleParams()).problem()
        prog = compile_program(p)
        x = np.zeros(prog.n_vars)
        assert np.allclose(prog.F @ x, prog.g)  # all-zero forces satisfy equality at eta = 0

    def test_single_cone_torsional_bound(self):
        # contact normal along the task axis through the contact point: eta is
        # capped by the torsional term mu*e_n*f_n_max; a moment-free support
        # absorbs the squeeze force
        cone = SfceParams(mu=0.3, e_t=1.0, e_o=1.0, e_n=0.05)
        contact = ManipulatorContact(rotation=np.eye(3), position=np.zeros(3),
                                     cone=cone, f_n_max=12.0)
        support = EnvironmentContact(
            rotation=np.eye(3), position=np.zeros(3),
            model=FixedSupport(prescribed={"m_t": 0.0, "m_o": 0.0, "m_n": 0.0}),
        )
        task = TaskScrew(l=[0, 0, 1], q=[0, 0, 0], pitch=INFINITE_PITCH)
        p = GraspProblem(manipulator_contacts=(contact,), environment_contacts=(support,),
                         external=ExternalWrench(), task=task)
        prog = compile_program(p)
        r = solve(prog, TIGHT)
        bound = cone.mu * cone.e_n * 12.0
        assert r.status == "Optimal"
        assert abs(r.objective - bound) <= 1e-7
        lp = solve_with_oracle(prog, 64)
        assert lp.objective <= r.objective + 1e-8
        assert r.objective - lp.objective <= 0.02 * bound

    def test_direction_flag(self):
        p = cuboid_scenario(CuboidParams(alpha=0.5)).problem("S1")
        plus = solve(compile_program(p, +1), TIGHT).objective
        minus = solve(compile_program(p, -1), TIGHT).objective
        assert plus != pytest.approx(minus, rel=1e-3)  # gravity breaks the symmetry
        with pytest.raises(CompileError):
            compile_program(p, 0)

    def test_torque_limits_bind(self):
        # one revolute joint feeling the normal force: tau = -f_n, |tau| <= 5
        # caps the normal force below f_n_max, so eta = mu*e_n*5
        cone = SfceParams(mu=0.3, e_t=1.0, e_o=1.0, e_n=0.05)
        contact = ManipulatorContact(rotation=np.eye(3), position=np.zeros(3),
                                     cone=cone, f_n_max=20.0)
        support = EnvironmentContact(
            rotation=np.eye(3), position=np.zeros(3),
            model=FixedSupport(prescribed={"m_t": 0.0, "m_o": 0.0, "m_n": 0.0}),
        )
        J = np.zeros((6, 1))
        J[2, 0] = 1.0
        tm = TorqueModel(jacobian=J, tau_g=[0.0], tau_min=[-5.0], tau_max=[5.0], dofs=(1,))
        task = TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)
        p = GraspProblem(manipulator_contacts=(contact,), environment_contacts=(support,),
                         external=ExternalWrench(), task=task, torque_model=tm)
        prog = compile_program(p)
        assert prog.layout.n_torques == 1
        assert prog.F.shape == (7, prog.n_vars)
        r = solve(prog, TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - 0.3 * 0.05 * 5.0) <= 1e-7

    def test_gravity_torque_shifts_the_window(self):
        # tau = tau_g - f_n with tau in [-5, 5]: tau_g = 2 admits f_n up to 7
        cone = SfceParams(mu=0.3, e_t=1.0, e_o=1.0, e_n=0.05)
        contact = ManipulatorContact(rotation=np.eye(3), position=np.zeros(3),
                                     cone=cone, f_n_max=20.0)
        support = EnvironmentContact(
            rotation=np.eye(3), position=np.zeros(3),
            model=FixedSupport(prescribed={"m_t": 0.0, "m_o": 0.0, "m_n": 0.0}),
        )
        J = np.zeros((6, 1))
        J[2, 0] = 1.0
        tm = TorqueModel(jacobian=J, tau_g=[2.0], tau_min=[-5.0], tau_max=[5.0])
        task = TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)
        p = GraspProblem(manipulator_contacts=(contact,), environment_contacts=(support,),
                         external=ExternalWrench(), task=task, torque_model=tm)
        r = solve(compile_program(p), TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - 0.3 * 0.05 * 7.0) <= 1e-7

    def test_torque_model_shape_mismatch(self):
        J = np.zeros((12, 2))  # jacobian for 2 contacts on a 1-contact problem
        tm = TorqueModel(jacobian=J, tau_g=[0, 0], tau_min=[-1, -1], tau_max=[1, 1])
        cone = SfceParams(mu=0.3)
        contact = ManipulatorContact(rotation=np.eye(3), position=np.zeros(3), cone=cone)
        with pytest.raises(ScrewGraspError):
            GraspProblem(manipulator_contacts=(contact,), environment_contacts=(),
                         external=ExternalWrench(), task=TaskScrew(l=[0, 0, 1]),
                         torque_model=tm)

    def test_environment_normal_lower_bound(self):
        # a minimum transmitted support force, like pressing a tool onto its
        # workpiece: feasible while the balance can supply it, infeasible when
        # it demands more normal force than the load provides
        def floor_problem(f_n_min):
            floor = EnvironmentContact(rotation=np.eye(3), position=np.zeros(3),
                                       model=Pcwf(PcwfParams(mu=0.4)), f_n_min=f_n_min)
            return GraspProblem(
                manipulator_contacts=(), environment_contacts=(floor,),
                external=ExternalWrench(force=[0, 0, -10.0]),
                task=TaskScrew(l=[1, 0, 0], pitch=0.0),
            )

        ok = solve(compile_program(floor_problem(5.0)), TIGHT)
        assert ok.status == "Optimal"
        assert abs(ok.objective - 0.4 * 10.0) <= 1e-7  # friction budget of the 10 N load
        assert solve(compile_program(floor_problem(15.0)), TIGHT).status == "Infeasible"

    def test_environment_normal_cap_bounds_the_program(self):
        # uncapped support normals aligned with the task are unbounded; the
        # documented fix is an explicit f_n_max cap
        def lift_problem(f_n_max):
            floor = EnvironmentContact(rotation=np.eye(3), position=np.zeros(3),
                                       model=Pcwf(PcwfParams(mu=0.4)), f_n_max=f_n_max)
            return GraspProblem(
                manipulator_contacts=(), environment_contacts=(floor,),
                external=ExternalWrench(force=[0, 0, -1.0]),
                task=TaskScrew(l=[0, 0, 1], pitch=0.0),
            )

        assert solve(compile_program(lift_problem(None)), TIGHT).status == "Unbounded"
        capped = solve(compile_program(lift_problem(7.0)), TIGHT)
        assert capped.status == "Optimal"
        assert abs(capped.objective - (7.0 - 1.0)) <= 1e-7

    def test_frictionless_contact_is_normal_only(self):
        contact = ManipulatorContact(rotation=np.eye(3), position=np.zeros(3),
                                     cone=None, f_n_max=10.0)
        support = EnvironmentContact(rotation=np.eye(3), position=np.zeros(3),
                                     model=FixedSupport(prescribed={}))
        p = GraspProblem(manipulator_contacts=(contact,), environment_contacts=(support,),
                         external=ExternalWrench(), task=TaskScrew(l=[0, 0, 1]))
        prog = compile_program(p)
        # frictionless pin leaves only f_n: 1 + 6 (support) + eta
        assert prog.n_vars == 1 + 6 + 1
        assert len(prog.socs) == 0


    def test_frictionless_environment_contact_keeps_only_f_n(self):
        """A ``Pcwf(None)`` support transmits f_n alone: no cone block, and
        with its normal capped at 7 N it lifts a 1 N load by eta = 6."""
        floor = EnvironmentContact(rotation=np.eye(3), position=np.zeros(3), model=Pcwf(None), f_n_max=7.0)
        p = GraspProblem(manipulator_contacts=(), environment_contacts=(floor,),
                         external=ExternalWrench(force=[0, 0, -1.0]), task=TaskScrew(l=[0, 0, 1]))
        prog = compile_program(p)
        (cs,) = prog.layout.contacts
        assert (cs.group, cs.kind, cs.components) == ("environment", "frictionless", ("f_n",))
        assert prog.n_vars == 2 and prog.socs == ()
        r = solve(prog, TIGHT)
        assert r.status == "Optimal"
        assert abs(r.objective - 6.0) <= 1e-7


_EYE, _AT = np.eye(3), np.zeros(3)


def _torque_model(**change):
    """One finger, one joint along its normal, with ``change`` applied."""
    J = np.zeros((6, 1))
    J[2, 0] = 1.0
    return TorqueModel(**{"jacobian": J, "tau_g": [0.0], "tau_min": [-1.0], "tau_max": [1.0], **change})


def _env_contact(model=None, **change):
    return EnvironmentContact(**{"rotation": _EYE, "position": _AT, "model": model or Pcwf(PcwfParams(mu=0.4)),
                                 **change})


TYPE_RULES = [
    (lambda: ExternalWrench(force=[np.nan, 0, 0]), "external wrench force must be finite"),
    (lambda: _torque_model(jacobian=np.zeros(6)), "jacobian must be a 2-D matrix"),
    (lambda: _torque_model(tau_g=[np.inf]), "torque model tau_g must be finite"),
    (lambda: _torque_model(tau_min=[2.0]), "tau_min must not exceed tau_max componentwise"),
    (lambda: _torque_model(jacobian=np.full((6, 1), np.nan)), "jacobian must be finite"),
    (lambda: _torque_model(dofs=(2,)), "dofs must sum to the jacobian column count"),
    (lambda: _torque_model(jacobian=np.zeros((12, 1)), dofs=(1,)), "jacobian row count must be 6 per manipulator"),
    (lambda: _torque_model(jacobian=np.ones((12, 2)), dofs=(1, 1), tau_g=[0.0, 0.0], tau_min=[-1.0, -1.0],
                           tau_max=[1.0, 1.0]), "jacobian is not block-diagonal per manipulator"),
    (lambda: _env_contact(position=[0, np.nan, 0]), "contact position must be finite"),
    (lambda: _env_contact(FixedSupport(prescribed={"m_n": np.inf})), "prescribed component m_n must be finite"),
    (lambda: _env_contact(f_n_min=-1.0), "f_n_min must be finite and >= 0"),
    (lambda: _env_contact(f_n_min=5.0, f_n_max=4.0), "f_n_min must not exceed f_n_max"),
    (lambda: DoorHandleParams(k_t=-0.1), "k_t must be nonnegative and finite"),
    (lambda: DoorHandleParams(theta=np.inf), "theta must be finite"),
    (lambda: CuboidParams(weight=0.0), "weight must be positive and finite"),
    (lambda: CuboidParams(alpha=2.0), "alpha must lie in [0, pi/2]"),
]


@pytest.mark.parametrize("build, message", TYPE_RULES, ids=[message for _, message in TYPE_RULES])
def test_type_rule_raises_its_message(build, message):
    with pytest.raises(ScrewGraspError) as info:
        build()
    assert str(info.value) == message


class TestProblemTransforms:
    def test_frame_invariance_quick(self):
        p = cuboid_scenario(CuboidParams(alpha=0.4, x_E=0.1)).problem("S2")
        base = solve(compile_program(p), TIGHT).objective
        moved = transform_problem(p, rot([1, 2, 0.5], 1.1), np.array([0.3, -0.2, 0.7]))
        again = solve(compile_program(moved), TIGHT).objective
        assert abs(again - base) <= 1e-6 * abs(base)

    def test_positive_homogeneity_quick(self):
        p = door_handle_scenario(DoorHandleParams(x_c=0.05, theta=0.1)).problem()
        base = solve(compile_program(p), TIGHT).objective
        doubled = solve(compile_program(scale_problem(p, 2.0)), TIGHT).objective
        assert abs(doubled - 2.0 * base) <= 1e-6 * abs(base)

    def test_monotone_in_bounds(self):
        small = door_handle_scenario(DoorHandleParams(x_c=0.05, f_n_max=10.0)).problem()
        large = door_handle_scenario(DoorHandleParams(x_c=0.05, f_n_max=20.0)).problem()
        eta_small = solve(compile_program(small), TIGHT).objective
        eta_large = solve(compile_program(large), TIGHT).objective
        assert eta_large >= eta_small - 1e-9


class TestConicProgramValidation:
    """A ConicProgram or SocBlock with data the solver cannot take fails when
    it is built, and its arrays cannot be changed afterwards."""

    @staticmethod
    def program(f=(0.0, 1.0), F=((1.0, 0.0),), g=(0.5,), lb=(0.0, -np.inf), ub=(np.inf, 3.0), socs=()):
        return mkprog(list(f), [list(r) for r in F], list(g), socs=socs, lb=list(lb), ub=list(ub))

    def test_inconsistent_dimensions(self):
        """Each dimension check is a CompileError with its own text."""
        prog = compile_program(builtin_scenario("door_handle").problem())
        blk = prog.socs[0]
        cases = [({"g": prog.g[:-1]}, "inconsistent conic program dimensions"),
                 ({"socs": (replace(blk, A=blk.A[:, :-1]), *prog.socs[1:])},
                  "inconsistent SOC block dimensions (m0.cone)"),
                 ({"layout": replace(prog.layout, n_vars=prog.n_vars + 1)},
                  "layout does not cover the variable vector")]
        for change, message in cases:
            with pytest.raises(CompileError, match=f"^{re.escape(message)}$"):
                replace(prog, **change)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field,message", [
        ("f", "program objective contains NaN/Inf"),
        ("F", "program equalities contains NaN/Inf"),
        ("g", "program rhs contains NaN/Inf"),
    ])
    def test_non_finite_program_data(self, field, message, bad):
        data = {"f": [0.0, bad], "F": [[1.0, bad]], "g": [bad]}
        with pytest.raises(SolverDataError, match=re.escape(message)):
            self.program(**{field: data[field]})

    @pytest.mark.parametrize("field", ["A", "b", "c", "d"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_soc_data(self, field, bad):
        data = {"A": [[1.0, 0.0]], "b": [0.0], "c": [0.0, 1.0], "d": 0.0}
        data[field] = bad if field == "d" else np.where(np.asarray(data[field]) == 0.0, bad, data[field])
        with pytest.raises(SolverDataError, match=re.escape("SOC block 'm0.cone' contains NaN/Inf")):
            soc(**data, label="m0.cone")

    @pytest.mark.parametrize("bounds", [{"lb": (np.nan, 0.0)}, {"ub": (1.0, np.nan)}])
    def test_nan_bounds(self, bounds):
        with pytest.raises(SolverDataError, match="bounds contain NaN"):
            self.program(**bounds)

    def test_crossed_bounds(self):
        with pytest.raises(SolverDataError, match="lower bound exceeds upper bound"):
            self.program(lb=(0.0, 4.0))

    @pytest.mark.parametrize("bound", [np.inf, -np.inf])
    def test_bound_no_point_meets(self, bound):
        # lb = ub = +inf (or -inf) passes lb <= ub, yet no finite x meets it
        with pytest.raises(SolverDataError, match="admits no point"):
            self.program(lb=(bound, -np.inf), ub=(bound, 3.0))
        half = {"lb": (bound, -np.inf)} if bound > 0 else {"ub": (bound, 3.0), "lb": (-np.inf, -np.inf)}
        with pytest.raises(SolverDataError, match="admits no point"):
            self.program(**half)

    def test_arrays_are_read_only_copies(self):
        f = np.array([0.0, 1.0])
        blk = soc([[1.0, 0.0]], [0.0], [0.0, 1.0], 0.0)
        prog = mkprog(f, [[1.0, 0.0]], [0.5], socs=[blk], lb=[0.0, -np.inf], ub=[np.inf, 3.0])
        f[1] = 2.0
        assert prog.f[1] == 1.0
        arrays = [prog.f, prog.F, prog.g, prog.lb, prog.ub, blk.A, blk.b, blk.c]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_caller_arrays_are_never_aliased(self):
        f, F, g = np.array([0.0, 1.0]), np.array([[1.0, 0.0]]), np.array([0.5])
        lb, ub = np.array([0.0, -np.inf]), np.array([np.inf, 3.0])
        A, b, c = np.array([[1.0, 0.0]]), np.array([0.0]), np.array([0.0, 1.0])
        blk = SocBlock(A=A, b=b, c=c, d=0.0, label="m0.cone")
        prog = ConicProgram(f=f, F=F, g=g, socs=(blk,), lb=lb, ub=ub, layout=mkprog(f, F, g).layout)
        before = [arr.copy() for arr in (prog.f, prog.F, prog.g, prog.lb, prog.ub, blk.A, blk.b, blk.c)]
        for arr in (f, F, g, lb, ub, A, b, c):
            arr[...] = np.nan
        after = (prog.f, prog.F, prog.g, prog.lb, prog.ub, blk.A, blk.b, blk.c)
        for old, new in zip(before, after):
            assert np.array_equal(old, new)
            with pytest.raises(ValueError, match="read-only"):
                new[...] = 0.0
        with pytest.raises(SolverDataError, match="program equalities contains NaN/Inf"):
            ConicProgram(f=prog.f, F=F, g=prog.g, socs=(), lb=prog.lb, ub=prog.ub, layout=prog.layout)
        with pytest.raises(SolverDataError, match=re.escape("SOC block 'm0.cone' contains NaN/Inf")):
            SocBlock(A=A, b=blk.b, c=blk.c, d=0.0, label="m0.cone")

    def test_compiled_arrays_are_read_only_and_each_programs_own(self):
        a, b = (compile_program(builtin_scenario("cuboid_pivot", alpha=t).problem()) for t in (0.1, 0.2))
        for prog in (a, b):
            arrays = [prog.f, prog.F, prog.g, prog.lb, prog.ub]
            arrays += [arr for blk in prog.socs for arr in (blk.A, blk.b, blk.c)]
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0
        for x, y in zip((a.f, a.F, a.g, a.lb, a.ub, a.socs[0].A, a.socs[0].b, a.socs[0].c),
                        (b.f, b.F, b.g, b.lb, b.ub, b.socs[0].A, b.socs[0].b, b.socs[0].c)):
            assert not np.shares_memory(x, y)

    def test_non_finite_compiled_cone_raises_when_built(self):
        # mu * e_t is subnormal, so the cone coefficient 1 / (mu e_t) overflows to inf
        cone = SfceParams(mu=1e-160, e_t=1e-160)
        contact = ManipulatorContact(rotation=np.eye(3), position=np.zeros(3), cone=cone, f_n_max=1.0)
        p = GraspProblem(manipulator_contacts=(contact,), environment_contacts=(),
                         external=ExternalWrench(), task=TaskScrew(l=[0, 0, 1]))
        with pytest.raises(SolverDataError, match=re.escape("SOC block 'm0.cone' contains NaN/Inf")):
            compile_program(p)


def program_bytes(prog) -> bytes:
    """Every array, label and layout entry of a compiled program, as bytes."""
    parts = [prog.f, prog.F, prog.g, prog.lb, prog.ub]
    for blk in prog.socs:
        parts += [blk.A, blk.b, blk.c, np.array([blk.d])]
    data = b"".join(f"{arr.shape}".encode() + arr.astype("<f8").tobytes() for arr in parts)
    return data + repr(([blk.label for blk in prog.socs], prog.layout, prog.layout.variable_names())).encode()


def torque_problem(prescribed=(("m_t", 0.0), ("m_o", 0.0), ("m_n", 0.1))) -> GraspProblem:
    """One SFCE finger on a revolute joint next to a pinned support."""
    contact = ManipulatorContact(rotation=rot([0, 1, 1], 0.4), position=np.array([0.1, 0.0, 0.2]),
                                 cone=SfceParams(mu=0.3, e_n=0.05), f_n_max=20.0)
    support = EnvironmentContact(rotation=np.eye(3), position=np.zeros(3),
                                 model=FixedSupport(prescribed=dict(prescribed)))
    J = np.zeros((6, 1))
    J[2, 0] = 1.0
    tm = TorqueModel(jacobian=J, tau_g=[2.0], tau_min=[-5.0], tau_max=[5.0], dofs=(1,))
    return GraspProblem(manipulator_contacts=(contact,), environment_contacts=(support,),
                        external=ExternalWrench(force=[0, 0, -1.0], application_point=[0.1, 0, 0]),
                        task=TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH), torque_model=tm)


class TestStructureCache:
    """``compile_program`` compiles a problem's structure once and caches it;
    a program compiled from the cache is byte for byte the program compiled
    with the cache empty."""

    @staticmethod
    def problems() -> list:
        door = [door_handle_scenario(DoorHandleParams(x_c=0.05, theta=t)).problem() for t in (0.0, 0.3)]
        pivot = [cuboid_scenario(CuboidParams(alpha=a)).problem("S1") for a in (0.2, 0.5)]
        slide = [cuboid_scenario(CuboidParams(alpha=a, x_E=0.1)).problem("S2") for a in (0.2, 0.5)]
        moved = [transform_problem(p, rot([1, 2, 0.5], 1.1), np.array([0.3, -0.2, 0.7]))
                 for p in (door[0], pivot[0])]
        scaled = [scale_problem(p, 2.5) for p in (slide[0], torque_problem())]
        # structures that differ from the torque problem's only in n_tau, or
        # only in the support's kept components
        no_torque = replace(torque_problem(), torque_model=None)
        free_m_n = torque_problem(prescribed=(("m_t", 0.0), ("m_o", 0.0)))
        # interleaved, so that structures are met again after others
        return [door[0], pivot[0], torque_problem(), slide[0], no_torque, door[1], moved[0],
                free_m_n, pivot[1], scaled[1], slide[1], moved[1], scaled[0]]

    def test_cached_compile_is_byte_identical(self):
        problem_module._structure.cache_clear()
        cached = [(p, d, program_bytes(compile_program(p, d))) for p in self.problems() for d in (+1, -1)]
        info = problem_module._structure.cache_info()
        assert info.misses == 5  # door, cuboid (pivot and slide share it) and three torque-like problems
        assert info.hits == len(cached) - 5
        for p, d, data in cached:
            problem_module._structure.cache_clear()
            assert program_bytes(compile_program(p, d)) == data

    def test_one_structure_shares_its_layout_and_names(self):
        a, b = (compile_program(cuboid_scenario(CuboidParams(alpha=t)).problem("S2"), -1) for t in (0.1, 0.4))
        assert a.layout is b.layout
        assert a.layout.variable_names() is b.layout.variable_names()


def compiled_alone(p, direction):
    """``compile_program``'s program bytes, or its error as (type, text)."""
    try:
        return program_bytes(compile_program(p, direction))
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


def stacked(problems, direction) -> list:
    """What ``compile_stacks`` gives each problem, as ``compiled_alone`` gives it."""
    stacks, placed = compile_stacks(problems, direction)
    for st in stacks:
        for arr in (st.f, st.F, st.g, st.lb, st.ub, *(v for blk in st.socs for v in blk)):
            assert not arr.flags.writeable
    assert sum(map(len, stacks)) == sum(not isinstance(where, Exception) for where in placed)
    return [(type(where), str(where)) if isinstance(where, Exception)
            else program_bytes(stacks[where[0]].program(where[1])) for where in placed]


def pinned_moments(p, moments: float) -> GraspProblem:
    """``p`` with a support pinned in every component, 0 but for m_t = m_o =
    ``moments``, turned so that both load the body's y moment."""
    values = dict.fromkeys(("f_t", "f_o", "f_n", "m_t", "m_o", "m_n"), 0.0) | {"m_t": moments, "m_o": moments}
    pin = EnvironmentContact(rotation=rot([0, 0, 1], np.pi / 4), position=np.zeros(3),
                             model=FixedSupport(prescribed=values))
    return replace(p, environment_contacts=(*p.environment_contacts, pin))


class TestCompileStacks:
    """``compile_stacks`` writes the problems of one structure into one stack;
    every row is byte for byte ``compile_program``'s program (arrays with
    their signed zeros, labels and layout), and every problem that
    fails has the error ``compile_program`` raises for it."""

    @pytest.mark.parametrize("direction", [+1, -1])
    def test_door_pivot_and_slide_grids(self, direction):
        door = [door_handle_scenario(DoorHandleParams(x_c=x, theta=t)).problem()
                for x in (0.0, 0.1) for t in np.radians(np.linspace(0.0, 40.0, 41))]
        pivot = [cuboid_scenario(CuboidParams(alpha=a, x_E=x)).problem("S1")
                 for x in (0.06, 0.12) for a in np.radians(np.linspace(0.0, 60.0, 17))]
        slide = [cuboid_scenario(CuboidParams(alpha=a, x_E=x)).problem("S2")
                 for x in (0.06, 0.12) for a in np.radians(np.linspace(0.0, 60.0, 17))]
        problems = [p for trio in zip(door, pivot + slide) for p in trio] + door[len(pivot + slide):]
        assert len(compile_stacks(problems, direction)[0]) == 2  # door, and the cuboids
        assert stacked(problems, direction) == [compiled_alone(p, direction) for p in problems]

    def test_infinite_and_finite_pitch_tasks_in_one_stack(self):
        p = builtin_scenario("cuboid_slide").problem()
        rng = np.random.default_rng(3)
        tasks = []
        for k in range(12):
            l = rng.normal(size=3)
            l /= np.linalg.norm(l)
            pitch = INFINITE_PITCH if k % 3 == 0 else float(rng.normal()) * (k % 2)
            tasks.append(TaskScrew(l=l, q=rng.normal(size=3) * 0.1, pitch=pitch))
        problems = [replace(p, task=t) for t in tasks]
        for direction in (+1, -1):
            stacks, _ = compile_stacks(problems, direction)
            assert len(stacks) == 1 and len(stacks[0]) == 12
            assert stacked(problems, direction) == [compiled_alone(q, direction) for q in problems]

    def test_torque_model_problems(self):
        problems = [torque_problem(prescribed=(("m_t", 0.0), ("m_o", -0.0), ("m_n", v))) for v in (0.1, 0.0, -0.3)]
        problems += [replace(problems[0], torque_model=replace(problems[0].torque_model, tau_g=np.array([g])))
                     for g in (-1.0, 0.5)]
        # the same components prescribed in another order: another stack, each written in its own order
        problems.append(torque_problem(prescribed=(("m_n", 0.1), ("m_o", 0.0), ("m_t", 0.0))))
        for direction in (+1, -1):
            assert len(compile_stacks(problems, direction)[0]) == 2
            assert stacked(problems, direction) == [compiled_alone(q, direction) for q in problems]

    def test_fuzz_corpus(self):
        draws = fuzz_corpus()
        assert len(draws) == 2000
        for direction in (+1, -1):
            problems = [p for _, _, p, d in draws if d == direction]
            assert stacked(problems, direction) == [compiled_alone(p, direction) for p in problems]

    def test_rows_match_the_one_problem_references(self):
        """The writer's arithmetic against the one-problem references in
        conftest, byte for byte with signed zeros: the adjoint columns, the
        task's unit wrench, the external wrench less each prescribed
        component in its order (by 0.0 too, as at the door's theta = 0), and
        1 / (mu e) per cone row."""
        door = [door_handle_scenario(DoorHandleParams(theta=t)).problem() for t in (0.0, 0.2)]
        # no external load and zeros prescribed on a turned support: -0.0 - (-s * 0.0) is +0.0
        for p in door + [pinned_moments(door[0], 0.0), torque_problem()] + [q for _, _, q, _ in fuzz_corpus()[:300]]:
            for direction in (+1, -1):
                prog = compile_program(p, direction)
                F, g = np.zeros((6, prog.n_vars)), -wrench_vector(external_wrench_in_b(p.external))
                for cs, ct in zip(prog.layout.contacts, (*p.manipulator_contacts, *p.environment_contacts)):
                    G6 = adjoint_matrix(ct.rotation, ct.position)
                    F[:, cs.start : cs.stop] = G6[:, [LOCAL_COMPONENTS.index(comp) for comp in cs.components]]
                    for comp, value in (ct.model.prescribed.items() if cs.kind == "fixed" else ()):
                        g -= G6[:, LOCAL_COMPONENTS.index(comp)] * value
                F[:, prog.layout.eta_index] = -(direction * wrench_vector(screw_to_unit_wrench(p.task)))
                assert (F.tobytes(), g.tobytes()) == (prog.F[:6].tobytes(), prog.g[:6].tobytes())
                for blk, cs, prm in cone_blocks(p, prog):  # ||A x|| <= f_n, A row k: 1 / (mu e_k)
                    comps = [comp for comp in cs.components if comp != "f_n"]
                    A, c = np.zeros((len(comps), prog.n_vars)), np.zeros(prog.n_vars)
                    for k, (comp, e) in enumerate(zip(comps, ("e_t", "e_o", "e_n"))):
                        A[k, cs.start + cs.components.index(comp)] = 1.0 / (prm.mu * getattr(prm, e))
                    c[cs.start + cs.components.index("f_n")] = 1.0
                    assert (blk.A.tobytes(), blk.c.tobytes()) == (A.tobytes(), c.tobytes())
                    assert blk.b.tobytes() == np.zeros(len(comps)).tobytes() and blk.d == 0.0

    def test_failing_rows_keep_the_error_of_their_problem(self):
        """Rows that fail in a stack of good ones: a friction coefficient whose
        1 / (mu e) is not finite, pinned moments that overflow the rhs, a task
        screw whose unit wrench overflows, and an unknown contact model."""
        base = builtin_scenario("cuboid_pivot").problem()
        grid = [pinned_moments(builtin_scenario("cuboid_pivot", alpha=a).problem(), 0.0) for a in (0.1, 0.2, 0.3)]
        grid[1] = pinned_moments(base, 1.7e308)
        contact = base.manipulator_contacts[0]
        under = replace(contact, cone=SfceParams(mu=1e-200, e_t=1e-200))
        grid.append(replace(grid[0], manipulator_contacts=(under, *base.manipulator_contacts[1:])))
        s = np.sqrt(0.5)  # q x l = (2 s 1.7e308, 0, 0) overflows
        grid.append(replace(grid[0], task=TaskScrew(l=[0.0, -s, s], q=[0.0, 1.7e308, 1.7e308], pitch=0.0)))
        other = replace(base.environment_contacts[0], model=object())
        grid.append(replace(base, environment_contacts=(other,)))
        got = stacked(grid, +1)
        assert got == [compiled_alone(p, +1) for p in grid]
        assert got[1:] == [(SolverDataError, "program rhs contains NaN/Inf"), got[2],
                           (SolverDataError, "SOC block 'm0.cone' contains NaN/Inf"),
                           (SolverDataError, "wrench components must be finite"),
                           (CompileError, "unknown environment contact model object")]
        assert isinstance(got[0], bytes) and isinstance(got[2], bytes)

    @pytest.mark.parametrize("mu, e_t", [(1e-200, 1e-200), (1e-300, 1e-10)])
    def test_underflowing_friction_is_a_solver_data_error(self, mu, e_t):
        """mu e_t underflows to 0 (a bare ZeroDivisionError before), or is
        subnormal, so that 1 / (mu e_t) overflows."""
        p = builtin_scenario("door_handle").problem()
        contact = replace(p.manipulator_contacts[0], cone=SfceParams(mu=mu, e_t=e_t))
        p = replace(p, manipulator_contacts=(contact, *p.manipulator_contacts[1:]))
        with pytest.raises(SolverDataError, match=re.escape("SOC block 'm0.cone' contains NaN/Inf")):
            compile_program(p)
        assert stacked([p], +1) == [(SolverDataError, "SOC block 'm0.cone' contains NaN/Inf")]

    @pytest.mark.parametrize("task, external", [
        # q x l = (2 s 1.7e308, 0, 0) overflows
        (TaskScrew(l=[0.0, -np.sqrt(0.5), np.sqrt(0.5)], q=[0.0, 1.7e308, 1.7e308], pitch=0.0), ExternalWrench()),
        # p x f = (0, 0, -3.4e308) overflows
        (None, ExternalWrench(force=[1.0, -1.0, 0.0], application_point=[1.7e308, 1.7e308, 0.0])),
    ], ids=["task", "external"])
    def test_overflowing_wrench_is_a_solver_data_error(self, task, external):
        """A ScrewGraspError, so that a sweep or GWS probe tolerates it as an error row."""
        p = builtin_scenario("door_handle").problem()
        p = replace(p, task=task or p.task, external=external)
        with pytest.raises(SolverDataError, match="wrench components must be finite"):
            compile_program(p, -1)
        good = builtin_scenario("door_handle").problem()
        assert stacked([good, p], -1)[1:] == [(SolverDataError, "wrench components must be finite")]

    def test_direction_is_checked(self):
        with pytest.raises(CompileError, match="direction"):
            compile_stacks([builtin_scenario("door_handle").problem()], 0)

    def test_stacked_programs_keep_their_cones_and_layout(self):
        """A stack of ConicPrograms gives back each program, its cone blocks,
        their labels and its layout included."""
        progs = [compile_program(builtin_scenario("door_handle", theta=t).problem()) for t in (0.0, 0.2)]
        assert len(progs[0].socs) == 2
        for group in ([progs[0]], progs):
            stack = ProgramStack.of(group)
            rows = [stack.program(k) for k in range(len(group))]
            for row in rows:  # each row passes the SocBlock and ConicProgram checks
                for obj in (*row.socs, row):
                    obj._check()
            assert list(map(program_bytes, rows)) == list(map(program_bytes, group))

    @pytest.mark.parametrize("direction", [+1, -1])
    def test_problems_that_differ_in_a_part_the_writer_does_not_read(self, direction):
        """Two torque models of one stack key, one with ``dofs`` and one
        without, in either order (and a torque model of no joints beside
        none): one stack, each row ``compile_program``'s program."""
        J = np.zeros((12, 2))
        J[2, 0] = J[8, 1] = 1.0
        base = builtin_scenario("door_handle").problem()
        limits = dict(jacobian=J, tau_g=[0.0, 0.0], tau_min=[-5.0, -5.0], tau_max=[5.0, 5.0])
        with_dofs = replace(base, torque_model=TorqueModel(**limits, dofs=(1, 1)))
        without = replace(base, torque_model=TorqueModel(**limits))
        jointless = replace(base, torque_model=TorqueModel(np.zeros((12, 0)), [], [], []))
        for problems in ([with_dofs, without], [without, with_dofs], [jointless, base], [base, jointless]):
            stacks, placed = compile_stacks(problems, direction)
            assert [len(st) for st in stacks] == [2] and placed == [(0, 0), (0, 1)]
            assert stacked(problems, direction) == [compiled_alone(p, direction) for p in problems]
