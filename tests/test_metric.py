import warnings

import numpy as np
import pytest

from conftest import screw_to_unit_wrench
from screwgrasp.contacts import (
    EnvironmentContact,
    FixedSupport,
    ManipulatorContact,
    Pcwf,
    PcwfParams,
    SfceParams,
)
from screwgrasp.metric import (ACTIVE_TOL, PathPoint, active_constraints, global_metric, gws_sample, local_metric,
                               metric_sweep)
from screwgrasp.problem import ExternalWrench, GraspProblem, compile_program
from screwgrasp.scenarios import (BUILTINS, CuboidParams, DoorHandleParams, builtin_scenario, cuboid_scenario,
                                  door_handle_scenario)
from screwgrasp.screws import INFINITE_PITCH, TaskScrew
from screwgrasp.solver import SolveSettings, solve, solve_with_oracle

TIGHT = SolveSettings(duality_gap_tol=1e-9)


def forced_eta_problem(k: float) -> GraspProblem:
    """No contacts; the external wrench is k times the task wrench, so the
    equality rows pin eta = k exactly."""
    task = TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)
    w = screw_to_unit_wrench(task)
    return GraspProblem(
        manipulator_contacts=(), environment_contacts=(),
        external=ExternalWrench(force=k * w.force, moment=k * w.moment),
        task=task,
    )


class TestLocalMetric:
    @pytest.mark.xfail(strict=True, reason="false Unbounded: the free-ray exit does not check its ray on the "
                                           "original program (ROADMAP item 3)")
    @pytest.mark.parametrize("name, field", [("door_handle", "e_n"), ("cuboid_pivot", "e_cn")])
    def test_tiny_contact_coefficient_is_not_unbounded(self, name, field):
        """A coefficient of 1e-45 leaves the program bounded by f_n_max (the
        door's eta is 0.12 for every e_n from 0.03 down to 1e-40), yet the
        presolve's free-ray exit reports Unbounded."""
        res = local_metric(builtin_scenario(name, **{field: 1e-45}).problem(), +1).solve_result
        assert res.status != "Unbounded", f"status is Unbounded after {res.iterations} iterations"

    def test_forced_eta(self):
        r = local_metric(forced_eta_problem(2.0), +1, TIGHT)
        assert r.status == "Optimal"
        assert abs(r.eta - 2.0) <= 1e-8
        assert r.warning is None

    def test_door_handle_against_lp_oracle(self):
        p = door_handle_scenario(DoorHandleParams(x_c=0.0, theta=0.0)).problem()
        r = local_metric(p, +1, TIGHT)
        lp = solve_with_oracle(compile_program(p, +1), 64)
        assert r.status == lp.status == "Optimal"
        assert lp.objective <= r.eta + 1e-8
        assert (r.eta - lp.objective) <= 0.02 * abs(r.eta)

    def test_door_handle_closed_form(self):
        # two antipodal fingers, lever W/2, tangential budget mu*e_t*f_n_max:
        # eta(theta, 0) = W*mu*f_n_max - k_t*theta
        r = local_metric(door_handle_scenario(DoorHandleParams(x_c=0.0, theta=0.15)).problem(), +1, TIGHT)
        assert abs(r.eta - (0.12 - 0.6 * 0.15)) <= 1e-6

    def test_negative_eta_reported_with_warning(self):
        r = local_metric(door_handle_scenario(DoorHandleParams(x_c=0.0, theta=0.4)).problem(), +1, TIGHT)
        assert r.status == "Optimal"
        assert r.eta < 0
        assert r.warning is not None

    def test_slide_asymmetry(self):
        p = cuboid_scenario(CuboidParams(alpha=np.radians(50), x_E=0.12)).problem("S2")
        plus = local_metric(p, +1, TIGHT)
        minus = local_metric(p, -1, TIGHT)
        assert plus.eta > minus.eta

    def test_pivot_value_within_hand_derived_band(self):
        # flat box, fingers at x_E = 0.12: sending finger friction (8.25 N)
        # downward torques +y at 0.12 N.m/N directly and another 0.15 N.m/N
        # through the raised edge normals; the weight contributes 0.15 * 9.81.
        # Upper bound 0.27 * 8.25 + 0.15 * 9.81 = 3.699; ignoring the finger
        # own-lever term gives the crude lower bound 2.70.
        p = cuboid_scenario(CuboidParams(alpha=0.0, x_E=0.12)).problem("S1")
        r = local_metric(p, +1, TIGHT)
        assert r.status == "Optimal"
        assert 2.70 <= r.eta <= 3.699
        # against gravity: lifting with full finger friction (0.12 * 8.25)
        # is the most the grasp could provide, before the weight-bearing
        # edge normals take their mandatory cut
        m = local_metric(p, -1, TIGHT)
        assert 0.0 < m.eta <= 0.12 * 8.25

    def test_direction_flip_equals_negated_screw(self):
        for pitch in (0.0, INFINITE_PITCH):
            task = "S1" if pitch is INFINITE_PITCH else "S2"  # pivot, slide
            p = cuboid_scenario(CuboidParams(alpha=0.5, x_E=0.1)).problem(task)
            flipped = GraspProblem(
                manipulator_contacts=p.manipulator_contacts,
                environment_contacts=p.environment_contacts,
                external=p.external,
                task=TaskScrew(l=-p.task.l, q=p.task.q, pitch=p.task.pitch),
                torque_model=p.torque_model,
            )
            a = local_metric(p, -1, TIGHT)
            b = local_metric(flipped, +1, TIGHT)
            assert abs(a.eta - b.eta) <= 1e-8 * max(1.0, abs(a.eta))

    def test_active_constraints_reported(self):
        r = local_metric(door_handle_scenario(DoorHandleParams(x_c=0.1)).problem(), +1, TIGHT)
        assert any("m0.f_n <= 20" in a for a in r.active_constraints)
        assert any("cone" in a for a in r.active_constraints)

    def test_removing_a_contact_never_increases_eta(self):
        p = door_handle_scenario(DoorHandleParams(x_c=0.1)).problem()
        full = local_metric(p, +1, TIGHT)
        reduced = GraspProblem(
            manipulator_contacts=p.manipulator_contacts[:1],
            environment_contacts=p.environment_contacts,
            external=p.external,
            task=p.task,
        )
        r = local_metric(reduced, +1, TIGHT)
        assert r.eta <= full.eta + 1e-8

    def test_removing_a_required_contact_flips_to_infeasible(self):
        # only the finger pressing down can balance the upward load; the
        # unilateral floor cannot pull
        cone = SfceParams(mu=0.3)
        holder = ManipulatorContact(rotation=np.diag([1.0, -1.0, -1.0]),
                                    position=np.zeros(3), cone=cone, f_n_max=50.0)
        floor = EnvironmentContact(rotation=np.eye(3), position=np.zeros(3),
                                   model=Pcwf(PcwfParams(mu=0.3)))
        task = TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)
        with_holder = GraspProblem(
            manipulator_contacts=(holder,), environment_contacts=(floor,),
            external=ExternalWrench(force=[0, 0, 5.0]), task=task,
        )
        assert local_metric(with_holder, +1, TIGHT).status == "Optimal"
        without = GraspProblem(
            manipulator_contacts=(), environment_contacts=(floor,),
            external=ExternalWrench(force=[0, 0, 5.0]), task=task,
        )
        assert local_metric(without, +1, TIGHT).status == "Infeasible"


def ref_active_constraints(prog, x) -> tuple[str, ...]:
    """The variable-by-variable loop that ``active_constraints`` replaced, kept as its reference."""
    names = prog.layout.variable_names()
    active = []
    for j in range(prog.n_vars):
        if np.isfinite(prog.lb[j]) and x[j] - prog.lb[j] <= ACTIVE_TOL * max(1.0, abs(prog.lb[j])):
            active.append(f"{names[j]} >= {prog.lb[j]:g}")
        if np.isfinite(prog.ub[j]) and prog.ub[j] - x[j] <= ACTIVE_TOL * max(1.0, abs(prog.ub[j])):
            active.append(f"{names[j]} <= {prog.ub[j]:g}")
    for blk in prog.socs:
        slack = (blk.c @ x + blk.d) - np.linalg.norm(blk.A @ x + blk.b)
        if slack <= ACTIVE_TOL * max(1.0, abs(blk.c @ x + blk.d)):
            active.append(blk.label or "cone")
    return tuple(active)


class TestActiveConstraints:
    # what the three bundled scenarios report at their default parameters
    BUNDLED = {
        ("door_handle", +1): ("m0.cone", "m1.cone"),
        ("door_handle", -1): ("m0.cone", "m1.cone"),
        ("cuboid_pivot", +1): ("m0.f_n <= 25", "m0.cone", "m1.cone", "e1.cone"),
        ("cuboid_pivot", -1): ("m0.f_n <= 25", "m0.cone", "m1.cone", "e0.cone"),
        ("cuboid_slide", +1): ("m0.f_n <= 25", "m0.cone", "m1.cone", "e0.cone", "e1.cone"),
        ("cuboid_slide", -1): ("m0.f_n <= 25", "m0.cone", "m1.cone", "e0.cone", "e1.cone"),
    }

    def test_every_bundled_scenario_is_pinned(self):
        assert {name for name, _ in self.BUNDLED} == set(BUILTINS)

    @pytest.mark.parametrize("name, direction", list(BUNDLED))
    def test_bundled_scenarios(self, name, direction):
        prog = compile_program(builtin_scenario(name).problem(), direction)
        x = solve(prog).primal
        assert active_constraints(prog, x) == self.BUNDLED[name, direction] == ref_active_constraints(prog, x)
        reported = local_metric(builtin_scenario(name).problem(), direction).active_constraints
        assert reported == self.BUNDLED[name, direction]

    def test_infinite_bounds_and_non_finite_primals_as_the_loop(self):
        """Points on, inside and outside finite and infinite bounds, with NaN
        and infinite entries: the same names in the same order as the loop,
        and no warning (the loop's cone products warn at an infinite entry)."""
        rng = np.random.default_rng(3)
        seen = set()
        for name in BUILTINS:
            for direction in (+1, -1):
                prog = compile_program(builtin_scenario(name).problem(), direction)
                x0 = solve(prog).primal
                bounds = np.concatenate([prog.lb, prog.ub])
                assert np.isinf(bounds).any() and np.isfinite(bounds).any()
                for trial in range(40):
                    x = x0.copy()
                    pick = rng.random(x.size) if trial else np.full(x.size, 0.5)  # first x0 itself
                    x[pick < 0.2] = prog.lb[pick < 0.2]  # some of them infinite
                    x[pick > 0.8] = prog.ub[pick > 0.8]
                    x[(rng.random(x.size) < 0.1) & (trial > 0)] = rng.choice([np.nan, 0.0, 1e-300, 5e-324])
                    if trial % 2:
                        x[~np.isfinite(x)] = np.nan
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = active_constraints(prog, x)
                    with np.errstate(all="ignore"):
                        assert got == ref_active_constraints(prog, x)
                    seen.update(a.split()[1] if " " in a else "cone" for a in got)
        assert seen == {">=", "<=", "cone"}


class TestGlobalMetric:
    def test_min_and_argmin(self):
        path = [PathPoint(float(i), forced_eta_problem(k), label)
                for i, (k, label) in enumerate([(3.0, "a"), (1.2, "b"), (2.5, "c")])]
        g = global_metric(path, +1, TIGHT)
        assert abs(g.eta_star - 1.2) <= 1e-8
        assert g.argmin == "b"
        assert len(g.per_point) == 3
        assert g.failures == ()

    def test_single_point(self):
        g = global_metric([PathPoint(0.0, forced_eta_problem(1.5), "only")], +1, TIGHT)
        assert abs(g.eta_star - 1.5) <= 1e-8
        assert g.argmin == "only"

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            global_metric([], +1, TIGHT)

    def test_door_handle_path_truncated_at_crossing(self):
        # up to the zero crossing eta decreases monotonically, so the global
        # metric sits at the largest angle
        thetas = np.radians(np.arange(0, 12))
        path = [PathPoint(float(t), door_handle_scenario(DoorHandleParams(x_c=0.0, theta=float(t))).problem(),
                          f"{t:.3f}") for t in thetas]
        g = global_metric(path, +1, TIGHT)
        assert g.eta_star == min(r.eta for r in g.per_point)
        assert g.argmin == f"{thetas[-1]:.3f}"
        etas = [r.eta for r in g.per_point]
        assert all(a >= b - 1e-9 for a, b in zip(etas, etas[1:]))

    def test_failure_collection(self):
        support = EnvironmentContact(rotation=np.diag([1.0, -1.0, -1.0]), position=np.zeros(3),
                                     model=FixedSupport(prescribed={"f_t": 0.0, "f_o": 0.0, "f_n": 0.0,
                                                                    "m_t": 0.0, "m_o": 0.0, "m_n": 0.0}))
        bad = GraspProblem(manipulator_contacts=(), environment_contacts=(support,),
                           external=ExternalWrench(force=[0, 0, 1.0]),
                           task=TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH))
        path = [PathPoint(0.0, forced_eta_problem(1.0), "ok"), PathPoint(1.0, bad, "broken")]
        g = global_metric(path, +1, TIGHT)
        assert g.eta_star is None
        assert g.failures == ("broken",)


class TestMetricSweep:
    def test_constant_family(self):
        rows = metric_sweep(lambda v: forced_eta_problem(2.0), [0.0, 0.5, 1.0], +1, TIGHT)
        assert [r.parameter for r in rows] == [0.0, 0.5, 1.0]
        assert all(abs(r.eta - 2.0) <= 1e-8 for r in rows)

    def test_per_point_failures_recorded(self):
        def family(v):
            if v > 0.5:
                raise ValueError("out of range")
            return forced_eta_problem(1.0)

        rows = metric_sweep(family, [0.0, 1.0], +1, TIGHT)
        assert rows[0].status == "Optimal"
        assert rows[1].status.startswith("error:")
        assert rows[1].eta is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            metric_sweep(lambda v: forced_eta_problem(1.0), [], +1, TIGHT)


class TestGwsSample:
    def test_symmetry_without_gravity(self):
        # door handle at x_c = 0, theta = 0: a half-turn about the handle's
        # x-axis maps the grasp to itself and flips the hinge moment
        p = door_handle_scenario(DoorHandleParams(x_c=0.0, theta=0.0)).problem()
        moments = gws_sample(p, [
            TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH),
            TaskScrew(l=[0, 0, -1], pitch=INFINITE_PITCH),
        ], TIGHT)
        assert all(r.status == "Optimal" for r in moments)
        assert abs(moments[0].eta - moments[1].eta) <= 1e-6 * max(1.0, abs(moments[0].eta))

        # support-free antipodal pinch: half-turn about z flips +-x forces
        pinch = GraspProblem(
            manipulator_contacts=p.manipulator_contacts,
            environment_contacts=(),
            external=ExternalWrench(),
            task=p.task,
        )
        forces = gws_sample(pinch, [TaskScrew(l=[1, 0, 0]), TaskScrew(l=[-1, 0, 0])], TIGHT)
        assert all(r.status == "Optimal" for r in forces)
        assert abs(forces[0].eta - forces[1].eta) <= 1e-6 * max(1.0, abs(forces[0].eta))

    def test_no_screws_no_rays(self):
        assert gws_sample(door_handle_scenario(DoorHandleParams()).problem(), []) == []

    def test_uncapped_support_force_ray_is_unbounded(self):
        # the hinge's free reaction forces span any force task
        p = door_handle_scenario(DoorHandleParams()).problem()
        out = gws_sample(p, [TaskScrew(l=[1, 0, 0], pitch=0.0)], TIGHT)
        assert out[0].status == "Unbounded"
        assert out[0].eta is None

    def test_failed_rays_tagged(self):
        # a ceiling contact cannot carry gravity: every ray infeasible
        ceiling = EnvironmentContact(rotation=np.diag([1.0, -1.0, -1.0]),
                                     position=np.zeros(3), model=Pcwf(PcwfParams(mu=0.3)))
        p = GraspProblem(manipulator_contacts=(), environment_contacts=(ceiling,),
                         external=ExternalWrench(force=[0, 0, -5.0]),
                         task=TaskScrew(l=[0, 0, 1]))
        out = gws_sample(p, [TaskScrew(l=[1, 0, 0])])
        assert out[0].eta is None
        assert out[0].status == "Infeasible"
