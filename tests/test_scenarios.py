import copy
import dataclasses
import functools
import json
import math
import operator
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screwgrasp
from screwgrasp.contacts import FixedSupport, Pcwf
from screwgrasp.errors import (
    ScenarioError,
    ScenarioParseError,
    ScenarioPhysicsError,
    ScenarioSchemaError,
    ScenarioVersionError,
    ScrewGraspError,
)
from screwgrasp.problem import compile_program
from screwgrasp.scenarios import (
    BUILTINS,
    CuboidParams,
    DoorHandleParams,
    Scenario,
    builtin_scenario,
    cuboid_scenario,
    door_handle_scenario,
    load_scenario,
    rebuild_scenario,
    save_scenario,
    scenario_family,
    scenario_from_dict,
    scenario_to_dict,
)
from conftest import adjoint_matrix

BUNDLED = Path(screwgrasp.__file__).parent / "data"  # the golden scenarios shipped with the package


class TestDoorHandleGenerator:
    @given(st.floats(0.0, 0.2), st.floats(0.0, 0.7))
    @settings(max_examples=40, deadline=None)
    def test_generator_invariants(self, x_c, theta):
        p = door_handle_scenario(DoorHandleParams(x_c=x_c, theta=theta)).problem()
        c1, c2 = p.manipulator_contacts
        # antiparallel inward normals (third rotation columns)
        assert np.allclose(c1.rotation[:, 2], -c2.rotation[:, 2], atol=1e-12)
        # contact midpoints coincide on the handle centerline
        mid = (c1.position + c2.position) / 2
        assert np.allclose(np.linalg.norm(mid), x_c, atol=1e-12)
        assert p.task.infinite_pitch

    def test_contact_separation_is_handle_width(self):
        p = door_handle_scenario(DoorHandleParams(x_c=0.07, theta=0.3)).problem()
        c1, c2 = p.manipulator_contacts
        assert np.isclose(np.linalg.norm(c1.position - c2.position), 0.03)

    def test_spring_moment_opposes_turn(self):
        params = DoorHandleParams(theta=0.25)
        p = door_handle_scenario(params).problem()
        (support,) = p.environment_contacts
        assert isinstance(support.model, FixedSupport)
        # +k_t*theta about z = -k_t*theta along the task axis l = -z
        assert support.model.prescribed["m_n"] == pytest.approx(0.6 * 0.25)
        assert np.allclose(p.task.l, [0, 0, -1])

    def test_parameter_validation(self):
        with pytest.raises(ScrewGraspError):
            DoorHandleParams(x_c=0.3)  # beyond the handle
        with pytest.raises(ScrewGraspError):
            DoorHandleParams(mu_c=0.0)

    def test_nan_spring_constant_rejected(self):
        with pytest.raises(ScrewGraspError, match="k_t must be nonnegative"):
            DoorHandleParams(k_t=math.nan)


class TestCuboidGenerator:
    @given(st.floats(0.0, 1.4), st.floats(0.01, 0.15))
    @settings(max_examples=40, deadline=None)
    def test_generator_invariants(self, alpha, x_E):
        p = cuboid_scenario(CuboidParams(alpha=alpha, x_E=x_E)).problem("S1")
        assert len(p.manipulator_contacts) == 2
        assert len(p.environment_contacts) == 2
        for c in p.environment_contacts:
            assert isinstance(c.model, Pcwf)
            assert np.allclose(c.rotation[:, 2], [0, 0, 1])  # support pushes up
        compile_program(p)  # invariants suffice to compile

    def test_edge_contacts_lie_on_pivot_axis(self):
        scenario = cuboid_scenario(CuboidParams(alpha=0.6, x_E=0.1))
        axis = scenario.task("S1")
        G = np.hstack([adjoint_matrix(c.rotation, c.position) for c in scenario.environment_contacts])
        # force columns of G_e produce zero moment about the edge axis
        for j in range(G.shape[1]):
            if j % 6 >= 3:
                continue  # moment columns are pinned for PCWF anyway
            col = G[:, j]
            moment_about_q = col[3:] - np.cross(axis.q, col[:3])
            assert abs(moment_about_q @ axis.l) < 1e-12

    def test_gravity_at_centroid(self):
        p = cuboid_scenario(CuboidParams()).problem("S2")
        assert np.allclose(p.external.force, [0, 0, -9.81])
        assert np.allclose(p.external.application_point, 0.0)

    def test_slide_axis_points_toward_edge(self):
        p = cuboid_scenario(CuboidParams()).problem("S2")
        assert np.allclose(p.task.l, [-1, 0, 0])
        assert p.task.pitch == 0.0
        assert np.allclose(p.task.q, 0.0)

    def test_x_E_range_enforced(self):
        with pytest.raises(ScrewGraspError):
            CuboidParams(x_E=0.16)
        with pytest.raises(ScrewGraspError):
            CuboidParams(x_E=0.0)


FAMILY_LESS = dataclasses.replace(door_handle_scenario(), family=None)


class TestBuiltins:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScrewGraspError):
            builtin_scenario("door_handle", bogus=1.0)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ScrewGraspError):
            builtin_scenario("door_knob")

    @pytest.mark.parametrize("bad_input, kind, message", [
        (lambda: builtin_scenario("bogus"), ScenarioError, "unknown builtin scenario 'bogus'"),
        (lambda: builtin_scenario("door_handle", bogus=1), ScenarioError, "unknown parameter(s) ['bogus']"),
        (lambda: builtin_scenario("door_handle", x_c=5), ScenarioPhysicsError,
         "x_c must lie on the handle: 0 <= 5 <= 0.2"),
        (lambda: builtin_scenario("door_handle").task("S9"), ScenarioError, "unknown task 'S9'"),
        (lambda: scenario_family(builtin_scenario("door_handle"), "zeta"), ScenarioError,
         "unknown parameter(s) ['zeta']"),
        (lambda: scenario_family(builtin_scenario("door_handle"), "theta", "S9"), ScenarioError, "unknown task 'S9'"),
        (lambda: scenario_family(FAMILY_LESS, "theta"), ScenarioError, "scenario has no generator family"),
        (lambda: rebuild_scenario(FAMILY_LESS, {"theta": 0.1}), ScenarioError, "scenario has no generator family"),
    ], ids=["builtin", "parameter", "out_of_range", "task", "sweep_parameter", "sweep_task",
            "sweep_without_family", "rebuild_without_family"])
    def test_bad_input_is_a_scenario_error(self, bad_input, kind, message):
        """Every bad scenario input is a ScenarioError (a ScrewGraspError too);
        an out-of-range parameter keeps its type's own message, unprefixed."""
        with pytest.raises(kind) as info:
            bad_input()
        assert isinstance(info.value, ScrewGraspError)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("name, field, message", [
        ("door_handle", "H", "H must be positive and finite"),
        ("door_handle", "mu_c", "mu_c must be positive and finite"),
        ("door_handle", "W", "W must be positive and finite"),
        ("door_handle", "k_t", "k_t must be nonnegative and finite"),
        ("cuboid_pivot", "weight", "weight must be positive and finite"),
    ], ids=["H", "mu_c", "W", "k_t", "weight"])
    def test_infinite_parameter_is_its_own_error(self, name, field, message):
        """An infinite length, friction coefficient, spring constant or load
        is rejected by the parameter type, naming the field and without a
        warning: not accepted (the door does not use H), nor left to fail
        later in another object with that object's words."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioPhysicsError) as info:
                builtin_scenario(name, **{field: math.inf})
        assert str(info.value) == message

    def test_each_builtin_has_one_task(self):
        for name in BUILTINS:
            s = builtin_scenario(name)
            assert len(s.tasks) == 1
            assert s.family is not None


class TestFileRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        path = tmp_path / "cuboid.scenario"
        save_scenario(cuboid_scenario(CuboidParams(alpha=0.3)), path)
        first = path.read_text()
        save_scenario(load_scenario(path), path)
        assert path.read_text() == first

    def test_loaded_problem_compiles_identically(self, tmp_path):
        s = cuboid_scenario(CuboidParams(alpha=0.2, x_E=0.09))
        path = tmp_path / "c.scenario"
        save_scenario(s, path)
        s2 = load_scenario(path)
        for label in ("S1", "S2"):
            a = compile_program(s.problem(label))
            b = compile_program(s2.problem(label))
            assert a.n_vars == b.n_vars
            assert a.F.shape == b.F.shape
            assert np.allclose(a.F, b.F)
            assert np.allclose(a.g, b.g)

    def test_torque_model_round_trip(self, tmp_path):
        from screwgrasp.problem import TorqueModel

        base = door_handle_scenario()
        J = np.zeros((12, 3))  # blocks: columns 0-1 for contact 0, column 2 for contact 1
        J[2, 0] = 1.0
        J[4, 1] = 0.5
        J[11, 2] = -0.25
        tm = TorqueModel(jacobian=J, tau_g=[0.1, -0.2, 0.0],
                         tau_min=[-3.0, -3.0, -1.0], tau_max=[3.0, 3.0, 1.0], dofs=(2, 1))
        s = Scenario(
            name="with_torques",
            manipulator_contacts=base.manipulator_contacts,
            environment_contacts=base.environment_contacts,
            external=base.external,
            tasks=base.tasks,
            torque_model=tm,
        )
        path = tmp_path / "tm.scenario"
        save_scenario(s, path)
        s2 = load_scenario(path)
        assert s2.torque_model is not None
        assert np.allclose(s2.torque_model.jacobian, J)
        assert np.allclose(s2.torque_model.tau_g, [0.1, -0.2, 0.0])
        assert scenario_to_dict(s2) == scenario_to_dict(s)
        # and it solves with the torque rows in place
        prog = compile_program(s2.problem())
        assert prog.layout.n_torques == 3

    def test_frictionless_contacts_round_trip(self, tmp_path):
        from screwgrasp.contacts import EnvironmentContact, ManipulatorContact
        from screwgrasp.problem import ExternalWrench
        from screwgrasp.screws import INFINITE_PITCH, TaskScrew

        s = Scenario(
            name="slippery",
            manipulator_contacts=(ManipulatorContact(rotation=np.eye(3), position=np.zeros(3),
                                                     cone=None, f_n_max=5.0),),
            environment_contacts=(EnvironmentContact(rotation=np.eye(3), position=[0, 0, -0.1],
                                                     model=Pcwf(None)),),
            external=ExternalWrench(force=[0, 0, -1.0]),
            tasks=(("S", TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)),),
        )
        path = tmp_path / "slippery.scenario"
        save_scenario(s, path)
        s2 = load_scenario(path)
        assert s2.manipulator_contacts[0].cone is None
        assert s2.environment_contacts[0].model.params is None

    def test_environment_normal_bounds_round_trip(self, tmp_path):
        """f_n_min and f_n_max of environment contacts are written, read back
        and written again to the same bytes."""
        slide = builtin_scenario("cuboid_slide")
        first, second = slide.environment_contacts
        s = dataclasses.replace(slide, environment_contacts=(
            dataclasses.replace(first, f_n_min=0.5, f_n_max=40.0), dataclasses.replace(second, f_n_max=12.5)))
        path, again = tmp_path / "bounded.scenario", tmp_path / "again.scenario"
        save_scenario(s, path)
        loaded = load_scenario(path)
        assert [(c.f_n_min, c.f_n_max) for c in loaded.environment_contacts] == [(0.5, 40.0), (None, 12.5)]
        save_scenario(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert '"f_n_min": 0.5' in path.read_text()

    def test_bundled_matches_generator_defaults(self):
        for name, builder in [
            ("door_handle", lambda: BUILTINS["door_handle"].build(DoorHandleParams())),
            ("cuboid_pivot", lambda: BUILTINS["cuboid_pivot"].build(CuboidParams())),
            ("cuboid_slide", lambda: BUILTINS["cuboid_slide"].build(CuboidParams())),
        ]:
            bundled = scenario_to_dict(load_scenario(BUNDLED / f"{name}.scenario"))
            generated = scenario_to_dict(builder())
            assert bundled == generated, f"{name} drifted from its generator"


class TestFileErrors:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "absent.scenario")

    def test_version_mismatch(self):
        doc = scenario_to_dict(door_handle_scenario())
        doc["schema_version"] = 99
        with pytest.raises(ScenarioVersionError):
            scenario_from_dict(doc)

    def test_missing_field_names_path(self):
        doc = scenario_to_dict(door_handle_scenario())
        del doc["manipulator_contacts"][0]["f_n_max"]
        with pytest.raises(ScenarioSchemaError, match=r"manipulator_contacts\[0\].f_n_max"):
            scenario_from_dict(doc)

    def test_zero_mu_names_contact(self):
        doc = scenario_to_dict(door_handle_scenario())
        doc["manipulator_contacts"][1]["cone"]["mu"] = 0.0
        with pytest.raises(ScenarioPhysicsError, match=r"^\$\.manipulator_contacts\[1\]\.cone: mu must be strictly positive"):
            scenario_from_dict(doc)

    def test_bad_rotation_rejected(self):
        doc = scenario_to_dict(door_handle_scenario())
        doc["manipulator_contacts"][0]["rotation"][0][0] = 2.0
        with pytest.raises(ScenarioPhysicsError, match="rotation"):
            scenario_from_dict(doc)

    def test_slightly_off_rotation_is_reorthonormalized(self):
        doc = scenario_to_dict(door_handle_scenario())
        doc["manipulator_contacts"][0]["rotation"][0][0] += 3e-7
        s = scenario_from_dict(doc)
        R = s.manipulator_contacts[0].rotation
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)

    def test_non_unit_task_axis_rejected(self):
        doc = scenario_to_dict(door_handle_scenario())
        doc["tasks"][0]["axis"] = [0.0, 0.0, -0.5]
        with pytest.raises(ScenarioPhysicsError, match="axis"):
            scenario_from_dict(doc)

    def test_unknown_units_rejected(self):
        doc = scenario_to_dict(door_handle_scenario())
        doc["units"] = "imperial"
        with pytest.raises(ScenarioSchemaError, match="units"):
            scenario_from_dict(doc)

    def test_json_but_wrong_shape(self, tmp_path):
        path = tmp_path / "list.scenario"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ScenarioSchemaError):
            load_scenario(path)


def _node_paths(node, prefix=()):
    """The keys and indices that lead to each node below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*prefix, key)
        yield from _node_paths(child, (*prefix, key))


BUNDLED_DOCS = {name: json.loads((BUNDLED / f"{name}.scenario").read_text()) for name in BUILTINS}
DELETE = object()


@given(st.sampled_from([(name, path) for name, doc in BUNDLED_DOCS.items() for path in _node_paths(doc)]),
       st.sampled_from([DELETE, None, True, "x", 5, -1.0, math.nan, math.inf, [], {}]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_one_edited_node_gives_a_scenario_or_a_scenario_error(node, value):
    """Replacing or deleting any one node of a bundled document either loads
    or raises a ScenarioError, never another exception."""
    name, (*parents, last) = node
    doc = copy.deepcopy(BUNDLED_DOCS[name])
    container = functools.reduce(operator.getitem, parents, doc)
    if value is DELETE:
        del container[last]
    else:
        container[last] = copy.deepcopy(value)
    try:
        assert isinstance(scenario_from_dict(doc), Scenario)
    except ScenarioError:
        pass
