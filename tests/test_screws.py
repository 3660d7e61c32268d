import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adjoint_matrix, rot, screw_to_unit_wrench, skew
from screwgrasp.contacts import EnvironmentContact, ManipulatorContact, Pcwf, SfceParams
from screwgrasp.errors import DegenerateWrenchError, InvalidRotationError, InvalidScrewError
from screwgrasp.screws import (
    INFINITE_PITCH,
    ScrewCoordinates,
    TaskScrew,
    Wrench,
    check_rotation,
    cross3,
    wrench_to_screw,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)
angles = st.floats(0.0, 2.0 * np.pi)
axes = vec3.filter(lambda v: np.linalg.norm(v) > 1e-3)


def rotations():
    return st.builds(rot, axes, angles)


def transport(R, p, w: Wrench) -> Wrench:
    """w carried into the frame in which (R, p) is expressed."""
    return Wrench.from_array(adjoint_matrix(R, p) @ w.as_array())


class TestAdjointTransform:
    def test_identity(self):
        w = Wrench(force=[1, 2, 3], moment=[4, 5, 6])
        out = transport(np.eye(3), np.zeros(3), w)
        assert np.allclose(out.force, [1, 2, 3])
        assert np.allclose(out.moment, [4, 5, 6])

    def test_pure_translation_cross_product(self):
        # moment picked up by the lever arm: (1,0,0) x (0,0,1) = (0,-1,0)
        w = Wrench(force=[0, 0, 1], moment=[0, 0, 0])
        out = transport(np.eye(3), [1, 0, 0], w)
        assert np.allclose(out.force, [0, 0, 1])
        assert np.allclose(out.moment, [0, -1, 0])

    def test_composition_equals_matrix_product(self):
        # independent oracle: compose the explicit 6x6 adjoints
        R1, p1 = rot([1, 2, 3], 0.7), np.array([0.3, -0.1, 0.2])
        R2, p2 = rot([-1, 0, 1], 1.9), np.array([-0.5, 0.4, 0.1])
        G1 = adjoint_matrix(R1, p1)
        G2 = adjoint_matrix(R2, p2)
        # pose composition: (R1,p1) o (R2,p2)
        Rc, pc = R1 @ R2, R1 @ p2 + p1
        assert np.allclose(G1 @ G2, adjoint_matrix(Rc, pc), atol=1e-12)

        w = Wrench(force=[1.0, -2.0, 0.5], moment=[0.2, 0.0, -1.0])
        stepwise = transport(R1, p1, transport(R2, p2, w))
        direct = transport(Rc, pc, w)
        assert np.allclose(stepwise.as_array(), direct.as_array(), atol=1e-12)

    def test_contacts_reject_non_rotation(self):
        # the adjoint takes a contact's rotation as checked when the contact was built
        cone = SfceParams(mu=0.5)
        with pytest.raises(InvalidRotationError):
            ManipulatorContact(rotation=np.eye(3) * 1.001, position=np.zeros(3), cone=cone)
        with pytest.raises(InvalidRotationError):
            EnvironmentContact(rotation=np.diag([1.0, 1.0, -1.0]), position=np.zeros(3), model=Pcwf(None))

    @given(rotations(), vec3, vec3, vec3, finite, finite)
    @settings(max_examples=80, deadline=None)
    def test_linearity(self, R, p, f, m, a, b):
        w1 = Wrench(force=f, moment=m)
        w2 = Wrench(force=m, moment=f)
        combo = Wrench(force=a * w1.force + b * w2.force, moment=a * w1.moment + b * w2.moment)
        lhs = transport(R, p, combo).as_array()
        rhs = a * transport(R, p, w1).as_array() + b * transport(R, p, w2).as_array()
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(rotations(), vec3, vec3, vec3)
    @example(rot([0, 0, 1], 1.0), np.zeros(3), np.array([0.0, 1.42e-7, 0.0]), np.array([1.0, 0.0, 0.0]))
    @settings(max_examples=80, deadline=None)
    def test_preserves_pitch_and_magnitude(self, R, p, f, m):
        if np.linalg.norm(f) < 1e-3 and np.linalg.norm(m) < 1e-3:
            return
        w = Wrench(force=f, moment=m)
        sc = wrench_to_screw(w)
        sc2 = wrench_to_screw(transport(R, p, w))
        assert np.isclose(sc2.magnitude, sc.magnitude, rtol=1e-9, atol=1e-12)
        if sc.axis.infinite_pitch:
            assert sc2.axis.infinite_pitch
        else:
            assert not sc2.axis.infinite_pitch
            # pitch = f.m / |f|^2: rounding in the transformed moment (about
            # eps |m| and eps |p| |f|) is amplified by 1/|f|
            rounding = 8 * np.finfo(float).eps * (np.linalg.norm(m) / np.linalg.norm(f) + np.linalg.norm(p))
            assert np.isclose(sc2.axis.pitch, sc.axis.pitch, rtol=1e-7, atol=1e-10 + rounding)


class TestWrenchToScrew:
    def test_pure_force(self):
        sc = wrench_to_screw(Wrench(force=[1, 0, 0], moment=[0, 0, 0]))
        assert sc.axis.pitch == 0.0
        assert np.allclose(sc.axis.l, [1, 0, 0])
        assert np.allclose(sc.axis.q, [0, 0, 0])
        assert sc.magnitude == 1.0

    def test_pure_moment_is_infinite_pitch(self):
        sc = wrench_to_screw(Wrench(force=[0, 0, 0], moment=[0, 0, 2]))
        assert sc.axis.infinite_pitch
        assert np.allclose(sc.axis.l, [0, 0, 1])
        assert sc.magnitude == 2.0

    def test_collinear_force_moment(self):
        sc = wrench_to_screw(Wrench(force=[0, 0, 1], moment=[0, 0, 0.5]))
        assert np.isclose(sc.axis.pitch, 0.5)
        assert np.allclose(sc.axis.l, [0, 0, 1])
        assert np.allclose(sc.axis.q, [0, 0, 0])
        assert sc.magnitude == 1.0

    def test_zero_wrench_raises(self):
        with pytest.raises(DegenerateWrenchError):
            wrench_to_screw(Wrench(force=[0, 0, 0], moment=[0, 0, 0]))

    def test_near_pure_torque_threshold_is_scale_aware(self):
        sc = wrench_to_screw(Wrench(force=[1e-12, 0, 0], moment=[0, 0, 5.0]))
        assert sc.axis.infinite_pitch

    def test_canonical_axis_point_is_closest_to_origin(self):
        sc = wrench_to_screw(Wrench(force=[0, 0, 2], moment=[1, 1, 4]))
        assert abs(sc.axis.q @ sc.axis.l) < 1e-12


class TestScrewToUnitWrench:
    def test_zero_pitch(self):
        w = screw_to_unit_wrench(TaskScrew(l=[0, 0, 1], q=[0, 0, 0], pitch=0.0))
        assert np.allclose(w.force, [0, 0, 1])
        assert np.allclose(w.moment, [0, 0, 0])

    def test_infinite_pitch(self):
        w = screw_to_unit_wrench(TaskScrew(l=[0, 1, 0], pitch=INFINITE_PITCH))
        assert np.allclose(w.force, [0, 0, 0])
        assert np.allclose(w.moment, [0, 1, 0])

    def test_offset_axis_with_pitch(self):
        w = screw_to_unit_wrench(TaskScrew(l=[1, 0, 0], q=[0, 1, 0], pitch=2.0))
        assert np.allclose(w.force, [1, 0, 0])
        assert np.allclose(w.moment, [2, 0, -1])

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidScrewError):
            TaskScrew(l=[1, 1, 0], pitch=0.0)

    def test_nan_direction_rejected(self):
        with pytest.raises(InvalidScrewError, match="unit length"):
            TaskScrew(l=[np.nan, 0, 0], pitch=0.0)

    @pytest.mark.parametrize("q", [[np.nan, 0, 0], [0, np.inf, 0]])
    def test_non_finite_point_rejected(self, q):
        with pytest.raises(InvalidScrewError, match="screw point q must be finite"):
            TaskScrew(l=[1, 0, 0], q=q)

    def test_nan_magnitude_rejected(self):
        with pytest.raises(InvalidScrewError, match="nonnegative"):
            ScrewCoordinates(axis=TaskScrew(l=[1, 0, 0]), magnitude=np.nan)

    def test_infinite_pitch_tag_is_not_a_float(self):
        s = TaskScrew(l=[0, 0, 1], pitch=INFINITE_PITCH)
        assert repr(s.pitch) == "INFINITE_PITCH"
        with pytest.raises(TypeError):
            s.pitch + 1.0  # noqa: B018 - the error is the point

    @pytest.mark.parametrize("pitch", [np.inf, -np.inf, np.nan])
    def test_non_finite_pitch_rejected(self, pitch):
        with pytest.raises(InvalidScrewError, match="use INFINITE_PITCH"):
            TaskScrew(l=[0, 0, 1], pitch=pitch)


@given(vec3, vec3)
@settings(max_examples=150, deadline=None)
def test_screw_round_trip(f, m):
    if np.linalg.norm(f) < 1e-6 and np.linalg.norm(m) < 1e-6:
        return
    w = Wrench(force=f, moment=m)
    sc = wrench_to_screw(w)
    back = screw_to_unit_wrench(sc.axis).as_array() * sc.magnitude
    assert np.allclose(back, w.as_array(), rtol=1e-9, atol=1e-9 * max(1.0, sc.magnitude))


def test_skew_matches_cross_product():
    a, b = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.7, -1.1])
    assert np.allclose(skew(a) @ b, np.cross(a, b))


# every float64 class: signed zeros, subnormals, normals of all magnitudes
# (products may overflow to inf, and inf - inf is nan, alike on both sides)
any_float = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]))
any_vec3 = st.tuples(any_float, any_float, any_float).map(np.array)


@given(any_vec3, any_vec3)
@example(np.array([0.0, -0.0, 5e-324]), np.array([-0.0, 1e-310, -0.0]))
@example(np.array([1e-160, 3e-170, -2e-200]), np.array([-4e-160, 1e-150, 7e-165]))
@settings(max_examples=500, deadline=None)
def test_cross3_is_np_cross_bit_for_bit(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.cross(a, b)
    assert cross3(a, b).tobytes() == want.tobytes()


AXIS_123 = rot([1.0, 2.0, 3.0], 0.7)
Z_30 = rot([0.0, 0.0, 1.0], np.pi / 6)
NOT_A_ROTATION = "matrix is not a rotation: |R'R - I| = "


class TestCheckRotation:
    @given(rotations())
    @settings(max_examples=100, deadline=None)
    def test_accepts_rotations(self, R):
        assert check_rotation(R) is not None

    @pytest.mark.parametrize("R", [R * k for R in (np.eye(3), AXIS_123, Z_30) for k in (1.0 + 1e-10, 1.0 - 1e-10)])
    def test_accepts_within_tolerance(self, R):
        """An error of 2e-10 in R'R and 3e-10 in det R is inside ROTATION_TOL."""
        assert np.array_equal(check_rotation(R), R)

    @pytest.mark.parametrize("R,message", [
        (np.diag([1.0, 1.0, -1.0]), NOT_A_ROTATION + "0.000e+00, det = -1.000000000000"),
        (np.eye(3) * 1.001, NOT_A_ROTATION + "2.001e-03, det = 1.003003001000"),
        (np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, np.inf]]), "rotation contains non-finite entries"),
        (np.eye(2), "rotation must be 3x3, got shape (2, 2)"),
        (np.eye(3) * (1.0 + 1e-9), NOT_A_ROTATION + "2.000e-09, det = 1.000000003000"),
        (AXIS_123 * (1.0 + 1e-9), NOT_A_ROTATION + "2.000e-09, det = 1.000000003000"),
        (AXIS_123 * (1.0 + 1e-8), NOT_A_ROTATION + "2.000e-08, det = 1.000000030000"),
        (Z_30 * (1.0 + 1e-8), NOT_A_ROTATION + "2.000e-08, det = 1.000000030000"),
        (-np.eye(3), NOT_A_ROTATION + "0.000e+00, det = -1.000000000000"),
        (-AXIS_123, NOT_A_ROTATION + "1.110e-16, det = -1.000000000000"),
        (-Z_30, NOT_A_ROTATION + "0.000e+00, det = -1.000000000000"),
        (np.diag([1.0, 1.0, -np.inf]), "rotation contains non-finite entries"),
        (np.full((3, 3), np.nan), "rotation contains non-finite entries"),
    ])
    def test_rejects_with_message(self, R, message):
        with pytest.raises(InvalidRotationError) as err:
            check_rotation(R)
        assert str(err.value) == message

    def test_tolerance_over_random_rotations(self):
        """Forty rotations: each scaled by 1 + 1e-10 passes; scaled by
        1 + 1e-8 or negated, each fails with its error and determinant."""
        rng = np.random.default_rng(3)
        for R in [rot(rng.normal(size=3), a) for a in rng.uniform(-10.0, 10.0, 40)]:
            assert np.array_equal(check_rotation(R * (1.0 + 1e-10)), R * (1.0 + 1e-10))
            with pytest.raises(InvalidRotationError, match=r"^matrix is not a rotation: \|R'R - I\| = "
                                                           r"2\.000e-08, det = 1\.000000030000$"):
                check_rotation(R * (1.0 + 1e-8))
            with pytest.raises(InvalidRotationError, match=r"^matrix is not a rotation: \|R'R - I\| = "
                                                           r"\d\.\d{3}e-1[5-7], det = -1\.000000000000$"):
                check_rotation(-R)


@pytest.mark.parametrize("force, moment", [([np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]),
                                           ([0.0, 0.0, 0.0], [0.0, np.nan, 0.0])])
def test_wrench_with_a_non_finite_component_is_rejected(force, moment):
    with pytest.raises(ValueError, match="^wrench components must be finite$"):
        Wrench(force=force, moment=moment)
