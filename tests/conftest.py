"""Helpers shared by the test modules: rotations, hand-built programs,
scenario transforms for the invariance checks, cone membership, and the
one-problem screw algebra that ``compile_program`` writes entry by entry."""

from dataclasses import replace

import numpy as np

from screwgrasp import solver
from screwgrasp.contacts import EnvironmentContact, FixedSupport, PcwfParams, SfceParams
from screwgrasp.problem import (
    ConicProgram,
    ExternalWrench,
    GraspProblem,
    SocBlock,
    TorqueModel,
    VariableLayout,
)
from screwgrasp.screws import TaskScrew, Wrench, check_rotation, cross3


def rot(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 cross-product matrix: skew(v) @ u == v x u."""
    x, y, z = np.asarray(v, dtype=float).reshape(3).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def adjoint_matrix(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """6x6 wrench transport for a contact at pose (R, p) in the target frame:
    maps a local wrench [f; m] to [R f ; p x (R f) + R m]."""
    G = np.zeros((6, 6))
    G[:3, :3] = R
    G[3:, :3] = skew(p) @ R
    G[3:, 3:] = R
    return G


def screw_to_unit_wrench(s: TaskScrew) -> Wrench:
    """Unit wrench along a screw.  Finite pitch: unit force along l, moment
    q x l + h l.  Infinite pitch: zero force, unit moment along l."""
    if s.infinite_pitch:
        return Wrench(force=np.zeros(3), moment=s.l)
    return Wrench(force=s.l, moment=cross3(s.q, s.l) + s.pitch * s.l)


def external_wrench_in_b(e: ExternalWrench) -> Wrench:
    """The external load resolved about the body-frame origin."""
    return Wrench(force=e.force, moment=cross3(e.application_point, e.force) + e.moment)


def mkprog(f, F, g, socs=(), lb=None, ub=None) -> ConicProgram:
    """Hand-built conic program for solver unit tests."""
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    F = np.asarray(F, dtype=float).reshape(-1, n)
    g = np.asarray(g, dtype=float).reshape(F.shape[0])
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    layout = VariableLayout(contacts=(), torque_start=n - 1, n_torques=0,
                            eta_index=n - 1, n_vars=n)
    return ConicProgram(f=f, F=F, g=g, socs=tuple(socs), lb=lb, ub=ub, layout=layout)


def soc(A, b, c, d, label="") -> SocBlock:
    return SocBlock(A=np.asarray(A, dtype=float), b=np.asarray(b, dtype=float),
                    c=np.asarray(c, dtype=float), d=float(d), label=label)


def cone_blocks(p: GraspProblem, prog: ConicProgram):
    """Each SOC block of ``prog`` (compiled from ``p``) with the ContactSlice
    and the cone parameters of its contact, found by the block's label."""
    for blk in prog.socs:
        cs = next(cs for cs in prog.layout.contacts if f"{cs.group[0]}{cs.index}.cone" == blk.label)
        contact = (p.manipulator_contacts if cs.group == "manipulator" else p.environment_contacts)[cs.index]
        yield blk, cs, contact.cone if cs.kind == "sfce" else contact.model.params


def transform_problem(p: GraspProblem, R0: np.ndarray, t0: np.ndarray) -> GraspProblem:
    """Re-express the whole scenario in a rigidly transformed body frame.

    (R0, t0) is the pose of the old frame in the new one; the optimal eta is
    invariant under this map.
    """
    R0 = check_rotation(R0)
    t0 = np.asarray(t0, dtype=float).reshape(3)

    def move(c):
        return replace(c, rotation=R0 @ c.rotation, position=R0 @ c.position + t0)

    ext = ExternalWrench(
        force=R0 @ p.external.force,
        moment=R0 @ p.external.moment,
        application_point=R0 @ p.external.application_point + t0,
    )
    task = TaskScrew(l=R0 @ p.task.l, q=R0 @ p.task.q + t0, pitch=p.task.pitch)
    return replace(
        p,
        manipulator_contacts=tuple(move(c) for c in p.manipulator_contacts),
        environment_contacts=tuple(move(c) for c in p.environment_contacts),
        external=ext,
        task=task,
    )


def scale_problem(p: GraspProblem, k: float) -> GraspProblem:
    """Scale every force/torque bound, prescribed component and external load
    by ``k`` > 0; the optimal eta scales by exactly ``k``."""

    def scale_env(c: EnvironmentContact) -> EnvironmentContact:
        model = c.model
        if isinstance(model, FixedSupport) and model.prescribed:
            model = FixedSupport({key: k * v for key, v in model.prescribed.items()})
        return replace(
            c,
            model=model,
            f_n_min=None if c.f_n_min is None else k * c.f_n_min,
            f_n_max=None if c.f_n_max is None else k * c.f_n_max,
        )

    ext = ExternalWrench(
        force=k * p.external.force,
        moment=k * p.external.moment,
        application_point=p.external.application_point,
    )
    tm = p.torque_model
    if tm is not None:
        tm = TorqueModel(jacobian=tm.jacobian, tau_g=k * tm.tau_g, tau_min=k * tm.tau_min,
                         tau_max=k * tm.tau_max, dofs=tm.dofs)
    return replace(
        p,
        manipulator_contacts=tuple(replace(c, f_n_max=k * c.f_n_max) for c in p.manipulator_contacts),
        environment_contacts=tuple(scale_env(c) for c in p.environment_contacts),
        external=ext,
        torque_model=tm,
    )


def sfce_contains(p: SfceParams, w, tol: float = 1e-8):
    """Membership in the soft-finger elliptic cone of w = (f_t, f_o, f_n, m_n)
    (one bool per column of a 2-D w):
    (1/mu) * sqrt((f_t/e_t)^2 + (f_o/e_o)^2 + (m_n/e_n)^2) <= f_n + tol."""
    f_t, f_o, f_n, m_n = w
    return np.hypot(np.hypot(f_t / p.e_t, f_o / p.e_o), m_n / p.e_n) / p.mu <= f_n + tol


def pcwf_contains(p: PcwfParams, w, tol: float = 1e-8):
    """Membership in the point-contact friction cone of w = (f_t, f_o, f_n)
    (one bool per column of a 2-D w)."""
    f_t, f_o, f_n = w
    return np.hypot(f_t / p.e_t, f_o / p.e_o) / p.mu <= f_n + tol


def plan_for(p: int, n: int, q: int, soc_dims) -> "solver._Plan":
    """The solver's plan of programs with p equalities over n variables, q
    finite bounds (lower bounds first; q <= 2n) and SOC blocks of the given
    dimensions, for standard forms built by hand."""
    lb, ub = np.arange(n) < q, np.arange(n) < q - n
    return solver._plan(p, n, lb.tobytes(), ub.tobytes(), tuple(d - 1 for d in soc_dims))
