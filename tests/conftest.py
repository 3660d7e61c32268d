"""Helpers shared by the test modules: rotations, hand-built programs,
scenario transforms for the invariance checks, cone membership, the
one-problem screw algebra that ``compile_program`` writes entry by entry, the
benchmark's fuzz corpus (drawn once per process), the bundled and
``eval_grid`` programs, and the conic dual of a program.

Importing this module puts ``tools/`` and the repository root on
``sys.path``, so that the tests import the tools and ``perfbench``."""

import functools
import sys
from dataclasses import replace
from pathlib import Path

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
    compile_program,
    compile_stacks,
)
from screwgrasp.scenarios import builtin_scenario
from screwgrasp.screws import TaskScrew, Wrench, check_rotation, cross3
from test_random_scenarios import random_problem

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT)]

THETAS = np.radians(np.linspace(0.0, 40.0, 41))
ALPHAS = np.radians(np.arange(0, 61, 10))


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


def wrench_vector(w: Wrench) -> np.ndarray:
    """The stacked 6-vector [force; moment] of a wrench."""
    return np.concatenate([w.force, w.moment])


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


def scale_f_n_max(p: GraspProblem, k: float) -> GraspProblem:
    """Scale every finite ``f_n_max`` by ``k`` > 0: a relaxation for k > 1
    (the optimal eta does not fall), a tightening for k < 1."""

    def scale(c):
        return c if c.f_n_max is None or not np.isfinite(c.f_n_max) else replace(c, f_n_max=k * c.f_n_max)

    return replace(p, manipulator_contacts=tuple(map(scale, p.manipulator_contacts)),
                   environment_contacts=tuple(map(scale, p.environment_contacts)))


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


def random_draws(rng, trials: int):
    """(trial, problem) of each of ``trials`` calls of the random battery's
    generator on ``rng`` that draws a problem (not None), handed out one at a
    time, so that the caller may draw from ``rng`` between them."""
    for trial in range(trials):
        problem = random_problem(rng)
        if problem is not None:
            yield trial, problem


@functools.cache
def fuzz_corpus() -> tuple:
    """Every draw of the benchmark's fuzz corpus as (generator seed, trial,
    problem, direction), in corpus order, drawn once: the loop of
    ``perfbench/workloads.py``, where ``default_rng(seed)`` of each generator
    seed supplies FUZZ_TRIALS problems and, after each problem that is not
    None, its direction.  The corpus has no None draw: its 2000 entries are
    seeds 1-8, trials 0-249."""
    from perfbench import workloads

    corpus = []
    for seed in workloads.FUZZ_GENERATOR_SEEDS:
        rng = np.random.default_rng(seed)
        for trial, problem in random_draws(rng, workloads.FUZZ_TRIALS):
            corpus.append((seed, trial, problem, +1 if rng.random() < 0.5 else -1))
    return tuple(corpus)


def corpus_draw(seed: int, trial: int):
    """Problem and direction of the corpus's draw (generator seed, trial)."""
    return next((p, d) for s, t, p, d in fuzz_corpus() if (s, t) == (seed, trial))


def corpus_pick(size: int, seed: int) -> list:
    """``size`` draws of the corpus picked with ``default_rng(seed)``, in corpus order."""
    corpus = fuzz_corpus()
    return [corpus[i] for i in sorted(np.random.default_rng(seed).choice(len(corpus), size, replace=False))]


def bundled_programs() -> list:
    """The door, pivot and slide programs of the bundled scenarios, both directions."""
    return [compile_program(builtin_scenario(name).problem(), direction)
            for name in ("door_handle", "cuboid_pivot", "cuboid_slide") for direction in (+1, -1)]


def door_problems(x_c: float) -> list:
    """The door at each angle of THETAS: one of the ``eval_grid`` sweeps."""
    return [builtin_scenario("door_handle", x_c=x_c, theta=float(t)).problem() for t in THETAS]


def cuboid_problems(name: str) -> list:
    """A cuboid scenario at each angle of ALPHAS and three contact offsets."""
    return [builtin_scenario(name, alpha=float(a), x_E=x_E).problem() for x_E in (0.06, 0.09, 0.12) for a in ALPHAS]


def stacks_of(problems, direction: int) -> list:
    """``compile_stacks`` of problems that all compile."""
    stacks, placed = compile_stacks(problems, direction)
    assert not any(isinstance(where, Exception) for where in placed)
    return stacks


def with_edge_cap(p, cap):
    """``p`` with f_n_max = ``cap`` at its first environment contact."""
    first, *rest = p.environment_contacts
    return replace(p, environment_contacts=(replace(first, f_n_max=cap), *rest))


def presolve_group() -> list:
    """One structure before presolve (3 variables, 2 equality rows, one
    cone): full-rank members; consistent rank-deficient members, which lose a
    row and a pinned column in presolve and so form a batch of their own; an
    inconsistent member and a free-ray member, settled by presolve."""
    cone = (soc([[0, 0, 1]], [0], [1, 1, 0], 1.0),)  # |x3| <= x1 + x2 + 1

    def full(a, b):
        return mkprog([0, 0, 1], [[1, 0, 0], [0, 1, 0]], [a, b], cone)

    def deficient(s, shift=0.0, f=(0, 0, 1)):
        return mkprog(f, [[1, 1, 0], [2, 2, 0]], [s, 2 * s + shift], cone)

    return [full(0.5, 0.2), deficient(0.3), full(1.0, -0.5), deficient(0.3, shift=1.0),
            deficient(0.7), full(0.1, 0.1), deficient(0.2, f=(1, -1, 1)), deficient(-0.4),
            full(-0.3, 0.4), deficient(0.5)]


def dual_program(prog: ConicProgram) -> ConicProgram:
    """The conic dual of ``prog`` (maximize f'x subject to F x = g, lb <= x <=
    ub and ||A_k x + b_k|| <= c_k'x + d_k), as a program that maximizes the
    dual objective's negation, so that its optimum is -eta where strong
    duality holds.  Its variables are y (free, one per row of F), mu_l and
    mu_u >= 0 (one per finite lower and upper bound) and, per block, (t_k,
    u_k) with ||u_k|| <= t_k; the dual minimizes g'y - lb'mu_l + ub'mu_u +
    sum(t_k d_k + b_k'u_k) subject to F'y - mu_l + mu_u - sum(t_k c_k +
    A_k'u_k) = f."""
    lo, hi, eye = np.isfinite(prog.lb), np.isfinite(prog.ub), np.eye(prog.n_vars)
    columns = [prog.F.T, -eye[:, lo], eye[:, hi]] + [-np.column_stack([blk.c, blk.A.T]) for blk in prog.socs]
    cost = [prog.g, -prog.lb[lo], prog.ub[hi]] + [np.concatenate([[blk.d], blk.b]) for blk in prog.socs]
    F = np.hstack(columns)
    start = len(prog.g) + lo.sum() + hi.sum()
    lb = np.full(F.shape[1], -np.inf)
    lb[len(prog.g) : start] = 0.0
    cones = []
    for blk in prog.socs:
        t = np.eye(F.shape[1])[start : start + 1 + len(blk.b)]
        cones.append(soc(t[1:], np.zeros(len(blk.b)), t[0], 0.0, blk.label))
        start += len(t)
    return mkprog(-np.concatenate(cost), F, prog.f, cones, lb=lb)
