"""Assembly of a grasp scenario into a conic program.

The program maximizes the wrench magnitude eta that the whole system
(manipulator contacts, environment contacts, external wrench) can apply along
the task screw:

    maximize  eta
    s.t.      G_c f_c + G_e f_e + f_ext = eta * w_task
              each contact wrench in its friction cone
              0 <= f_n <= f_n_max per manipulator contact
              tau + J^T f_c = tau_g,  tau_min <= tau <= tau_max  (if present)
              optional environment normal-force bounds

Structurally zero wrench components (tangential moments at SFCE contacts,
all moments at PCWF contacts, prescribed FixedSupport components) are
eliminated from the variable vector; the layout descriptor records what
remains and where.

The structure (layout, column positions, bound and cone patterns) depends
only on the contact kinds, their kept components and the joint count, so it
is compiled once per such key and cached; each compile writes only its
numbers, into arrays the program takes over without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .contacts import (
    LOCAL_COMPONENTS,
    EnvironmentContact,
    FixedSupport,
    ManipulatorContact,
    Pcwf,
    PcwfParams,
    SfceParams,
)
from .errors import CompileError, ScrewGraspError, SolverDataError
from .screws import (
    TaskScrew,
    Wrench,
    adjoint_matrix,
    cross3,
    screw_to_unit_wrench,
)

_SFCE_KEEP = ("f_t", "f_o", "f_n", "m_n")
_PCWF_KEEP = ("f_t", "f_o", "f_n")
_CONE_SCALES = {"sfce": ("e_t", "e_o", "e_n"), "pcwf": ("e_t", "e_o")}  # A row k: 1 / (mu e_k)


def _read_only(v) -> np.ndarray:
    """A read-only float copy of v."""
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


def _built(cls, **fields):
    """A ``cls`` that takes over arrays built for it here: they are made
    read-only and checked, not copied.  Every field must be given."""
    for v in fields.values():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    obj._check()
    return obj


@dataclass(frozen=True)
class ExternalWrench:
    """Constant external load: force (N) at ``application_point`` (m) plus a
    free moment (N.m), all in the body frame."""

    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    moment: np.ndarray = field(default_factory=lambda: np.zeros(3))
    application_point: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("force", "moment", "application_point"):
            v = _read_only(getattr(self, name)).reshape(3)
            if not np.all(np.isfinite(v)):
                raise ScrewGraspError(f"external wrench {name} must be finite")
            object.__setattr__(self, name, v)

    def is_zero(self) -> bool:
        return not (np.any(self.force) or np.any(self.moment))


def external_wrench_in_b(e: ExternalWrench) -> Wrench:
    """Resolve the external load about the body-frame origin."""
    return Wrench(force=e.force, moment=cross3(e.application_point, e.force) + e.moment)


@dataclass(frozen=True)
class TorqueModel:
    """Joint-space view of the manipulator contacts.

    ``jacobian`` (6n x l) maps joint rates to contact-frame twists, blocks
    stacked per contact in local component order; torques obey
    tau = tau_g - J^T f_c with bounds [tau_min, tau_max].  ``dofs`` optionally
    gives the per-manipulator joint counts for block-structure validation.
    """

    jacobian: np.ndarray
    tau_g: np.ndarray
    tau_min: np.ndarray
    tau_max: np.ndarray
    dofs: tuple[int, ...] | None = None

    def __post_init__(self):
        J = np.asarray(self.jacobian, dtype=float)
        if J.ndim != 2:
            raise ScrewGraspError("jacobian must be a 2-D matrix")
        l = J.shape[1]
        for name in ("tau_g", "tau_min", "tau_max"):
            v = _read_only(getattr(self, name)).reshape(l)
            if not np.all(np.isfinite(v)):
                raise ScrewGraspError(f"torque model {name} must be finite")
            object.__setattr__(self, name, v)
        if np.any(self.tau_min > self.tau_max):
            raise ScrewGraspError("tau_min must not exceed tau_max componentwise")
        if not np.all(np.isfinite(J)):
            raise ScrewGraspError("jacobian must be finite")
        if self.dofs is not None:
            dofs = tuple(int(d) for d in self.dofs)
            if sum(dofs) != l:
                raise ScrewGraspError("dofs must sum to the jacobian column count")
            if J.shape[0] != 6 * len(dofs):
                raise ScrewGraspError("jacobian row count must be 6 per manipulator")
            col = 0
            for i, d in enumerate(dofs):
                block_rows = slice(6 * i, 6 * i + 6)
                outside = np.delete(J[:, col : col + d], block_rows, axis=0)
                if np.any(outside != 0.0):
                    raise ScrewGraspError("jacobian is not block-diagonal per manipulator")
                col += d
            object.__setattr__(self, "dofs", dofs)
        object.__setattr__(self, "jacobian", _read_only(J))

    @property
    def n_joints(self) -> int:
        return self.jacobian.shape[1]


@dataclass(frozen=True)
class GraspProblem:
    """A complete scenario: contacts, external load, torque data, task."""

    manipulator_contacts: tuple[ManipulatorContact, ...]
    environment_contacts: tuple[EnvironmentContact, ...]
    external: ExternalWrench
    task: TaskScrew
    torque_model: TorqueModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "manipulator_contacts", tuple(self.manipulator_contacts))
        object.__setattr__(self, "environment_contacts", tuple(self.environment_contacts))
        n = len(self.manipulator_contacts)
        m = len(self.environment_contacts)
        if n + m == 0 and self.external.is_zero():
            raise ScrewGraspError(
                "scenario needs at least one contact or a nonzero external wrench"
            )
        if self.torque_model is not None and self.torque_model.jacobian.shape[0] != 6 * n:
            raise ScrewGraspError(
                f"jacobian has {self.torque_model.jacobian.shape[0]} rows, "
                f"expected 6 x {n} manipulator contacts"
            )


# ---------------------------------------------------------------------------
# Compiled program representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactSlice:
    """Where one contact's surviving wrench components live in x."""

    group: str  # "manipulator" | "environment"
    index: int
    kind: str  # "sfce" | "pcwf" | "fixed" | "frictionless"
    start: int
    components: tuple[str, ...]

    @property
    def stop(self) -> int:
        return self.start + len(self.components)

    def position_of(self, component: str) -> int:
        return self.start + self.components.index(component)


@dataclass(frozen=True)
class VariableLayout:
    contacts: tuple[ContactSlice, ...]
    torque_start: int
    n_torques: int
    eta_index: int
    n_vars: int

    def variable_names(self) -> tuple[str, ...]:
        """The name of each variable by index, computed once per layout."""
        return self._names

    @cached_property
    def _names(self) -> tuple[str, ...]:
        names = [""] * self.n_vars
        for cs in self.contacts:
            tag = "m" if cs.group == "manipulator" else "e"
            for k, comp in enumerate(cs.components):
                names[cs.start + k] = f"{tag}{cs.index}.{comp}"
        for j in range(self.n_torques):
            names[self.torque_start + j] = f"tau[{j}]"
        names[self.eta_index] = "eta"
        return tuple(names)


@dataclass(frozen=True)
class ConeTag:
    """Links a SOC block back to the contact cone it encodes (used by the
    polyhedral LP oracle)."""

    kind: str  # "sfce" | "pcwf"
    params: SfceParams | PcwfParams
    var_of: dict[str, int]  # local component name -> index in x


@dataclass(frozen=True)
class SocBlock:
    """One second-order cone constraint ||A x + b|| <= c'x + d.  Its arrays
    are stored as read-only copies (taken once) and must be finite."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    tag: ConeTag | None = None
    label: str = ""

    def __post_init__(self):
        for name in ("A", "b", "c"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        self._check()

    def _check(self):
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.c).all() and math.isfinite(self.d)):
            raise SolverDataError(f"SOC block {self.label!r} contains NaN/Inf")


@dataclass(frozen=True)
class ConicProgram:
    """Standard-shape conic program: maximize f'x subject to F x = g, SOC
    blocks, and box bounds (+-inf where absent).

    A program is valid once built: its arrays are stored as read-only copies
    (taken once; ``compile_program`` hands over the arrays it built instead),
    inconsistent dimensions raise CompileError, and NaN/Inf data, NaN bounds,
    lb > ub, lb = +inf or ub = -inf raise SolverDataError, so every solver
    entry accepts it."""

    f: np.ndarray
    F: np.ndarray
    g: np.ndarray
    socs: tuple[SocBlock, ...]
    lb: np.ndarray
    ub: np.ndarray
    layout: VariableLayout

    @property
    def n_vars(self) -> int:
        return self.f.shape[0]

    def __post_init__(self):
        for name in ("f", "F", "g", "lb", "ub"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        self._check()

    def _check(self):
        n = self.f.shape[0]
        if self.F.shape != (self.g.shape[0], n) or self.lb.shape != (n,) or self.ub.shape != (n,):
            raise CompileError("inconsistent conic program dimensions")
        for blk in self.socs:
            if blk.A.shape[1] != n or blk.c.shape != (n,) or blk.b.shape != (blk.A.shape[0],):
                raise CompileError(f"inconsistent SOC block dimensions ({blk.label})")
        if self.layout.n_vars != n:
            raise CompileError("layout does not cover the variable vector")
        for arr, name in ((self.f, "objective"), (self.F, "equalities"), (self.g, "rhs")):
            if not np.isfinite(arr).all():
                raise SolverDataError(f"program {name} contains NaN/Inf")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise SolverDataError("bounds contain NaN")
        if (self.lb > self.ub).any():
            raise SolverDataError("lower bound exceeds upper bound")
        if (self.lb == np.inf).any() or (self.ub == -np.inf).any():
            raise SolverDataError("a lower bound of +inf or an upper bound of -inf admits no point")


def _kept_components(contact) -> tuple[str, tuple[str, ...]]:
    """(kind, surviving local components) for a contact."""
    if isinstance(contact, ManipulatorContact):
        if contact.cone is None:
            return "frictionless", ("f_n",)
        return "sfce", _SFCE_KEEP
    model = contact.model
    if isinstance(model, Pcwf):
        if model.params is None:
            return "frictionless", ("f_n",)
        return "pcwf", _PCWF_KEEP
    if isinstance(model, FixedSupport):
        kept = tuple(c for c in LOCAL_COMPONENTS if c not in model.prescribed)
        return "fixed", kept
    raise CompileError(f"unknown environment contact model {type(model).__name__}")


@lru_cache(maxsize=64)  # a job needs one or two; each entry holds about 2 KB
def _structure(key: tuple) -> tuple:
    """The structure of every problem with this key, the (kind, kept components)
    of each manipulator and environment contact and n_tau: the layout, the J^T
    columns of the manipulator components in x order, and per contact its x
    positions, the matching adjoint columns, its f_n position and, for a cone,
    the x positions of its A entries, their scale fields, tag map and label."""
    manipulators, environment, n_tau = key
    slices, contacts, jt_cols = [], [], []
    for group, tag, kinds in (("manipulator", "m", manipulators), ("environment", "e", environment)):
        for idx, (kind, comps) in enumerate(kinds):
            cs = ContactSlice(group, idx, kind, slices[-1].stop if slices else 0, comps)
            slices.append(cs)
            local = [LOCAL_COMPONENTS.index(comp) for comp in comps]
            jt_cols += [6 * idx + k for k in local] if group == "manipulator" else []
            i_fn = cs.position_of("f_n") if "f_n" in comps else None
            cone = None
            if kind in _CONE_SCALES:
                cone = ([cs.position_of(comp) for comp in comps if comp != "f_n"], _CONE_SCALES[kind],
                        {comp: cs.position_of(comp) for comp in comps}, f"{tag}{idx}.cone")
            contacts.append((np.arange(cs.start, cs.stop), np.array(local, dtype=np.intp), i_fn, cone))
    start = slices[-1].stop if slices else 0
    layout = VariableLayout(contacts=tuple(slices), torque_start=start, n_torques=n_tau,
                            eta_index=start + n_tau, n_vars=start + n_tau + 1)
    return layout, np.array(jt_cols, dtype=np.intp), tuple(contacts)


def compile_program(p: GraspProblem, direction: int = +1) -> ConicProgram:
    """Compile a grasp scenario into a conic program.

    ``direction`` (+1/-1) selects the sense of the task screw; the paired
    curves of a task (CW/CCW, +X/-X) are two compilations of one scenario.
    """
    if direction not in (+1, -1):
        raise CompileError("direction must be +1 or -1")
    n_tau = p.torque_model.n_joints if p.torque_model is not None else 0
    layout, jt_cols, structure = _structure((tuple(_kept_components(c) for c in p.manipulator_contacts),
                                             tuple(_kept_components(c) for c in p.environment_contacts), n_tau))
    n = layout.n_vars

    w_task = direction * screw_to_unit_wrench(p.task).as_array()
    F = np.zeros((6 + n_tau, n))
    g = np.zeros(6 + n_tau)
    g[:6] = -external_wrench_in_b(p.external).as_array()
    F[:6, layout.eta_index] = -w_task
    lb, ub = np.full(n, -np.inf), np.full(n, np.inf)
    socs: list[SocBlock] = []

    contacts = (*p.manipulator_contacts, *p.environment_contacts)
    for cs, (pos, local, i_fn, cone), contact in zip(layout.contacts, structure, contacts):
        G6 = adjoint_matrix(contact.rotation, contact.position)  # checked when built
        F[:6, pos] = G6[:, local]
        if cs.kind == "fixed":
            for comp, value in contact.model.prescribed.items():
                g[:6] -= G6[:, LOCAL_COMPONENTS.index(comp)] * value
        if i_fn is not None:
            if cs.group == "manipulator":
                lb[i_fn] = 0.0
                ub[i_fn] = contact.f_n_max
            elif cs.kind in ("pcwf", "frictionless"):
                lb[i_fn] = max(0.0, contact.f_n_min or 0.0)
                if contact.f_n_max is not None:
                    ub[i_fn] = contact.f_n_max
            else:  # bilateral fixed support: bound only if asked
                if contact.f_n_min is not None:
                    lb[i_fn] = contact.f_n_min
                if contact.f_n_max is not None:
                    ub[i_fn] = contact.f_n_max
        if cone is None:
            continue
        cols, scales, var_of, label = cone
        params: SfceParams | PcwfParams = contact.cone if cs.kind == "sfce" else contact.model.params
        A = np.zeros((len(cols), n))
        A[range(len(cols)), cols] = [1.0 / (params.mu * getattr(params, e)) for e in scales]
        c = np.zeros(n)
        c[i_fn] = 1.0
        socs.append(_built(SocBlock, A=A, b=np.zeros(len(cols)), c=c, d=0.0,
                           tag=ConeTag(kind=cs.kind, params=params, var_of=dict(var_of)), label=label))

    if p.torque_model is not None:
        tm = p.torque_model
        ts = layout.torque_start
        F[6:, : jt_cols.size] = tm.jacobian.T[:, jt_cols]  # manipulator columns come first
        F[6:, ts : ts + n_tau] = np.eye(n_tau)
        g[6:] = tm.tau_g
        lb[ts : ts + n_tau] = tm.tau_min
        ub[ts : ts + n_tau] = tm.tau_max

    f = np.zeros(n)
    f[layout.eta_index] = 1.0
    return _built(ConicProgram, f=f, F=F, g=g, socs=tuple(socs), lb=lb, ub=ub, layout=layout)

