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
is compiled once per such key and cached.  ``compile_stacks`` alone decides
which problems share a ``ProgramStack`` (one structure and finite-bound
pattern).  ``_write``, a compiled map from numbers to program data as in
CVXPYgen, writes the numbers of a stack's problems into it and checks it
once; it takes them as one problem whose numbers are arrays over the
problems (``_stacked`` gathers them from GraspProblems; a builtin family's
generator and a GWS probe hand them over as such, see ``compile_columns``).
``compile_program`` writes one problem as a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .contacts import (
    LOCAL_COMPONENTS,
    EnvironmentContact,
    FixedSupport,
    ManipulatorContact,
    Pcwf,
)
from .errors import CompileError, ScrewGraspError, SolverDataError
from .screws import InfinitePitch, TaskScrew

_SFCE_KEEP = ("f_t", "f_o", "f_n", "m_n")
_PCWF_KEEP = ("f_t", "f_o", "f_n")
_CONE_SCALES = {"sfce": ("e_t", "e_o", "e_n"), "pcwf": ("e_t", "e_o")}  # A row k: 1 / (mu e_k)


def _read_only(v) -> np.ndarray:
    """A read-only float copy of v."""
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


def _built(cls, **fields):
    """A ``cls`` over arrays that are read-only already (views of a compiled
    stack), neither copied nor checked.  Every field must be given."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
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
        return self.jacobian.shape[-1]


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
class SocBlock:
    """One second-order cone constraint ||A x + b|| <= c'x + d.  Its arrays
    are stored as read-only copies (taken once) and must be finite."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
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


@dataclass(frozen=True)
class ProgramStack:
    """B programs of one shape and finite-bound pattern, stacked (``f``, ``F``,
    ``g``, ``lb``, ``ub``, per SOC block ``(A, b, c, d)``, the layout and the
    blocks' labels): the solver's unit of work.  Stacks from ``compile_stacks``
    are read-only and checked; ``program(k)`` is row k as a ConicProgram, and
    ``of`` is the one way other ConicPrograms get into a stack."""

    f: np.ndarray
    F: np.ndarray
    g: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    socs: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    layout: VariableLayout
    labels: tuple[str, ...]  # per SOC block

    def __len__(self) -> int:
        return len(self.f)

    @classmethod
    def of(cls, progs: list[ConicProgram]) -> "ProgramStack":
        """Programs of one shape and finite-bound pattern, stacked (one as
        ``[None]`` views, or as the stack ``compile_program`` wrote it into)
        with the first one's layout and labels; else CompileError."""
        if len(progs) == 1 and (stack := getattr(progs[0], "_stack", None)) is not None:
            return stack
        if len(progs) > 1 and len({(p.F.shape, *(b.A.shape for b in p.socs), np.isfinite([p.lb, p.ub]).tobytes())
                                   for p in progs}) > 1:
            raise CompileError("the programs of a stack must share their shapes and finite-bound pattern")
        stack = (lambda xs: xs[0][None]) if len(progs) == 1 else np.stack
        return cls(*(stack([getattr(p, name) for p in progs]) for name in ("f", "F", "g", "lb", "ub")),
                   socs=tuple((*(stack([getattr(p.socs[j], name) for p in progs]) for name in "Abc"),
                               np.array([p.socs[j].d for p in progs])) for j in range(len(progs[0].socs))),
                   layout=progs[0].layout, labels=tuple(blk.label for blk in progs[0].socs))

    def take(self, idx) -> "ProgramStack":
        """The rows ``idx`` (an index array) as a read-only stack of their own."""
        arrays = [v[idx] for v in (self.f, self.F, self.g, self.lb, self.ub)]
        socs = tuple(tuple(v[idx] for v in blk) for blk in self.socs)
        for v in (*arrays, *(v for blk in socs for v in blk)):
            v.setflags(write=False)
        return ProgramStack(*arrays, socs, self.layout, self.labels)

    def program(self, k: int) -> ConicProgram:
        """Row k as a ConicProgram of views, not checked again (a compiled
        stack's rows passed the checks)."""
        socs = tuple(_built(SocBlock, A=A[k], b=b[k], c=c[k], d=float(d[k]), label=label)
                     for (A, b, c, d), label in zip(self.socs, self.labels, strict=True))
        return _built(ConicProgram, f=self.f[k], F=self.F[k], g=self.g[k], socs=socs,
                      lb=self.lb[k], ub=self.ub[k], layout=self.layout)


def _kept_components(contact) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """(kind, surviving local components, prescribed ones in the order given)."""
    if isinstance(contact, ManipulatorContact):
        if contact.cone is None:
            return "frictionless", ("f_n",), ()
        return "sfce", _SFCE_KEEP, ()
    model = contact.model
    if isinstance(model, Pcwf):
        if model.params is None:
            return "frictionless", ("f_n",), ()
        return "pcwf", _PCWF_KEEP, ()
    if isinstance(model, FixedSupport):
        kept = tuple(c for c in LOCAL_COMPONENTS if c not in model.prescribed)
        return "fixed", kept, tuple(model.prescribed)
    raise CompileError(f"unknown environment contact model {type(model).__name__}")


def _key(p: GraspProblem) -> tuple:
    """A problem's stack: ``_structure``'s key (its contacts' ``_kept_components``
    and n_tau) and whether each environment contact gives f_n_min and f_n_max."""
    return (tuple(_kept_components(c) for c in p.manipulator_contacts),
            tuple(_kept_components(c) for c in p.environment_contacts),
            p.torque_model.n_joints if p.torque_model is not None else 0,
            tuple((c.f_n_min is not None, c.f_n_max is not None) for c in p.environment_contacts))


_UPPER = lambda ct: np.inf if ct.f_n_max is None else ct.f_n_max  # noqa: E731
_F_N_BOUNDS = {  # (lower, upper) getters of an f_n bound from its contact, floats or arrays over problems
    "manipulator": (lambda ct: 0.0, lambda ct: ct.f_n_max),
    "fixed": (lambda ct: -np.inf if ct.f_n_min is None else ct.f_n_min, _UPPER),  # bilateral: bound only if asked
    "environment": (lambda ct: 0.0 if ct.f_n_min is None else np.maximum(0.0, ct.f_n_min), _UPPER),  # pcwf, no mu
}


@lru_cache(maxsize=64)  # a job needs one or two; each entry holds about 6 KB
def _structure(key: tuple) -> tuple:
    """What every problem with this structure ``key`` shares, as ``_write``
    unpacks it: the layout, the index arrays of its entries (J^T and adjoint
    columns, bounded f_n, prescribed components, A and c entries), the
    getters of its numbers from the contacts, and the parts of one buffer."""
    manipulators, environment, n_tau = key
    slices, cols, jt_cols, prescribed, bounds, cones = [], [], [], [], [], []
    for group, tag, kinds in (("manipulator", "m", manipulators), ("environment", "e", environment)):
        for idx, (kind, comps, fixed) in enumerate(kinds):
            i, start = len(slices), slices[-1].stop if slices else 0
            slices.append(ContactSlice(group, idx, kind, start, comps))
            at = {comp: start + k for k, comp in enumerate(comps)}  # x position of each kept component
            local = [LOCAL_COMPONENTS.index(comp) for comp in comps]
            cols += [6 * i + k for k in local]
            jt_cols += [6 * idx + k for k in local] if group == "manipulator" else []
            prescribed += [(i, LOCAL_COMPONENTS.index(comp)) for comp in fixed]
            if "f_n" in at:
                bounds.append((i, *_F_N_BOUNDS["fixed" if kind == "fixed" else group], at["f_n"]))
            if kind in _CONE_SCALES:
                scales = _CONE_SCALES[kind]
                cones.append((i, attrgetter("cone" if kind == "sfce" else "model.params"),
                              (attrgetter(*["mu"] * len(scales)), attrgetter(*scales)),  # mu and e of each A row
                              [at[comp] for comp in comps if comp != "f_n"], at["f_n"], f"{tag}{idx}.cone"))
    start = slices[-1].stop if slices else 0
    layout = VariableLayout(contacts=tuple(slices), torque_start=start, n_torques=n_tau,
                            eta_index=start + n_tau, n_vars=start + n_tau + 1)
    # the buffer row of a problem: f, F, g and per cone block A, b, c and d, each
    # starting 16-byte aligned, as an array of its own does
    n, m = layout.n_vars, 6 + n_tau
    shapes = [(n,), (m, n), (m,)] + [s for cone in cones for s in ((len(cone[3]), n), (len(cone[3]),), (n,), ())]
    sizes = [math.prod(shape) for shape in shapes]
    starts = list(accumulate([0] + [size + size % 2 for size in sizes]))
    a_at = [starts[3 + 4 * j] + k * n + x for j, cone in enumerate(cones) for k, x in enumerate(cone[3])]
    c_at = [starts[5 + 4 * j] + cone[4] for j, cone in enumerate(cones)]
    ints = np.array([*jt_cols, *cols, *(bound[3] for bound in bounds), *a_at, *c_at], dtype=np.intp)
    ends = list(accumulate([len(jt_cols), len(cols), len(bounds), len(a_at)]))
    return (layout, ints[: ends[0]], ints[ends[0] : ends[1]], tuple(prescribed),
            (tuple(bound[:3] for bound in bounds), ints[ends[1] : ends[2]]), tuple(cones),
            (ints[ends[2] : ends[3]], ints[ends[3] :]), (starts[-1], tuple(zip(starts, sizes, shapes))))


_SKEW = np.array([[6, 5, 1], [2, 6, 3], [4, 0, 6]])  # skew(p) as entries of [p, -p, 0]
_ROLLS = np.array([[1, 2, 0], [2, 0, 1]])  # cross3 of a and b: a[1] * b[2] - a[2] * b[1], ...


def _stacked(objs: list):
    """Problems of one stack key, or their parts, as one object of the
    first one's type, built unchecked, whose numbers have a leading axis over
    the objects; an infinite pitch is NaN.  A part that is None in any of
    them is None: the key fixes every such part ``_write`` reads (a
    TorqueModel's ``dofs`` it does not read)."""
    first = objs[0]
    if any(o is None for o in objs):
        return None
    if isinstance(first, tuple):
        return tuple(_stacked(list(parts)) for parts in zip(*objs))
    if isinstance(first, dict):
        return {name: _stacked([o[name] for o in objs]) for name in first}
    if hasattr(first, "__dataclass_fields__"):
        return _built(type(first), **{name: _stacked([getattr(o, name) for o in objs]) for name in vars(first)})
    return np.array([math.nan if isinstance(o, InfinitePitch) else o for o in objs], dtype=float)


def _write(p: GraspProblem, B: int, direction: int, key=None) -> tuple[ProgramStack, np.ndarray, np.ndarray]:
    """The one number writer: the B problems of one stack ``key`` held by
    ``p``, each number with a leading axis over them (a contact, the task and
    load together, or the torque model without it is every problem's; a
    GraspProblem is one problem), as a stack, each entry rounded as for one
    problem (``skew(p) @ R`` a stacked matmul, cross products entry by entry,
    1/(mu e)).  Also returns the task and external wrenches (2, B, 6) and the
    mask of the rows that fail the ConicProgram checks, from one check of the
    buffer that holds them all."""
    if direction not in (+1, -1):
        raise CompileError("direction must be +1 or -1")
    key = key or _key(p)
    layout, jt_cols, cols, prescribed, (getters, at), cones, entries, parts = _structure(key[:3])
    (a_at, c_at), n_tau, n = entries, key[2], layout.n_vars
    buffer = np.zeros((B, parts[0]))
    f, F, g = (buffer[:, start : start + size].reshape(B, *shape) for start, size, shape in parts[1][:3])
    bounds = np.empty((2, B, n))
    bounds[0], bounds[1] = -np.inf, np.inf
    contacts, t, e = (*p.manipulator_contacts, *p.environment_contacts), p.task, p.external
    with np.errstate(all="ignore"):  # inf and nan as Python floats give them; the checks find them
        h = np.asarray(np.nan if t.infinite_pitch else t.pitch, dtype=float)[..., None]  # NaN if infinite
        infinite = np.isnan(h)
        X = np.array([np.where(infinite, 0.0, t.l), e.force, t.q, e.application_point]).reshape(4, -1, 3)
        Y = X[..., _ROLLS]  # task force, f, q and p, their entries rolled by one and by two
        W = np.empty((2, B, 6))  # the task's unit wrench and the external wrench
        W[:, :, :3] = X[:2]
        W[:, :, 3:] = Y[2:, ..., 0, :] * Y[:2, ..., 1, :] - Y[2:, ..., 1, :] * Y[:2, ..., 0, :]  # q x l, p x f
        W[0, :, 3:] += np.where(infinite, 0.0, h) * X[0]
        W[1, :, 3:] += e.moment
        W[0, :, 3:] = np.where(infinite, t.l, W[0, :, 3:])  # zero force, unit moment along l
        F[:, :6, layout.eta_index] = -direction * W[0]
        g[:, :6] = -W[1]
        if contacts:  # the adjoints of all contacts side by side, (B, 6, contact, 6)
            R = np.array([ct.rotation for ct in contacts])  # (contact, ..., 3, 3)
            P = np.array([ct.position for ct in contacts])
            rows_first = (*range(1, R.ndim - 2), R.ndim - 2, 0, R.ndim - 1)  # to (..., 3, contact, 3)
            G = np.zeros((B, 6, len(contacts), 6))
            G[:, :3, :, :3] = G[:, 3:, :, 3:] = R.transpose(rows_first)
            S = np.concatenate([P, -P, np.zeros(P.shape[:-1] + (1,))], axis=-1)[..., _SKEW]
            G[:, 3:, :, :3] = (S @ R).transpose(rows_first)
            F[:, :6, : cols.size] = G.reshape(B, 6, -1)[:, :, cols]  # contact components come first in x
            for i, k in prescribed:
                value = contacts[i].model.prescribed[LOCAL_COMPONENTS[k]]
                g[:, :6] -= G[:, :, i, k] * np.reshape(value, (-1, 1))
        for (i, low, high), x in zip(getters, at.tolist()):
            bounds[0, :, x], bounds[1, :, x] = low(contacts[i]), high(contacts[i])
        if cones:
            params = [(cone[2], cone[1](contacts[cone[0]])) for cone in cones]
            mu, scale = (np.array([v for get, prm in params for v in get[s](prm)]) for s in (0, 1))
            buffer[:, a_at] = (1.0 / (mu * scale)).T
            buffer[:, c_at] = 1.0
    if n_tau:
        tm, ts = p.torque_model, layout.torque_start
        F[:, 6:, : jt_cols.size] = np.swapaxes(tm.jacobian, -1, -2)[..., jt_cols]
        F[:, 6:, ts : ts + n_tau] = np.eye(n_tau)  # manipulator columns come first
        g[:, 6:] = tm.tau_g
        bounds[:, :, ts : ts + n_tau] = np.array([tm.tau_min, tm.tau_max]).reshape(2, -1, n_tau)
    f[:, layout.eta_index] = 1.0

    # ub - lb >= 0 fails on NaN, lb > ub, lb = +inf and ub = -inf alike
    bad = ~(np.isfinite(buffer).all(axis=1) & (bounds[1] - bounds[0] >= 0).all(axis=1))
    buffer.setflags(write=False)
    bounds.setflags(write=False)
    f, F, g, *blocks = (buffer[:, start : start + size].reshape(B, *shape) for start, size, shape in parts[1])
    socs = tuple(zip(*[iter(blocks)] * 4))  # (A, b, c, d) per cone block
    return ProgramStack(f, F, g, *bounds, socs, layout, tuple(cone[-1] for cone in cones)), W, bad


def _row_error(st: ProgramStack, W: np.ndarray, k: int) -> Exception:
    """The error compiling row k's problem alone raises: a task or external
    wrench that overflows first, with a ``Wrench``'s text, then the
    ConicProgram checks, each with its text; all are SolverDataErrors."""
    if not np.isfinite(W[:, k]).all():
        return SolverDataError("wrench components must be finite")
    try:
        row = st.program(k)
        for obj in (*row.socs, row):  # each SocBlock's checks, then the program's
            obj._check()
    except ScrewGraspError as exc:
        return exc


def compile_program(p: GraspProblem, direction: int = +1) -> ConicProgram:
    """Compile a grasp scenario into a conic program: the one row that
    ``_write`` writes for it, or the error that ``_row_error`` gives.
    ``direction`` (+1/-1) selects the sense of the task screw; the paired
    curves of a task (CW/CCW, +X/-X) are two compilations.  The program keeps
    that stack of one, which ``ProgramStack.of([prog])`` hands to the solver;
    ``dataclasses.replace`` gives a program without it."""
    stack, W, bad = _write(p, 1, direction)
    if bad[0]:
        raise _row_error(stack, W, 0)
    prog = stack.program(0)
    prog.__dict__["_stack"] = stack
    return prog


def compile_stacks(problems: list[GraspProblem], direction: int = +1) -> tuple[list[ProgramStack], list]:
    """One ProgramStack per stack key (structure and finite-bound pattern,
    ``_key``), in the order of each key's first problem, and per problem its
    ``(stack index, row)`` or the error that ``compile_program`` raises for it."""
    if direction not in (+1, -1):
        raise CompileError("direction must be +1 or -1")
    placed: list = [None] * len(problems)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        try:
            groups.setdefault(_key(p), []).append(i)
        except Exception as exc:  # noqa: BLE001  (the caller decides which errors a job tolerates)
            placed[i] = exc
    stacks = []
    for key, members in groups.items():
        group, rows = compile_columns(_stacked([problems[i] for i in members]), len(members), direction, key)
        for i, where in zip(members, rows):
            placed[i] = where if isinstance(where, Exception) else (len(stacks), where[1])
        stacks += group
    return stacks, placed


def _placed(stack: ProgramStack, errors: list) -> tuple[list, list]:
    """The rows of ``stack`` whose entry in ``errors`` is None, as at most one
    stack, and per row ``(0, its row there)`` or its error."""
    good = [k for k, exc in enumerate(errors) if exc is None]
    at = iter(range(len(good)))
    stacks = [stack if len(good) == len(stack) else stack.take(good)] if good else []
    return stacks, [exc or (0, next(at)) for exc in errors]


def compile_columns(p: GraspProblem, n: int, direction: int = +1, key=None) -> tuple[list, list]:
    """``compile_stacks`` of the n problems of one stack key that ``p`` holds
    as ``_write`` takes them: at most one stack, and per problem ``(0, row)``
    or its error."""
    stack, W, bad = _write(p, n, direction, key)
    return _placed(stack, [_row_error(stack, W, k) if failed else None for k, failed in enumerate(bad.tolist())])
