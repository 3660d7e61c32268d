"""Scenario schema, file I/O and built-in scenario generators.

A scenario file is a JSON document (versioned, SI units throughout: m, rad,
N, N.m; rotation matrices row-major) describing contacts, external load,
optional torque model and one or more labeled task screws.  Files written by
``save_scenario`` are canonical: loading and re-saving reproduces them byte
for byte.  Every malformed file is a ``ScenarioError`` that names its field:
the reader checks JSON shapes and types (``$.tasks[0].pitch: expected a
finite number ...``), and each physical rule is the built type's own, its
message prefixed by the object's path (``$.manipulator_contacts[1].cone: mu
must be strictly positive, got 0.0``).

Three builtin generators reproduce the bundled golden scenarios; each is
also the grid builder of its family's sweeps (``Family``), run on
parameters that are arrays over the grid, its objects built unchecked:

  * ``door_handle`` — a two-finger antipodal grasp turning a lever handle
    against a torsion spring at its hinge;
  * ``cuboid_pivot`` / ``cuboid_slide`` — two fingers pinching a box that
    rests tilted on a support edge, pivoting it about the edge or sliding it
    along the surface.

Frame conventions of the generators (fixed here and encoded in the golden
files):

  door handle: body frame {b} at the hinge, z along the hinge axis, handle
  along +x at theta = 0.  The task turns the handle about -z; theta measures
  how far it has turned, so the handle frame is rotated by -theta about z and
  the spring reaction at the hinge is the prescribed moment +k_t*theta about
  z.  Contacts pinch the handle faces at y = +-W/2, offset x_c from the
  hinge, at mid-height.  Handle weight is neglected.

  cuboid: body frame {b} at the centroid, axes world-aligned (gravity is
  -z).  The support edge is the object edge at x = -L/2, z = -H/2, running
  along y; tilting by alpha rotates the object by -alpha about y (the +x side
  lifts).  Fingers pinch the faces y = +-W/2 at offset x_E from the centroid;
  the edge is modeled as two PCWF contacts at its vertices.  The pivot task
  is a pure moment about y ("+" lowers the object, "-" lifts it); the slide
  task is a horizontal force through the centroid whose axis points toward
  the support edge, so "+" is the better-resisted sense (loading the edge
  raises its normal forces and with them the available friction).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .contacts import (
    EnvironmentContact,
    FixedSupport,
    ManipulatorContact,
    Pcwf,
    PcwfParams,
    SfceParams,
)
from .errors import (
    ScenarioError,
    ScenarioParseError,
    ScenarioPhysicsError,
    ScenarioSchemaError,
    ScenarioVersionError,
    ScrewGraspError,
)
from .problem import ExternalWrench, GraspProblem, TorqueModel, _built, _placed, _stacked, _write, compile_program
from .screws import INFINITE_PITCH, TaskScrew

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Scenario container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRef:
    """Names the builtin generator and parameter values a scenario came from,
    so sweeps can rebuild it at other parameter values."""

    generator: str
    params: dict


@dataclass(frozen=True)
class Scenario:
    """A loaded or generated scenario: shared contacts plus labeled tasks."""

    name: str
    manipulator_contacts: tuple[ManipulatorContact, ...]
    environment_contacts: tuple[EnvironmentContact, ...]
    external: ExternalWrench
    tasks: tuple[tuple[str, TaskScrew], ...]
    torque_model: TorqueModel | None = None
    family: FamilyRef | None = None
    description: str = ""

    def task_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.tasks)

    def task(self, label: str | None = None) -> TaskScrew:
        if label is None:
            return self.tasks[0][1]
        for name, screw in self.tasks:
            if name == label:
                return screw
        raise ScenarioError(f"unknown task {label!r}; available: {self.task_labels()}")

    def problem(self, task: str | None = None) -> GraspProblem:
        return GraspProblem(
            manipulator_contacts=self.manipulator_contacts,
            environment_contacts=self.environment_contacts,
            external=self.external,
            task=self.task(task),
            torque_model=self.torque_model,
        )


# ---------------------------------------------------------------------------
# Built-in generators
# ---------------------------------------------------------------------------

# ``make`` of the generators: ``make(cls)(**fields)`` is ``cls(**fields)``, checked, for one scenario;
# with ``_columns``, the object built unchecked, whose numbers are arrays over a grid
_checked = lambda cls: cls  # noqa: E731
_columns = partial(partial, _built)


def _rot(angle, i: int, j: int) -> np.ndarray:
    """The rotation by ``angle`` taking axis i toward axis j, or one per angle of an array."""
    c, s, k = np.cos(angle), np.sin(angle), 3 - i - j
    R = np.zeros(c.shape + (3, 3))
    R[..., i, i], R[..., j, j], R[..., i, j], R[..., j, i], R[..., k, k] = c, c, -s, s, 1.0
    return R


def _vec(*xyz) -> np.ndarray:
    """The 3-vector xyz, or one per point of a grid where an entry is an array."""
    grid = any(isinstance(v, np.ndarray) for v in xyz)
    return np.stack(np.broadcast_arrays(*xyz), axis=-1) if grid else np.array(xyz)


def _rotate(R: np.ndarray, *xyz) -> np.ndarray:
    """``R @ xyz``, or one 3x3 product per point of a grid, as one point's rounds."""
    return R @ np.array(xyz) if R.ndim == 2 else (R @ _vec(*xyz)[..., None])[..., 0]


def _fill(value, like):
    """``value`` at every point of the grid of ``like`` (a float: one point)."""
    return np.broadcast_to(value, like.shape + np.shape(value)) if isinstance(like, np.ndarray) else value


_EYE, _ZERO = np.eye(3), np.zeros(3)  # copied by the objects that take them

# contact frame axes (t, o, n) as columns, for a pinch along -+y:
# the face at +y gets inward normal -y, the face at -y gets +y.
_PINCH_PLUS_Y_FACE = np.column_stack([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
_PINCH_MINUS_Y_FACE = np.column_stack([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _pinch(R: np.ndarray, x, W, cone: SfceParams, f_n_max: tuple, make):
    """The two finger contacts pinching the faces y = +W/2 and y = -W/2 at
    offset x along the body x axis, the body rotated by R."""
    return tuple(make(ManipulatorContact)(rotation=R @ face, position=_rotate(R, x, sy * W / 2, 0.0), cone=cone,
                                          f_n_max=f_max)
                 for face, sy, f_max in ((_PINCH_PLUS_Y_FACE, 1.0, f_n_max[0]),
                                         (_PINCH_MINUS_Y_FACE, -1.0, f_n_max[1])))


@dataclass(frozen=True)
class DoorHandleParams:
    """Lever-handle task parameters (defaults are the reference setup)."""

    L: float = 0.20  # handle length (m)
    H: float = 0.04  # handle cross-section height (m)
    W: float = 0.03  # handle cross-section width (m)
    mu_c: float = 0.20
    e_t: float = 1.0
    e_o: float = 1.0
    e_n: float = 0.03  # torsional length (m)
    f_n_max: float = 20.0  # per contact (N)
    k_t: float = 0.6  # hinge spring constant (N.m/rad)
    x_c: float = 0.0  # contact offset along the handle (m)
    theta: float = 0.0  # handle angle from horizontal (rad)

    def __post_init__(self):
        for name in ("L", "H", "W", "mu_c", "e_t", "e_o", "e_n", "f_n_max"):
            if not 0 < getattr(self, name) < np.inf:
                raise ScrewGraspError(f"{name} must be positive and finite")
        if not 0 <= self.k_t < np.inf:
            raise ScrewGraspError("k_t must be nonnegative and finite")
        if not 0.0 <= self.x_c <= self.L:
            raise ScrewGraspError(f"x_c must lie on the handle: 0 <= {self.x_c} <= {self.L}")
        if not np.isfinite(self.theta):
            raise ScrewGraspError("theta must be finite")


def door_handle_scenario(p: DoorHandleParams = DoorHandleParams(), make=_checked) -> Scenario:
    """Antipodal two-finger grasp on a spring-loaded lever handle.  Given
    parameters whose fields are arrays over a grid and ``make=_columns``, it
    is the grid builder: one Scenario whose numbers are arrays over the grid."""
    Rh, zero = _rot(-p.theta, 0, 1), _fill(_ZERO, p.theta)  # handle has turned theta about the task axis -z
    cone = make(SfceParams)(mu=p.mu_c, e_t=p.e_t, e_o=p.e_o, e_n=p.e_n)
    # hinge: free reaction except the spring moment about z opposing the turn
    support = make(EnvironmentContact)(rotation=_fill(_EYE, p.theta), position=zero, f_n_min=None, f_n_max=None,
                                       model=make(FixedSupport)(prescribed={"m_n": p.k_t * p.theta}))
    task = make(TaskScrew)(l=_fill([0.0, 0.0, -1.0], p.theta), q=zero, pitch=INFINITE_PITCH)
    return Scenario(
        name="door_handle",
        description="turn a spring-loaded lever handle with an antipodal pinch",
        manipulator_contacts=_pinch(Rh, p.x_c, p.W, cone, (p.f_n_max, p.f_n_max), make),
        environment_contacts=(support,),
        external=make(ExternalWrench)(force=zero, moment=zero, application_point=zero),
        tasks=(("S", task),),
        family=FamilyRef("door_handle", dict(vars(p))),  # a shallow copy: the values are numbers
    )


@dataclass(frozen=True)
class CuboidParams:
    """Box-on-edge task parameters (defaults are the reference setup)."""

    weight: float = 9.81  # N
    L: float = 0.3
    W: float = 0.2
    H: float = 0.1
    mu_e: float = 0.25
    mu_c: float = 0.15
    e_cn: float = 0.06  # finger torsional length (m)
    e_t: float = 1.0
    e_o: float = 1.0
    f_n_max_1: float = 25.0
    f_n_max_2: float = 30.0
    alpha: float = 0.0  # tilt about the support edge (rad)
    x_E: float = 0.12  # finger offset from the centroid (m)

    def __post_init__(self):
        for name in ("weight", "L", "W", "H", "mu_e", "mu_c", "e_cn", "e_t", "e_o",
                     "f_n_max_1", "f_n_max_2"):
            if not 0 < getattr(self, name) < np.inf:
                raise ScrewGraspError(f"{name} must be positive and finite")
        if not 0.0 < self.x_E <= self.L / 2:
            raise ScrewGraspError(f"x_E must satisfy 0 < x_E <= L/2, got {self.x_E}")
        if not 0.0 <= self.alpha <= np.pi / 2:
            raise ScrewGraspError("alpha must lie in [0, pi/2]")


def cuboid_scenario(p: CuboidParams = CuboidParams(), make=_checked) -> Scenario:
    """Two fingers pinching a box resting on a support edge; a grid builder
    as ``door_handle_scenario`` is.

    Carries both tasks: "S1" pivots about the edge (infinite pitch), "S2"
    slides along the surface (zero pitch through the centroid).
    """
    Robj = _rot(-p.alpha, 2, 0)  # lifts the +x side, edge at x = -L/2 stays down
    cone = make(SfceParams)(mu=p.mu_c, e_t=p.e_t, e_o=p.e_o, e_n=p.e_cn)
    pcwf = make(PcwfParams)(mu=p.mu_e, e_t=p.e_t, e_o=p.e_o)
    # edge contact = two point contacts at the edge vertices; support normal
    # is world +z (into the object)
    edge = [make(EnvironmentContact)(rotation=_fill(_EYE, p.alpha), model=Pcwf(pcwf), f_n_min=None, f_n_max=None,
                                     position=_rotate(Robj, -p.L / 2, sy * p.W / 2, -p.H / 2))
            for sy in (+1.0, -1.0)]
    zero = _fill(_ZERO, p.alpha)
    gravity = make(ExternalWrench)(force=_vec(0.0, 0.0, -p.weight), moment=zero, application_point=zero)
    edge_mid = _rotate(Robj, -p.L / 2, 0.0, -p.H / 2)
    pivot = make(TaskScrew)(l=_fill([0.0, 1.0, 0.0], p.alpha), q=edge_mid, pitch=INFINITE_PITCH)
    slide = make(TaskScrew)(l=_fill([-1.0, 0.0, 0.0], p.alpha), q=zero, pitch=0.0)
    return Scenario(
        name="cuboid",
        description="pivot or slide a box resting on a support edge",
        manipulator_contacts=_pinch(Robj, p.x_E, p.W, cone, (p.f_n_max_1, p.f_n_max_2), make),
        environment_contacts=tuple(edge),
        external=gravity,
        tasks=(("S1", pivot), ("S2", slide)),
        family=FamilyRef("cuboid", dict(vars(p))),
    )


@dataclass(frozen=True)
class Builtin:
    """Registry entry for a generator-backed scenario family."""

    params_cls: type
    build: object  # callable(params, make=_checked) -> Scenario, a grid builder as door_handle_scenario is


def _cuboid_task(name: str, k: int, p: CuboidParams, make=_checked) -> Scenario:
    """Task k of the cuboid as the one-task family ``name``; with ``name`` and
    ``k`` bound, that family's generator."""
    s = cuboid_scenario(p, make)
    return replace(s, name=name, tasks=(s.tasks[k],), family=FamilyRef(name, dict(vars(p))))


BUILTINS: dict[str, Builtin] = {
    "door_handle": Builtin(DoorHandleParams, door_handle_scenario),
    "cuboid_pivot": Builtin(CuboidParams, partial(_cuboid_task, "cuboid_pivot", 0)),
    "cuboid_slide": Builtin(CuboidParams, partial(_cuboid_task, "cuboid_slide", 1)),
}


def _builtin(name: str, keys) -> Builtin:
    """The ``BUILTINS`` entry ``name``; a ``ScenarioError`` for an unknown name
    or for a key of ``keys`` that names none of its parameters."""
    if name not in BUILTINS:
        raise ScenarioError(f"unknown builtin scenario {name!r}; available: {sorted(BUILTINS)}")
    valid = BUILTINS[name].params_cls.__dataclass_fields__.keys()
    if unknown := keys - valid:
        raise ScenarioError(f"unknown parameter(s) {sorted(unknown)} for {name}; valid: {sorted(valid)}")
    return BUILTINS[name]


def builtin_scenario(name: str, **overrides) -> Scenario:
    """Instantiate a builtin scenario with parameter overrides; a
    ``ScenarioError`` for an unknown name or parameter, and a
    ``ScenarioPhysicsError`` with the parameter type's own message for one
    out of range."""
    spec = _builtin(name, overrides.keys())
    try:
        return spec.build(spec.params_cls(**overrides))
    except ScrewGraspError as exc:
        raise ScenarioPhysicsError(str(exc)) from None


def _family_builtin(generator: str, task: str) -> str:
    """The ``BUILTINS`` name that regenerates a family's scenario for ``task``:
    the two-task ``cuboid`` family is ``cuboid_pivot`` for S1 and
    ``cuboid_slide`` otherwise."""
    if generator == "cuboid":
        return "cuboid_pivot" if task == "S1" else "cuboid_slide"
    return generator


def rebuild_scenario(scenario: Scenario, changes: dict, task: str | None = None) -> Scenario:
    """Regenerate a scenario from its family with the parameter ``changes``,
    for the selected task (default: the first); a ``ScenarioError`` without a
    family, or for whatever ``builtin_scenario`` rejects."""
    if scenario.family is None:
        raise ScenarioError("scenario has no generator family; cannot change its parameters")
    return builtin_scenario(_family_builtin(scenario.family.generator, task or scenario.tasks[0][0]),
                            **{**scenario.family.params, **changes})


@dataclass(frozen=True)
class Family:
    """A builtin family at parameter values ``params`` but one, ``parameter``,
    which a sweep varies (see ``scenario_family``): ``family(value)`` is the
    problem of ``task`` at one value, ``stacks(grid, direction)`` compiles a
    whole grid at once."""

    builtin: str
    params: dict
    parameter: str
    task: str | None = None

    def __call__(self, value: float) -> GraspProblem:
        return builtin_scenario(self.builtin, **{**self.params, self.parameter: value}).problem(self.task)

    def stacks(self, grid: list, direction: int = +1) -> tuple[list, list]:
        """``compile_stacks`` of the problems at the grid values, each row or
        error the same, from one problem whose numbers are arrays over the grid
        (of the parameters as their type checked them per value).  A value
        whose parameters the type rejects or whose row fails the program checks
        is compiled alone, for its error (if none, it stays a row).  Accepted
        parameters are finite, so every contact frame is a rotation."""
        spec, params, rejected = BUILTINS[self.builtin], [], []
        for value in grid:
            try:
                params.append(spec.params_cls(**{**self.params, self.parameter: value}))
            except Exception:  # noqa: BLE001  (compiled alone below, for its error)
                rejected.append(len(params))
                params.append(spec.params_cls(**self.params))
        with np.errstate(all="ignore"):  # products such as k_t * theta may overflow; _write's checks find them
            p = spec.build(_stacked(params), _columns).problem(self.task)  # each parameter an array over the grid
        stack, _, bad = _write(p, len(grid), direction)
        bad[rejected] = True
        return _placed(stack, [self._error(value, direction) if flag else None
                               for value, flag in zip(grid, bad.tolist())])

    def _error(self, value: float, direction: int) -> Exception | None:
        """What compiling the problem at ``value`` alone raises, if anything."""
        try:
            compile_program(self(value), direction)
        except Exception as exc:  # noqa: BLE001  (a sweep records any failure of a point)
            return exc


def scenario_family(scenario: Scenario, parameter: str, task: str | None = None) -> Family:
    """The ``Family`` of a scenario with family information (builtin-generated
    or loaded from a file with a family block) that varies ``parameter``, for
    sweeps.  A scenario without one, or an unknown parameter or task, is a
    ``ScenarioError`` here, before any point is built."""
    base = rebuild_scenario(scenario, {}, task)  # the builtin it rebuilds as, at its values
    _builtin(base.family.generator, {parameter})
    base.task(task)
    return Family(base.family.generator, base.family.params, parameter, task)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "units": "SI",
        "name": s.name,
    }
    if s.description:
        doc["description"] = s.description
    if s.family is not None:
        doc["family"] = {"generator": s.family.generator,
                         "params": {k: float(v) for k, v in s.family.params.items()}}
    doc["manipulator_contacts"] = [
        {
            "rotation": c.rotation.tolist(),
            "position": c.position.tolist(),
            "cone": None if c.cone is None else asdict(c.cone),
            "f_n_max": float(c.f_n_max),
        }
        for c in s.manipulator_contacts
    ]
    env = []
    for c in s.environment_contacts:
        if isinstance(c.model, Pcwf):
            params = c.model.params
            model = {"type": "pcwf", **({"frictionless": True} if params is None else asdict(params))}
        else:
            model = {"type": "fixed_support",
                     "prescribed": {k: float(v) for k, v in c.model.prescribed.items()}}
        entry = {"rotation": c.rotation.tolist(), "position": c.position.tolist(),
                 "model": model}
        if c.f_n_min is not None:
            entry["f_n_min"] = float(c.f_n_min)
        if c.f_n_max is not None:
            entry["f_n_max"] = float(c.f_n_max)
        env.append(entry)
    doc["environment_contacts"] = env
    doc["external_wrench"] = {
        "force": s.external.force.tolist(),
        "moment": s.external.moment.tolist(),
        "application_point": s.external.application_point.tolist(),
    }
    if s.torque_model is not None:
        tm = s.torque_model
        doc["torque_model"] = {
            "jacobian": tm.jacobian.tolist(),
            "tau_g": tm.tau_g.tolist(),
            "tau_min": tm.tau_min.tolist(),
            "tau_max": tm.tau_max.tolist(),
        }
        if tm.dofs is not None:
            doc["torque_model"]["dofs"] = list(tm.dofs)
    doc["tasks"] = [
        {
            "label": label,
            "axis": screw.l.tolist(),
            "point": screw.q.tolist(),
            "pitch": "infinite" if screw.infinite_pitch else float(screw.pitch),
        }
        for label, screw in s.tasks
    ]
    return doc


def save_scenario(s: Scenario, path) -> None:
    """Write a scenario file; the output validates and round-trips exactly."""
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n", encoding="utf-8")


_KINDS = {float: "a finite number", int: "an integer", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object", type(None): "null"}


def _at(path: str, key) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _is(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # NaN, +-inf and integers beyond the float range fail the bound
        return isinstance(value, int | float) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _get(container, key, kind, path, required=True, default=None):
    """``container[key]`` checked to be of ``kind``: ``float`` is a finite
    JSON number, ``int`` an integer, neither ever a bool; any other kind is a
    JSON type, or a tuple of them such as ``(dict, type(None))`` for "object
    or null".  ``key`` is an object's field or a list's index."""
    if isinstance(key, str) and key not in container:
        if required:
            raise ScenarioSchemaError(f"{_at(path, key)}: missing required field")
        return default
    value = container[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if _is(value, k):
            return float(value) if k is float else value
    got = type(value).__name__ if isinstance(value, list | dict) else json.dumps(value)
    raise ScenarioSchemaError(f"{_at(path, key)}: expected {' or '.join(_KINDS[k] for k in kinds)}, got {got}")


def _objects(container, key, path):
    """Each object of the list ``container[key]``, with its path."""
    items = _get(container, key, list, path)
    for i in range(len(items)):
        yield _get(items, i, dict, f"{path}.{key}"), f"{path}.{key}[{i}]"


def _array(container, key, path, shape) -> np.ndarray:
    """``container[key]`` as a float array of ``shape``, nested lists of
    finite numbers; a ``None`` length is free, but equal across rows."""
    items = _get(container, key, list, path)
    where = _at(path, key)
    if shape[0] is not None and len(items) != shape[0]:
        raise ScenarioSchemaError(f"{where}: expected {shape[0]} entries, got {len(items)}")
    if len(shape) == 1:
        return np.array([_get(items, i, float, where) for i in range(len(items))])
    rows, inner = [], shape[1:]
    for i in range(len(items)):
        rows.append(_array(items, i, where, inner))
        inner = rows[0].shape  # every row as long as the first
    return np.array(rows) if rows else np.zeros((0, 0))


def _build(cls, path, **values):
    """``cls(**values)``, the type's own rules failing as a physics error
    prefixed by the path of the object."""
    try:
        return cls(**values)
    except ScrewGraspError as exc:
        raise ScenarioPhysicsError(f"{path}: {exc}") from None


def _cone(cls, raw, path):
    """An ``SfceParams``/``PcwfParams`` from its fields in ``raw``."""
    return _build(cls, path, **{f.name: _get(raw, f.name, float, path) for f in fields(cls)})


# No rotation or unit vector has an entry above 1 + 1e-6 in size.  One above
# _HUGE fails without the arithmetic, whose squares could overflow, and reads inf.
_HUGE = 1e150


def _orthonormalize(M: np.ndarray, path: str) -> np.ndarray:
    err = np.max(np.abs(M.T @ M - np.eye(3))) if np.abs(M).max() <= _HUGE else np.inf
    if err > 1e-6 or np.linalg.det(M) < 0:
        raise ScenarioPhysicsError(f"{path}: not a rotation matrix (|R'R - I| = {err:.2e})")
    if err <= 1e-12:  # already exact; keep bytes stable across save/load
        return M
    U, _, Vt = np.linalg.svd(M)
    return U @ Vt  # det(M) > 0, so the polar factor is a rotation


def _unit(v: np.ndarray, path: str) -> np.ndarray:
    n = np.linalg.norm(v) if np.abs(v).max() <= _HUGE else np.inf
    if abs(n - 1.0) > 1e-6:
        raise ScenarioPhysicsError(f"{path}: expected a unit vector, |v| = {n:.8f}")
    return v / n


def _pose(raw, path) -> dict:
    """The ``rotation`` and ``position`` of a contact entry."""
    return {"rotation": _orthonormalize(_array(raw, "rotation", path, (3, 3)), f"{path}.rotation"),
            "position": _array(raw, "position", path, (3,))}


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioSchemaError("top level: expected an object")
    version = _get(doc, "schema_version", int, "$")
    if version != SCHEMA_VERSION:
        raise ScenarioVersionError(
            f"$.schema_version: file declares version {version}, this reader supports {SCHEMA_VERSION}"
        )
    units = _get(doc, "units", str, "$")
    if units != "SI":
        raise ScenarioSchemaError(f"$.units: only 'SI' is supported, got {units!r}")
    optional = (dict, type(None))

    manips = []
    for raw, path in _objects(doc, "manipulator_contacts", "$"):
        cone = _get(raw, "cone", optional, path)  # null = frictionless
        manips.append(_build(ManipulatorContact, path, **_pose(raw, path),
                             cone=None if cone is None else _cone(SfceParams, cone, f"{path}.cone"),
                             f_n_max=_get(raw, "f_n_max", float, path)))

    envs = []
    for raw, path in _objects(doc, "environment_contacts", "$"):
        model_raw = _get(raw, "model", dict, path)
        mpath = f"{path}.model"
        mtype = _get(model_raw, "type", str, mpath)
        if mtype == "pcwf":
            frictionless = _get(model_raw, "frictionless", bool, mpath, required=False, default=False)
            model = Pcwf(None if frictionless else _cone(PcwfParams, model_raw, mpath))
        elif mtype == "fixed_support":
            prescribed = _get(model_raw, "prescribed", dict, mpath, required=False, default={})
            model = _build(FixedSupport, mpath, prescribed={
                k: _get(prescribed, k, float, f"{mpath}.prescribed") for k in prescribed})
        else:
            raise ScenarioSchemaError(f"{mpath}.type: unknown contact model {mtype!r}")
        envs.append(_build(EnvironmentContact, path, **_pose(raw, path), model=model,
                           f_n_min=_get(raw, "f_n_min", float, path, required=False),
                           f_n_max=_get(raw, "f_n_max", float, path, required=False)))

    ext = _get(doc, "external_wrench", dict, "$")
    external = _build(ExternalWrench, "$.external_wrench", **{
        k: _array(ext, k, "$.external_wrench", (3,)) for k in ("force", "moment", "application_point")})

    torque_model = None
    if (tm := _get(doc, "torque_model", optional, "$", required=False)) is not None:
        path = "$.torque_model"
        J = _array(tm, "jacobian", path, (None, None))
        dofs = _get(tm, "dofs", (list, type(None)), path, required=False)
        torque_model = _build(
            TorqueModel, path, jacobian=J,
            **{k: _array(tm, k, path, (J.shape[1],)) for k in ("tau_g", "tau_min", "tau_max")},
            dofs=None if dofs is None else tuple(_get(dofs, i, int, f"{path}.dofs") for i in range(len(dofs))))

    tasks, first = [], {}  # first: the path of each label's task
    for raw, path in _objects(doc, "tasks", "$"):
        label = _get(raw, "label", str, path)
        if label in first:
            raise ScenarioSchemaError(f"{path}.label: {label!r} repeats {first[label]}.label")
        first[label] = path
        pitch = _get(raw, "pitch", (float, str), path, required=False, default=0.0)
        if isinstance(pitch, str) and pitch != "infinite":
            raise ScenarioSchemaError(f"{path}.pitch: expected a finite number or 'infinite', got {pitch!r}")
        tasks.append((label, _build(TaskScrew, path, l=_unit(_array(raw, "axis", path, (3,)), f"{path}.axis"),
                                    q=_array(raw, "point", path, (3,)),
                                    pitch=INFINITE_PITCH if pitch == "infinite" else pitch)))
    if not tasks:
        raise ScenarioSchemaError("$.tasks: at least one task is required")

    family = None
    if (fam := _get(doc, "family", optional, "$", required=False)) is not None:
        generator = _get(fam, "generator", str, "$.family")
        # every task regenerates from the same parameter type, so the first task stands for all
        builtin = BUILTINS.get(_family_builtin(generator, tasks[0][0]))
        if builtin is None:
            raise ScenarioSchemaError(f"$.family.generator: unknown generator {generator!r}; "
                                      f"available: {sorted({*BUILTINS, 'cuboid'})}")
        raw = _get(fam, "params", dict, "$.family")
        valid = {f.name for f in fields(builtin.params_cls)}
        for k in raw:
            if k not in valid:
                raise ScenarioSchemaError(f"$.family.params.{k}: unknown parameter of {generator!r}; "
                                          f"valid: {sorted(valid)}")
        params = {k: _get(raw, k, float, "$.family.params") for k in raw}
        _build(builtin.params_cls, "$.family.params", **params)
        family = FamilyRef(generator, params)

    scenario = Scenario(
        name=_get(doc, "name", str, "$"),
        description=_get(doc, "description", str, "$", required=False, default=""),
        manipulator_contacts=tuple(manips),
        environment_contacts=tuple(envs),
        external=external,
        tasks=tuple(tasks),
        torque_model=torque_model,
        family=family,
    )
    for label in scenario.task_labels():  # the rules that tie the document's parts together
        _build(scenario.problem, "$", task=label)
    return scenario


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(doc)

