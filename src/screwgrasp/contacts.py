"""Friction-cone contact models.

Two cone families appear at the contacts:

  * soft-finger with elliptic approximation (SFCE) at manipulator contacts:
    tangential forces and a torsional moment about the contact normal share an
    ellipsoidal budget proportional to the normal force;
  * point contact with friction (PCWF) at environment contacts: tangential
    forces only.

Local contact wrenches are expressed in the contact frame with component
order (f_t, f_o, f_n, m_t, m_o, m_n); the frame's third axis is the contact
normal, pointing *into* the object (this convention is used for manipulator
and environment contacts alike).  A rigid environment attachment is modeled
as a FixedSupport whose wrench components are free unless prescribed.

``_pcwf_units``/``_sfce_units`` are the unit ray tables of the independent LP
validation path, not the main solve, one unit vector per column; the oracle
builds each once per facet count, through ``_ray_columns``' cache.  The
oracle inscribes a compiled cone block ||A x + b|| <= c'x + d by A x + b =
U lambda and c'x + d = 1'lambda, lambda >= 0; the 1/(mu e) rows of a compiled
block are what turn these unit rays into the rays of an SFCE or PCWF cone.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ScrewGraspError
from .screws import check_rotation

LOCAL_COMPONENTS = ("f_t", "f_o", "f_n", "m_t", "m_o", "m_n")


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise ScrewGraspError(f"{name} must be strictly positive, got {value}")
    return value


def _set_pose(contact) -> None:
    """Store a contact's rotation (checked to be in SO(3)) and position (3
    finite entries) as read-only float copies."""
    R = check_rotation(contact.rotation).copy()
    R.setflags(write=False)
    p = np.asarray(contact.position, dtype=float).reshape(3).copy()
    if not np.isfinite(p).all():
        raise ScrewGraspError("contact position must be finite")
    p.setflags(write=False)
    object.__setattr__(contact, "rotation", R)
    object.__setattr__(contact, "position", p)


@dataclass(frozen=True)
class SfceParams:
    """Soft-finger elliptic cone: friction coefficient mu, tangential
    anisotropies e_t/e_o (dimensionless) and torsional length e_n (m)."""

    mu: float
    e_t: float = 1.0
    e_o: float = 1.0
    e_n: float = 1.0

    def __post_init__(self):
        for name in ("mu", "e_t", "e_o", "e_n"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))


@dataclass(frozen=True)
class PcwfParams:
    """Point-contact friction cone: coefficient mu, tangential anisotropies."""

    mu: float
    e_t: float = 1.0
    e_o: float = 1.0

    def __post_init__(self):
        for name in ("mu", "e_t", "e_o"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))


@dataclass(frozen=True)
class Pcwf:
    """Environment contact transmitting normal + tangential force.

    ``params=None`` marks a frictionless contact: the tangential components
    are pinned to zero instead of dividing by mu = 0.
    """

    params: PcwfParams | None


@dataclass(frozen=True)
class FixedSupport:
    """Rigid environment attachment.

    ``prescribed`` maps local component names (see LOCAL_COMPONENTS) to fixed
    values; every other component is a free reaction.
    """

    prescribed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, value in self.prescribed.items():
            if key not in LOCAL_COMPONENTS:
                raise ScrewGraspError(f"unknown wrench component {key!r} in FixedSupport")
            value = float(value)
            if not np.isfinite(value):
                raise ScrewGraspError(f"prescribed component {key} must be finite")
            clean[key] = value
        object.__setattr__(self, "prescribed", clean)


@dataclass(frozen=True)
class ManipulatorContact:
    """SFCE contact of a finger/manipulator with the object.

    ``rotation`` is the contact frame in the body frame (third column =
    inward normal), ``position`` the contact point (m).  ``cone=None`` marks
    a frictionless contact (f_t = f_o = m_n pinned to zero).  ``f_n_max`` is
    always enforced; the large default keeps programs bounded when no
    physical limit is known.
    """

    rotation: np.ndarray
    position: np.ndarray
    cone: SfceParams | None
    f_n_max: float = 1e6

    def __post_init__(self):
        _set_pose(self)
        object.__setattr__(self, "f_n_max", _positive("f_n_max", self.f_n_max))


@dataclass(frozen=True)
class EnvironmentContact:
    """Contact of the object with the environment (PCWF or fixed support).

    Optional ``f_n_min``/``f_n_max`` bound the local normal-force component
    whenever it is a free variable (all PCWF contacts; FixedSupport only if
    f_n is not prescribed).
    """

    rotation: np.ndarray
    position: np.ndarray
    model: Pcwf | FixedSupport
    f_n_min: float | None = None
    f_n_max: float | None = None

    def __post_init__(self):
        _set_pose(self)
        if self.f_n_min is not None:
            f_n_min = float(self.f_n_min)
            if not (np.isfinite(f_n_min) and f_n_min >= 0.0):
                raise ScrewGraspError("f_n_min must be finite and >= 0")
            object.__setattr__(self, "f_n_min", f_n_min)
        if self.f_n_max is not None:
            object.__setattr__(self, "f_n_max", _positive("f_n_max", self.f_n_max))
        if self.f_n_min is not None and self.f_n_max is not None and self.f_n_min > self.f_n_max:
            raise ScrewGraspError("f_n_min must not exceed f_n_max")


def check_facets(facets) -> int:
    """``facets`` as a plain int; ValueError unless it is an integer >= 4."""
    try:
        facets = operator.index(facets)
    except TypeError:
        raise ValueError(f"facets must be an integer, got {facets!r}") from None
    if facets < 4:
        raise ValueError("facets must be >= 4")
    return facets


def _latitudes(facets: int) -> np.ndarray:
    """Polar-angle grid for sphere sampling; nested under facet doubling.

    facets < 8 gives the equator only; from 8 on, the grid step halves each
    time facets doubles, so the sample sets (and their hulls) are nested.
    """
    if facets < 8:
        return np.array([np.pi / 2])
    rings = 2 ** int(np.floor(np.log2(facets // 4)))
    return np.linspace(0.0, np.pi, rings + 1)


def _snap(x: float) -> float:
    """Kill trig noise so grid points that are exactly axis-aligned stay so."""
    return 0.0 if abs(x) < 1e-15 else float(x)


def _sfce_units(facets: int) -> np.ndarray:
    """Unit rays of a 3-row cone block, (f_t/(mu e_t), f_o/(mu e_o),
    m_n/(mu e_n)) at f_n = 1 for an SFCE block: a latitude/longitude grid of
    the unit sphere, one ray per pole."""
    phis = 2.0 * np.pi * np.arange(facets) / facets
    rows = []
    for theta in _latitudes(facets):
        s, c = _snap(np.sin(theta)), _snap(np.cos(theta))
        if s == 0.0:  # pole: all longitudes coincide
            rows.append((0.0, 0.0, np.sign(c)))
            continue
        rows += [(_snap(s * np.cos(phi)), _snap(s * np.sin(phi)), c) for phi in phis]
    return np.array(rows, dtype=float).T


def _pcwf_units(facets: int) -> np.ndarray:
    """Unit rays of a 2-row cone block, (f_t/(mu e_t), f_o/(mu e_o)) at
    f_n = 1 for a PCWF block: the regular facets-gon."""
    phis = 2.0 * np.pi * np.arange(facets) / facets
    return np.array([(_snap(np.cos(phi)), _snap(np.sin(phi))) for phi in phis], dtype=float).T


@functools.lru_cache(maxsize=32)
def _ray_columns(rows: int, facets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's ray columns [-U; -1'] of a block of ``rows`` (2 or 3) rows
    as CSC nonzeros from row 0: each column's count, then their row indices
    (int32) and values; read-only, and cached, so U is built once per count."""
    U = (_pcwf_units if rows == 2 else _sfce_units)(facets)
    table = np.vstack([-U, np.full(U.shape[1], -1.0)]).T
    cols, index = np.nonzero(table)
    arrays = np.bincount(cols, minlength=len(table)), index.astype(np.int32), table[cols, index]
    for a in arrays:
        a.setflags(write=False)
    return arrays
