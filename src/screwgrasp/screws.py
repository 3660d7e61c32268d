"""Rigid-body screw/wrench algebra.

Wrenches are 6-vectors split into force (N) and moment (N.m) parts.  A screw
is a spatial line (unit direction ``l`` through point ``q``) with a pitch
``h``; every nonzero wrench decomposes into a magnitude along a unique screw
(Poinsot decomposition), and every screw maps back to a unit wrench.

Conventions:
  * frames are right-handed; rotations are 3x3 matrices with ``R^T R = I``,
    ``det R = +1`` within ``ROTATION_TOL``;
  * the adjoint transport of a wrench from frame {c} to frame {b}, with
    (R, p) the pose of {c} in {b}, is ``[R f ; p x (R f) + R m]``;
  * a pure moment has infinite pitch, represented by the distinguished
    ``INFINITE_PITCH`` tag (never a float, so accidental arithmetic raises).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWrenchError, InvalidRotationError, InvalidScrewError

ROTATION_TOL = 1e-9


class InfinitePitch:
    """Tag for the pitch of a pure moment/translation screw.

    Deliberately not a float: ``h + 1`` on an infinite pitch is a TypeError,
    not a silent inf/NaN.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE_PITCH"


INFINITE_PITCH = InfinitePitch()


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3).copy()
    a.setflags(write=False)
    return a


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two 3-vectors, rounded as ``np.cross`` rounds it (each entry
    one multiply-then-subtract) without its axis handling."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def check_rotation(R: np.ndarray) -> np.ndarray:
    """Validate R in SO(3); returns R as a float array.

    Raises InvalidRotationError on a non-finite entry, or if ``R^T R`` is off
    I by more than ``ROTATION_TOL`` (largest entry) or ``det R`` off +1 by it.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise InvalidRotationError(f"rotation must be 3x3, got shape {R.shape}")
    (a, b, c), (d, e, f), (g, h, i) = rows = R.tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
        raise InvalidRotationError("rotation contains non-finite entries")
    err = max([abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0),
               abs(c * c + f * f + i * i - 1.0), abs(a * b + d * e + g * h),
               abs(a * c + d * f + g * i), abs(b * c + e * f + h * i)])
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    off = abs(det - 1.0)  # orthonormality error of order eps enters det at the same order
    if not (err <= ROTATION_TOL and (off <= ROTATION_TOL or off <= 10.0 * err + 1e-12)):
        raise InvalidRotationError(f"matrix is not a rotation: |R'R - I| = {err:.3e}, det = {det:.12f}")
    return R


@dataclass(frozen=True)
class Wrench:
    """Generalized force: ``force`` (N) and ``moment`` (N.m)."""

    force: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _vec3(self.force))
        object.__setattr__(self, "moment", _vec3(self.moment))
        if not (np.all(np.isfinite(self.force)) and np.all(np.isfinite(self.moment))):
            raise ValueError("wrench components must be finite")

    @staticmethod
    def from_array(w) -> "Wrench":
        w = np.asarray(w, dtype=float).reshape(6)
        return Wrench(force=w[:3], moment=w[3:])


@dataclass(frozen=True)
class TaskScrew:
    """A screw axis: unit direction ``l`` through point ``q`` with pitch ``h``.

    ``pitch`` is either a finite float (m/rad) or INFINITE_PITCH, in which
    case ``q`` is irrelevant and ignored by all consumers.
    """

    l: np.ndarray
    q: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pitch: float | InfinitePitch = 0.0

    def __post_init__(self):
        object.__setattr__(self, "l", _vec3(self.l))
        object.__setattr__(self, "q", _vec3(self.q))
        n = np.linalg.norm(self.l)
        if not abs(n - 1.0) <= 1e-9:  # False for a NaN entry too
            raise InvalidScrewError(f"screw direction must be unit length, |l| = {n:.12f}")
        if not np.isfinite(self.q).all():
            raise InvalidScrewError("screw point q must be finite")
        if not isinstance(self.pitch, InfinitePitch):
            p = float(self.pitch)
            if not np.isfinite(p):
                raise InvalidScrewError("finite pitch must be a finite float; use INFINITE_PITCH")
            object.__setattr__(self, "pitch", p)

    @property
    def infinite_pitch(self) -> bool:
        return isinstance(self.pitch, InfinitePitch)


@dataclass(frozen=True)
class ScrewCoordinates:
    """Screw decomposition of a wrench: axis plus nonnegative magnitude."""

    axis: TaskScrew
    magnitude: float

    def __post_init__(self):
        if not self.magnitude >= 0:
            raise InvalidScrewError("screw magnitude must be nonnegative")


def wrench_to_screw(w: Wrench) -> ScrewCoordinates:
    """Poinsot decomposition of a nonzero wrench.

    For ||f|| above the scale-aware threshold: pitch = f.m/||f||^2, axis along
    f through the point closest to the origin, magnitude ||f||.  Otherwise the
    wrench is a pure moment: infinite pitch, axis along m, magnitude ||m||.
    """
    f = w.force
    m = w.moment
    nf = np.linalg.norm(f)
    nm = np.linalg.norm(m)
    if nf == 0.0 and nm == 0.0:
        raise DegenerateWrenchError("zero wrench has no screw coordinates")
    if nf <= 1e-9 * max(1.0, nm):
        axis = TaskScrew(l=m / nm, q=np.zeros(3), pitch=INFINITE_PITCH)
        return ScrewCoordinates(axis=axis, magnitude=float(nm))
    pitch = float(f @ m) / nf**2
    q = cross3(f, m) / nf**2
    axis = TaskScrew(l=f / nf, q=q, pitch=pitch)
    return ScrewCoordinates(axis=axis, magnitude=float(nf))
