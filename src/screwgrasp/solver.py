"""Second-order cone solver and its polyhedral LP cross-check.

The reference solver is a primal-dual path-following interior-point method on
the homogeneous self-dual embedding, so primal infeasibility and
unboundedness fall out as certificate rays instead of diverging iterates.
Second-order cone blocks use Nesterov-Todd scaling; the reduced KKT system is
factored densely (LAPACK Bunch-Kaufman), once per iteration, with iterative
refinement.  Problems here are tens of variables, so dense linear algebra is
both the simplest and the fastest option, and the whole pipeline is
deterministic.

Internally a program is brought to the conic standard form

    minimize  c'x   s.t.  A x = b,   G x + s = h,   s in K,

with K a product of a nonnegative orthant (one coordinate per finite box
bound) and the second-order cones of the contact constraints.  Ruiz
equilibration conditions the data (contact problems mix N and N.m scales);
convergence is always measured against the *original* data.

``solve`` is the one-program case of ``solve_batch``, and both take one path:
the unit of work is a ``ProgramStack``, solved as it comes (``compile_stacks``
or ``ProgramStack.of`` decided which programs share it; a program alone is a
stack of one), filled into one stacked standard form with array assignments
and presolved as one stack by ``_presolve`` (equilibration and two SVD
reductions, each with a full SVD only where singular values alone do not show
full rank); the presolve exits (degenerate, inconsistent equalities) are
settled in one place, and the rest (a free ray's with c = 0, its run deciding
feasibility) run through the one HSD loop ``_ipm``: one program at a time on
its own 1-D arrays, or, from ``_MIN_BATCH`` programs of one reduced shape on,
as one stack whose cone kernels work on runs of SOC blocks of one dimension
and take s and z as one stack [s; z].  A stacked pass makes its numpy calls
per pass, not per instance: a product is one BLAS call per run (``np.vecdot``/
``np.matvec``), the blocks' scalar arithmetic one call over all runs' blocks
(a column per block), a test over the instances one ``np.count_nonzero`` or
``nonzero``; only LAPACK and the Python powers loop over instances.  So a
pass costs about 455 us + 22 us per instance on door programs and 505 + 32
us on pivot programs (CPU time, 2-core x86-64 host).  The iterate
u = [x; y; z] is one array in the KKT system's order (s apart): the residual
is one right-hand side, a direction and a step one operation.  The NT scaling (``_Scaling``,
``_BatchScaling``) computes an iteration's cone-block numbers once: W, W^-1,
each s and z block's head, tail and head^2 - ||tail||^2 (read by the step
search of both step lengths), lambda = W z with each block's head a, tail b
and det a^2 - b'b (read by the lambda-division), and lambda o lambda.  The
corrector reuses the predictor's W dz.  The termination test unscales x and
checks it against the original program only on a pass where some instance
can stop (its dual residual and gap within tolerance), or on every pass of
a traced solve, with the same results; a result reports the point and
residuals that test took.  A failure exit replays its passes for its best
iterate.
What programs of one structure share (their cone with its identity and W = I
blocks, G's bound rows, the equilibration's row groups, the KKT matrix's
cone places and the residual check's bound indices) is one read-only
``_Plan``, built once per structure (the shapes, finite-bound pattern and SOC
row counts that ``ProgramStack.of`` checks) and cached as ``problem._structure``
is, so a solve computes only its numbers.  The loop rounds each instance of a
stack as that program alone, so a result does not depend on its batch.
Program data need no check here: a ``ConicProgram`` is valid once it is built.

``solve_with_oracle`` is the independent validation path: every SOC block is
replaced by an inscribed polyhedral cone read from the block alone, and the
resulting LP goes to scipy's HiGHS solver, giving a lower bound on the true
optimum that tightens as the facet count grows.  Its CSC arrays are written
block by block, each block's ray columns copied from a cached pattern, and
go to scipy's bundled HiGHS through the binding's array ``passModel``, into
one HiGHS per thread that is cleared before each model; ``linprog`` is the
tests' reference.  Neither ``scipy.linalg`` nor ``scipy.optimize`` is imported: their
package imports cost about 0.25 and 0.6 s, and the solver needs one compiled
module of each.  ``_scipy_extension`` loads LAPACK (``dsytrf``/``dsytrs``)
with this module and the HiGHS binding on the first oracle solve, each from
its file in a few milliseconds, and registers it under its own name, so a
later import of either package reuses it.  Unless the caller set a BLAS thread
count, it loads them with ``OPENBLAS_NUM_THREADS=1``: scipy's OpenBLAS then starts
no worker thread, which LAPACK calls on KKT matrices of tens of rows never use.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np

from .contacts import _ray_columns, check_facets
from .errors import UnsupportedProgramError
from .problem import ConicProgram, ProgramStack

_STEP_FRACTION = 0.99
_MIN_STEP = 1e-13

_EXTENSION_LOCK = threading.Lock()  # one load per extension, whichever thread asks first


def _extension_file(name: str) -> Path | None:
    """The file of scipy's compiled module ``name``, found without importing
    scipy; None if scipy's layout has no such file."""
    base = Path(importlib.util.find_spec("scipy").origin).parent.joinpath(*name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base.with_name(base.name + suffix)
        if path.is_file():
            return path
    return None


def _scipy_extension(name: str):
    """scipy's compiled module ``name``, loaded from its file without
    importing the packages around it, and registered in ``sys.modules`` under
    its own name, so a later ``import scipy.linalg`` or ``scipy.optimize``
    reuses it (the same function objects).  A scipy whose layout has no such
    file imports it through the package."""
    with _EXTENSION_LOCK:
        if name in sys.modules:
            return sys.modules[name]
        # scipy's OpenBLAS reads its thread count as module_from_spec loads it
        one_thread = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()
        if one_thread:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            if (path := _extension_file(name)) is None:
                return importlib.import_module(name)
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(name, None)
            raise
        finally:
            if one_thread:
                del os.environ["OPENBLAS_NUM_THREADS"]
        return module


# the Bunch-Kaufman pair of every KKT solve: the functions scipy.linalg.lapack
# exports, without importing scipy.linalg
_flapack = _scipy_extension("scipy.linalg._flapack")
_sytrf, _sytrs = _flapack.dsytrf, _flapack.dsytrs


# Helpers that run on one program's arrays or on stacks of them (a leading
# instance axis).  A stacked product is ``np.vecdot`` or ``np.matvec``, which
# give each instance the bits of ``u @ v`` or ``M @ v`` on that instance alone,
# strided and transposed operands included (``einsum`` or ``.sum()`` round
# otherwise); one program's kernels call ``u.dot(v)``, the BLAS call of ``@`` at
# half its cost on C- or F-contiguous operands, as a program's arrays are.

def _pymax(a, b):
    """Python's max(a, b) elementwise: b where b > a, else a (NaN handling included)."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """Python's min(a, b) elementwise: b where b < a, else a."""
    return np.where(b < a, b, a)


def _read_only(*arrays: np.ndarray):
    for a in arrays:
        a.setflags(write=False)


# Per-instance powers are Python float powers: ``v ** k`` on a Python float
# calls the C library's pow, as ``np.float64(v) ** k`` does, and gives its bits
# (a test pins it), where numpy's array power rounds differently.  Python
# raises where pow overflows, and gives a complex power of a negative base, so
# the callers clip what they pass.
_SQUARE_OVERFLOWS = 2.0 ** 512  # from here on a square is inf


def _squares(t: np.ndarray) -> np.ndarray:
    """``np.float64(v) ** 2`` of each entry of t."""
    return np.array([v ** 2 for v in np.where(abs(t) >= _SQUARE_OVERFLOWS, math.inf, t).tolist()])


def _sigmas(g: np.ndarray) -> np.ndarray:
    """``_sigma`` of each entry of g: clipped to [0, 1] as Python's max and min clip it (NaN to 0), cubed."""
    g = np.where(g > 0.0, g, 0.0)
    return np.array([v ** 3 for v in np.where(g < 1.0, g, 1.0).tolist()])


@dataclass(frozen=True)
class SolveSettings:
    """Solver tolerances and limits.

    ``feasibility_tol`` bounds equality residuals (relative) and cone/box
    violations (absolute) of the returned primal; ``duality_gap_tol`` is
    relative.
    """

    feasibility_tol: float = 1e-8
    duality_gap_tol: float = 1e-6
    max_iterations: int = 200

    def __post_init__(self):
        for name in ("feasibility_tol", "duality_gap_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not isinstance(self.max_iterations, int) or isinstance(self.max_iterations, bool):
            raise ValueError("max_iterations must be an int")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class Residuals:
    """Quality of a returned primal, measured against the original program."""

    primal: float  # ||F x - g||_inf / (1 + ||g||_inf)
    cone: float  # worst absolute SOC/box violation
    gap: float  # relative duality gap (nan when not available)


@dataclass(frozen=True)
class SolveResult:
    status: str  # Optimal | Infeasible | Unbounded | IterationLimit | NumericalFailure
    objective: float | None
    primal: np.ndarray | None
    residuals: Residuals
    iterations: int
    certificate: str | None = None


# ---------------------------------------------------------------------------
# Cone algebra for K = R^q_+  x  Q^{d_1} x ... x Q^{d_N}
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _soc_matrices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J = diag(j) for j = (1, -1, ..., -1), the sign matrix j j' (J P J =
    (j j') * P) and the identity of SOC dimension d, shared by every cone."""
    j = np.concatenate([[1.0], -np.ones(d - 1)])
    mats = np.diag(j), np.outer(j, j), np.eye(d)
    _read_only(*mats)
    return mats


class _Cone:
    # Per-block dot products stay ``u1.dot(v1)`` (BLAS ddot) rather than a segment
    # sum over all blocks: the two round differently, and that difference has
    # flipped solve statuses on the fuzz corpus.  Scalar work is on Python
    # floats, which round exactly as numpy scalars do and cost less.  A cone
    # is part of a _Plan and shared by its solves: every array it holds is read-only.
    def __init__(self, q: int, soc_dims: list[int]):
        self.q = q
        self.soc_dims = list(soc_dims)
        self.dim = q + sum(soc_dims)
        self.degree = q + len(soc_dims)
        # per SOC block: head index, tail slice, block slice and J; and its sign matrix
        self.blocks: list[tuple[int, slice, slice, np.ndarray]] = []
        self.signs: list[np.ndarray] = []
        self.e = np.zeros(self.dim)  # the identity
        self.e[:q] = 1.0
        at = q
        for d in soc_dims:
            J, S, _ = _soc_matrices(d)
            self.blocks.append((at, slice(at + 1, at + d), slice(at, at + d), J))
            self.signs.append(S)
            self.e[at] = 1.0
            at += d
        # the scaling W = I as W'W blocks (orthant diagonal, SOC blocks); the
        # KKT matrix's -W'W entries, relative to its cone block; and the step
        # search's ratios where none bounds the step
        self.unit = (np.ones(q), [_soc_matrices(d)[2] for d in soc_dims])
        self.diag, self.places = np.arange(q), [(blk, blk) for _, _, blk, _ in self.blocks]
        self.infs = np.full(2 * q, math.inf)
        _read_only(self.e, self.unit[0], self.diag, self.infs)

    def min_eig(self, u: np.ndarray) -> float:
        vals = [u[: self.q].min()] if self.q else []
        for h, t, _, _ in self.blocks:
            ut = u[t]
            vals.append(u.item(h) - math.sqrt(ut.dot(ut)))
        return min(vals) if vals else math.inf

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.dim)
        out[: self.q] = u[: self.q] * v[: self.q]
        for h, t, _, _ in self.blocks:
            u0, u1 = u.item(h), u[t]
            v0, v1 = v.item(h), v[t]
            out[h] = u0 * v0 + u1.dot(v1)
            out[t] = u0 * v1 + v0 * u1
        return out


class _BatchCone(_Cone):
    """The _Cone operations on stacks of vectors (B, dim), one row per
    instance, each row rounded exactly as the _Cone method rounds it.  They
    work on runs: maximal sequences of consecutive SOC blocks of one dimension
    d, stored as (start, count k, d), each viewed as (B, k, d) by ``split``.
    Python's min folds keep their block order, column by column of a run.
    ``unit`` and ``places`` hold one W = I block and one index triple per run."""

    def __init__(self, q: int, soc_dims: list[int]):
        super().__init__(q, soc_dims)
        firsts = [i for i, d in enumerate(soc_dims) if i == 0 or d != soc_dims[i - 1]]
        self.runs = [(self.blocks[i][0], j - i, soc_dims[i]) for i, j in zip(firsts, firsts[1:] + [len(soc_dims)])]
        self.unit = (self.unit[0], [_soc_matrices(d)[2] for _, _, d in self.runs])
        idx = [at + np.arange(k * d).reshape(k, d) for at, k, d in self.runs]
        self.heads = np.array([h for h, _, _, _ in self.blocks], dtype=np.intp)  # of every block, in order
        _read_only(self.heads, *idx)  # before the views are taken, which keep the flag they see
        self.places = [(slice(None), i[:, :, None], i[:, None, :]) for i in idx]
        # per run: its entries of a vector, k, d, and its columns of a per-block array (one column per block)
        self.cuts = [(slice(at, at + k * d), k, d, slice(i, i + k)) for (at, k, d), i in zip(self.runs, firsts)]

    def split(self, v: np.ndarray) -> list[np.ndarray]:
        """Each run of v (B, dim) as a (B, k, d) view (of a fresh array: writable in place)."""
        return [v[:, cut].reshape(-1, k, d) for cut, k, d, _ in self.cuts]

    def min_eig(self, u: np.ndarray) -> np.ndarray:
        vals = [np.minimum.reduce(u[:, : self.q], axis=1)] if self.q else []
        for U in self.split(u):
            vals.extend((U[..., 0] - np.sqrt(np.vecdot(U[..., 1:], U[..., 1:]))).T)
        return reduce(_pymin, vals) if vals else np.full(len(u), math.inf)

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape)
        np.multiply(u[:, : self.q], v[:, : self.q], out=out[:, : self.q])
        for U, V, O in zip(self.split(u), self.split(v), self.split(out)):
            np.add(U[..., 0] * V[..., 0], np.vecdot(U[..., 1:], V[..., 1:]), out=O[..., 0])
            np.add(U[..., :1] * V[..., 1:], V[..., :1] * U[..., 1:], out=O[..., 1:])
        return out


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^{-1} s = lambda (W symmetric) at
    an iterate (s, z), and the one place where an iteration's per-block
    numbers are computed: for s and for z each block's head, tail view and
    head^2 - ||tail||^2, read by the step search ``max_step``; lambda's head
    a, tail b and det a^2 - b'b, read by the lambda-division ``div``; and
    lambda o lambda (``lam2``).  If s, z or lambda left the cone interior (a
    head or det <= 0 as rounded), ``bad`` is set and nothing else is built."""

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone, self.bad, q = cone, False, cone.q
        self.w_lp = np.sqrt(s[:q] / z[:q]) if q else np.zeros(0)
        self.soc_W, self.soc_Winv = [], []
        # per SOC block (head index, tail slice, head, tail, head^2 - tail'tail) of s, z and lambda
        self._s, self._z, self._lam = [], [], []
        self._sz_lp = -np.concatenate([s[:q], z[:q]])  # the step ratios' numerators
        lam, lam2 = np.empty(cone.dim), np.empty(cone.dim)
        np.multiply(self.w_lp, z[:q], out=lam[:q])
        np.multiply(lam[:q], lam[:q], out=lam2[:q])
        for (h, t, blk, J), S in zip(cone.blocks, cone.signs):
            s0, st, z0, zt = s.item(h), s[t], z.item(h), z[t]
            ss, zz = float(st.dot(st)), float(zt.dot(zt))
            ns, nz = math.sqrt(ss), math.sqrt(zz)
            rho_s = (s0 - ns) * (s0 + ns)
            rho_z = (z0 - nz) * (z0 + nz)
            if rho_s <= 0 or rho_z <= 0 or s0 <= 0 or z0 <= 0:  # rho > 0 in -int(K) too: test the heads
                self.bad = True
                return
            self._s.append((h, t, s0, st, s0 * s0 - ss))
            self._z.append((h, t, z0, zt, z0 * z0 - zz))
            sbar, zbar = s[blk] / math.sqrt(rho_s), z[blk] / math.sqrt(rho_z)
            gamma = math.sqrt((1.0 + float(sbar.dot(zbar))) / 2.0)
            # NT point wbar = (sbar + J zbar) / (2 gamma) with wbar' J wbar = 1;
            # v is its Jordan square root (wbar + e) / sqrt(2 (wbar_0 + 1))
            wbar = zbar * S[0]  # S[0] = j, the diagonal of J
            wbar += sbar
            wbar /= 2.0 * gamma
            w0 = wbar.item(0) + 1.0
            root = math.sqrt(2.0 * w0)
            wbar[0] = w0
            v = wbar / root
            beta = (rho_s / rho_z) ** 0.25  # W^2 = sqrt(rho_s/rho_z) * P(wbar)
            if not 0.0 < beta < math.inf:  # W or W^-1 would not be finite
                self.bad = True
                return
            P = 2.0 * np.multiply.outer(v, v) - J
            W = beta * P
            self.soc_W.append(W)
            self.soc_Winv.append(P * (S / beta))  # J W J / beta^2
            W.dot(z[blk], lam[blk])
            a, b = lam.item(h), lam[t]
            bb = float(b.dot(b))
            det = a * a - bb
            if a <= 0 or det <= 0:  # div would divide by 0
                self.bad = True
                return
            self._lam.append((h, t, a, b, det))
            ab = a * b
            lam2[h] = a * a + bb
            lam2[t] = ab + ab
        self.lam, self.lam2 = lam, lam2

    def _blockwise(self, v: np.ndarray, lp: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        out = np.empty(v.shape)
        np.multiply(lp, v[: self.cone.q], out=out[: self.cone.q])
        for M, (_, _, blk, _) in zip(mats, self.cone.blocks):
            M.dot(v[blk], out[blk])
        return out

    def apply_W(self, v: np.ndarray) -> np.ndarray:
        return self._blockwise(v, self.w_lp, self.soc_W)

    def apply_Winv(self, v: np.ndarray) -> np.ndarray:
        return self._blockwise(v, 1.0 / self.w_lp, self.soc_Winv)

    def div(self, v: np.ndarray) -> np.ndarray:
        """Solve lambda o x = v for x (every det and head of lambda is > 0)."""
        q = self.cone.q
        out = np.empty(self.cone.dim)
        np.divide(v[:q], self.lam[:q], out=out[:q])
        for h, t, a, b, det in self._lam:
            v1 = v[t]
            x0 = (a * v.item(h) - float(b.dot(v1))) / det
            out[h] = x0
            out[t] = (v1 - x0 * b) / a
        return out

    def max_step(self, ds: np.ndarray, dz: np.ndarray) -> float:
        """min(sup {alpha : s + alpha ds in K}, sup {alpha : z + alpha dz in K}),
        each a Python min fold over the orthant's ratios and then the blocks'
        roots, in block order."""
        q, steps = self.cone.q, []
        alphas = [math.inf, math.inf]  # the orthant's: the least ratio -u_i / du_i over du_i < 0
        if q:
            du = np.concatenate([ds[:q], dz[:q]])
            ratios = np.divide(self._sz_lp, du, out=self.cone.infs.copy(), where=du < 0)
            alphas = np.minimum.reduce(ratios.reshape(2, q), axis=1).tolist()
        for alpha, blocks, du in zip(alphas, (self._s, self._z), (ds, dz)):
            for h, t, u0, u1, c in blocks:
                d0, d1 = du.item(h), du[t]
                a = d0 * d0 - float(d1.dot(d1))
                b = 2.0 * (u0 * d0 - float(u1.dot(d1)))
                if a >= 0 and b >= 0:
                    continue
                disc = b * b - 4.0 * a * c
                if a >= 0 and disc < 0:
                    continue
                den = -b + math.sqrt(max(disc, 0.0))
                if den and (root := 2.0 * c / den) >= 0:  # den = 0: a root of +-inf or nan, no bound
                    alpha = min(alpha, root)
            steps.append(alpha)
        return min(steps[0], steps[1])


class _BatchScaling(_Scaling):
    """_Scaling of stacked iterates (B, dim) on a _BatchCone, with s and z as
    one stack [s; z] of 2B rows, in the scaling and in one step search.  ``bad``
    marks the instances whose s, z or lambda left the cone interior, as for
    one program; their rows are meaningless."""

    def __init__(self, cone: _BatchCone, s: np.ndarray, z: np.ndarray):
        self.cone, cuts, B, q = cone, cone.cuts, len(s), cone.q
        self.w_lp = np.sqrt(s[:, :q] / z[:, :q])
        sz = np.concatenate([s, z])
        self._sz_lp = -sz[:, :q]  # the step ratios' numerators
        self.lam, self.lam2 = np.empty(s.shape), np.empty(s.shape)
        np.multiply(self.w_lp, z[:, :q], out=self.lam[:, :q])
        np.multiply(self.lam[:, :q], self.lam[:, :q], out=self.lam2[:, :q])
        # per block, a column each: [s; z]'s heads, tt = tail'tail and head^2 - tt; s-bar'z-bar; lambda's a and b'b
        SZ, L, O = (cone.split(v) for v in (sz, self.lam, self.lam2))
        self._tails = [V[..., 1:] for V in SZ]
        self._head, dots = sz[:, cone.heads], np.empty((4 * B, len(cone.heads)))
        tt, sz_bar, bb = dots[: 2 * B], dots[2 * B : 3 * B], dots[3 * B :]
        for T, (*_, blk) in zip(self._tails, cuts):
            np.vecdot(T, T, out=tt[:, blk])
        norm = np.sqrt(tt)
        rho = (self._head - norm) * (self._head + norm)
        self._c, root_rho = self._head * self._head - tt, np.sqrt(rho)
        bars = [V / root_rho[:, blk, None] for V, (*_, blk) in zip(SZ, cuts)]  # s-bar and z-bar
        for bar, (*_, blk) in zip(bars, cuts):
            np.vecdot(bar[:B], bar[B:], out=sz_bar[:, blk])
        # the NT point w-bar = (s-bar + J z-bar) / (2 gamma) and its Jordan square root v, head v0 = w0 / root
        gamma2 = 2.0 * np.sqrt((1.0 + sz_bar) / 2.0)
        bar0 = self._head / root_rho
        w0 = (bar0[:B] + bar0[B:]) / gamma2 + 1.0
        root = np.sqrt(2.0 * w0)
        v0 = w0 / root
        # a Python power per block; a bad row's negative ratio is NaN, as numpy gives it
        r = rho[:B] / rho[B:]
        beta = np.array([v ** 0.25 for v in np.where(r >= 0.0, r, math.nan).ravel().tolist()]).reshape(r.shape)
        inv_beta, self.soc_W, self.soc_Winv = 1.0 / beta, [], []
        for bar, Z, Lr, Or, (_, _, d, blk) in zip(bars, SZ, L, O, cuts):
            J, S, _ = _soc_matrices(d)
            v = (bar[:B] - bar[B:]) / gamma2[:, blk, None] / root[:, blk, None]
            v[..., 0] = v0[:, blk]
            P = 2.0 * (v[..., :, None] * v[..., None, :]) - J
            self.soc_W.append(W := beta[:, blk, None, None] * P)
            self.soc_Winv.append(inv_beta[:, blk, None, None] * (S * P))  # J W J / beta^2: S * P = 2 (J v)(J v)' - J
            np.matvec(W, Z[B:], out=Lr)  # lambda = W z
            np.vecdot(Lr[..., 1:], Lr[..., 1:], out=bb[:, blk])
            ab = Lr[..., :1] * Lr[..., 1:]
            np.add(ab, ab, out=Or[..., 1:])  # lambda o lambda's tail, a b + a b
        a = self.lam[:, cone.heads]
        det = (aa := a * a) - bb
        self.lam2[:, cone.heads] = aa + bb
        self._lam = [(Lr[..., 0], Lr[..., 1:], det[:, blk]) for Lr, (*_, blk) in zip(L, cuts)]
        # bad where rho or a head <= 0 (rho > 0 in -int(K) too), beta is not in (0, inf) (nor its ratio r),
        # or a or det <= 0: where the least of those numbers, NaN aside, is <= 0
        t = np.fmin(rho, self._head)
        t = np.fmin(np.fmin(t[:B], t[B:]), np.fmin(np.where(r < math.inf, r, 0.0), np.fmin(a, det)))
        self.bad = np.fmin.reduce(t, axis=1, initial=math.inf) <= 0.0

    def _blockwise(self, v: np.ndarray, lp: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        out = np.empty(v.shape)
        np.multiply(lp, v[:, : self.cone.q], out=out[:, : self.cone.q])
        for M, V, O in zip(mats, self.cone.split(v), self.cone.split(out)):
            np.matvec(M, V, out=O)
        return out

    def div(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape)
        np.divide(v[:, : self.cone.q], self.lam[:, : self.cone.q], out=out[:, : self.cone.q])
        for (a, b, det), V, O in zip(self._lam, self.cone.split(v), self.cone.split(out)):
            np.divide(a * V[..., 0] - np.vecdot(b, V[..., 1:]), det, out=O[..., 0])  # x0, then the tail
            np.divide(V[..., 1:] - O[..., :1] * b, a[..., None], out=O[..., 1:])
        return out

    def max_step(self, ds: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """Each row's min of its s and z steps, from one stack [ds; dz] of 2B
        rows.  The orthant ratios and the blocks' roots of a row are reduced
        by one min: a masked root is >= 0 or inf, never NaN, so the min is the
        Python min fold of the one-program search."""
        du, cone = np.concatenate([ds, dz]), self.cone
        d0, dots = du[:, cone.heads], np.empty((2, *self._head.shape))  # per block: d1'd1 and u1'd1
        for U1, D, (*_, blk) in zip(self._tails, cone.split(du), cone.cuts):
            np.vecdot(D[..., 1:], D[..., 1:], out=dots[0, :, blk])
            np.vecdot(U1, D[..., 1:], out=dots[1, :, blk])
        a = d0 * d0 - dots[0]
        b = 2.0 * (self._head * d0 - dots[1])
        disc = b * b - 4.0 * a * self._c
        skip = (a >= 0) & ((b >= 0) | (low := disc < 0))
        root = 2.0 * self._c / (np.sqrt(np.where(low, 0.0, disc)) - b)  # sqrt(max(disc, 0)) + (-b)
        lp = du[:, : cone.q]
        parts = np.concatenate([np.divide(self._sz_lp, lp, out=np.full(lp.shape, math.inf), where=lp < 0),
                                np.where((root >= 0) > skip, root, math.inf)], axis=1)  # inf: skipped, or no bound
        alpha = np.minimum.reduce(parts, axis=1) if parts.shape[1] else np.full(len(du), math.inf)
        return np.where(alpha[len(ds) :] < alpha[: len(ds)], alpha[len(ds) :], alpha[: len(ds)])  # Python's min


def _refinement_bound(rhs: np.ndarray):
    """The residual a KKT solve refines down to, per instance."""
    return 1e-13 * (1.0 + _amax(rhs))


class _KKT:
    """Dense symmetric indefinite factorization of the reduced KKT matrix

        [ 0   A'   G'  ]
        [ A   0    0   ]
        [ G   0  -W'W  ]

    with iterative refinement.  Each matrix is factored once: an instance
    whose ``?sytrf`` finds an exactly zero pivot stops as a NumericalFailure.
    A solve with the factors cannot fail.
    """

    def __init__(self, A: np.ndarray, G: np.ndarray, cone: _Cone):
        # A and G of one program and its _Cone, or stacks of them (a leading
        # instance axis) and a _BatchCone
        p, n = A.shape[-2:]
        m = G.shape[-2]
        self.o, self.cone = n + p, cone
        self.K = np.zeros(A.shape[:-2] + (n + p + m, n + p + m))
        self.K[..., n : n + p, :n] = A
        self.K[..., :n, n : n + p] = np.swapaxes(A, -1, -2)
        self.K[..., n + p :, :n] = G
        self.K[..., :n, n + p :] = np.swapaxes(G, -1, -2)

    def _factor_one(self, K: np.ndarray):
        """(ldu, ipiv) of one KKT matrix; None if a pivot is exactly zero."""
        # sytrf factors a copy (K is kept for refinement); lower=1 by position: f2py parses keywords slowly
        ldu, ipiv, info = _sytrf(K, 1)
        return (ldu, ipiv) if info == 0 else None

    def factor(self, w2_lp, w2_soc, out=None):
        """Factor K with the scaling blocks W'W; return the failure mask (a
        bool for one program).  Stacked instances marked in ``out`` are skipped."""
        # the -W'W block: orthant diagonal and SOC squares (a stack's run by run); the rest stays 0
        W = self.K[..., self.o :, self.o :]
        W[..., self.cone.diag, self.cone.diag] = -w2_lp
        for M, at in zip(w2_soc, self.cone.places):
            W[at] = -M
        if self.K.ndim == 2:
            self._factors = self._factor_one(self.K)
            return self._factors is None
        self._factors = [None if stop else self._factor_one(K) for K, stop in zip(self.K, out.tolist())]
        return np.array([f is None for f in self._factors]) > out

    def solve(self, rhs: np.ndarray, out=None, bound=None):
        """x with K x = rhs, from the factors and up to two refinement steps;
        as ``factor``, for one program or a stack (rows marked in ``out`` stay 0).
        ``bound``, the refinement's target, is ``_refinement_bound(rhs)`` if not
        given.  A solve cannot fail: ``?sytrs`` reports only an illegal argument,
        and f2py derives and checks every size from the arrays before the call."""
        if bound is None:
            bound = _refinement_bound(rhs)
        if rhs.ndim == 1:
            x = _sytrs(*self._factors, rhs, 1)[0]
            for _ in range(2):
                r = rhs - self.K.dot(x)
                if np.maximum.reduce(np.abs(r)) <= bound:
                    break
                x = x + _sytrs(*self._factors, r, 1, 1)[0]  # r is overwritten
            return x
        live = [(i, f) for i, (f, stop) in enumerate(zip(self._factors, out.tolist())) if not stop]
        x = np.where(out[:, None], 0.0, rhs)
        for i, (ldu, ipiv) in live:  # f2py solves each contiguous row of x in place (a test pins it)
            _sytrs(ldu, ipiv, x[i], 1, 1)
        r = rhs - np.matvec(self.K, x)  # the first residual as a stack, the second (where needed) per instance
        fine = (np.maximum.reduce(np.abs(r), axis=1) <= bound).tolist()
        for i, (ldu, ipiv) in live:
            if not fine[i]:
                x[i] += _sytrs(ldu, ipiv, r[i], 1, 1)[0]
                if not np.maximum.reduce(np.abs(ri := rhs[i] - self.K[i].dot(x[i]))) <= bound[i]:
                    x[i] += _sytrs(ldu, ipiv, ri, 1, 1)[0]
        return x


# ---------------------------------------------------------------------------
# Standard-form conversion and equilibration
# ---------------------------------------------------------------------------

class _Plan:
    """What the solver shares between the programs of one structure, built
    once per structure by ``_plan``: p equalities over n variables, finite
    lower and upper bounds where the bool masks ``lb`` and ``ub`` (as bytes)
    are set, and SOC blocks of ``soc_rows`` rows each, which is what
    ``ProgramStack.of`` requires its programs to share.  It holds the
    orthant's rows (``lbi``, ``ubi``: the finite bounds), the cone of the
    standard form (``cone``, and ``batch``, its stacked kernels), the rows of
    G that the bounds give (``bounds``, as a stack of one), and the
    equilibration's row groups of [A; G] (``starts`` of each group, ``group``
    of each row: each equality and orthant row alone, each SOC block one
    group).  Read-only."""

    def __init__(self, p: int, n: int, lb: bytes, ub: bytes, soc_rows: tuple[int, ...]):
        self.lbi, self.ubi = (np.flatnonzero(np.frombuffer(mask, dtype=bool)) for mask in (lb, ub))
        q = self.lbi.size + self.ubi.size
        self.cone = _Cone(q, [1 + k for k in soc_rows])
        self.bounds = np.zeros((1, q, n))  # -x_j <= -lb_j, then x_j <= ub_j
        self.bounds[0, np.arange(self.lbi.size), self.lbi] = -1.0
        self.bounds[0, np.arange(self.lbi.size, q), self.ubi] = 1.0
        self.starts = np.array([*range(p + q), *(p + blk.start for _, _, blk, _ in self.cone.blocks)], dtype=np.intp)
        self.group = np.repeat(np.arange(self.starts.size), np.diff(self.starts, append=p + self.cone.dim))
        _read_only(self.lbi, self.ubi, self.bounds, self.starts, self.group)

    @cached_property
    def batch(self) -> _BatchCone:
        return _BatchCone(self.cone.q, self.cone.soc_dims)


_plan = lru_cache(maxsize=64)(_Plan)  # as problem._structure: a job needs one or two plans


def _plan_of(st: ProgramStack) -> _Plan:
    """The plan of the programs of ``st``."""
    return _plan(*st.F.shape[1:], np.isfinite(st.lb[0]).tobytes(), np.isfinite(st.ub[0]).tobytes(),
                 tuple(A.shape[1] for A, _, _, _ in st.socs))


@dataclass
class _StdForm:
    # one program, or programs of one structure stacked along a leading axis
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    plan: _Plan
    col_scale: np.ndarray = field(default_factory=lambda: np.ones(0))
    basis: np.ndarray | None = None  # original (scaled) vars = basis @ reduced vars


def _standardize(st: ProgramStack) -> _StdForm:
    """A stack of programs of one shape and finite-bound pattern in conic
    standard form: G is the plan's bound rows and then one block [-c'; -A] per
    SOC, h the finite bounds (-lb, ub) and then [d; b] per SOC (a single
    program's F and g stay ``[None]`` views).  The programs were checked:
    every entry is finite, lb <= ub."""
    plan = _plan_of(st)
    q = plan.cone.q
    G = np.concatenate([plan.bounds.repeat(len(st), axis=0),
                        *(v for A, _, c, _ in st.socs for v in (c[:, None], A))], axis=1)
    np.negative(G[:, q:], out=G[:, q:])
    h = np.concatenate([-st.lb[:, plan.lbi], st.ub[:, plan.ubi],
                        *(v for _, b, _, d in st.socs for v in (d[:, None], b))], axis=1)
    return _StdForm(c=-st.f, A=st.F, b=st.g, G=G, h=h, plan=plan)


def _take(sf: _StdForm, idx) -> _StdForm:
    """Instances of a stacked form: an integer gives that program's own form
    as views, an index array a smaller stack.  Every array keeps its
    per-instance memory layout (the basis is a transposed view), so BLAS is
    called alike."""
    basis = None if sf.basis is None else np.swapaxes(np.swapaxes(sf.basis, -1, -2)[idx], -1, -2)
    return _StdForm(sf.c[idx], sf.A[idx], sf.b[idx], sf.G[idx], sf.h[idx], sf.plan,
                    sf.col_scale[idx], basis)


_EQUILIBRATION_ROUNDS = 8


def _equilibrate(sf: _StdForm) -> _StdForm:
    """Ruiz-style equilibration; SOC row blocks share one scale so cones are
    preserved.  Returns a new _StdForm carrying the column scales needed to
    map the solution back.  Elementwise operations and exact max reductions
    only, so a stacked form is scaled instance by instance as each alone.

    A is scaled over G as one matrix [A; G] (and b over h as [b; h]): each
    round takes one column max over all rows and one row max per row group
    of the plan.  The rounds scale |[A; G]|, whose products are exactly the
    magnitudes of the signed ones (the scales are positive), and the signs
    come back once at the end.  A, b, G and h come back as views of the result."""
    p, n = sf.A.shape[-2:]
    plan = sf.plan
    M = np.concatenate([sf.A, sf.G], axis=-2)
    rhs = np.concatenate([sf.b, sf.h], axis=-1)
    dc = np.ones(sf.c.shape)
    if n and plan.starts.size:
        stack = M.ndim == 3 and len(M) > 1  # views, a stack's instances last for numpy's loops, one program's dropped
        S, dcl, rhsl = (np.moveaxis(v, 0, -1) if stack else v.reshape(v.shape[M.ndim - 2 :]) for v in (M, dc, rhs))
        S = np.abs(S, order="C")
        for _ in range(_EQUILIBRATION_ROUNDS):
            col = np.maximum.reduce(S, axis=0)
            if np.count_nonzero(col) < col.size:
                col[col == 0] = 1.0
            sc = 1.0 / np.sqrt(col)
            S *= sc
            dcl *= sc
            rows = np.maximum.reduceat(np.maximum.reduce(S, axis=1), plan.starts, axis=0)
            if np.count_nonzero(rows) < rows.size:
                rows[rows == 0] = 1.0  # an all-zero row or block keeps scale 1
            s = (1.0 / np.sqrt(rows)).take(plan.group, axis=0)
            S *= s[:, None]
            rhsl *= s
        np.copysign(np.moveaxis(S, -1, 0) if stack else S.reshape(M.shape), M, out=M)
    return _StdForm(c=sf.c * dc, A=M[..., :p, :], b=rhs[..., :p], G=M[..., p:, :], h=rhs[..., p:],
                    plan=plan, col_scale=dc)


def _svd_rank(M: np.ndarray, full: int):
    """Both reductions' rank test, of one program's M or a stack: (U, Vt, r,
    same), r the first instance's rank, by which a stack is reduced, and ``same``
    the instances of rank r, reduced as their own.  A rank counts the singular
    values above max(M's shape) * eps times the largest, as ``matrix_rank`` does;
    M's full SVD runs only for U and Vt, where some instance is below full rank."""
    sv = np.linalg.svd(M, compute_uv=False)
    rank = (sv > max(M.shape[-2:]) * np.finfo(float).eps * sv[..., :1]).sum(axis=-1)
    if (rank == full).all():
        return None, None, full, np.ones(M.shape[:-2], dtype=bool)
    U, _, Vt = np.linalg.svd(M, full_matrices=True)
    r = int(np.ravel(rank)[0])
    return U, Vt, r, rank == r


def _reduce_equalities(sf: _StdForm):
    """Drop linearly dependent equality rows; flag inconsistency."""
    p = sf.A.shape[-2]
    U, _, r, same = _svd_rank(sf.A, p)
    if r == p:
        return sf, np.zeros(same.shape, dtype=bool), same
    UrT = np.swapaxes(U[..., :r], -1, -2)
    b = np.matvec(UrT, sf.b)
    resid = sf.b - np.matvec(U[..., :r], b)
    inconsistent = np.abs(resid).max(axis=-1, initial=0.0) > 1e-9 * (1.0 + np.abs(sf.b).max(axis=-1, initial=0.0))
    return replace(sf, A=UrT @ sf.A, b=b), inconsistent, same


def _reduce_null_columns(sf: _StdForm):
    """Handle directions no constraint sees (typical source: free reaction
    components of a fixed support aligned with the task).

    If the objective improves along such a direction the program is
    unbounded provided it is feasible (the caller checks); otherwise the
    direction is irrelevant and gets pinned so the KKT system stays
    nonsingular.
    """
    n = sf.c.shape[-1]
    _, Vt, r, same = _svd_rank(np.concatenate([sf.A, sf.G], axis=-2), n)
    if r == n:
        return sf, np.zeros(same.shape, dtype=bool), same
    # unbounded where the objective has a free ray
    free = np.abs(np.matvec(Vt[..., r:, :], sf.c)).max(axis=-1, initial=0.0) > 1e-10 * (1.0 + np.abs(sf.c).max(axis=-1, initial=0.0))
    basis = np.swapaxes(Vt[..., :r, :], -1, -2)
    return replace(sf, c=np.matvec(Vt[..., :r, :], sf.c), A=sf.A @ basis, G=sf.G @ basis, basis=basis), free, same


# ---------------------------------------------------------------------------
# The interior-point loop
# ---------------------------------------------------------------------------

class _ResidualCheck:
    """x -> (relative equality residual, worst absolute cone/box violation)
    of x against the original programs ``k`` of a stack, read from its arrays
    (views) with norms taken once.  For a slice k, x of shape (B, n) gives two
    arrays of shape (B,), each entry as the program alone gives it; for an
    int k, x of shape (n,) gives two floats.  ``plan`` is the stack's, if the
    caller has it."""

    def __init__(self, st: ProgramStack, k=slice(None), plan: _Plan | None = None):
        plan = plan or _plan_of(st)
        self.lbi, self.ubi = plan.lbi, plan.ubi
        self.F, self.g, self.socs = st.F[k], st.g[k], [tuple(v[k] for v in blk) for blk in st.socs]
        self.g_scale = 1.0 + np.abs(self.g).max(axis=-1, initial=0.0)
        self.lb, self.ub = st.lb[k][..., self.lbi], st.ub[k][..., self.ubi]

    def __call__(self, x: np.ndarray):
        one = x.ndim == 1
        vmax, sqrt, mv, dot = (max, math.sqrt, np.ndarray.dot, np.ndarray.dot) if one else (_pymax, np.sqrt, np.matvec, np.vecdot)
        eq = _amax(mv(self.F, x) - self.g) / self.g_scale
        viol = 0.0 if one else np.zeros(eq.shape)
        if self.lbi.size:
            viol = vmax(viol, np.maximum.reduce(self.lb - x.take(self.lbi, axis=-1), axis=-1, initial=0.0))
        if self.ubi.size:
            viol = vmax(viol, np.maximum.reduce(x.take(self.ubi, axis=-1) - self.ub, axis=-1, initial=0.0))
        for A, b, c, d in self.socs:
            r = mv(A, x) + b
            viol = vmax(viol, sqrt(dot(r, r)) - (dot(c, x) + d))
        viol = vmax(0.0, viol)
        return (float(eq), float(viol)) if one else (eq, viol)


def _unscale(col_scale: np.ndarray, basis: np.ndarray | None, x: np.ndarray, tau) -> np.ndarray:
    """Original variables of the reduced, scaled iterate x with embedding tau."""
    full = x if basis is None else np.matvec(basis, x)
    return col_scale * full / tau


def solve(prog: ConicProgram, settings: SolveSettings | None = None, trace=None, backend=None) -> SolveResult:
    """Solve a conic program to optimality or an infeasibility/unboundedness
    certificate: ``solve_batch`` of ``ProgramStack.of([prog])``.

    ``trace``, if given, is called once per iteration with a dict of the
    iteration number (an int), residuals, gap and embedding variables (plain
    floats); a traced solve checks every iteration against the original
    program, not only those that can stop, and gives the same result.  ``backend`` swaps in an external conic solver with the same
    ``(prog, settings, trace) -> SolveResult`` contract; the default is the
    in-house interior-point method, which the whole acceptance suite runs on.
    """
    if backend is not None:
        return backend(prog, settings, trace)
    return _solve_group(ProgramStack.of([prog]), settings or SolveSettings(), trace)[0]


def solve_batch(stacks, settings: SolveSettings | None = None) -> list[SolveResult]:
    """Solve the rows of ``ProgramStack``s (from ``compile_stacks``, or
    ``ProgramStack.of`` for other programs of one structure), one result per
    row, in order; each equals ``solve(stack.program(k), settings)`` byte for
    byte (status, iterations, objective, certificate, residuals and primal).
    Anything but a stack is a TypeError before any solve.

    Each stack is presolved as one, and its members of one reduced shape run
    through one interior-point loop over stacked arrays from ``_MIN_BATCH``
    members on, so numpy's call overhead is paid once per iteration for the
    stack rather than once per program.  Each instance keeps its own
    termination, certificates, best iterate and failure exits, and its row
    of the stack to the end of the run, masked once it finishes.
    """
    stacks = [st for st in stacks if len(st)]  # len: a TypeError for a non-stack, before any solve
    settings = settings or SolveSettings()
    return [res for st in stacks for res in _solve_group(st, settings, None)]


# The smallest group worth a stacked run, measured on door, pivot and slide
# programs (2-core machine, numpy 2.4 with OpenBLAS), presolve included: a stack
# of one takes 1.7-1.8 times as long as the program on its own 1-D arrays, of
# two 0.94-1.06 times as long as two single solves, three 0.70-0.77, four 0.60.
_MIN_BATCH = 3


def _presolve(st: ProgramStack) -> tuple[_StdForm, tuple]:
    """``st`` in standard form, equilibrated and reduced, with the masks of the
    reductions that ran: none (no rows), (inconsistent, same[, free, same_null])."""
    sf = _standardize(st)
    if sf.A.shape[-2] == 0 and sf.G.shape[-2] == 0:
        return sf, ()
    sf, inconsistent, same = _reduce_equalities(_equilibrate(sf))
    if not (same & ~inconsistent).any():  # no member needs the second reduction
        return sf, (inconsistent, same)
    sf, free, same_null = _reduce_null_columns(sf)
    return sf, (inconsistent, same, free, same_null)


def _solve_group(st: ProgramStack, settings: SolveSettings, trace) -> list[SolveResult]:
    """The results of a stack of one structure, by row.  The stack is presolved
    as one by ``_presolve``, and the members whose reduced shapes match the
    first one's settled: a presolve exit (degenerate, inconsistent), or
    ``_ipm``, as one stack from ``_MIN_BATCH`` members on and one by one below
    (a free ray's with c = 0: Unbounded if feasible); the others are solved as
    a stack of their own, by a call of this function."""
    results: list = [None] * len(st)
    sf, masks = _presolve(st)
    if not masks:  # degenerate: nothing but the objective
        for k, c in enumerate(sf.c):
            if np.any(c):
                results[k] = SolveResult("Unbounded", None, None, Residuals(0.0, 0.0, math.nan), 0,
                                         "objective is a free ray (no constraints)")
            else:
                results[k] = SolveResult("Optimal", 0.0, np.zeros(c.size), Residuals(0.0, 0.0, 0.0), 0)
        return results
    inconsistent, same, *null = masks
    infeasible = same & inconsistent
    for k in np.flatnonzero(infeasible):
        results[k] = SolveResult(
            "Infeasible", None, None, Residuals(math.inf, 0.0, math.nan), 0,
            "equality system F x = g is rank-deficient and inconsistent")
    live = same & ~inconsistent
    free = np.zeros_like(live)
    if null:  # the second reduction ran on a live member; its masks are (free, same_null)
        live &= null[1]
        free = null[0] & live
        sf.c[free] = 0.0  # a free ray proves unboundedness only if the program is feasible: its run decides
    run = np.flatnonzero(live)
    if len(run) >= _MIN_BATCH:
        for k, res in zip(run, _ipm(st if run.size == len(st) else st.take(run), _take(sf, run), settings)):
            results[k] = res
    else:
        for k in run:
            results[k] = _ipm(st if len(st) == 1 else st.take([k]), _take(sf, int(k)), settings, trace)[0]
    for k in np.flatnonzero(free):
        feas = results[k]
        results[k] = replace(feas, objective=None) if feas.status != "Optimal" else SolveResult(
            "Unbounded", None, None, Residuals(math.nan, math.nan, math.nan), feas.iterations,
            "feasible, and the objective improves along a direction no "
            "constraint sees (uncapped free reaction aligned with the task?)")
    if (rest := np.flatnonzero(~(infeasible | live))).size:
        for k, res in zip(rest, _solve_group(st.take(rest), settings, trace)):
            results[k] = res
    return results


class _Stop(Exception):
    """Every instance of an ``_ipm`` run has its result."""


def _sigma(g):
    """Mehrotra's centering sigma from the affine gap ratio g."""
    return min(1.0, max(0.0, g)) ** 3


def _amax(v: np.ndarray):
    return np.maximum.reduce(np.abs(v), axis=-1, initial=0.0)


def _ipm(st: ProgramStack, sf: _StdForm, settings: SolveSettings, trace=None) -> list[SolveResult]:
    """The HSD primal-dual interior-point loop over presolved programs of one
    structure (the rows of ``st``, presolved in ``sf``): one program's own
    form (1-D arrays, as ``_take(sf, k)`` gives it) or a stack of them (a
    leading instance axis), every instance rounded exactly as that program
    alone.

    One program's per-instance numbers (tau, kappa, step lengths, norms) are
    Python or numpy scalars; a stack's are arrays.  The few operations that
    differ are bound once per run: a dot or matvec is ``ndarray.dot`` or
    ``np.vecdot``/``np.matvec`` (the same bits per instance), the cone kernels
    are ``_BatchCone``/``_BatchScaling``, Python's min/max/if become np.where
    and a test over the running instances ``np.count_nonzero``, the powers
    (tau**2, sigma**3, beta) are Python float powers per instance, and LAPACK
    runs per instance.  The cone, its W = I blocks and its identity come from
    the plan.  An instance that stops is recorded at once; in a stack its row
    stays, marked in ``out``, skipped by LAPACK and masked from every test,
    until every instance has stopped.  ``trace`` (one program only) is called
    once per iteration with plain ints and floats.  A pass is checked against
    the original programs only where an instance can stop (dual residual and
    gap within tolerance) or a trace is set; a failure exit replays the
    recorded passes (x, tau, dual residual, gap) for its best iterate.
    """
    one = sf.c.ndim == 1
    if one:  # Python's operators and builtins on the program's numbers
        cone, scaling, dot = sf.plan.cone, _Scaling, np.ndarray.dot
        mv, vmin, vmax, any_, col, where = dot, min, max, bool, (lambda v: v), (lambda m, a, b: a if m else b)
        sq, sigma_of = (lambda t: t ** 2), _sigma
        hits, row = (lambda m: (0,) if m else ()), (lambda v, i: v)  # the one instance, if m marks it
    else:  # arrays of per-instance numbers, broadcast against vectors as columns
        cone, scaling, sq, sigma_of, row = sf.plan.batch, _BatchScaling, _squares, _sigmas, (lambda v, i: v[i])
        dot, mv, vmin, vmax, col, where = np.vecdot, np.matvec, _pymin, _pymax, (lambda v: v[:, None]), np.where
        any_, hits = (lambda m: np.count_nonzero(m > out)), (lambda m: (m > out).nonzero()[0].tolist())  # the running rows m marks
    n, p, m = sf.c.shape[-1], sf.A.shape[-2], sf.G.shape[-2]
    B = 1 if one else len(sf.c)
    nu, e = cone.degree, cone.e
    ftol, gtol = settings.feasibility_tol, settings.duality_gap_tol
    results: list = [None] * B
    measure = None  # the original programs' residual check, built on first use
    kkt = _KKT(sf.A, sf.G, cone)
    out = None if one else np.zeros(B, dtype=bool)  # the stopped instances: rows kept, masked from every test
    history = []  # each pass's x (a copy), tau, dual residual and gap, every row, at its pass number

    def done(i, status, iters, cert=None, point=None):
        """Record instance i's result.  ``point`` is its own (x, eq, cone, gap)
        as a termination test takes them (x in original variables, an array
        of its own, checked against the original program)."""
        xo, obj, resid = None, None, Residuals(math.nan, math.nan, math.nan)
        if point is not None:
            xo, eq, viol, gap = point
            resid = Residuals(float(eq), float(viol), float(gap))
            obj = float(st.f[i] @ xo) if status in ("Optimal", "IterationLimit") else None
        results[i] = SolveResult(status, obj, xo, resid, iters, cert)
        if not one:
            out[i] = True
        if one or np.count_nonzero(out) == len(out):
            raise _Stop

    def give_up(mask, why, status="NumericalFailure"):
        """Stop the marked running instances as ``status`` with certificate
        ``why`` (None: iteration limit) and each one's best iterate: the first
        pass of least merit max(eq, cone, dual, gap) in the history, unscaled
        and checked as a pass that can stop is (none if no merit is finite)."""
        if not (mask if one else any_(mask)):  # the common case, without a call of hits
            return
        for i in hits(mask):
            check, basis = _ResidualCheck(st, i, sf.plan), None if sf.basis is None else row(sf.basis, i)
            merit, point, iters = math.inf, None, 0
            for it_h, (xh, th, dres_h, gap_h) in enumerate(history):
                xo = _unscale(row(sf.col_scale, i), basis, row(xh, i), row(th, i))
                eq, viol = check(xo)
                if (m := max(max(max(eq, viol), row(dres_h, i)), row(gap_h, i))) < merit:
                    merit, point, iters = m, (xo, eq, viol, row(gap_h, i)), it_h
            done(i, status, iters if why else settings.max_iterations, why, point)

    def split(u):
        return u[..., :n], u[..., n : n + p], u[..., n + p :]

    def lift(v):
        """v, moved into the cone interior if it is not there."""
        a = cone.min_eig(v)
        return where(col(a <= 0), v + col(1.0 - a) * e, v)

    def direction(w, w4, d_s, d_kt):
        """(d = [dx; dy; dz], dz, dtau, ds, dkappa, W dz) for w = [-rx; ry; rz], overwritten."""
        lam_ds = scal.div(d_s)
        w[..., n + p :] -= scal.apply_W(lam_ds)
        x2, y2, z2 = split(d := kkt.solve(w, out))
        dtau = (w4 + d_kt / tau + (dot(c, x2) + dot(b, y2) + dot(h, z2))) / denom0
        d += col(dtau) * d1
        wdz = scal.apply_W(d[..., n + p :])
        ds = scal.apply_W(lam_ds - wdz)
        dkappa = (d_kt - kappa * dtau) / tau
        return d, d[..., n + p :], dtau, ds, dkappa, wdz

    def max_alpha(ds, dz, dtau, dkappa):
        alpha = scal.max_step(ds, dz)
        if any_(neg := dtau < 0):
            alpha = where(neg, vmin(alpha, -tau / dtau), alpha)
        if any_(neg := dkappa < 0):
            alpha = where(neg, vmin(alpha, -kappa / dkappa), alpha)
        return alpha

    c, A, b, G, h = sf.c, sf.A, sf.b, sf.G, sf.h
    try:
        # -- initialization (W = I) -----------------------------------------
        # finite but huge data may overflow here: an instance whose point is not finite stops at once
        with np.errstate(all="ignore"):
            give_up(kkt.factor(*cone.unit, out), "KKT factorization failed")
            x, _, w = split(kkt.solve(np.concatenate([np.zeros(c.shape), b, h], axis=-1), out))
            s = lift(-w)
            _, y, z = split(u := kkt.solve(np.concatenate([-c, np.zeros(c.shape[:-1] + (p + m,))], axis=-1), out))
            u[..., :n], z[...] = x, lift(z)  # the iterate u = [x; y; z], one array in KKT order
            give_up(~(np.isfinite(s).all(axis=-1) & np.isfinite(z).all(axis=-1)), "initial point is not finite")
        # a stack's stopped rows may hold inf/nan; the errstate would slow one program's numpy calls
        with contextlib.nullcontext() if one else np.errstate(all="ignore"):
            tau, kappa = (1.0, 1.0) if one else (np.ones(B), np.ones(B))
            c_norm, b_norm, h_norm = 1.0 + _amax(c), 1.0 + _amax(b), 1.0 + _amax(h)
            rhs_tau = np.concatenate([-c, b, h], axis=-1)
            tau_bound = _refinement_bound(rhs_tau)
            At, Gt = np.swapaxes(A, -1, -2), np.swapaxes(G, -1, -2)

            for it in range(settings.max_iterations):
                x, y, z = split(u)
                cx, by, hz, sz = dot(c, x), dot(b, y), dot(h, z), dot(s, z)
                tc = col(tau)
                # the residual as the KKT right-hand side [-rx; ry; rz]
                r = np.concatenate([mv(At, y) + mv(Gt, z) + c * tc, b * tc - mv(A, x), h * tc - mv(G, x) - s], axis=-1)
                neg_rx = np.negative(r[..., :n], out=r[..., :n])
                rt, tk = kappa + cx + by + hz, tau * kappa
                mu = (gap := sz + tk) / (nu + 1)

                # -- termination, measured on the original program where an instance may stop
                dres = _amax(neg_rx) / (tau * c_norm)
                pobj = cx / tau
                dobj = -(bhz := by + hz) / tau
                relgap = sz / sq(tau) / vmax(1.0, 0.5 * (abs(pobj) + abs(dobj)))
                history.append((x.copy(), tau, dres, relgap))
                can = (dres <= ftol) & (relgap <= gtol)
                if trace or any_(can):  # a traced run checks every pass
                    measure = measure or _ResidualCheck(st, 0 if one else slice(None), sf.plan)
                    eq_res, cone_viol = measure(xo := _unscale(sf.col_scale, sf.basis, x, tc))
                    if trace:
                        trace({"iteration": it, "mu": float(mu), "eq": eq_res, "cone": cone_viol,
                               "dual": float(dres), "relgap": float(relgap), "tau": float(tau), "kappa": float(kappa)})
                    for i in hits(can & (eq_res <= ftol) & (cone_viol <= ftol)):
                        done(i, "Optimal", it, point=(xo if one else xo[i].copy(), row(eq_res, i),
                                                      row(cone_viol, i), row(relgap, i)))

                # certificates
                if any_(neg := bhz < 0):
                    farkas = _amax(mv(At, y / col(-bhz)) + mv(Gt, z / col(-bhz)))
                    for i in hits(neg & (farkas <= ftol * c_norm)):
                        done(i, "Infeasible", it,
                             f"Farkas ray with b'y + h'z = -1: ||A'y + G'z||_inf = {row(farkas, i):.3e}")
                if any_(neg := cx < 0):
                    ray_eq = _amax(mv(A, xc := x / col(-cx)))
                    ray = neg & (ray_eq <= ftol * b_norm)
                    if any_(ray):  # the second norm only where the first passes
                        ray_cone = _amax(mv(G, xc) + s / col(-cx))
                        for i in hits(ray & (ray_cone <= ftol * h_norm)):
                            done(i, "Unbounded", it,
                                 f"improving ray with c'x = -1: ||A x||_inf = {row(ray_eq, i):.3e}, "
                                 f"||G x + s||_inf = {row(ray_cone, i):.3e}, s in K")

                # -- NT scaling and KKT factorization -----------------------
                scal = scaling(cone, s, z)
                give_up(scal.bad, "iterate left the cone interior")
                give_up(kkt.factor(scal.w_lp**2, [W @ W for W in scal.soc_W], out), "KKT factorization failed")
                x1, y1, z1 = split(d1 := kkt.solve(rhs_tau, out, tau_bound))
                denom0 = kappa / tau - (dot(c, x1) + dot(b, y1) + dot(h, z1))
                give_up(abs(denom0) < 1e-300, "degenerate tau step")

                # -- predictor (affine) --------------------------------------
                lam2 = scal.lam2
                _, dza, dta, dsa, dka, wdza = direction(r.copy(), rt, -lam2, -tk)
                alpha_aff = vmin(1.0, max_alpha(dsa, dza, dta, dka))
                ac = col(alpha_aff)
                gap_aff = (dot(s + ac * dsa, z + ac * dza)
                           + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka))
                sigma = sigma_of(gap_aff / gap)

                # -- corrector ----------------------------------------------
                corr = cone.prod(scal.apply_Winv(dsa), wdza)
                d_s = col(smu := sigma * mu) * e - lam2 - corr
                d_kt = smu - tk - dta * dka
                om = 1.0 - sigma
                d, dz, dtau, ds, dkappa, _ = direction(col(om) * r, om * rt, d_s, d_kt)
                alpha = vmin(1.0, _STEP_FRACTION * max_alpha(ds, dz, dtau, dkappa))
                give_up(alpha < _MIN_STEP, "step length collapsed")  # alpha is never nan or +inf

                ac = col(alpha)
                u, s = u + ac * d, s + ac * ds
                tau, kappa = tau + alpha * dtau, kappa + alpha * dkappa
                # tau is a numpy number or array here; not 0 < tau < inf also catches nan
                give_up(~((0 < tau) & (tau < math.inf)) | (kappa < 0), "embedding variables left the cone")

            give_up(True, None, "IterationLimit")
    except _Stop:
        pass
    return results


# ---------------------------------------------------------------------------
# Polyhedral LP oracle
# ---------------------------------------------------------------------------

_THREAD_HIGHS = threading.local()  # each thread's HiGHS, made with linprog's options on its first oracle solve


def _oracle_model(prog: ConicProgram, facets: int) -> tuple:
    """The LP of ``solve_with_oracle``, minimize c'x s.t. A_eq x = b_eq,
    lower <= x <= upper, as the arguments of HiGHS's array ``passModel``,
    with x the program's variables and then each block's ray weights lambda
    >= 0.  A block ||A x + b|| <= c'x + d whose A has k rows becomes A x - U
    lambda = -b and c'x - 1'lambda = -d, with U the unit table of dimension k
    (``_pcwf_units`` for k = 2, ``_sfce_units`` for k = 3); any other k
    raises UnsupportedProgramError.  A_eq is written as CSC, never dense: the
    program's columns are the nonzeros of [F; A_1; c_1'; ...], each block's
    ray columns the cached nonzeros of [-U; -1'] moved to its first row."""
    rays = []
    for blk in prog.socs:
        k = blk.A.shape[0]
        if k not in (2, 3):
            raise UnsupportedProgramError(
                f"SOC block {blk.label!r} has {k} rows; the LP oracle inscribes blocks of 2 or 3 rows only")
        rays.append(_ray_columns(k, facets))
    own = np.vstack([prog.F, *(rows for blk in prog.socs for rows in (blk.A, blk.c))]).T
    cols, rows = np.nonzero(own)
    (n, m), first = own.shape, prog.F.shape[0]
    parts = [(np.bincount(cols, minlength=n), rows, own[cols, rows])]
    for blk, (count, index, value) in zip(prog.socs, rays):
        parts.append((count, index + first, value))
        first += blk.A.shape[0] + 1
    counts, indices, values = (np.concatenate(arrays) for arrays in zip(*parts))
    start, pad = np.zeros(len(counts) + 1, np.int32), len(counts) - n
    np.cumsum(counts, out=start[1:])
    b_eq = np.hstack([prog.g, *(rhs for blk in prog.socs for rhs in (-blk.b, -blk.d))])
    # column-wise (MatrixFormat.kColwise = 1), minimize (ObjSense.kMinimize = 1), offset 0; kHighsInf is IEEE inf
    return (len(counts), m, start[-1], 1, 1, 0.0, np.concatenate([-prog.f, np.zeros(pad)]),
            np.concatenate([prog.lb, np.zeros(pad)]), np.concatenate([prog.ub, np.full(pad, np.inf)]), b_eq, b_eq,
            start, indices.astype(np.int32), values,
            np.zeros(len(counts), np.int32))  # all continuous (kContinuous = 0): an empty integrality is a model error


# the HighsModelStatus names the oracle reports as such; any other, a refused model included, is a NumericalFailure
_ORACLE_STATUS = {"kInfeasible": "Infeasible", "kUnbounded": "Unbounded"}


def solve_with_oracle(prog: ConicProgram, facets: int) -> SolveResult:
    """Lower-bound the optimum by replacing each SOC block with an inscribed
    polyhedral cone and solving the LP with HiGHS.

    The LP (``_oracle_model``) is built from each block's own rows and the
    unit ray table of its dimension, with bounds +-inf where absent; of the
    interior-point path it shares only ``_ResidualCheck``, which checks an
    optimal answer.  Its CSC arrays go to scipy's bundled HiGHS through the
    binding's array ``passModel``.  Each thread keeps one HiGHS, made with
    ``linprog``'s options on its first call and cleared before each model,
    so no model, basis or solution crosses calls or threads.  HiGHS's
    kInfeasible and kUnbounded are reported as Infeasible and Unbounded,
    with HiGHS's own status text as the certificate; any other non-optimal
    status, a model HiGHS refuses to load included, is a NumericalFailure.
    The HiGHS binding is loaded on the first call, not with this module, and
    without ``scipy.optimize``.
    """
    model, n = _oracle_model(prog, check_facets(facets)), prog.n_vars

    hs = _scipy_extension("scipy.optimize._highspy._core")
    if (highs := getattr(_THREAD_HIGHS, "highs", None)) is None:
        highs = _THREAD_HIGHS.highs = hs._Highs()
        for name, value in (("output_flag", False), ("log_to_console", False), ("presolve", "on"),
                            ("highs_debug_level", hs.kHighsDebugLevelNone),
                            ("simplex_strategy", hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)):
            highs.setOptionValue(name, value)  # linprog's options, output off first
    highs.clearModel()
    # as linprog reads HiGHS: a model it refuses is kModelError, a failed run has no counts
    loaded = highs.passModel(*model) != hs.HighsStatus.kError
    ran = loaded and highs.run() != hs.HighsStatus.kError
    status, info = highs.getModelStatus() if loaded else hs.HighsModelStatus.kModelError, highs.getInfoValue
    nit = (info("simplex_iteration_count")[1] or info("ipm_iteration_count")[1]) if ran else 0  # no HighsInfo copy
    if ran and status == hs.HighsModelStatus.kOptimal:
        x = np.array(highs.getSolution().col_value[:n])
        eq, viol = _ResidualCheck(ProgramStack.of([prog]), 0)(x)
        return SolveResult("Optimal", float(prog.f @ x), x, Residuals(eq, viol, math.nan), nit)
    text = f"model_status is {highs.modelStatusToString(status)}"
    if ran:
        text += f"; primal_status is {highs.solutionStatusToString(info('primal_solution_status')[1])}"
    return SolveResult(_ORACLE_STATUS.get(status.name, "NumericalFailure"), None, None,
                       Residuals(math.nan, math.nan, math.nan), nit, text)
