"""Second-order cone solver and its polyhedral LP cross-check.

The reference solver is a primal-dual path-following interior-point method on
the homogeneous self-dual embedding, so primal infeasibility and
unboundedness fall out as certificate rays instead of diverging iterates.
Second-order cone blocks use Nesterov-Todd scaling; the reduced KKT system is
factored densely (LAPACK Bunch-Kaufman) with static regularization on retry
and iterative refinement.  Problems here are tens of variables, so dense
linear algebra is both the simplest and the fastest option, and the whole
pipeline is deterministic.

Internally a program is brought to the conic standard form

    minimize  c'x   s.t.  A x = b,   G x + s = h,   s in K,

with K a product of a nonnegative orthant (one coordinate per finite box
bound) and the second-order cones of the contact constraints.  Ruiz
equilibration conditions the data (contact problems mix N and N.m scales);
convergence is always measured against the *original* data.

``solve_with_oracle`` is the independent validation path: every contact cone
is replaced by its inscribed polyhedral approximation and the resulting LP is
handed to scipy's HiGHS solver, giving a lower bound on the true optimum that
tightens as the facet count grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linprog

from .contacts import discretize_pcwf, discretize_sfce
from .errors import SolverDataError, UnsupportedProgramError
from .problem import ConicProgram

_STEP_FRACTION = 0.99
_MIN_STEP = 1e-13


@dataclass(frozen=True)
class SolveSettings:
    """Solver tolerances and limits.

    ``feasibility_tol`` bounds equality residuals (relative) and cone/box
    violations (absolute) of the returned primal; ``duality_gap_tol`` is
    relative.  Objectives beyond ``unboundedness_threshold`` are classified
    as Unbounded even without a clean certificate.
    """

    feasibility_tol: float = 1e-8
    duality_gap_tol: float = 1e-6
    max_iterations: int = 200
    unboundedness_threshold: float = 1e10

    def __post_init__(self):
        for name in ("feasibility_tol", "duality_gap_tol", "unboundedness_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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

    @property
    def optimal(self) -> bool:
        return self.status == "Optimal"


# ---------------------------------------------------------------------------
# Cone algebra for K = R^q_+  x  Q^{d_1} x ... x Q^{d_N}
# ---------------------------------------------------------------------------

class _Cone:
    # Per-block dot products stay ``u1 @ v1`` (BLAS ddot) rather than a segment
    # sum over all blocks: the two round differently, and that difference has
    # flipped solve statuses on the fuzz corpus.  Scalar work is on Python
    # floats, which round exactly as numpy scalars do and cost less.
    def __init__(self, q: int, soc_dims: list[int]):
        self.q = q
        self.soc_dims = list(soc_dims)
        self.dim = q + sum(soc_dims)
        self.degree = q + len(soc_dims)
        # per SOC block: head index, tail slice, block slice and J = diag(1, -1, ..., -1)
        self.blocks: list[tuple[int, slice, slice, np.ndarray]] = []
        at = q
        for d in soc_dims:
            J = np.diag(np.concatenate([[1.0], -np.ones(d - 1)]))
            self.blocks.append((at, slice(at + 1, at + d), slice(at, at + d), J))
            at += d

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[: self.q] = 1.0
        for h, _, _, _ in self.blocks:
            e[h] = 1.0
        return e

    def min_eig(self, u: np.ndarray) -> float:
        vals = [u[: self.q].min()] if self.q else []
        for h, t, _, _ in self.blocks:
            ut = u[t]
            vals.append(u.item(h) - math.sqrt(ut @ ut))
        return min(vals) if vals else math.inf

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.dim)
        out[: self.q] = u[: self.q] * v[: self.q]
        for h, t, _, _ in self.blocks:
            u0, u1 = u.item(h), u[t]
            v0, v1 = v.item(h), v[t]
            out[h] = u0 * v0 + u1 @ v1
            out[t] = u0 * v1 + v0 * u1
        return out

    def div(self, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Solve lam o x = v for x (lam interior)."""
        out = np.empty(self.dim)
        out[: self.q] = v[: self.q] / lam[: self.q]
        for h, t, _, _ in self.blocks:
            a, b = lam.item(h), lam[t]
            v0, v1 = v.item(h), v[t]
            x0 = (a * v0 - b @ v1) / (a * a - b @ b)  # numpy scalar division: det 0 gives inf/nan
            out[h] = x0
            out[t] = (v1 - x0 * b) / a
        return out

    def max_step(self, u: np.ndarray, du: np.ndarray) -> float:
        """sup {alpha : u + alpha du in K} for interior u."""
        alpha = math.inf
        if self.q:
            neg = du[: self.q] < 0
            if neg.any():
                alpha = float((-u[: self.q][neg] / du[: self.q][neg]).min())
        for h, t, _, _ in self.blocks:
            u0, u1 = u.item(h), u[t]
            d0, d1 = du.item(h), du[t]
            a = d0 * d0 - float(d1 @ d1)
            b = 2.0 * (u0 * d0 - float(u1 @ d1))
            c = u0 * u0 - float(u1 @ u1)
            if a >= 0 and b >= 0:
                continue
            disc = b * b - 4.0 * a * c
            if a >= 0 and disc < 0:
                continue
            den = -b + math.sqrt(max(disc, 0.0))
            root = 2.0 * c / den if den else np.float64(2.0 * c) / den  # +-inf or nan, as numpy
            if root >= 0:
                alpha = min(alpha, float(root))
        return alpha


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^{-1} s = lambda (W symmetric)."""

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        q = cone.q
        self.w_lp = np.sqrt(s[:q] / z[:q]) if q else np.zeros(0)
        self.soc_W: list[np.ndarray] = []
        self.soc_Winv: list[np.ndarray] = []
        for h, t, blk, J in cone.blocks:
            s0, st, z0, zt = s.item(h), s[t], z.item(h), z[t]
            ns, nz = math.sqrt(st @ st), math.sqrt(zt @ zt)
            rho_s = (s0 - ns) * (s0 + ns)
            rho_z = (z0 - nz) * (z0 + nz)
            if rho_s <= 0 or rho_z <= 0:
                raise _NumericalTrouble("iterate left the cone interior")
            sbar = s[blk] / math.sqrt(rho_s)
            zbar = z[blk] / math.sqrt(rho_z)
            gamma = math.sqrt((1.0 + sbar @ zbar) / 2.0)
            # NT point wbar with wbar' J wbar = 1; v is its Jordan square root
            jz = -zbar
            jz[0] = zbar[0]
            wbar = (sbar + jz) / (2.0 * gamma)
            v = wbar.copy()
            v[0] += 1.0
            v /= math.sqrt(2.0 * (wbar.item(0) + 1.0))
            beta = np.float64(rho_s / rho_z) ** 0.25  # W^2 = sqrt(rho_s/rho_z) * P(wbar); 1/beta may be inf
            jv = -v
            jv[0] = v[0]
            self.soc_W.append(beta * (2.0 * np.outer(v, v) - J))
            self.soc_Winv.append((1.0 / beta) * (2.0 * np.outer(jv, jv) - J))  # J W J / beta^2
        self.lam = self.apply_W(z)

    def _blockwise(self, v: np.ndarray, lp: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.cone.dim)
        out[: self.cone.q] = lp * v[: self.cone.q]
        for M, (_, _, blk, _) in zip(mats, self.cone.blocks):
            out[blk] = M @ v[blk]
        return out

    def apply_W(self, v: np.ndarray) -> np.ndarray:
        return self._blockwise(v, self.w_lp, self.soc_W)

    def apply_Winv(self, v: np.ndarray) -> np.ndarray:
        return self._blockwise(v, 1.0 / self.w_lp, self.soc_Winv)

    def w_squared_blocks(self) -> tuple[np.ndarray, list[np.ndarray]]:
        return self.w_lp**2, [W @ W for W in self.soc_W]


class _KKT:
    """Dense symmetric indefinite factorization of the reduced KKT matrix

        [ 0   A'   G'  ]
        [ A   0    0   ]
        [ G   0  -W'W  ]

    with static regularization on singular retry and iterative refinement.
    """

    def __init__(self, A: np.ndarray, G: np.ndarray, cone: _Cone):
        self.A, self.G = A, G
        self.n = A.shape[1]
        self.p = A.shape[0]
        self.m = G.shape[0]
        N = self.n + self.p + self.m
        self.K = np.zeros((N, N))
        n, p = self.n, self.p
        self.K[n : n + p, :n] = A
        self.K[:n, n : n + p] = A.T
        self.K[n + p :, :n] = G
        self.K[:n, n + p :] = G.T
        self._sytrf, self._sytrs = sla.get_lapack_funcs(("sytrf", "sytrs"), (self.K,))
        # the -W'W block: orthant diagonal and SOC squares; its other entries stay 0
        self._lp_diag = np.arange(n + p, n + p + cone.q)
        self._soc = [slice(n + p + blk.start, n + p + blk.stop) for _, _, blk, _ in cone.blocks]

    def factor(self, w2_lp: np.ndarray, w2_soc: list[np.ndarray]):
        n = self.n
        self.K[self._lp_diag, self._lp_diag] = -w2_lp
        for M, sl in zip(w2_soc, self._soc):
            self.K[sl, sl] = -M
        scale = max(1.0, float(np.abs(self.K).max()))
        for delta in (0.0, 1e-12 * scale, 1e-8 * scale):
            Kreg = self.K  # sytrf factors a copy; K itself is kept for refinement
            if delta:
                Kreg = self.K.copy()
                di = np.arange(self.K.shape[0])
                Kreg[di[:n], di[:n]] += delta
                Kreg[di[n:], di[n:]] -= delta
            ldu, ipiv, info = self._sytrf(Kreg, lower=1)
            if info == 0:
                self._ldu, self._ipiv = ldu, ipiv
                return
        raise _NumericalTrouble("KKT factorization failed")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = self._sytrs(self._ldu, self._ipiv, rhs, lower=1)
        if info != 0:
            raise _NumericalTrouble("KKT solve failed")
        for _ in range(2):
            r = rhs - self.K @ x
            if np.abs(r).max() <= 1e-13 * (1.0 + np.abs(rhs).max()):
                break
            dx, info = self._sytrs(self._ldu, self._ipiv, r, lower=1)
            if info != 0:
                break
            x = x + dx
        return x


class _NumericalTrouble(Exception):
    pass


# ---------------------------------------------------------------------------
# Standard-form conversion and equilibration
# ---------------------------------------------------------------------------

@dataclass
class _StdForm:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    cone: _Cone
    col_scale: np.ndarray = field(default_factory=lambda: np.ones(0))
    basis: np.ndarray | None = None  # original (scaled) vars = basis @ reduced vars


def _standardize(prog: ConicProgram) -> _StdForm:
    n = prog.n_vars
    for arr, name in ((prog.f, "objective"), (prog.F, "equalities"), (prog.g, "rhs")):
        if not np.all(np.isfinite(arr)):
            raise SolverDataError(f"program {name} contains NaN/Inf")
    for blk in prog.socs:
        if not (np.all(np.isfinite(blk.A)) and np.all(np.isfinite(blk.b)) and np.all(np.isfinite(blk.c)) and np.isfinite(blk.d)):
            raise SolverDataError(f"SOC block {blk.label!r} contains NaN/Inf")
    if np.any(np.isnan(prog.lb)) or np.any(np.isnan(prog.ub)):
        raise SolverDataError("bounds contain NaN")
    if np.any(prog.lb > prog.ub):
        raise SolverDataError("lower bound exceeds upper bound")

    rows_G: list[np.ndarray] = []
    rows_h: list[float] = []
    for j in np.flatnonzero(np.isfinite(prog.lb)):
        row = np.zeros(n)
        row[j] = -1.0
        rows_G.append(row)
        rows_h.append(-prog.lb[j])
    for j in np.flatnonzero(np.isfinite(prog.ub)):
        row = np.zeros(n)
        row[j] = 1.0
        rows_G.append(row)
        rows_h.append(prog.ub[j])
    q = len(rows_G)
    soc_dims = []
    for blk in prog.socs:
        rows_G.append(-blk.c)
        rows_h.append(blk.d)
        rows_G.extend(-blk.A)
        rows_h.extend(blk.b)
        soc_dims.append(1 + blk.A.shape[0])
    G = np.vstack(rows_G) if rows_G else np.zeros((0, n))
    h = np.asarray(rows_h, dtype=float)
    return _StdForm(c=-prog.f.copy(), A=prog.F.copy(), b=prog.g.copy(), G=G, h=h, cone=_Cone(q, soc_dims))


def _equilibrate(sf: _StdForm, rounds: int = 8) -> _StdForm:
    """Ruiz-style equilibration; SOC row blocks share one scale so cones are
    preserved.  Returns a new _StdForm carrying the column scales needed to
    map the solution back."""
    p, n = sf.A.shape
    m = sf.G.shape[0]
    A, G, b, h, c = sf.A.copy(), sf.G.copy(), sf.b.copy(), sf.h.copy(), sf.c.copy()
    # contiguous row groups of G: each orthant row alone, then each SOC block
    starts = np.array([*range(sf.cone.q), *(blk.start for _, _, blk, _ in sf.cone.blocks)],
                      dtype=np.intp)
    sizes = np.diff(starts, append=m)
    dc = np.ones(n)
    for _ in range(rounds if n and p + m else 0):
        col = np.abs(G).max(axis=0, initial=0.0)
        if p:
            col = np.maximum(np.abs(A).max(axis=0), col)
        col[col == 0] = 1.0
        sc = 1.0 / np.sqrt(col)
        A *= sc
        G *= sc
        dc *= sc
        if p:
            ra = np.abs(A).max(axis=1)
            ra[ra == 0] = 1.0
            sa = 1.0 / np.sqrt(ra)
            A *= sa[:, None]
            b *= sa
        if m:
            rg = np.maximum.reduceat(np.abs(G).max(axis=1), starts)
            rg[rg == 0] = 1.0  # an all-zero group keeps scale 1
            s = np.repeat(1.0 / np.sqrt(rg), sizes)
            G *= s[:, None]
            h *= s
    c = c * dc
    return _StdForm(c=c, A=A, b=b, G=G, h=h, cone=sf.cone, col_scale=dc)


def _reduce_equalities(sf: _StdForm) -> tuple[_StdForm, bool]:
    """Drop linearly dependent equality rows; flag inconsistency."""
    p, n = sf.A.shape
    if p == 0:
        return sf, False
    U, sv, _ = np.linalg.svd(sf.A, full_matrices=True)
    tol = max(p, n) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    r = int(np.sum(sv > tol))
    if r == p:
        return sf, False
    resid = sf.b - U[:, :r] @ (U[:, :r].T @ sf.b)
    inconsistent = bool(np.max(np.abs(resid), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(sf.b), initial=0.0)))
    A = U[:, :r].T @ sf.A
    b = U[:, :r].T @ sf.b
    return _StdForm(c=sf.c, A=A, b=b, G=sf.G, h=sf.h, cone=sf.cone,
                    col_scale=sf.col_scale, basis=sf.basis), inconsistent


def _reduce_null_columns(sf: _StdForm) -> tuple[_StdForm, bool]:
    """Handle directions no constraint sees (typical source: free reaction
    components of a fixed support aligned with the task).

    If the objective improves along such a direction the program is
    unbounded provided it is feasible (the caller checks); otherwise the
    direction is irrelevant and gets pinned so the KKT system stays
    nonsingular.
    """
    n = sf.c.shape[0]
    M = np.vstack([sf.A, sf.G])
    _, sv, Vt = np.linalg.svd(M, full_matrices=True)
    tol = max(M.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    r = int(np.sum(sv > tol))
    if r == n:
        return sf, False
    null = Vt[r:].T
    if np.max(np.abs(null.T @ sf.c), initial=0.0) > 1e-10 * (1.0 + np.max(np.abs(sf.c), initial=0.0)):
        return sf, True  # unbounded: objective has a free ray
    basis = Vt[:r].T
    return _StdForm(
        c=basis.T @ sf.c, A=sf.A @ basis, b=sf.b, G=sf.G @ basis, h=sf.h,
        cone=sf.cone, col_scale=sf.col_scale, basis=basis,
    ), False


# ---------------------------------------------------------------------------
# The interior-point loop
# ---------------------------------------------------------------------------

def _residual_check(prog: ConicProgram):
    """x -> (relative equality residual, worst absolute cone/box violation)
    of x against the original program, with the program's index arrays and
    norms taken once."""
    F, g = prog.F, prog.g
    g_scale = 1.0 + float(np.abs(g).max(initial=0.0))
    lbi, ubi = np.flatnonzero(np.isfinite(prog.lb)), np.flatnonzero(np.isfinite(prog.ub))
    lb, ub = prog.lb[lbi], prog.ub[ubi]
    socs = tuple((blk.A, blk.b, blk.c, blk.d) for blk in prog.socs)

    def measure(x: np.ndarray) -> tuple[float, float]:
        eq = float(np.abs(F @ x - g).max(initial=0.0)) / g_scale
        viol = 0.0
        if lbi.size:
            viol = max(viol, float((lb - x[lbi]).max(initial=0.0)))
        if ubi.size:
            viol = max(viol, float((x[ubi] - ub).max(initial=0.0)))
        for A, b, c, d in socs:
            r = A @ x + b
            viol = max(viol, float(math.sqrt(r @ r) - (c @ x + d)))
        return eq, max(0.0, viol)

    return measure


def solve(
    prog: ConicProgram,
    settings: SolveSettings | None = None,
    trace=None,
    backend=None,
) -> SolveResult:
    """Solve a conic program to optimality or an infeasibility/unboundedness
    certificate.

    ``trace``, if given, is called once per iteration with a dict of the
    iteration number, residuals, gap and embedding variables.  ``backend``
    swaps in an external conic solver with the same
    ``(prog, settings, trace) -> SolveResult`` contract; the default is the
    in-house interior-point method, which the whole acceptance suite runs on.
    """
    if backend is not None:
        return backend(prog, settings, trace)
    return interior_point_backend(prog, settings, trace)


def interior_point_backend(
    prog: ConicProgram, settings: SolveSettings | None = None, trace=None
) -> SolveResult:
    """The reference solver: HSD primal-dual interior-point method."""
    settings = settings or SolveSettings()
    sf0 = _standardize(prog)

    # degenerate: nothing but the objective
    if sf0.A.shape[0] == 0 and sf0.G.shape[0] == 0:
        if np.any(sf0.c):
            return SolveResult(
                status="Unbounded", objective=None, primal=None,
                residuals=Residuals(0.0, 0.0, math.nan), iterations=0,
                certificate="objective is a free ray (no constraints)",
            )
        x = np.zeros(prog.n_vars)
        return SolveResult("Optimal", 0.0, x, Residuals(0.0, 0.0, 0.0), 0)

    sf_red, inconsistent = _reduce_equalities(_equilibrate(sf0))
    if inconsistent:
        return SolveResult(
            status="Infeasible", objective=None, primal=None,
            residuals=Residuals(math.inf, 0.0, math.nan), iterations=0,
            certificate="equality system F x = g is rank-deficient and inconsistent",
        )
    sf, free_ray = _reduce_null_columns(sf_red)
    if free_ray:
        # the ray proves unboundedness only if the program is feasible at all
        feas = interior_point_backend(replace(prog, f=np.zeros_like(prog.f)), settings, trace)
        if feas.status != "Optimal":
            return replace(feas, objective=None)
        return SolveResult(
            status="Unbounded", objective=None, primal=None,
            residuals=Residuals(math.nan, math.nan, math.nan), iterations=feas.iterations,
            certificate="feasible, and the objective improves along a direction no "
                        "constraint sees (uncapped free reaction aligned with the task?)",
        )
    c, A, b, G, h, cone = sf.c, sf.A, sf.b, sf.G, sf.h, sf.cone
    n, p, m = c.shape[0], A.shape[0], G.shape[0]
    nu = cone.degree

    kkt = _KKT(A, G, cone)
    e = cone.identity()
    measure = _residual_check(prog)

    def split(u):
        return u[:n], u[n : n + p], u[n + p :]

    def unscale_x(x, tau):
        full = sf.basis @ x if sf.basis is not None else x
        return sf.col_scale * full / tau

    best: dict = {"merit": math.inf}

    def finish(status, x=None, tau=1.0, gap=math.nan, iters=0, cert=None):
        if x is None:
            return SolveResult(status, None, None, Residuals(math.nan, math.nan, math.nan), iters, cert)
        xo = unscale_x(x, tau)
        eq, viol = measure(xo)
        obj = float(prog.f @ xo)
        return SolveResult(status, obj if status in ("Optimal", "IterationLimit") else None,
                           xo, Residuals(eq, viol, gap), iters, cert)

    try:
        # -- initialization (W = I) -------------------------------------
        kkt.factor(np.ones(cone.q), [np.eye(d) for d in cone.soc_dims])
        u = kkt.solve(np.concatenate([np.zeros(n), b, h]))
        x, _, w = split(u)
        s = -w.copy()
        a = cone.min_eig(s)
        if a <= 0:
            s = s + (1.0 - a) * e
        u = kkt.solve(np.concatenate([-c, np.zeros(p), np.zeros(m)]))
        _, y, z = split(u)
        z = z.copy()
        a = cone.min_eig(z)
        if a <= 0:
            z = z + (1.0 - a) * e
        tau, kappa = 1.0, 1.0

        c_norm = 1.0 + float(np.abs(c).max(initial=0.0))
        b_norm = 1.0 + float(np.abs(b).max(initial=0.0))
        h_norm = 1.0 + float(np.abs(h).max(initial=0.0))
        rhs_tau = np.concatenate([-c, b, h])

        for it in range(settings.max_iterations):
            rx = A.T @ y + G.T @ z + c * tau
            ry = b * tau - A @ x
            rz = h * tau - G @ x - s
            rt = kappa + c @ x + b @ y + h @ z
            mu = (s @ z + tau * kappa) / (nu + 1)

            # -- termination, measured on the original program ----------
            xo = unscale_x(x, tau)
            eq_res, cone_viol = measure(xo)
            dres = float(np.abs(rx).max(initial=0.0)) / (tau * c_norm)
            pobj = float(c @ x) / tau
            dobj = -float(b @ y + h @ z) / tau
            gap = float(s @ z) / tau**2
            relgap = gap / max(1.0, 0.5 * (abs(pobj) + abs(dobj)))
            merit = max(eq_res, cone_viol, dres, relgap)
            if merit < best["merit"]:
                best.update(merit=merit, x=x.copy(), tau=tau, relgap=relgap, it=it)
            if trace:
                trace({"iteration": it, "mu": mu, "eq": eq_res, "cone": cone_viol,
                       "dual": dres, "relgap": relgap, "tau": tau, "kappa": kappa})

            if eq_res <= settings.feasibility_tol and cone_viol <= settings.feasibility_tol \
                    and dres <= settings.feasibility_tol and relgap <= settings.duality_gap_tol:
                eta = -pobj  # program maximizes f'x, standard form minimizes
                if abs(eta) > settings.unboundedness_threshold:
                    return finish("Unbounded", iters=it,
                                  cert=f"objective magnitude {abs(eta):.3e} exceeds threshold")
                return finish("Optimal", x, tau, relgap, it)

            # certificates
            bhz = float(b @ y + h @ z)
            if bhz < 0:
                yc, zc = y / (-bhz), z / (-bhz)
                farkas = float(np.abs(A.T @ yc + G.T @ zc).max(initial=0.0))
                if farkas <= settings.feasibility_tol * c_norm:
                    return finish("Infeasible", iters=it,
                                  cert=f"Farkas ray with b'y + h'z = -1: "
                                       f"||A'y + G'z||_inf = {farkas:.3e}")
            cx = float(c @ x)
            if cx < 0:
                xc, sc_ = x / (-cx), s / (-cx)
                ray_eq = float(np.abs(A @ xc).max(initial=0.0))
                ray_cone = float(np.abs(G @ xc + sc_).max(initial=0.0))
                if ray_eq <= settings.feasibility_tol * b_norm and ray_cone <= settings.feasibility_tol * h_norm:
                    return finish("Unbounded", iters=it,
                                  cert=f"improving ray with c'x = -1: ||A x||_inf = {ray_eq:.3e}, "
                                       f"||G x + s||_inf = {ray_cone:.3e}, s in K")

            # -- NT scaling and KKT factorization -----------------------
            scal = _Scaling(cone, s, z)
            lam = scal.lam
            w2_lp, w2_soc = scal.w_squared_blocks()
            kkt.factor(w2_lp, w2_soc)
            u1 = kkt.solve(rhs_tau)
            x1, y1, z1 = split(u1)
            zeta1 = c @ x1 + b @ y1 + h @ z1
            denom0 = kappa / tau - zeta1
            if abs(denom0) < 1e-300:
                raise _NumericalTrouble("degenerate tau step")

            def direction(w1, w2, w3, w4, d_s, d_kt):
                lam_ds = cone.div(lam, d_s)
                u2 = kkt.solve(np.concatenate([-w1, w2, w3 - scal.apply_W(lam_ds)]))
                x2, y2, z2 = split(u2)
                dtau = (w4 + d_kt / tau + (c @ x2 + b @ y2 + h @ z2)) / denom0
                dx = x2 + dtau * x1
                dy = y2 + dtau * y1
                dz = z2 + dtau * z1
                ds = scal.apply_W(lam_ds - scal.apply_W(dz))
                dkappa = (d_kt - kappa * dtau) / tau
                return dx, dy, dz, dtau, ds, dkappa

            def max_alpha(ds, dz, dtau, dkappa):
                alpha = min(cone.max_step(s, ds), cone.max_step(z, dz))
                if dtau < 0:
                    alpha = min(alpha, -tau / dtau)
                if dkappa < 0:
                    alpha = min(alpha, -kappa / dkappa)
                return alpha

            # -- predictor (affine) --------------------------------------
            lam2 = cone.prod(lam, lam)
            dxa, dya, dza, dta, dsa, dka = direction(rx, ry, rz, rt, -lam2, -tau * kappa)
            alpha_aff = min(1.0, max_alpha(dsa, dza, dta, dka))
            gap_aff = ((s + alpha_aff * dsa) @ (z + alpha_aff * dza)
                       + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka))
            sigma = min(1.0, max(0.0, gap_aff / (s @ z + tau * kappa))) ** 3

            # -- corrector ----------------------------------------------
            corr = cone.prod(scal.apply_Winv(dsa), scal.apply_W(dza))
            d_s = sigma * mu * e - lam2 - corr
            d_kt = sigma * mu - tau * kappa - dta * dka
            one_minus = 1.0 - sigma
            dx, dy, dz, dtau, ds, dkappa = direction(
                one_minus * rx, one_minus * ry, one_minus * rz, one_minus * rt, d_s, d_kt
            )
            alpha = min(1.0, _STEP_FRACTION * max_alpha(ds, dz, dtau, dkappa))
            if not math.isfinite(alpha) or alpha < _MIN_STEP:
                raise _NumericalTrouble("step length collapsed")

            x = x + alpha * dx
            y = y + alpha * dy
            z = z + alpha * dz
            s = s + alpha * ds
            tau = tau + alpha * dtau
            kappa = kappa + alpha * dkappa
            if tau <= 0 or kappa < 0 or not math.isfinite(tau):
                raise _NumericalTrouble("embedding variables left the cone")

        if "x" in best:
            return finish("IterationLimit", best["x"], best["tau"], best["relgap"], settings.max_iterations)
        return finish("IterationLimit", iters=settings.max_iterations)

    except _NumericalTrouble as exc:
        if "x" in best:
            return finish("NumericalFailure", best["x"], best["tau"], best["relgap"],
                          best["it"], cert=str(exc))
        return SolveResult("NumericalFailure", None, None,
                           Residuals(math.nan, math.nan, math.nan), 0, str(exc))


# ---------------------------------------------------------------------------
# Polyhedral LP oracle
# ---------------------------------------------------------------------------

def solve_with_oracle(prog: ConicProgram, facets: int) -> SolveResult:
    """Lower-bound the optimum by replacing each contact cone with its
    inscribed polyhedral approximation and solving the LP with HiGHS.

    Every SOC block must carry a contact-cone tag; arbitrary cone blocks are
    rejected.  The oracle shares no code with the interior-point path beyond
    the program data itself.
    """
    if facets < 4:
        raise ValueError("facets must be >= 4")
    for blk in prog.socs:
        if blk.tag is None:
            raise UnsupportedProgramError(
                f"SOC block {blk.label!r} is not a contact cone; the LP oracle cannot replace it"
            )

    n = prog.n_vars
    cols = [n]
    rays = []
    for blk in prog.socs:
        tag = blk.tag
        if tag.kind == "sfce":
            pts = discretize_sfce(tag.params, 1.0, facets)
            comps = ("f_t", "f_o", "f_n", "m_n")
        else:
            pts = discretize_pcwf(tag.params, 1.0, facets)
            comps = ("f_t", "f_o", "f_n")
        R = np.array([[getattr(w, comp) for w in pts] for comp in comps])
        rays.append((tag, comps, R))
        cols.append(cols[-1] + R.shape[1])
    total = cols[-1]

    n_extra = sum(len(comps) for _, comps, _ in rays)
    A_eq = np.zeros((prog.F.shape[0] + n_extra, total))
    b_eq = np.zeros(A_eq.shape[0])
    A_eq[: prog.F.shape[0], :n] = prog.F
    b_eq[: prog.F.shape[0]] = prog.g
    row = prog.F.shape[0]
    for k, (tag, comps, R) in enumerate(rays):
        for i, comp in enumerate(comps):
            A_eq[row, tag.var_of[comp]] = 1.0
            A_eq[row, cols[k] : cols[k + 1]] = -R[i]
            row += 1

    c_lp = np.zeros(total)
    c_lp[:n] = -prog.f
    bounds = [(lo if np.isfinite(lo) else None, up if np.isfinite(up) else None)
              for lo, up in zip(prog.lb, prog.ub)]
    bounds += [(0.0, None)] * (total - n)

    res = linprog(c_lp, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 0:
        x = res.x[:n]
        eq, viol = _residual_check(prog)(x)
        return SolveResult("Optimal", float(prog.f @ x), x, Residuals(eq, viol, math.nan), int(res.nit))
    status = {2: "Infeasible", 3: "Unbounded"}.get(res.status, "NumericalFailure")
    return SolveResult(status, None, None, Residuals(math.nan, math.nan, math.nan),
                       int(getattr(res, "nit", 0) or 0), res.message)
