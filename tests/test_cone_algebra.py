"""Cone algebra, NT scaling, equilibration and the residual check.

The ``ref_*`` functions are the plain per-block loops the solver's flattened
versions replaced; they stay here as the reference.  The flattened versions
perform the same floating-point operations in the same order, so they must
agree bit for bit (``np.array_equal`` / ``==``), not to a tolerance: a
reordered sum fails these tests.  The step search, the lambda-division and
lambda o lambda are held by the scaling, which computes the per-block
numbers they read once per iterate; they are held to ``ref_max_step``,
``ref_div`` and ``ref_prod`` at the scaling's own s, z and lambda, next to
the cone boundary too, where lambda's determinant and a step root's
denominator can round to zero.  The stacked kernels (``_BatchCone``,
``_BatchScaling``, ``np.vecdot``/``np.matvec``), which work on runs of equal
SOC blocks, are held row by row to the one-program ones the same way.  The
behaviour tests check the algebra itself against bisection and the
Nesterov-Todd identities.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import mkprog, plan_for, random_draws
from screwgrasp.problem import ProgramStack, compile_program
from screwgrasp.solver import (
    _BatchCone,
    _BatchScaling,
    _Cone,
    _equilibrate,
    _ResidualCheck,
    _Scaling,
    _sigma,
    _sigmas,
    _squares,
    _standardize,
    _StdForm,
)

# (q, SOC dimensions): no orthant and an orthant, dimensions 2, 3 and 4 mixed,
# runs of equal dimensions one to three blocks long
CONES = [(0, [3]), (0, [2, 4, 3]), (3, [4]), (5, [3, 2, 4, 4, 3]), (2, []), (4, [4, 4, 3, 3, 3])]
DRAWS = 50


def standard_form(prog) -> _StdForm:
    """One program's standard form, unstacked."""
    sf = _standardize(ProgramStack.of([prog]))
    return _StdForm(*(getattr(sf, k)[0] for k in "cAbGh"), plan=sf.plan)


def starts(q, dims):
    return list(np.cumsum([q, *dims])[:-1])


def ref_min_eig(q, dims, u):
    vals = [np.min(u[:q])] if q else []
    for at, d in zip(starts(q, dims), dims):
        vals.append(u[at] - np.linalg.norm(u[at + 1 : at + d]))
    return min(vals) if vals else math.inf


def ref_prod(q, dims, u, v):
    out = np.empty(q + sum(dims))
    out[:q] = u[:q] * v[:q]
    for at, d in zip(starts(q, dims), dims):
        u0, u1 = u[at], u[at + 1 : at + d]
        v0, v1 = v[at], v[at + 1 : at + d]
        out[at] = u0 * v0 + u1 @ v1
        out[at + 1 : at + d] = u0 * v1 + v0 * u1
    return out


def ref_div(q, dims, lam, v):
    out = np.empty(q + sum(dims))
    out[:q] = v[:q] / lam[:q]
    for at, d in zip(starts(q, dims), dims):
        a, b = lam[at], lam[at + 1 : at + d]
        v0, v1 = v[at], v[at + 1 : at + d]
        det = a * a - b @ b
        x0 = (a * v0 - b @ v1) / det
        out[at] = x0
        out[at + 1 : at + d] = (v1 - x0 * b) / a
    return out


def ref_max_step(q, dims, u, du, seen=None):
    """sup {alpha : u + alpha du in K}; ``seen`` collects the branches taken."""
    seen = set() if seen is None else seen
    alpha = math.inf
    if q:
        neg = du[:q] < 0
        if np.any(neg):
            alpha = float(np.min(-u[:q][neg] / du[:q][neg]))
    for at, d in zip(starts(q, dims), dims):
        u0, u1 = u[at], u[at + 1 : at + d]
        d0, d1 = du[at], du[at + 1 : at + d]
        a = d0 * d0 - d1 @ d1
        b = 2.0 * (u0 * d0 - u1 @ d1)
        c = u0 * u0 - u1 @ u1
        if a >= 0 and b >= 0:
            seen.add("skip: a >= 0, b >= 0")
            continue
        disc = b * b - 4.0 * a * c
        if a >= 0 and disc < 0:
            seen.add("skip: a >= 0, disc < 0")
            continue
        den = -b + math.sqrt(max(disc, 0.0))
        if den == 0:
            seen.add("zero denominator")
        root = 2.0 * c / den
        if root >= 0:
            alpha = min(alpha, float(root))
    return alpha


def ref_step_both(q, dims, s, ds, z, dz, seen=None):
    """The step search's min of the s and z steps."""
    return min(ref_max_step(q, dims, s, ds, seen), ref_max_step(q, dims, z, dz, seen))


def ref_dets(q, dims, lam):
    """a^2 - b'b of each SOC block of lam, as ``ref_div`` divides by it."""
    return [lam[at] * lam[at] - lam[at + 1 : at + d] @ lam[at + 1 : at + d] for at, d in zip(starts(q, dims), dims)]


def ref_interior(q, dims, u) -> bool:
    """Whether every SOC block of u has head > 0 and head^2 - ||tail||^2 > 0,
    as rounded by the scaling's test."""
    norms = [math.sqrt(u[at + 1 : at + d] @ u[at + 1 : at + d]) for at, d in zip(starts(q, dims), dims)]
    return all(u[at] > 0 and (u[at] - n) * (u[at] + n) > 0 for at, n in zip(starts(q, dims), norms))


def same_bits(a, b) -> bool:
    """Equal arrays or numbers, the sign of a zero included; a NaN equals a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b)))


def ref_scaling(q, dims, s, z):
    """(orthant diagonal, SOC blocks of W, SOC blocks of W^-1, lambda)."""
    w_lp = np.sqrt(s[:q] / z[:q]) if q else np.zeros(0)
    Ws, Winvs = [], []
    for at, d in zip(starts(q, dims), dims):
        sb, zb = s[at : at + d], z[at : at + d]
        rho_s = (sb[0] - np.linalg.norm(sb[1:])) * (sb[0] + np.linalg.norm(sb[1:]))
        rho_z = (zb[0] - np.linalg.norm(zb[1:])) * (zb[0] + np.linalg.norm(zb[1:]))
        sbar = sb / math.sqrt(rho_s)
        zbar = zb / math.sqrt(rho_z)
        gamma = math.sqrt((1.0 + sbar @ zbar) / 2.0)
        wbar = (sbar + np.concatenate([[zbar[0]], -zbar[1:]])) / (2.0 * gamma)
        v = wbar.copy()
        v[0] += 1.0
        v /= math.sqrt(2.0 * (wbar[0] + 1.0))
        J = np.diag(np.concatenate([[1.0], -np.ones(d - 1)]))
        beta = (rho_s / rho_z) ** 0.25
        Ws.append(beta * (2.0 * np.outer(v, v) - J))
        Winvs.append((1.0 / beta) * (2.0 * J @ np.outer(v, v) @ J - J))
    lam = np.empty(q + sum(dims))
    lam[:q] = w_lp * z[:q]
    for W, at, d in zip(Ws, starts(q, dims), dims):
        lam[at : at + d] = W @ z[at : at + d]
    return w_lp, Ws, Winvs, lam


def ref_equilibrate(sf, rounds=8):
    p, n = sf.A.shape
    A, G, b, h, c = sf.A.copy(), sf.G.copy(), sf.b.copy(), sf.h.copy(), sf.c.copy()
    cone = sf.plan.cone
    groups = [np.array([i]) for i in range(cone.q)]
    for at, d in zip(starts(cone.q, cone.soc_dims), cone.soc_dims):
        groups.append(np.arange(at, at + d))
    dc = np.ones(n)
    for _ in range(rounds):
        M = np.vstack([A, G]) if p else G
        if M.size == 0:
            break
        col = np.max(np.abs(M), axis=0)
        col[col == 0] = 1.0
        sc = 1.0 / np.sqrt(col)
        A *= sc
        G *= sc
        dc *= sc
        if p:
            ra = np.max(np.abs(A), axis=1)
            ra[ra == 0] = 1.0
            sa = 1.0 / np.sqrt(ra)
            A *= sa[:, None]
            b *= sa
        for idx in groups:
            rg = np.max(np.abs(G[idx]))
            if rg == 0:
                continue
            s = 1.0 / np.sqrt(rg)
            G[idx] *= s
            h[idx] *= s
    return A, G, b, h, c * dc, dc


def ref_measure(prog, x):
    g_norm = float(np.max(np.abs(prog.g), initial=0.0))
    eq = float(np.max(np.abs(prog.F @ x - prog.g), initial=0.0)) / (1.0 + g_norm)
    viol = 0.0
    finite_lb = np.isfinite(prog.lb)
    finite_ub = np.isfinite(prog.ub)
    if np.any(finite_lb):
        viol = max(viol, float(np.max(prog.lb[finite_lb] - x[finite_lb], initial=0.0)))
    if np.any(finite_ub):
        viol = max(viol, float(np.max(x[finite_ub] - prog.ub[finite_ub], initial=0.0)))
    for blk in prog.socs:
        viol = max(viol, float(np.linalg.norm(blk.A @ x + blk.b) - (blk.c @ x + blk.d)))
    return eq, max(0.0, viol)


def interior(rng, q, dims, margin=0.1):
    """A random point of the cone's interior, scaled over several decades."""
    u = np.empty(q + sum(dims))
    u[:q] = rng.uniform(margin, 3.0, q) * 10.0 ** rng.uniform(-3, 3, q)
    for at, d in zip(starts(q, dims), dims):
        tail = rng.normal(size=d - 1) * 10.0 ** rng.uniform(-3, 3)
        u[at + 1 : at + d] = tail
        u[at] = np.linalg.norm(tail) * (1.0 + rng.uniform(margin, 2.0)) + rng.uniform(0.0, 1e-3)
    return u


def near_boundary(rng, q, dims):
    """A point whose SOC blocks lie one to three ulps inside the boundary:
    each head is the tail's norm stepped up by ``nextafter``."""
    u = interior(rng, q, dims)
    for at, d in zip(starts(q, dims), dims):
        head = math.sqrt(u[at + 1 : at + d] @ u[at + 1 : at + d])
        for _ in range(rng.integers(1, 4)):
            head = math.nextafter(head, math.inf)
        u[at] = head
    return u


def near_boundary_directions(rng, q, dims, u):
    """Step directions that, from a point u next to the boundary, take each
    branch of the step search: into the cone (a >= 0, b >= 0), back along u
    (a >= 0 and b < 0, where disc is 0 up to rounding, so disc < 0 too), and
    random (a < 0 < b, where 4ac is lost in b^2: a zero denominator)."""
    k = 10.0 ** rng.uniform(-2, 2)
    return [interior(rng, q, dims), -k * u, rng.normal(size=u.size) * np.abs(u).max()]


def cases(seed=0):
    rng = np.random.default_rng(seed)
    for q, dims in CONES:
        for _ in range(DRAWS):
            yield rng, q, dims, _Cone(q, dims)


class TestAgainstLoopReference:
    def test_min_eig_prod_div(self):
        """min_eig and prod, and the scaling-held lambda-division and lambda o lambda."""
        for rng, q, dims, cone in cases(1):
            u, v = interior(rng, q, dims), rng.normal(size=q + sum(dims))
            assert cone.min_eig(u) == ref_min_eig(q, dims, u)
            assert cone.min_eig(v) == ref_min_eig(q, dims, v)
            assert np.array_equal(cone.prod(u, v), ref_prod(q, dims, u, v))
            scal = _Scaling(cone, u, interior(rng, q, dims))
            assert same_bits(scal.div(v), ref_div(q, dims, scal.lam, v))
            assert same_bits(scal.lam2, ref_prod(q, dims, scal.lam, scal.lam))

    def test_max_step(self):
        """The scaling-held step search is the min of the reference's s and z
        steps, and either one alone when the other direction is 0."""
        for rng, q, dims, cone in cases(2):
            s, z = interior(rng, q, dims), interior(rng, q, dims)
            scal, zero = _Scaling(cone, s, z), np.zeros(s.size)
            for ds in (rng.normal(size=s.size) * 10.0 ** rng.uniform(-2, 2), -s, interior(rng, q, dims)):
                assert same_bits(scal.max_step(ds, zero), ref_max_step(q, dims, s, ds))
                assert same_bits(scal.max_step(zero, ds), ref_max_step(q, dims, z, ds))
                for dz in (-z, rng.normal(size=z.size), interior(rng, q, dims)):
                    assert same_bits(scal.max_step(ds, dz), ref_step_both(q, dims, s, ds, z, dz))

    def test_blocks_and_lambda_written_in_place(self):
        """W v, W^-1 v and lambda = W z are written block by block into one
        array (through ``out``): each block is ``M @ v`` of that block alone,
        for v a view into a longer array, as the loop's dz is, and with NaN
        and infinite entries."""
        for rng, q, dims, cone in cases(32):
            z = interior(rng, q, dims)
            scal = _Scaling(cone, interior(rng, q, dims), z)
            w_lp, Ws, Winvs = scal.w_lp, scal.soc_W, scal.soc_Winv  # test_scaling holds these to ref_scaling
            longer = rng.normal(size=3 * cone.dim)
            v = longer[cone.dim + 1 : 2 * cone.dim + 1]
            v[rng.random(v.size) < 0.1] = rng.choice([math.nan, math.inf, -math.inf])
            with np.errstate(invalid="ignore"):  # inf * 0
                applied = scal.apply_W(v), scal.apply_Winv(v)
            for got, lp, mats, u in ((applied[0], w_lp, Ws, v), (applied[1], 1.0 / w_lp, Winvs, v),
                                     (scal.lam, w_lp, Ws, z)):
                want = np.empty(cone.dim)
                with np.errstate(invalid="ignore"):
                    want[:q] = lp * u[:q]
                    for M, at, d in zip(mats, starts(q, dims), dims):
                        want[at : at + d] = M @ u[at : at + d]
                assert same_bits(got, want)

    def test_zero_denominators_as_numpy(self):
        """Next to the cone boundary lambda's determinant can round to 0, and
        a step root's denominator too.  The scaling marks an iterate whose
        lambda has a head or det <= 0 ``bad`` (the loop stops there), so div
        never divides by 0; elsewhere the scaling-held div and step search
        give the reference's bits, the step search's inf/nan as numpy scalars
        give them, never raise, and take both of the step search's skip
        branches as the reference does."""
        rng, seen, zero_dets = np.random.default_rng(5), set(), 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for q, dims in CONES:
                cone = _Cone(q, dims)
                for _ in range(200):
                    s, z = near_boundary(rng, q, dims), near_boundary(rng, q, dims)
                    scal = _Scaling(cone, s, z)
                    if not (ref_interior(q, dims, s) and ref_interior(q, dims, z)):  # rho rounded to 0
                        assert scal.bad
                        continue
                    lam = ref_scaling(q, dims, s, z)[3]
                    on_boundary = any(lam[at] <= 0 or det <= 0
                                      for at, det in zip(starts(q, dims), ref_dets(q, dims, lam)))
                    assert scal.bad == on_boundary
                    if on_boundary:
                        zero_dets += 1
                        continue
                    v = rng.normal(size=s.size)
                    assert same_bits(scal.div(v), ref_div(q, dims, scal.lam, v))
                    assert same_bits(scal.lam2, ref_prod(q, dims, scal.lam, scal.lam))
                    for ds, dz in zip(near_boundary_directions(rng, q, dims, s),
                                      near_boundary_directions(rng, q, dims, z)):
                        assert same_bits(scal.max_step(ds, dz), ref_step_both(q, dims, s, ds, z, dz, seen))
        assert zero_dets
        assert seen == {"skip: a >= 0, b >= 0", "skip: a >= 0, disc < 0", "zero denominator"}

    def test_scaling(self):
        for rng, q, dims, cone in cases(3):
            s, z = interior(rng, q, dims), interior(rng, q, dims)
            scal = _Scaling(cone, s, z)
            w_lp, Ws, Winvs, lam = ref_scaling(q, dims, s, z)
            assert np.array_equal(scal.w_lp, w_lp)
            assert len(scal.soc_W) == len(Ws) == len(scal.soc_Winv)
            assert all(np.array_equal(a, b) for a, b in zip(scal.soc_W, Ws))
            assert all(np.array_equal(a, b) for a, b in zip(scal.soc_Winv, Winvs))
            assert np.array_equal(scal.lam, lam)

    @pytest.mark.parametrize("p", [0, 3])
    def test_equilibrate(self, p):
        rng = np.random.default_rng(4 + p)
        for q, dims in CONES:
            m, n = q + sum(dims), 7
            G = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-4, 4, size=(m, 1))
            G[rng.random(m) < 0.2] = 0.0  # all-zero rows, and so some all-zero groups
            A = rng.normal(size=(p, n)) * 10.0 ** rng.uniform(-4, 4, size=(p, 1))
            sf = _StdForm(c=rng.normal(size=n), A=A, b=rng.normal(size=p), G=G,
                          h=rng.normal(size=m), plan=plan_for(p, n, q, dims))
            got = _equilibrate(sf)
            want = ref_equilibrate(sf)
            for a, b in zip((got.A, got.G, got.b, got.h, got.c, got.col_scale), want):
                assert np.array_equal(a, b)

    def test_equilibrate_compiled_programs(self):
        rng = np.random.default_rng(6)
        for _, prob in random_draws(rng, 40):
            sf = standard_form(compile_program(prob, +1))
            got = _equilibrate(sf)
            want = ref_equilibrate(sf)
            for a, b in zip((got.A, got.G, got.b, got.h, got.c, got.col_scale), want):
                assert np.array_equal(a, b)

    def test_residual_check(self):
        rng = np.random.default_rng(7)
        seen_bounds = seen_socs = 0
        for _, prob in random_draws(rng, 60):
            prog = compile_program(prob, -1 if rng.random() < 0.5 else +1)
            measure = _ResidualCheck(ProgramStack.of([prog]), 0)
            seen_bounds += bool(np.isfinite(prog.lb).any() or np.isfinite(prog.ub).any())
            seen_socs += bool(prog.socs)
            for scale in (1e-3, 1.0, 1e3):
                x = rng.normal(size=prog.n_vars) * scale
                assert measure(x) == ref_measure(prog, x)
        assert seen_bounds and seen_socs

    def test_stacked_form_and_check_are_each_program_alone(self):
        """A group's standard form and residual check, written as stacks,
        hold in row k exactly program k's own."""
        rng = np.random.default_rng(11)
        by_key: dict = {}
        for _, prob in random_draws(rng, 200):
            prog = compile_program(prob, -1 if rng.random() < 0.5 else +1)
            key = (prog.F.shape, np.isfinite(prog.lb).tobytes(), np.isfinite(prog.ub).tobytes(),
                   tuple(blk.A.shape[0] for blk in prog.socs))
            by_key.setdefault(key, []).append(prog)
        groups = [progs for progs in by_key.values() if len(progs) >= 3]
        assert groups
        # programs with no finite bound and no cone: still one violation per program
        bare = np.random.default_rng(12)
        groups.append([mkprog(bare.normal(size=3), bare.normal(size=(2, 3)), bare.normal(size=2))
                       for _ in range(3)])
        for progs in groups:
            stacked, check = _standardize(ProgramStack.of(progs)), _ResidualCheck(ProgramStack.of(progs))
            X = rng.normal(size=(len(progs), progs[0].n_vars))
            eq, viol = check(X)
            assert eq.shape == viol.shape == (len(progs),)
            for k, prog in enumerate(progs):
                alone = standard_form(prog)
                for name in "cAbGh":
                    assert np.array_equal(getattr(stacked, name)[k], getattr(alone, name))
                assert (eq[k], viol[k]) == ref_measure(prog, X[k]) == _ResidualCheck(ProgramStack.of(progs), k)(X[k])
            rows = np.arange(len(progs))[1::2]  # a sub-stack, as a stacked run keeps its running instances
            sub_eq, sub_viol = _ResidualCheck(ProgramStack.of(progs), rows)(X[rows])
            assert sub_eq.tolist() == eq[rows].tolist() and sub_viol.tolist() == viol[rows].tolist()


def per_block(mats):
    """A stack's per-run (B, k, d, d) matrices as per-block (B, d, d) stacks."""
    return [M[:, j] for M in mats for j in range(M.shape[1])]


class TestStackedAgainstOneProgram:
    B = 7

    def stacked_cases(self, seed):
        for rng, q, dims, cone in cases(seed):
            yield rng, q, dims, cone, _BatchCone(q, dims)

    def test_runs(self):
        cone = _BatchCone(5, [3, 2, 4, 4, 3])
        assert cone.runs == [(5, 1, 3), (8, 1, 2), (10, 2, 4), (18, 1, 3)]
        assert _BatchCone(4, [4, 4, 3, 3, 3]).runs == [(4, 2, 4), (12, 3, 3)]
        assert _BatchCone(2, []).runs == []

    def test_min_eig_prod_div_max_step(self):
        """min_eig and prod; and the scaling-held div, lambda o lambda and
        step search (one side at a time: the other direction is 0)."""
        for rng, q, dims, cone, batch in self.stacked_cases(21):
            U = np.array([interior(rng, q, dims) for _ in range(self.B)])
            V = rng.normal(size=U.shape) * 10.0 ** rng.uniform(-2, 2, size=(self.B, 1))
            W = np.array([interior(rng, q, dims) for _ in range(self.B)])
            for X in (U, V):
                assert batch.min_eig(X).tolist() == [cone.min_eig(x) for x in X]
            assert np.array_equal(batch.prod(U, V), np.array([cone.prod(u, v) for u, v in zip(U, V)]))
            scal, alone = _BatchScaling(batch, U, W), [_Scaling(cone, u, w) for u, w in zip(U, W)]
            assert same_bits(scal.div(V), [one.div(v) for one, v in zip(alone, V)])
            assert same_bits(scal.lam2, [one.lam2 for one in alone])
            zero = np.zeros(U.shape)
            for D in (V, -U, W):
                with np.errstate(divide="ignore"):  # a zero direction's root is 2c / 0 = inf, masked
                    steps = scal.max_step(D, zero), scal.max_step(zero, D)
                assert same_bits(steps[0], [one.max_step(d, z) for one, d, z in zip(alone, D, zero)])
                assert same_bits(steps[1], [one.max_step(z, d) for one, d, z in zip(alone, D, zero)])

    def test_boundary_rows_as_numpy(self):
        """Stacks of points next to the cone boundary, where lambda's
        determinant and step roots' denominators round to 0: each row is
        ``bad`` as the one-program scaling marks it, and each other row's
        div, lambda o lambda and step is the one-program scaling's and the
        reference's, inf and nan included."""
        rng, zero_dets = np.random.default_rng(25), 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for q, dims in CONES:
                cone, batch = _Cone(q, dims), _BatchCone(q, dims)
                for _ in range(20):
                    S = np.array([near_boundary(rng, q, dims) for _ in range(self.B)])
                    Z = np.array([near_boundary(rng, q, dims) for _ in range(self.B)])
                    V = rng.normal(size=S.shape)
                    scal, alone = _BatchScaling(batch, S, Z), [_Scaling(cone, s, z) for s, z in zip(S, Z)]
                    assert all(ref_interior(q, dims, u) for u in (*S, *Z))  # a bad row's lambda is on the boundary
                    assert scal.bad.tolist() == [one.bad for one in alone]
                    ok, kept = ~scal.bad, [one for one in alone if not one.bad]
                    zero_dets += int(scal.bad.sum())
                    assert same_bits(scal.div(V)[ok], np.reshape([ref_div(q, dims, one.lam, v)
                                                                  for one, v in zip(kept, V[ok])], (-1, S.shape[1])))
                    assert same_bits(scal.lam2[ok], np.reshape([ref_prod(q, dims, one.lam, one.lam) for one in kept],
                                                               (-1, S.shape[1])))
                    steps = [near_boundary_directions(rng, q, dims, u) for u in (*S, *Z)]
                    for k in range(3):
                        DS, DZ = np.array([d[k] for d in steps[: self.B]]), np.array([d[k] for d in steps[self.B :]])
                        got = scal.max_step(DS, DZ)[ok]
                        assert same_bits(got, [one.max_step(ds, dz) for one, ds, dz in zip(kept, DS[ok], DZ[ok])])
                        assert same_bits(got, [ref_step_both(q, dims, *row)
                                               for row in zip(S[ok], DS[ok], Z[ok], DZ[ok])])
        assert zero_dets

    def test_paired_kernels(self):
        """The step search runs (s, ds) and (z, dz) as one stack of 2B rows
        and reduces each row by one min; W and W^-1, the halves of one array
        per run, are applied by one matvec per run.  Each row is the
        one-program kernels' and the per-block reference fold's."""
        for rng, q, dims, cone, batch in self.stacked_cases(24):
            S = np.array([interior(rng, q, dims) for _ in range(self.B)])
            Z = np.array([interior(rng, q, dims) for _ in range(self.B)])
            DS = rng.normal(size=S.shape) * 10.0 ** rng.uniform(-2, 2, size=(self.B, 1))
            scal = _BatchScaling(batch, S, Z)
            for DZ in (-Z, rng.normal(size=Z.shape), np.array([interior(rng, q, dims) for _ in range(self.B)])):
                got = scal.max_step(DS, DZ).tolist()
                assert got == [_Scaling(cone, s, z).max_step(ds, dz) for s, ds, z, dz in zip(S, DS, Z, DZ)]
                assert got == [ref_step_both(q, dims, *row) for row in zip(S, DS, Z, DZ)]
            a, b = rng.normal(size=S.shape), rng.normal(size=S.shape)
            Wa, Wb = scal.apply_Winv(a), scal.apply_W(b)
            for i, (s, z) in enumerate(zip(S, Z)):
                one = _Scaling(cone, s, z)
                assert np.array_equal(Wa[i], one.apply_Winv(a[i])) and np.array_equal(Wb[i], one.apply_W(b[i]))

    def test_paired_step_on_special_rows(self):
        """Rows whose step is -0.0 (a root that underflows), rows on the
        boundary, where a root divides by zero, and rows with NaN and inf
        entries: the paired stack gives each the reference's step, the sign
        of a zero step included, and the one-program step where that row's
        scaling is not bad (one program never steps from a bad scaling)."""
        cone, batch = _Cone(1, [3]), _BatchCone(1, [3])
        neg_zero = ([1.0, -1.547212728748363e-162, -8.991741862857903e-163, 1.1701782156649257e-162],
                    [1.0, -3.8099158088267684, 40.503554911863354, -19.717138119913177])
        boundary = ([1.0, 1.0, 1.0, 0.0], [1.0, -1.0, -2.0, 0.0])
        inside = ([2.0, 3.0, 1.0, 0.5], [-1.0, -1.0, 0.5, 0.0])
        nan_orthant = ([np.nan, 3.0, 1.0, 0.5], [-1.0, -1.0, 0.5, 0.0])
        nan_block = ([1.0, np.nan, 1.0, 0.5], [1.0, -1.0, 0.5, 0.0])
        inf_block = ([1.0, np.inf, 1.0, 0.5], [1.0, -1.0, np.inf, 0.0])
        rows = [neg_zero, boundary, inside, nan_orthant, nan_block, inf_block]
        pairs = [(s, z) for s in rows for z in rows]
        S, DS, Z, DZ = (np.array([pair[i][j] for pair in pairs]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        with np.errstate(all="ignore"):
            scal = _BatchScaling(batch, S, Z)
            got = scal.max_step(DS, DZ)
            want = [ref_step_both(1, [3], *row) for row in zip(S, DS, Z, DZ)]
            alone = [_Scaling(cone, s, z) for s, z in zip(S, Z)]
        assert same_bits(got, want)
        assert got[0] == 0.0 and np.signbit(got[0]) and np.isnan(got).any() and (got == np.inf).any()
        good = [i for i, one in enumerate(alone) if not one.bad]
        assert good and same_bits(got[good], [alone[i].max_step(DS[i], DZ[i]) for i in good])

    def test_scaling(self):
        for rng, q, dims, cone, batch in self.stacked_cases(22):
            S = np.array([interior(rng, q, dims) for _ in range(self.B)])
            Z = np.array([interior(rng, q, dims) for _ in range(self.B)])
            if dims:  # a row whose s left the cone in the first block, and one whose z did in the last
                S[1, q + 1] = 10.0 * S[1, q]
                last = S.shape[1] - dims[-1]
                Z[4, last + 1] = 10.0 * Z[4, last]
            with np.errstate(invalid="ignore"):
                scal = _BatchScaling(batch, S, Z)
            alone = [_Scaling(cone, s, z) for s, z in zip(S, Z)]
            assert scal.bad.tolist() == [one.bad for one in alone]
            Ws, Winvs = per_block(scal.soc_W), per_block(scal.soc_Winv)
            assert len(Ws) == len(Winvs) == len(dims)
            for i, one in enumerate(alone):
                assert np.array_equal(scal.w_lp[i], one.w_lp)
                if one.bad:
                    continue
                assert all(np.array_equal(W[i], w) for W, w in zip(Ws, one.soc_W))
                assert all(np.array_equal(W[i], w) for W, w in zip(Winvs, one.soc_Winv))
                assert np.array_equal(scal.lam[i], one.lam)
                v = rng.normal(size=S.shape[1])
                assert np.array_equal(scal.apply_Winv(np.tile(v, (self.B, 1)))[i], one.apply_Winv(v))

    def test_scaling_flags_blocks_in_minus_the_cone(self):
        """A block with a negative head and |head| > |tail| lies in -int(K),
        where rho > 0 as inside K: both kernels flag its row bad."""
        cone, batch = _Cone(1, [3]), _BatchCone(1, [3])
        good, flipped = np.array([1.0, 2.0, 0.5, 0.5]), np.array([1.0, -2.0, 0.5, 0.5])
        S = np.array([flipped, good, good])
        Z = np.array([good, flipped, good])
        with np.errstate(invalid="ignore"):
            scal = _BatchScaling(batch, S, Z)
        assert scal.bad.tolist() == [_Scaling(cone, s, z).bad for s, z in zip(S, Z)] == [True, True, False]

    def test_dot_and_mv_are_per_row_matmul(self):
        """``np.vecdot`` and ``np.matvec``, the stacked products of presolve and
        the residual check, give each row the bits of ``@`` on that row alone,
        with strided vectors and transposed matrices as the solver passes them."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            B, m, n = rng.integers(1, 9), rng.integers(0, 20), rng.integers(0, 20)
            scale = 10.0 ** rng.uniform(-6, 6, size=(B, 1))
            M = rng.normal(size=(B, m, n)) * scale[:, :, None]
            Mt = np.swapaxes(rng.normal(size=(B, n, m)), -1, -2) * scale[:, :, None]
            v = rng.normal(size=(B, 2 * n + 1))[:, 1::2] * scale  # strided rows
            u = rng.normal(size=(B, n + 2))[:, 2:] * scale  # offset rows
            for mat in (M, Mt):
                got = np.matvec(mat, v)
                assert got.shape == (B, m)
                assert all(np.array_equal(got[i], mat[i] @ v[i]) for i in range(B))
            assert np.vecdot(u, v).tolist() == [u[i] @ v[i] for i in range(B)]


class TestPythonPowers:
    """The per-instance powers are Python float powers: beta = ratio ** 0.25
    in both scalings, and a stack's tau ** 2 (``_squares``) and sigma ** 3
    (``_sigmas``).  Each gives the bits of numpy's scalar power, which the
    one-program loop takes (numpy's array power rounds otherwise), on random
    values over the whole range and on the edges: subnormals, 0, 1, the
    largest floats, inf, and where a square starts to overflow, which Python
    raises on and ``_squares`` gives as inf."""

    EDGES = [0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-160, 1e-105, 1.0, 1e154,
             math.nextafter(2.0 ** 512, 0.0), 2.0 ** 512, 1e308, np.finfo(float).max, math.inf]

    def values(self, seed):
        rng = np.random.default_rng(seed)
        return self.EDGES + rng.integers(1, 0x7FF0000000000000, 20000).view(np.float64).tolist()  # finite, > 0

    def test_quarter_powers(self):
        values = self.values(31)
        with np.errstate(all="ignore"):
            assert same_bits([v ** 0.25 for v in values], [np.float64(v) ** 0.25 for v in values])

    def test_squares(self):
        values = self.values(32)
        with np.errstate(all="ignore"):
            want = [np.float64(v) ** 2 for v in values]
        assert math.isinf(want[self.EDGES.index(2.0 ** 512)]) and not math.isinf(want[9])
        assert same_bits(_squares(np.array(values)), want)

    def test_squares_of_any_float_a_stopped_row_holds(self):
        """A stopped row of a stacked run keeps its place, and its tau, which
        may be any float, reaches ``_squares`` on every later pass: a huge
        negative one squares to inf as a huge positive one does (Python raises
        on it), NaN stays NaN, and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _squares(np.array([-2.0 ** 600, 2.0 ** 600, -math.inf, math.inf, math.nan, -3.0]))
        assert same_bits(got, [math.inf, math.inf, math.inf, math.inf, math.nan, 9.0])

    def test_sigmas(self):
        rng = np.random.default_rng(33)
        values = self.values(34)
        g = np.array([*values, *(-v for v in values), math.nan, *rng.uniform(0.0, 1.0, 20000)])
        with np.errstate(all="ignore"):
            assert same_bits(_sigmas(g), [_sigma(v) for v in g])


def bisect_step(cone, u, du, hi=1e6):
    """sup {alpha in [0, hi] : u + alpha du in K} by bisection on min_eig."""
    if cone.min_eig(u + hi * du) >= 0:
        return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cone.min_eig(u + mid * du) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


class TestConeBehaviour:
    def test_max_step_matches_bisection(self):
        for rng, q, dims, cone in cases(8):
            u = interior(rng, q, dims, margin=0.5)
            du = rng.normal(size=u.size) * u.max()
            alpha = _Scaling(cone, u, u).max_step(du, np.zeros(u.size))
            want = bisect_step(cone, u, du)
            if math.isinf(want):
                assert math.isinf(alpha)
            else:
                assert abs(alpha - want) <= 1e-7 * max(1.0, want)
                assert cone.min_eig(u + 0.999 * alpha * du) >= 0
                assert cone.min_eig(u + 1.001 * alpha * du) < 0

    def test_max_step_inf_for_directions_inside_the_cone(self):
        for rng, q, dims, cone in cases(9):
            scal = _Scaling(cone, interior(rng, q, dims), interior(rng, q, dims))
            assert scal.max_step(interior(rng, q, dims), interior(rng, q, dims)) == math.inf
            assert scal.max_step(np.zeros(cone.dim), np.zeros(cone.dim)) == math.inf

    def test_nesterov_todd_identities(self):
        for rng, q, dims, cone in cases(10):
            s, z = interior(rng, q, dims, margin=0.5), interior(rng, q, dims, margin=0.5)
            scal = _Scaling(cone, s, z)
            assert np.array_equal(scal.apply_W(z), scal.lam)
            lam = scal.lam
            assert np.allclose(scal.apply_Winv(s), lam, rtol=1e-12, atol=1e-12 * np.abs(lam).max())
            for W, Winv in zip(scal.soc_W, scal.soc_Winv):
                assert np.allclose(W @ Winv, np.eye(W.shape[0]), rtol=0.0, atol=1e-12)
                assert np.array_equal(W, W.T)
