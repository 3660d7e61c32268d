"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line.
Curve-level ground truth for the bundled setups exists only as plots, so
criteria 1-4 check the known quantitative point (the ~10 degree turning
limit) and the qualitative orderings instead of exact curve values;
criterion 10 records that substitution.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from conftest import mkprog, rot, scale_problem, soc, transform_problem
from screwgrasp.metric import local_metric, metric_sweep
from screwgrasp.problem import compile_program
from screwgrasp.scenarios import (
    CuboidParams,
    DoorHandleParams,
    builtin_scenario,
    cuboid_scenario,
    door_handle_scenario,
)
from screwgrasp.solver import SolveSettings, solve, solve_with_oracle

SETTINGS = SolveSettings()
# headroom for the 1e-6 invariance criteria without pushing the scenario
# problems onto the double-precision floor
FIRM = SolveSettings(feasibility_tol=1e-8, duality_gap_tol=1e-8)
# the closed-form unit problems are tiny and well-conditioned; they support
# the 1e-8 objective-accuracy criterion directly
PRECISE = SolveSettings(feasibility_tol=1e-9, duality_gap_tol=1e-10)
SLACK = 1e-6

X_C_GRID = [0.0, 0.05, 0.10, 0.15]  # 0, 0.25L, 0.5L, 0.75L of the 0.2 m handle
X_E_GRID = [0.06, 0.09, 0.12]  # 0.2L, 0.3L, 0.4L of the 0.3 m box
ALPHA_GRID = np.radians(np.arange(0, 61, 10))


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def door_family(x_c):
    return lambda theta: door_handle_scenario(DoorHandleParams(x_c=x_c, theta=float(theta))).problem()


def test_criterion_1_door_handle_turning_limit():
    t0 = time.perf_counter()
    thetas = np.radians(np.linspace(0.0, 40.0, 41))
    rows = metric_sweep(door_family(0.0), thetas, +1, SETTINGS)
    elapsed = time.perf_counter() - t0
    etas = [r.eta for r in rows]
    assert all(e is not None for e in etas)
    crossing = None
    for (t0_, e0), (t1_, e1) in zip(zip(thetas, etas), zip(thetas[1:], etas[1:])):
        if e0 >= 0.0 > e1:
            crossing = np.degrees(t0_ + e0 * (t1_ - t0_) / (e0 - e1))
            break
    ok = crossing is not None and 8.0 <= crossing <= 12.0 and elapsed < 5.0
    assert report(1, ok, f"eta(theta) crosses zero at {crossing:.2f} deg "
                         f"(target 10 +- 2), 41-point sweep in {elapsed:.2f} s (< 5 s)")


def test_criterion_2_door_handle_monotonicities():
    thetas = np.radians(np.linspace(0.0, 40.0, 41))
    table = {}
    for x_c in X_C_GRID:
        rows = metric_sweep(door_family(x_c), thetas, +1, SETTINGS)
        assert all(r.eta is not None for r in rows)
        table[x_c] = [r.eta for r in rows]
    violations = 0
    for x_c in X_C_GRID:  # nonincreasing in theta
        e = table[x_c]
        violations += sum(1 for a, b in zip(e, e[1:]) if b > a + SLACK)
    for i in range(len(thetas)):  # nondecreasing in x_c
        col = [table[x_c][i] for x_c in X_C_GRID]
        violations += sum(1 for a, b in zip(col, col[1:]) if b < a - SLACK)
    assert report(2, violations == 0,
                  f"eta nondecreasing in x_c and nonincreasing in theta on the "
                  f"41x4 grid ({violations} violations beyond {SLACK:g} slack)")


def test_criterion_3_pivot_trends():
    # direction +1 is the gravity-assisted sense; CW/CCW name the *resisted*
    # disturbance, so "+" (providing a CW moment) is the CCW curve and vice versa
    eta = {}
    for x_E in X_E_GRID:
        for a in ALPHA_GRID:
            p = cuboid_scenario(CuboidParams(alpha=float(a), x_E=x_E)).problem("S1")
            for d in (+1, -1):
                r = local_metric(p, d, SETTINGS)
                assert r.status == "Optimal"
                eta[(x_E, float(a), d)] = r.eta
    bad = []
    for x_E in X_E_GRID:
        ccw = [eta[(x_E, float(a), +1)] for a in ALPHA_GRID]
        cw = [eta[(x_E, float(a), -1)] for a in ALPHA_GRID]
        bad += [f"ccw@{x_E}" for a, b in zip(ccw, ccw[1:]) if b > a + SLACK]
        bad += [f"cw@{x_E}" for a, b in zip(cw, cw[1:]) if b < a - SLACK]
    for a in ALPHA_GRID:
        for d in (+1, -1):
            col = [eta[(x_E, float(a), d)] for x_E in X_E_GRID]
            bad += [f"x_E@{np.degrees(a):.0f}deg/{d}" for u, v in zip(col, col[1:]) if v <= u]
    assert report(3, not bad,
                  f"CCW eta nonincreasing / CW nondecreasing in alpha, strictly "
                  f"increasing in x_E (violations: {bad or 'none'})")


def test_criterion_4_slide_asymmetry():
    p = cuboid_scenario(CuboidParams(alpha=np.radians(50.0), x_E=0.12)).problem("S2")
    plus = local_metric(p, +1, SETTINGS)
    minus = local_metric(p, -1, SETTINGS)
    margin = plus.eta - minus.eta
    assert report(4, plus.status == minus.status == "Optimal" and margin > 0,
                  f"eta(+X) = {plus.eta:.4f} > eta(-X) = {minus.eta:.4f} "
                  f"(margin {margin:.4f} N) at alpha = 50 deg, x_E = 0.4L")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    t0 = time.perf_counter()
    worst_rel = 0.0
    ok = True
    for name in ("door_handle", "cuboid_pivot", "cuboid_slide"):
        for _ in range(5):
            if name == "door_handle":
                overrides = {"x_c": rng.uniform(0.05, 0.15), "theta": rng.uniform(0.0, np.radians(10))}
            else:
                overrides = {"alpha": rng.uniform(np.radians(10), np.radians(60)),
                             "x_E": rng.uniform(0.06, 0.15)}
            prog = compile_program(builtin_scenario(name, **overrides).problem())
            socp = solve(prog, SolveSettings(duality_gap_tol=1e-9))
            assert socp.status == "Optimal"
            prev = -np.inf
            for facets in (8, 16, 32, 64):
                lp = solve_with_oracle(prog, facets)
                ok &= lp.status == "Optimal"
                ok &= lp.objective <= socp.objective + 1e-8  # inscribed lower bound
                ok &= lp.objective >= prev - 1e-9  # gap monotone nonincreasing
                prev = lp.objective
            rel = (socp.objective - prev) / abs(socp.objective)
            worst_rel = max(worst_rel, rel)
            ok &= rel <= 0.02
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(5, ok, f"LP oracle below SOCP and monotone over facets 8-64 on 15 "
                         f"sampled scenarios; worst 64-facet gap {worst_rel * 100:.3f}% "
                         f"(<= 2%), {elapsed:.1f} s (< 60 s)")


def test_criterion_6_positive_homogeneity():
    worst = 0.0
    for name in ("door_handle", "cuboid_pivot", "cuboid_slide"):
        base_problem = builtin_scenario(name).problem()
        base = local_metric(base_problem, +1, FIRM).eta
        for k in (0.5, 2.0, 10.0):
            scaled = local_metric(scale_problem(base_problem, k), +1, FIRM).eta
            worst = max(worst, abs(scaled - k * base) / abs(k * base))
    assert report(6, worst <= 1e-6,
                  f"scaling bounds and external loads by k scales eta by k; "
                  f"worst relative deviation {worst:.2e} (<= 1e-6)")


def test_criterion_7_frame_invariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ("door_handle", "cuboid_pivot", "cuboid_slide"):
        problem = builtin_scenario(name).problem()
        base = local_metric(problem, +1, FIRM).eta
        for _ in range(20):
            axis = rng.normal(size=3)
            R0 = rot(axis, rng.uniform(0, 2 * np.pi))
            t0 = rng.uniform(-1.0, 1.0, size=3)
            moved = local_metric(transform_problem(problem, R0, t0), +1, FIRM).eta
            worst = max(worst, abs(moved - base) / abs(base))
    assert report(7, worst <= 1e-6,
                  f"rigid re-framing leaves eta unchanged; worst relative "
                  f"change {worst:.2e} over 20 transforms x 3 scenarios (<= 1e-6)")


def test_criterion_8_solver_unit_suite():
    box = mkprog([1.0], np.zeros((0, 1)), [], ub=[3.0])
    disk = mkprog([1.0, 1.0], np.zeros((0, 2)), [],
                  socs=[soc(np.eye(2), np.zeros(2), np.zeros(2), 1.0)])
    w = np.array([0.0, 0, 1, 0, 0, 0])
    forced = mkprog([1.0], (-w).reshape(6, 1), -2.0 * w)
    infeasible = mkprog([0.0, 1.0], [[1.0, 0.0]], [-5.0], lb=[0.0, -np.inf], ub=[np.inf, 3.0])
    unbounded = mkprog([0.0, 1.0], [[1.0, -1.0]], [0.0], lb=[0.0, -np.inf])

    errs = [
        abs(solve(box, PRECISE).objective - 3.0),
        abs(solve(disk, PRECISE).objective - np.sqrt(2.0)),
        abs(solve(forced, PRECISE).objective - 2.0),
    ]
    classified = (solve(infeasible, PRECISE).status == "Infeasible"
                  and solve(unbounded, PRECISE).status == "Unbounded")
    ok = max(errs) <= 1e-8 and classified
    assert report(8, ok, f"closed-form objectives within {max(errs):.2e} (<= 1e-8); "
                         f"infeasible/unbounded correctly classified: {classified}")


def test_criterion_9_per_solve_performance():
    cases = []
    for x_c in X_C_GRID:
        for theta in (0.0, 0.1, 0.3):
            cases.append(compile_program(door_handle_scenario(DoorHandleParams(x_c=x_c, theta=theta)).problem()))
    for task in ("S1", "S2"):  # pivot, slide
        for a in (0.0, 0.5, 1.0):
            for d in (+1, -1):
                cases.append(compile_program(cuboid_scenario(CuboidParams(alpha=a, x_E=0.12)).problem(task), d))
    for prog in cases:  # warm the BLAS/LAPACK paths once
        solve(prog, SETTINGS)
    worst = 0.0
    for prog in cases:
        t0 = time.perf_counter()
        res = solve(prog, SETTINGS)
        worst = max(worst, time.perf_counter() - t0)
        assert res.status == "Optimal"
    # target 50 ms; the criterion is non-blocking if missed by < 5x
    assert report(9, worst < 0.250,
                  f"worst solve {worst * 1e3:.1f} ms over {len(cases)} scenario instances "
                  f"(target 50 ms, hard limit 250 ms)")


def test_criterion_10_curve_values_not_reproducible_note():
    # the published figures carry no tables; criteria 1-4 substitute the
    # stated turning limit and orderings, which is what this suite enforces
    assert report(10, True, "exact curve values are not published; criteria 1-4 "
                            "substitute the stated quantitative point and orderings")
