"""Count the KKT factorizations that meet an exactly zero pivot.

    python3 tools/kkt_census.py
    python3 tools/kkt_census.py --root ../parent

Every ``dsytrf`` call of the solver is counted while these corpora are
solved, each program alone:

* ``eval_grid``: the benchmark's 412 grid programs, at the default settings
  and at (feasibility_tol, duality_gap_tol) = (1e-10, 1e-10) and (1e-11, 1e-12);
* ``corpus``: the 2000-draw fuzz corpus of ``perfbench/workloads.py``, at its
  settings (``FUZZ_SETTINGS``) and at the defaults;
* law-battery transforms of the corpus, at ``FUZZ_SETTINGS``: the contacts in
  reverse order, every finite ``f_n_max`` times 2 and times 0.5,
  ``scale_problem(p, 3)`` and ``transform_problem`` with a seeded rigid motion;
* ``documents``: seeded mutations of the bundled scenario files, one to three
  numbers each scaled by 1e3, 1e-3, 1e100, 1e-100, -1 or 0; every task of a
  document that loads is solved in both directions at the default settings.

Each corpus prints one line: its solves, the programs that failed to load or
compile, the ``dsytrf`` calls, the matrices that met an exactly zero pivot
(INFO > 0), the factorizations that succeeded on a retry right after one (a
retry rescue), the solves that met a zero pivot, and a digest of every
result's bytes (status, iterations, certificate, objective, residuals and
primal).  A corpus with solves that met a zero pivot adds a digest that
leaves out their certificates, and the count of each certificate text.
Run it on two checkouts (``--root``) and compare the lines.  Warnings are
ignored.  The default run takes about two minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import struct
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # the checkout to count, read before its packages are imported
    _parser = argparse.ArgumentParser(description="Count the KKT factorizations that meet a zero pivot.")
    _parser.add_argument("--root", type=Path, default=ROOT,
                         help="root of the checkout to count (default: the one holding this file)")
    _parser.add_argument("--documents", type=int, default=6000, help="mutated documents (default 6000)")
    _args = _parser.parse_args()
    ROOT = _args.root.resolve()
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402  (puts this checkout's src/ and tests/ on sys.path)
from screwgrasp import problem, scenarios, solver  # noqa: E402
from screwgrasp.errors import ScrewGraspError  # noqa: E402

import conftest  # noqa: E402  (tests/: the law battery's transforms)

FACTORS = (1e3, 1e-3, 1e100, 1e-100, -1.0, 0.0)


def result_bytes(res: solver.SolveResult) -> bytes:
    """Every field of a SolveResult that the arithmetic decides, as bytes (as ``tools/solve_digest.py`` takes them)."""
    objective = b"none" if res.objective is None else struct.pack("<d", res.objective)
    resid = struct.pack("<3d", res.residuals.primal, res.residuals.cone, res.residuals.gap)
    primal = b"none" if res.primal is None else res.primal.astype("<f8").tobytes()
    return f"{res.status}|{res.iterations}|{res.certificate}|".encode() + objective + resid + primal


class Counted:
    """``solver._sytrf`` with every call's INFO recorded, in order."""

    def __init__(self):
        self.inner, self.infos = solver._sytrf, []

    def __call__(self, a, lower):
        ldu, ipiv, info = self.inner(a, lower)
        self.infos.append(info)
        return ldu, ipiv, info


def census(name: str, programs, settings, counted: Counted) -> None:
    """Solve each program of ``programs`` (a ConicProgram, or None for one
    that failed to load or compile) alone and print the corpus's line."""
    digest, free_digest, certs = hashlib.sha256(), hashlib.sha256(), Counter()
    counts = Counter()
    for prog in programs:
        if prog is None:
            counts["rejected"] += 1
            continue
        start = len(counted.infos)
        res = solver.solve(prog, settings)
        infos = counted.infos[start:]
        counts["solves"] += 1
        counts["calls"] += len(infos)
        zero = [k for k, info in enumerate(infos) if info > 0]
        counts["zero"] += sum(1 for k in zero if k == 0 or infos[k - 1] == 0)  # the first of a run
        counts["rescued"] += sum(1 for k in zero if k + 1 < len(infos) and infos[k + 1] == 0)
        digest.update(result_bytes(res))
        if zero:
            counts["zero_solves"] += 1
            certs[res.certificate] += 1
            res = replace(res, certificate=None)
        free_digest.update(result_bytes(res))
    line = (f"{name}: solves={counts['solves']} rejected={counts['rejected']} dsytrf={counts['calls']} "
            f"zero_pivots={counts['zero']} rescued={counts['rescued']} zero_pivot_solves={counts['zero_solves']} "
            f"digest={digest.hexdigest()[:16]}")
    if counts["zero_solves"]:
        line += f" digest_but_zero_pivot_certificates={free_digest.hexdigest()[:16]} certificates={dict(certs)}"
    print(line, flush=True)


def compiled(pairs):
    """The compiled program of each (problem builder, direction) pair; None
    for a builder that is None (a document that failed to load) or a problem
    that fails to build or compile."""
    for build, direction in pairs:
        try:
            yield None if build is None else problem.compile_program(build(), direction)
        except ScrewGraspError:
            yield None


def corpus() -> list:
    """(problem, direction) of every draw of the fuzz corpus, in order."""
    draws = workloads.FuzzOracle(0)
    return [(p, d) for g in workloads.FUZZ_GENERATOR_SEEDS for p, d, _ in draws._draws(g)]


def reversed_contacts(p):
    return replace(p, manipulator_contacts=p.manipulator_contacts[::-1],
                   environment_contacts=p.environment_contacts[::-1])


def scaled_f_n_max(k: float):
    def scale(p):
        def one(c):
            return c if c.f_n_max is None or not np.isfinite(c.f_n_max) else replace(c, f_n_max=k * c.f_n_max)
        return replace(p, manipulator_contacts=tuple(map(one, p.manipulator_contacts)),
                       environment_contacts=tuple(map(one, p.environment_contacts)))
    return scale


def rigid_motion(seed: int):
    """A seeded rotation and translation for ``transform_problem``."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q, rng.uniform(-1.0, 1.0, 3)


def numbers(node, path=()):
    """The path of every number (not a bool) in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numbers(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numbers(value, (*path, i))
    elif isinstance(node, int | float) and not isinstance(node, bool):
        yield path


def mutated_documents(count: int, seed: int = 0):
    """(problem builder, direction) of every task of ``count`` seeded mutations
    of the bundled scenario files, both directions; a document that fails
    to load gives one pair, (None, +1)."""
    rng = np.random.default_rng(seed)
    bases = [json.loads(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "screwgrasp" / "data").glob("*.scenario"))]
    for _ in range(count):
        doc = copy.deepcopy(bases[rng.integers(len(bases))])
        paths = list(numbers(doc))
        for k in rng.choice(len(paths), size=min(len(paths), int(rng.integers(1, 4))), replace=False):
            *keys, last = paths[k]
            node = doc
            for key in keys:
                node = node[key]
            node[last] = node[last] * FACTORS[rng.integers(len(FACTORS))]
        try:
            s = scenarios.scenario_from_dict(doc)
        except ScrewGraspError:
            yield None, +1
            continue
        for label in s.task_labels():
            for direction in (+1, -1):
                yield (lambda s=s, label=label: s.problem(label)), direction


def main(documents: int) -> None:
    counted = Counted()
    solver._sytrf = counted
    warnings.simplefilter("ignore")
    grid = [(lambda n=n, q=q: scenarios.builtin_scenario(n, **q).problem(), d)
            for n, q, d in workloads.eval_grid_points()]
    for tols in (None, (1e-10, 1e-10), (1e-11, 1e-12)):
        settings = solver.SolveSettings() if tols is None else solver.SolveSettings(*tols)
        census(f"eval_grid {tols or 'default'}", compiled(grid), settings, counted)
    draws = corpus()
    for name, settings in (("FUZZ_SETTINGS", workloads.FUZZ_SETTINGS), ("default", solver.SolveSettings())):
        census(f"corpus {name}", compiled((lambda p=p: p, d) for p, d in draws), settings, counted)
    R0, t0 = rigid_motion(0)
    for name, move in (("reversed contacts", reversed_contacts), ("f_n_max x2", scaled_f_n_max(2.0)),
                       ("f_n_max x0.5", scaled_f_n_max(0.5)),
                       ("scale_problem 3", lambda p: conftest.scale_problem(p, 3.0)),
                       ("transform_problem", lambda p: conftest.transform_problem(p, R0, t0))):
        census(f"corpus {name}", compiled((lambda p=p: move(p), d) for p, d in draws), workloads.FUZZ_SETTINGS,
               counted)
    census(f"documents {documents}", compiled(mutated_documents(documents)), solver.SolveSettings(), counted)


if __name__ == "__main__":
    main(_args.documents)
