"""Print the statements of ``src/`` that the tests or the benchmark never run.

    python3 tools/traffic.py              # both reports
    python3 tools/traffic.py tier1        # the test suite's only
    python3 tools/traffic.py workloads    # the benchmark workloads' only

Each report is one line per statement that no traced run reached, as
``path:line: first line of the statement``, grouped by file, after a count.
``tier1`` runs the test suite under ``tests/`` in-process with pytest, as the
tier-1 command does; ``workloads`` runs the operations of
``perfbench/workloads.py``, read as ``tools/solve_digest.py`` reads them: one
block of ``eval_grid`` (``local_metric`` at each of the 412 grid points), one
block of ``batch_cli`` (its five CLI jobs, writing to a temporary directory)
and the whole 2000-draw ``fuzz_oracle`` corpus (each draw solved and checked
against the LP oracle).

Each report is traced in a fresh interpreter of its own (the two run side by
side), so that both see the package imported; ``sys.settrace`` records the
lines run in ``src/`` (nothing there starts a thread).  A statement counts as
run if any of its own lines ran: a compound statement's own lines are its
header, its body is statements of its own.  Lines that compile to no bytecode (docstrings, ``else:``) are never
reported.  What runs only in a child process (the tests that start the
console script) is not seen.  A run takes about 80 s on a 2-core machine.
Uses the standard library and pytest only.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PHASES = ("tier1", "workloads")


def record(phase: str, out: Path) -> None:
    """Run ``phase`` under the line tracer and write the lines it ran, per file, to ``out``."""
    prefix, hits = str(SRC) + "/", defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        if phase == "tier1":
            import pytest

            code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                f"--rootdir={ROOT}", str(ROOT / "tests")])
            if code not in (0, 1):  # 1: some test failed; its lines still count
                raise SystemExit(f"pytest exited {code}")
        else:
            run_workloads()
    finally:
        sys.settrace(None)
    out.write_text(json.dumps({f: sorted(lines) for f, lines in hits.items()}))


def run_workloads() -> None:
    """Each operation of the three workloads, as they run it, without the reference checks."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    from screwgrasp import metric, scenarios

    for name, params, direction in workloads.eval_grid_points():
        metric.local_metric(scenarios.builtin_scenario(name, **params).problem(), direction)
    with tempfile.TemporaryDirectory() as tmp:
        for _name, argv in workloads.BATCH_JOBS:
            workloads.run_cli_job(list(argv), Path(tmp) / "out.csv")
    corpus = workloads.FuzzOracle(seed=0)
    for gen_seed in workloads.FUZZ_GENERATOR_SEEDS:
        for case in corpus._draws(gen_seed):
            corpus.run(gen_seed, *case)


def statements(path: Path) -> list[tuple[int, set[int], str]]:
    """(line, own lines that compile to bytecode, first line) of each statement of ``path``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    executable, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        executable.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        stop = max(body[0].lineno, start + 1) if body else node.end_lineno + 1
        own = set(range(start, stop)) & executable
        if own:
            found.append((node.lineno, own, text[node.lineno - 1].strip()))
    return sorted(found)


def report(title: str, hits: dict[str, list[int]]) -> None:
    """Print the statements of ``src/`` none of whose own lines is in ``hits``."""
    lines, total = [], 0
    for path in sorted(SRC.rglob("*.py")):
        ran = set(hits.get(str(path), ()))
        stmts = statements(path)
        total += len(stmts)
        lines += [f"{path.relative_to(ROOT)}:{line}: {first}" for line, own, first in stmts if not own & ran]
    print(f"# {title}: {len(lines)} of {total} statements in src/")
    print("\n".join(lines))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:  # the child of one phase
        record(argv[1], Path(argv[2]))
        return 0
    phases = argv or list(PHASES)
    if not set(phases) <= set(PHASES):
        raise SystemExit(f"usage: traffic.py [{'] ['.join(PHASES)}]")
    with tempfile.TemporaryDirectory() as tmp:
        outs = {phase: Path(tmp) / f"{phase}.json" for phase in phases}
        children = [subprocess.Popen([sys.executable, __file__, "--record", phase, str(out)], cwd=ROOT,
                                     stdout=subprocess.DEVNULL) for phase, out in outs.items()]
        if any([child.wait() for child in children]):  # a list: wait for each
            raise SystemExit("a traced run failed")
        titles = {"tier1": "never run by tier-1", "workloads": "never run by the three workloads"}
        for phase, out in outs.items():
            report(titles[phase], json.loads(out.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
