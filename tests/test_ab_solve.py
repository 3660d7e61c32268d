"""``tools/ab_solve.py``, the interleaved A/B timing tool, run on this
checkout against itself."""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = ["solve_batch door sweep (41)", "solve_batch pivot sweep (17)", "solve_batch slide sweep (17)",
         "solve_batch gws_slide", "solve_batch corpus stacks", *(f"stack of {k} vs {k} singles (pivot)" for k in (1, 2, 3, 4))]


def test_checkout_against_itself():
    """The ``solve_batch`` and ``stack of`` cases, one call of each side:
    exit 0, and one line per case with its seven numbers, in under 10 s."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_solve.py"), str(ROOT), "--calls", "1",
                           "--batch-calls", "1", "--only", "solve_batch", "--only", "stack of"],
                          capture_output=True, text=True, cwd=ROOT, timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == [f"this: {ROOT}", f"other: {ROOT}"] and lines[2].startswith("case")
    assert len(lines) == 3 + len(CASES)
    for line, case in zip(lines[3:], CASES):
        assert line.startswith(case) and len([float(v) for v in line[len(case):].split()]) == 7, line
    assert elapsed < 10.0
