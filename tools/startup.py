"""Fresh-process start-up timing of this checkout against another.

    python3 tools/startup.py OTHER_CHECKOUT [--runs N]

Runs each of these in a new interpreter with ``PYTHONPATH`` set to the
checkout's ``src/``, N times for each checkout (default 9), the two
checkouts in turn and alternating which goes first:

* ``import screwgrasp.cli``;
* ``screw-grasp eval --builtin door_handle``;
* ``screw-grasp oracle-check --builtin door_handle --facets 64``.

For each command and checkout it prints the median, min and max of the
process's wall time, its CPU time (user + system) and its peak resident set
size (``ru_maxrss`` of that child alone, from ``os.wait4``).  A run that
exits non-zero stops the script.  ``tools/ab_solve.py`` times calls inside
one process, so it cannot see what a user pays before the first solve; this
can.  Run it from anywhere, with another checkout (for example a
``git archive`` of the parent commit) as the argument.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CLI = "import sys; from screwgrasp.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = {
    "import screwgrasp.cli": ["-c", "import screwgrasp.cli"],
    "eval --builtin door_handle": ["-c", _CLI, "eval", "--builtin", "door_handle"],
    "oracle-check --facets 64": ["-c", _CLI, "oracle-check", "--builtin", "door_handle", "--facets", "64"],
}


def run_once(checkout: Path, args: list[str]) -> tuple[float, float, float]:
    """(wall s, CPU s, peak RSS MB) of one fresh interpreter running ``args``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=checkout, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def summary(values: list[float], unit: str, digits: int) -> str:
    return (f"{statistics.median(values):.{digits}f} {unit} "
            f"({min(values):.{digits}f}-{max(values):.{digits}f})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the checkout to compare with")
    ap.add_argument("--runs", type=int, default=9, help="processes per command and checkout (default 9)")
    args = ap.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "screwgrasp").is_dir():
        ap.error(f"{other} has no src/screwgrasp")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sides = {"this": ROOT, "other": other}
    print(f"# this = {ROOT}\n# other = {other}\n# {args.runs} fresh processes per command and checkout")
    print("# median (min-max) of wall time, CPU time and peak RSS")
    for label, cmd in COMMANDS.items():
        got: dict[str, list[tuple[float, float, float]]] = {side: [] for side in sides}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                got[side].append(run_once(sides[side], cmd))
        print(f"\n{label}")
        for side, runs in got.items():
            wall, cpu, rss = zip(*runs)
            print(f"  {side:5}  wall {summary(wall, 's', 3)}  cpu {summary(cpu, 's', 3)}  "
                  f"rss {summary(rss, 'MB', 1)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
