"""Write the reference outputs that eval_grid and batch_cli are checked against.

    python3 perfbench/make_reference.py

Solves every eval_grid point and runs every batch_cli job once, serially, at
the checked-out commit, and writes ``perfbench/reference/eval_grid.json``
(status and eta per point) and ``perfbench/reference/batch_cli.json`` (exit
code and CSV per job, wall_ms column removed).  Rerun it only when a change
is meant to alter those outputs, and say so in the change.
"""

import json
import tempfile
from pathlib import Path

import workloads
from screwgrasp import metric, scenarios


def eval_grid_reference() -> dict:
    points = []
    for name, params, d in workloads.eval_grid_points():
        r = metric.local_metric(scenarios.builtin_scenario(name, **params).problem(), d)
        points.append({"key": workloads.point_key(name, params, d), "status": r.status, "eta": r.eta})
    return {"eta_rtol": workloads.ETA_RTOL, "points": points}


def batch_cli_reference() -> dict:
    jobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in workloads.BATCH_JOBS:
            code, text = workloads.run_cli_job(list(argv), Path(tmp) / f"{name}.csv")
            jobs.append({"name": name, "argv": list(argv), "exit": code,
                         "csv": workloads.csv_without_wall_ms(text)})
    return {"jobs": jobs}


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, ref in (("eval_grid", eval_grid_reference()), ("batch_cli", batch_cli_reference())):
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(workloads.ROOT)}")


if __name__ == "__main__":
    main()
