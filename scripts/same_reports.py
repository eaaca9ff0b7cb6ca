#!/usr/bin/env python3
"""Compare the reports of this tree with those of another checkout.

    python3 scripts/same_reports.py PARENT_DIR

Runs one committed list of configurations (``configs``) in this tree and in
``PARENT_DIR``, each tree in a fresh interpreter on its own ``src``.  It
strips ``summary.wall_time_s`` from every report and prints every JSON path
at which a report of this tree differs from the parent's: a value, a type, an
entry present on one side only, or the order of an object's keys.  Exit code
0 when every report is the same, 1 on any difference, 2 when a tree cannot
run the list.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

FINITE_SUITES = ("crossed-axioms", "two-group-axioms", "strict-exactness")
BENCHMARK_SEED = 1
PASSES = range(3)

# runs in the tree under comparison: RunConfig keywords on stdin, reports out
RUN_CONFIGS = """
import json, sys
from lie2.suites import RunConfig, run
reports = [run(RunConfig(**{**kw, "suites": tuple(kw.get("suites", ("all",)))}))
           for kw in json.load(sys.stdin)]
json.dump(reports, sys.stdout)
"""


def configs() -> list[tuple[str, dict]]:
    """(label, ``RunConfig`` keywords) of every run compared: the defaults,
    k = 0, degree 2, a run that fails with witnesses, each finite suite
    alone, and passes 0-2 of every benchmark workload at seed 1."""
    out = [("defaults", {}), ("k 0", {"k": 0.0}), ("degree 2", {"degree": 2}),
           ("failing", {"tol_exact": 1e-20, "tol_quad": 1e-9})]
    out += [(f"{name} alone", {"suites": [name]}) for name in FINITE_SUITES]
    for workload in workloads.WORKLOADS:
        for index in PASSES:
            for c, kw in enumerate(workloads.pass_configs(workload, BENCHMARK_SEED, index)):
                out.append((f"{workload} pass {index} config {c}", kw))
    return out


def _cannot(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def reports(tree: Path, keywords: list[dict]) -> list[dict]:
    """The reports of ``tree`` at ``keywords``, wall time stripped."""
    if not (tree / "src" / "lie2").is_dir():
        _cannot(f"{tree} has no src/lie2")
    env = os.environ | {"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", RUN_CONFIGS], input=json.dumps(keywords),
                          capture_output=True, text=True, env=env, cwd=tree)
    if done.returncode:
        sys.stderr.write(done.stderr)
        _cannot(f"the configurations do not run in {tree}")
    out = json.loads(done.stdout)
    for report in out:
        report["summary"].pop("wall_time_s", None)
    return out


def differences(here, parent, path: str = "$"):
    """Every JSON path at which ``here`` differs from ``parent``."""
    if isinstance(here, dict) and isinstance(parent, dict):
        for key in [*here, *(k for k in parent if k not in here)]:
            if key not in parent:
                yield f"{path}.{key}: {json.dumps(here[key])} here, absent in the parent"
            elif key not in here:
                yield f"{path}.{key}: absent here, {json.dumps(parent[key])} in the parent"
            else:
                yield from differences(here[key], parent[key], f"{path}.{key}")
        order_here = [k for k in here if k in parent]
        order_parent = [k for k in parent if k in here]
        if order_here != order_parent:
            yield f"{path}: key order {order_here} here, {order_parent} in the parent"
    elif isinstance(here, list) and isinstance(parent, list):
        if len(here) != len(parent):
            yield f"{path}: {len(here)} items here, {len(parent)} in the parent"
        for i, (a, b) in enumerate(zip(here, parent)):
            yield from differences(a, b, f"{path}[{i}]")
    elif json.dumps(here) != json.dumps(parent):
        yield f"{path}: {json.dumps(here)} here, {json.dumps(parent)} in the parent"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: same_reports.py PARENT_DIR", file=sys.stderr)
        return 2
    runs = configs()
    keywords = [kw for _, kw in runs]
    ours, theirs = reports(ROOT, keywords), reports(Path(argv[0]).resolve(), keywords)
    differing = 0
    for (label, _), here, parent in zip(runs, ours, theirs):
        lines = list(differences(here, parent))
        differing += bool(lines)
        for line in lines:
            print(f"{label}: {line}")
    print(f"{differing} of {len(runs)} reports differ from the parent's "
          "(summary.wall_time_s stripped)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
