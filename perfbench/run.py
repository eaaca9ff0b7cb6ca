"""Time-to-verdict benchmark of the lie2 verification engine.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.  Each
workload (see ``workloads.py``) is a list of ``RunConfig``s handed to
``lie2.suites.run``, the entry behind ``lie2 verify``; one pass runs them once
and one operation is one suite verdict.  The benchmark is single-threaded: one
process at a time, ``jobs=1`` and BLAS pools pinned to one thread.

A run
  1. starts a fresh interpreter (``probe.py``) that times ``import lie2`` plus
     validating the first config, runs pass 0 and reports its peak resident
     memory and its reports;
  2. warms up on one toy-size config, then runs passes back to back for
     ``--seconds`` seconds, gating every pass (``workloads.check_pass``) and
     requiring pass 0 to reproduce the fresh process's reports byte for byte;
     more set-up probes run between the passes.  Pass and set-up times are
     reported at the machine-speed reference of ``reference.py``, sampled
     from a timer while each untraced pass runs (and left out of its time);
  3. with ``--trace 1``, alternates traced and untraced passes and reports the
     per-layer figures of ``tracing.py`` instead of the end-to-end ones; the
     spans are written to ``perfbench/out/<workload>.spans.npz``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (scaled and
raw pass times, tail percentile, ladder ratios, environment).  Any failed operation makes the
exit code 1; missing engine sources make it 2.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
SU2_SAMPLE_BYTES = 4 * 16  # one 2x2 complex128 matrix


def probe(setup: dict, pass_configs: list[dict] | None = None) -> dict:
    request = json.dumps({"src": str(SRC), "setup": setup, "pass": pass_configs})
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), request],
                         capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def scaled_setup(probed: dict) -> float:
    """A probe's set-up time at the reference speed it measured after it."""
    return probed["setup_s"] * reference.REFERENCE_S / probed["reference_s"]


def setup_probe(config: dict) -> float:
    return scaled_setup(probe(config))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it, or the maximum when the run has
    too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def environment(configs: list[dict]) -> dict:
    import numpy
    from lie2.suites import RunConfig

    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return "unknown"

    model = next((line.split(":", 1)[1].strip()
                  for line in read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(index / "type") != "Instruction":
            caches[f"L{read(index / 'level')}"] = read(index / "size")
    llc_bytes = _size_bytes(caches.get("L3", caches.get("L2", "0K")))
    grids = []
    for kw in configs:
        cfg = RunConfig(**kw)
        if set(cfg.resolve_suites()) & set(workloads.QUAD_SUITES):
            grids.append({"nt": cfg.nt, "ntheta": cfg.ntheta,
                          "loop_field_bytes": (cfg.nt + 1) * (cfg.ntheta + 1) * SU2_SAMPLE_BYTES,
                          "group_path_bytes": (cfg.ntheta + 1) * SU2_SAMPLE_BYTES})
    largest = max((g["loop_field_bytes"] for g in grids), default=0)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_instance": caches,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "su2grid_arrays_computed": grids,
        "bandwidth_note": (
            f"largest su2grid array {largest / 2**20:.1f} MiB is below 4x the last-level "
            f"cache ({4 * llc_bytes / 2**20:.0f} MiB), so no bandwidth figure is claimed"
            if largest < 4 * llc_bytes else "su2grid arrays exceed 4x the last-level cache"),
    }


def _size_bytes(text: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    try:
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    except (ValueError, IndexError):
        return 0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    import lie2.suites as suites
    from lie2.suites import RunConfig, strip_wall_time

    first = workloads.pass_configs(workload, seed, 0, toy)
    # set-up probes are spread over the run so that they see the same machine
    # as the passes; the first one also writes the bytecode caches
    setup = [] if trace else [setup_probe(first[0])]
    fresh = probe(first[0], first)
    setup.append(scaled_setup(fresh))
    reference_reports = fresh["reports"]

    attempted, failed = 0, {}

    def gate(tag: str, reports: list[dict]) -> dict:
        nonlocal attempted
        ops, fails, evidence = workloads.check_pass(workload, reports)
        attempted += ops
        failed.update({f"{tag}/{op}": why for op, why in fails.items()})
        return evidence

    ladder = [gate("fresh", [json.loads(r) for r in reference_reports])]

    # warm-up on the smallest toy config: lazy imports and first-call costs
    suites.run(RunConfig(**workloads.pass_configs(workload, seed, 0, toy=True)[0]))

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    # untraced passes of an end-to-end run are timed against the machine-speed
    # reference (see reference.py); raw = pass time without the reference runs
    times = {False: [], True: []}
    raw_wall, raw_cpu, scaled_cpu, speed, spent = [], [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 0
        configs = workloads.pass_configs(workload, seed, index, toy)
        if traced:
            tracer.install(index)
        sampler = contextlib.nullcontext() if trace else reference.Sampler()
        began = time.perf_counter()
        try:
            with sampler:
                t0, c0 = time.perf_counter(), time.process_time()
                reports = [suites.run(RunConfig(**kw)) for kw in configs]
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        except Exception as exc:  # a raising pass counts as one failed operation
            attempted += 1
            failed[f"p{index}"] = f"raised {type(exc).__name__}: {exc}"
            break
        finally:
            if traced:
                tracer.uninstall()
        if not trace:
            wall, cpu, raw, raw_c = sampler.scaled(wall, cpu)
            raw_wall.append(raw)
            raw_cpu.append(raw_c)
            scaled_cpu.append(cpu)
            speed.append(wall / raw)
        times[traced].append(wall)
        spent.append(time.perf_counter() - began)
        ladder.append(gate(f"p{index}", reports))
        if index == 0:
            mine = [json.dumps(strip_wall_time(r), sort_keys=True) for r in reports]
            for c, (a, b) in enumerate(zip(mine, reference_reports)):
                if a != b:
                    failed[f"p0/{c}"] = "report differs from the fresh process's at one seed"
        index += 1
        if not trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(first[0]))
        elapsed = time.perf_counter() - start
        done = all(times[k] for k in ((False, True) if trace else (False,)))
        if done and elapsed + statistics.median(spent) > seconds:
            break

    while not trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(first[0]))

    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "pass_wall_s": times[False], "pass_cpu_s": scaled_cpu,
        "traced_pass_wall_s": times[True],
        "raw_pass_wall_s": raw_wall, "raw_pass_cpu_s": raw_cpu,
        "speed_factor": speed, "reference_s": reference.REFERENCE_S,
        "setup_s_samples": setup,
        "ops_failed_ratio": len(failed) / max(attempted, 1),
        "failures": dict(list(failed.items())[:20]),
        "environment": environment(first),
    }
    if workload == "quad-ladder":
        details["ladder_ratios"] = {name: [e[name]["ratios"] for e in ladder]
                                    for name in workloads.QUAD_SUITES}
        details["ladders_below_floor"] = {
            name: sum(not e[name]["order_gated"] for e in ladder)
            for name in workloads.QUAD_SUITES}

    metrics: dict[str, tuple[float, str]] = {}
    if times[False] and not trace:
        value, pct, beyond = tail(times[False])
        details["verdict_s_tail"] = {"value": value, "percentile": pct,
                                     "samples": len(times[False]), "beyond": beyond}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "verdict_s": (statistics.median(times[False]), "s"),
            "cpu_s": (statistics.median(scaled_cpu), "s"),
            "peak_rss_mb": (fresh["maxrss_kib"] / 1024.0, "MiB"),
            "ops_passed_ratio": (1.0 - len(failed) / max(attempted, 1), "ratio"),
        }
    elif tracer is not None and tracer.passes and times[False]:
        from tracing import metric_unit
        per_pass = [tracer.pass_metrics(p) for p in tracer.passes]
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            # counts come from the first traced pass, so they repeat exactly at one seed
            value = values[0] if name.endswith((".calls", "grid_mb", "useful_ratio")) \
                else statistics.median(values)
            metrics[name] = (value, metric_unit(name))
        metrics["trace.overhead_ratio"] = (
            statistics.median(times[True]) / statistics.median(times[False]), "ratio")
        spans = SPANS_DIR / f"{workload}.spans.npz"
        tracer.write_spans(spans)
        details["spans"] = {"file": str(spans.relative_to(ROOT)),
                            "recorded": len(tracer.span_start), "dropped": tracer.dropped}

    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lie2" / "__init__.py").is_file():
        print(f"lie2 sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
