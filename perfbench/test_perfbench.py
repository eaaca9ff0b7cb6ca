"""Self-test of the benchmark at toy size (trials=10, ladder 64/128/256, degree=4).

    python3 -m pytest -q perfbench

Checks that every workload emits exactly the metrics ``BENCHMARK.json``
declares (and every name the benchmark was specified with), that traced and
untraced passes, and passes with the machine-speed reference between their
suites, give identical reports modulo timing, that traced counts repeat
exactly at one seed, and that the benchmark refuses to run without the
engine's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import reference
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((run.HERE / "layer_map.json").read_text())
SEED = 7

SPECIFIED_END_TO_END = {"setup_s", "verdict_s", "cpu_s", "peak_rss_mb", "ops_passed_ratio"}
SPECIFIED_PER_LAYER = {
    "liealg.calls", "liealg.self_s", "signs.calls", "signs.self_s",
    "paths.bracket.calls", "paths.bracket.self_s", "paths.pairing.calls",
    "paths.pairing.self_s", "paths.construct.calls", "paths.construct.self_s",
    "paths.random.self_s", "paths.self_s",
    "linfty.jacobi.calls", "linfty.jacobi.self_s", "linfty.jacobi.useful_ratio",
    "linfty.hom.calls", "linfty.hom.self_s", "linfty.two_hom.self_s", "linfty.self_s",
    "models.build.calls", "models.build.self_s", "models.exactness.calls",
    "models.exactness.self_s", "models.equivalence.self_s", "models.self_s",
    "kacmoody.calls", "kacmoody.self_s",
    "su2grid.sample.self_s", "su2grid.product.self_s", "su2grid.maurer_cartan.self_s",
    "su2grid.kappa.self_s", "su2grid.unitarize.self_s", "su2grid.validate.self_s",
    "su2grid.self_s", "su2grid.grid_mb", "twogroups.calls", "twogroups.self_s",
    "suites.self_s", "trace.overhead_ratio",
} | {f"suites.{name}.s" for name in (
    "gk-jacobi", "pkg-jacobi", "phi-hom", "psi-hom", "lambda-hom", "tau-2hom",
    "exactness", "equivalence", "omega-cocycle", "extended-jacobi", "dalpha-action",
    "kappa-cocycle", "ad-omega", "kappa-conjugation", "crossed-axioms",
    "two-group-axioms", "strict-exactness")}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert declared("per_layer") == {n: tracing.metric_unit(n)
                                     for n in tracing.metric_names()}
    assert SPECIFIED_END_TO_END <= set(declared("end_to_end"))
    assert SPECIFIED_PER_LAYER <= set(declared("per_layer"))
    mapped = [n for layer in LAYER_MAP["layers"] for n in layer["metrics"]]
    assert sorted(mapped) == sorted(declared("per_layer"))
    assert set(LAYER_MAP["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, details = run.measure(workload, SEED, 0.0, trace=False, toy=True)
    assert result["correct"], details["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    tail = details["verdict_s_tail"]
    assert tail["value"] > 0 and tail["samples"] >= 1 and 0 < tail["percentile"] <= 100
    assert len(details["raw_pass_wall_s"]) == len(details["pass_wall_s"])
    assert all(f > 0 for f in details["speed_factor"])
    if workload == "quad-ladder":
        assert all(3.0 <= q <= 5.0 for runs in details["ladder_ratios"].values()
                   for ratios in runs for q in ratios)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_repeats_counts(workload):
    # pass 0 is traced and must match the untraced fresh process byte for byte
    first, details = run.measure(workload, SEED, 0.0, trace=True, toy=True)
    assert first["correct"], details["failures"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")
    second, _ = run.measure(workload, SEED, 0.0, trace=True, toy=True)
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert second["metrics"][name]["value"] == metric["value"], name

    spans = np.load(run.ROOT / details["spans"]["file"])
    assert details["spans"]["recorded"] == len(spans["id"]) > 0
    parents = spans["parent"]
    assert np.all((parents == -1) | (parents < spans["id"]))
    assert np.all(spans["end"] >= spans["start"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_give_identical_reports(workload):
    from lie2.suites import RunConfig, run as verify, strip_wall_time
    configs = workloads.pass_configs(workload, SEED, 1, toy=True)
    plain = [strip_wall_time(verify(RunConfig(**kw))) for kw in configs]
    tracer = tracing.Tracer()
    tracer.install(1)
    try:
        traced = [strip_wall_time(verify(RunConfig(**kw))) for kw in configs]
    finally:
        tracer.uninstall()
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert sum(tracer.passes[0]["calls"]) > 0


def test_reference_sampling_leaves_reports_and_signals_as_they_were():
    import signal
    from lie2.suites import RunConfig, run as verify, strip_wall_time
    (kw,) = workloads.pass_configs("exact-sweep", SEED, 2, toy=True)
    plain = strip_wall_time(verify(RunConfig(**kw)))
    handler = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        t0, c0 = time.perf_counter(), time.process_time()
        timed = strip_wall_time(verify(RunConfig(**kw)))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    assert json.dumps(timed, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # samples on entry, on exit and from the timer in between
    assert len(sampler.wall) == len(sampler.cpu) >= 2 + int(wall / 2 / reference.INTERVAL_S)
    scaled_wall, scaled_cpu, raw_wall, raw_cpu = sampler.scaled(wall, cpu)
    assert 0 < raw_wall < wall and 0 < raw_cpu < cpu
    assert scaled_wall > 0 and scaled_cpu > 0


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(BENCH["command"] + ["--workload", "exact-sweep", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
