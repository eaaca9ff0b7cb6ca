"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line printed per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from lie2.kacmoody import (
    dalpha_derivation_residual,
    extended_jacobi_residual,
    omega,
    omega_cocycle_residual,
)
from lie2.liealg import su2
from lie2.linfty import generalized_jacobi_residual, hom_residuals_once, hom_samples
from lie2.models import (
    build_models,
    exactness_records,
    make_pkg,
    splitting_deviation,
    splitting_samples,
)
from lie2.paths import LOOP, CentralVector, PolyPath, random_path
from lie2.suites import REGISTRY, RunConfig, run, strip_wall_time
from lie2.worstcase import largest

SPLITTINGS = ("linear", "0,0,3,-2")  # the linear one and the smoothstep 3u^2 - 2u^3
LEVELS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_universal_integral():
    start = time.perf_counter()
    worst = largest(*(splitting_deviation(f)
                      for f in splitting_samples(np.random.default_rng(1), 20, 8)))
    elapsed = time.perf_counter() - start
    _report("criterion-1", worst <= 1e-12 and elapsed < 1.0,
            f"splitting integral within {worst:.2e} of -1/6 over 20 random "
            f"admissible functions (limit 1e-12), {elapsed:.2f}s (limit 1s)")


def test_criterion_2_generalized_jacobi():
    start = time.perf_counter()
    worst = 0.0
    for k in LEVELS:
        config = RunConfig(k=k, trials=200, seed=2, suites=("gk-jacobi", "pkg-jacobi"))
        worst = largest(worst, *(s["max_residual"] for s in run(config)["suites"]))
    elapsed = time.perf_counter() - start
    _report("criterion-2", worst <= 1e-10 and elapsed < 30.0,
            f"graded Jacobi residual {worst:.2e} over all signatures n <= 4, "
            f"200 trials, levels {LEVELS} (limit 1e-10), {elapsed:.1f}s (limit 30s)")


def test_criterion_3_homomorphism_coherence():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for k in LEVELS:
        for f in SPLITTINGS:
            config = RunConfig(k=k, splitting=f, trials=200, seed=3,
                               suites=("phi-hom", "psi-hom", "lambda-hom"))
            worst = largest(worst, *(s["max_residual"] for s in run(config)["suites"]))
    floors = []
    for k in LEVELS:
        bundle = build_models(su2(), k)
        for suite, hom in (("phi-hom", "phi"), ("psi-hom", "psi"), ("lambda-hom", "lam")):
            h = getattr(REGISTRY[suite].mutant(bundle), hom)
            residuals = hom_residuals_once(h, *next(hom_samples(h, rng, 100)))
            floors.append(largest(*residuals.values()).max())
    elapsed = time.perf_counter() - start
    floor = np.min(floors)  # NaN if any control is NaN
    ok = worst <= 1e-10 and floor > 1e-2 and elapsed < 30.0
    _report("criterion-3", ok,
            f"hom residuals {worst:.2e} (limit 1e-10) over 200 trials, levels "
            f"{LEVELS}, two splittings; the doubled-object-map controls fail at "
            f"{floor:.2e} (floor 1e-2); {elapsed:.1f}s (limit 30s)")


def test_criterion_4_equivalence():
    start = time.perf_counter()
    worst_round_trip = 0.0
    worst_tau = 0.0
    worst_trivial = 0.0
    for f in SPLITTINGS:
        config = RunConfig(splitting=f, trials=100, seed=4, suites=("equivalence",))
        maxima = run(config)["suites"][0]["details"]
        worst_round_trip = largest(worst_round_trip, maxima["round_trip_identity"])
        worst_trivial = largest(worst_trivial, maxima["trivializer"])
        config = RunConfig(splitting=f, trials=200, seed=4, suites=("tau-2hom",))
        worst_tau = largest(worst_tau, run(config)["suites"][0]["max_residual"])
    elapsed = time.perf_counter() - start
    ok = (worst_round_trip <= 1e-12 and worst_tau <= 1e-10
          and worst_trivial == 0.0 and elapsed < 10.0)
    _report("criterion-4", ok,
            f"round trip off identity by {worst_round_trip:.2e} (limit 1e-12); "
            f"retraction homotopy residual {worst_tau:.2e} (limit 1e-10); "
            f"indiscrete trivializer exactly {worst_trivial}; "
            f"{elapsed:.1f}s (limit 10s)")


def test_criterion_5_exactness():
    g = su2()
    start = time.perf_counter()
    models = build_models(g, 1.0)
    ok = all(exactness_records(models, d)[-1].passed for d in range(2, 7))
    elapsed = time.perf_counter() - start
    _report("criterion-5", ok and elapsed < 5.0,
            f"loop image equals endpoint kernel by exact ranks for degrees "
            f"2..6, {elapsed:.2f}s (limit 5s)")


def test_criterion_6_kac_moody_layer():
    g = su2()
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst_cocycle = largest(*(
        omega_cocycle_residual(*(random_path(g, rng, 4, LOOP) for _ in range(3)), 1.0)
        for _ in range(200)))
    worst_jacobi = largest(*(
        extended_jacobi_residual(
            *(CentralVector(random_path(g, rng, 4, LOOP), float(rng.uniform(-1, 1)))
              for _ in range(3)), 1.0)
        for _ in range(200)))
    # the action law is the path model's Jacobi identity on signature (0, 0, 1)
    pkg = make_pkg(g, 1.0)
    worst_action = 0.0
    for _ in range(200):
        p1, p2 = random_path(g, rng, 4), random_path(g, rng, 4)
        v = CentralVector(random_path(g, rng, 4, LOOP), float(rng.uniform(-1, 1)))
        w = CentralVector(random_path(g, rng, 4, LOOP), float(rng.uniform(-1, 1)))
        worst_action = largest(worst_action,
                               generalized_jacobi_residual(pkg, [(0, p1), (0, p2), (1, v)]),
                               dalpha_derivation_residual(p1, v, w, 1.0))
    f = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0, -1.0]), LOOP)
    h = PolyPath(g, np.outer([1, 0, 0], [0.0, 0.0, 1.0, -1.0]), LOOP)
    fixture_dev = abs(omega(f, h, 1.0) - 1.0 / 30.0)
    elapsed = time.perf_counter() - start
    ok = (worst_cocycle <= 1e-10 and worst_jacobi <= 1e-10
          and worst_action <= 1e-10 and fixture_dev <= 1e-12 and elapsed < 10.0)
    _report("criterion-6", ok,
            f"cocycle {worst_cocycle:.2e}, twisted-bracket Jacobi "
            f"{worst_jacobi:.2e}, action/derivation {worst_action:.2e} "
            f"(limits 1e-10); worked value off 1/30 by {fixture_dev:.2e} "
            f"(limit 1e-12); {elapsed:.1f}s (limit 10s)")


def test_criterion_7_group_level_convergence():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    sizes = (128, 256, 512)

    # one fixture per identity, drawn in this order from the one generator
    fixtures = {name: next(REGISTRY[name].sample(RunConfig(), rng))
                for name in ("kappa-cocycle", "ad-omega", "kappa-conjugation")}

    def ladder(name):
        return [residual for n in sizes for residual in REGISTRY[name].evaluate(
            RunConfig(nt=n, ntheta=n), fixtures[name]).values()]

    kappa_res = ladder("kappa-cocycle")
    ad_res = ladder("ad-omega")
    conj_res = ladder("kappa-conjugation")
    elapsed = time.perf_counter() - start

    def second_order(r):
        return 3.0 <= r[0] / r[1] <= 5.0 and 3.0 <= r[1] / r[2] <= 5.0

    ok = (second_order(kappa_res) and kappa_res[-1] <= 2.5e-4
          and second_order(ad_res) and ad_res[-1] <= 1e-5
          and second_order(conj_res) and conj_res[-1] <= 1e-3
          and elapsed < 120.0)
    _report("criterion-7", ok,
            "second-order refinement 128->256->512 with finest residuals "
            f"cocycle {kappa_res[-1]:.2e} (limit 2.5e-4), conjugation-"
            f"invariance {ad_res[-1]:.2e} (limit 1e-5), exponentiated "
            f"conjugation {conj_res[-1]:.2e} (limit 1e-3); ratios "
            f"{kappa_res[0]/kappa_res[1]:.2f}/{kappa_res[1]/kappa_res[2]:.2f}, "
            f"{ad_res[0]/ad_res[1]:.2f}/{ad_res[1]/ad_res[2]:.2f}, "
            f"{conj_res[0]/conj_res[1]:.2f}/{conj_res[1]/conj_res[2]:.2f}; "
            f"{elapsed:.1f}s (limit 120s)")


def test_criterion_8_finite_two_groups():
    config = RunConfig()
    rng = np.random.default_rng(8)
    start = time.perf_counter()
    results = [REGISTRY[name].runner(config, rng)
               for name in ("crossed-axioms", "two-group-axioms", "strict-exactness")]
    elapsed = time.perf_counter() - start
    ok = all(r["passed"] and r["max_residual"] == 0.0 and r["tolerance"] == 0.0
             for r in results) and elapsed < 5.0
    _report("criterion-8", ok,
            "crossed-module, category, interchange, and kernel-exactness "
            f"checks all exact on bundled fixtures; {elapsed:.2f}s (limit 5s)")


def test_criterion_9_determinism():
    from lie2.suites import report_json
    config = RunConfig(trials=10, nt=64, ntheta=64, tol_quad=5e-2)
    first = report_json(strip_wall_time(run(config)))
    second = report_json(strip_wall_time(run(config)))
    ok = first == second
    _report("criterion-9", ok,
            "two identical configurations produce byte-identical reports "
            "modulo the wall-time field")
