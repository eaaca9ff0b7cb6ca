"""The benchmark's workloads: which ``RunConfig``s make one pass, and the
correctness gate every pass must clear.

A pass is a list of ``RunConfig`` keyword dicts (JSON-safe up to the
``suites`` tuple, so a fresh interpreter can rebuild them); one operation is
one suite verdict inside it (on quad-ladder, one identity's ladder).  Each
pass derives ``RunConfig.seed`` from the benchmark seed and the pass index, so
pass 0 is the same in every process of one run.
"""

from __future__ import annotations

import hashlib

EXACT_SUITES = ("gk-jacobi", "pkg-jacobi", "phi-hom", "psi-hom", "lambda-hom",
                "tau-2hom", "equivalence", "omega-cocycle", "extended-jacobi",
                "dalpha-action")
QUAD_SUITES = ("kappa-cocycle", "ad-omega", "kappa-conjugation")
HOM_SUITES = ("phi-hom", "psi-hom", "lambda-hom")
RATIONAL_SUITES = ("exactness", "crossed-axioms", "two-group-axioms", "strict-exactness")
RATIONAL_DEGREE = 20

# k = 0 is left out: there phi2 and lam2 vanish identically, so the zeroed-phi2
# negative control of phi-hom and lambda-hom cannot fail and those suites
# report FAIL by design.
EXACT_CYCLE = [(-2.0, "linear"), (-1.0, "0,0,3,-2"), (1.0, "linear"), (2.0, "0,0,3,-2"),
               (-2.0, "0,0,3,-2"), (-1.0, "linear"), (1.0, "0,0,3,-2"), (2.0, "linear")]
LADDER = (128, 256, 512)
# toy sizes for the warm-up pass and the self-test; fewer than ~10 trials can
# leave a hom suite's negative control too small to count as failing
TOY_TRIALS = 10
TOY_LADDER = (64, 128, 256)
TOY_DEGREE = 4
LADDER_RATIO = (3.0, 5.0)  # second-order quadrature halves h: error ratio ~ 4
# A ladder is held to LADDER_RATIO only when its coarsest residual is resolved,
# i.e. above the identity's floor: a random fixture whose O(h^2) error terms
# nearly cancel shows no clean order, while a generic fixture's ratios only
# tighten towards 4 as h shrinks.  Measured over 140 fixtures (median n=128
# residuals: kappa-cocycle 1.3e-4, ad-omega 8.3e-6, kappa-conjugation 1.1e-4):
# kappa-cocycle ladders starting at 1.9e-7, 1.5e-6 and 5.1e-6 gave ratios
# (22, 0.94), (2.7, 3.5) and (7.1, 6.6); every ladder above 1e-5 stayed within
# [3.6, 4.4]; ad-omega stayed within [3.96, 4.01] down to 3.6e-8.  A
# first-order stencil error of generic size stays far above these floors.
LADDER_FLOORS = {"kappa-cocycle": 1e-5, "ad-omega": 1e-7, "kappa-conjugation": 1e-5}

WORKLOADS = ("verify-default", "exact-sweep", "quad-ladder", "rational-exact")


def pass_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def pass_configs(workload: str, seed: int, index: int, toy: bool = False) -> list[dict]:
    """Keyword dicts of the ``RunConfig``s that make up pass ``index``."""
    s = pass_seed(seed, index)
    if workload == "verify-default":
        return [{"seed": s, "trials": TOY_TRIALS} if toy else {"seed": s}]
    if workload == "exact-sweep":
        k, splitting = EXACT_CYCLE[index % len(EXACT_CYCLE)]
        return [{"suites": EXACT_SUITES, "trials": TOY_TRIALS if toy else 200, "degree": 4,
                 "k": k, "splitting": splitting, "seed": s}]
    if workload == "quad-ladder":
        return [{"suites": QUAD_SUITES, "nt": n, "ntheta": n, "seed": s}
                for n in (TOY_LADDER if toy else LADDER)]
    if workload == "rational-exact":
        return [{"suites": RATIONAL_SUITES, "degree": TOY_DEGREE if toy else RATIONAL_DEGREE,
                 "seed": s}]
    raise ValueError(f"unknown workload {workload!r}")


def check_pass(workload: str, reports: list[dict]) -> tuple[int, dict[str, str], dict]:
    """Operations attempted, failed operations ({"<config index>/<suite>": why})
    and the pass's recorded evidence (ladder residuals and ratios).

    The exactness and finite suites have tolerance 0, so their verdict already
    demands a residual of exactly 0; on rational-exact that is checked again
    here, apart from the verdict.

    On quad-ladder one operation is one identity's ladder, gated as in
    criterion 7: resolved ratios in ``LADDER_RATIO`` and the finest rung's
    verdict at the default tol_quad.  The coarse rungs are evidence, not
    verdicts: at n=128 kappa-cocycle exceeds tol_quad = 1e-3 on a few seeds in
    a hundred.
    """
    gated = reports[-1:] if workload == "quad-ladder" else reports
    offset = len(reports) - len(gated)
    failures: dict[str, str] = {}
    for c, report in enumerate(gated, start=offset):
        for entry in report["suites"]:
            name, why = entry["name"], None
            if not entry["passed"]:
                why = f"verdict FAIL, max_residual {entry['max_residual']!r}"
            elif workload == "rational-exact" and entry["max_residual"] != 0:
                why = f"residual {entry['max_residual']!r} is not exactly 0"
            elif name in HOM_SUITES and not (entry["details"]["mutation_residual"]
                                             > entry["details"]["mutation_floor"]):
                why = "negative control did not fail"
            if why:
                failures[f"{c}/{name}"] = why
    evidence = {}
    if workload == "quad-ladder":
        lo, hi = LADDER_RATIO
        for name in QUAD_SUITES:
            res = [[e for e in r["suites"] if e["name"] == name][0]["max_residual"]
                   for r in reports]
            ratios = [a / b if b > 0 else float("inf") for a, b in zip(res, res[1:])]
            resolved = res[0] > LADDER_FLOORS[name]
            evidence[name] = {"residuals": res, "ratios": ratios, "order_gated": resolved}
            if resolved and not all(lo <= q <= hi for q in ratios):
                failures.setdefault(f"{offset}/{name}",
                                    f"ladder ratios {ratios} outside [{lo}, {hi}]")
    return sum(len(r["suites"]) for r in gated), failures, evidence
