"""Named verification suites, deterministic configuration, and reports.

Each suite is stated once, as a ``SuiteSpec``: ``sample`` yields the inputs of
one block of trials at a time and ``evaluate`` maps them to
``{component: residual}``, one residual per trial of the block.  One generic
runner, ``_drive``, folds every suite's blocks through ``WorstCase``, so any
NaN residual fails the suite, and returns the suite's report entry as a plain
dict; it writes the witness of a failing suite as ``{"component", "inputs"}``
holding the one trial with the maximum, in ``lie2.replay``'s format.  A suite
whose spec states a ``mutant`` also folds its own spec again, on the bundle
with that one model mutated, and fails unless the mutant breaks the laws.  So
every FAIL is a residual over its tolerance, with its witness, or a mutant
that did not break its laws.

Every suite draws from its own generator seeded by (config.seed, ordinal), so
a report depends only on the configuration, never on execution order or on
the other suites of the run.  Replay relies on that: it runs the witnessed
suites again, alone, and compares their entries with the reported ones.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property, partial
from operator import attrgetter
from typing import Any, Callable, Iterable

import numpy as np

from . import kacmoody, su2grid, twogroups
from .liealg import InputError, LieAlgebraPresentation, load_presentation
from .linfty import (
    generalized_jacobi_residual,
    hom_residuals_once,
    hom_samples,
    jacobi_samples,
    random_elements,
    two_hom_residuals_once,
    two_hom_samples,
)
from .models import (
    ExactnessReport,
    ModelBundle,
    build_models,
    equivalence_residuals,
    equivalence_samples,
    exactness_records,
    splitting_deviation,
    splitting_samples,
)
from .paths import (
    LOOP,
    _derived,
    pointwise_bracket,
    random_path,
    validate_splitting,
)
from .worstcase import WorstCase

LINEAR = "linear"
# what a report means: the entries a run writes, which replay compares with
# those of a run at the report's config.  A change to them bumps it, and replay
# refuses a report of any other version
REPORT_VERSION = 1
# exactness ranks every degree from 2 to the configured one in one pass: at 64
# it passes in about 0.01 s, and with the ten polynomial suites in about 3.3 s,
# on 2 Xeon vCPUs (Python 3.11, numpy 2.4).  psi-hom brackets two paths of
# degree d through a (d+1)^2 x (2d+1) matrix, so its memory grows as d^3; that
# bounds the degree, and the splitting's degree d too (at most MAX_DEGREE + 1
# coefficients): a degree-64 splitting passes all 17 suites at the defaults in
# 1.4 s and 65 MiB peak RSS
MAX_DEGREE = 64
# the level enters only the polynomial suites (the quadrature suites report
# their defects at unit level), whose residuals are sized by the terms their
# laws cancel; at degree 4 they pass up to |k| = 1e300, and near 1e308 the
# level-k terms overflow.  At degree 2 three of them read about 1.6e-16 |k|
# and fail from about |k| = 1e6 (ROADMAP item 2).  The bound is the largest
# level the tests run them at
MAX_LEVEL = 1e12
# the three quadrature suites take about 0.5 microseconds per grid point on
# square grids and 0.85 on a few t-rows (2 vCPUs): at 2^23 points, 3.7-4.1 s at
# 2895 x 2895 and 6.7-7.4 s at 255 x 32767; the time grows with the grid
MAX_GRID_POINTS = 1 << 23
# a block of the kappa suites holds at least two t-rows of ntheta + 1 points,
# the last up to four, so their memory grows by about 1.2 KiB per theta sample:
# at nt = 9, whose last block holds four rows, they peak at 41.1, 55.9 and
# 75.3 MiB RSS at ntheta 2^12, 2^14 and 2^15 (68.8 MiB at nt = 8; numpy 2.4)
MAX_NTHETA = 1 << 15


@dataclass(frozen=True)
class RunConfig:
    algebra: str = "su2"
    k: float = 1.0
    degree: int = 4
    splitting: str = LINEAR
    nt: int = 256
    ntheta: int = 256
    seed: int = 20240601
    trials: int = 50
    tol_exact: float = 1e-10
    tol_quad: float = 1e-3
    suites: tuple[str, ...] = ("all",)

    def splitting_coeffs(self) -> np.ndarray:
        if self.splitting == LINEAR:
            return np.array([0.0, 1.0])
        try:
            coeffs = np.array([float(v) for v in self.splitting.split(",")])
        except ValueError as exc:
            raise InputError(f"cannot parse splitting {self.splitting!r}") from exc
        return validate_splitting(coeffs)

    @cached_property
    def presentation(self) -> LieAlgebraPresentation:
        return load_presentation(self.algebra)

    @cached_property
    def models(self) -> ModelBundle:
        """Every structure and morphism of this configuration, built once."""
        return build_models(self.presentation, self.k, self.splitting_coeffs(),
                            self.degree)

    @cached_property
    def exactness(self) -> list[ExactnessReport]:
        """The exactness report of every degree up to this one, ranked once."""
        return exactness_records(self.models, self.degree)

    @cached_property
    def fixtures(self) -> FixtureTable:
        """The finite fixtures of this run, each built and checked once."""
        return FixtureTable()

    def resolve_suites(self) -> list[str]:
        """The suites to run, each once, in first-given order; ``all`` (or none
        given) is every suite.  Every unknown name is refused, also beside
        ``all``."""
        names = list(dict.fromkeys(self.suites))
        unknown = [n for n in names if n != "all" and n not in REGISTRY]
        if unknown:
            raise InputError(f"unknown suites: {', '.join(unknown)}")
        return list(REGISTRY) if not names or "all" in names else names

    def validate(self) -> None:
        if not all(math.isfinite(v) for v in (self.k, self.tol_exact, self.tol_quad)):
            raise InputError("k and the tolerances must be finite")
        if self.trials <= 0:
            raise InputError("trials must be positive")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        if self.tol_exact <= 0 or self.tol_quad <= 0:
            raise InputError("tolerances must be positive")
        if not 2 <= self.degree <= MAX_DEGREE:
            raise InputError(f"polynomial degree must lie in [2, {MAX_DEGREE}], "
                             f"got {self.degree}")
        if abs(self.k) > MAX_LEVEL:
            raise InputError(f"level too large for float64 residuals: |k| must not "
                             f"exceed {MAX_LEVEL:g}, got k = {self.k:g}")
        if self.nt < 8 or self.ntheta < 8:
            raise InputError("grids need at least 8 intervals per axis")
        if (self.nt + 1) * (self.ntheta + 1) > MAX_GRID_POINTS:
            raise InputError(f"grid too large: (nt + 1)(ntheta + 1) must not exceed "
                             f"{MAX_GRID_POINTS}, got {(self.nt + 1) * (self.ntheta + 1)}")
        if self.ntheta > MAX_NTHETA:
            raise InputError(f"ntheta must not exceed {MAX_NTHETA}, got {self.ntheta}")
        count = self.splitting_coeffs().size
        if count > MAX_DEGREE + 1:
            raise InputError(f"the splitting takes at most {MAX_DEGREE + 1} coefficients "
                             f"(degree {MAX_DEGREE}), got {count}")
        names = self.resolve_suites()
        self.presentation  # loads and validates the algebra
        if any(name in GRID_SUITES for name in names):
            try:
                su2grid.check_grid_algebra(self.presentation)
            except InputError as exc:
                raise InputError(f"{', '.join(GRID_SUITES[:-1])} and {GRID_SUITES[-1]} "
                                 f"sample SU(2): {exc}") from exc


# ---------------------------------------------------------------------------
# suite specifications and the one generic runner
# ---------------------------------------------------------------------------

NOTES = "details"  # evaluate's entry for report details that are not residuals


@dataclass(frozen=True)
class SuiteSpec:
    """One suite, stated once.

    ``sample(config, rng)`` yields the inputs of one block of trials at a
    time (the polynomial suites take as many trials per block as draw at
    most ``linfty.BLOCK_NUMBERS`` uniform numbers, and the
    Jacobi suites yield each block once per live signature; the others take
    one trial);
    ``evaluate(config, inputs)`` returns
    ``{component: residual}``, each residual an array over the block or a
    number, and may add report details under ``NOTES``.  The optional
    ``mutant`` maps the config's models to a bundle that must break the
    suite's laws: after the trials, ``_mutation_control`` folds the spec over
    the mutated bundle on the same generator.  The reported trial count is
    the fold's (``WorstCase.count``): the trials of the suite's most-sampled
    component.  ``runner`` is ``_drive`` bound to this spec.
    """

    name: str
    ordinal: int
    identity: str
    sample: Callable[[RunConfig, np.random.Generator], Iterable]
    evaluate: Callable[[RunConfig, Any], dict]
    tolerance: Callable[[RunConfig], float] = attrgetter("tol_exact")
    mutant: Callable[[ModelBundle], ModelBundle] | None = None
    runner: Callable[[RunConfig, np.random.Generator], dict] | None = None

    def __post_init__(self):
        if self.runner is None:
            def runner(config: RunConfig, rng: np.random.Generator) -> dict:
                return _drive(self, config, rng)
            object.__setattr__(self, "runner", runner)


def _fold(spec: SuiteSpec, config: RunConfig,
          rng: np.random.Generator) -> tuple[WorstCase, dict]:
    """Stream the blocks through one ``WorstCase``; also returns the notes."""
    worst, notes = WorstCase(), {}
    for inputs in spec.sample(config, rng):
        residuals = spec.evaluate(config, inputs)
        if NOTES in residuals:
            notes.update(residuals.pop(NOTES))
        worst.add(residuals, inputs)
    return worst, notes


def _drive(spec: SuiteSpec, config: RunConfig, rng: np.random.Generator) -> dict:
    """Fold the blocks into the suite's report entry; a suite that checks more
    than one component reports the maximum of each in its details.  Only a
    failing suite slices its witness trial out of the block."""
    worst, notes = _fold(spec, config, rng)
    extra, control_ok = _mutation_control(spec, config, rng) if spec.mutant else ({}, True)
    tolerance = float(spec.tolerance(config))
    within = bool(worst.max_residual <= tolerance)  # false for NaN
    witness = None
    if not within:
        from .replay import serialize_element  # replay owns the witness format
        witness = {"component": worst.component, "inputs": serialize_element(worst.witness)}
    return {
        "name": spec.name,
        "trials": worst.count,
        "max_residual": float(worst.max_residual),
        "tolerance": tolerance,
        "passed": within and bool(control_ok),
        "witness": witness,
        "details": (worst.maxima if len(worst.maxima) > 1 else {}) | notes | extra,
    }


def _zero(config: RunConfig) -> float:
    return 0.0


# -- coherence of the models and their morphisms -------------------------------

MUTATION_FLOOR = 1e-2


def _jacobi_sample(model: str, config, rng):
    return jacobi_samples(getattr(config.models, model), rng, config.trials)


def _jacobi_evaluate(model: str, config, inputs):
    """One component per live signature, ``jacobi[d1,...,dn]``: each sees every trial."""
    name = f"jacobi[{','.join(str(d) for d, _ in inputs)}]"
    return {name: generalized_jacobi_residual(getattr(config.models, model), inputs)}


def _hom_sample(hom: str, config, rng):
    return hom_samples(getattr(config.models, hom), rng, config.trials)


def _hom_evaluate(hom: str, config, inputs):
    return hom_residuals_once(getattr(config.models, hom), *inputs)


def _double_bracket(models: ModelBundle) -> ModelBundle:
    """The path model with its bracket of paths doubled.  Twice a bracket is a
    bracket, but the differential no longer intertwines it with the action,
    d(l2(p, v)) = [p, dv] against l2(p, dv) = 2 [p, dv]: the mutant fails
    outside the level term, at any k and degree."""
    return replace(models, pkg=replace(models.pkg,
                                       l2_00=lambda p, q: 2.0 * pointwise_bracket(p, q)))


def _double_objects(hom: str) -> Callable[[ModelBundle], ModelBundle]:
    """The homomorphism with its object map doubled: images of brackets grow
    by 2 and brackets of images by 4, so the law d phi2(x, y) = phi0([x, y]) -
    [phi0 x, phi0 y] fails by 3 [phi0 x, phi0 y] - phi0([x, y]), in which no
    level term appears, at any k and degree."""
    def mutate(models: ModelBundle) -> ModelBundle:
        h = getattr(models, hom)
        return replace(models, **{hom: replace(h, phi0=lambda x: 2.0 * h.phi0(x))})
    return mutate


def _mutation_control(spec: SuiteSpec, config, rng):
    """Fold the spec over min(trials, 50) trials of the bundle its mutant
    makes, on the suite's generator; the mutant must fail.  The details give
    its residual, the floor it must exceed and the trials it folded."""
    mutated = replace(config, trials=min(config.trials, 50))
    mutated.__dict__["models"] = spec.mutant(config.models)  # fills the models cache
    worst = _fold(spec, mutated, rng)[0]
    return ({"mutation_residual": worst.max_residual, "mutation_floor": MUTATION_FLOOR,
             "mutation_trials": worst.count},
            worst.max_residual > MUTATION_FLOOR)


def _tau_sample(config, rng):
    return two_hom_samples(config.models.tau, rng, config.trials)


def _tau_evaluate(config, inputs):
    return two_hom_residuals_once(config.models.tau, *inputs)


def _exactness_sample(config, rng):
    return range(2, config.degree + 1)


def _exactness_evaluate(config, degree):
    r = config.exactness[degree]
    return {"exactness": 0.0 if r.passed else 1.0, NOTES: {f"degree_{degree}": asdict(r)}}


UNIVERSALITY = "splitting_integral_deviation"


def _equivalence_sample(config, rng):
    yield from equivalence_samples(config.models, rng, config.trials)
    for f in splitting_samples(rng):
        yield (UNIVERSALITY, f)


def _equivalence_evaluate(config, inputs):
    if inputs[0] == UNIVERSALITY:
        return {UNIVERSALITY: splitting_deviation(inputs[1])}
    return equivalence_residuals(config.models, inputs)


# -- the centrally extended loop algebra ---------------------------------------

def _omega_sample(config, rng):
    return random_elements(rng, config.trials, (config.models.el.space0,) * 3)


def _omega_worked_value(g) -> float:
    """Relative deviation of the worked value at level 1 from B_ij / 30: the
    bump (u - u^2) e_i against (u^2 - u^3) e_j, (i, j) the largest entry of
    the form, so the value is not 0 for any nonzero form (on the zero form it
    is 0, and so is the deviation)."""
    i, j = np.unravel_index(np.argmax(np.abs(g.form)), g.form.shape)
    f = _derived(g, np.outer(np.eye(g.dim)[i], [0.0, 1.0, -1.0]), LOOP)
    h = _derived(g, np.outer(np.eye(g.dim)[j], [0.0, 0.0, 1.0, -1.0]), LOOP)
    expected = g.form[i, j] / 30.0
    deviation = abs(kacmoody.omega(f, h, 1.0) - expected)
    return deviation / abs(expected) if deviation else 0.0


def _omega_evaluate(config, loops):
    return {"cocycle": kacmoody.omega_cocycle_residual(*loops, config.k),
            "worked_value": _omega_worked_value(config.presentation)}


def _extended_sample(config, rng):
    return random_elements(rng, config.trials, (config.models.pkg.space1,) * 3)


def _extended_evaluate(config, vs):
    return {"jacobi": kacmoody.extended_jacobi_residual(*vs, config.k)}


def _dalpha_sample(config, rng):
    """(p, loop, v, w): a based path, a loop and two central vectors."""
    pkg, el = config.models.pkg, config.models.el
    return random_elements(rng, config.trials, (pkg.space0, el.space0,
                                                pkg.space1, pkg.space1))


def _dalpha_evaluate(config, inputs):
    p, loop, v, w = inputs
    return {
        "derivation": kacmoody.dalpha_derivation_residual(p, v, w, config.k),
        "projection": kacmoody.dalpha_equivariance_residual(p, v, config.k),
        "loop_bracket": kacmoody.dalpha_matches_central_bracket_residual(
            loop, v, config.k),
    }


# -- group-scale suites: one smooth fixture each, sampled on the config's grid --

KAPPA_AMPLITUDE = 0.8
CONJ_PATH_AMPLITUDE = 0.6
ADOMEGA_PATH_AMPLITUDE = 0.5
ADOMEGA_LOOP_AMPLITUDE = 0.6


# the suites that pair su(2)-valued fields sampled on the config's grid; they
# report their defects at unit level, so they read neither k nor the form
GRID_SUITES = ("kappa-cocycle", "ad-omega", "kappa-conjugation")


def _loop_fields(rng, count: int) -> list[np.ndarray]:
    return [su2grid.random_loop_field_coeffs(rng, amplitude=KAPPA_AMPLITUDE).coeffs
            for _ in range(count)]


def _sampled_fields(config, coeffs) -> list:
    return [su2grid.LoopFieldCoeffs(c).stream(config.nt, config.ntheta) for c in coeffs]


def _kappa_cocycle_sample(config, rng):
    yield _loop_fields(rng, 3)


def _kappa_cocycle_evaluate(config, fields):
    return {"cocycle": su2grid.kappa_cocycle_residual(*_sampled_fields(config, fields))}


def _ad_omega_sample(config, rng):
    g = config.presentation
    path = su2grid.random_group_path_coeffs(rng, amplitude=ADOMEGA_PATH_AMPLITUDE).coeffs
    xi = ADOMEGA_LOOP_AMPLITUDE * random_path(g, rng, config.degree, LOOP)
    eta = ADOMEGA_LOOP_AMPLITUDE * random_path(g, rng, config.degree, LOOP)
    yield [path, xi, eta]


def _ad_omega_evaluate(config, inputs):
    path, xi, eta = inputs
    p = su2grid.GroupPathCoeffs(path).sample(config.ntheta)
    return {"invariance": su2grid.ad_omega_identity_residual(p, xi, eta)}


def _kappa_conjugation_sample(config, rng):
    path = su2grid.random_group_path_coeffs(rng, amplitude=CONJ_PATH_AMPLITUDE).coeffs
    yield [path, *_loop_fields(rng, 2)]


def _kappa_conjugation_evaluate(config, inputs):
    path, *fields = inputs
    p = su2grid.GroupPathCoeffs(path).sample(config.ntheta)
    return {"conjugation": su2grid.kappa_conjugation_identity_residual(
        p, *_sampled_fields(config, fields))}


# -- finite crossed-module suites: one fixture table per run --------------------

CROSSED_MODULES: dict[str, Callable[[], twogroups.FiniteCrossedModule]] = {
    "conj[Z5]": lambda: twogroups.conjugation_module(twogroups.cyclic_group(5)),
    "conj[S3]": lambda: twogroups.conjugation_module(twogroups.symmetric_group_3()),
    "conj[Q8]": lambda: twogroups.conjugation_module(twogroups.quaternion_group()),
    "trivial[S3,Z3]": lambda: twogroups.trivial_action_module(
        twogroups.symmetric_group_3(), twogroups.cyclic_group(3)),
    "incl[Z4<i><Q8]": lambda: twogroups.inclusion_module(
        twogroups.quaternion_group(), [0, 1, 2, 3], name="Z4<i>"),
}


class FixtureTable:
    """The finite fixtures of one run.  Each bundled crossed module and its
    2-group is built on first use, and the ``violations()`` of each crossed
    module or 2-group is evaluated on first query; every later use, by any
    suite of the run, reads the same object or list."""

    def __init__(self):
        self._built: dict[tuple, Any] = {}

    def _once(self, key: tuple, build: Callable[[], Any]) -> Any:
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def module(self, name: str) -> twogroups.FiniteCrossedModule:
        return self._once(("module", name), CROSSED_MODULES[name])

    def two_group(self, name: str) -> twogroups.FiniteTwoGroup:
        return self._once(("2-group", name),
                          lambda: twogroups.FiniteTwoGroup(self.module(name)))

    def point(self) -> twogroups.FiniteTwoGroup:
        """The one-point 2-group of the pairs; no suite reports it by itself."""
        return self._once(("2-group", "conj[Z1]"), lambda: twogroups.FiniteTwoGroup(
            twogroups.conjugation_module(twogroups.cyclic_group(1))))

    def violations(self, fixture: twogroups.FiniteCrossedModule | twogroups.FiniteTwoGroup
                   ) -> list[str]:
        """Read-only: the list is shared by every suite that reports it.  The
        entry keeps ``fixture`` alive, so its id is not reused in this run."""
        return self._once(("laws", id(fixture)),
                          lambda: (fixture, fixture.violations()))[1]


# each pair builds its homomorphisms over the table's 2-group where it has one
STRICT_PAIRS: dict[str, Callable[[FixtureTable], tuple[twogroups.TwoGroupHom,
                                                      twogroups.TwoGroupHom]]] = {
    "kernel-inclusion[Q8]": lambda table: twogroups.kernel_inclusion_pair(
        table.two_group("incl[Z4<i><Q8]")),
    "collapse[S3]": lambda table: twogroups.indiscrete_collapse_pair(
        table.two_group("conj[S3]"), table.point()),
    "identity[Z4]": lambda table: twogroups.identity_kernel_pair(
        twogroups.cyclic_group(4), table.point()),
}


def _module_sample(config, rng):
    return list(CROSSED_MODULES)


def _violations(name: str, bad: list[str]) -> dict:
    return {"violations": float(len(bad)), NOTES: {name: bad[:5]} if bad else {}}


def _crossed_evaluate(config, name):
    table = config.fixtures
    return _violations(name, table.violations(table.module(name)))


def _two_group_evaluate(config, name):
    table = config.fixtures
    grp = table.two_group(name)
    bad = table.violations(grp)
    if name.startswith("conj["):
        bad = bad + twogroups.unique_morphism_count_violations(grp)
    return _violations(name, bad)


def _strict_sample(config, rng):
    return list(STRICT_PAIRS)


def _strict_evaluate(config, name):
    """One count of every law of the pair: the crossed-module and 2-group laws
    of each distinct 2-group, both homomorphisms' laws, and image = kernel."""
    table = config.fixtures
    iota, pi = STRICT_PAIRS[name](table)
    record = twogroups.strict_kernel_exactness(iota, pi)
    groups = {id(g): g for g in (iota.src, iota.dst, pi.dst)}.values()
    # a 2-group over an out-of-range module reports the module's lines, once
    bad = [f"{g.cm.name}: {v}" for g in groups
           for v in dict.fromkeys(table.violations(g.cm) + table.violations(g))]
    bad += [f"{h.name}: {v}" for h in (iota, pi) for v in h.violations()]
    if not record.passed:
        bad.append("image is not the kernel")
    details = asdict(record) | ({"violations": bad[:5]} if bad else {})
    return {"exactness": float(len(bad)), NOTES: {name: details}}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, SuiteSpec] = {spec.name: spec for spec in (
    SuiteSpec(
        "gk-jacobi", 0,
        "graded Jacobi identity of the skeletal model: for n inputs, "
        "sum over unshuffles of chi(sigma) (-1)^(i(j-1)) l_j(l_i(...), ...) = 0; "
        "at n = 4 this is the closedness of the 3-form B(x, [y, z]).",
        partial(_jacobi_sample, "gk"), partial(_jacobi_evaluate, "gk")),
    SuiteSpec(
        "pkg-jacobi", 1,
        "graded Jacobi identity of the path model; its mixed-degree cases "
        "state that the twisted action dalpha of based paths on centrally "
        "extended loops is a Lie algebra action, jacobi[0,0,1]: dalpha([p1,p2]) "
        "= [dalpha(p1), dalpha(p2)], and that the differential intertwines it "
        "with the bracket of paths, jacobi[0,1].",
        partial(_jacobi_sample, "pkg"), partial(_jacobi_evaluate, "pkg"),
        mutant=_double_bracket),
    SuiteSpec(
        "phi-hom", 2,
        "coherence of the endpoint homomorphism: d(phi2(x,y)) = phi0(l2(x,y)) "
        "- l2(phi0 x, phi0 y); phi2(x, dh) = phi1(l2(x,h)) - l2(phi0 x, phi1 h); "
        "and the six-term corrector law against both Jacobiators.",
        partial(_hom_sample, "phi"), partial(_hom_evaluate, "phi"),
        mutant=_double_objects("phi")),
    SuiteSpec(
        "psi-hom", 3,
        "coherence of the splitting homomorphism x -> x f; its six-term law "
        "reduces to the universal value -1/6 of the integral of f (f - f^2)'.",
        partial(_hom_sample, "psi"), partial(_hom_evaluate, "psi"),
        mutant=_double_objects("psi")),
    SuiteSpec(
        "lambda-hom", 4,
        "coherence of the loop inclusion; its six-term law is exactly the "
        "2-cocycle condition of the loop cocycle, and its corrector is forced "
        "by the mixed-degree law.",
        partial(_hom_sample, "lam"), partial(_hom_evaluate, "lam"),
        mutant=_double_objects("lam")),
    SuiteSpec(
        "tau-2hom", 5,
        "the retraction p -> p - p(2 pi) f is a homotopy from (splitting o "
        "endpoint) to the identity: d tau = id0 - round_trip0, tau d = id1 - "
        "round_trip1, and from2(x,y) - to2(x,y) = l2(from0 x, tau y) + "
        "l2(tau x, to0 y) - tau(l2(x,y)).",
        _tau_sample, _tau_evaluate),
    SuiteSpec(
        "exactness", 6,
        "exact rank check that the loop inclusion hits precisely the kernel "
        "of endpoint evaluation, on objects and directions, degree by degree.",
        _exactness_sample, _exactness_evaluate, tolerance=_zero),
    SuiteSpec(
        "equivalence", 7,
        "(endpoint o splitting) is the identity of the skeletal model with "
        "vanishing corrector; the indiscrete model is trivialized by tau(x) = "
        "x; the splitting integral takes its universal value -1/6.  The "
        "retraction homotopy, which certifies the other composite, is "
        "tau-2hom's.",
        _equivalence_sample, _equivalence_evaluate),
    SuiteSpec(
        "omega-cocycle", 8,
        "loop cocycle omega(f,g) = 2k integral B(f, g') satisfies "
        "omega([f,g],h) + omega([g,h],f) + omega([h,f],g) = 0; its worked "
        "value omega_1((u - u^2) e_i, (u^2 - u^3) e_j) = B_ij / 30, (i, j) the "
        "largest entry of the form, pins its normalization.",
        _omega_sample, _omega_evaluate),
    SuiteSpec(
        "extended-jacobi", 9,
        "the twisted bracket [(f,a),(g,b)] = ([f,g], omega(f,g)) on loops + "
        "center satisfies the Jacobi identity.",
        _extended_sample, _extended_evaluate),
    SuiteSpec(
        "dalpha-action", 10,
        "the lifted action ([p,l], 2k integral B(p, l')) acts by derivations "
        "of the twisted bracket, is compatible with the projection to loops, "
        "and on a loop is the twisted bracket.  That it is a Lie algebra "
        "action is pkg-jacobi's jacobi[0,0,1].",
        _dalpha_sample, _dalpha_evaluate),
    SuiteSpec(
        "kappa-cocycle", 11,
        "the double integral A in the exponent of the cocycle kappa = "
        "exp(2ik A) on paths of loops satisfies A(f,g) + A(fg,h) = A(g,h) + "
        "A(f,gh); verified by second-order quadrature at unit level as "
        "2|defect|, of which the defect of kappa at level k and form c I is at "
        "most |k c| times.",
        _kappa_cocycle_sample, _kappa_cocycle_evaluate, tolerance=attrgetter("tol_quad")),
    SuiteSpec(
        "ad-omega", 12,
        "conjugation invariance of the loop cocycle: omega(Ad(p) xi, Ad(p) "
        "eta) - omega(xi, eta) = k beta_p([xi, eta]) with beta_p(xi) = "
        "-2 integral B(xi, p^-1 p'); both sides are linear in k, so it is "
        "checked at unit level.",
        _ad_omega_sample, _ad_omega_evaluate, tolerance=attrgetter("tol_quad")),
    SuiteSpec(
        "kappa-conjugation", 13,
        "conjugation rule for the cocycle: kappa(p f1 p^-1, p f2 p^-1) = "
        "kappa(f1,f2) exp(ik C), C the integral of the beta_p corrections, "
        "checked on the exponents at unit level: 2 A(p f1 p^-1, p f2 p^-1) "
        "= 2 A(f1,f2) + C.",
        _kappa_conjugation_sample, _kappa_conjugation_evaluate,
        tolerance=attrgetter("tol_quad")),
    SuiteSpec(
        "crossed-axioms", 14,
        "the group axioms of G and H (identity, two-sided inverses, "
        "associativity), then boundary and action compatibility of the bundled "
        "finite crossed modules: partial(alpha(g) h) = g partial(h) g^-1 and "
        "alpha(partial h1) h2 = h1 h2 h1^-1, exhaustively.",
        _module_sample, _crossed_evaluate, tolerance=_zero),
    SuiteSpec(
        "two-group-axioms", 15,
        "category axioms of the 2-group built on each crossed module: "
        "source/target/identity are homomorphisms, composition is defined "
        "exactly on matching pairs, units/associativity/interchange hold.",
        _module_sample, _two_group_evaluate, tolerance=_zero),
    SuiteSpec(
        "strict-exactness", 16,
        "image-equals-kernel on objects and morphisms for composable strict "
        "homomorphism pairs: subgroup inclusion vs quotient, indiscrete "
        "collapse, and the identity; with the laws of the pair's 2-groups and "
        "homomorphisms, one count of violations per pair.",
        _strict_sample, _strict_evaluate, tolerance=_zero),
)}


def describe(name: str) -> str:
    if name not in REGISTRY:
        raise InputError(f"unknown suite {name!r}")
    return f"{name}: {REGISTRY[name].identity}"


def _suite_rng(config: RunConfig, name: str) -> np.random.Generator:
    return np.random.default_rng((config.seed, REGISTRY[name].ordinal))


def run(config: RunConfig) -> dict:
    """Execute the configured suites and assemble the report document.  The
    suites run with numpy's floating-point warnings off, so an overflow shows
    only as the NaN residual that fails its suite."""
    config.validate()
    names = config.resolve_suites()
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        entries = [REGISTRY[name].runner(config, _suite_rng(config, name)) for name in names]
    passed = sum(1 for entry in entries if entry["passed"])
    return {
        "version": REPORT_VERSION,
        "config": asdict(config) | {"suites": list(config.suites)},
        "suites": entries,
        "summary": {
            "total": len(entries),
            "passed": passed,
            "failed": len(entries) - passed,
            "all_passed": passed == len(entries),
            "wall_time_s": time.perf_counter() - start,
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def strip_wall_time(report: dict) -> dict:
    clone = json.loads(json.dumps(report))
    clone["summary"].pop("wall_time_s", None)
    return clone
