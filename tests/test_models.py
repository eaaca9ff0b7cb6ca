from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lie2 import models as models_module
from lie2.liealg import load_presentation
from lie2.linfty import (
    CentralSpace,
    ChainHomotopy,
    PathSpace,
    compose,
    generalized_jacobi_residual,
    jacobi_samples,
    two_hom_residuals_once,
    two_hom_samples,
)
from lie2.models import (
    _exact_ranks,
    _integer_ranks,
    build_models,
    exactness_records,
    make_el,
    make_el_vectors,
    make_gk,
    make_pkg,
    splitting_deviation,
    splitting_samples,
    trivializing_homotopy,
)
from lie2.paths import BASED, LOOP, CentralVector, PolyPath, random_path
from lie2.suites import RunConfig, run
from lie2.worstcase import largest

SMOOTHSTEP = np.array([0.0, 0.0, 3.0, -2.0])  # 3u^2 - 2u^3
SPLITTINGS = ("linear", "0,0,3,-2")  # the same two, as RunConfig.splitting


def test_gk_level_zero_is_strict(g, rng):
    gk = make_gk(g, 0.0)
    for _ in range(5):
        assert gk.l3(*(rng.uniform(-1, 1, 3) for _ in range(3))) == 0.0


def test_gk_jacobiator_worked_value(g):
    gk = make_gk(g, 1.0)
    e = np.eye(3)
    assert gk.l3(e[0], e[1], e[2]) == pytest.approx(1.0)


def test_pkg_central_coefficient_worked_value(g):
    pkg = make_pkg(g, 1.0, 4)
    p = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0]), BASED)  # u e1
    loop = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0, -1.0]), LOOP)  # (u - u^2) e1
    out = pkg.l2_01(p, CentralVector(loop, 0.7))
    assert out.c == pytest.approx(-1.0 / 3.0)
    assert out.loop.norm() <= 1e-15  # same direction, bracket vanishes


def test_pkg_action_on_central_element_vanishes(g, rng):
    from lie2.paths import zero_path
    pkg = make_pkg(g, 1.0, 4)
    p = random_path(g, rng, 4)
    out = pkg.l2_01(p, CentralVector(zero_path(g, LOOP), 0.9))
    assert out.norm() == 0.0


def test_el_differential_is_identity(g, rng, draw):
    el = make_el(g, 4)
    h = draw(el.space1)
    assert (el.d(h) - h).norm() == 0.0
    assert all(np.all(generalized_jacobi_residual(el, inputs) <= 1e-13)
               for inputs in jacobi_samples(el, rng, 10))


def test_every_registered_model_passes_jacobi_at_depth(g, rng):
    # all three registered structures, every signature, 200 seeded trials
    report = run(RunConfig(trials=200, suites=("gk-jacobi", "pkg-jacobi")))
    assert all(s["max_residual"] <= 1e-10 for s in report["suites"])
    el = make_el(g, 4)
    assert all(np.all(generalized_jacobi_residual(el, inputs) <= 1e-10)
               for inputs in jacobi_samples(el, rng, 200))


def test_phi_endpoint_formulas(g, rng):
    phi = build_models(g, 1.0).phi
    x = rng.uniform(-1, 1, 3)
    p = PolyPath(g, np.outer(x, [0.0, 1.0]), BASED)
    assert np.allclose(phi.phi0(p), x)
    assert phi.phi2(p, p) == 0.0


def test_phi_corrector_worked_value(g):
    phi = build_models(g, 1.0).phi
    p1 = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0]), BASED)  # u e1
    p2 = PolyPath(g, np.outer([0, 1, 0], [0.0, 0.0, 1.0]), BASED)  # u^2 e2
    # B(e1, e2) = 0 here, so take parallel directions to see the integral
    p3 = PolyPath(g, np.outer([1, 0, 0], [0.0, 0.0, 1.0]), BASED)  # u^2 e1
    assert phi.phi2(p1, p2) == 0.0
    assert phi.phi2(p1, p3) == pytest.approx(1.0 / 3.0)


def test_psi_corrector_is_a_loop(g, rng):
    psi = build_models(g, 1.0, SMOOTHSTEP).psi
    x1, x2 = rng.uniform(-1, 1, (2, 3))
    out = psi.phi2(x1, x2)
    assert out.loop.kind == LOOP
    assert out.c == 0.0
    start, end = out.loop.eval_grid([0.0, 1.0])
    assert np.allclose(start, 0.0)
    assert np.allclose(end, 0.0, atol=1e-14)


def test_psi_linear_splitting_formula(g):
    psi = build_models(g, 1.0).psi
    e = np.eye(3)
    out = psi.phi2(e[0], e[1])
    expected = np.outer(e[2], [0.0, 1.0, -1.0])  # [e1,e2] (u - u^2)
    assert np.allclose(out.loop.coeffs, expected)


def test_lambda_image_in_kernel_of_endpoint(g, draw):
    bundle = build_models(g, 1.0)
    loop = draw(bundle.el.space0)
    assert np.allclose(bundle.phi.phi0(bundle.lam.phi0(loop)), 0.0, atol=1e-14)
    assert bundle.phi.phi1(bundle.lam.phi1(loop)) == 0.0


def test_phi_after_lambda_is_zero_hom(g, draw):
    bundle = build_models(g, 1.0)
    through = compose(bundle.phi, bundle.lam)
    l1 = draw(bundle.el.space0)
    l2 = draw(bundle.el.space0)
    assert np.allclose(through.phi0(l1), 0.0, atol=1e-14)
    assert through.phi1(l1) == 0.0
    assert through.phi2(l1, l2) == pytest.approx(0.0, abs=1e-13)


def test_lambda_corrector_is_central(g, draw):
    bundle = build_models(g, 1.0)
    out = bundle.lam.phi2(draw(bundle.el.space0), draw(bundle.el.space0))
    assert out.loop.norm() == 0.0


def test_lambda_corrector_on_equal_loops(g, draw):
    bundle = build_models(g, 1.0)
    loop = draw(bundle.el.space0)
    assert bundle.lam.phi2(loop, loop).norm() <= 1e-14


def test_lambda_corrector_forced_by_mixed_law():
    # the source differential is the identity, so the degree-mixing law homo2
    # solves for the corrector; it must match the closed form
    details = run(RunConfig(trials=20, suites=("lambda-hom",)))["suites"][0]["details"]
    assert details["homo2"] <= 1e-14


def test_tau_sends_paths_to_loops(g, rng):
    tau = build_models(g, 1.0).tau
    p = random_path(g, rng, 5)
    out = tau.tau(p)
    assert out.loop.kind == LOOP
    assert out.c == 0.0


def test_tau_kills_multiples_of_the_splitting(g, rng):
    tau = build_models(g, 1.0, SMOOTHSTEP).tau
    x = rng.uniform(-1, 1, 3)
    p = PolyPath(g, np.outer(x, SMOOTHSTEP), BASED)
    assert tau.tau(p).norm() <= 1e-15


def test_hom_residuals_all_levels_and_splittings():
    laws = ("phi-hom", "psi-hom", "lambda-hom", "tau-2hom")
    for k in (-1.0, 2.0):
        for splitting in SPLITTINGS:
            report = run(RunConfig(k=k, splitting=splitting, trials=40, suites=laws))
            assert all(s["max_residual"] <= 1e-12 for s in report["suites"])


def test_tau_coherence_invariant_under_splitting_change():
    for splitting in SPLITTINGS:
        config = RunConfig(splitting=splitting, trials=30, suites=("tau-2hom",))
        assert run(config)["suites"][0]["details"]["coherence"] <= 1e-12


def test_equivalence_laws_at_level_one():
    # the retraction homotopy, the equivalence's other composite, is tau-2hom's
    equivalence, tau = run(RunConfig(trials=30, suites=("equivalence", "tau-2hom")))["suites"]
    maxima = equivalence["details"]
    assert maxima["round_trip_identity"] <= 1e-13
    assert tau["max_residual"] <= 1e-12
    assert maxima["trivializer"] == 0.0


@pytest.mark.parametrize("splitting", SPLITTINGS)
def test_round_trip_corrector_is_sized_by_its_two_pairings(su2_file, splitting):
    # phi2(psi0 x, psi0 y) vanishes because its two pairings, each about
    # k B(x, y) / 2 for the form B = 1e3 I, cancel; stated as one term, sized
    # by the inputs alone, the roundoff of that cancellation read about 2e-5
    # (linear) and 7e-5 (smoothstep) here
    config = RunConfig(algebra=su2_file(1e3), k=1e9, splitting=splitting, trials=30,
                       suites=("equivalence",))
    assert run(config)["suites"][0]["details"]["round_trip_identity"] <= 1e-14


def test_trivializer_on_vector_model_is_exact(g, draw):
    el = make_el_vectors(g)
    triv = trivializing_homotopy(el)
    for _ in range(20):
        res = two_hom_residuals_once(
            triv, draw(el.space0), draw(el.space0),
            draw(el.space1))
        assert max(res.values()) == 0.0


@pytest.mark.parametrize("algebra", ["su2", "so3", "sl2"])
def test_exactness_all_degrees(algebra):
    models = build_models(load_presentation(algebra), 1.0)
    n = models.algebra.dim
    for degree in range(2, 21):
        report = exactness_records(models, degree)[-1]
        assert report.passed
        assert report.dim_paths == n * degree
        assert report.dim_loops == report.nullity_endpoint == n * (degree - 1)
        assert report.rank_loop_inclusion == n * (degree - 1)
        assert report.rank_endpoint == n


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_exactness_suite_checks_every_degree_from_2_to_the_config_degree(degree):
    entry = run(RunConfig(degree=degree, suites=("exactness",)))["suites"][0]
    assert entry["passed"] and entry["trials"] == degree - 1
    records = {key: record for key, record in entry["details"].items()
               if key.startswith("degree_")}
    assert list(records) == [f"degree_{d}" for d in range(2, degree + 1)]
    assert [r["dim_paths"] for r in records.values()] == [3 * d for d in range(2, degree + 1)]


@pytest.mark.parametrize("degree", [2, 4, 20])
def test_exactness_fails_for_endpoint_at_one_half(g, degree):
    # evaluation at u = 1/2 is still onto the algebra, but it no longer kills
    # the loops u^d - u; its images are not integral, so they are ranked exactly
    models = build_models(g, 1.0)
    mutant = replace(models, phi=replace(models.phi, phi0=lambda p: p.eval_grid([0.5])[..., 0, :]))
    assert exactness_records(models, degree)[-1].passed
    assert not exactness_records(mutant, degree)[-1].passed


@pytest.mark.parametrize("lift", [lambda l: CentralVector(l, 1.0),
                                  lambda l: CentralVector(0.0 * l, 0.0)],
                         ids=["off-the-kernel-of-phi1", "not-injective"])
def test_exactness_checks_the_directions(g, lift):
    models = build_models(g, 1.0)
    mutant = replace(models, lam=replace(models.lam, phi1=lift))
    assert not exactness_records(mutant, 4)[-1].passed


def fraction_rank(matrix: list[list[int]]) -> int:
    """Reference rank: Gauss-Jordan elimination over Fraction (a zero entry
    is left as the int 0, not converted, divided or reduced)."""
    m = [[Fraction(v) if v else 0 for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        m[rank] = [v / p if v else v for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def prefix_ranks(matrix: list[list]) -> list[int]:
    """Reference rank of each prefix of the rows."""
    return [fraction_rank(matrix[:i + 1]) for i in range(len(matrix))]


def sparse(matrix: list[list]) -> list[dict]:
    """The rows of a matrix as {column: nonzero entry}, the form _integer_ranks takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def integer_rank(rows: list[dict]) -> int:
    """The rank of all the rows: the last, and largest, of their prefix ranks."""
    return max(_integer_ranks(rows), default=0)


entries = st.one_of(st.integers(-2, 2), st.integers(-10**9, 10**9))
integer_matrices = st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
    lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


@given(integer_matrices)
def test_integer_rank_matches_fraction_oracle(matrix):
    assert _integer_ranks(sparse(matrix)) == prefix_ranks(matrix)


@given(st.integers(0, 2**32 - 1))
def test_integer_rank_of_deficient_products(seed):
    rng = np.random.default_rng(seed)
    rows, inner, cols = rng.integers(1, 9), rng.integers(0, 5), rng.integers(1, 9)
    a = rng.integers(-3, 4, size=(rows, inner))
    b = rng.integers(-3, 4, size=(inner, cols))
    product = (a @ b).tolist()
    # duplicate, negated and zero rows add no rank
    matrix = product + product[:2] + [[-v for v in product[0]], [0] * int(cols)]
    rank = integer_rank(sparse(matrix))
    assert rank == fraction_rank(matrix) <= inner
    assert integer_rank(sparse([list(col) for col in zip(*matrix)])) == rank


def matrices_of(values, rows: st.SearchStrategy, cols: st.SearchStrategy):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(st.lists(st.sampled_from(values), min_size=shape[1],
                                        max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


# mostly zeros, like the basis images exactness ranks, with entries past int64
SPARSE_ENTRIES = [0] * 8 + [1, -1, 10**9, -10**9, 2**62 + 1, -(2**70) - 3]
sparse_matrices = matrices_of(SPARSE_ENTRIES, st.integers(0, 12), st.integers(0, 12))


@given(sparse_matrices)
def test_integer_rank_of_sparse_matrices(matrix):
    # a zero column in front and a zero row last add no rank
    width = len(matrix[0]) if matrix else 0
    padded = [[0, *row] for row in matrix] + [[0] * (width + 1)]
    rank = fraction_rank(matrix)
    assert _integer_ranks(sparse(matrix)) == prefix_ranks(matrix)
    assert integer_rank(sparse(padded)) == rank
    assert integer_rank(sparse([list(col) for col in zip(*matrix)])) == rank


# a non-integral dyadic entry, or an integral one at or past 2^62, sends the
# whole matrix through _integer_row; the others are taken as int64
DYADIC_ENTRIES = [0.0] * 6 + [1.0, -1.0, 0.1, -1 / 3, 2.0**-40, 2.0**62, -(2.0**70), 1e9]
float_matrices = matrices_of(DYADIC_ENTRIES, st.integers(1, 10), st.integers(1, 10))


@given(float_matrices)
@example([[0.1, -1 / 3, 2.0**-40], [1.0, 0.0, 2.0**62]])
@example([[2.0**62, -(2.0**70)]])  # both rows integral, one past int64
def test_exact_rank_of_dyadic_floats(matrix):
    # a row times 2^-40 is an exact multiple of it and adds no rank
    m = np.array(matrix + [[x * 2.0**-40 for x in matrix[0]]])
    assert _exact_ranks(m) == prefix_ranks(m.tolist())


@pytest.mark.parametrize("k", [1.0, 0.0, -2.0])
@pytest.mark.parametrize("algebra", ["su2", "sl2"])
def test_exactness_closed_form(algebra, k):
    # on a 3-dimensional algebra, based paths of degree <= D have dimension 3D,
    # loops 3(D - 1), and the endpoint is onto the algebra
    models = build_models(load_presentation(algebra), k)
    for degree in range(2, 21):
        n = 3 * (degree - 1)
        assert astuple(exactness_records(models, degree)[-1]) == (3 * degree, n, 3, n, n, True)


def test_exactness_suite_makes_one_elimination_per_map(monkeypatch):
    # the based, loop and central bases and the images under phi0, phi1,
    # lam0 and lam1 are each ranked at every degree by one elimination; a
    # sweep that ranked each degree on its own would make 19 * 7 = 133
    calls = []

    def counted(rows, ranks=models_module._integer_ranks):
        calls.append(1)
        return ranks(rows)

    monkeypatch.setattr(models_module, "_integer_ranks", counted)
    entry = run(RunConfig(degree=20, suites=("exactness",)))["suites"][0]
    assert entry["passed"] and entry["trials"] == 19
    assert len(calls) == 7


def reference_rows(image) -> list[list[float]]:
    """The images of a batch of basis elements as the rows of a matrix, a
    central coordinate last; a path's coefficients highest degree first, which
    spares Gauss-Jordan the fill-in of the loops' common column u."""
    if isinstance(image, CentralVector):
        loop = reference_rows(image.loop)
        return [row + [c] for row, c in zip(loop, np.broadcast_to(image.c, len(loop)).tolist())]
    if isinstance(image, PolyPath):
        image = image.coeffs[..., ::-1]
    return np.reshape(image, (len(image), -1)).tolist()


def reference_record(models, degree: int) -> tuple:
    """The exactness report of one degree from that degree's own basis, every
    rank a Fraction elimination of the basis images."""
    g, phi, lam = models.algebra, models.phi, models.lam
    based, loops, central = (space.element(np.eye(space.width)) for space in (
        PathSpace(g, BASED, degree), PathSpace(g, LOOP, degree), CentralSpace(g, degree)))

    def rank(image) -> int:
        return fraction_rank(reference_rows(image))

    dim_paths, dim_loops, dim_central = rank(based), rank(loops), rank(central)
    rank_endpoint, rank_central = rank(phi.phi0(based)), rank(phi.phi1(central))
    included, lifted = lam.phi0(loops), lam.phi1(loops)
    rank_inclusion, rank_lift = rank(included), rank(lifted)
    nullity = dim_paths - rank_endpoint
    passed = (not (np.any(phi.phi0(included)) or np.any(phi.phi1(lifted)))
              and rank_inclusion == dim_loops == nullity
              and rank_lift == dim_loops == dim_central - rank_central
              and rank_endpoint == g.dim and rank_central == 1)
    return dim_paths, dim_loops, rank_endpoint, nullity, rank_inclusion, passed


MUTANTS = {
    "none": lambda models: models,
    # the mutants of the two tests above: the endpoint at u = 1/2 (dyadic,
    # not integral, images), a lift off the kernel of phi1, a lift that is 0
    "endpoint-at-one-half": lambda models: replace(models, phi=replace(
        models.phi, phi0=lambda p: p.eval_grid([0.5])[..., 0, :])),
    "off-the-kernel-of-phi1": lambda models: replace(models, lam=replace(
        models.lam, phi1=lambda l: CentralVector(l, 1.0))),
    "not-injective": lambda models: replace(models, lam=replace(
        models.lam, phi1=lambda l: CentralVector(0.0 * l, 0.0))),
    # an endpoint that also reads the coefficient of u^2: onto, with a kernel
    # of the same dimension, but the loops u^2 - u leave it, so at every
    # degree only rows before the last show phi0 o lam0 != 0
    "leaks-at-u-squared": lambda models: replace(models, phi=replace(
        models.phi, phi0=lambda p: p.endpoint() + p.coeffs[..., 2])),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
@pytest.mark.parametrize("splitting", [np.array([0.0, 1.0]), SMOOTHSTEP],
                         ids=["linear", "smoothstep"])
@pytest.mark.parametrize("k", [1.0, 0.0, -2.0, 1e12])
@pytest.mark.parametrize("algebra", ["su2", "sl2"])
def test_exactness_records_match_a_fraction_reference_at_each_degree(algebra, k, splitting,
                                                                     mutant):
    models = MUTANTS[mutant](build_models(load_presentation(algebra), k, splitting))
    records = exactness_records(models, 12)
    assert len(records) == 13
    reference = [reference_record(models, degree) for degree in range(2, 13)]
    assert [astuple(r) for r in records[2:]] == reference
    # a mutant fails at every degree, the bundle passes at every degree
    assert {r[-1] for r in reference} == {mutant == "none"}


def test_exactness_check_at_each_degree_is_that_record_of_one_pass():
    models = build_models(load_presentation("su2"), 1.0)
    records = exactness_records(models, 20)
    for degree in range(2, 21):
        assert exactness_records(models, degree)[-1] == records[degree]


def test_splitting_integral_is_universal(rng):
    assert all(splitting_deviation(f) <= 1e-12 for f in splitting_samples(rng, 20, 8))


def test_round_trip_zero_corrector_is_exact_zero(g, rng):
    bundle = build_models(g, 1.0, SMOOTHSTEP)
    x1, x2 = rng.uniform(-1, 1, (2, 3))
    assert abs(compose(bundle.phi, bundle.psi).phi2(x1, x2)) <= 1e-14


def test_psi_phi_composite_formulas(g, rng, draw):
    bundle = build_models(g, 1.0)
    p = random_path(g, rng, 4)
    out0 = bundle.tau.from_hom.phi0(p)
    assert np.allclose(out0.endpoint(), p.endpoint(), atol=1e-14)
    v = draw(bundle.pkg.space1)
    out1 = bundle.tau.from_hom.phi1(v)
    assert out1.loop.norm() == 0.0
    assert out1.c == v.c


def test_psi_phi_corrector_loop_part(g, rng):
    # the loop part of the round-trip corrector is the endpoint bracket
    # spread along f - f^2; the central part is the endpoint-corrected pairing
    f = SMOOTHSTEP
    bundle = build_models(g, 1.0, f)
    p1, p2 = random_path(g, rng, 4), random_path(g, rng, 4)
    out = bundle.tau.from_hom.phi2(p1, p2)
    f_minus_f2 = -np.convolve(f, f)
    f_minus_f2[: len(f)] += f
    expected_loop = PolyPath(
        g, np.outer(g.bracket(p1.endpoint(), p2.endpoint()), f_minus_f2), LOOP)
    assert (out.loop - expected_loop).norm() <= 1e-13
    assert out.c == pytest.approx(bundle.phi.phi2(p1, p2), abs=1e-13)


def _negated_target_corrector(homotopy):
    """The homotopy with its target's corrector negated: the coherence law
    then reads what it reads with +to2 in place of -to2, and the two other
    laws read what they read."""
    to = homotopy.to_hom
    return ChainHomotopy(homotopy.from_hom, replace(to, phi2=lambda x, y: -to.phi2(x, y)),
                         homotopy.tau)


@pytest.mark.parametrize("algebra", ["su2", "sl2"])
@pytest.mark.parametrize("k", [0.0, 1.0, -2.0])
@pytest.mark.parametrize("f", [np.array([0.0, 1.0]), SMOOTHSTEP], ids=["linear", "smoothstep"])
def test_reverse_retraction_sees_the_sign_of_the_target_corrector(algebra, k, f):
    # tau's target is the identity, whose corrector is 0, so tau-2hom cannot
    # tell -to2 from +to2 in the coherence law.  The reverse homotopy
    # -tau: id => (splitting o endpoint) has a target with a nonzero
    # corrector: it holds at roundoff (at most 1.1e-15 over these 200 trials
    # in the twelve cases), and with the sign of to2 flipped the largest
    # coherence residual reads 0.21 to 0.65
    bundle = build_models(load_presentation(algebra), k, f)
    forward = bundle.tau
    reverse = ChainHomotopy(forward.to_hom, forward.from_hom, lambda p: -forward.tau(p))
    [inputs] = two_hom_samples(reverse, np.random.default_rng(9), 200)
    holds = two_hom_residuals_once(reverse, *inputs)
    assert largest(*holds.values()).max() <= 1e-14
    flipped = two_hom_residuals_once(_negated_target_corrector(reverse), *inputs)
    assert flipped["coherence"].max() > 0.1
    assert [flipped[law].max() for law in ("homotopy0", "homotopy1")] \
        == [holds[law].max() for law in ("homotopy0", "homotopy1")]
    [inputs] = two_hom_samples(forward, np.random.default_rng(9), 200)
    for law, residual in two_hom_residuals_once(_negated_target_corrector(forward),
                                                *inputs).items():
        assert np.array_equal(residual, two_hom_residuals_once(forward, *inputs)[law])


def test_whiskering_by_identities_preserves_homotopy(g, rng):
    # composing both ends of the retraction homotopy with identity
    # homomorphisms must leave all residuals at zero
    from lie2.linfty import ChainHomotopy, identity_hom
    bundle = build_models(g, 1.0)
    ident = identity_hom(bundle.pkg)
    left = ChainHomotopy(
        compose(ident, bundle.tau.from_hom),
        compose(ident, bundle.tau.to_hom),
        bundle.tau.tau,
    )
    right = ChainHomotopy(
        compose(bundle.tau.from_hom, ident),
        compose(bundle.tau.to_hom, ident),
        bundle.tau.tau,
    )
    for homotopy in (left, right):
        inputs = next(two_hom_samples(homotopy, rng, 20))
        assert largest(*two_hom_residuals_once(homotopy, *inputs).values()).max() <= 1e-12
