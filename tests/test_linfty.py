from dataclasses import replace

import numpy as np
import pytest

from lie2 import linfty
from lie2.liealg import LieAlgebraPresentation
from lie2.linfty import (
    compose,
    generalized_jacobi_residual,
    hom_residuals_once,
    hom_samples,
    identity_hom,
    law_residual,
    two_hom_residuals_once,
    two_hom_samples,
)
from lie2.models import build_models, make_gk, make_pkg
from lie2.suites import RunConfig, run


def test_n1_residual_vanishes_by_grading(g, draw):
    gk = make_gk(g, 1.0)
    for deg in (0, 1):
        assert generalized_jacobi_residual(gk, [(deg, draw(gk.space(deg)))]) == 0.0


def test_n3_all_objects_is_jacobi(g, rng):
    gk = make_gk(g, 2.0)
    inputs = [(0, rng.uniform(-1, 1, 3)) for _ in range(3)]
    assert generalized_jacobi_residual(gk, inputs) <= 1e-14


def test_n4_matches_alternating_cocycle_sum_up_to_global_sign(g6, rng, monkeypatch, ce_residual):
    # run on a 6-dimensional algebra with a non-invariant form so both sides
    # are genuinely nonzero (in dim 3 every alternating 4-form vanishes); the
    # unshuffle-orientation sum equals the alternating 1-based-index sum up
    # to one global sign, so the magnitude of the sum of the Jacobi terms
    # must agree exactly, and the residual is law_residual of those terms
    form = np.eye(6)
    form[0, 4] = form[4, 0] = 0.7
    form[1, 1] = 2.0
    broken = LieAlgebraPresentation("noninv6", 6, g6.structure, form)
    gk = make_gk(broken, 1.0)
    laws = []
    monkeypatch.setattr(linfty, "law_residual",
                        lambda *law: laws.append(law) or law_residual(*law))
    for _ in range(20):
        vs = rng.uniform(-1, 1, (4, 6))
        lhs = generalized_jacobi_residual(gk, [(0, v) for v in vs])
        terms, norm, norms = laws.pop()
        ce = ce_residual(broken, *vs)
        assert ce > 1e-3  # non-vacuous comparison
        assert abs(sum(terms)) == pytest.approx(ce, rel=1e-10)
        assert norms == pytest.approx([np.linalg.norm(v) for v in vs], rel=1e-15)
        assert lhs == law_residual(terms, abs, norms)
        assert lhs == pytest.approx(ce / (1.0 + np.prod(1.0 + np.array(norms))
                                          + sum(abs(t) for t in terms)), rel=1e-10)


def test_law_residual_is_the_sum_over_the_terms_and_the_inputs():
    assert law_residual([3.0, -1.0], abs, [1.0, 2.0]) == 2.0 / (1.0 + 2.0 * 3.0 + 4.0)
    vectors = [np.array([3.0, 4.0]), np.array([0.0, -4.0])]
    assert law_residual(vectors, linfty.CoordSpace(2).norm, [0.5]) == 3.0 / (1.0 + 1.5 + 9.0)
    assert law_residual([], abs, [1.0]) == 0.0


def test_law_residual_reads_roundoff_at_any_scale_of_the_terms():
    # the input term is a floor: terms that are all roundoff do not read about 1
    assert law_residual([1e-17, 0.0], abs, [1.0]) < 1e-17
    for scale in (1.0, 1e6, 1e12, 1e300):
        terms = [0.1 * scale, 0.2 * scale, -0.3 * scale]
        assert law_residual(terms, abs, [1.0]) < 1e-16
    batch = np.array([1e-3, 1e9])
    assert np.all(law_residual([batch, -batch], abs, [batch]) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_law_residual_of_a_nan_or_infinite_term_is_nan(bad):
    assert np.isnan(law_residual([bad, 1.0], abs, [1.0]))
    assert np.isnan(law_residual([1.0, bad, -bad], abs, [1.0]))
    with np.errstate(invalid="ignore"):
        batched = law_residual([np.array([1.0, bad]), np.array([-1.0, 2.0])], abs, [1.0])
    assert batched[0] == 0.0 and np.isnan(batched[1])


def test_jacobi_suites_gk_and_pkg():
    report = run(RunConfig(k=-1.0, trials=25, suites=("gk-jacobi", "pkg-jacobi")))
    assert all(s["max_residual"] <= 1e-12 for s in report["suites"])


def test_antisymmetry_spot_checks(g, rng, draw):
    pkg = make_pkg(g, 1.0, 4)
    x, y = draw(pkg.space0), draw(pkg.space0)
    assert (pkg.l2_00(x, y) + pkg.l2_00(y, x)).norm() <= 1e-15
    gk = make_gk(g, 1.5)
    a, b, c = (rng.uniform(-1, 1, 3) for _ in range(3))
    assert gk.l3(a, b, c) == pytest.approx(-gk.l3(b, a, c))
    assert gk.l3(a, b, c) == pytest.approx(-gk.l3(a, c, b))


def test_identity_hom_has_zero_residuals(g, rng):
    pkg = make_pkg(g, 1.0, 4)
    hom = identity_hom(pkg)
    residuals = hom_residuals_once(hom, *next(hom_samples(hom, rng, 10)))
    assert all(np.all(r == 0.0) for r in residuals.values())


def test_compose_with_identity_agrees(g, draw):
    bundle = build_models(g, 1.0)
    left = compose(identity_hom(bundle.gk), bundle.phi)
    for _ in range(5):
        p = draw(bundle.pkg.space0)
        q = draw(bundle.pkg.space0)
        v = draw(bundle.pkg.space1)
        assert np.allclose(left.phi0(p), bundle.phi.phi0(p))
        assert left.phi1(v) == bundle.phi.phi1(v)
        assert left.phi2(p, q) == bundle.phi.phi2(p, q)


def test_compose_is_associative_on_samples(g, draw):
    bundle = build_models(g, 1.0)
    # endpoint o splitting o endpoint : paths -> skeletal, two bracketings
    a = compose(compose(bundle.phi, bundle.psi), bundle.phi)
    b = compose(bundle.phi, compose(bundle.psi, bundle.phi))
    for _ in range(10):
        p = draw(bundle.pkg.space0)
        q = draw(bundle.pkg.space0)
        v = draw(bundle.pkg.space1)
        assert np.allclose(a.phi0(p), b.phi0(p))
        assert a.phi1(v) == pytest.approx(b.phi1(v))
        assert a.phi2(p, q) == pytest.approx(b.phi2(p, q), abs=1e-12)


def test_zero_homotopy_between_equal_homs(g, rng):
    from lie2.linfty import ChainHomotopy
    pkg = make_pkg(g, 1.0, 4)
    ident = identity_hom(pkg)
    tau = ChainHomotopy(ident, ident, lambda x: pkg.space1.zero())
    residuals = two_hom_residuals_once(tau, *next(two_hom_samples(tau, rng, 10)))
    assert all(np.all(r == 0.0) for r in residuals.values())


def test_mutation_zeroed_corrector_fails_loudly(g, rng):
    # at k = 1 the endpoint corrector is not zero, so dropping it breaks the laws
    bundle = build_models(g, 1.0)
    broken = replace(bundle.phi, phi2=lambda x, y: 0.0)
    residuals = hom_residuals_once(broken, *next(hom_samples(broken, rng, 100)))
    assert residuals["homo3"].max() > 0.1


def test_categorical_unit_law_concrete(g, draw):
    # composing a morphism with the identity at its source returns it
    pkg = make_pkg(g, 1.0, 4)
    x = draw(pkg.space0)
    fv = draw(pkg.space1)
    composite = (x, pkg.space1.zero() + fv)
    assert (composite[0] - x).norm() == 0.0
    assert (composite[1] - fv).norm() == 0.0


def test_hom_residuals_once_keys(g, draw):
    bundle = build_models(g, 1.0)
    res = hom_residuals_once(
        bundle.phi,
        draw(bundle.pkg.space0),
        draw(bundle.pkg.space0),
        draw(bundle.pkg.space0),
        draw(bundle.pkg.space1),
    )
    assert set(res) == {"chain", "homo1", "homo2", "homo3"}
    assert max(res.values()) <= 1e-12


def test_two_hom_residuals_once_keys(g, draw):
    bundle = build_models(g, 1.0)
    res = two_hom_residuals_once(
        bundle.tau,
        draw(bundle.pkg.space0),
        draw(bundle.pkg.space0),
        draw(bundle.pkg.space1),
    )
    assert set(res) == {"homotopy0", "homotopy1", "coherence"}
    assert max(res.values()) <= 1e-12
