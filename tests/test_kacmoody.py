import numpy as np
import pytest

from lie2.kacmoody import (
    dalpha,
    dalpha_derivation_residual,
    dalpha_equivariance_residual,
    dalpha_matches_central_bracket_residual,
    extended_bracket,
    extended_jacobi_residual,
    omega,
    omega_cocycle_residual,
)
from lie2.liealg import InputError, LieAlgebraPresentation
from lie2.linfty import CentralSpace, generalized_jacobi_residual
from lie2.models import make_pkg
from lie2.paths import BASED, LOOP, CentralVector, PolyPath, random_path, zero_path


def bump(g, direction, coeffs):
    return PolyPath(g, np.outer(direction, coeffs), LOOP)


def test_omega_self_pairing_vanishes(g, rng):
    loop = random_path(g, rng, 5, LOOP)
    assert omega(loop, loop, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_omega_worked_value(g):
    f = bump(g, [1, 0, 0], [0.0, 1.0, -1.0])  # u - u^2
    h = bump(g, [1, 0, 0], [0.0, 0.0, 1.0, -1.0])  # u^2 - u^3
    assert omega(f, h, 1.0) == pytest.approx(1.0 / 30.0, abs=1e-12)


def test_omega_orthogonal_directions(g):
    f = bump(g, [1, 0, 0], [0.0, 1.0, -1.0])
    h = bump(g, [0, 1, 0], [0.0, 0.0, 1.0, -1.0])
    assert omega(f, h, 1.0) == 0.0


def test_omega_antisymmetric(g, rng):
    f, h = (random_path(g, rng, 5, LOOP) for _ in range(2))
    assert omega(f, h, 2.0) == pytest.approx(-omega(h, f, 2.0), abs=1e-13)


def test_omega_linear_in_level(g, rng):
    f, h = (random_path(g, rng, 4, LOOP) for _ in range(2))
    assert omega(f, h, 3.0) == pytest.approx(3.0 * omega(f, h, 1.0))


def test_cocycle_condition_seeded(g, rng):
    worst = max(
        omega_cocycle_residual(*(random_path(g, rng, 4, LOOP) for _ in range(3)), 1.0)
        for _ in range(200)
    )
    assert worst <= 1e-10


def test_cocycle_condition_repeated_argument(g, rng):
    f = random_path(g, rng, 4, LOOP)
    h = random_path(g, rng, 4, LOOP)
    assert omega_cocycle_residual(f, f, h, 1.0) <= 1e-14


def test_cocycle_detects_non_invariant_form(g, rng):
    form = np.eye(3)
    form[0, 1] = form[1, 0] = 0.5
    form[2, 2] = 3.0
    broken = LieAlgebraPresentation("broken", 3, g.structure, form)
    worst = max(
        omega_cocycle_residual(*(random_path(broken, rng, 4, LOOP)
                                 for _ in range(3)), 1.0)
        for _ in range(50)
    )
    assert worst > 1e-3


def test_extended_bracket_central_elements(g, rng):
    center = CentralVector(zero_path(g, LOOP), 1.3)
    v = CentralVector(random_path(g, rng, 4, LOOP), -0.4)
    assert extended_bracket(center, v, 1.0).norm() == 0.0
    assert extended_bracket(v, center, 1.0).norm() == 0.0


def test_extended_bracket_antisymmetric(g, rng):
    a = CentralVector(random_path(g, rng, 4, LOOP), 0.2)
    b = CentralVector(random_path(g, rng, 4, LOOP), -0.8)
    assert (extended_bracket(a, b, 1.0) + extended_bracket(b, a, 1.0)).norm() <= 1e-13


def test_extended_jacobi_seeded(g, rng):
    worst = max(
        extended_jacobi_residual(
            *(CentralVector(random_path(g, rng, 4, LOOP), float(rng.uniform(-1, 1)))
              for _ in range(3)), 1.0)
        for _ in range(100)
    )
    assert worst <= 1e-10


def test_dalpha_on_central_element(g, rng):
    p = random_path(g, rng, 4)
    center = CentralVector(zero_path(g, LOOP), 0.5)
    assert dalpha(p, center, 1.0).norm() == 0.0


def test_dalpha_matches_pkg_action(g, rng, draw):
    pkg = make_pkg(g, 2.0, 4)
    p = random_path(g, rng, 4)
    v = draw(pkg.space1)
    assert (dalpha(p, v, 2.0) - pkg.l2_01(p, v)).norm() == 0.0


def test_dalpha_loop_case_is_twisted_bracket(g, rng):
    loop = random_path(g, rng, 4, LOOP)
    v = CentralVector(random_path(g, rng, 4, LOOP), 0.3)
    assert dalpha_matches_central_bracket_residual(loop, v, 1.0) <= 1e-13


def test_dalpha_action_property(g, rng):
    # the action law is the path model's Jacobi identity on signature (0, 0, 1)
    pkg = make_pkg(g, 1.0)
    worst = max(
        generalized_jacobi_residual(pkg, [(0, random_path(g, rng, 4)),
                                          (0, random_path(g, rng, 4)),
                                          (1, CentralVector(random_path(g, rng, 4, LOOP),
                                                            float(rng.uniform(-1, 1))))])
        for _ in range(100)
    )
    assert worst <= 1e-10


def test_dalpha_derivation_property(g, rng):
    worst = max(
        dalpha_derivation_residual(
            random_path(g, rng, 4),
            CentralVector(random_path(g, rng, 4, LOOP), 0.1),
            CentralVector(random_path(g, rng, 4, LOOP), -0.7), 1.0)
        for _ in range(100)
    )
    assert worst <= 1e-10


def test_dalpha_projection_compatibility_exact(g, rng):
    # projecting the action to the loop part is the pointwise bracket
    assert dalpha_equivariance_residual(
        random_path(g, rng, 4),
        CentralVector(random_path(g, rng, 4, LOOP), 0.4), 1.0) == 0.0


def test_residuals_level_independent_after_normalization(g, rng):
    p1, p2 = random_path(g, rng, 4), random_path(g, rng, 4)
    v = CentralVector(random_path(g, rng, 4, LOOP), 0.2)
    inputs = [(0, p1), (0, p2), (1, v)]
    r1 = generalized_jacobi_residual(make_pkg(g, 1.0), inputs)
    r5 = generalized_jacobi_residual(make_pkg(g, 5.0), inputs)
    assert r5 <= 10 * r1 + 1e-12


def test_derived_central_vectors_skip_the_entry_check(g, rng, monkeypatch):
    # sums, negation, multiples, batch selection, the twisted bracket and
    # dalpha derive from checked vectors, and a sampled block from generated
    # numbers; the entry point keeps the check
    space = CentralSpace(g)
    a = space.element(rng.uniform(-1, 1, (5, space.width)))
    b = CentralVector(random_path(g, rng, 4, LOOP), 0.3)
    p = random_path(g, rng, 4)
    checked = []
    real = CentralVector.__post_init__
    monkeypatch.setattr(CentralVector, "__post_init__",
                        lambda self: checked.append(real(self)))
    derived = [a + a, -a, a * 2.0, 2.0 * a, a - a, a[1:3], a[2], b + b,
               extended_bracket(a, a, 1.0), extended_bracket(b, b, 1.0),
               dalpha(p, a, 1.0), dalpha(p, b, 1.0)]
    assert checked == []
    for v in derived:
        assert v.loop.kind == LOOP
        assert isinstance(v.c, (np.floating, np.ndarray)) and v.c.dtype == np.float64
        again = CentralVector(v.loop, v.c)  # the entry check agrees
        assert np.array_equal(again.c, v.c)
    assert len(checked) == len(derived)
    space.element(rng.uniform(-1, 1, (2, space.width)))
    assert len(checked) == len(derived)
    with pytest.raises(InputError):
        CentralVector(random_path(g, rng, 4, BASED), 0.0)
