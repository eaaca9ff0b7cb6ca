import tracemalloc
import warnings

import numpy as np
import pytest

from lie2 import su2grid as sg
from lie2.liealg import InputError, LieAlgebraPresentation, sl2, so3
from lie2.paths import BASED, LOOP, PolyPath, derivative_pairing, random_path
from lie2.su2grid import TWO_PI
from lie2.suites import CONJ_PATH_AMPLITUDE, KAPPA_AMPLITUDE, REGISTRY, RunConfig, run

# -- the 2x2 complex matrix picture, kept here as the oracle of the quaternion layer

SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
])
X = -0.5j * SIGMA  # [X_i, X_j] = eps_ijk X_k


def to_matrix(q: np.ndarray) -> np.ndarray:
    """q0 I + 2 q . X for quaternions (4, ...) -> matrices (..., 2, 2)."""
    q = np.asarray(q)
    return (np.multiply.outer(q[0], np.eye(2))
            + 2.0 * np.einsum("k...,kij->...ij", q[1:], X))


def embed(v: np.ndarray) -> np.ndarray:
    """Coordinates (3, ...) -> v . X, matrices (..., 2, 2)."""
    return np.einsum("k...,kij->...ij", v, X)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(m, -1, -2))


def skew_project(m: np.ndarray) -> np.ndarray:
    """Project onto traceless skew-Hermitian matrices."""
    a = 0.5 * (m - dagger(m))
    trace = a[..., 0, 0] + a[..., 1, 1]
    return a - 0.5 * trace[..., None, None] * np.eye(2)


def identity_grid(*shape: int) -> np.ndarray:
    return np.broadcast_to(sg.IDENTITY.reshape((4,) + (1,) * len(shape)),
                           (4, *shape)).copy()


def identity_stream(n_t: int, n_theta: int) -> sg.StreamedPathOfLoops:
    """The identity loop field: every window of a zero-coefficient stream is
    exactly the identity (``test_a_zero_stream_is_exactly_the_identity``)."""
    return sg.LoopFieldCoeffs(np.zeros((3, 2, 2))).stream(n_t, n_theta)


# -- full-grid references from the row kernels, every row in one window --------

def t_form(grid: np.ndarray) -> np.ndarray:
    """Unscaled coordinates (3, Nt + 1, Ntheta + 1) of f^-1 df/dt on a full grid."""
    return sg._t_form(sg._Block(0, grid.shape[1], grid.shape[1]), grid)


def right_form(q: np.ndarray) -> np.ndarray:
    """Unscaled coordinates of (dq/dtheta) q^-1 along the last axis."""
    return sg._vector_form(q, sg._last_differences(q), 1.0)


def conjugate(p: sg.SampledGroupPath, grid: np.ndarray) -> np.ndarray:
    """p f p^-1 pointwise in theta, constant in t."""
    return sg._conjugate(p.samples[:, None, :], grid)


def full_grid_exponent(f: np.ndarray, g: np.ndarray) -> float:
    """A(f, g) on full grids, in one pass over all rows."""
    return float(sg._trapz(sg._theta_integrals(t_form(f), right_form(g))))


# -- matrix oracle -------------------------------------------------------------

def test_hamilton_product_is_the_matrix_product(rng):
    a, b = rng.uniform(-1, 1, (2, 4, 50))
    assert np.abs(to_matrix(sg._hamilton(a, b)) - to_matrix(a) @ to_matrix(b)).max() <= 1e-14


def test_conjugation_and_exp_match_the_matrix_formulas(rng):
    v = rng.uniform(-2, 2, (3, 40))
    alpha = np.linalg.norm(v, axis=0)
    closed = (np.cos(alpha / 2)[:, None, None] * np.eye(2)
              - 1j * (np.sin(alpha / 2) / alpha)[:, None, None]
              * np.einsum("kj,kab->jab", v, SIGMA))
    assert np.abs(to_matrix(sg.exp_su2(v)) - closed).max() <= 1e-14

    p = sg.random_group_path_coeffs(rng, amplitude=0.6).sample(16)
    f = sg.random_loop_field_coeffs(rng, amplitude=0.8).sample(12, 16)
    pm = to_matrix(p.samples)[None]
    expected = pm @ to_matrix(f.grid) @ dagger(pm)
    assert np.abs(to_matrix(conjugate(p, f.grid)) - expected).max() <= 1e-14
    w = rng.uniform(-1, 1, (3, 17))
    rotated = to_matrix(p.samples) @ embed(w) @ dagger(to_matrix(p.samples))
    assert np.abs(embed(sg._rotate(p.samples, w)) - rotated).max() <= 1e-14


def test_maurer_cartan_forms_match_skew_projected_products(rng):
    # the kernels work at unit step: each form is its axis' step times the form
    f = sg.random_loop_field_coeffs(rng, amplitude=0.8).sample(16, 20)
    m = to_matrix(f.grid)
    ht, htheta = TWO_PI / 16, TWO_PI / 20
    # np.gradient at edge_order 2 is the same stencil: central inside, one-sided ends
    left = skew_project(dagger(m) @ np.gradient(m, ht, axis=0, edge_order=2))
    right = skew_project(np.gradient(m, htheta, axis=1, edge_order=2) @ dagger(m))
    assert np.abs(embed(t_form(f.grid)) - ht * left).max() <= 1e-14
    assert np.abs(embed(right_form(f.grid)) - htheta * right).max() <= 1e-14


def test_pairing_matches_the_trace_formula(rng):
    # the theta-integral of a pairing is the unit-step trapezoid of the trace
    # formula along each row
    a, b = rng.uniform(-1, 1, (2, 3, 4, 25))
    trace = -2.0 * np.real(np.einsum("...ij,...ji->...", embed(a), embed(b)))
    trapezoid = trace[:, 1:-1].sum(axis=-1) + 0.5 * (trace[:, 0] + trace[:, -1])
    assert np.abs(sg._theta_integrals(a, b) - trapezoid).max() <= 1e-13


# -- the quaternion layer --------------------------------------------------------

def test_generator_commutators(g):
    x = 0.5 * np.eye(4)[:, 1:]  # X_i as the pure quaternions e_i / 2
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        commutator = sg._hamilton(x[:, i], x[:, j]) - sg._hamilton(x[:, j], x[:, i])
        assert np.allclose(commutator, x[:, k])


def test_pairing_scale_matches_form(g):
    # the grid pairs coordinates by their dot product and the residuals are
    # defects at unit level, so any form on su(2)'s table (c I) is accepted
    # unread; only the bracket is checked, to 1e-12
    for algebra in (g, so3(), LieAlgebraPresentation("su2*-0.5", 3, g.structure, -0.5 * g.form)):
        assert sg.check_grid_algebra(algebra) is None
    near = g.structure.copy()
    near[0, 1, 2] += 1e-13
    sg.check_grid_algebra(LieAlgebraPresentation("near", 3, near, g.form))
    off = g.structure.copy()
    off[0, 1, 2] += 1e-9
    abelian = LieAlgebraPresentation("abelian3", 3, np.zeros((3, 3, 3)), np.eye(3))
    for algebra in (sl2(), abelian, LieAlgebraPresentation("off", 3, off, g.form),
                    LieAlgebraPresentation("z1", 1, np.zeros((1, 1, 1)), np.eye(1))):
        with pytest.raises(InputError,
                           match=f"the bracket of {algebra.name} is not su\\(2\\)'s epsilon table"):
            sg.check_grid_algebra(algebra)


def test_embed_respects_bracket(g, rng):
    # v . X is the pure quaternion v / 2, so [a . X, b . X] has coordinates
    # 2 vec(a/2 b/2 - b/2 a/2)
    a, b = rng.uniform(-1, 1, (2, 3))
    qa, qb = np.r_[0.0, a / 2], np.r_[0.0, b / 2]
    commutator = sg._hamilton(qa, qb) - sg._hamilton(qb, qa)
    assert commutator[0] == 0.0
    assert np.abs(2.0 * commutator[1:] - g.bracket(a, b)).max() <= 1e-14


def test_exp_su2_is_group_valued(rng):
    v = rng.uniform(-2, 2, (3, 40))
    u = sg.exp_su2(v)
    assert sg.unitary_drift(u) <= 1e-13
    assert np.abs(sg._hamilton(u, sg.exp_su2(-v)) - sg.IDENTITY[:, None]).max() <= 1e-13


def test_exp_su2_half_turn():
    # exp(pi * X3) = -i sigma3: purely imaginary diagonal
    u = sg.exp_su2(np.array([[0.0], [0.0], [np.pi]]))
    assert np.allclose(to_matrix(u[:, 0]), np.diag([-1.0j, 1.0j]), atol=1e-15)


EDGE_NORMS = [0.0, 1e-300, 1e-12, 2e-12, 1.0, np.pi, np.nextafter(TWO_PI, 0.0), TWO_PI,
              np.nextafter(TWO_PI, 7.0), 2.0 * TWO_PI, 50.0, 1e6]


@pytest.mark.parametrize("norm", EDGE_NORMS)
def test_exp_su2_matches_the_closed_form_at_edge_norms(rng, norm):
    # the half-angle tangent tan(|v|/4) has its pole at |v| = 2 pi; along the
    # axes |v| is exact, so the closed form is evaluated at the same angle
    axes = np.hstack([np.eye(3), -np.eye(3)])
    v, unit = norm * axes, axes
    if norm <= 50.0:
        d = rng.normal(size=(3, 4))
        d /= np.linalg.norm(d, axis=0)
        v, unit = np.hstack([v, norm * d]), np.hstack([unit, d])
    q = sg.exp_su2(v)
    closed = np.vstack([np.full((1, v.shape[1]), np.cos(norm / 2)), np.sin(norm / 2) * unit])
    assert np.abs(q - closed).max() <= 1e-14
    assert sg.unitary_drift(q) <= 1e-13


def test_a_nan_component_makes_the_loop_field_raise(rng):
    v = rng.uniform(-1.0, 1.0, (3, 9, 9))
    v[1, 4, 4] = np.nan
    grid = sg.exp_su2(v)
    assert np.isnan(grid[[0, 2], 4, 4]).all()  # the scalar part and the NaN component
    grid[:, 0] = sg.IDENTITY[:, None]
    grid[:, :, 0] = sg.IDENTITY[:, None]
    with pytest.raises(InputError, match="drift"):
        sg.SampledPathOfLoops(grid)


def test_unitary_drift_after_products(rng):
    spec1 = sg.random_loop_field_coeffs(rng, amplitude=0.8)
    spec2 = sg.random_loop_field_coeffs(rng, amplitude=0.8)
    f, h = spec1.sample(48, 48), spec2.sample(48, 48)
    assert sg.unitary_drift(sg._hamilton(f.grid, h.grid)) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_products_and_conjugates_of_unit_samples_stay_unit(seed):
    # the residuals use products and conjugates as they come, not re-projected
    # onto SU(2): at the suites' amplitudes they drift by a few ulps (1.3e-15
    # at most over these seeds)
    rng = np.random.default_rng(seed)
    f, g = (sg.random_loop_field_coeffs(rng, KAPPA_AMPLITUDE).sample(512, 512) for _ in range(2))
    p = sg.random_group_path_coeffs(rng, CONJ_PATH_AMPLITUDE).sample(512)
    assert sg.unitary_drift(sg._hamilton(f.grid, g.grid)) <= 1e-14
    assert sg.unitary_drift(conjugate(p, f.grid)) <= 1e-14


def test_group_path_validation(rng):
    samples = sg.exp_su2(rng.uniform(-1, 1, (3, 33)))
    with pytest.raises(InputError):
        sg.SampledGroupPath(samples)  # does not start at the identity
    with pytest.raises(InputError):
        sg.SampledGroupPath(identity_grid(4))  # fewer than 5 samples
    with pytest.raises(InputError):
        sg.SampledPathOfLoops(identity_grid(5, 4))
    # the fixtures sample derived grids, so they refuse too few samples themselves
    with pytest.raises(InputError, match=r"^group path needs at least 5 quaternion samples, "
                                         r"shape \(4, N \+ 1\)$"):
        sg.GroupPathCoeffs(np.zeros((3, 3))).sample(3)
    assert sg.GroupPathCoeffs(np.zeros((3, 3))).sample(4).n_theta == 4


def test_sampled_grids_are_pinned_and_run_no_entry_check(rng, monkeypatch):
    # their coefficients are checked where they enter and their identity rows
    # are pinned as they are built, so they are derived carriers, and their
    # products and conjugates keep the identity rows exactly
    checked = []
    for cls in (sg.SampledGroupPath, sg.SampledPathOfLoops):
        monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(self))
    p = sg.random_group_path_coeffs(rng).sample(16)
    f = sg.random_loop_field_coeffs(rng).sample(12, 16)
    grids = [f.grid, sg._hamilton(f.grid, f.grid), conjugate(p, f.grid)]
    assert checked == []
    assert (p.samples[:, 0] == sg.IDENTITY).all()
    for grid in grids:
        assert (grid[:, 0] == sg.IDENTITY[:, None]).all()
        assert (grid[:, :, 0] == sg.IDENTITY[:, None]).all()
    assert max(sg.unitary_drift(x) for x in (p.samples, *grids)) <= 1e-14


def test_nan_samples_are_rejected():
    assert np.isnan(sg.unitary_drift(np.array([[1.0, np.nan], [0.0, 0.0],
                                               [0.0, 0.0], [0.0, 0.0]])))
    with pytest.raises(InputError):
        sg.GroupPathCoeffs(np.full((3, 3), np.nan)).sample(16)
    with pytest.raises(InputError):
        sg.LoopFieldCoeffs(np.full((3, 2, 2), np.nan)).sample(16, 16)
    grid = identity_grid(9, 9)
    grid[:, 4, 4] = np.nan
    with pytest.raises(InputError):
        sg.SampledPathOfLoops(grid)


def test_maurer_cartan_constant_grid_is_zero():
    f = sg.SampledPathOfLoops(identity_grid(17, 17))
    assert np.abs(t_form(f.grid)).max() == 0.0
    assert np.abs(right_form(f.grid)).max() == 0.0


def test_maurer_cartan_linear_in_t_oracle(rng):
    # v(t, theta) = (t / 2pi) w(theta): single direction along t, so the
    # t-form is exactly w(theta) / 2pi; the unscaled form is the t-step times
    # it, and stencils converge at order 2
    spec = sg.LoopFieldCoeffs(0.4 * rng.uniform(-1, 1, (3, 1, 2)))
    errs = []
    for n_t in (16, 32, 64):
        f = spec.sample(n_t, 24)
        theta = np.linspace(0.0, TWO_PI, 25)
        w = np.einsum("kmn,jn->kj", spec.coeffs, sg._theta_loop_basis(theta, 2))
        h = TWO_PI / n_t
        exact = w / TWO_PI
        errs.append(np.abs(t_form(f.grid) - h * exact[:, None]).max() / h)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_maurer_cartan_skew_projection_residual(rng):
    # the scalar part of conj(f) df/dt is the non-skew remainder the forms drop
    spec = sg.random_loop_field_coeffs(rng, amplitude=0.5)
    f = spec.sample(64, 16)
    h = TWO_PI / 64
    conj = f.grid * np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
    raw = sg._hamilton(conj, np.gradient(f.grid, h, axis=1, edge_order=2))
    assert np.abs(raw[0]).max() <= 5e-3  # O(h^2) before projection


def test_beta_p_trivial_cases(g, rng):
    n = 64
    ident = sg.SampledGroupPath(identity_grid(n + 1))
    xi = random_path(g, rng, 4, LOOP).eval_grid(np.linspace(0.0, 1.0, n + 1)).T
    assert sg.beta_p(ident, xi) == pytest.approx(0.0, abs=1e-14)
    zero = np.zeros((3, n + 1))
    p = sg.random_group_path_coeffs(rng, amplitude=0.5).sample(n)
    assert sg.beta_p(p, zero) == 0.0


def test_beta_p_closed_form_oracle(g, rng):
    # p = exp(s(theta) X0) gives p^-1 p' = s'(theta) X0 exactly
    n = 512
    s_poly = 0.2 * rng.uniform(-1, 1, 5)
    s_poly[0] = 0.0
    x0 = rng.uniform(-1, 1, 3)
    x0 /= np.linalg.norm(x0)
    u = np.linspace(0.0, 1.0, n + 1)
    s_val = (u[:, None] ** np.arange(5)[None, :]) @ s_poly
    p = sg.SampledGroupPath(sg.exp_su2(x0[:, None] * s_val[None, :]))
    xi = 0.3 * random_path(g, rng, 4, LOOP)
    numeric = sg.beta_p(p, xi.eval_grid(u).T)
    oracle = -2.0 * derivative_pairing(xi, PolyPath(g, np.outer(x0, s_poly), BASED))
    assert numeric == pytest.approx(oracle, abs=1e-6)


def test_a_zero_stream_is_exactly_the_identity():
    # so the trivial-input cases below feed the kernels the identity field,
    # on one block and on several
    for n_t, n_theta in [(32, 32), (300, 96)]:
        blocks = sg._blocks(n_t + 1, n_theta + 1)
        for win in identity_stream(n_t, n_theta).windows(blocks):
            assert (win == sg.IDENTITY[:, None, None]).all()


def test_kappa_trivial_inputs(rng):
    n = 32
    ident = identity_stream(n, n)
    spec = sg.random_loop_field_coeffs(rng, amplitude=0.8)
    f = spec.stream(n, n)
    # the Maurer-Cartan forms of the identity are exactly 0
    assert sg.kappa_exponent(f, ident) == 0.0
    assert sg.kappa_exponent(ident, f) == 0.0
    grid = spec.sample(n, n).grid
    assert sg.kappa_exponent(f, f) == full_grid_exponent(grid, grid) != 0.0


def test_kappa_matches_refined_grid(rng):
    specs = [sg.random_loop_field_coeffs(rng, amplitude=0.5) for _ in range(2)]
    coarse = sg.kappa_exponent(specs[0].stream(192, 192), specs[1].stream(192, 192))
    fine = sg.kappa_exponent(specs[0].stream(768, 768), specs[1].stream(768, 768))
    assert 2.0 * abs(coarse - fine) <= 1e-4


def test_kappa_cocycle_second_order(rng):
    specs = [sg.random_loop_field_coeffs(rng, amplitude=0.8) for _ in range(3)]
    res = [sg.kappa_cocycle_residual(*(s.stream(n, n) for s in specs))
           for n in (64, 128, 256)]
    assert 3.0 <= res[0] / res[1] <= 5.0
    assert 3.0 <= res[1] / res[2] <= 5.0


def test_kappa_cocycle_trivial_entry(rng):
    n = 32
    specs = [sg.random_loop_field_coeffs(rng, amplitude=0.8) for _ in range(2)]
    f, h = (s.stream(n, n) for s in specs)
    value = sg.kappa_cocycle_residual(f, identity_stream(n, n), h)
    assert value <= 1e-12
    f_grid, h_grid = (s.sample(n, n).grid for s in specs)
    assert value == _cocycle_by_composition(f_grid, identity_grid(n + 1, n + 1), h_grid)


def test_ad_omega_trivial_cases(g, rng):
    n = 64
    ident = sg.SampledGroupPath(identity_grid(n + 1))
    xi = random_path(g, rng, 4, LOOP)
    eta = random_path(g, rng, 4, LOOP)
    assert sg.ad_omega_identity_residual(ident, xi, eta) <= 1e-14
    p = sg.random_group_path_coeffs(rng, amplitude=0.5).sample(n)
    assert sg.ad_omega_identity_residual(p, xi, xi) <= 1e-14


def test_ad_omega_second_order(g, rng):
    spec = sg.random_group_path_coeffs(rng, amplitude=0.5)
    xi = 0.6 * random_path(g, rng, 4, LOOP)
    eta = 0.6 * random_path(g, rng, 4, LOOP)
    res = [sg.ad_omega_identity_residual(spec.sample(n), xi, eta)
           for n in (128, 256, 512)]
    assert 3.0 <= res[0] / res[1] <= 5.0
    assert 3.0 <= res[1] / res[2] <= 5.0
    assert res[2] <= 1e-5


def test_kappa_conjugation_trivial_conjugator(rng):
    n = 32
    ident = sg.SampledGroupPath(identity_grid(n + 1))
    specs = [sg.random_loop_field_coeffs(rng, amplitude=0.8) for _ in range(2)]
    value = sg.kappa_conjugation_identity_residual(ident, *(s.stream(n, n) for s in specs))
    assert value <= 1e-12
    assert value == _conjugation_by_composition(ident, *(s.sample(n, n).grid for s in specs))


def test_kappa_conjugation_trivial_field(rng):
    n = 32
    p = sg.random_group_path_coeffs(rng, amplitude=0.6).sample(n)
    spec = sg.random_loop_field_coeffs(rng, amplitude=0.8)
    value = sg.kappa_conjugation_identity_residual(p, spec.stream(n, n), identity_stream(n, n))
    assert value <= 1e-12
    assert value == _conjugation_by_composition(p, spec.sample(n, n).grid,
                                                identity_grid(n + 1, n + 1))


def test_kappa_conjugation_second_order(rng):
    pspec = sg.random_group_path_coeffs(rng, amplitude=0.6)
    fspecs = [sg.random_loop_field_coeffs(rng, amplitude=0.8) for _ in range(2)]
    res = []
    for n in (64, 128, 256):
        p = pspec.sample(n)
        f1, f2 = (s.stream(n, n) for s in fspecs)
        res.append(sg.kappa_conjugation_identity_residual(p, f1, f2))
    assert 3.0 <= res[0] / res[1] <= 5.0
    assert 3.0 <= res[1] / res[2] <= 5.0


def test_embedding_consistency_small_amplitude(g, rng):
    # group loops exp(eps * eta): the grid cocycle on (eps xi, mc of exp(eps
    # eta)) reproduces eps^2 times the exact polynomial value, with the
    # deviation controlled by eps^2 * (C eps + quadrature); the unscaled form
    # carries the theta-step, so the trapezoid is a unit-step sum
    xi = random_path(g, rng, 4, LOOP)
    eta = random_path(g, rng, 4, LOOP)
    exact = 2.0 * derivative_pairing(xi, eta)
    n = 1024
    u = np.linspace(0.0, 1.0, n + 1)
    for eps in (0.1, 0.05):
        gamma = sg.exp_su2(eps * eta.eval_grid(u).T)
        c_form = right_form(gamma)
        grid_value = float(2.0 * sg._theta_integrals(eps * xi.eval_grid(u).T, c_form))
        assert abs(grid_value - eps**2 * exact) <= 0.2 * eps**3 + 1e-8


# max_residual of the three quadrature suites at the default seed, recorded
# with the 2x2 complex matrix implementation this layer replaced; the
# quaternion layer may move them by roundoff only
GOLDEN_QUADRATURE_RESIDUALS = {
    64: {"kappa-cocycle": 7.948897704947869e-05, "ad-omega": 7.478508101084469e-05,
         "kappa-conjugation": 0.00024180632542086583},
    128: {"kappa-cocycle": 2.242364884562097e-05, "ad-omega": 1.8714968703197055e-05,
          "kappa-conjugation": 6.030942077105622e-05},
}

# the finer rungs of the perfbench quad-ladder, recorded with the sin/cos
# exponential and the moveaxis theta-stencil that the present kernels replaced
GOLDEN_LADDER_RESIDUALS = {
    256: {"kappa-cocycle": 5.926225635607962e-06, "ad-omega": 4.679911476943022e-06,
          "kappa-conjugation": 1.505561830130946e-05},
    512: {"kappa-cocycle": 1.521649090482504e-06, "ad-omega": 1.1700509607026621e-06,
          "kappa-conjugation": 3.7609380711137756e-06},
}


# the pins compare at rel=1e-9 with pytest's absolute floor abs=1e-12 written
# out: a residual is a small difference of integrals up to about 0.5 in size,
# so a change of arithmetic moves it by an absolute roundoff, not one relative
# to it.  The n = 64 kappa-conjugation pin reads 5.9e-13 away (2.4e-9
# relative) and holds by the floor alone
@pytest.mark.parametrize("n", sorted(GOLDEN_QUADRATURE_RESIDUALS))
def test_quadrature_residuals_match_the_matrix_implementation(n):
    golden = GOLDEN_QUADRATURE_RESIDUALS[n]
    report = run(RunConfig(nt=n, ntheta=n, suites=tuple(golden)))
    got = {s["name"]: s["max_residual"] for s in report["suites"]}
    assert got == pytest.approx(golden, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", sorted(GOLDEN_LADDER_RESIDUALS))
def test_ladder_residuals_move_by_roundoff_only(n):
    golden = GOLDEN_LADDER_RESIDUALS[n]
    report = run(RunConfig(nt=n, ntheta=n, suites=tuple(golden)))
    got = {s["name"]: s["max_residual"] for s in report["suites"]}
    assert got == pytest.approx(golden, rel=1e-9, abs=1e-12)


# -- row-block streaming ---------------------------------------------------------

def _cocycle_by_composition(f, g, h):
    # on full grids, every product and form over all rows at once
    fg, gh = sg._hamilton(f, g), sg._hamilton(g, h)
    a = full_grid_exponent
    return 2.0 * abs(a(f, g) + a(fg, h) - a(g, h) - a(f, gh))


def _conjugation_by_composition(p, f1, f2):
    # beta_p is linear, so the residual pairs p's form once with the combined
    # t-form; the forms are unscaled and the trapezoids unit-step sums
    conj = full_grid_exponent(conjugate(p, f1), conjugate(p, f2))
    combined = t_form(sg._hamilton(f1, f2)) - t_form(f1) - t_form(f2)
    correction = float(sg._trapz(sg.beta_p(p, combined)))
    return abs(2.0 * (conj - full_grid_exponent(f1, f2)) - correction)


def _streamed_grids():
    """(nt, ntheta): square, not square with a partial last block, the minimum
    RunConfig grid, grids whose last block holds 1, 2 and 3 rows, so the
    one-sided end stencil reads rows of the block before, and one-row blocks."""
    ntheta = 1023
    rows = sg.BLOCK_POINTS // (ntheta + 1)
    return [(256, 256), (300, 96), (8, 8)] + [(2 * rows + last - 1, ntheta)
                                              for last in (1, 2, 3)] + [(40, 16385)]


@pytest.mark.parametrize("nt, ntheta", _streamed_grids())
def test_streamed_residuals_equal_the_full_grid_composition(rng, nt, ntheta):
    # on coefficient fields sampled a window at a time, against the full grids
    specs = [sg.random_loop_field_coeffs(rng, amplitude=0.8) for _ in range(3)]
    grids = [s.sample(nt, ntheta).grid for s in specs]
    streamed = [s.stream(nt, ntheta) for s in specs]
    p = sg.random_group_path_coeffs(rng, amplitude=0.6).sample(ntheta)
    cocycle = sg.kappa_cocycle_residual(*streamed)
    assert cocycle > 0.0
    assert cocycle == _cocycle_by_composition(*grids)
    conjugation = sg.kappa_conjugation_identity_residual(p, *streamed[:2])
    assert conjugation > 0.0
    assert conjugation == _conjugation_by_composition(p, *grids[:2])
    blocks = sg._blocks(nt + 1, ntheta + 1)  # the stream's windows slice the grid
    for blk, win in zip(blocks, streamed[0].windows(blocks)):
        assert np.array_equal(win, grids[0][:, blk.a:blk.b])


@pytest.mark.parametrize("nt, ntheta", _streamed_grids())
def test_kappa_exponent_takes_streamed_fields(rng, nt, ntheta):
    # A streams like the residuals and equals the one-pass value on the full
    # grids
    specs = [sg.random_loop_field_coeffs(rng, amplitude=0.8) for _ in range(2)]
    value = sg.kappa_exponent(*(s.stream(nt, ntheta) for s in specs))
    assert value != 0.0
    assert value == full_grid_exponent(*(s.sample(nt, ntheta).grid for s in specs))


@pytest.mark.parametrize("nt, ntheta", _streamed_grids())
def test_one_block_spanning_the_grid_gives_the_blocked_values(rng, monkeypatch, nt, ntheta):
    # a stream samples the windows of the blocks in force when it is read, and
    # on one-row blocks (40 x 16385) its samples differ by an ulp from those of
    # one block; so each field reads the grid it samples under the default
    # blocks, whatever blocks the kernels then take
    fs = []
    for _ in range(3):
        spec = sg.random_loop_field_coeffs(rng, amplitude=0.8)
        fs.append(spec.stream(nt, ntheta))
        grid = spec.sample(nt, ntheta).grid
        monkeypatch.setattr(fs[-1], "windows",
                            lambda blocks, grid=grid: (grid[:, b.a:b.b] for b in blocks))
    p = sg.random_group_path_coeffs(rng, amplitude=0.6).sample(ntheta)

    def values():
        return (sg.kappa_exponent(fs[0], fs[1]), sg.kappa_cocycle_residual(*fs),
                sg.kappa_conjugation_identity_residual(p, fs[0], fs[1]))

    blocked = values()
    monkeypatch.setattr(sg, "BLOCK_POINTS", (nt + 1) * (ntheta + 1))
    assert len(sg._blocks(nt + 1, ntheta + 1)) == 1
    assert values() == blocked


@pytest.mark.parametrize("nt, ntheta", _streamed_grids())
def test_a_stream_samples_each_row_once(rng, monkeypatch, nt, ntheta):
    rows, real = [], sg.exp_su2
    monkeypatch.setattr(sg, "exp_su2", lambda v, out=None: rows.append(v.shape[1]) or real(v, out))
    blocks = sg._blocks(nt + 1, ntheta + 1)
    windows = list(sg.random_loop_field_coeffs(rng).stream(nt, ntheta).windows(blocks))
    assert [w.shape[1] for w in windows] == [b.b - b.a for b in blocks]
    assert sum(rows) == nt + 1


@pytest.mark.parametrize("residual, position", [("cocycle", 0), ("cocycle", 1), ("cocycle", 2),
                                                ("conjugation", 0), ("conjugation", 1)])
def test_nan_coefficients_raise_the_same_error_from_the_stream(rng, residual, position):
    # a suite evaluation (as a run and a replay make it) streams its loop
    # fields, and the stream checks their coefficients as they enter: a NaN
    # field in any position raises the error of sampling it in full
    bad = np.full((3, 2, 2), np.nan)
    with pytest.raises(InputError) as sampled:
        sg.LoopFieldCoeffs(bad).sample(64, 48)
    spec = REGISTRY[f"kappa-{residual}"]
    config = RunConfig(nt=64, ntheta=48, suites=(spec.name,))
    [inputs] = spec.sample(config, rng)
    inputs[position + (residual == "conjugation")] = bad  # after the path p
    with pytest.raises(InputError) as streamed:
        spec.evaluate(config, inputs)
    assert str(streamed.value) == str(sampled.value)
    with pytest.raises(InputError, match="5x5"):
        sg.LoopFieldCoeffs(bad).stream(3, 48)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200, -2e150])
def test_bad_fixture_coefficients_are_refused_where_they_enter(rng, value):
    # refused before any sample is made, so no overflow or invalid-value
    # warning is raised on the way
    loop = sg.random_loop_field_coeffs(rng).coeffs
    path = sg.random_group_path_coeffs(rng).coeffs
    loop[1, 0, 1] = path[2, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="loop field coefficients must be finite") as streamed:
            sg.LoopFieldCoeffs(loop).stream(16, 16)
        with pytest.raises(InputError) as sampled:
            sg.LoopFieldCoeffs(loop).sample(16, 16)
        with pytest.raises(InputError, match="group path coefficients must be finite"):
            sg.GroupPathCoeffs(path).sample(16)
    assert str(streamed.value) == str(sampled.value)


@pytest.mark.parametrize("shape", [(1, 3), (3, 2, 2), (1, 2, 2), (3, 2), (3,),
                                   (3, 0), (3, 0, 2), (3, 2, 0)])
def test_fixture_coefficients_of_another_shape_are_refused_where_they_enter(shape):
    # the grids are sampled as derived carriers, so coefficients of a wrong
    # shape are refused before they can make a grid that is not unit; an empty
    # array of the right axes is refused before its magnitude is read
    coeffs = np.full(shape, 0.3)
    for what, ndim, refusals in (
            ("loop field", 3, (lambda: sg.LoopFieldCoeffs(coeffs).stream(16, 16),
                               lambda: sg.LoopFieldCoeffs(coeffs).sample(16, 16))),
            ("group path", 2, (lambda: sg.GroupPathCoeffs(coeffs).sample(16),))):
        if len(shape) != ndim or shape[0] != 3:
            message = f"^{what} coefficients must have {ndim} axes, the first of size 3$"
        elif coeffs.size == 0:
            message = f"^{what} coefficients must not be empty$"
        else:
            continue
        for refuse in refusals:
            with pytest.raises(InputError, match=message):
                refuse()


def test_coefficients_at_the_bound_give_unit_samples():
    # |v|^2 <= 48 MAX_COEFF^2 stays finite, so the exponential is unit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = sg.LoopFieldCoeffs(np.full((3, 2, 2), -sg.MAX_COEFF)).sample(16, 16)
        path = sg.GroupPathCoeffs(np.full((3, 3), sg.MAX_COEFF)).sample(16)
    assert sg.unitary_drift(field.grid) <= 1e-13
    assert sg.unitary_drift(path.samples) <= 1e-13


@pytest.mark.parametrize("suite", ["kappa-cocycle", "kappa-conjugation"])
def test_streamed_suites_hold_no_full_grid(suite):
    # the suite path samples each field a block at a time: past the row
    # integrals and the fields' t-bases (under 16 float64 per t-row) the peak
    # does not grow with nt, and it stays far below one full grid (4 (Ntheta +
    # 1) float64 per t-row)
    spec, peaks = REGISTRY[suite], {}
    for nt in (256, 2048):
        config = RunConfig(nt=nt, ntheta=256)
        [inputs] = spec.sample(config, np.random.default_rng(7))
        tracemalloc.start()
        try:
            spec.evaluate(config, inputs)
            peaks[nt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[2048] - peaks[256]) <= 16 * 8 * (2048 - 256)
    assert peaks[2048] < 4 * 2049 * 257 * 8


# traced peaks in bytes of the two residuals at 512 x 512 on streamed fields,
# as measured with block-local arrays allocated afresh for every block, as the
# kernels allocate them, and every product then re-projected onto SU(2) (numpy
# 2.4); without the re-projection they hold 3.98 and 3.79 MB.  A's ceiling is
# one full grid of one field, 4 x 513^2 float64: computed over the full grids
# it held 23.2 MB (numpy 2.4)
STREAMED_PEAK_CEILINGS = {"cocycle": 6_277_959, "conjugation": 5_313_871,
                          "exponent": 4 * 513 * 513 * 8}


def test_streamed_residuals_hold_no_more_than_block_local_arrays():
    rng = np.random.default_rng(0)
    fs = [sg.random_loop_field_coeffs(rng, KAPPA_AMPLITUDE).stream(512, 512) for _ in range(3)]
    p = sg.random_group_path_coeffs(rng, CONJ_PATH_AMPLITUDE).sample(512)
    peaks = {}
    for name, residual in (("cocycle", lambda: sg.kappa_cocycle_residual(*fs)),
                           ("conjugation",
                            lambda: sg.kappa_conjugation_identity_residual(p, *fs[:2])),
                           ("exponent", lambda: sg.kappa_exponent(*fs[:2]))):
        tracemalloc.start()
        try:
            residual()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peaks[name] <= ceiling for name, ceiling in STREAMED_PEAK_CEILINGS.items()), peaks


def test_blocks_partition_the_rows_and_window_their_stencils():
    for n_rows, n_cols in [(5, 5), (9, 9), (257, 257), (131, 97), (301, 97), (33, 1024),
                           (34, 1024), (35, 1024), (5, 20000)]:
        blocks = sg._blocks(n_rows, n_cols)
        assert [b.lo for b in blocks[1:]] == [b.hi for b in blocks[:-1]]
        assert (blocks[0].lo, blocks[-1].hi) == (0, n_rows)
        for b in blocks:
            assert (b.hi - b.lo) * n_cols <= max(sg.BLOCK_POINTS, n_cols)
            reads = {r + d for r in range(b.lo, b.hi) for d in (-1, 1)
                     if 0 < r < n_rows - 1}
            reads |= {0, 1, 2} if b.lo == 0 else set()
            reads |= {n_rows - 3, n_rows - 2, n_rows - 1} if b.hi == n_rows else set()
            assert set(range(b.a, b.b)) == reads | set(range(b.lo, b.hi))
    assert len(sg._blocks(301, 97)) == 2 and len(sg._blocks(257, 257)) == 5


def _poison_last_block(monkeypatch, kernel, is_operand):
    """Put a NaN into one computed product or conjugate, in the last of the two
    blocks of a 301-row grid only: the kernel's output where the window it
    reads passes is_operand."""
    real = getattr(sg, kernel)

    def poisoned(a, b, **buffers):
        out = real(a, b, **buffers)
        field = b if kernel == "_rotate" else a
        if is_operand(field) and field.shape[1] < 150:
            out[:, -1, 5] = np.nan
        return out

    monkeypatch.setattr(sg, kernel, poisoned)


@pytest.mark.parametrize("residual, kernel, operand", [
    ("cocycle", "_hamilton", 0),  # f g
    ("cocycle", "_hamilton", 1),  # g h
    ("conjugation", "_hamilton", 0),  # f1 f2
    ("conjugation", "_rotate", 0),  # p f1 p^-1
    ("conjugation", "_rotate", 1),  # p f2 p^-1
])
def test_a_nan_in_a_streamed_product_reaches_the_residual(rng, monkeypatch, residual, kernel,
                                                         operand):
    # products and conjugates of checked rows are not checked again
    fs = [sg.random_loop_field_coeffs(rng, amplitude=0.8).stream(300, 96) for _ in range(3)]
    p = sg.random_group_path_coeffs(rng, amplitude=0.6).sample(96)
    assert [(b.a, b.b) for b in sg._blocks(301, 97)] == [(0, 169), (167, 301)]
    # the windows the operand's stream yields name it
    windows, real = [], fs[operand].windows
    monkeypatch.setattr(fs[operand], "windows",
                        lambda blocks: (windows.append(w) or w for w in real(blocks)))
    _poison_last_block(monkeypatch, kernel,
                       lambda field: any(np.shares_memory(field, w) for w in windows))
    if residual == "cocycle":
        value = sg.kappa_cocycle_residual(*fs)
    else:
        value = sg.kappa_conjugation_identity_residual(p, fs[0], fs[1])
    assert np.isnan(value)


def test_a_nan_in_a_streamed_product_fails_the_suite(monkeypatch):
    _poison_last_block(monkeypatch, "_hamilton", lambda field: True)
    entry = run(RunConfig(nt=300, ntheta=96, suites=("kappa-cocycle",)))["suites"][0]
    assert entry["passed"] is False
    assert np.isnan(entry["max_residual"])
    assert entry["witness"]["component"] == "cocycle"
    assert len(entry["witness"]["inputs"]) == 3
