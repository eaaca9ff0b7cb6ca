import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie2 import su2grid as sg
from lie2.liealg import InputError, sl2, su2
from lie2.linfty import PathSpace, random_elements
from lie2.paths import (
    BASED,
    LOOP,
    SCALAR_LINE,
    PolyPath,
    derivative_pairing,
    f_minus_f2,
    pointwise_bracket,
    random_path,
    random_splitting,
    universal_integral,
    validate_splitting,
    zero_path,
)
from lie2.replay import deserialize_element


def linear_path(g, x):
    return PolyPath(g, np.outer(x, [0.0, 1.0]), BASED)


def test_pointwise_bracket_self_is_zero(g, rng):
    p = random_path(g, rng, 4)
    assert pointwise_bracket(p, p).norm() <= 1e-15


def test_pointwise_bracket_monomials(g):
    p = linear_path(g, np.array([1.0, 0.0, 0.0]))
    q = linear_path(g, np.array([0.0, 1.0, 0.0]))
    br = pointwise_bracket(p, q)
    expected = np.zeros((3, 3))
    expected[2, 2] = 1.0  # u^2 e3
    assert np.allclose(br.coeffs, expected)


def test_pointwise_bracket_evaluation_homomorphism(g, rng):
    p, q = random_path(g, rng, 3), random_path(g, rng, 4)
    br = pointwise_bracket(p, q)
    assert np.allclose(br.endpoint(), g.bracket(p.endpoint(), q.endpoint()))
    u = [0.37]
    assert np.allclose(br.eval_grid(u), g.bracket(p.eval_grid(u), q.eval_grid(u)))


def test_pointwise_bracket_kinds(g, rng):
    based = random_path(g, rng, 3, BASED)
    loop = random_path(g, rng, 3, LOOP)
    assert pointwise_bracket(based, based).kind == BASED
    assert pointwise_bracket(based, loop).kind == LOOP
    assert pointwise_bracket(loop, loop).kind == LOOP


def test_derived_paths_carry_kind_through_the_lattice(g, rng):
    # derived paths skip the entry checks, so their kinds must be right by
    # construction: a loop only where both summands, or one bracket factor, are
    based = PolyPath(g, rng.uniform(-1, 1, (4, 3, 5)) * [0, 1, 1, 1, 1], BASED)
    loop = random_path(g, rng, 3, LOOP)
    derived = {BASED: [based + based, based + loop, loop + based, -based, 2.0 * based,
                       based[1], based - loop],
               LOOP: [loop + loop, -loop, loop * 3.0, loop - loop, loop[()],
                      pointwise_bracket(based, loop) + loop]}
    for kind, paths in derived.items():
        for p in paths:
            assert p.kind == kind
            PolyPath(g, p.coeffs, kind)  # the entry checks agree


def test_endpoint_examples(g, rng):
    assert np.allclose(random_path(g, rng, 5, LOOP).endpoint(), 0.0, atol=1e-14)
    assert np.allclose(linear_path(g, np.array([2.0, 0.0, 1.0])).endpoint(),
                       [2.0, 0.0, 1.0])
    bump = PolyPath(g, np.outer([1.0, 0, 0], [0.0, 1.0, -1.0]), LOOP)  # (u - u^2) e1
    assert np.allclose(bump.endpoint(), 0.0)


def test_f_minus_f2_smoothstep():
    # (3u^2 - 2u^3) - (9u^4 - 12u^5 + 4u^6)
    assert f_minus_f2(np.array([0.0, 0.0, 3.0, -2.0])).tolist() == \
        [0.0, 0.0, 3.0, -2.0, -9.0, 12.0, -4.0]


def test_universal_integral_linear():
    assert universal_integral(np.array([0.0, 1.0])) == pytest.approx(-1.0 / 6.0)


def test_universal_integral_smoothstep():
    assert universal_integral(np.array([0.0, 0.0, 3.0, -2.0])) == \
        pytest.approx(-1.0 / 6.0, abs=1e-13)


def test_universal_integral_quintic():
    f = np.zeros(6)
    f[5] = 1.0
    assert universal_integral(f) == pytest.approx(-1.0 / 6.0, abs=1e-13)


def test_integration_by_parts_based(g, rng):
    p, q = random_path(g, rng, 5), random_path(g, rng, 4)
    lhs = derivative_pairing(p, q) + derivative_pairing(q, p)
    assert lhs == pytest.approx(g.pair(p.endpoint(), q.endpoint()), abs=1e-13)


def test_integration_by_parts_loop(g, rng):
    p = random_path(g, rng, 5)
    loop = random_path(g, rng, 5, LOOP)
    assert derivative_pairing(p, loop) == \
        pytest.approx(-derivative_pairing(loop, p), abs=1e-13)


def fraction_derivative_pairing(form, p, q):
    """sum over i, j, a, b of B_ij p_ia q_jb * b / (a + b) in exact rationals,
    for one trial; also the scale sum of |B_ij p_ia q_jb|."""
    total, scale = Fraction(0), Fraction(0)
    for (i, a), pa in np.ndenumerate(p):
        for (j, b), qb in np.ndenumerate(q):
            term = Fraction(form[i, j]) * int(pa) * int(qb)
            scale += abs(term)
            if b:
                total += term * Fraction(b, a + b)
    return total, scale


@pytest.mark.parametrize("algebra", [su2, sl2])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_derivative_pairing_matches_rational_oracle(algebra, batch):
    g = algebra()
    rng = np.random.default_rng(7)
    for dp in range(7):
        for dq in range(7):
            pc = rng.integers(-9, 10, size=batch + (g.dim, dp + 1)).astype(float)
            qc = rng.integers(-9, 10, size=batch + (g.dim, dq + 1)).astype(float)
            pc[..., 0] = qc[..., 0] = 0.0
            got = np.asarray(derivative_pairing(PolyPath(g, pc, BASED),
                                                PolyPath(g, qc, BASED)))
            assert got.shape == batch
            for t in np.ndindex(batch):
                exact, scale = fraction_derivative_pairing(g.form, pc[t], qc[t])
                assert abs(Fraction(float(got[t])) - exact) <= 1e-14 * scale


TWO_PI = 2.0 * np.pi


def differentiate_then_pair(p, q):
    """Reference: integral of B(p, q') as the plain integral pairing of p
    against the theta-derivative of q.  The derivative, whose coefficients
    carry 1 / (2*pi), is no based path, so the pairing's einsum is spelt out
    on coefficient arrays here."""
    dq = q.coeffs[..., 1:] * np.arange(1, q.degree + 1) / TWO_PI
    moments = TWO_PI / (np.arange(p.degree + 1)[:, None]
                        + np.arange(dq.shape[-1])[None, :] + 1.0)
    return np.einsum("...ia,ij,...jb,ab->...", p.coeffs, p.algebra.form, dq, moments)


def test_derivative_pairing_matches_differentiate_then_pair(rng):
    for g in (su2(), sl2()):
        for dp, dq, kind in [(0, 3, BASED), (3, 0, BASED), (5, 4, BASED), (3, 6, LOOP),
                              (6, 2, LOOP)]:
            p = random_path(g, rng, dp)
            q = random_path(g, rng, dq, kind)
            assert derivative_pairing(p, q) == \
                pytest.approx(differentiate_then_pair(p, q), rel=1e-13, abs=1e-13)
        block = [PolyPath(g, rng.uniform(-1, 1, (4, g.dim, 5)) * [0, 1, 1, 1, 1], BASED)
                 for _ in range(2)]
        np.testing.assert_allclose(derivative_pairing(*block), differentiate_then_pair(*block),
                                   rtol=1e-13, atol=1e-13)


# The einsum definitions the matmul kernels replaced, kept as their reference.

def einsum_bracket(structure, p, q):
    terms = np.einsum("ijk,...ia,...jb->...kab", structure, p, q)
    out = np.zeros(terms.shape[:-2] + (terms.shape[-2] + terms.shape[-1] - 1,))
    for a in range(terms.shape[-2]):
        for b in range(terms.shape[-1]):
            out[..., a + b] += terms[..., a, b]
    return out


def einsum_derivative_pairing(form, p, q):
    a, b = np.arange(p.shape[-1])[:, None], np.arange(q.shape[-1])[None, :]
    return np.einsum("...ia,ij,...jb,ab->...", p, form, q, b / np.maximum(a + b, 1))


def einsum_l2_norm_sq(p):
    d = np.arange(p.shape[-1])
    return np.einsum("...ia,ab,...ib->...", p, 1.0 / (d[:, None] + d + 1.0), p)


def assert_pinned(got, reference, operands, batch):
    """got equals reference to 1e-13 of the same sum over the absolute values
    of the operands, which bounds the size of every term it adds."""
    scale = reference(*(np.abs(x) for x in operands))
    assert np.shape(got) == batch + np.shape(scale)[len(batch):]
    assert (np.abs(got - reference(*operands)) <= 1e-13 * scale).all()


@pytest.mark.parametrize("algebra", [su2, sl2, lambda: SCALAR_LINE],
                         ids=["su2", "sl2", "scalar"])
@pytest.mark.parametrize("p_batch, q_batch", [((), ()), ((7,), (7,)), ((2, 3), (2, 3)),
                                              ((), (7,)), ((2, 3), ())])
def test_matmul_kernels_match_their_einsum_definitions(algebra, p_batch, q_batch):
    g = algebra()
    rng = np.random.default_rng(8)
    pc = rng.uniform(-1, 1, p_batch + (g.dim, 5)) * [0, 1, 1, 1, 1]
    qc = rng.uniform(-1, 1, q_batch + (g.dim, 4)) * [0, 1, 1, 1]
    p, q = PolyPath(g, pc, BASED), PolyPath(g, qc, BASED)
    batch = np.broadcast_shapes(p_batch, q_batch)
    assert_pinned(pointwise_bracket(p, q).coeffs, einsum_bracket, (g.structure, pc, qc),
                  batch)
    assert_pinned(derivative_pairing(p, q), einsum_derivative_pairing, (g.form, pc, qc),
                  batch)
    assert_pinned(derivative_pairing(q, p), einsum_derivative_pairing, (g.form, qc, pc),
                  batch)
    assert_pinned(p.l2_norm_sq(), einsum_l2_norm_sq, (pc,), p_batch)


def test_norm_positive_definite(g, rng):
    p = random_path(g, rng, 6)
    assert p.norm() > 0.0
    assert zero_path(g).norm() == 0.0


def test_loop_constraints_after_projection(g, rng):
    loop = random_path(g, rng, 6, LOOP)
    assert np.abs(loop.coeffs[:, 0]).max() == 0.0
    assert np.abs(loop.coeffs.sum(axis=1)).max() <= 1e-14


def test_constructor_rejects_violations(g):
    with pytest.raises(InputError):
        PolyPath(g, np.ones((3, 2)), BASED)  # nonzero at u = 0
    with pytest.raises(InputError):
        PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0]), LOOP)  # nonzero at u = 1
    with pytest.raises(InputError):
        PolyPath(g, np.zeros((2, 2)), BASED)  # wrong coordinate count


@pytest.mark.parametrize("shape", [(3, 0), (2, 3, 0)])
def test_constructor_rejects_a_path_with_no_coefficients(g, shape):
    # the last axis holds the coefficients, one path or a batch of them
    with pytest.raises(InputError, match="^path has no coefficients$"):
        PolyPath(g, np.zeros(shape), BASED)


def test_constructor_rejects_nan_endpoints(g):
    with pytest.raises(InputError):
        PolyPath(g, np.full((3, 3), np.nan), LOOP)
    with pytest.raises(InputError):  # an infinite max|coeffs| is no bound
        PolyPath(g, np.full((3, 3), np.inf), LOOP)
    c = np.zeros((3, 3))
    c[0, 1] = np.inf  # a based path is not only its constant term
    with pytest.raises(InputError):
        PolyPath(g, c, BASED)
    c = np.zeros((3, 3))
    c[1, 1] = np.nan  # nor is a loop only its end values
    with pytest.raises(InputError):
        PolyPath(g, c, LOOP)
    block = np.zeros((4, 3, 3))
    block[2, 1, 0] = np.nan  # one trial of a block of based paths
    with pytest.raises(InputError):
        PolyPath(g, block, BASED)


def test_entry_points_reject_non_finite_coefficients(g):
    # derived and sampled paths skip the checks; every way in still runs them
    with pytest.raises(InputError, match="finite"):
        PolyPath(SCALAR_LINE, [[0.0, np.inf]], BASED)
    doc = {"type": "path", "kind": "based", "coeffs": [[0.0, math.nan]] * 3}
    with pytest.raises(InputError, match="finite"):
        deserialize_element(doc, g)
    assert zero_path(g).kind == LOOP and not zero_path(g).coeffs.any()


def test_endpoint_check_is_relative_to_scale(g, rng):
    # roundoff in the endpoint of a bracket grows with the coefficients
    p, q = (100.0 * random_path(g, rng, 8, LOOP) for _ in range(2))
    assert pointwise_bracket(p, q).kind == LOOP
    with pytest.raises(InputError):
        PolyPath(g, np.outer([1e4, 0, 0], [0.0, 1.0, -1.0 + 1e-6]), LOOP)


def test_endpoint_check_is_relative_to_each_trials_scale(g):
    # an endpoint above 1e-12 is held to 1e-12 * max(1, max|coeffs|) of its
    # own trial, for one path and for a batch
    big = np.zeros((3, 3))
    big[0, 1], big[1, 2] = 1e6, -1e6
    unit = np.zeros((3, 3))
    unit[2, 1] = 1.0
    offset = np.zeros((3, 3))
    offset[1, 0] = 1e-10
    PolyPath(g, big + offset, BASED)
    assert PolyPath(g, np.stack([big + offset, unit]), BASED).coeffs.shape == (2, 3, 3)
    with pytest.raises(InputError, match="vanish at theta = 0"):
        PolyPath(g, np.stack([big + offset, unit, unit + offset]), BASED)
    with pytest.raises(InputError, match="vanish at theta = 0"):
        PolyPath(g, big + 1e5 * offset, BASED)
    with pytest.raises(InputError, match="vanish at theta = 0"):
        PolyPath(g, np.stack([unit, big + 1e5 * offset]), BASED)
    # the end value is ((0 + 1e6) - 1e6) + 1e-10
    loop = np.outer([1.0, 0.0, 0.0], [0.0, 1e6, -1e6, 1e-10])
    assert abs(loop.sum(axis=-1)[0] - 1e-10) <= 1e-25
    PolyPath(g, loop, LOOP)
    PolyPath(g, np.stack([loop, np.zeros((3, 4))]), LOOP)
    with pytest.raises(InputError, match="vanish at theta = 2"):
        PolyPath(g, np.outer([1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1e-10]), LOOP)


def test_degree_grows_without_truncation(g, rng):
    p, q = random_path(g, rng, 3), random_path(g, rng, 4)
    assert pointwise_bracket(p, q).degree == 7


def test_random_splitting_is_admissible(rng):
    for _ in range(10):
        validate_splitting(random_splitting(rng, 8))


def _spread(draws) -> bool:
    """Whether the arrays are not all equal."""
    return not all(np.array_equal(d, draws[0]) for d in draws[1:])


def test_every_sampler_spreads_its_draws(rng):
    # a sampler that draws one value, or a degree short, would show every
    # trial one input: the draws differ, and paths and splittings reach their
    # degree with a nonzero top coefficient
    degree, draws = 5, 4
    for kind in (BASED, LOOP):
        paths = [random_path(su2(), rng, degree, kind) for _ in range(draws)]
        assert all(p.degree == degree and np.all(p.coeffs[:, degree] != 0) for p in paths)
        assert _spread([p.coeffs for p in paths])
    splittings = [random_splitting(rng, degree) for _ in range(draws)]
    assert all(f.shape == (degree + 1,) and f[degree] != 0 for f in splittings)
    assert _spread(splittings)
    for sampler in (sg.random_loop_field_coeffs, sg.random_group_path_coeffs):
        assert _spread([sampler(rng).coeffs for _ in range(draws)])
    [(block,)] = random_elements(rng, draws, (PathSpace(su2(), LOOP, degree),))
    assert block.coeffs.shape == (draws, 3, degree + 1)
    assert _spread(list(block.coeffs))


@pytest.mark.parametrize("poly", [[np.nan, np.nan, np.nan], [0.0, np.inf, 1.0], [0.0, 1.0, np.nan]])
def test_validate_splitting_rejects_non_finite_coefficients(poly):
    with pytest.raises(InputError, match="non-finite"):
        validate_splitting(poly)


small_coeffs = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=2, max_size=5
)


@settings(max_examples=50)
@given(small_coeffs, small_coeffs)
def test_addition_linear_in_evaluation(ca, cb):
    g = su2()
    a = PolyPath(g, np.outer([1.0, 0.0, 0.0], [0.0] + ca), BASED)
    b = PolyPath(g, np.outer([1.0, 0.0, 0.0], [0.0] + cb), BASED)
    u = [0.625]
    assert np.allclose((a + b).eval_grid(u), a.eval_grid(u) + b.eval_grid(u))
    assert np.allclose((a - b).eval_grid(u), a.eval_grid(u) - b.eval_grid(u))
    assert np.allclose((2.5 * a).eval_grid(u), 2.5 * a.eval_grid(u))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=8))
def test_universal_integral_on_random_degrees(degree):
    rng = np.random.default_rng(degree)
    f = random_splitting(rng, degree)
    assert universal_integral(f) == pytest.approx(-1.0 / 6.0, abs=1e-12)
