import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie2.liealg import InputError
from lie2.paths import (
    BASED,
    FREE,
    LOOP,
    TWO_PI,
    PolyPath,
    derivative,
    integral_pairing,
    pointwise_bracket,
    random_path,
    random_splitting,
    scalar_path,
    universal_integral,
    validate_splitting,
    zero_path,
)


def linear_path(g, x):
    return PolyPath(g, np.outer(x, [0.0, 1.0]), BASED)


def test_derivative_of_linear_path_is_constant(g):
    p = linear_path(g, np.array([1.0, 2.0, 3.0]))
    dp = derivative(p)
    assert dp.degree == 0
    assert np.allclose(dp.coeffs[:, 0], np.array([1.0, 2.0, 3.0]) / TWO_PI)


def test_derivative_of_zero_path(g):
    assert derivative(zero_path(g)).norm() == 0.0


def test_derivative_quadratic_endpoint(g):
    p = PolyPath(g, np.outer([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), BASED)  # u^2 e1
    assert np.allclose(derivative(p).endpoint(), [2.0 / TWO_PI, 0.0, 0.0])


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
    u = 0.37
    assert np.allclose(br.eval(u), g.bracket(p.eval(u), q.eval(u)))


def test_pointwise_bracket_kinds(g, rng):
    based = random_path(g, rng, 3, BASED)
    loop = random_path(g, rng, 3, LOOP)
    assert pointwise_bracket(based, based).kind == BASED
    assert pointwise_bracket(based, loop).kind == LOOP
    assert pointwise_bracket(loop, loop).kind == LOOP


def test_integral_pairing_monomial(g):
    p = linear_path(g, np.array([1.0, 0.0, 0.0]))
    assert integral_pairing(p, p) == pytest.approx(TWO_PI / 3.0)


def test_integral_pairing_orthogonal_directions(g):
    p = linear_path(g, np.array([1.0, 0.0, 0.0]))
    q = linear_path(g, np.array([0.0, 1.0, 0.0]))
    assert integral_pairing(p, q) == 0.0


def test_integral_pairing_zero(g, rng):
    assert integral_pairing(zero_path(g), random_path(g, rng, 4)) == 0.0


def test_endpoint_examples(g, rng):
    assert np.allclose(random_path(g, rng, 5, LOOP).endpoint(), 0.0, atol=1e-14)
    assert np.allclose(linear_path(g, np.array([2.0, 0.0, 1.0])).endpoint(),
                       [2.0, 0.0, 1.0])
    bump = PolyPath(g, np.outer([1.0, 0, 0], [0.0, 1.0, -1.0]), LOOP)  # (u - u^2) e1
    assert np.allclose(bump.endpoint(), 0.0)


def test_universal_integral_linear():
    assert universal_integral(np.array([0.0, 1.0])) == pytest.approx(-1.0 / 6.0)


def test_universal_integral_smoothstep():
    assert universal_integral(np.array([0.0, 0.0, 3.0, -2.0])) == \
        pytest.approx(-1.0 / 6.0, abs=1e-13)


def test_universal_integral_quintic():
    f = np.zeros(6)
    f[5] = 1.0
    assert universal_integral(f) == pytest.approx(-1.0 / 6.0, abs=1e-13)


def test_universal_integral_accepts_scalar_path():
    assert universal_integral(scalar_path([0.0, 1.0])) == pytest.approx(-1.0 / 6.0)


def test_universal_integral_rejects_bad_endpoints():
    with pytest.raises(InputError):
        universal_integral(np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        universal_integral(np.array([0.0, 2.0]))


def test_integration_by_parts_based(g, rng):
    p, q = random_path(g, rng, 5), random_path(g, rng, 4)
    lhs = integral_pairing(p, derivative(q)) + integral_pairing(derivative(p), q)
    assert lhs == pytest.approx(g.pair(p.endpoint(), q.endpoint()), abs=1e-13)


def test_integration_by_parts_loop(g, rng):
    p = random_path(g, rng, 5)
    loop = random_path(g, rng, 5, LOOP)
    assert integral_pairing(p, derivative(loop)) == \
        pytest.approx(-integral_pairing(derivative(p), loop), abs=1e-13)


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
        PolyPath(g, np.ones((2, 2)), FREE)  # wrong coordinate count


def test_constructor_rejects_nan_endpoints(g):
    with pytest.raises(InputError):
        PolyPath(g, np.full((3, 3), np.nan), LOOP)
    with pytest.raises(InputError):  # an infinite max|coeffs| is no bound
        PolyPath(g, np.full((3, 3), np.inf), LOOP)
    block = np.zeros((4, 3, 3))
    block[2, 1, 0] = np.nan  # one trial of a block of based paths
    with pytest.raises(InputError):
        PolyPath(g, block, BASED)


def test_endpoint_check_is_relative_to_scale(g, rng):
    # roundoff in the endpoint of a bracket grows with the coefficients
    p, q = (100.0 * random_path(g, rng, 8, LOOP) for _ in range(2))
    assert pointwise_bracket(p, q).kind == LOOP
    with pytest.raises(InputError):
        PolyPath(g, np.outer([1e4, 0, 0], [0.0, 1.0, -1.0 + 1e-6]), LOOP)


def test_degree_grows_without_truncation(g, rng):
    p, q = random_path(g, rng, 3), random_path(g, rng, 4)
    assert pointwise_bracket(p, q).degree == 7


def test_random_splitting_is_admissible(rng):
    for _ in range(10):
        validate_splitting(random_splitting(rng, 8))


small_coeffs = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=2, max_size=5
)


@settings(max_examples=50)
@given(small_coeffs, small_coeffs)
def test_addition_linear_in_evaluation(ca, cb):
    from lie2.liealg import su2
    g = su2()
    a = PolyPath(g, np.array([ca, [0.0] * len(ca), [0.0] * len(ca)]))
    b = PolyPath(g, np.array([cb, [0.0] * len(cb), [0.0] * len(cb)]))
    u = 0.625
    assert np.allclose((a + b).eval(u), a.eval(u) + b.eval(u))
    assert np.allclose((a - b).eval(u), a.eval(u) - b.eval(u))
    assert np.allclose((2.5 * a).eval(u), 2.5 * a.eval(u))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=8))
def test_universal_integral_on_random_degrees(degree):
    rng = np.random.default_rng(degree)
    f = random_splitting(rng, degree)
    assert universal_integral(f) == pytest.approx(-1.0 / 6.0, abs=1e-12)
