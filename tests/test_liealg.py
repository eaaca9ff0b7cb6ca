import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lie2.liealg import (
    MAX_DIM,
    InputError,
    LieAlgebraPresentation,
    load_presentation,
    sl2,
    so3,
    su2,
)

E1, E2, E3 = np.eye(3)


def assert_su2_table(g):
    """g carries su2's structure and form, entry for entry."""
    assert np.array_equal(g.structure, su2().structure)
    assert np.array_equal(g.form, su2().form)


def test_su2_bracket_cyclic(g):
    assert np.allclose(g.bracket(E1, E2), E3)
    assert np.allclose(g.bracket(E2, E3), E1)
    assert np.allclose(g.bracket(E3, E1), E2)


def test_bracket_antisymmetry_on_diagonal(g, rng):
    x = rng.uniform(-1, 1, 3)
    assert np.allclose(g.bracket(x, x), 0.0)


def test_bracket_bilinearity_example(g):
    assert np.allclose(g.bracket(E1 + E2, E2), E3)


def test_nu_worked_value(g):
    assert g.nu(E1, E2, E3) == pytest.approx(1.0)


def test_nu_antisymmetry(g, rng):
    x, z = rng.uniform(-1, 1, (2, 3))
    assert g.nu(x, x, z) == pytest.approx(0.0, abs=1e-15)
    assert g.nu(E1, E3, E2) == pytest.approx(-g.nu(E1, E2, E3))


def test_nu_totally_antisymmetric_on_basis(g):
    for i in range(3):
        for j in range(3):
            for k in range(3):
                v = g.nu(np.eye(3)[i], np.eye(3)[j], np.eye(3)[k])
                assert v == pytest.approx(-g.nu(np.eye(3)[j], np.eye(3)[i], np.eye(3)[k]))
                assert v == pytest.approx(-g.nu(np.eye(3)[i], np.eye(3)[k], np.eye(3)[j]))


def test_bundled_presentations_validate_exactly():
    for make in (su2, so3, sl2):
        make().validate(tol=0.0)


def test_ce_cocycle_residual_vanishes(g, rng, ce_residual):
    worst = max(
        ce_residual(g, *rng.uniform(-1, 1, (4, 3)))
        for _ in range(100)
    )
    assert worst <= 1e-12


def test_ce_cocycle_repeated_argument(g, rng, ce_residual):
    w = rng.uniform(-1, 1, 3)
    y, z = rng.uniform(-1, 1, (2, 3))
    assert ce_residual(g, w, w, y, z) == pytest.approx(0.0, abs=1e-15)


def test_ce_cocycle_vacuous_in_dimension_three(g, rng, ce_residual):
    # an alternating 4-form on a 3-dimensional space is identically zero, so
    # in dim 3 the residual vanishes for any symmetric form whatsoever
    bad_form = np.eye(3)
    bad_form[0, 1] = bad_form[1, 0] = 0.4
    broken = LieAlgebraPresentation("su2-skewed", 3, g.structure, bad_form)
    worst = max(
        ce_residual(broken, *rng.uniform(-1, 1, (4, 3)))
        for _ in range(20)
    )
    assert worst <= 1e-13


def test_ce_cocycle_detects_non_invariant_form(g6, rng, ce_residual):
    # sanity oracle on a 6-dimensional algebra: a form mixing the two simple
    # blocks breaks closedness, so the test has power
    g6.validate(tol=0.0)
    worst_good = max(
        ce_residual(g6, *rng.uniform(-1, 1, (4, 6)))
        for _ in range(50)
    )
    assert worst_good <= 1e-12
    bad_form = np.eye(6)
    bad_form[0, 4] = bad_form[4, 0] = 0.4
    bad_form[1, 1] = 2.0
    broken = LieAlgebraPresentation("broken6", 6, g6.structure, bad_form)
    worst = max(
        ce_residual(broken, *rng.uniform(-1, 1, (4, 6)))
        for _ in range(50)
    )
    assert worst > 1e-2


def test_sl2_trace_form_is_invariant():
    a = sl2()
    a.validate(tol=0.0)
    h, e, f = np.eye(3)
    assert np.allclose(a.bracket(h, e), 2 * e)
    assert np.allclose(a.bracket(e, f), h)
    assert a.pair(e, f) == pytest.approx(1.0)


def test_loader_bundled_names():
    assert load_presentation("su2").name == "su2"
    assert load_presentation("so3").dim == 3


def test_loader_unknown_name():
    with pytest.raises(InputError):
        load_presentation("nonesuch")


def test_loader_roundtrip(tmp_path):
    doc = {
        "name": "su2-file",
        "dim": 3,
        "structure": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
    }
    path = tmp_path / "su2.json"
    path.write_text(json.dumps(doc))
    g = load_presentation(path)
    assert np.allclose(g.structure, su2().structure)
    assert np.allclose(g.form, np.eye(3))
    path.write_text(json.dumps({**doc, "form": (3.0 * np.eye(3)).tolist()}))
    assert np.array_equal(load_presentation(path).form, 3.0 * np.eye(3))
    # a dim or an index written as an integral float is that integer
    path.write_text(json.dumps({**doc, "dim": 3.0, "structure": [
        [1.0, 2.0, 3.0, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]}))
    assert_su2_table(load_presentation(path))


def test_loader_rejects_non_jacobi(tmp_path):
    doc = {"name": "bad", "dim": 3,
           "structure": [[1, 2, 3, 1.0], [1, 3, 2, 1.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_presentation(path)


SU2_TABLE = '[[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]'
BAD_FILES = {
    "structure not a list": '{"name": "x", "dim": 3, "structure": 5}',
    "entry value not a number": '{"name": "x", "dim": 3, "structure": [[1, 2, 3, "abc"]]}',
    "entry index not a number": '{"name": "x", "dim": 3, "structure": [[1, "b", 3, 1.0]]}',
    "form not numeric": '{"name": "x", "dim": 3, "structure": %s, "form": "abc"}' % SU2_TABLE,
    "ragged form": '{"name": "x", "dim": 3, "structure": [], "form": [[1, 0, 0], [0, 1]]}',
    "dim past float64": '{"name": "x", "dim": 1e400, "structure": []}',
    "structure past float64": '{"name": "x", "dim": 3, "structure": [[1, 2, 3, 1e400]]}',
    "infinite structure": '{"name": "x", "dim": 3, "structure": [[1, 2, 3, Infinity]]}',
    "NaN structure": '{"name": "x", "dim": 3, "structure": [[1, 2, 3, NaN]]}',
    "form past float64": '{"name": "x", "dim": 3, "structure": %s, '
                         '"form": [[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]}' % SU2_TABLE,
    "NaN form": '{"name": "x", "dim": 3, "structure": %s, '
                '"form": [[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]}' % SU2_TABLE,
    # refused as written, not symmetrized into a form the file does not state
    "asymmetric form": '{"name": "x", "dim": 2, "structure": [], "form": [[1, 3], [0, 1]]}',
    # finite, but its Jacobi check overflows to NaN
    "su2 table times 1e200": '{"name": "x", "dim": 3, "structure": '
                             '[[1, 2, 3, 1e200], [2, 3, 1, 1e200], [3, 1, 2, 1e200]]}',
}


@pytest.mark.parametrize("text", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_loader_refuses_a_malformed_or_non_finite_file(tmp_path, text):
    # a NaN entry, or a check that overflows to NaN, is an input error, not a
    # nan residual in the suites
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InputError):
        load_presentation(path)


@pytest.mark.parametrize("dim", [0, -3, MAX_DIM + 1, 10_000_000])
def test_loader_refuses_a_dim_past_the_bound_before_allocating(tmp_path, dim):
    # a structure tensor of dim 1e7 would take 8e21 bytes: the loader refuses
    # the dim before it allocates anything of that size
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "dim": dim, "structure": []}))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"dim must lie in \\[1, {MAX_DIM}\\], got {dim}"):
            load_presentation(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loader_accepts_a_dim_at_the_bound(tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"name": "abelian", "dim": MAX_DIM, "structure": []}))
    assert load_presentation(path).dim == MAX_DIM


# a dim or an index is an integral number: int() would truncate 3.7 to 3 and
# 1.5 to 1, and read "3" and true as numbers, so each of these files would
# load as a table it does not state
NON_INTEGERS = {
    "dim a fraction": {"dim": 3.7},
    "dim a string": {"dim": "3"},
    "dim a bool": {"dim": True, "structure": []},
    "index a fraction": {"structure": [[1.5, 2, 3, 1], [2, 3, 1, 1], [3, 1, 2, 1]]},
    "index a string": {"structure": [["1", 2, 3, 1], [2, 3, 1, 1], [3, 1, 2, 1]]},
    "index a bool": {"structure": [[True, 2, 3, 1], [2, 3, 1, 1], [3, 1, 2, 1]]},
}


@pytest.mark.parametrize("changes", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_loader_refuses_a_dim_or_index_that_is_not_an_integer(tmp_path, changes):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"name": "x", "dim": 3, "structure": json.loads(SU2_TABLE),
                                **changes}))
    with pytest.raises(InputError, match="must be an integer, got "):
        load_presentation(path)


# a structure value or a form entry is a JSON number: float() and
# np.asarray(dtype=float) would read "1" and true as 1.0, so each of these
# files would load as su(2) with the identity form
SU2_FORM = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
NON_NUMBERS = {
    "value a string": {"structure": [[1, 2, 3, "1"], [2, 3, 1, 1], [3, 1, 2, 1]]},
    "value a bool": {"structure": [[1, 2, 3, 1], [2, 3, 1, True], [3, 1, 2, 1]]},
    "form entry a string": {"form": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]},
    "form entry a bool": {"form": [[1, 0, 0], [0, True, 0], [0, 0, 1]]},
}


@pytest.mark.parametrize("changes", NON_NUMBERS.values(), ids=NON_NUMBERS.keys())
def test_loader_refuses_a_value_or_form_entry_that_is_not_a_number(tmp_path, changes):
    path = tmp_path / "x.json"
    doc = {"name": "x", "dim": 3, "structure": json.loads(SU2_TABLE), "form": SU2_FORM}
    path.write_text(json.dumps(doc))
    assert_su2_table(load_presentation(path))
    path.write_text(json.dumps({**doc, **changes}))
    with pytest.raises(InputError, match="must be a number, got "):
        load_presentation(path)


def test_presentations_are_finite(g):
    with pytest.raises(InputError, match="structure and form must be finite"):
        LieAlgebraPresentation("x", 3, g.structure, np.diag([1.0, np.nan, 1.0]))


coords = st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                  min_size=3, max_size=3).map(np.array)


@given(coords, coords, coords)
def test_bracket_bilinear_and_antisymmetric(x, y, z):
    g = su2()
    assert np.allclose(g.bracket(x + z, y), g.bracket(x, y) + g.bracket(z, y))
    assert np.allclose(g.bracket(x, y), -g.bracket(y, x))


@given(coords, coords, coords)
def test_form_invariance(x, y, z):
    g = su2()
    assert g.pair(g.bracket(x, y), z) + g.pair(y, g.bracket(x, z)) == \
        pytest.approx(0.0, abs=1e-9)
