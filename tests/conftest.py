import itertools
import json

import numpy as np
import pytest

from lie2.liealg import LieAlgebraPresentation, su2


@pytest.fixture
def g():
    return su2()


@pytest.fixture
def g6():
    """su(2) + su(2): the smallest bundled-style algebra on which the 4-argument
    cocycle condition is not vacuous (alternating 4-forms vanish in dim 3)."""
    block = su2().structure
    c6 = np.zeros((6, 6, 6))
    c6[:3, :3, :3] = block
    c6[3:, 3:, 3:] = block
    return LieAlgebraPresentation("su2+su2", 6, c6, np.eye(6))


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def draw(rng):
    """One element of a space, of batch shape (), from the test's generator."""
    return lambda space: space.element(rng.uniform(-1.0, 1.0, space.width))


@pytest.fixture
def ce_residual():
    """Absolute value of the alternating-sum differential of nu on (w,x,y,z).

    Convention: d nu (v1..v4) = sum_{i<j} (-1)^(i+j) nu([v_i, v_j], rest...),
    with 1-based exponents and the remaining arguments kept in order.
    Vanishes whenever the form is invariant.
    """
    def residual(g: LieAlgebraPresentation, w, x, y, z) -> float:
        v = [np.asarray(a, dtype=float) for a in (w, x, y, z)]
        total = 0.0
        for i, j in itertools.combinations(range(4), 2):
            rest = [v[m] for m in range(4) if m not in (i, j)]
            sign = -1.0 if (i + j + 2) % 2 else 1.0  # (i+1)+(j+1)
            total += sign * g.nu(g.bracket(v[i], v[j]), rest[0], rest[1])
        return abs(total)
    return residual


@pytest.fixture
def su2_file(tmp_path):
    """Writes su2's table with the form c I to a file and returns its path: a
    form other than I comes from an algebra file."""
    def write(c: float) -> str:
        path = tmp_path / f"su2-form-{c:g}.json"
        path.write_text(json.dumps({
            "name": f"su2*{c:g}", "dim": 3,
            "structure": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
            "form": (c * np.eye(3)).tolist()}))
        return str(path)
    return write
