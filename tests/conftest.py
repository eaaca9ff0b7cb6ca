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
