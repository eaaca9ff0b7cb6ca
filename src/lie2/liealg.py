"""Finite-dimensional real Lie algebras given by structure constants.

A presentation is the tensor c with [e_i, e_j] = sum_k c[i, j, k] e_k together
with an invariant symmetric bilinear form B.  The canonical 3-form is
nu(x, y, z) = B(x, [y, z]); invariance of B makes nu totally antisymmetric and
closed for the Chevalley-Eilenberg differential.  The level k of an extension
multiplies the form the presentation carries; a form other than a bundled one,
such as c I, comes from an algebra file.  Structure and form must be finite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# validate builds dim^4 intermediates, 8 MiB each at dim 32: there it takes
# 68 ms and a peak RSS of 46 MiB, and the ten polynomial suites and exactness
# pass in 0.55 s at the defaults (2 vCPUs); at 48 validate alone takes 0.38 s
# and 111 MiB, and the cost grows as dim^4
MAX_DIM = 32


class InputError(ValueError):
    """Bad user-supplied data (dimensions, files, configuration)."""


@dataclass(frozen=True, eq=False)
class LieAlgebraPresentation:
    name: str
    dim: int
    structure: np.ndarray  # (n, n, n), c[i, j, k]
    form: np.ndarray  # (n, n), symmetric invariant

    def __post_init__(self):
        structure = np.asarray(self.structure, dtype=float)
        form = np.asarray(self.form, dtype=float)
        if structure.shape != (self.dim,) * 3:
            raise InputError(f"structure tensor must be {(self.dim,) * 3}")
        if form.shape != (self.dim, self.dim):
            raise InputError(f"form must be {(self.dim, self.dim)}")
        # refused where they enter, so validate's NaN checks flag only overflow
        if not (np.isfinite(structure).all() and np.isfinite(form).all()):
            raise InputError(f"{self.name}: structure and form must be finite")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "form", form)

    def validate(self, tol: float = 0.0) -> None:
        """Check antisymmetry, Jacobi, and invariance of the form.

        tol=0 demands exact equality, which the bundled integer /
        half-integer tables satisfy.
        """
        c, b = self.structure, self.form
        # a check that overflows reads NaN, which "not <= tol" fails
        with np.errstate(over="ignore", invalid="ignore"):
            anti = np.abs(c + c.transpose(1, 0, 2)).max()
            if not anti <= tol:
                raise InputError(f"{self.name}: bracket not antisymmetric (max {anti})")
            jacobi = np.abs(
                np.einsum("ijm,mlk->ijlk", c, c)
                + np.einsum("jlm,mik->ijlk", c, c)
                + np.einsum("lim,mjk->ijlk", c, c)
            ).max()
            if not jacobi <= tol:
                raise InputError(f"{self.name}: Jacobi identity fails (max {jacobi})")
            if not np.abs(b - b.T).max() <= tol:
                raise InputError(f"{self.name}: form not symmetric")
            # B([x,y],z) + B(y,[x,z]) = 0 on basis triples <=> nu totally antisymmetric
            t = np.einsum("ijm,mk->ijk", c, b)
            if not np.abs(t + t.transpose(0, 2, 1)).max() <= tol:
                raise InputError(f"{self.name}: form not invariant")

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("ijk,...i,...j->...k", self.structure, x, y)

    def pair(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        return np.einsum("...i,ij,...j->...", x, self.form, y)

    def nu(self, x, y, z) -> float | np.ndarray:
        """Canonical 3-form B(x, [y, z])."""
        return self.pair(x, self.bracket(y, z))


def _cyclic_structure(n: int = 3) -> np.ndarray:
    c = np.zeros((n, n, n))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return c


def su2() -> LieAlgebraPresentation:
    """[e1,e2] = e3 cyclically, with the identity form."""
    return LieAlgebraPresentation("su2", 3, _cyclic_structure(), np.eye(3))


def so3() -> LieAlgebraPresentation:
    """Rotation generators; same epsilon table as su2 (isomorphic real forms)."""
    return LieAlgebraPresentation("so3", 3, _cyclic_structure(), np.eye(3))


def sl2() -> LieAlgebraPresentation:
    """Basis (h, e, f) with [h,e]=2e, [h,f]=-2f, [e,f]=h and the trace form.

    Exercises a non-identity (indefinite) invariant form with exact
    integer entries.
    """
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 2.0, -2.0
    c[0, 2, 2], c[2, 0, 2] = -2.0, 2.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    b = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return LieAlgebraPresentation("sl2", 3, c, b)


_BUNDLED = {"su2": su2, "so3": so3, "sl2": sl2}


def _integer(value, what: str) -> int:
    """A dim or an index of an algebra file: a JSON number with an integral
    value.  A bool, a string or a fraction is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """A structure value or a form entry of an algebra file: a JSON number.
    A bool or a string is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{what} is past float64: {value!r}") from exc


def load_presentation(source: str | Path) -> LieAlgebraPresentation:
    """Resolve a bundled name or load a JSON structure-constants file.

    File schema: ``name``, ``dim`` (an integer, at most ``MAX_DIM``; refused
    before anything is allocated), ``structure`` as a list of [i, j, k, value]
    with 1-based integer indices (only i < j entries required; the loader
    antisymmetrizes), optional ``form`` as a symmetric n x n row-major array
    (default identity), taken as written: an asymmetric form is refused, not
    symmetrized.  Values and form entries are JSON numbers, not strings or
    bools.  A file's table is checked to 1e-12, a bundled one exactly.
    """
    key = str(source)
    if key in _BUNDLED:
        g = _BUNDLED[key]()
        g.validate(tol=0.0)
        return g
    path = Path(source)
    if not path.is_file():
        raise InputError(f"unknown algebra {source!r}: not bundled and not a file")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read algebra file {path}: {exc}") from exc
    try:
        name = str(doc["name"])
        dim = doc["dim"]
        entries = list(doc["structure"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra file {path}: {exc}") from exc
    n = _integer(dim, "dim")
    if not 0 < n <= MAX_DIM:
        raise InputError(f"dim must lie in [1, {MAX_DIM}], got {n}")
    c = np.zeros((n, n, n))
    for entry in entries:
        try:
            i, j, k, value = entry
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad structure entry {entry!r}") from exc
        value = _number(value, f"value in structure entry {entry!r}")
        i, j, k = (_integer(x, f"index in structure entry {entry!r}") - 1 for x in (i, j, k))
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise InputError(f"structure entry {entry!r} out of range")
        c[i, j, k] = value
        c[j, i, k] = -value
    rows = doc.get("form", np.eye(n).tolist())
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise InputError(f"form must be {n}x{n}")
    form = np.array([[_number(x, "form entry") for x in row] for row in rows])
    g = LieAlgebraPresentation(name, n, c, form)
    g.validate(tol=1e-12)
    return g
