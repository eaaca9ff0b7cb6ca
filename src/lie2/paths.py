"""Exact polynomial model of based paths and loops on [0, 2*pi].

A path is a coefficient matrix over the rescaled variable u = theta / (2*pi),
coordinate i being sum_d coeffs[..., i, d] * u**d.  Every path is based (it
vanishes at theta = 0) and a loop is a based path that also vanishes at
theta = 2*pi, so the two kinds nest: loop inside based.  No factor of 2*pi
appears: in the derivative pairing the 2*pi of d theta cancels the
1 / (2*pi) of d / d theta, so its moments are rational.
Products and brackets grow the degree and are never truncated, so every
algebraic identity below holds to floating-point roundoff.

Every carrier has leading trial axes: ``PolyPath.coeffs`` is
``(*batch, dim, degree + 1)`` and ``CentralVector.c`` is a float or
``(*batch,)``.  One element is batch shape ``()``; operations broadcast over
the batch, and whatever they return per trial (pairings, norms) has its shape.
The kernels are matmuls, since numpy runs a multi-operand ``einsum`` as one
loop without BLAS.  Where the right operand is shared by the whole batch
and the left one is contiguous (the collector of the bracket, the moments of
the pairing and the norm), the batch is flattened into the rows of one 2-D
product (``_rows_times``): numpy runs a stacked ``(*batch, m, K) @ (K, N)``
as one small product per trial, far slower than the same rows in one.  Each
row keeps its K axis and its order, and ``tests/test_batched.py`` pins that a
trial gets the same bits in a block as alone, which witness replay relies
on.  The bracket's structure contraction stays stacked: its left operand is
a transpose, and the copy flattening it would take costs more than it saves.

Carriers are checked where they enter, from witness replay or a library
call: ``PolyPath(...)`` rejects a wrong coordinate count, an unknown kind,
non-finite coefficients and broken endpoint constraints, ``CentralVector(...)``
a component that is not a loop.  Whatever a run computes from checked data is
built by ``_derived`` or ``_derived_central`` and not checked again: the
operations (a path takes its kind through the lattice, so a NaN scalar gives
a NaN path, which its residual carries to the suite's maximum), the model
maps, ``universal_integral`` and the samplers (``projected_path`` projects
finite numbers onto the endpoint constraints; ``zero_path`` and
``zero_central`` build zeros).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .liealg import InputError, LieAlgebraPresentation

# kind lattice: a loop is in particular a based path
BASED = "based"
LOOP = "loop"


def _off_zero(values: np.ndarray, coeffs: np.ndarray) -> bool:
    """Whether the endpoint values (*batch, dim) of some trial exceed roundoff
    relative to its finite coefficients, 1e-12 * max(1, max|coeffs|).  The
    relative bound is only computed when the absolute one fails."""
    err = np.abs(values).max(axis=-1)
    if (err <= 1e-12).all():
        return False
    scale = np.abs(coeffs).max(axis=(-2, -1))
    return not (err <= 1e-12 * np.maximum(scale, 1.0)).all()


def _padded(coeffs: np.ndarray, width: int) -> np.ndarray:
    """Coefficients zero-padded along the last axis to ``width`` terms."""
    if coeffs.shape[-1] == width:
        return coeffs
    out = np.zeros(coeffs.shape[:-1] + (width,))
    out[..., : coeffs.shape[-1]] = coeffs
    return out


def _derived(algebra: LieAlgebraPresentation, coeffs: np.ndarray, kind: str) -> "PolyPath":
    """A path computed from checked paths, built without the entry checks."""
    path = object.__new__(PolyPath)
    path.__dict__.update(algebra=algebra, coeffs=coeffs, kind=kind)
    return path


def _rows_times(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``x @ matrix`` for x of shape (..., K), its leading axes flattened into
    the rows of one 2-D product: numpy runs that as one BLAS call, and a
    stacked product as one per matrix of the stack."""
    return (x.reshape(-1, x.shape[-1]) @ matrix).reshape(x.shape[:-1] + matrix.shape[1:])


@lru_cache(maxsize=None)
def _hilbert(degree: int) -> np.ndarray:
    """The moments 1 / (a + b + 1) of u^a u^b on [0, 1], one read-only
    matrix per degree."""
    a = np.arange(degree + 1)
    hilbert = 1.0 / (a[:, None] + a[None, :] + 1.0)
    hilbert.flags.writeable = False
    return hilbert


@dataclass(frozen=True, eq=False)
class PolyPath:
    algebra: LieAlgebraPresentation
    coeffs: np.ndarray  # (*batch, dim, degree + 1)
    kind: str

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if coeffs.shape[-2] != self.algebra.dim:
            raise InputError(
                f"path has {coeffs.shape[-2]} coordinates, algebra has {self.algebra.dim}"
            )
        if coeffs.shape[-1] == 0:
            raise InputError("path has no coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        if self.kind not in (BASED, LOOP):
            raise InputError(f"unknown path kind {self.kind!r}")
        if not np.isfinite(coeffs).all():
            raise InputError("path coefficients must be finite")
        if _off_zero(coeffs[..., 0], coeffs):
            raise InputError("based path must vanish at theta = 0")
        if self.kind == LOOP and _off_zero(coeffs.sum(axis=-1), coeffs):
            raise InputError("loop must vanish at theta = 2*pi")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    def __getitem__(self, index) -> "PolyPath":
        """The trials selected by indexing the batch axes."""
        return _derived(self.algebra, self.coeffs[index], self.kind)

    def eval_grid(self, u: np.ndarray) -> np.ndarray:
        """Values at many u's at once, shape (*batch, len(u), dim)."""
        powers = np.asarray(u)[:, None] ** np.arange(self.coeffs.shape[-1])[None, :]
        return powers @ np.swapaxes(self.coeffs, -1, -2)

    def endpoint(self) -> np.ndarray:
        return self.coeffs.sum(axis=-1)

    def __add__(self, other: "PolyPath") -> "PolyPath":
        width = max(self.degree, other.degree) + 1
        return _derived(self.algebra,
                        _padded(self.coeffs, width) + _padded(other.coeffs, width),
                        LOOP if self.kind == other.kind == LOOP else BASED)

    def __neg__(self) -> "PolyPath":
        return _derived(self.algebra, -self.coeffs, self.kind)

    def __sub__(self, other: "PolyPath") -> "PolyPath":
        return self + (-other)

    def __mul__(self, scalar: float) -> "PolyPath":
        return _derived(self.algebra, float(scalar) * self.coeffs, self.kind)

    __rmul__ = __mul__

    def l2_norm_sq(self) -> float | np.ndarray:
        """Integral over u in [0,1] of |p(u)|^2 (coordinate-wise squares)."""
        val = (_rows_times(self.coeffs, _hilbert(self.degree)) * self.coeffs).sum(axis=(-2, -1))
        return np.maximum(val, 0.0)

    def norm(self) -> float | np.ndarray:
        return np.sqrt(self.l2_norm_sq())


def zero_path(algebra: LieAlgebraPresentation, kind: str = LOOP) -> PolyPath:
    return _derived(algebra, np.zeros((algebra.dim, 1)), kind)


@lru_cache(maxsize=None)
def _collector(m: int, n: int) -> np.ndarray:
    """The 0/1 matrix (m n, m + n - 1) of a + b = s over the flattened (a, b),
    one read-only matrix per shape."""
    total_degree = (np.arange(m)[:, None] + np.arange(n)).reshape(-1, 1)
    collect = (total_degree == np.arange(m + n - 1)).astype(float)
    collect.flags.writeable = False
    return collect


def _antidiagonal_sums(t: np.ndarray) -> np.ndarray:
    """out[..., s] = sum over a + b = s of t[..., a, b]: the flattened (a, b)
    axes times the 0/1 matrix of a + b = s."""
    m, n = t.shape[-2:]
    return _rows_times(t.reshape(t.shape[:-2] + (m * n,)), _collector(m, n))


def pointwise_bracket(p: PolyPath, q: PolyPath) -> PolyPath:
    """[p, q](theta) = [p(theta), q(theta)]; degree adds, based/loop preserved."""
    g, n = p.algebra, p.algebra.dim
    # left[..., a, k, j] = sum_i p_ia c_ijk; against q_jb it gives the products
    # terms[..., k, a, b] of every coefficient pair, collected by total degree
    left = np.swapaxes(p.coeffs, -1, -2) @ g.structure.transpose(0, 2, 1).reshape(n, n * n)
    left = np.swapaxes(left.reshape(left.shape[:-1] + (n, n)), -3, -2)
    terms = left @ q.coeffs[..., None, :, :]
    kind = LOOP if LOOP in (p.kind, q.kind) else BASED
    return _derived(g, _antidiagonal_sums(terms), kind)


@lru_cache(maxsize=None)
def _derivative_moments(p_degree: int, q_degree: int) -> np.ndarray:
    """The moments b / (a + b) of ``derivative_pairing`` at (a, b), one
    read-only matrix per pair of degrees."""
    a = np.arange(p_degree + 1)[:, None]
    b = np.arange(q_degree + 1)[None, :]
    moments = b / np.maximum(a + b, 1)  # the a = b = 0 term is 0 / 1
    moments.flags.writeable = False
    return moments


def derivative_pairing(p: PolyPath, q: PolyPath) -> float | np.ndarray:
    """Exact integral over [0, 2*pi] of B(p(theta), q'(theta)), which is
    sum over a, b of B(p_a, q_b) * b / (a + b): rational for rational
    coefficients.  Contracting q with the moments first keeps the roundoff of
    cancelling sums (the -1/6 of ``universal_integral``) at about that of a
    plain einsum."""
    moments = _derivative_moments(p.degree, q.degree)
    return (p.coeffs * (p.algebra.form @ _rows_times(q.coeffs, moments.T))).sum(axis=(-2, -1))


# ---------------------------------------------------------------------------
# scalar polynomials (splitting functions)
# ---------------------------------------------------------------------------

SCALAR_LINE = LieAlgebraPresentation(
    "scalar", 1, np.zeros((1, 1, 1)), np.eye(1)
)


def validate_splitting(poly: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """A splitting function interpolates 0 -> 1 across the interval."""
    poly = np.atleast_1d(np.asarray(poly, dtype=float))
    if not np.isfinite(poly).all():
        raise InputError(f"splitting function {poly.tolist()} has non-finite coefficients")
    if abs(poly[0]) > tol:
        raise InputError("splitting function must vanish at theta = 0")
    if abs(poly.sum() - 1.0) > tol:
        raise InputError("splitting function must equal 1 at theta = 2*pi")
    return poly


def f_minus_f2(f: np.ndarray) -> np.ndarray:
    """The u-coefficients of f - f^2, for 1-d u-coefficients f."""
    out = -np.convolve(f, f)
    out[: len(f)] += f
    return out


def universal_integral(f) -> float:
    """Exact integral over [0, 2*pi] of f * (f - f^2)' for 1-d u-coefficients f.

    For an admissible f, f(0) = 0 and f(2*pi) = 1, the value is -1/6, but it
    is computed here from the monomial rule rather than assumed, so
    universality stays a checkable claim.  f was checked where it entered
    (``validate_splitting``) or drawn admissible, so its paths are derived.
    """
    poly = np.atleast_1d(np.asarray(f, dtype=float))
    return float(derivative_pairing(_derived(SCALAR_LINE, poly[None, :], BASED),
                                    _derived(SCALAR_LINE, f_minus_f2(poly)[None, :], BASED)))


def projected_path(algebra: LieAlgebraPresentation, coeffs: np.ndarray,
                   kind: str = BASED) -> PolyPath:
    """A path of the given kind from finite free coefficients
    (*batch, dim, degree + 1): the constant term is zeroed, and a loop's
    linear term absorbs its value at theta = 2*pi.  The projection makes the
    endpoint constraints hold, so the path is a derived one.  ``coeffs`` is
    changed in place."""
    coeffs[..., 0] = 0.0
    if kind == LOOP:
        coeffs[..., 1] -= coeffs.sum(axis=-1)
    return _derived(algebra, coeffs, kind)


def random_path(
    algebra: LieAlgebraPresentation,
    rng: np.random.Generator,
    degree: int,
    kind: str = BASED,
) -> PolyPath:
    """Coefficients iid uniform on [-1, 1], projected to the endpoint constraints."""
    return projected_path(algebra, rng.uniform(-1.0, 1.0, size=(algebra.dim, degree + 1)),
                          kind)


def random_splitting(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Random admissible splitting polynomial of the given degree."""
    poly = rng.uniform(-1.0, 1.0, size=degree + 1)
    poly[0] = 0.0
    poly[1] += 1.0 - poly.sum()
    return poly


# ---------------------------------------------------------------------------
# central extension carrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CentralVector:
    """A loop together with a central coordinate, per trial."""

    loop: PolyPath
    c: float | np.ndarray  # a float or (*batch,)

    def __post_init__(self):
        if self.loop.kind != LOOP:
            raise InputError("central vector requires a loop component")
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float)[()])

    def __getitem__(self, index) -> "CentralVector":
        """The trials selected by indexing the batch axes."""
        return _derived_central(self.loop[index], self.c[index])

    def __add__(self, other: "CentralVector") -> "CentralVector":
        return _derived_central(self.loop + other.loop, self.c + other.c)

    def __neg__(self) -> "CentralVector":
        return _derived_central(-self.loop, -self.c)

    def __sub__(self, other: "CentralVector") -> "CentralVector":
        return self + (-other)

    def __mul__(self, scalar: float) -> "CentralVector":
        return _derived_central(self.loop * scalar, self.c * float(scalar))

    __rmul__ = __mul__

    def norm(self) -> float | np.ndarray:
        return np.hypot(self.loop.norm(), self.c)


def _derived_central(loop: PolyPath, c: float | np.ndarray = np.float64(0.0)) -> CentralVector:
    """A central vector computed from checked data (its loop a loop, its c a
    float64 scalar or array, by default 0), built without the entry checks."""
    v = object.__new__(CentralVector)
    v.__dict__.update(loop=loop, c=c)
    return v


def zero_central(algebra: LieAlgebraPresentation) -> CentralVector:
    return _derived_central(zero_path(algebra, LOOP))
