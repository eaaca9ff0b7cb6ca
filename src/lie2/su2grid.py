"""Sampled SU(2)-valued paths and paths of loops: Maurer-Cartan forms, the
double integral in the exponent of the cocycle kappa, the boundary 1-form of
the conjugation lift, and their defining identities by second-order
quadrature, at unit level.

Representation.  A group sample is a unit quaternion q = (q0, q1, q2, q3),
standing for the matrix q0 I - i q . sigma = q0 I + 2 q . X with the
generators X_k = -(i/2) sigma_k, [X_i, X_j] = eps_ijk X_k.  Matrix products are
Hamilton products, the inverse is the conjugate (q0, -q), and the identity is
(1, 0, 0, 0).  Samples are real float64 arrays with the four components on the
leading axis: (4, N + 1) for a path, (4, Nt + 1, Ntheta + 1) for a path of
loops.

Lie-algebra fields are coordinates in the X basis with the three components on
the leading axis, so v . X is the pure quaternion v / 2.  The Maurer-Cartan
form q^-1 dq (or dq q^-1) is 2 x the vector part of conj(q) dq (or dq conj(q));
its scalar part is the non-skew remainder and is dropped.  Fields are paired
by the plain dot product a . b = -2 Re tr((a . X)(b . X)), in which the X_k
are orthonormal.

No level.  The level k and the scale c of a form c I (every invariant form on
su(2)'s table is one) multiply every quadrature term alike, outside the laws:
kappa = exp(2ik c A) with A the real double integral ``kappa_exponent``, whose
cocycle identity holds before it is exponentiated, and omega is linear in k c.
So each residual is the defect of its identity at unit level, in the X
pairing, and reads neither k nor c; at level k and form c I the exponentiated
defect is at most |k c| times it.  ``check_grid_algebra`` refuses any bracket
but su(2)'s.

Grids are uniform on [0, 2*pi] with N + 1 samples including both ends.
Derivatives use central differences with one-sided second-order stencils at
the boundaries; integrals use the trapezoid rule.  Both are O(h^2), which the
convergence suites verify by refinement.

Kernel arithmetic.  Every kernel works at unit step, with no step argument.
The stencils give raw differences (2h x the derivative), the Maurer-Cartan
forms are unscaled (h x the form, at the step h of their axis) and the
trapezoids are unit-step sums.  Each step cancels against one of these: A is
the unit-step trapezoid double sum of raw_t . raw_theta, C is -2 times that of
raw_t . raw_p, beta_p is -2 times the unit-step theta-sum of xi . raw_p, and
omega at unit level, 2 * the integral of xi . d eta / d theta, is the unit-step
theta-sum of xi . raw_eta.  A pairing and its theta-trapezoid are one
``einsum`` (``_theta_integrals``), which sums each component of each row over
all columns, less half of the two end columns; it sums within one row, so a
row's value does not depend on the block around it, and no (rows, Ntheta + 1)
array of pointwise pairings is formed.  The theta-stencil works on the last
axis in place, with no transpose.
``exp_su2`` goes through the half-angle tangent: numpy's float64 tan is a SIMD
loop where sin and cos are scalar libm calls (2.3 against 20-22 ns per
element, numpy 2.4 on a Xeon); it reuses three temporaries of the sample shape.
Products add their terms into the output with one scratch row; no row
reduction goes through BLAS, whose summation order depends on the block shape.
Products and conjugates of samples are used as they come, not re-projected
onto SU(2): at the suites' amplitudes those of unit samples are unit to a
few ulps (at most 1.3e-15 at 512 x 512 over five seeds; the input checks
allow 1e-10).  Each kernel allocates what it returns, but for two callers
that write into a slice of a larger array, through an ``out`` argument:
``_conjugate`` has ``_rotate`` (and so ``_products``) write the vector part
of its result, and a streamed window is written by ``exp_su2``.

Checks at entry.  ``SampledGroupPath(...)`` and ``SampledPathOfLoops(...)``
check the shape, identity rows and unitary drift of grids from outside.  The
fixtures ``GroupPathCoeffs`` and ``LoopFieldCoeffs`` check their coefficients
where they enter (``sample``, ``stream``): their axes, not empty, finite and
at most ``MAX_COEFF`` in magnitude, so |v|^2 cannot overflow and ``exp_su2``
of every sample is unit to a few ulps; they refuse fewer than 5 samples per
axis.  The grids and rows they sample pin their identity rows as built and
are derived (``_derived``).

Row-block streaming.  A row's samples and integrals do not depend on the
block of t-rows that holds it: every grid kernel is pointwise, a stencil along
theta within one row, or a 3-point stencil along t, the theta-trapezoid
reduces each row on its own, and a stream samples two or more rows at a time
(numpy's one-row product can differ in the last bit).  So A and the two kappa
residuals stream over blocks of max(2, ``BLOCK_POINTS`` // (Ntheta + 1)) rows
(31 at Ntheta = 512), a remainder of 1 or 2 rows joining the last.  A block
forms the products, conjugates, Maurer-Cartan forms and pairings of its rows,
fresh arrays of its size, and reduces them to per-row theta-sums; the
t-trapezoid runs once over the row sums.  Its t-stencils read its window, the
block and a 1-row halo clipped to the grid.  Products and conjugates of unit
rows are not checked: their boundaries are exactly the identity, so a check
could only turn a NaN into an input error; the NaN reaches the residual
instead.  The kernels read streamed loop fields (``StreamedPathOfLoops``, from
``LoopFieldCoeffs.stream``) only through ``windows(blocks)``: each row is
sampled once into one buffer, and the 2 rows a window shares with the one
before move to its front, so a call holds O(``BLOCK_POINTS``) samples per
field.  ``LoopFieldCoeffs.sample`` is one window spanning the grid.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .liealg import InputError, LieAlgebraPresentation, su2
from .paths import PolyPath, pointwise_bracket

TWO_PI = 2.0 * np.pi
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# grid points per streamed block of t-rows: its intermediates stay in a few MiB
# of cache rather than streaming whole grids through memory
BLOCK_POINTS = 1 << 14


# the terms of the quaternion product, in the form of ``_products``
_HAMILTON = (((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
             ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
             ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
             ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)))
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# a 3x3 matrix, flattened on the leading axis, times a vector
_MATRIX_ROWS = tuple(tuple((3 * i + j, j, 1) for j in range(3)) for i in range(3))
# the vector parts of conj(q) d (sign -1) and d conj(q) (sign +1)
_FORM_TERMS = {sign: tuple(((0, i + 1, 1), (i + 1, 0, -1), (j + 1, k + 1, sign),
                            (k + 1, j + 1, -sign)) for i, j, k in _CYCLIC)
               for sign in (-1.0, 1.0)}


def _products(terms, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Component i = the sum of sign * a[j] * b[k] over the terms (j, k, sign)
    of terms[i] in order, the first sign +1, added up in one scratch row;
    written into ``out`` when given, allocated otherwise."""
    if out is None:
        out = np.empty((len(terms), *np.broadcast_shapes(a.shape[1:], b.shape[1:])))
    scratch = np.empty(out.shape[1:])
    a, b = list(a), list(b)  # the components' views, made once
    for i, ((j, k, _), *rest) in enumerate(terms):
        row = out[i, ...]
        np.multiply(a[j], b[k], out=row)
        for j, k, sign in rest:
            np.multiply(a[j], b[k], out=scratch)
            (np.add if sign > 0 else np.subtract)(row, scratch, out=row)
    return out


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product over the leading axis (the 2x2 matrix product)."""
    return _products(_HAMILTON, a, b)


def _rotate(q: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Ad(q) on coordinates: the vector part of q (0, v) conj(q) for unit q,
    R v with R = (1 - 2|x|^2) I + 2 x x^T + 2 q0 [x]_cross, x the vector part;
    written into ``out`` when given."""
    x, twice_q0 = q[1:], 2.0 * q[0]
    r = 2.0 * x[:, None] * x[None, :]
    for i, j, k in _CYCLIC:
        r[i, i] = 1.0 - 2.0 * (x[j] * x[j] + x[k] * x[k])
        r[i, k] += twice_q0 * x[j]
        r[i, j] -= twice_q0 * x[k]
    return _products(_MATRIX_ROWS, r.reshape(9, *r.shape[2:]), v, out)


def _conjugate(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """q f q^-1 for quaternions q (4, 1, Ntheta + 1) and f (4, rows, Ntheta + 1)."""
    out = np.empty_like(f)
    out[0] = f[0]
    _rotate(q, f[1:], out=out[1:])
    return out


def _vector_form(q: np.ndarray, diff: np.ndarray, sign: float) -> np.ndarray:
    """Unscaled Maurer-Cartan coordinates q0 d - d0 q + sign q x d from
    quaternions q and raw differences diff = 2h dq: vec(conj(q) diff) for
    sign -1 (left form), vec(diff conj(q)) for +1 (right form), each h x the
    form at step h."""
    return _products(_FORM_TERMS[sign], q, diff)


def exp_su2(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Closed-form exponential of v . X for coordinates (3, n, ...):
    (cos(|v|/2), sin(|v|/2) v / |v|), by the half-angle tangent
    tau = tan(|v|/4): cos(|v|/2) = (1 - tau^2) / (1 + tau^2) and
    sin(|v|/2) / |v| = 2 tau / ((1 + tau^2) |v|).  Written into ``out``,
    of shape (4, ...), when given; v may be ``out[1:]``.  Three arrays of
    the sample shape are the only temporaries: |v|, tau and 1 + tau^2, the
    last reused for the coefficient of v."""
    v = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty((4, *v.shape[1:]))
    alpha = np.einsum("k...,k...->...", v, v)
    np.sqrt(alpha, out=alpha)
    tau = np.multiply(alpha, 0.25)
    np.tan(tau, out=tau)
    denom = np.multiply(tau, tau)
    denom += 1.0
    np.subtract(2.0, denom, out=out[0])
    np.divide(out[0], denom, out=out[0])
    alpha *= 0.5
    alpha *= denom  # (1 + tau^2) |v| / 2, zero exactly where v is
    coef = denom
    coef.fill(0.5)  # the limit of sin(|v|/2) / |v| at v = 0
    np.divide(tau, alpha, out=coef, where=alpha > 0.0)
    np.multiply(coef, v, out=out[1:])
    return out


def unitary_drift(q: np.ndarray) -> float:
    """max | |q|^2 - 1 | over all samples (= |U+ U - I| and |det U - 1|); NaN
    if any sample is NaN."""
    norm2 = np.einsum("k...,k...->...", q, q)
    return float(np.maximum(norm2.max() - 1.0, 1.0 - norm2.min()))


def check_grid_algebra(g: LieAlgebraPresentation) -> None:
    """Refuse a presentation whose bracket is not su(2)'s epsilon table, to
    1e-12: the grid samples SU(2).  Every invariant form on that table is c I,
    and the residuals read no form, so the form is not checked."""
    if g.dim != 3 or np.abs(g.structure - su2().structure).max() > 1e-12:
        raise InputError(f"the bracket of {g.name} is not su(2)'s epsilon table")


def _last_differences(f: np.ndarray) -> np.ndarray:
    """Raw second-order differences along the last axis, one-sided at both ends.
    The central ones run over the last two axes merged (contiguous rows); the
    ends then overwrite the values that straddle two rows."""
    out = np.empty(f.shape, f.dtype)
    merged, merged_out = f.reshape(*f.shape[:-2], -1), out.reshape(*f.shape[:-2], -1)
    np.subtract(merged[..., 2:], merged[..., :-2], out=merged_out[..., 1:-1])
    out[..., 0] = -3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]
    out[..., -1] = 3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]
    return out


def _trapz(v: np.ndarray) -> np.ndarray:
    """Unit-step trapezoid rule along the last axis."""
    return v[..., 1:-1].sum(axis=-1) + 0.5 * (v[..., 0] + v[..., -1])


# ---------------------------------------------------------------------------
# blocks of t-rows
# ---------------------------------------------------------------------------

class _Block:
    """Rows lo..hi-1 of a grid of n t-rows, and the window a..b-1 of rows their
    t-stencils read: the block and a 1-row halo, clipped to the grid."""

    def __init__(self, lo: int, hi: int, n: int):
        self.lo, self.hi, self.n = lo, hi, n
        self.a, self.b = max(lo - 1, 0), min(hi + 1, n)

    def inner(self, window: np.ndarray) -> np.ndarray:
        """The block's own rows lo..hi-1 of its window."""
        return window[:, self.lo - self.a:self.hi - self.a]


def _blocks(n_rows: int, n_cols: int) -> list[_Block]:
    step = max(2, BLOCK_POINTS // n_cols)
    bounds = [*range(0, n_rows - 2, step), n_rows]
    return [_Block(lo, hi, n_rows) for lo, hi in zip(bounds, bounds[1:])]


def _t_form(blk: _Block, window: np.ndarray) -> np.ndarray:
    """Unscaled coordinates of q^-1 dq/dt on the block's rows from quaternion
    samples (4, b - a, Ntheta + 1) of its window.  The raw differences along t
    are central inside the grid and one-sided at its first and last rows."""
    i0, i1 = blk.lo - blk.a, blk.hi - blk.a
    start, end = blk.lo == 0, blk.hi == blk.n
    c0, c1 = i0 + start, i1 - end
    diff = np.empty((4, i1 - i0, window.shape[2]))
    np.subtract(window[:, c0 + 1:c1 + 1], window[:, c0 - 1:c1 - 1], out=diff[:, c0 - i0:c1 - i0])
    if start:
        diff[:, 0] = -3.0 * window[:, 0] + 4.0 * window[:, 1] - window[:, 2]
    if end:
        diff[:, -1] = 3.0 * window[:, -1] - 4.0 * window[:, -2] + window[:, -3]
    return _vector_form(blk.inner(window), diff, -1.0)


def _right_form(q: np.ndarray) -> np.ndarray:
    """Unscaled coordinates of (dq/dtheta) q^-1 on rows q."""
    return _vector_form(q, _last_differences(q), 1.0)


# ---------------------------------------------------------------------------
# sampled carriers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SampledGroupPath:
    """Quaternions at theta_j = 2*pi*j/N, based at the identity."""

    samples: np.ndarray  # (4, N + 1) float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] != 4 or s.shape[1] < 5:
            raise InputError("group path needs at least 5 quaternion samples, shape (4, N + 1)")
        if np.any(s[:, 0] != IDENTITY):
            raise InputError("group path must start exactly at the identity")
        if not unitary_drift(s) <= 1e-10:
            raise InputError("group path samples drift off the unitary group")
        object.__setattr__(self, "samples", s)

    @property
    def n_theta(self) -> int:
        return self.samples.shape[1] - 1


@dataclass(eq=False)
class SampledPathOfLoops:
    """Grid f[:, i, j] = f(t_i, theta_j), the identity along t = 0 and theta = 0:
    a checked full grid, as ``LoopFieldCoeffs.sample`` returns it.  The
    kernels take streamed fields instead."""

    grid: np.ndarray  # (4, Nt + 1, Ntheta + 1) float

    def __post_init__(self):
        f = np.asarray(self.grid, dtype=float)
        if f.ndim != 3 or f.shape[0] != 4 or min(f.shape[1:]) < 5:
            raise InputError("loop field needs at least a 5x5 grid of quaternions, "
                             "shape (4, Nt + 1, Ntheta + 1)")
        if np.any(f[:, 0] != IDENTITY[:, None]):
            raise InputError("loop field must be the identity at t = 0")
        if np.any(f[:, :, 0] != IDENTITY[:, None]):
            raise InputError("loop field must be the identity at theta = 0")
        if not unitary_drift(f) <= 1e-10:
            raise InputError("loop field samples drift off the unitary group")
        object.__setattr__(self, "grid", f)


@dataclass(eq=False)
class StreamedPathOfLoops:
    """A ``LoopFieldCoeffs`` field bound to a grid, sampled a window of t-rows
    at a time; each row is pinned to the identity at theta = 0 (and at t = 0)
    as it is sampled.  Its coefficients were checked where they entered, so
    its rows are unit to a few ulps and are not checked again."""

    t_basis: np.ndarray  # (Nt + 1, t_modes): (t/2pi)^(m+1)
    theta_part: np.ndarray  # (3, t_modes, Ntheta + 1): sum_n coeffs[k, m, n] B_n(theta)

    @property
    def n_t(self) -> int:
        return self.t_basis.shape[0] - 1

    @property
    def n_theta(self) -> int:
        return self.theta_part.shape[2] - 1

    def windows(self, blocks: list[_Block]) -> Iterator[np.ndarray]:
        """Each block's window in turn, every row sampled and pinned once.
        The windows share one buffer sized by the largest, so each is valid
        until the next is drawn: the 2 rows a window shares with the one
        before are moved to its front."""
        buf = np.empty((4, max(b.b - b.a for b in blocks), self.n_theta + 1))
        prev_a = prev_b = 0
        for blk in blocks:
            kept = prev_b - blk.a
            buf[:, :kept] = buf[:, blk.a - prev_a:prev_b - prev_a]
            win = buf[:, :blk.b - blk.a]
            a, fresh = blk.a + kept, win[:, kept:]
            v = np.matmul(self.t_basis[a:blk.b], self.theta_part, out=fresh[1:])
            exp_su2(v, out=fresh)
            if a == 0:
                fresh[:, 0] = IDENTITY[:, None]
            fresh[:, :, 0] = IDENTITY[:, None]
            prev_a, prev_b = blk.a, blk.b
            yield win


def _derived(cls, **fields):
    """A sampled carrier built from checked data, without the entry checks."""
    carrier = object.__new__(cls)
    carrier.__dict__.update(fields)
    return carrier


# ---------------------------------------------------------------------------
# the two defining integrals
# ---------------------------------------------------------------------------

def _theta_integrals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit-step theta-trapezoid of a . b on each row of coordinate fields
    (3, ..., Ntheta + 1), b's middle axes of size 1 or those of a: per
    component the sum over all columns less half of the two end columns,
    then the three components in order.  The column sum runs within one
    row, so a row's value does not depend on the rows beside it."""
    per_k = np.einsum("k...c,k...c->k...", a, b)
    ends = a[..., 0] * b[..., 0]
    ends += a[..., -1] * b[..., -1]
    ends *= 0.5
    per_k -= ends
    return per_k[0] + per_k[1] + per_k[2]


def _blockwise(rows: np.ndarray, *fields: StreamedPathOfLoops
               ) -> Iterator[tuple[np.ndarray, _Block, list[np.ndarray]]]:
    """Each block's columns of ``rows``, the block, and each field's window."""
    # the kernels keep their loop bodies inline: which block arrays are alive
    # when the next block allocates decides whether glibc trims the heap, and
    # a per-block closure multiplied the grid suites' page faults (6-fold at
    # 512 x 512, 170-fold at 2048 x 2048) and slowed them by a fifth or more
    blocks = _blocks(fields[0].n_t + 1, fields[0].n_theta + 1)
    for blk, *windows in zip(blocks, *(x.windows(blocks) for x in fields)):
        yield rows[..., blk.lo:blk.hi], blk, windows


def kappa_exponent(f: StreamedPathOfLoops, g: StreamedPathOfLoops) -> float:
    """A(f, g), the double integral of <f^-1 df/dt, (dg/dtheta) g^-1>:
    kappa(f, g) = exp(2ik A(f, g)) at level k and the unit form.  The
    unscaled forms carry the t- and theta-steps of the trapezoids, so A is
    the unit-step double sum of their pairing, streamed over blocks of t-rows
    like the residuals."""
    rows = np.empty(f.n_t + 1)
    for out, blk, (f_win, g_win) in _blockwise(rows, f, g):
        out[:] = _theta_integrals(_t_form(blk, f_win), _right_form(blk.inner(g_win)))
    return float(_trapz(rows))


def kappa_cocycle_residual(f: StreamedPathOfLoops, g: StreamedPathOfLoops,
                           h: StreamedPathOfLoops) -> float:
    """2|D|, D = A(f,g) + A(fg,h) - A(g,h) - A(f,gh): the cocycle defect of
    kappa at unit level.  At level k and form c I, |kappa(f,g) kappa(fg,h) -
    kappa(g,h) kappa(f,gh)| = 2|sin(k c D)| is at most |k c| times this.
    Streamed over blocks of t-rows: each block forms the products fg and gh
    and the unscaled forms of its rows and keeps only the row integrals of the
    four pairings."""
    rows = np.empty((4, f.n_t + 1))  # (f, g), (fg, h), (g, h), (f, gh)
    for out, blk, (f_win, g_win, h_win) in _blockwise(rows, f, g, h):
        g_rows, h_rows = blk.inner(g_win), blk.inner(h_win)
        mc_f = _t_form(blk, f_win)
        out[0] = _theta_integrals(mc_f, _right_form(g_rows))
        mc_h = _right_form(h_rows)
        out[1] = _theta_integrals(_t_form(blk, _hamilton(f_win, g_win)), mc_h)
        out[2] = _theta_integrals(_t_form(blk, g_win), mc_h)
        out[3] = _theta_integrals(mc_f, _right_form(_hamilton(g_rows, h_rows)))
    a_f_g, a_fg_h, a_g_h, a_f_gh = (float(_trapz(r)) for r in rows)
    return 2.0 * abs(a_f_g + a_fg_h - a_g_h - a_f_gh)


def _base_form(p: SampledGroupPath) -> np.ndarray:
    """Unscaled coordinates (3, Ntheta + 1) of p^-1 dp/dtheta (unit step)."""
    return _vector_form(p.samples, _last_differences(p.samples), -1.0)


def _beta_rows(form: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """beta_p(xi) from the base path's unscaled form: -2 * the unit-step
    theta-trapezoid of xi . form, the form carrying the theta-step."""
    return -2.0 * _theta_integrals(xi, form.reshape(3, *(1,) * (xi.ndim - 2), -1))


def beta_p(p: SampledGroupPath, xi: np.ndarray) -> float | np.ndarray:
    """-2 * integral over theta of <xi(theta), p^-1 p'(theta)>.

    xi is a coordinate field (3, ..., Ntheta + 1); the middle axes are batch
    axes (e.g. one loop per t sample).  At the unit t-step, xi = the unscaled
    t-form of a loop field, the rows are those of the conjugation residual.
    """
    value = _beta_rows(_base_form(p), xi)
    return float(value) if np.ndim(value) == 0 else value


def ad_omega_identity_residual(p: SampledGroupPath, xi: PolyPath, eta: PolyPath) -> float:
    """Quadrature defect of the conjugation-invariance identity of the loop
    cocycle at unit level: omega(Ad(p) xi, Ad(p) eta) - omega(xi, eta) =
    beta_p([xi, eta]).  Both sides are linear in the level, so at level k and
    form c I the defect is |k c| times this.

    The boundary 1-form convention: for a left-invariant 1-form the exterior
    derivative pairs as d beta (xi, eta) = -beta([xi, eta]), which fixes the
    sign of the right-hand side; the refinement suite confirms the orientation
    by convergence to zero.  Each omega is the unit-step theta-sum of
    xi . raw_eta, whose 2h cancels both the 2 and the step of 2 integral B(xi, eta').
    """
    u = np.linspace(0.0, 1.0, p.n_theta + 1)
    xi_c = xi.eval_grid(u).T
    eta_c = eta.eval_grid(u).T
    q = p.samples
    lhs = _theta_integrals(_rotate(q, xi_c), _last_differences(_rotate(q, eta_c))) \
        - _theta_integrals(xi_c, _last_differences(eta_c))
    rhs = beta_p(p, pointwise_bracket(xi, eta).eval_grid(u).T)
    return float(abs(lhs - rhs))


def kappa_conjugation_identity_residual(p: SampledGroupPath, f1: StreamedPathOfLoops,
                                        f2: StreamedPathOfLoops) -> float:
    """|2 (A(p f1 p^-1, p f2 p^-1) - A(f1, f2)) - C|, the defect at unit level
    of the conjugation rule for the cocycle,

    kappa(p f1 p^-1, p f2 p^-1) = kappa(f1, f2) * exp(ik C),
    C = integral over t of beta_p(mc(f1 f2)) - beta_p(mc(f1)) - beta_p(mc(f2)),

    where mc is the t-direction Maurer-Cartan form.  The exponentiated defect
    at level k and form c I is at most |k c| times this.  Streamed over blocks
    of t-rows like ``kappa_cocycle_residual``, on unscaled forms; the form of
    p is computed once, and beta_p, being linear, pairs it once with
    mc(f1 f2) - mc(f1) - mc(f2).
    """
    form = _base_form(p)
    q = p.samples[:, None, :]
    rows = np.empty((3, f1.n_t + 1))  # (p f1 p^-1, p f2 p^-1), (f1, f2), correction
    for out, blk, (f1_win, f2_win) in _blockwise(rows, f1, f2):
        f2_rows = blk.inner(f2_win)
        out[0] = _theta_integrals(_t_form(blk, _conjugate(q, f1_win)),
                                  _right_form(_conjugate(q, f2_rows)))
        mc_f1 = _t_form(blk, f1_win)
        out[1] = _theta_integrals(mc_f1, _right_form(f2_rows))
        combined = _t_form(blk, _hamilton(f1_win, f2_win))
        combined -= mc_f1
        combined -= _t_form(blk, f2_win)
        out[2] = _beta_rows(form, combined)
    a_conj, a, correction = (float(_trapz(r)) for r in rows)
    return abs(2.0 * (a_conj - a) - correction)


# ---------------------------------------------------------------------------
# compact smooth fixtures (coefficients, samplable at any resolution)
# ---------------------------------------------------------------------------

# the largest coefficient magnitude a fixture takes: every basis function is
# at most 1 in size, so a field's coordinates are at most modes x max|c| and
# |v|^2 stays below 3 (modes max|c|)^2, 48 max|c|^2 for the 2 x 2 modes of the
# suites' loop fields, far from overflow in ``exp_su2``
MAX_COEFF = 1e150


def _entry_coeffs(coeffs, what: str, ndim: int) -> np.ndarray:
    """A fixture's coefficients as they enter: ``ndim`` axes, the first of
    size 3, not empty, finite and at most ``MAX_COEFF`` in magnitude, or an
    input error."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != ndim or len(c) != 3:
        raise InputError(f"{what} coefficients must have {ndim} axes, the first of size 3")
    if c.size == 0:
        raise InputError(f"{what} coefficients must not be empty")
    if not np.abs(c).max() <= MAX_COEFF:  # NaN compares false
        raise InputError(f"{what} coefficients must be finite and at most "
                         f"{MAX_COEFF:g} in magnitude")
    return c


@dataclass(frozen=True)
class GroupPathCoeffs:
    """w_k(u) = sum_m coeffs[k, m] u^(m+1); path exp(w(u) . X)."""

    coeffs: np.ndarray  # (3, modes)

    def sample(self, n_theta: int) -> SampledGroupPath:
        c = _entry_coeffs(self.coeffs, "group path", 2)
        if n_theta < 4:
            raise InputError("group path needs at least 5 quaternion samples, shape (4, N + 1)")
        u = np.linspace(0.0, 1.0, n_theta + 1)
        powers = u[:, None] ** (np.arange(c.shape[1])[None, :] + 1)
        samples = exp_su2(c @ powers.T)
        samples[:, 0] = IDENTITY
        return _derived(SampledGroupPath, samples=samples)


def _theta_loop_basis(theta: np.ndarray, modes: int) -> np.ndarray:
    """Smooth functions vanishing at both ends of [0, 2*pi], alternating
    between even and odd symmetry about theta = pi so that generic fields
    have no accidental parity (an all-even basis would make the
    double-integral cocycle vanish identically)."""
    cols = []
    for j in range(modes):
        n = j // 2 + 1
        if j % 2 == 0:
            cols.append(np.sin(n * theta / 2.0) ** 2)
        else:
            cols.append(np.sin(n * theta) * np.sin(theta / 2.0) ** 2)
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class LoopFieldCoeffs:
    """v_k(t, theta) = sum_{m,n} coeffs[k, m, n] (t/2pi)^(m+1) B_n(theta)
    with the loop basis B of ``_theta_loop_basis``.

    Every t-slice is a smooth loop based at the identity and the field is
    pinned at t = 0.  The coefficients are checked where they enter, in
    ``stream`` (and so in ``sample``): finite and at most ``MAX_COEFF`` in
    magnitude, so every sample is unit to a few ulps.
    """

    coeffs: np.ndarray  # (3, t_modes, theta_modes)

    def stream(self, n_t: int, n_theta: int) -> StreamedPathOfLoops:
        if min(n_t, n_theta) < 4:
            raise InputError("loop field needs at least a 5x5 grid of quaternions")
        c = _entry_coeffs(self.coeffs, "loop field", 3)
        _, mt, mn = c.shape
        s = np.linspace(0.0, 1.0, n_t + 1)
        theta = np.linspace(0.0, TWO_PI, n_theta + 1)
        return StreamedPathOfLoops(s[:, None] ** (np.arange(mt)[None, :] + 1),
                                   c @ _theta_loop_basis(theta, mn).T)

    def sample(self, n_t: int, n_theta: int) -> SampledPathOfLoops:
        """The full grid, as one window of ``stream`` spanning it."""
        [grid] = self.stream(n_t, n_theta).windows([_Block(0, n_t + 1, n_t + 1)])
        return _derived(SampledPathOfLoops, grid=grid)


def random_group_path_coeffs(rng: np.random.Generator, amplitude: float = 1.0) -> GroupPathCoeffs:
    return GroupPathCoeffs(amplitude * rng.uniform(-1.0, 1.0, size=(3, 3)))


def random_loop_field_coeffs(rng: np.random.Generator, amplitude: float = 1.0) -> LoopFieldCoeffs:
    return LoopFieldCoeffs(amplitude * rng.uniform(-1.0, 1.0, size=(3, 2, 2)))
