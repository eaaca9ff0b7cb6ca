"""Two-term strongly-homotopy Lie algebras and their morphisms.

The graded Jacobi checker below evaluates the generalized identity

    sum_{i+j=n+1} sum_sigma chi(sigma) (-1)^(i(j-1))
        l_j(l_i(x_sigma(1), ..., x_sigma(i)), x_sigma(i+1), ..., x_sigma(n)) = 0

verbatim, with sigma running over (i, n-i)-unshuffles, and specializes it to
the two-term situation purely by degree bookkeeping: l_1 on degree 0 is zero
(there is no degree -1), l_2 on two degree-1 arguments is zero (no degree 2),
l_3 with any degree-1 argument is zero, and l_4 is identically zero.  No
hand-derived specialization of the identity is transcribed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .liealg import InputError, LieAlgebraPresentation
from .paths import (
    BASED,
    LOOP,
    CentralVector,
    PolyPath,
    _derived_central,
    projected_path,
    zero_central,
    zero_path,
)
Graded = tuple[int, Any]


# ---------------------------------------------------------------------------
# element spaces
# ---------------------------------------------------------------------------

# uniform numbers random_elements draws per block (512 KiB of float64): a
# block holds max(1, BLOCK_NUMBERS // width) trials, width being the numbers
# one trial draws, so it is sized by the memory its elements and their
# intermediates take, not by a trial count
BLOCK_NUMBERS = 1 << 16

# A space makes its elements from ``width`` uniform numbers per trial, an
# array (*batch, width), with ``element``.


class CoordSpace:
    """R^n with the euclidean norm; an element is an array (*batch, n)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.width = dim

    def zero(self):
        return np.zeros(self.dim)

    def norm(self, v):
        return np.linalg.norm(v, axis=-1)

    def element(self, u: np.ndarray):
        return u


class RealLine:
    """R; an element is a float or an array (*batch,)."""

    width = 1

    def zero(self):
        return 0.0

    def norm(self, v):
        return np.abs(v)

    def element(self, u: np.ndarray):
        return u[..., 0]


class PathSpace:
    def __init__(self, algebra: LieAlgebraPresentation, kind: str = BASED, degree: int = 4):
        self.algebra = algebra
        self.kind = kind
        self.degree = degree
        self.width = algebra.dim * (degree + 1)

    def zero(self):
        return zero_path(self.algebra, self.kind)

    def norm(self, v: PolyPath):
        return v.norm()

    def element(self, u: np.ndarray) -> PolyPath:
        coeffs = u.reshape(u.shape[:-1] + (self.algebra.dim, self.degree + 1))
        return projected_path(self.algebra, coeffs, self.kind)


class CentralSpace:
    def __init__(self, algebra: LieAlgebraPresentation, degree: int = 4):
        self.loops = PathSpace(algebra, LOOP, degree)
        self.width = self.loops.width + 1

    def zero(self):
        return zero_central(self.loops.algebra)

    def norm(self, v: CentralVector):
        return v.norm()

    def element(self, u: np.ndarray) -> CentralVector:
        return _derived_central(self.loops.element(u[..., :-1]), u[..., -1])


def random_elements(rng: np.random.Generator, trials: int,
                    spaces: Sequence) -> Iterator[tuple]:
    """One random element of each space per trial, drawn in that order.

    A block holds ``step = max(1, BLOCK_NUMBERS // width)`` trials, ``width``
    being the numbers one trial draws.  Its numbers are drawn trial after
    trial and within a trial space after space, so they are those of drawing
    each element on its own.  They are drawn an eighth of a block,
    ``max(1, step // 8)`` trials, at a time, so a slice never holds more than
    an eighth of the budget unless it is one trial.  Each slice is gathered
    straight into one buffer per distinct space, ``(trials, slots, width)``,
    so a block's numbers are held about once.  Each distinct space then makes
    one batched element from its buffer, with one projection, and each slot of
    the yielded tuple is that element's batch slice ``[:, slot]``."""
    ranges: dict = {}  # each distinct space: the column range of each of its slots
    where = []  # each slot: its space and its position among that space's slots
    width = 0
    for space in spaces:
        where.append((space, len(ranges.setdefault(space, []))))
        ranges[space].append(np.arange(width, width + space.width))
        width += space.width
    columns = {space: np.concatenate(r) for space, r in ranges.items()}
    step = max(1, BLOCK_NUMBERS // width)
    chunk = max(1, step // 8)
    for start in range(0, trials, step):
        rows = min(step, trials - start)
        buffers = {space: np.empty((rows, len(cols) // space.width, space.width))
                   for space, cols in columns.items()}
        for first in range(0, rows, chunk):
            u = rng.uniform(-1.0, 1.0, (min(chunk, rows - first), width))
            for space, cols in columns.items():  # "clip" writes to out unbuffered
                np.take(u, cols, axis=1, mode="clip",
                        out=buffers[space][first:first + len(u)].reshape(len(u), -1))
        del u  # not held while the block is evaluated
        elements = {space: space.element(buf) for space, buf in buffers.items()}
        yield tuple(elements[space][:, slot] for space, slot in where)


def law_residual(terms: Sequence, norm: Callable[[Any], Any],
                 input_norms: Sequence) -> float | np.ndarray:
    """Size of a law stated as the signed terms that must cancel,

        ||sum t_i|| / (1 + prod(1 + |x_i|) + sum ||t_i||).

    The float error of the sum is of order eps * sum ||t_i||, so a law that
    holds reads roundoff at any scale of its inputs, level or form.  The input
    term is a floor, so a law whose terms are all roundoff does not read about
    1.  ``norm`` is that of the space the terms lie in.  A NaN or infinite
    term gives NaN; a law with no terms is 0."""
    if not terms:
        return 0.0
    floor = math.prod(1.0 + nv for nv in input_norms)
    return norm(sum(terms[1:], terms[0])) / (1.0 + floor + sum(norm(t) for t in terms))


# ---------------------------------------------------------------------------
# the structure itself
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TwoTermLInfinity:
    """Chain complex space1 -> space0 with a graded bracket and Jacobiator.

    All maps act on raw elements; ``apply_l`` dispatches on degree tags.
    ``l3 = None`` means the structure is strict.
    """

    space0: Any
    space1: Any
    d: Callable[[Any], Any]
    l2_00: Callable[[Any, Any], Any]
    l2_01: Callable[[Any, Any], Any]
    l3: Callable[[Any, Any, Any], Any] | None = None

    def space(self, degree: int):
        return self.space1 if degree else self.space0

    def l3_or_zero(self, x, y, z):
        if self.l3 is None:
            return self.space1.zero()
        return self.l3(x, y, z)

    def apply_l(self, args: Sequence[Graded]) -> Graded | None:
        """l_n on n = len(args) graded inputs; None for a term that vanishes by
        degree reasons, as every l_n with n >= 4 does in a two-term structure."""
        v = [val for _, val in args]
        degrees = tuple(deg for deg, _ in args)
        if degrees == (1,):
            return (0, self.d(v[0]))
        if degrees == (0, 0):
            return (0, self.l2_00(v[0], v[1]))
        if degrees == (0, 1):
            return (1, self.l2_01(v[0], v[1]))
        if degrees == (1, 0):
            # graded antisymmetry: swapping a degree-1 past a degree-0 flips sign
            return (1, -1.0 * self.l2_01(v[1], v[0]))
        if degrees == (0, 0, 0) and self.l3 is not None:
            return (1, self.l3(v[0], v[1], v[2]))
        return None


def generalized_jacobi_residual(L: TwoTermLInfinity, inputs: Sequence[Graded]) -> float:
    """``law_residual`` of the generalized Jacobi expression on graded inputs,
    its terms the nonvanishing l_j(l_i(...), ...) with their signs.

    Takes 1 <= n <= 4 inputs tagged with degrees in {0, 1}, as
    ``jacobi_samples`` draws them; every term then has the degree
    ``jacobi_target``.  Signatures without one return 0, and so does one
    with no nonvanishing term (a strict structure's ``jacobi[0,0,0,0]``),
    before any input norm is computed.
    """
    from .signs import chi, unshuffles

    n = len(inputs)
    degrees = [a[0] for a in inputs]
    target = jacobi_target(degrees)
    if target is None:
        return 0.0
    terms = []
    for i in range(1, n + 1):
        j = n + 1 - i
        if i > 3 or j > 3 or (j == 3 and L.l3 is None):
            # quaternary and higher operations vanish here, and so does an
            # unset l3: its terms are skipped before their inner l_i is made
            continue
        for sigma in unshuffles(i, n):
            first = L.apply_l([inputs[s] for s in sigma[:i]])
            if first is None:
                continue
            term = L.apply_l([first] + [inputs[s] for s in sigma[i:]])
            if term is None:
                continue
            coeff = float(chi(degrees, sigma)) * (-1.0) ** (i * (j - 1))
            terms.append(coeff * term[1])
    if not terms:
        return 0.0
    norms = [L.space(d).norm(v) for d, v in inputs]
    return law_residual(terms, L.space(target).norm, norms)


def jacobi_target(degrees: Sequence[int]) -> int | None:
    """Degree of the generalized Jacobi expression on inputs of these degrees,
    sum(degrees) + n - 3, or None where it lies outside {0, 1}: there the
    expression is 0 by degree reasons alone, and such a signature is dead.
    Of the 30 signatures of 1..4 inputs, 8 are live."""
    target = sum(degrees) + len(degrees) - 3
    return target if target in (0, 1) else None


def all_signatures() -> list[tuple[int, ...]]:
    """Every degree signature of length 1..4 over {0, 1}."""
    out: list[tuple[int, ...]] = []
    for n in range(1, 5):
        for mask in range(2**n):
            out.append(tuple((mask >> a) & 1 for a in range(n)))
    return out


def jacobi_samples(L: TwoTermLInfinity, rng: np.random.Generator,
                   trials: int) -> Iterator[list[Graded]]:
    """Random graded inputs of every live signature, one block of trials at a
    time.  Within a trial the numbers are drawn signature after signature, for
    the live ones only."""
    live = [sig for sig in all_signatures() if jacobi_target(sig) is not None]
    for block in random_elements(rng, trials, [L.space(d) for sig in live for d in sig]):
        elements = iter(block)
        for sig in live:
            yield [(d, next(elements)) for d in sig]


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LInftyHom:
    """A chain map (phi0, phi1) plus a skew bilinear phi2 measuring the
    failure of phi0 to preserve brackets."""

    src: TwoTermLInfinity
    dst: TwoTermLInfinity
    phi0: Callable[[Any], Any]
    phi1: Callable[[Any], Any]
    phi2: Callable[[Any, Any], Any]


def identity_hom(L: TwoTermLInfinity) -> LInftyHom:
    return LInftyHom(L, L, lambda x: x, lambda h: h, lambda x, y: L.space1.zero())


def compose(outer: LInftyHom, inner: LInftyHom) -> LInftyHom:
    """Composite with (outer o inner)_2 = outer2(inner0 x, inner0 y) + outer1(inner2(x, y))."""
    if inner.dst is not outer.src:
        raise InputError("homomorphisms are not composable")

    def phi2(x, y):
        return outer.phi2(inner.phi0(x), inner.phi0(y)) + outer.phi1(inner.phi2(x, y))

    return LInftyHom(inner.src, outer.dst, lambda x: outer.phi0(inner.phi0(x)),
                     lambda h: outer.phi1(inner.phi1(h)), phi2)


def hom_residuals_once(hom: LInftyHom, x, y, z, h) -> dict[str, float]:
    """``law_residual`` of the chain-map square and the three coherence laws
    on one sample (x, y, z in degree 0, h in degree 1).  The images the laws
    share are computed once."""
    src, dst = hom.src, hom.dst
    n0, n1 = dst.space0.norm, dst.space1.norm
    nx, ny, nz = (src.space0.norm(v) for v in (x, y, z))
    nh = src.space1.norm(h)
    px, py, pz, ph = hom.phi0(x), hom.phi0(y), hom.phi0(z), hom.phi1(h)
    xy, yz, zx = src.l2_00(x, y), src.l2_00(y, z), src.l2_00(z, x)
    c_xy, c_yz, c_zx = hom.phi2(x, y), hom.phi2(y, z), hom.phi2(z, x)

    chain = [dst.d(ph), -hom.phi0(src.d(h))]
    one = [dst.d(c_xy), -hom.phi0(xy), dst.l2_00(px, py)]
    two = [hom.phi2(x, src.d(h)), -hom.phi1(src.l2_01(x, h)), dst.l2_01(px, ph)]
    three = [dst.l3_or_zero(px, py, pz), -hom.phi1(src.l3_or_zero(x, y, z)),
             -hom.phi2(x, yz), -hom.phi2(y, zx), -hom.phi2(z, xy),
             -dst.l2_01(px, c_yz), -dst.l2_01(py, c_zx), -dst.l2_01(pz, c_xy)]
    return {"chain": law_residual(chain, n0, [nh]),
            "homo1": law_residual(one, n0, [nx, ny]),
            "homo2": law_residual(two, n1, [nx, nh]),
            "homo3": law_residual(three, n1, [nx, ny, nz])}


def hom_samples(hom: LInftyHom, rng: np.random.Generator, trials: int) -> Iterator[tuple]:
    """(x, y, z, h): three objects and one direction of the source."""
    src = hom.src
    return random_elements(rng, trials, (src.space0, src.space0, src.space0, src.space1))


# ---------------------------------------------------------------------------
# 2-homomorphisms (chain homotopies between homomorphisms)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ChainHomotopy:
    """Degree-raising map tau witnessing from_hom => to_hom.

    Orientation: d o tau = to0 - from0 and tau o d = to1 - from1, paired with
    the coherence law

        from2(x,y) - to2(x,y)
            = l2(from0 x, tau y) + l2(tau x, to0 y) - tau(l2(x, y)).

    The two conventions must be taken together: flipping only the homotopy
    direction breaks the coherence law for the concrete retraction homotopy
    certified by this package.
    """

    from_hom: LInftyHom
    to_hom: LInftyHom
    tau: Callable[[Any], Any]

    def __post_init__(self):
        if self.from_hom.src is not self.to_hom.src or self.from_hom.dst is not self.to_hom.dst:
            raise InputError("2-homomorphism requires parallel homomorphisms")


def two_hom_residuals_once(homotopy: ChainHomotopy, x, y, h) -> dict[str, float]:
    """``law_residual`` of the two homotopy laws and the coherence law on one
    sample (x, y in degree 0, h in degree 1)."""
    phi, psi = homotopy.from_hom, homotopy.to_hom
    src, dst = phi.src, phi.dst
    tau = homotopy.tau
    nx, ny = src.space0.norm(x), src.space0.norm(y)
    nh = src.space1.norm(h)
    tx, ty, fx = tau(x), tau(y), phi.phi0(x)

    h0 = [dst.d(tx), -psi.phi0(x), fx]
    h1 = [tau(src.d(h)), -psi.phi1(h), phi.phi1(h)]
    coherence = [phi.phi2(x, y), -psi.phi2(x, y), -dst.l2_01(fx, ty),
                 dst.l2_01(psi.phi0(y), tx), tau(src.l2_00(x, y))]
    return {"homotopy0": law_residual(h0, dst.space0.norm, [nx]),
            "homotopy1": law_residual(h1, dst.space1.norm, [nh]),
            "coherence": law_residual(coherence, dst.space1.norm, [nx, ny])}


def two_hom_samples(homotopy: ChainHomotopy, rng: np.random.Generator,
                    trials: int) -> Iterator[tuple]:
    """(x, y, h): two objects and one direction of the source."""
    src = homotopy.from_hom.src
    return random_elements(rng, trials, (src.space0, src.space0, src.space1))
