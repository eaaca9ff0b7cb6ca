"""Concrete two-term structures on a simple Lie algebra and its path spaces,
together with the morphisms that realize the equivalence between the skeletal
model (objects = algebra elements, Jacobiator = level * canonical 3-form) and
the strict path model (objects = based polynomial paths, morphism directions =
centrally extended loops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .kacmoody import dalpha, omega
from .liealg import LieAlgebraPresentation
from .linfty import (
    CentralSpace,
    ChainHomotopy,
    CoordSpace,
    LInftyHom,
    PathSpace,
    RealLine,
    TwoTermLInfinity,
    compose,
    identity_hom,
    law_residual,
    random_elements,
    two_hom_residuals_once,
)
from .paths import (
    BASED,
    LOOP,
    CentralVector,
    PolyPath,
    _derived,
    _derived_central,
    derivative_pairing,
    f_minus_f2,
    pointwise_bracket,
    random_splitting,
    universal_integral,
    validate_splitting,
    zero_path,
)
from .worstcase import largest

LINEAR_SPLITTING = np.array([0.0, 1.0])


def make_gk(g: LieAlgebraPresentation, k: float) -> TwoTermLInfinity:
    """Skeletal model: degree 0 is the algebra, degree 1 the real line,
    zero differential, trivial action, Jacobiator k * B(x, [y, z])."""
    n = g.dim
    return TwoTermLInfinity(
        space0=CoordSpace(n),
        space1=RealLine(),
        d=lambda c: np.zeros(n),
        l2_00=g.bracket,
        l2_01=lambda x, c: 0.0,
        l3=lambda x, y, z: k * g.nu(x, y, z),
    )


def make_pkg(g: LieAlgebraPresentation, k: float, degree: int = 4) -> TwoTermLInfinity:
    """Strict path model: based paths in degree 0, centrally extended loops in
    degree 1; the degree-mixing bracket is the level-k action dalpha."""
    return TwoTermLInfinity(
        space0=PathSpace(g, BASED, degree),
        space1=CentralSpace(g, degree),
        d=lambda v: v.loop,
        l2_00=pointwise_bracket,
        l2_01=lambda p, v: dalpha(p, v, k),
        l3=None,
    )


def make_el(g: LieAlgebraPresentation, degree: int = 4) -> TwoTermLInfinity:
    """Indiscrete model on the pointwise loop algebra: both degrees are loops,
    identity differential, both brackets pointwise."""
    space = PathSpace(g, LOOP, degree)
    return TwoTermLInfinity(
        space0=space,
        space1=space,
        d=lambda h: h,
        l2_00=pointwise_bracket,
        l2_01=pointwise_bracket,
        l3=None,
    )


def make_el_vectors(g: LieAlgebraPresentation) -> TwoTermLInfinity:
    """Indiscrete model on the algebra itself (used for the triviality check)."""
    space = CoordSpace(g.dim)
    return TwoTermLInfinity(
        space0=space,
        space1=CoordSpace(g.dim),
        d=lambda h: h,
        l2_00=g.bracket,
        l2_01=g.bracket,
        l3=None,
    )


def endpoint_corrector_terms(k: float, p1: PolyPath, p2: PolyPath) -> list:
    """The two pairings k * integral of B(p1, p2') and -k * integral of
    B(p1', p2) that the corrector of ``make_phi`` sums; the second is
    derivative_pairing(p2, p1) because the form is symmetric."""
    return [k * derivative_pairing(p1, p2), -k * derivative_pairing(p2, p1)]


def make_phi(k: float, *, pkg: TwoTermLInfinity, gk: TwoTermLInfinity) -> LInftyHom:
    """Path model -> skeletal model: endpoint on objects, central coordinate
    on directions, and the skew boundary-corrected pairing
    ``endpoint_corrector_terms`` as corrector."""
    return LInftyHom(pkg, gk, lambda p: p.endpoint(), lambda v: v.c,
                     lambda p1, p2: sum(endpoint_corrector_terms(k, p1, p2)))


def make_psi(g: LieAlgebraPresentation, f: np.ndarray, *,
             gk: TwoTermLInfinity, pkg: TwoTermLInfinity) -> LInftyHom:
    """Skeletal model -> path model along a validated splitting f, f(0) = 0
    and f(2*pi) = 1: x goes to the path x*f, c to (0, c), and the corrector is
    the loop [x1, x2] * (f - f^2).  The inputs are checked carriers and f is
    validated, so every image is derived (c made float64), not checked again."""
    profile = f_minus_f2(f)

    def psi0(x) -> PolyPath:
        return _derived(g, x[..., :, None] * f, BASED)

    def psi1(c: float) -> CentralVector:
        return _derived_central(zero_path(g, LOOP), np.asarray(c, dtype=float)[()])

    def psi2(x1, x2) -> CentralVector:
        return _derived_central(_derived(g, g.bracket(x1, x2)[..., :, None] * profile, LOOP))

    return LInftyHom(gk, pkg, psi0, psi1, psi2)


def make_lambda(g: LieAlgebraPresentation, k: float, *, el: TwoTermLInfinity,
                pkg: TwoTermLInfinity) -> LInftyHom:
    """Indiscrete loop model -> path model: inclusion on objects, central lift
    (l, 0) on directions, corrector (0, -omega); derived from checked loops."""

    def lam2(l1: PolyPath, l2: PolyPath) -> CentralVector:
        return _derived_central(zero_path(g, LOOP), -omega(l1, l2, k))

    return LInftyHom(el, pkg, lambda l: l, _derived_central, lam2)


def make_tau(g: LieAlgebraPresentation, *, pkg: TwoTermLInfinity,
             phi: LInftyHom, psi: LInftyHom) -> ChainHomotopy:
    """Homotopy from (splitting o endpoint) to the identity of the path
    model: a path p is retracted onto (l, 0), l = p - psi0(phi0(p)) a derived
    loop because psi0(phi0(p)) ends where p does."""

    def tau(p: PolyPath) -> CentralVector:
        return _derived_central(_derived(g, (p - psi.phi0(phi.phi0(p))).coeffs, LOOP))

    return ChainHomotopy(compose(psi, phi), identity_hom(pkg), tau)


def trivializing_homotopy(el: TwoTermLInfinity) -> ChainHomotopy:
    """Homotopy from the zero endomorphism of an indiscrete model to its
    identity, witnessing equivalence with the trivial structure."""
    zero = LInftyHom(el, el, lambda x: el.space0.zero(), lambda h: el.space1.zero(),
                     lambda x, y: el.space1.zero())
    return ChainHomotopy(zero, identity_hom(el), lambda x: x)


@dataclass(eq=False)
class ModelBundle:
    """All structures and morphisms built coherently on one algebra/level."""

    algebra: LieAlgebraPresentation
    k: float
    gk: TwoTermLInfinity
    pkg: TwoTermLInfinity
    el: TwoTermLInfinity
    phi: LInftyHom
    psi: LInftyHom
    lam: LInftyHom
    tau: ChainHomotopy
    trivializer: ChainHomotopy  # zero => identity on the indiscrete vector model


def build_models(g: LieAlgebraPresentation, k: float, f=LINEAR_SPLITTING,
                 degree: int = 4) -> ModelBundle:
    f = validate_splitting(f)
    gk = make_gk(g, k)
    pkg = make_pkg(g, k, degree)
    el = make_el(g, degree)
    phi = make_phi(k, pkg=pkg, gk=gk)
    psi = make_psi(g, f, gk=gk, pkg=pkg)
    lam = make_lambda(g, k, el=el, pkg=pkg)
    tau = make_tau(g, pkg=pkg, phi=phi, psi=psi)
    return ModelBundle(
        algebra=g, k=k, gk=gk, pkg=pkg, el=el, phi=phi, psi=psi, lam=lam, tau=tau,
        trivializer=trivializing_homotopy(make_el_vectors(g)),
    )


# ---------------------------------------------------------------------------
# equivalence data
# ---------------------------------------------------------------------------

def equivalence_samples(bundle: ModelBundle, rng: np.random.Generator,
                        trials: int = 50) -> Iterator[tuple]:
    """Inputs of the two equivalence laws, law after law, each tagged with
    the law's name: (endpoint o splitting) is the identity, and the
    trivializer of the indiscrete model.  The retraction homotopy, which
    certifies the other composite, is tau-2hom's."""
    structures = {"round_trip_identity": bundle.gk,
                  "trivializer": bundle.trivializer.from_hom.src}
    for law, L in structures.items():
        for inputs in random_elements(rng, trials, (L.space0, L.space0, L.space1)):
            yield (law, *inputs)


def equivalence_residuals(bundle: ModelBundle, inputs) -> dict[str, float]:
    """Residual of the law an ``equivalence_samples`` item is tagged with."""
    law, *args = inputs
    if law == "round_trip_identity":
        gk, phi, psi = bundle.gk, bundle.phi, bundle.psi
        x, y, c = args
        n0, n1 = gk.space0.norm, gk.space1.norm
        nx, ny = n0(x), n0(y)
        # (phi o psi)_2(x, y) = phi2(psi0 x, psi0 y) + phi1(psi2(x, y)), whose
        # two pairings cancel inside phi2: they are the law's terms
        corrector = [*endpoint_corrector_terms(bundle.k, psi.phi0(x), psi.phi0(y)),
                     phi.phi1(psi.phi2(x, y))]
        return {law: largest(law_residual([phi.phi0(psi.phi0(x)), -x], n0, [nx]),
                             law_residual([phi.phi1(psi.phi1(c)), -c], n1, [n1(c)]),
                             law_residual(corrector, n1, [nx, ny]))}
    return {law: largest(*two_hom_residuals_once(bundle.trivializer, *args).values())}


# ---------------------------------------------------------------------------
# exactness at finite polynomial degree
# ---------------------------------------------------------------------------

def _integer_ranks(rows: Iterable[dict[int, int]]) -> list[int]:
    """Rank over Q of each prefix of a sequence of integer rows given as
    {column: nonzero entry}, by one sparse fraction-free elimination: entry i
    is the pivot count once row i is reduced.  Each row is reduced against
    the pivot rows, keyed by their leading column: while its leading column
    holds a pivot p where the row holds a, the row becomes p * row - a * pivot,
    divided by the gcd of its entries.  It becomes a pivot once its leading
    column is free, and vanishes if it lies in the span of the pivots."""
    pivots: dict[int, dict[int, int]] = {}
    ranks = []
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            p, a = pivot[lead], row[lead]
            reduced = {j: p * x for j, x in row.items()}
            for j, y in pivot.items():
                x = reduced.get(j, 0) - a * y
                if x:
                    reduced[j] = x
                else:
                    del reduced[j]
            gcd = math.gcd(*reduced.values())
            row = {j: x // gcd for j, x in reduced.items()} if gcd > 1 else reduced
        ranks.append(len(pivots))
    return ranks


def _matrix(image) -> np.ndarray:
    """The images of a batch of basis elements as the rows of a float matrix:
    a path's coefficients highest degree first, so that the loop basis
    u^d - u is already in echelon form, and a central coordinate last."""
    if isinstance(image, CentralVector):
        loop = _matrix(image.loop)
        return np.column_stack([loop, np.broadcast_to(image.c, len(loop))])
    if isinstance(image, PolyPath):
        image = image.coeffs[..., ::-1]
    return np.reshape(image, (len(image), -1))


def _integer_row(row: dict[int, float]) -> dict[int, int]:
    """A float row times the largest denominator of its entries: a float is a
    dyadic rational, so this is an exact integer row."""
    ratios = {j: x.as_integer_ratio() for j, x in row.items()}
    scale = max((d for _, d in ratios.values()), default=1)
    return {j: n * (scale // d) for j, (n, d) in ratios.items()}


def _exact_ranks(image) -> list[int]:
    """Rank over Q of each prefix of the images, by one elimination
    (``_integer_ranks``) on the nonzeros of their matrix.  Integral entries
    are taken as integers; otherwise each row is scaled by ``_integer_row``,
    so a non-integral image is ranked, not rounded."""
    m = _matrix(image)
    r, c = np.nonzero(m)
    x = m[r, c]
    integral = (x == np.round(x)).all() and (np.abs(x) < 2.0 ** 62).all()
    entries = (x.astype(np.int64) if integral else x).tolist()
    rows: list[dict] = [{} for _ in range(len(m))]
    for i, j, v in zip(r.tolist(), c.tolist(), entries):
        rows[i][j] = v
    return _integer_ranks(rows if integral else map(_integer_row, rows))


@dataclass
class ExactnessReport:
    dim_paths: int
    dim_loops: int
    rank_endpoint: int
    nullity_endpoint: int
    rank_loop_inclusion: int
    passed: bool


def exactness_records(models: ModelBundle, degree: int) -> list[ExactnessReport]:
    """Exact ranks showing that the bundle's loop inclusion lam hits precisely
    the kernel of its endpoint evaluation phi, on objects (loops -> based
    paths -> algebra) and on directions (loops -> central vectors -> center),
    among polynomials of degree <= d: entry d is the report of degree d, for
    every d <= ``degree``.

    The maps act once on the batched images of one basis of each space at
    ``degree``, ``element`` of the identity with its rows ordered by power, so
    the basis of degree d is a prefix of it; the central coordinate's row is
    in every degree and goes first.  One elimination per map ranks every
    prefix, and a space's dimension is the rank of its basis images.  At each
    level lam is injective, phi is surjective, phi o lam is exactly 0 and
    rank lam = dim - rank phi, so by rank-nullity im lam = ker phi.
    """
    g, phi, lam = models.algebra, models.phi, models.lam
    n, width = g.dim, g.dim * (degree + 1)
    by_power = np.arange(width).reshape(n, degree + 1).T.ravel()
    based, loops = (PathSpace(g, kind, degree).element(np.eye(width)[by_power])
                    for kind in (BASED, LOOP))
    central = CentralSpace(g, degree).element(np.eye(width + 1)[np.r_[width, by_power]])
    dim_paths, dim_loops, dim_central = map(_exact_ranks, (based, loops, central))
    rank_endpoint, rank_central = _exact_ranks(phi.phi0(based)), _exact_ranks(phi.phi1(central))
    included, lifted = lam.phi0(loops), lam.phi1(loops)
    rank_inclusion, rank_lift = _exact_ranks(included), _exact_ranks(lifted)
    leaked = np.logical_or.accumulate(np.any(phi.phi0(included), axis=-1)
                                      | (phi.phi1(lifted) != 0))
    records = []
    # the n (d + 1) path rows of degree <= d end at row i, the central ones,
    # one more, at row c
    for c in range(n, width + 1, n):
        i = c - 1
        nullity_endpoint = dim_paths[i] - rank_endpoint[i]
        passed = (not leaked[i]
                  and rank_inclusion[i] == dim_loops[i] == nullity_endpoint
                  and rank_lift[i] == dim_loops[i] == dim_central[c] - rank_central[c]
                  and rank_endpoint[i] == phi.dst.space0.width
                  and rank_central[c] == phi.dst.space1.width)
        records.append(ExactnessReport(dim_paths[i], dim_loops[i], rank_endpoint[i],
                                       nullity_endpoint, rank_inclusion[i], passed))
    return records


def splitting_samples(rng: np.random.Generator, count: int = 20,
                      degree: int = 8) -> Iterator[np.ndarray]:
    return (random_splitting(rng, degree) for _ in range(count))


def splitting_deviation(f) -> float:
    """Distance of the splitting integral of f from its universal value -1/6."""
    return abs(universal_integral(f) + 1.0 / 6.0)
