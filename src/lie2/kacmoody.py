"""Central extension of the loop algebra: the 2-cocycle, the twisted bracket,
and the lifted action of based paths, all in the exact polynomial model."""

from __future__ import annotations

from .linfty import law_residual
from .paths import (
    CentralVector,
    PolyPath,
    _derived_central,
    derivative_pairing,
    pointwise_bracket,
)


def omega(f: PolyPath, g: PolyPath, k: float) -> float:
    """Level-k loop cocycle 2k * integral of B(f, g'); antisymmetric because
    the boundary term B(f, g) vanishes at both ends of a loop."""
    return 2.0 * k * derivative_pairing(f, g)


def omega_cocycle_residual(f: PolyPath, g: PolyPath, h: PolyPath, k: float) -> float:
    """``law_residual`` of omega([f,g],h) + omega([g,h],f) + omega([h,f],g)."""
    terms = [omega(pointwise_bracket(f, g), h, k), omega(pointwise_bracket(g, h), f, k),
             omega(pointwise_bracket(h, f), g, k)]
    return law_residual(terms, abs, [f.norm(), g.norm(), h.norm()])


def extended_bracket(a: CentralVector, b: CentralVector, k: float) -> CentralVector:
    """Bracket on loops + center: ([f, g], omega_k(f, g)); central elements
    bracket to zero."""
    return _derived_central(pointwise_bracket(a.loop, b.loop), omega(a.loop, b.loop, k))


def extended_jacobi_residual(a: CentralVector, b: CentralVector,
                             c: CentralVector, k: float) -> float:
    """Jacobi defect of the twisted bracket; equals the cocycle defect on the
    central coordinate and the pointwise Jacobi defect on the loop part."""
    terms = [extended_bracket(extended_bracket(a, b, k), c, k),
             extended_bracket(extended_bracket(b, c, k), a, k),
             extended_bracket(extended_bracket(c, a, k), b, k)]
    return law_residual(terms, CentralVector.norm, [a.norm(), b.norm(), c.norm()])


def dalpha(p: PolyPath, v: CentralVector, k: float) -> CentralVector:
    """Differential of the conjugation action of based paths on the central
    extension: ([p, l], 2k * integral of B(p, l'))."""
    return _derived_central(pointwise_bracket(p, v.loop),
                            2.0 * k * derivative_pairing(p, v.loop))


def dalpha_derivation_residual(p: PolyPath, a: CentralVector, b: CentralVector,
                               k: float) -> float:
    """How far dalpha(p) is from a derivation of the twisted bracket."""
    terms = [dalpha(p, extended_bracket(a, b, k), k),
             -extended_bracket(dalpha(p, a, k), b, k),
             -extended_bracket(a, dalpha(p, b, k), k)]
    return law_residual(terms, CentralVector.norm, [p.norm(), a.norm(), b.norm()])


def dalpha_equivariance_residual(p: PolyPath, v: CentralVector, k: float) -> float:
    """Projecting to the loop then acting by the pointwise bracket agrees with
    acting first and then projecting (infinitesimal compatibility of the
    action with the projection)."""
    terms = [dalpha(p, v, k).loop, -pointwise_bracket(p, v.loop)]
    return law_residual(terms, PolyPath.norm, [p.norm(), v.norm()])


def dalpha_matches_central_bracket_residual(l: PolyPath, v: CentralVector,
                                            k: float) -> float:
    """For a loop acting, the action coincides with the twisted bracket
    against the zero-center lift (infinitesimal form of letting the extension
    act on itself through the projection)."""
    terms = [dalpha(l, v, k), -extended_bracket(_derived_central(l), v, k)]
    return law_residual(terms, CentralVector.norm, [l.norm(), v.norm()])
