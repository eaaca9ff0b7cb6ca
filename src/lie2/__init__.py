"""Verification engine for categorified Lie algebra models on path and loop
spaces: exact polynomial carriers, graded coherence checkers, finite crossed
modules, and second-order group-scale quadrature."""

from .liealg import (
    InputError,
    LieAlgebraPresentation,
    load_presentation,
    sl2,
    so3,
    su2,
)
from .linfty import (
    ChainHomotopy,
    LInftyHom,
    TwoTermLInfinity,
    compose,
    generalized_jacobi_residual,
    identity_hom,
)
from .models import (
    ModelBundle,
    build_models,
    make_el,
    make_gk,
    make_lambda,
    make_phi,
    make_pkg,
    make_psi,
    make_tau,
)
from .paths import (
    CentralVector,
    PolyPath,
    derivative_pairing,
    pointwise_bracket,
    universal_integral,
)
from .suites import RunConfig, describe, run

__version__ = "0.1.0"
