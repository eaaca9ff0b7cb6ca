#!/usr/bin/env python3
"""Reproduce the closed-form values the verification suites pin down:

* the splitting integral of f (f - f^2)' equals -1/6 for every admissible f,
* the loop cocycle on the bump pair (u - u^2, u^2 - u^3) equals 1/30,
* the endpoint corrector on (u e1, u^2 e1) equals 1/3,
* the twisted action coefficient on (u e1, (u - u^2) e1) equals -1/3.
"""

import numpy as np

from lie2 import su2
from lie2.kacmoody import omega
from lie2.models import build_models
from lie2.paths import (
    BASED,
    LOOP,
    CentralVector,
    PolyPath,
    random_splitting,
    universal_integral,
)


def main() -> None:
    g = su2()
    rng = np.random.default_rng(0)

    print("splitting integral (expected -1/6 = %.12f):" % (-1 / 6))
    for label, f in [
        ("f = u", np.array([0.0, 1.0])),
        ("f = 3u^2 - 2u^3", np.array([0.0, 0.0, 3.0, -2.0])),
        ("f = u^5", np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])),
        ("random degree 8", random_splitting(rng, 8)),
    ]:
        print(f"  {label:<18} -> {universal_integral(f):+.15f}")

    f = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0, -1.0]), LOOP)
    h = PolyPath(g, np.outer([1, 0, 0], [0.0, 0.0, 1.0, -1.0]), LOOP)
    print(f"\nloop cocycle on bump pair: {omega(f, h, 1.0):.15f}"
          f"  (expected 1/30 = {1 / 30:.15f})")

    models = build_models(g, 1.0)
    phi = models.phi
    p1 = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0]), BASED)
    p2 = PolyPath(g, np.outer([1, 0, 0], [0.0, 0.0, 1.0]), BASED)
    print(f"endpoint corrector phi2(u e1, u^2 e1): {phi.phi2(p1, p2):.15f}"
          f"  (expected 1/3)")

    pkg = models.pkg
    loop = PolyPath(g, np.outer([1, 0, 0], [0.0, 1.0, -1.0]), LOOP)
    act = pkg.l2_01(p1, CentralVector(loop, 0.0))
    print(f"twisted action coefficient: {act.c:.15f}  (expected -1/3)")


if __name__ == "__main__":
    main()
