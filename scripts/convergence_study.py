#!/usr/bin/env python3
"""Grid-refinement study for the three quadrature-verified group identities.

Prints residuals at a ladder of grid sizes together with successive ratios;
second-order stencils and trapezoid quadrature should show ratios near 4.  The
residuals are the defects at unit level, so they take no level.
"""

import argparse

import numpy as np

from lie2.suites import REGISTRY, RunConfig

LABELS = {
    "kappa-cocycle": "double-integral cocycle",
    "ad-omega": "conjugation invariance ",
    "kappa-conjugation": "kappa conjugation rule ",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[64, 128, 256, 512])
    args = parser.parse_args()

    # the group-scale suites' own fixtures, drawn in this order from one generator
    rng = np.random.default_rng(args.seed)
    fixtures = {name: next(REGISTRY[name].sample(RunConfig(), rng)) for name in LABELS}

    header = "identity                 " + "".join(f"{n:>12d}" for n in args.sizes)
    print(header)
    print("-" * len(header))
    for name, label in LABELS.items():
        residuals = [r for n in args.sizes for r in REGISTRY[name].evaluate(
            RunConfig(nt=n, ntheta=n), fixtures[name]).values()]
        print(label + "  " + "".join(f"{r:>12.3e}" for r in residuals))
        ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
        print("  ratios" + " " * 17
              + "".join(f"{r:>12.2f}" for r in ratios) + " " * 12)


if __name__ == "__main__":
    main()
