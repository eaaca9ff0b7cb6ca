"""The one running maximum every sweep and suite reduces its residuals with.

Residuals arrive trial by trial as ``{component: residual}``.  A NaN counts as
worse than any number: the first NaN becomes the maximum of its component and
of the whole stream and is never replaced, so a NaN residual can never be
dropped by a comparison that is false for NaN.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


def _worse(value: float, than: float) -> bool:
    # value != value is the NaN test, inlined: this runs once per residual
    return value > than or (value != value and than == than)


class WorstCase:
    """Per-component maxima plus the trial that holds the overall maximum.

    Every maximum starts at 0.0, so a stream of exact zeros records no inputs.
    """

    def __init__(self):
        self.maxima: dict[str, float] = {}
        self.max_residual = 0.0
        self.component: str | None = None
        self.inputs: Any = None
        self.count = 0

    def add(self, residuals: dict[str, float], inputs: Any = None) -> None:
        self.count += 1
        for name, value in residuals.items():
            if _worse(value, self.maxima.setdefault(name, 0.0)):
                self.maxima[name] = value
            if _worse(value, self.max_residual):
                self.max_residual, self.component, self.inputs = value, name, inputs


def worst_case(samples: Iterable, evaluate: Callable[[Any], dict[str, float]]) -> WorstCase:
    """Fold ``evaluate(sample)`` over a stream of samples, one at a time."""
    worst = WorstCase()
    for inputs in samples:
        worst.add(evaluate(inputs), inputs)
    return worst


def largest(*values: float) -> float:
    """max(values), NaN if any value is NaN: combines the laws one component
    checks on a single trial."""
    return worst_case(values, lambda v: {"": v}).max_residual
