"""The one running maximum every suite reduces its residuals with.

Residuals arrive a block of trials at a time as ``{component: residual}``,
each residual an array over the block's trials (or a number the whole block
shares).  A NaN counts as worse than any number: the first NaN becomes the
maximum of its component and of the whole stream and is never replaced, so a
NaN residual can never be dropped by a comparison that is false for NaN.
The fold is also the one trial count: each component counts the trials of
the blocks it appears in, and the count is that of the most-sampled one.
"""

from __future__ import annotations

from functools import reduce
from typing import Any

import numpy as np


def _worse(value: float, than: float) -> bool:
    return value > than or (value != value and than == than)


def trial(inputs: Any, row: int) -> Any:
    """Trial ``row`` of a block of inputs: every carrier and array in the
    (nested) tuples and lists is indexed on its leading batch axis; ints and
    strings, such as degree tags and law names, are shared by the block."""
    if isinstance(inputs, (tuple, list)):
        return type(inputs)(trial(x, row) for x in inputs)
    if isinstance(inputs, (int, str)):
        return inputs
    return inputs[row]


class WorstCase:
    """Per-component maxima plus the trial that holds the overall maximum.

    Every maximum starts at 0.0, so a stream of exact zeros records no inputs.
    ``inputs`` is the block that holds the maximum and ``row`` its trial in
    the block, or None when the block's residuals were plain numbers;
    ``witness`` is that one trial's inputs.  ``counts`` holds the trials
    each component was folded over, and ``count`` is the largest of them.
    """

    def __init__(self):
        self.maxima: dict[str, float] = {}
        self.max_residual = 0.0
        self.component: str | None = None
        self.inputs: Any = None
        self.row: int | None = None
        self.counts: dict[str, int] = {}

    def add(self, residuals: dict, inputs: Any = None) -> None:
        """Fold one block.  The overall maximum moves to the first trial, and
        within it the first component, that holds a strictly worse value: a
        NaN if there is one (``argmax`` returns the first NaN), else the
        largest residual."""
        names = list(residuals)
        values = [np.asarray(v, dtype=float) for v in residuals.values()]
        shape = np.broadcast_shapes(*(v.shape for v in values))
        table = np.stack([np.broadcast_to(v, shape) for v in values], axis=-1)
        table = table.reshape(-1, len(names))  # trial-major, component-minor
        for name, value in zip(names, table.max(axis=0).tolist()):
            self.counts[name] = self.counts.get(name, 0) + len(table)
            if _worse(value, self.maxima.setdefault(name, 0.0)):
                self.maxima[name] = value
        row, col = divmod(int(table.argmax()), len(names))
        value = float(table[row, col])
        if _worse(value, self.max_residual):
            self.max_residual, self.component = value, names[col]
            self.inputs, self.row = inputs, (row if shape else None)

    @property
    def count(self) -> int:
        return max(self.counts.values(), default=0)

    @property
    def witness(self) -> Any:
        return self.inputs if self.row is None else trial(self.inputs, self.row)


def largest(*values):
    """Element-wise maximum of the laws one component checks on the same
    trials, NaN wherever any of them is NaN."""
    return reduce(np.maximum, values)
