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

import math
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
        NaN if there is one (``max`` returns NaN, ``argmax`` the first), else
        the largest residual.  Each component is reduced once; the trial is
        only looked for when the block beats the overall maximum."""
        values = {name: np.asarray(v, dtype=float) for name, v in residuals.items()}
        shape = np.broadcast_shapes(*(v.shape for v in values.values()))
        trials = math.prod(shape)
        top = 0.0
        for name, v in values.items():
            value = float(v.max())
            self.counts[name] = self.counts.get(name, 0) + trials
            if _worse(value, self.maxima.setdefault(name, 0.0)):
                self.maxima[name] = value
            if _worse(value, top):
                top = value
        if not _worse(top, self.max_residual):
            return
        # the first trial holding ``top`` in each component that holds it;
        # ``min`` keeps the first of those components at the earliest trial
        hits = (np.broadcast_to(np.isnan(v) if top != top else v == top, shape).ravel()
                for v in values.values())
        row, self.component = min(((int(hit.argmax()), name)
                                   for name, hit in zip(values, hits) if hit.any()),
                                  key=lambda found: found[0])
        self.max_residual, self.inputs, self.row = top, inputs, (row if shape else None)

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
