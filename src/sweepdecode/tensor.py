"""Dense tensors with a separated logarithmic scale.

Contraction values in likelihood networks are products of thousands of
probabilities and under/overflow double precision by hundreds of orders of
magnitude.  Every tensor therefore carries its numerical payload as
``elements * exp(log_scale)``: the element array is kept at O(1) magnitude
and the scale is tracked separately as a natural logarithm.

Elements are real float64 in C order (axis 0 slowest), which the sweep's
reshapes rely on: the networks built in this package hold probabilities
and 0/1 indicators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DenseTensor"]


@dataclass(frozen=True)
class DenseTensor:
    """An n-axis real tensor representing ``elements * exp(log_scale)``.

    The element array is read-only after construction.
    """

    elements: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "elements", arr)
        object.__setattr__(self, "log_scale", float(self.log_scale))
        arr.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.elements.ndim

    @property
    def extents(self) -> tuple:
        return self.elements.shape
