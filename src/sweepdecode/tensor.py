"""Dense read-only tensors, the vertices of a tensor network.

Elements are real float64 in C order (axis 0 slowest), which the sweep's
reshapes rely on: the networks built in this package hold probabilities
and 0/1 indicators.  A tensor carries no scale of its own.  A contraction
value, a product of thousands of such entries, under/overflows double
precision by hundreds of orders of magnitude, so the sweep keeps its scale
apart, as a natural logarithm on the boundary state (``MPSState.log_scale``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DenseTensor"]


@dataclass(frozen=True)
class DenseTensor:
    """An n-axis real tensor; the element array is read-only after
    construction."""

    elements: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "elements", arr)
        arr.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.elements.ndim

    @property
    def extents(self) -> tuple:
        return self.elements.shape
