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


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """An n-axis real tensor; the element array is read-only after
    construction.

    The tensor holds a private copy of what it is given, so no handle the
    caller keeps (the array itself, a base it views, or one whose write
    flag the caller sets again) can change its elements.  ``elements`` is
    a view of that copy, and numpy refuses to make a view of a read-only
    array writeable again.  The tensor compares and hashes by identity:
    the sweep's memo of merged tensors keys on the tensor objects, which
    that invariant makes sound.
    """

    elements: np.ndarray

    def __post_init__(self):
        arr = np.array(self.elements, dtype=np.float64, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr.view())

    @property
    def rank(self) -> int:
        return self.elements.ndim

    @property
    def extents(self) -> tuple:
        return self.elements.shape
