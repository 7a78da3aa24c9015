"""Dense read-only tensors, the vertices of a tensor network.

Elements are real float64 in C order (axis 0 slowest), which the sweep's
reshapes rely on: the networks built in this package hold probabilities
and 0/1 indicators.  A tensor carries no scale of its own.  A contraction
value, a product of thousands of such entries, under/overflows double
precision by hundreds of orders of magnitude, so the sweep keeps its scale
apart: an integer power of two on the boundary state (``MPSState.exponent``),
to which every exact shift of a site adds, read as a natural logarithm
(``MPSState.log_scale``) once, when the boundary closes.  Every site the
sweep makes meets one scale rule (``MPSState._normalize_site``), and every
step array the sweep absorbs, a tensor or, in a folded plan, the product of
several, is built from its tensors shifted to unit scale and is shifted to
unit scale itself, its power of two joining the same integer exponent.  So
only each tensor's elements must fit in float64, not the products the sweep
makes of them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DenseTensor"]


class DenseTensor:
    """An n-axis real tensor; the element array is read-only after
    construction.

    The tensor holds a private copy of what it is given, so no handle the
    caller keeps (the array itself, a base it views, or one whose write
    flag the caller sets again) can change its elements.  Each read of
    ``elements`` hands out a fresh view of that copy: numpy refuses to
    make a view of a read-only array writeable again, and a caller that
    sets a view's ``shape`` reshapes that view alone.  The tensor compares
    and hashes by identity, and its attributes cannot be set: the sweep's
    memo of step arrays, merged or not, keys on the tensor objects, which
    that invariant makes sound.  ``extents``, the shape of the elements,
    is stored at construction, so the sweep's plan lookup reads one tuple
    per vertex and meets the same tuple on every call.  Complex elements
    raise ``ValueError``: the cast to float64 would drop their imaginary
    parts.
    """

    __slots__ = ("_array", "extents")

    def __init__(self, elements):
        arr = np.asarray(elements)
        if np.iscomplexobj(arr):
            raise ValueError("tensor elements must be real, not complex")
        arr = np.array(arr, dtype=np.float64, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "extents", arr.shape)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a DenseTensor is immutable")

    @property
    def elements(self) -> np.ndarray:
        return self._array.view()

    @property
    def rank(self) -> int:
        return len(self.extents)
