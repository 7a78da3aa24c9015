"""Approximate maximum-likelihood decoding of 2D Pauli codes by sweep-line
tensor network contraction."""

__version__ = "0.1.0"

from .tensor import DenseTensor

__all__ = [
    "DenseTensor",
    "__version__",
]
