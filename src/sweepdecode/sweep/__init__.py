"""Planar tensor networks and their sweep-line contraction."""

from .contract import ContractionError, SweepValue, sweep_contract, sweep_key
from .network import Bond, PlanarizeError, TensorNetwork2D, TNVertex, planarize

__all__ = [
    "Bond",
    "ContractionError",
    "PlanarizeError",
    "SweepValue",
    "TNVertex",
    "TensorNetwork2D",
    "planarize",
    "sweep_contract",
    "sweep_key",
]
