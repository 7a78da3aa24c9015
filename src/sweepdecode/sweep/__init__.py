"""Planar tensor networks and their sweep-line contraction."""

from .contract import (
    ContractionError,
    MPSState,
    SweepValue,
    compress_mps,
    contract_step,
    sweep_contract,
    sweep_key,
)
from .network import Bond, PlanarizeError, TensorNetwork2D, TNVertex, planarize

__all__ = [
    "Bond",
    "ContractionError",
    "MPSState",
    "PlanarizeError",
    "SweepValue",
    "TNVertex",
    "TensorNetwork2D",
    "compress_mps",
    "contract_step",
    "planarize",
    "sweep_contract",
    "sweep_key",
]
