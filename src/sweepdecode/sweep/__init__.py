"""Planar tensor networks, their sweep plans and their sweep-line
contraction."""

from .contract import SweepValue, sweep_contract
from .network import Bond, PlanarizeError, TensorNetwork2D, TNVertex, planarize
from .plan import ContractionError, Plan, plan_sweep, sweep_key

__all__ = [
    "Bond", "ContractionError", "Plan", "PlanarizeError", "SweepValue", "TNVertex",
    "TensorNetwork2D", "plan_sweep", "planarize", "sweep_contract", "sweep_key",
]
