"""Sweep-line contraction of planar tensor networks.

Vertices are absorbed into a boundary matrix product state in ascending
``(y, x, id)`` order.  Each absorption (:func:`contract_step`) consumes the
MPS sites carrying the vertex's bonds to already swept vertices and emits
one site per bond to unswept vertices, splitting the result back into a
chain by exact reshapes.  The MPS is truncated (:func:`compress_mps`) only
when its largest bond outgrows ``chi_prime``, so the cost of a sweep stays
near ``O(n chi^3)`` without compressing after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..tensor import DEFAULT_REL_CUTOFF
from .network import TensorNetwork2D, planarize

__all__ = [
    "MPSState",
    "SweepValue",
    "ContractionError",
    "sweep_key",
    "contract_step",
    "compress_mps",
    "sweep_contract",
]

TWO_PI = 2.0 * math.pi


class ContractionError(ValueError):
    """Network shape the sweep cannot process."""


class SweepValue(NamedTuple):
    """Contraction result: value = mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float
    trunc_error: float


def sweep_key(vertex) -> tuple:
    x, y = vertex.position
    return (y, x, vertex.id)


@dataclass
class MPSState:
    """Open boundary of a partial contraction.

    ``sites[k]`` is a float64 array with axes (left bond, open leg, right
    bond) carrying the open leg for network bond id ``pending[k]``.  The
    outermost bonds have extent 1.  Magnitudes are folded into
    ``log_scale`` (site arrays are kept near unit scale); ``mantissa``
    accumulates the sign/value once the boundary closes.
    """

    sites: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    log_scale: float = 0.0
    mantissa: float = 1.0

    def max_bond(self) -> int:
        if len(self.sites) < 2:
            return 1 if self.sites else 0
        return max(site.shape[2] for site in self.sites[:-1])

    def _normalize_site(self, k: int):
        arr = self.sites[k]
        m = np.max(np.abs(arr))
        if m == 0.0 or not np.isfinite(m):
            return
        e = round(math.log2(m))
        if e != 0:
            self.sites[k] = np.ldexp(arr, -e)
            self.log_scale += e * math.log(2.0)


def _angle_from(origin, target) -> float:
    """Departure angle of the bond origin->target, measured clockwise from
    the negative-y direction, in (0, 2 pi].

    Bonds leaving toward larger y (unswept territory) land in (pi/2, 3 pi/2]:
    left pi/2 < straight up pi < right 3 pi/2.  Ascending angle therefore
    orders forward bonds left to right along the sweep boundary.
    """
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    theta = math.atan2(-dx, -dy) % TWO_PI
    if theta == 0.0:
        theta = TWO_PI
    return theta


def _insertion_index(mps: MPSState, v, vertices, bond_map) -> int:
    """Where a vertex with no backward bonds enters the pending list.

    Each pending bond runs from a swept vertex s to an unswept vertex u;
    the new vertex sits left of that bond when it is on the left of the
    directed segment s->u.  Counting pending bonds that have v strictly to
    their right gives the insertion position.
    """
    p = v.position
    idx = 0
    for bid in mps.pending:
        bond = bond_map[bid]
        va = vertices[bond.endpoint_a[0]]
        vb = vertices[bond.endpoint_b[0]]
        s, u = (va, vb) if sweep_key(va) < sweep_key(v) else (vb, va)
        if sweep_key(s) >= sweep_key(v) or sweep_key(u) <= sweep_key(v):
            raise ContractionError(
                "pending bond does not separate swept from unswept vertices"
            )
        sx, sy = s.position
        ux, uy = u.position
        cross = (ux - sx) * (p[1] - sy) - (uy - sy) * (p[0] - sx)
        if cross < 0.0:
            idx += 1
        elif cross == 0.0:
            raise ContractionError(
                f"vertex {v.id} lies exactly on pending bond {bid}; planarize first"
            )
    return idx


def contract_step(mps: MPSState, v, vertices, incident, bond_map) -> MPSState:
    """Absorb vertex ``v`` into the boundary MPS, in place.

    ``incident[v.id]`` lists ``(bond_id, axis_on_v)`` pairs; ``bond_map``
    resolves bond ids.  Bonds whose id already sits in ``mps.pending`` are
    backward (their other endpoint was swept); the rest are forward and
    each becomes a new MPS site.  Backward legs must occupy a contiguous
    run of pending slots, which planarity guarantees.
    """
    backward = []
    forward = []
    for bid, axis in incident[v.id]:
        if bid in mps.pending:
            backward.append((bid, axis))
        else:
            bond = bond_map[bid]
            other = bond.endpoint_b[0] if bond.endpoint_a[0] == v.id else bond.endpoint_a[0]
            forward.append((bid, axis, _angle_from(v.position, vertices[other].position)))
    forward.sort(key=lambda item: item[2])

    if backward:
        positions = sorted(mps.pending.index(bid) for bid, _ in backward)
        lo, hi = positions[0], positions[-1]
        if positions != list(range(lo, hi + 1)):
            raise ContractionError(
                f"backward bonds of vertex {v.id} are not contiguous on the "
                "boundary; the network is not planar as embedded"
            )
    else:
        lo = _insertion_index(mps, v, vertices, bond_map)
        hi = lo - 1

    # Merge the run of consumed sites into one tensor with axes
    # (left bond, leg_lo, ..., leg_hi, right bond).
    if backward:
        big = mps.sites[lo]
        for k in range(lo + 1, hi + 1):
            big = np.tensordot(big, mps.sites[k], axes=([big.ndim - 1], [0]))
        run_bonds = mps.pending[lo : hi + 1]
        leg_axis = {bid: 1 + run_bonds.index(bid) for bid, _ in backward}
        big_axes = [leg_axis[bid] for bid, _ in backward]
        v_axes = [axis for _, axis in backward]
        merged = np.tensordot(big, v.tensor.elements, axes=(big_axes, v_axes))
        # tensordot leaves (left, right, then v's surviving axes in order)
        surviving = [a for a in range(v.tensor.rank) if a not in v_axes]
        v_axis_pos = {a: 2 + i for i, a in enumerate(surviving)}
    else:
        # A fresh component enters between pending slots lo-1 and lo.  The
        # bond already running between those sites must pass through the
        # inserted sites untouched, so the merged tensor is v's tensor with
        # an identity on that bond (extent 1 at either end of the chain).
        if 0 < lo < len(mps.sites):
            pass_dim = mps.sites[lo - 1].shape[2]
        else:
            pass_dim = 1
        merged = np.multiply.outer(np.eye(pass_dim), v.tensor.elements)
        v_axis_pos = {a: 2 + a for a in range(v.tensor.rank)}
    mps.log_scale += v.tensor.log_scale

    left_dim = merged.shape[0]
    right_dim = merged.shape[1]
    # Reorder the open axes left to right by departure angle.
    order = [0] + [v_axis_pos[axis] for _, axis, _ in forward] + [1]
    merged = np.transpose(merged, order)

    new_pending = [bid for bid, _, _ in forward]
    dims = [merged.shape[1 + i] for i in range(len(forward))]
    m = len(forward)

    if m == 0:
        # Fully absorbed: a (left, right) matrix folds into a neighbor, or
        # (when the boundary is empty) into the scalar accumulator.
        mat = merged.reshape(left_dim, right_dim)
        del mps.sites[lo : hi + 1]
        del mps.pending[lo : hi + 1]
        if lo > 0:
            mps.sites[lo - 1] = np.tensordot(mps.sites[lo - 1], mat, axes=([2], [0]))
        elif mps.sites:
            mps.sites[0] = np.tensordot(mat, mps.sites[0], axes=([1], [0]))
        else:
            if mat.size != 1:
                raise ContractionError("boundary vanished with open bonds left")
            val = float(mat.reshape(()))
            mag = abs(val)
            if mag == 0.0:
                mps.mantissa = 0.0
            else:
                mps.mantissa *= math.copysign(1.0, val)
                mps.log_scale += math.log(mag)
        if mps.sites:
            mps._normalize_site(max(lo - 1, 0))
        return mps

    # Split back into one site per forward bond.  Internal bond k carries
    # min(prefix, suffix) of the surrounding dimension products; sites left
    # of the crossover are reshaped identities fed from the left, sites
    # right of it identities fed from the right, and the full data sits in
    # the single crossover site as a pure reshape.
    prefix = [left_dim]
    for d in dims:
        prefix.append(prefix[-1] * d)
    suffix = [right_dim]
    for d in reversed(dims):
        suffix.append(suffix[-1] * d)
    suffix.reverse()  # suffix[k] = dims[k:] product * right_dim

    # Bond k (between sites k and k+1) carries prefix[k+1] left of the
    # crossover site t and suffix[k+1] right of it; picking t where the
    # nondecreasing prefix overtakes the nonincreasing suffix makes every
    # bond min(prefix, suffix).  Any t is exact; this one is minimal.
    t = 0
    for k in range(1, m):
        if prefix[k] <= suffix[k]:
            t = k
        else:
            break

    new_sites = []
    for k in range(m):
        if k < t:
            d_in = prefix[k]
            d_out = d_in * dims[k]
            site = np.eye(d_out).reshape(d_in, dims[k], d_out)
        elif k > t:
            d_out = suffix[k + 1]
            d_in = dims[k] * d_out
            site = np.eye(d_in).reshape(d_in, dims[k], d_out)
        else:
            site = merged.reshape(prefix[t], dims[t], suffix[t + 1])
        new_sites.append(site)

    mps.sites[lo : hi + 1] = new_sites
    mps.pending[lo : hi + 1] = new_pending
    mps._normalize_site(lo + t)
    return mps


def compress_mps(mps: MPSState, chi: int, rel_cutoff: float = DEFAULT_REL_CUTOFF):
    """Truncate every internal bond of ``mps`` to at most ``chi``.

    A left-to-right QR pass makes the state left-canonical, then a
    right-to-left SVD pass truncates each bond.  In that gauge each bond's
    truncation is optimal, successive error vectors are mutually
    orthogonal, and the relative error

        sqrt(sum_k dropped_k^2) / |psi|

    is exact for the whole chain, not an upper bound.  Returns
    ``(mps, trunc_error)``; the state is modified in place.
    """
    n = len(mps.sites)
    if n <= 1:
        return mps, 0.0

    for k in range(n - 1):
        dl, d, dr = mps.sites[k].shape
        q, r = np.linalg.qr(mps.sites[k].reshape(dl * d, dr))
        mps.sites[k] = q.reshape(dl, d, q.shape[1])
        mps.sites[k + 1] = np.tensordot(r, mps.sites[k + 1], axes=([1], [0]))
        mps._normalize_site(k + 1)

    norm0 = float(np.linalg.norm(mps.sites[-1]))
    if norm0 == 0.0:
        return mps, 0.0

    dropped = 0.0
    for k in range(n - 1, 0, -1):
        dl, d, dr = mps.sites[k].shape
        u, s, vt = np.linalg.svd(mps.sites[k].reshape(dl, d * dr), full_matrices=False)
        keep = int(np.count_nonzero(s >= rel_cutoff * s[0])) if s[0] > 0.0 else 1
        keep = max(1, min(keep, chi))
        dropped += float(np.sum(s[keep:] ** 2))
        mps.sites[k] = vt[:keep].reshape(keep, d, dr)
        carry = u[:, :keep] * s[:keep]
        mps.sites[k - 1] = np.tensordot(mps.sites[k - 1], carry, axes=([2], [0]))
    for k in range(n):
        mps._normalize_site(k)
    return mps, math.sqrt(dropped) / norm0


def sweep_contract(
    tn: TensorNetwork2D,
    chi: int | None = None,
    chi_prime: int | None = None,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
) -> SweepValue:
    """Contract a closed planar network to a scalar.

    ``chi`` bounds the boundary MPS bond dimension (``None`` contracts
    exactly).  Compression to ``chi`` triggers only when the largest bond
    exceeds ``chi_prime`` (default ``2 * chi``).  The network is planarized
    first if crossings are present.  Returns ``(mantissa, log_scale,
    trunc_error)`` with the value equal to ``mantissa * exp(log_scale)``
    and ``trunc_error`` the accumulated relative truncation estimate, 0 for
    an exact contraction.
    """
    if not tn.vertices:
        raise ContractionError("cannot contract an empty network")
    tn.validate_closed()
    if chi is not None and chi < 1:
        raise ValueError("chi must be a positive integer")
    if chi is not None and chi_prime is None:
        chi_prime = 2 * chi
    tn = planarize(tn)
    # swaps can join components that only met at crossings, so connectivity
    # is a property of the planarized network
    if not tn.is_connected():
        raise ContractionError("network is not connected")

    incident: dict = {vid: [] for vid in tn.vertices}
    bond_map: dict = {}
    for bid, bond in enumerate(tn.bonds):
        bond_map[bid] = bond
        incident[bond.endpoint_a[0]].append((bid, bond.endpoint_a[1]))
        incident[bond.endpoint_b[0]].append((bid, bond.endpoint_b[1]))

    order = sorted(tn.vertices.values(), key=sweep_key)
    mps = MPSState()
    total_err = 0.0
    for v in order:
        contract_step(mps, v, tn.vertices, incident, bond_map)
        if chi is not None and mps.max_bond() > chi_prime:
            _, err = compress_mps(mps, chi, rel_cutoff)
            total_err = math.sqrt(total_err * total_err + err * err)

    if mps.sites or mps.pending:
        raise ContractionError("sweep finished with open boundary; network not closed")
    return SweepValue(mps.mantissa, mps.log_scale, total_err)
