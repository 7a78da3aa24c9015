"""Sweep-line contraction of planar tensor networks.

Vertices are absorbed into a boundary matrix product state in ascending
``(y, x, id)`` order.  Each absorption (:func:`contract_step`) consumes the
MPS sites carrying the vertex's bonds to already swept vertices and emits
one site per bond to unswept vertices, splitting the result back into a
chain by exact reshapes.  The MPS is truncated (:func:`compress_mps`) only
when its largest bond outgrows ``chi_prime``, so the cost of a sweep stays
near ``O(n chi^3)`` without compressing after every step.

A sweep is split into a plan and a run.  The plan depends only on the
network's geometry: it validates and planarizes the network, orders its
vertices, and replays the sweep on bond ids alone to fix, for every step,
the run of boundary slots the vertex consumes, the bonds it emits and the
axis permutations of its products.  The run does only numerics on the
vertices' tensors.  Plans are cached, keyed on everything a plan reads:
the vertex ids, positions and tensor shapes, and the ordered bonds with
both endpoints and their dimensions.  The four coset networks of a code
and the networks of every syndrome share that key, so the geometry pass is
paid once per code.  A plan holds no tensor of the network (only the swap
tensors planarize inserted, which depend on bond dimensions alone), and
equal keys replay the same deterministic build, so a cache hit returns
exactly what a rebuild would.  A network that fails to plan raises on
every call, since errors are not cached.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
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

# Plans kept at once.  A decoder contracts the networks of one code over
# and over, so a handful of geometries covers it.
PLAN_CACHE_SIZE = 8


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
        if m == 0.0:
            return
        if not np.isfinite(m):
            raise ContractionError("boundary MPS holds a non-finite value")
        e = round(math.log2(m))
        if e != 0:
            self.sites[k] = np.ldexp(arr, -e)
            self.log_scale += e * math.log(2.0)


class _Step(NamedTuple):
    """One planned absorption.

    Vertex ``vid`` consumes the boundary slots ``lo..hi`` (none when
    ``hi == lo - 1``: it then enters at slot ``lo``) and leaves
    ``new_pending`` there, ordered left to right.  ``perms`` holds the
    transposes of its products: the consumed run's axes (left, right, then
    legs in the vertex's bond order) and the vertex's axes (contracted,
    then surviving), both None without backward bonds, and the order of
    the product's axes (left, open legs left to right, right).
    """

    vid: int
    lo: int
    hi: int
    perms: tuple
    new_pending: tuple


class _Plan(NamedTuple):
    steps: tuple
    swaps: dict  # vertex id -> tensor of each swap vertex planarize inserted


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


def _insertion_index(pending, v, vertices, bonds) -> int:
    """Where a vertex with no backward bonds enters the pending list.

    Each pending bond runs from a swept vertex s to an unswept vertex u;
    the new vertex sits left of that bond when it is on the left of the
    directed segment s->u.  Counting pending bonds that have v strictly to
    their right gives the insertion position.
    """
    p = v.position
    idx = 0
    for bid in pending:
        bond = bonds[bid]
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


def _plan_step(pending: list, v, vertices, incident, bonds) -> _Step:
    """Plan the absorption of ``v`` and apply it to the bond ids ``pending``.

    Bonds already pending are backward (their other endpoint was swept);
    the rest are forward and leave in order of departure angle.  Backward
    legs must occupy a contiguous run of pending slots, which planarity
    guarantees.
    """
    backward = []
    forward = []
    for bid, axis in incident[v.id]:
        if bid in pending:
            backward.append((bid, axis))
        else:
            bond = bonds[bid]
            other = bond.endpoint_b[0] if bond.endpoint_a[0] == v.id else bond.endpoint_a[0]
            forward.append((bid, axis, _angle_from(v.position, vertices[other].position)))
    forward.sort(key=lambda item: item[2])

    if backward:
        positions = sorted(pending.index(bid) for bid, _ in backward)
        lo, hi = positions[0], positions[-1]
        if positions != list(range(lo, hi + 1)):
            raise ContractionError(
                f"backward bonds of vertex {v.id} are not contiguous on the "
                "boundary; the network is not planar as embedded"
            )
        # The run merges to (left bond, leg_lo, ..., leg_hi, right bond);
        # its product with the vertex leaves (left, right, surviving axes).
        run_axes = (0, hi - lo + 2, *(1 + pending.index(bid) - lo for bid, _ in backward))
        v_axes = [axis for _, axis in backward]
        surviving = [a for a in range(v.tensor.rank) if a not in v_axes]
        vertex_axes = (*v_axes, *surviving)
        v_axis_pos = {a: 2 + i for i, a in enumerate(surviving)}
    else:
        lo = _insertion_index(pending, v, vertices, bonds)
        hi = lo - 1
        run_axes = vertex_axes = None
        # the product is (pass-through bond in, out, vertex axes)
        v_axis_pos = {a: 2 + a for a in range(v.tensor.rank)}

    open_axes = (0, *(v_axis_pos[axis] for _, axis, _ in forward), 1)
    new_pending = tuple(bid for bid, _, _ in forward)
    pending[lo : hi + 1] = new_pending
    return _Step(v.id, lo, hi, (run_axes, vertex_axes, open_axes), new_pending)


def _build_plan(tn: TensorNetwork2D) -> _Plan:
    """Validate, planarize and order ``tn`` and plan every absorption."""
    tn.validate_closed()
    flat = planarize(tn)
    # swaps can join components that only met at crossings, so connectivity
    # is a property of the planarized network
    if not flat.is_connected():
        raise ContractionError("network is not connected")

    incident: dict = {vid: [] for vid in flat.vertices}
    for bid, bond in enumerate(flat.bonds):
        incident[bond.endpoint_a[0]].append((bid, bond.endpoint_a[1]))
        incident[bond.endpoint_b[0]].append((bid, bond.endpoint_b[1]))

    pending: list = []
    steps = tuple(
        _plan_step(pending, v, flat.vertices, incident, flat.bonds)
        for v in sorted(flat.vertices.values(), key=sweep_key)
    )
    swaps = {vid: v.tensor for vid, v in flat.vertices.items() if vid not in tn.vertices}
    return _Plan(steps, swaps)


def _geometry_key(tn: TensorNetwork2D) -> tuple:
    """Everything :func:`_build_plan` reads from ``tn``."""
    return (
        tuple((v.id, tuple(v.position), v.tensor.extents) for v in tn.vertices.values()),
        tuple((b.endpoint_a, b.endpoint_b, b.dimension) for b in tn.bonds),
    )


_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


def _plan_for(tn: TensorNetwork2D) -> _Plan:
    """The cached plan of ``tn``'s geometry, built on a miss."""
    key = _geometry_key(tn)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    plan = _build_plan(tn)
    with _plans_lock:
        _plans[key] = plan
        if len(_plans) > PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


def _dot_right(site, mat):
    """``site`` (left, leg, right) times ``mat`` on its right bond."""
    dl, d, dr = site.shape
    return np.dot(site.reshape(dl * d, dr), mat).reshape(dl, d, mat.shape[1])


def _dot_left(mat, site):
    """``mat`` times ``site`` (left, leg, right) on its left bond."""
    dl, d, dr = site.shape
    return np.dot(mat, site.reshape(dl, d * dr)).reshape(mat.shape[0], d, dr)


def contract_step(mps: MPSState, step: _Step, tensor) -> MPSState:
    """Absorb one planned vertex, carrying the DenseTensor ``tensor``, into
    the boundary MPS, in place.

    Every product is ``np.dot`` on operands transposed by the step's
    planned permutations and reshaped to matrices, which is what
    ``np.tensordot`` does with the same axes.  Consumed sites leave the
    chain before their replacement is built.
    """
    _, lo, hi, (run_axes, vertex_axes, open_axes), new_pending = step
    sites = mps.sites
    elements = tensor.elements
    if hi >= lo:
        # Merge the consumed run into one tensor with axes
        # (left bond, leg_lo, ..., leg_hi, right bond), then contract its
        # legs with the vertex.
        merged = sites.pop(lo)
        for _ in range(hi - lo):
            site = sites.pop(lo)
            merged = np.dot(
                merged.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1)
            ).reshape(merged.shape[:-1] + site.shape[1:])
            del site
        left, right = merged.shape[0], merged.shape[-1]
        merged = merged.transpose(run_axes).reshape(left * right, -1)
        vt = elements.transpose(vertex_axes)
        merged = np.dot(merged, vt.reshape(merged.shape[1], -1)).reshape(
            (left, right) + vt.shape[hi - lo + 1 :]
        )
    else:
        # A fresh component enters between pending slots lo-1 and lo.  The
        # bond already running between those sites must pass through the
        # inserted sites untouched, so the merged tensor is v's tensor with
        # an identity on that bond (extent 1 at either end of the chain).
        pass_dim = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
        merged = np.multiply.outer(np.eye(pass_dim), elements)
    mps.log_scale += tensor.log_scale
    # Order the open axes left to right by departure angle.
    merged = merged.transpose(open_axes)
    left_dim, right_dim = merged.shape[0], merged.shape[-1]
    dims = merged.shape[1:-1]
    m = len(dims)

    if m == 0:
        # Fully absorbed: a (left, right) matrix folds into a neighbor, or
        # (when the boundary is empty) into the scalar accumulator.
        mat = merged.reshape(left_dim, right_dim)
        del merged
        del mps.pending[lo : hi + 1]
        if lo > 0:
            sites[lo - 1] = _dot_right(sites[lo - 1], mat)
        elif sites:
            sites[0] = _dot_left(mat, sites[0])
        else:
            if mat.size != 1:
                raise ContractionError("boundary vanished with open bonds left")
            val = float(mat.reshape(()))
            if not math.isfinite(val):
                raise ContractionError("network value is not finite")
            mag = abs(val)
            if mag == 0.0:
                mps.mantissa = 0.0
            else:
                mps.mantissa *= math.copysign(1.0, val)
                mps.log_scale += math.log(mag)
        if sites:
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

    crossover = merged.reshape(prefix[t], dims[t], suffix[t + 1])
    del merged
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
            site = crossover
        new_sites.append(site)

    sites[lo:lo] = new_sites
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
        mps.sites[k + 1] = _dot_left(r, mps.sites[k + 1])
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
        mps.sites[k - 1] = _dot_right(mps.sites[k - 1], carry)
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

    The geometry pass (validation, planarize, sweep order and the slot
    bookkeeping of every step) is taken from a cache keyed on the vertex
    ids, positions and tensor shapes and the ordered bonds, so networks
    that differ only in tensor values pay it once; see the module
    docstring.  Only the absorptions and compressions run on every call.
    A non-finite value met during the sweep raises :class:`ContractionError`.
    """
    if not tn.vertices:
        raise ContractionError("cannot contract an empty network")
    if chi is not None and chi < 1:
        raise ValueError("chi must be a positive integer")
    if chi is not None and chi_prime is None:
        chi_prime = 2 * chi
    plan = _plan_for(tn)

    vertices, swaps = tn.vertices, plan.swaps
    mps = MPSState()
    total_err = 0.0
    # A non-finite product raises ContractionError at the step that made it
    # (every site that takes new data is normalized, and the closing scalar
    # is checked), so numpy's overflow and invalid-value warnings would only
    # repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in plan.steps:
            tensor = swaps[step.vid] if step.vid in swaps else vertices[step.vid].tensor
            contract_step(mps, step, tensor)
            if chi is not None and mps.max_bond() > chi_prime:
                _, err = compress_mps(mps, chi, rel_cutoff)
                total_err = math.sqrt(total_err * total_err + err * err)

    if mps.sites or mps.pending:
        raise ContractionError("sweep finished with open boundary; network not closed")
    return SweepValue(mps.mantissa, mps.log_scale, total_err)
