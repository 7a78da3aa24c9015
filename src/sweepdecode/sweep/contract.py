"""Sweep-line contraction of planar tensor networks.

:func:`sweep_contract` contracts a closed network in two parts.  The plan
(:class:`_Plan`) depends only on the network's geometry and on ``chi``:
the form and frame the network is swept in, the recipe of each vertex's
tensor in that form (:class:`_Merge`), its modelled cost and, per step
(:class:`_Step`), the vertex it absorbs, the boundary slots it consumes,
how it lays out the vertex's axes and where it splits the consumed run.
Beyond those it holds a memo of the arrays its steps absorb, each laid
out in its step's order and keyed by the tensor objects it was built
from, and of the cuts that split each absorption into sites, so a
decoder, which sweeps networks of one code over and over, builds each
array and each cut once; the cost model that picks the plan prices the
warm sweeps that follow.  The run (:func:`_run`) does only numerics: it
absorbs each step's array into a boundary matrix product state, and
compresses that state when it grows too wide.

Each rule is stated where it is enforced:

- the network checks: :func:`planarize`;
- the candidate forms, frames and pairing: :func:`_candidates`;
- the cost model of a warm sweep: :func:`_model`, on the counts of
  :func:`_tally`;
- the peak guard and the ties: :func:`_choose`;
- the recipe of each step's array: :class:`_Merge`;
- the array a step absorbs: :func:`_vertex_tensor`, which checks the
  tensors of a miss and fills the memo of step arrays,
  :class:`_MergeMemo`, up to ``MERGE_MEMO_BYTES``;
- the plan cache and its lookup by geometry: :func:`_plan_for`;
- an absorption and the split of its consumed run (``_Step.split``):
  :func:`contract_step`, priced by :func:`_absorption` and picked by
  :func:`_tally`;
- the sites an absorption leaves: :func:`_cut` on the sizes of
  :func:`_split`, and the memo of cuts beside the step arrays
  (``_MergeMemo.cuts``), which :func:`_run` hands the chain;
- the pass-through identities, the chain's read-only sites:
  :class:`MPSState`;
- a site's scale and the non-finite check: ``MPSState._normalize_site``;
- the truncation and its LAPACK calls: :func:`compress_mps`;
- the ``2 * chi`` compression trigger: :func:`_run`.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from .network import (
    Bond, TensorNetwork2D, TNVertex, _check_fields, _check_tensor, _orient, planarize,
)

__all__ = ["SweepValue", "ContractionError", "sweep_key", "sweep_contract"]

TWO_PI = 2.0 * math.pi

# Singular values below this fraction of the largest are dropped on every
# compression, even when ``chi`` is not binding: they are rounding noise.
REL_CUTOFF = 1e-14

# Plans kept at once.  A decoder contracts the networks of one code over
# and over, so a handful of geometries covers it.  A lookup compares the
# network's geometry with the kept plans', most recently used first, so
# decoding one code compares with one plan per call.
PLAN_CACHE_SIZE = 8

# Bytes one plan's memo of step arrays (_MergeMemo) may hold, counting its
# arrays and the input tensors its keys keep alive.  It holds every step's
# array, merged or not.  An array depends only on the tensors of its
# vertex (and, folded, of the vertices merged into it), and a coset
# network picks each qubit's from four, so a code has few variants.  Every
# merged variant of the benchmark's codes, measured: square d=5 at chi=8,
# 172 entries of 0.06 MB (0.09 MB with their keys); subsystem d=5 exact,
# paired, 388 entries of 0.39 MB (0.53 MB).  The larger fits four times
# over.  An unfolded plan holds one entry per vertex and variant: square
# d=7 at chi=8, 293 entries of 0.06 MB after 64 shots (plan_model.py
# --plans).  All cached plans together hold at most PLAN_CACHE_SIZE *
# MERGE_MEMO_BYTES = 16 MB.
MERGE_MEMO_BYTES = 2 << 20

# Widest identity kept for the pass-through sites of contract_step.  A
# sweep meets a few small sizes over and over (up to 16 wide: 95% of them
# at chi=8 on a square code, 83% in an exact subsystem d=5 sweep); wider
# ones, MBs each in an exact contraction, are built per step.  The memo
# stays allocated between sweeps, so it is bounded in bytes: at most
# sum(8 n^2 for n <= 16) = 12 KB.  A plan keeps only the cuts whose
# identities are all this narrow (_MergeMemo.cuts), so a kept cut holds
# views of these shared identities and no wider one.
IDENTITY_MEMO_MAX = 16

# Constants of the plan cost model (_model), fitted to the measured warm
# sweeps in BENCH_plan_model.json by ``python scripts/plan_model.py --fit``.
MODEL_SECONDS_PER_MADD = 5.17e-11
MODEL_SECONDS_PER_STEP = 1.14e-5
MODEL_SECONDS_PER_COMPRESSED_SITE = 4.68e-5


class ContractionError(ValueError):
    """Network shape the sweep cannot process."""


class SweepValue(NamedTuple):
    """Contraction result: value = mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float


def sweep_key(vertex) -> tuple:
    """Sort key of ``vertex`` in a sweep: ascending ``(y, x, id)``.

    A plan applies it to the positions of its own frame (``_Plan.turns``),
    so the order of a network's own positions is that of frame 0.
    """
    x, y = vertex.position
    return (y, x, vertex.id)


@dataclass
class MPSState:
    """Open boundary of a partial contraction.

    ``sites[k]`` is a float64 array with axes (left bond, open leg, right
    bond); which network bond each open leg carries is fixed by the sweep
    plan.  The outermost bonds have extent 1.  Magnitudes are folded into
    ``log_scale`` (site arrays are kept near unit scale); ``mantissa``
    accumulates the sign/value once the boundary closes.

    The pass-through identities :func:`contract_step` emits either side of
    its data site are read-only views of :func:`_identity`, and they are
    the chain's only read-only sites: every other site is a fresh array (a
    reshaped product, a normalised copy or a compression factor).  One
    emitted right of a data site keeps a fresh site on its left, so the
    read-only sites at the left end of the chain are ``np.eye(l * d)``
    reshaped to ``(l, d, l * d)``, which :func:`compress_mps` finds by
    their flag.  The chain is internal to the sweep for that reason.

    ``emitted`` is the largest bond the last :func:`contract_step` made
    between the sites it emitted, 0 when it made none.  ``cuts`` is the
    memo of the cuts :func:`contract_step` makes: :func:`_run` hands the
    chain its plan's (``_MergeMemo.cuts``), and a bare ``MPSState()`` has
    an empty one of its own.
    """

    sites: list = field(default_factory=list)
    log_scale: float = 0.0
    mantissa: float = 1.0
    emitted: int = 0
    cuts: dict = field(default_factory=dict)

    def max_bond(self) -> int:
        if len(self.sites) < 2:
            return 1 if self.sites else 0
        return max(site.shape[2] for site in self.sites[:-1])

    def _normalize_site(self, k: int):
        """Shift site ``k`` by a power of two so its largest magnitude lands
        in [2^-0.5, 2^0.5], folding the shift into ``log_scale``.

        Only exponent bits change, so the elements are rescaled exactly.
        An all-zero site is left alone; a non-finite one raises.  BLAS
        ``idamax`` finds the largest magnitude, but may pass over a NaN,
        so ``ddot`` of the site with itself, NaN exactly when an element
        is (a sum of squares meets no ``inf - inf``), finds those.
        """
        arr = self.sites[k]
        flat = arr.reshape(-1)
        m = abs(flat.item(_blas.idamax(flat)))
        if math.isinf(m) or math.isnan(_blas.ddot(flat, flat)):
            raise ContractionError("boundary MPS holds a non-finite value")
        if m == 0.0:
            return
        e = round(math.log2(m))
        if e != 0:
            self.sites[k] = np.ldexp(arr, -e)
            self.log_scale += e * math.log(2.0)


class _Step(NamedTuple):
    """One planned absorption.

    Vertex ``vid`` consumes the boundary slots ``lo..hi`` (none when
    ``hi == lo - 1``: it then enters at slot ``lo``) and leaves one slot
    per forward bond there, ordered left to right.  ``perm`` is how the
    plan lays out the vertex's axes in the array the step absorbs
    (:func:`_vertex_tensor`): the ``forward`` axes left to right by
    departure angle, then the backward axes in the order of the slots they
    meet.  ``split`` is where :func:`contract_step` splits the consumed
    run: its first ``split`` sites are chained apart from the rest, so the
    run is never built whole, and 0 chains it whole.  :func:`_tally`
    picks it from shapes; a replay leaves it 0.
    """

    vid: int
    lo: int
    hi: int
    perm: tuple
    forward: int
    split: int = 0


class _Merge(NamedTuple):
    """How a plan builds the tensor of one vertex of its form, at the
    vertex's step (:func:`_vertex_tensor`).  A plan builds each variant of
    it once, on a miss of its memo, so a warm sweep never runs it.

    The host's elements, those of the vertex itself, are contracted with
    each absorbed vertex in turn, one ``np.tensordot`` per vertex.
    ``products`` holds a ``(vid, axes, vaxes)`` per absorbed vertex:
    ``axes`` are the product's axes that carry the bonds it shares with
    ``vid``, in the order the product holds them, and ``vaxes`` are the
    axes of ``vid`` that carry the same bonds, in the same order.  Each
    product keeps the product's free axes, then those of ``vid``.  The
    last product is transposed by ``perm`` and reshaped to ``out``, one
    axis per bond of the form, in its axis order; the step then lays the
    axes out as every step does (:func:`_vertex_tensor`).  An unfolded
    vertex absorbs nothing: its recipe is ``((), identity, extents)``.
    """

    products: tuple
    perm: tuple
    out: tuple


class _MergeMemo:
    """The step arrays one plan has built (:func:`_vertex_tensor`).

    A key is the step's vertex id and the :class:`DenseTensor` objects of
    that vertex and of the vertices its :class:`_Merge` absorbs (none when
    unfolded), in the order the recipe reads them.  A tensor hashes by
    identity and its elements never change after construction, so an entry
    is what :func:`_vertex_tensor` would compute from those operands
    again, bit for bit.  Entries are read-only and C-contiguous.  ``nbytes``
    counts the arrays and, per entry, the key's tensors, which the key
    keeps alive.  An entry larger than ``MERGE_MEMO_BYTES`` alone is not
    kept, and an insert that would take ``nbytes`` past it first clears
    the memo.  A key already held, put again by a thread that missed it
    too, keeps its entry and is counted once.

    ``cuts`` maps ``(left, dims, right)`` to the cut :func:`_cut` makes of
    an absorption of those sizes, kept by :func:`contract_step` when its
    identities are all at most ``IDENTITY_MEMO_MAX`` wide: a few ints and
    views of the shared identities, not counted in ``nbytes`` nor cleared
    with the arrays.  An exact sweep's plan fixes every key, at most one
    per step; at a finite ``chi`` the ranks the compressions find pick
    them (21 keys on square d=5 at chi=8 after 64 shots, 17 for the 25
    steps of subsystem d=5 exact).
    """

    def __init__(self):
        self.arrays: dict = {}
        self.nbytes = 0
        self.cuts: dict = {}
        self._lock = threading.Lock()

    def put(self, key, array: np.ndarray):
        size = array.nbytes + sum(t.elements.nbytes for t in key[1:])
        if size > MERGE_MEMO_BYTES:
            return
        with self._lock:
            if key in self.arrays:
                return
            if self.nbytes + size > MERGE_MEMO_BYTES:
                self.clear()
            self.arrays[key] = array
            self.nbytes += size

    def clear(self):
        self.arrays.clear()
        self.nbytes = 0


class _Layout(NamedTuple):
    """A network form on shapes alone: what a replay, the model and a plan
    read.

    ``merges`` maps every vertex of the form to the :class:`_Merge` that
    builds its tensor, with its axes in the form's own axis order; an
    unfolded vertex's recipe absorbs nothing.
    """

    positions: dict
    bonds: list
    incident: dict
    merges: dict


class _Plan(NamedTuple):
    """A sweep: a network form and frame, its steps, what the cost model
    makes of them, and the arrays its steps have absorbed.

    ``fold`` and ``pairs`` name the form, and ``turns`` the frame, as
    :func:`_candidates` defines them; ``layout`` is the form, replayed in
    that frame to ``steps``, whose warm sweep :func:`_model` prices at
    ``seconds`` and ``peak``.  Every candidate is a plan, and
    :func:`_choose` picks the one that runs.  ``memo`` keeps every step's
    array (:func:`_vertex_tensor`).
    """

    fold: int
    pairs: int | None
    turns: int
    layout: _Layout
    steps: tuple
    seconds: float
    peak: int
    memo: _MergeMemo


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
        cross = _orient(s.position, u.position, p)
        if cross < 0.0:
            idx += 1
        elif cross == 0.0:
            raise ContractionError(
                f"vertex {v.id} lies exactly on pending bond {bid}; planarize first"
            )
    return idx


def _plan_step(pending: list, open_: set, v, vertices, incident, bonds) -> _Step:
    """Plan the absorption of ``v`` and apply it to the bond ids ``pending``
    and to ``open_``, the same ids as a set.

    Bonds already pending are backward (their other endpoint was swept);
    the rest are forward and leave in order of departure angle.  Backward
    legs must occupy a contiguous run of pending slots, which planarity
    guarantees: the run is grown from the slot of one of them, so a step
    searches the boundary once.
    """
    backward = {}  # bond id -> axis
    forward = []
    for bid, axis in incident[v.id]:
        if bid in open_:
            backward[bid] = axis
        else:
            bond = bonds[bid]
            other = bond.endpoint_b[0] if bond.endpoint_a[0] == v.id else bond.endpoint_a[0]
            forward.append((bid, axis, _angle_from(v.position, vertices[other].position)))
    forward.sort(key=lambda item: item[2])

    if backward:
        lo = hi = pending.index(next(iter(backward)))
        while lo > 0 and pending[lo - 1] in backward:
            lo -= 1
        while hi + 1 < len(pending) and pending[hi + 1] in backward:
            hi += 1
        if hi - lo + 1 != len(backward):
            raise ContractionError(
                f"backward bonds of vertex {v.id} are not contiguous on the "
                "boundary; the network is not planar as embedded"
            )
    else:
        lo = _insertion_index(pending, v, vertices, bonds)
        hi = lo - 1

    perm = (*(axis for _, axis, _ in forward), *(backward[bid] for bid in pending[lo : hi + 1]))
    open_.difference_update(backward)
    pending[lo : hi + 1] = [bid for bid, _, _ in forward]
    open_.update(pending[lo : lo + len(forward)])
    return _Step(v.id, lo, hi, perm, len(forward))


def _turned(position, turns: int) -> tuple:
    """``position`` in frame ``turns`` (:func:`_candidates`)."""
    x, y = position
    for _ in range(turns):
        x, y = -y, x
    return (x, y)


def _frame(positions: dict, turns: int) -> dict:
    """Vertex id -> a vertex at its position turned by ``turns``."""
    return {vid: TNVertex(vid, None, _turned(p, turns)) for vid, p in positions.items()}


def _replay(layout: _Layout, turns: int) -> tuple:
    """The steps of a sweep over ``layout`` in ascending :func:`sweep_key`
    order of its positions in frame ``turns``.

    The replay on bond ids is the only record of which bond each boundary
    slot carries; a bond it leaves open (a self-loop, say) raises here.
    """
    vertices = _frame(layout.positions, turns)
    pending: list = []
    open_: set = set()
    steps = tuple(
        _plan_step(pending, open_, v, vertices, layout.incident, layout.bonds)
        for v in sorted(vertices.values(), key=sweep_key)
    )
    if pending:
        raise ContractionError("sweep finished with open boundary; network not closed")
    return steps


def _layout(tn: TensorNetwork2D) -> _Layout:
    """The network ``tn`` as it is, unfolded."""
    incident: dict = {vid: [] for vid in tn.vertices}
    for bid, bond in enumerate(tn.bonds):
        incident[bond.endpoint_a[0]].append((bid, bond.endpoint_a[1]))
        incident[bond.endpoint_b[0]].append((bid, bond.endpoint_b[1]))
    positions = {vid: v.position for vid, v in tn.vertices.items()}
    merges = {vid: _Merge((), tuple(range(v.tensor.rank)), v.tensor.extents)
              for vid, v in tn.vertices.items()}
    return _Layout(positions, tn.bonds, incident, merges)


def _neighbours(layout: _Layout) -> dict:
    """Vertex id -> the set of ids it shares a bond with in ``layout``."""
    near: dict = {vid: set() for vid in layout.positions}
    for bond in layout.bonds:
        a, b = bond.endpoint_a[0], bond.endpoint_b[0]
        near[a].add(b)
        near[b].add(a)
    return near


def _colour_classes(layout: _Layout) -> tuple | None:
    """The two colour classes of ``layout``'s graph, class 0 holding its
    lowest vertex id, or None when the graph is not bipartite.  A graph
    that is not connected raises :class:`ContractionError`."""
    near = _neighbours(layout)
    colour = {min(layout.positions): 0}
    stack = list(colour)
    while stack:
        vid = stack.pop()
        for other in near[vid]:
            if other not in colour:
                colour[other] = 1 - colour[vid]
                stack.append(other)
    if len(colour) < len(layout.positions):
        raise ContractionError("network is not connected")
    if any(colour[b.endpoint_a[0]] == colour[b.endpoint_b[0]] for b in layout.bonds):
        return None
    return tuple(sorted(vid for vid, c in colour.items() if c == k) for k in (0, 1))


def _merge_recipe(host: int, members, axes: dict, dims: dict, out_legs) -> _Merge:
    """The :class:`_Merge` of ``host`` absorbing ``members`` in order.

    ``axes`` maps each vertex id to the bond ids of its axes, ``dims`` each
    bond id to its dimension, and ``out_legs`` lists, per output axis, the
    bonds it fuses in bond id order.
    """
    legs = axes[host]
    products = []
    for vid in members:
        vlegs = axes[vid]
        shared = [b for b in legs if b in vlegs]
        products.append((vid, tuple(map(legs.index, shared)), tuple(map(vlegs.index, shared))))
        legs = [b for b in legs if b not in shared] + [b for b in vlegs if b not in shared]
    order = [b for fused in out_legs for b in fused]
    return _Merge(
        tuple(products),
        tuple(map(legs.index, order)),
        tuple(math.prod(map(dims.__getitem__, fused)) for fused in out_legs),
    )


def _assign(base: _Layout, hosts, absorbed, keys: dict) -> tuple:
    """Per host, in order, the ``absorbed`` vertices it merges by the fold
    rule of :func:`_candidates`, taken in ascending ``keys`` order."""
    near = _neighbours(base)
    members: dict = {h: [] for h in hosts}
    for vid in sorted(absorbed, key=keys.__getitem__):
        members[min(near[vid], key=lambda h: (len(members[h]), keys[h]))].append(vid)
    return tuple((h, tuple(members[h])) for h in hosts)


def _fold(base: _Layout, assignment) -> _Layout:
    """``base`` with each host of ``assignment`` merged with its absorbed
    vertices, as :func:`_candidates` folds it.  Its drawing may cross
    itself: it is a candidate when its replay succeeds."""
    owner = {u: h for h, members in assignment for u in (h, *members)}
    fused: dict = {}  # (host a, host b) -> bond ids
    for bid, bond in enumerate(base.bonds):
        a, b = owner[bond.endpoint_a[0]], owner[bond.endpoint_b[0]]
        if a != b:
            fused.setdefault((b, a) if (b, a) in fused else (a, b), []).append(bid)
    dims = {bid: bond.dimension for bid, bond in enumerate(base.bonds)}
    legs: dict = {h: [] for h, _ in assignment}
    incident: dict = {h: [] for h, _ in assignment}
    bonds = []
    for fbid, (pair, bids) in enumerate(fused.items()):
        ends = []
        for h in pair:
            ends.append((h, len(legs[h])))
            incident[h].append((fbid, len(legs[h])))
            legs[h].append(tuple(bids))
        bonds.append(Bond(*ends, math.prod(dims[bid] for bid in bids)))
    positions = {h: base.positions[h] for h, _ in assignment}
    axes = {}
    for vid, ends in base.incident.items():
        axes[vid] = [None] * len(ends)
        for bid, axis in ends:
            axes[vid][axis] = bid
    merges = {h: _merge_recipe(h, members, axes, dims, legs[h]) for h, members in assignment}
    return _Layout(positions, bonds, incident, merges)


def _pair(folded: _Layout, assignment, turns: int) -> tuple:
    """``assignment``, whose fold is ``folded``, with its merged vertices
    paired in the sweep order of frame ``turns`` by the rule of
    :func:`_candidates`."""
    order = [v.id for v in sorted(_frame(folded.positions, turns).values(), key=sweep_key)]
    rank = {h: k for k, h in enumerate(order)}
    near = _neighbours(folded)
    members = dict(assignment)
    groups = {}
    taken: set = set()
    for h in order:
        if h in taken:
            continue
        later = [u for u in near[h] if rank[u] > rank[h] and u not in taken]
        if later:
            partner = min(later, key=rank.__getitem__)
            taken.add(partner)
            groups[h] = (*members[h], partner, *members[partner])
        else:
            groups[h] = members[h]
    return tuple((h, groups[h]) for h, _ in assignment if h in groups)


def _absorption(run, held: int, size: int, rows: int, split: int) -> tuple:
    """``(peak, madds)`` of :func:`contract_step` absorbing a step array of
    ``size`` elements, whose forward extents multiply to ``rows``, into
    the consumed ``run`` of ``(left, leg, right, elements held)`` sites
    split at ``split``, while the chain holds ``held`` elements, the
    run's included.  Each part of the run is chained while its sites still
    count (the part so far and its product with the next site), then
    counts in their place; then come the vertex product ``T`` and, split,
    its reordered copy and the product with the first part."""
    peak = madds = 0
    chains = []  # (left, legs, right) of each part
    for part in (run[:split], run[split:]) if split else (run,):
        left, legs, _, _ = part[0]
        for dl, d, dr, _ in part[1:]:
            madds += left * legs * dl * d * dr
            peak = max(peak, held + left * legs * dl + left * legs * d * dr)
            legs *= d
        right = part[-1][2]
        held += left * legs * right - sum(site[3] for site in part)
        chains.append((left, legs, right))
    b, legs, right = chains[-1]
    la = chains[0][1] if split else 1
    t = b * rows * la * right
    madds += t * legs
    peak = max(peak, held + size + t)
    if split:
        held -= b * legs * right
        left = run[0][0]
        madds += left * la * b * rows * right
        peak = max(peak, held + size + 2 * t, held + size + t + left * rows * right)
    return peak, madds


def _tally(steps, layout: _Layout, chi: int | None) -> tuple:
    """``(madds, compressed, peak, splits)`` of a warm sweep along
    ``steps``, one whose step arrays its plan's memo already holds, from
    shapes alone, with the split of each step's consumed run
    (:attr:`_Step.split`) that the sweep takes.

    The chain is replayed as ``(left, leg, right)`` triples by the rule of
    :func:`contract_step` and compressed where :func:`_run` compresses,
    each compression capping every bond at ``chi`` and at the ranks its QR
    and SVD reach on those shapes.  ``madds`` counts the multiply-adds of
    every product: chaining the consumed run, the vertex product, the fold
    into a neighbour and each compression's QR and SVD passes at their
    leading terms.  ``compressed`` counts the sites the compressions pass.
    ``peak`` estimates the most elements alive at once: the chain's sites
    (less the shared identities of :func:`_identity`), the step's array,
    the absorption's chains, products and copies (:func:`_absorption`),
    the emitted sites, and a compression's LAPACK copies, factors and
    workspace.  It is an estimate at the ranks the shapes allow, not a
    bound: a compression that finds lower ranks moves the later
    compressions to other steps, where the sweep can hold more.  Building
    a merged vertex's tensor, which a plan does once per variant
    (:class:`_Merge`), is neither counted nor held.  Python ints, so no
    count overflows.

    The chain's shapes do not depend on the splits, so each step's splits
    are priced in one pass.  The plan's floor is its peak when every step
    takes its lowest-peak split; a step keeps split 0 unless that holds
    more than the floor, and then takes its lowest-peak split, the lowest
    on a tie.  ``peak`` is that floor.
    """
    sites: list = []  # (left, leg, right, elements held)
    madds = compressed = peak = held = 0
    # per step, the run and chain _absorption prices, and the (peak, madds)
    # of each split priced so far
    options = []

    def put(k: int, left: int, leg: int, right: int):
        nonlocal held
        held += left * leg * right - sites[k][3]
        sites[k] = (left, leg, right, left * leg * right)

    for vid, lo, hi, perm, m, _ in steps:
        extents = layout.merges[vid].out
        dims = [extents[axis] for axis in perm[:m]]
        size = math.prod(extents)
        rows = math.prod(dims)
        if hi >= lo:
            run = sites[lo : hi + 1]
        else:
            left = sites[lo - 1][2] if 0 < lo < len(sites) else 1
            run = [(left, 1, left, 0)]  # the identity on the bond entered across
        options.append((run, held, size, rows, [_absorption(run, held, size, rows, 0)]))
        left, right = run[0][0], run[-1][2]
        if hi >= lo:
            held -= sum(site[3] for site in run)
            del sites[lo : hi + 1]
        product = left * rows * right

        if m == 0:
            if lo > 0:
                dl, d, _, _ = sites[lo - 1]
                madds += dl * d * left * right
                put(lo - 1, dl, d, right)
            elif sites:
                _, d, dr, _ = sites[0]
                madds += left * right * d * dr
                put(0, left, d, dr)
            if sites:
                peak = max(peak, held + sites[max(lo - 1, 0)][3])
            continue

        prefix, suffix, t, emitted = _split(left, dims, right)
        for k, d in enumerate(dims):
            l = prefix[k] if k <= t else suffix[k]
            r = prefix[k + 1] if k < t else suffix[k + 1]
            shared = k != t and max(l, r) <= IDENTITY_MEMO_MAX
            sites.insert(lo + k, (l, d, r, 0 if shared else l * d * r))
            held += sites[lo + k][3]
        peak = max(peak, held + product)
        if chi is None or emitted <= 2 * chi:
            continue

        compressed += len(sites)
        for k in range(len(sites) - 1):
            l, d, r, _ = sites[k]
            rank = min(l * d, r)
            _, nd, nr, _ = sites[k + 1]
            madds += 2 * max(l * d, r) * rank * rank + rank * r * nd * nr
            peak = max(peak, held + l * d * r + 2 * l * d * rank)
            put(k, l, d, rank)
            put(k + 1, rank, nd, nr)
        for k in range(len(sites) - 1, 0, -1):
            l, d, r, _ = sites[k]
            n = d * r
            rank = min(l, n)
            keep = min(chi, rank)
            pl, pd, _, _ = sites[k - 1]
            madds += 7 * max(l, n) * rank * rank + pl * pd * l * keep
            # dgesdd's copy of the site, u, vt and its workspace
            peak = max(peak, held + l * n + l * rank + rank * n + 4 * rank * rank + max(l, n))
            put(k, keep, d, r)
            put(k - 1, pl, pd, keep)
    # a split lowers only its own step's peak: a step whose unsplit peak is
    # within what the sweep holds outside its absorptions keeps split 0, so
    # only the others have their other splits priced
    for run, held, size, rows, priced in options:
        if priced[0][0] > peak:
            priced += [_absorption(run, held, size, rows, j) for j in range(1, len(run))]
    peak = max(peak, *(min(priced)[0] for *_, priced in options))
    splits = []
    for *_, priced in options:
        split = 0 if priced[0][0] <= peak else min(range(len(priced)), key=lambda j: priced[j][0])
        madds += priced[split][1]
        splits.append(split)
    return madds, compressed, peak, splits


def _model(steps, layout: _Layout, chi: int | None) -> tuple:
    """``(seconds, peak, steps)``: the plan's cost model of a warm sweep
    along ``steps``, as :func:`_tally` counts it, the sweep a decoder
    repeats, and the steps with the splits :func:`_tally` picks.

    The time prices :func:`_tally`'s multiply-adds at
    ``MODEL_SECONDS_PER_MADD``, each step at ``MODEL_SECONDS_PER_STEP``
    and each compressed site at ``MODEL_SECONDS_PER_COMPRESSED_SITE``: a
    step's call overhead is several numpy calls, a compressed site's a
    few LAPACK calls.  The peak is :func:`_tally`'s, in elements.
    """
    madds, compressed, peak, splits = _tally(steps, layout, chi)
    seconds = (
        madds * MODEL_SECONDS_PER_MADD
        + len(steps) * MODEL_SECONDS_PER_STEP
        + compressed * MODEL_SECONDS_PER_COMPRESSED_SITE
    )
    return seconds, peak, tuple(s._replace(split=j) if j else s for s, j in zip(steps, splits))


def _candidates(tn: TensorNetwork2D, chi: int | None) -> list:
    """Every form and frame :func:`_choose` picks from, replayed
    (:func:`_replay`) and modelled (:func:`_model`) at ``chi``.

    The forms, named by ``fold`` and ``pairs``:

    - ``fold`` 0, ``pairs`` None: the network as it is.
    - ``fold`` 1 and 2, when the graph is bipartite: colour class 0 folded
      into class 1, and class 1 into class 0 (:func:`_colour_classes`).
      Every vertex of the absorbed class, in ascending :func:`sweep_key`
      order of the network's own positions, merges into the neighbour that
      has absorbed the fewest so far, the lowest key on a tie
      (:func:`_assign`).  A merged vertex sits at its host's position, and
      the bonds between two merged vertices fuse into one, in ascending
      bond id order (:func:`_fold`).  A coset network, one vertex per
      generator and one per qubit, folds to about half its vertices, and
      at the bond dimensions a decoder runs an absorption costs more in
      call overhead than in arithmetic.
    - ``pairs`` 0 to 3: a fold paired once more in the sweep order of that
      frame (:func:`_pair`).  Walking the merged vertices in that order,
      each one not yet taken takes its first later neighbour not yet
      taken, and the pair merges, at the earlier one's position, its
      members, the partner and the partner's members, in that order.

    Each form is replayed in four frames, ``turns`` 0 to 3: the positions
    turned by that many quarter turns, ``(x, y) -> (-y, x)`` each
    (:func:`_turned`), before the vertices are ordered by :func:`sweep_key`
    and their bonds by departure angle.  A quarter turn only negates and swaps coordinates,
    which is exact in floating point, so every crossing, angle and
    collinearity test sees the same geometry in each frame; a turn lets a
    code cut wider than it is tall be swept along its short side.

    A form is a candidate in a frame when its replay succeeds: every
    vertex's backward legs meet a contiguous run of the boundary, which is
    all an exact sweep needs, so a folded form whose drawing crosses
    itself is a candidate in the frames where it replays.  A disconnected
    network raises, as does the unturned replay of the unfolded form, run
    first; any other replay that raises is no candidate.
    """
    base = _layout(tn)
    layouts = [(0, None, base)]
    classes = _colour_classes(base) if len(base.positions) > 1 else None
    if classes is not None:
        keys = {vid: sweep_key(v) for vid, v in _frame(base.positions, 0).items()}
        for fold, (absorbed, hosts) in ((1, classes), (2, classes[::-1])):
            assignment = _assign(base, hosts, absorbed, keys)
            folded = _fold(base, assignment)
            layouts.append((fold, None, folded))
            for pairs in range(4):
                layouts.append((fold, pairs, _fold(base, _pair(folded, assignment, pairs))))
    out = []
    for turns in range(4):
        for fold, pairs, layout in layouts:
            try:
                steps = _replay(layout, turns)
            except ContractionError:
                if fold == 0 and turns == 0:
                    raise
                continue
            seconds, peak, steps = _model(steps, layout, chi)
            out.append(_Plan(fold, pairs, turns, layout, steps, seconds, peak, _MergeMemo()))
    return out


def _choose(candidates) -> _Plan:
    """The fastest modelled candidate whose modelled peak is no higher
    than that of the fastest unfolded one; ties go to the lowest fold
    (unfolded first), then to unpaired, the lowest pairing frame and the
    lowest turn.  The guard compares :func:`_tally`'s estimates, so a
    sweep along the chosen plan can still hold more than the unfolded one
    would."""
    rank = lambda c: (c.seconds, c.fold, -1 if c.pairs is None else c.pairs, c.turns)
    unfolded = min((c for c in candidates if c.fold == 0), key=rank)
    return min((c for c in candidates if c.peak <= unfolded.peak), key=rank)


def _build_plan(tn: TensorNetwork2D, chi: int | None) -> _Plan:
    """Check ``tn`` (:func:`planarize`) and plan its sweep at ``chi``."""
    planarize(tn)
    return _choose(_candidates(tn, chi))


def _geometry(tn: TensorNetwork2D) -> tuple:
    """What :func:`_build_plan` reads from ``tn``, as four flat tuples:
    the vertex ids in dict order, their positions (``tuple()`` returns a
    tuple itself and snapshots a list or array), their tensors' extents,
    and the bonds, immutable :class:`Bond` values."""
    return (tuple(tn.vertices), tuple([tuple(v.position) for v in tn.vertices.values()]),
            tuple([v.tensor.extents for v in tn.vertices.values()]), tuple(tn.bonds))


_plans: list = []  # ((chi, geometry), plan), most recently used first
_plans_lock = threading.Lock()


def _plan_for(tn: TensorNetwork2D, chi: int | None = None) -> _Plan:
    """The plan of ``tn`` at ``chi``: cached, built on a miss.

    A cached plan is found by ``==`` on ``chi`` and :func:`_geometry`,
    everything :func:`_build_plan` reads from ``tn``: the vertex ids,
    positions and tensor shapes, and the ordered bonds with both endpoints
    and their dimensions.  No key is hashed.  The four coset networks of a
    code and the networks of every syndrome share their position tuples,
    their bond objects and the tensors (with their stored extents) each
    vertex picks from, so the comparison mostly meets the same objects,
    which tuple equality passes without comparing them, and the plan and
    its check are paid once per code and ``chi``.  A network edited in
    place after its plan was cached compares unequal and is planned anew.
    Equal geometries replay the same deterministic build, so a hit's form,
    steps and recipes are exactly what a rebuild would make, and it stands
    for a network that passed the check, which reads nothing the geometry
    does not hold but the types of the bond fields.  A bond equal to a
    checked one need not pass (``0.0 == 0``, ``True == 1``), so when the
    bonds of a hit are not the cached bond objects themselves, the type
    checks of :func:`planarize` (:func:`_check_fields`) run on them; a
    decoder's networks share their bond objects and skip them.  The one
    tensor-dependent part of a plan, its
    :class:`_MergeMemo`, is keyed by tensor identity, and a tensor's
    elements never change after construction, so any network of the
    geometry may share it: a memo entry is what the rebuilt plan would
    compute from the same tensors.  The least recently used of more than
    ``PLAN_CACHE_SIZE`` plans is dropped, and its memo with it.  Errors
    are not cached, so a network that fails to plan raises on every call;
    a vertex :func:`_geometry` cannot read raises what :func:`planarize`
    raises for it.  The memo's keys are tensors that passed
    :func:`planarize`'s tensor check, so a hit's tensors that are not
    keys meet the same check in :func:`_vertex_tensor`.
    """
    try:
        key = (chi, _geometry(tn))
    except (TypeError, AttributeError):
        planarize(tn)  # names the vertex
        raise
    with _plans_lock:
        for i, (cached, plan) in enumerate(_plans):
            if cached == key:
                if i:  # the usual hit, at 0, allocates nothing
                    _plans.insert(0, _plans.pop(i))
                break
        else:
            plan = None
    if plan is not None:
        if not all(map(operator.is_, key[1][3], cached[1][3])):
            for bond in key[1][3]:
                _check_fields(bond)
        return plan
    plan = _build_plan(tn, chi)
    with _plans_lock:
        _plans.insert(0, (key, plan))
        del _plans[PLAN_CACHE_SIZE:]
    return plan


def _vertex_tensor(plan: _Plan, vertices: dict, step: _Step) -> np.ndarray:
    """The array ``step`` absorbs, for a network with the vertices
    ``vertices``: the tensor the vertex's :class:`_Merge` builds from the
    tensors of the vertex and of those it absorbs, transposed to
    ``step.perm``.  It is read-only and C-contiguous, and read from the
    plan's memo when it holds it.  On a miss each tensor must be a
    :class:`DenseTensor`, which raises what :func:`planarize` raises for
    it otherwise (:func:`_check_tensor`): a network of a cached geometry
    skips that check, and only checked tensors become keys."""
    vid = step.vid
    merge = plan.layout.merges[vid]
    host = vertices[vid].tensor
    key = (vid, host, *[vertices[p[0]].tensor for p in merge.products])
    try:
        x = plan.memo.arrays.get(key)
    except TypeError:  # an unhashable tensor, which the check below names
        x = None
    if x is not None:
        return x
    for v, tensor in zip((vid, *[p[0] for p in merge.products]), key[1:]):
        _check_tensor(v, tensor)
    x = host.elements
    for (_, axes, vaxes), absorbed in zip(merge.products, key[2:]):
        x = np.tensordot(x, absorbed.elements, (axes, vaxes))
    x = x.transpose(merge.perm).reshape(merge.out).transpose(step.perm)
    if not x.flags.c_contiguous:
        # np.ascontiguousarray would make a 0-d array 1-d
        x = x.copy()
    x.setflags(write=False)
    plan.memo.put(key, x)
    return x


_identities: dict = {}  # n -> read-only np.eye(n), for n <= IDENTITY_MEMO_MAX


def _identity(n: int) -> np.ndarray:
    """A read-only ``n x n`` identity, shared by every caller when at most
    ``IDENTITY_MEMO_MAX`` wide.

    Sites are never written in place (each update assigns a new array), and
    the read-only flag makes a write that would corrupt every sharer raise.
    """
    eye = _identities.get(n)
    if eye is None:
        eye = np.eye(n)
        eye.setflags(write=False)
        if n <= IDENTITY_MEMO_MAX:
            _identities[n] = eye
    return eye


# Upper-triangle mask of the R factors up to IDENTITY_MEMO_MAX wide; the
# triangle of a (rank, width) factor is its top-left block.
_upper_mask = np.triu(np.ones((IDENTITY_MEMO_MAX, IDENTITY_MEMO_MAX), dtype=bool))
_upper_mask.setflags(write=False)


def _upper(a: np.ndarray) -> np.ndarray:
    """``np.triu(a)``, in C order, with the mask sliced from ``_upper_mask``
    when neither side of ``a`` exceeds ``IDENTITY_MEMO_MAX``."""
    rows, cols = a.shape
    if max(rows, cols) > IDENTITY_MEMO_MAX:
        return np.triu(a)
    r = np.zeros((rows, cols))
    np.copyto(r, a, where=_upper_mask[:rows, :cols])
    return r


def _dot_right(site, mat):
    """``site`` (left, leg, right) times ``mat`` on its right bond."""
    dl, d, dr = site.shape
    return np.dot(site.reshape(dl * d, dr), mat).reshape(dl, d, mat.shape[1])


def _dot_left(mat, site):
    """``mat`` times ``site`` (left, leg, right) on its left bond."""
    dl, d, dr = site.shape
    return np.dot(mat, site.reshape(dl, d * dr)).reshape(mat.shape[0], d, dr)


def _split(left: int, dims, right: int) -> tuple:
    """``(prefix, suffix, t, emitted)``: how an absorption splits its
    product back into one site per forward extent of ``dims``, between the
    bonds ``left`` and ``right``, and the largest bond between those sites
    (0 when there is at most one).

    ``prefix[k]`` is ``left`` times the product of ``dims[:k]`` and
    ``suffix[k]`` the product of ``dims[k:]`` times ``right``.  The data
    sits in the crossover site ``t`` as a pure reshape, of shape
    ``(prefix[t], dims[t], suffix[t + 1])``; site ``k < t`` is a reshaped
    identity ``(prefix[k], dims[k], prefix[k + 1])`` fed from the left, and
    site ``k > t`` one of shape ``(suffix[k], dims[k], suffix[k + 1])`` fed
    from the right.
    """
    prefix = [left]
    for d in dims:
        prefix.append(prefix[-1] * d)
    suffix = [right]
    for d in reversed(dims):
        suffix.append(suffix[-1] * d)
    suffix.reverse()

    # Bond k (between sites k and k+1) carries prefix[k+1] left of the
    # crossover site t and suffix[k+1] right of it; picking t where the
    # nondecreasing prefix overtakes the nonincreasing suffix makes every
    # bond min(prefix, suffix).  Any t is exact; this one is minimal.
    t = 0
    for k in range(1, len(dims)):
        if prefix[k] <= suffix[k]:
            t = k
        else:
            break
    emitted = max(prefix[t] if t > 0 else 0, suffix[t + 1] if t < len(dims) - 1 else 0)
    return prefix, suffix, t, emitted


def _cut(left: int, dims: tuple, right: int) -> tuple:
    """``(shape, t, emitted, before, after)``: the cut of :func:`_split`
    as :func:`contract_step` applies it.  The data site ``t`` has shape
    ``shape``; ``before`` and ``after`` are the read-only identity sites
    left and right of it, views of :func:`_identity` already reshaped.
    Every identity is at most ``emitted`` wide."""
    prefix, suffix, t, emitted = _split(left, dims, right)
    before = tuple(_identity(prefix[k + 1]).reshape(prefix[k], dims[k], prefix[k + 1])
                   for k in range(t))
    after = tuple(_identity(suffix[k]).reshape(suffix[k], dims[k], suffix[k + 1])
                  for k in range(t + 1, len(dims)))
    return (prefix[t], dims[t], suffix[t + 1]), t, emitted, before, after


def contract_step(mps: MPSState, step: _Step, elements: np.ndarray) -> MPSState:
    """Absorb the vertex of ``step``, whose array laid out in the step's
    order (:func:`_vertex_tensor`) is ``elements``, into the boundary MPS,
    in place.

    Unsplit (``step.split`` 0), it is one batched matrix product that
    transposes no data.  The consumed run merges, untransposed, into
    ``run`` of shape ``(left, L, right)`` as the chain stores it (a vertex
    with no backward bonds takes the identity on the bond it enters
    across, as ``(p, 1, p)``), and ``np.matmul(W, run)``, with ``W`` the
    elements as given reshaped to ``(S, L)``, gives ``(left, S, right)``,
    already in chain order; at ``left == 1`` a 2-D ``np.dot`` gives the
    same bits for less call overhead.  Split at ``j``, the run is never
    built whole: its first ``j`` sites chain into ``A`` of shape ``(left,
    La, b)`` and the rest into ``BC`` of shape ``(b, Lbc, right)``;
    ``np.matmul(W.reshape(S * La, Lbc), BC)`` gives ``T`` of shape ``(b,
    S * La, right)``, whose copy as ``(La * b, S * right)`` times ``A`` as
    ``(left, La * b)`` is the same ``(left, S, right)`` product, summed in
    another order.  :func:`_tally` picks the split where it lowers the
    plan's modelled peak.  The product is cut by :func:`_cut` into the
    data site, a reshape of the product, and read-only views of shared
    identities (:func:`_identity`) either side.  A cut whose identities
    are all at most ``IDENTITY_MEMO_MAX`` wide is made once per ``(left,
    dims, right)`` and kept in ``mps.cuts``, so it retains only shared
    identities.  Consumed sites leave the chain before their replacement
    is built.  The step sets ``mps.emitted`` (:class:`MPSState`).
    """
    _, lo, hi, _, m, split = step
    sites = mps.sites
    if hi >= lo:
        left, right = sites[lo].shape[0], sites[hi].shape[2]
        run = sites.pop(lo)
        for k in range(1, hi - lo + 1):
            site = sites.pop(lo)
            if k == split:
                # the first part is whole; the rest chains from this site
                first, run, b = run, site, site.shape[0]
            else:
                run = np.dot(run.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1))
            del site
    else:
        # A fresh component enters between pending slots lo-1 and lo; the
        # bond already running there (extent 1 at either end of the chain)
        # passes through the inserted sites untouched.
        left = right = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
        run = _identity(left)
    dims = elements.shape[:m]
    w = elements.reshape(math.prod(dims), -1)
    if split:
        rows, la = w.shape[0], first.size // (left * b)
        run = np.matmul(w.reshape(rows * la, -1), run.reshape(b, -1, right))
        run = run.reshape(b, rows, la, right).transpose(2, 0, 1, 3).reshape(la * b, rows * right)
        merged = np.dot(first.reshape(left, la * b), run)
        del first
    elif left == 1:
        merged = np.dot(w, run.reshape(-1, right))
    else:
        merged = np.matmul(w, run.reshape(left, -1, right))
    del run

    if m == 0:
        # Fully absorbed: a (left, right) matrix folds into a neighbor, or
        # (when the boundary is empty) into the scalar accumulator.
        mat = merged.reshape(left, right)
        del merged
        mps.emitted = 0
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

    key = (left, dims, right)
    cut = mps.cuts.get(key)
    if cut is None:
        cut = _cut(left, dims, right)
        if cut[2] <= IDENTITY_MEMO_MAX:
            mps.cuts[key] = cut
    shape, t, mps.emitted, before, after = cut
    sites[lo:lo] = (*before, merged.reshape(shape), *after)
    mps._normalize_site(lo + t)
    return mps


def _bond_cap(value) -> int:
    """``value`` as an int of at least 1; anything else raises ValueError."""
    try:
        # a bool passes operator.index as 0 or 1, but is no bond dimension
        value = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        value = 0  # a float (NaN included) or a string is no bond dimension
    if value < 1:
        raise ValueError("chi must be a positive integer")
    return value


def _check_info(routine: str, info: int):
    if info != 0:
        raise ContractionError(f"LAPACK {routine} failed (info={info})")


def compress_mps(mps: MPSState, chi: int):
    """Truncate every internal bond of ``mps`` to at most ``chi``.

    A left-to-right QR pass, which skips the pass-through identities at
    the left end of the chain (its leading read-only sites,
    :class:`MPSState`), makes the state left-canonical, then a
    right-to-left SVD pass truncates each bond, dropping the singular
    values beyond ``chi`` and those below ``REL_CUTOFF`` of the largest.  In that gauge each bond's
    truncation is optimal and successive error vectors are mutually
    orthogonal, so the boundary discard

        sqrt(sum_k dropped_k^2) / |psi|

    is the exact relative error of this compression, not an upper bound.
    Returns ``(mps, discard)``; the state is modified in place.  A ``chi``
    that is not an integer of at least 1 raises ``ValueError``.

    The QR is LAPACK ``dgeqrf`` then ``dorgqr``, the SVD ``dgesdd`` with
    thin factors, called through ``scipy.linalg.lapack``; a nonzero
    ``info`` raises :class:`ContractionError`.  This is what
    ``np.linalg.qr``/``svd`` run, without their per-call checks and
    workspace queries, which cost more than the arithmetic on the few
    dozen rows of a decoder's bonds.  QR workspaces are the minimum LAPACK
    accepts (the column count) and are freed at once, so they add nothing
    to the peak memory of a sweep; below 128 rows or columns LAPACK takes
    its unblocked path whatever the workspace, as it does under
    ``np.linalg``.  LAPACK returns Fortran-order factors; ``q`` and the
    kept parts of ``u`` and ``vt`` are copied to C order before any
    product, because BLAS rounds a product differently for each operand
    layout, and in C order every value is bit-identical to the
    ``np.linalg`` path.
    """
    chi = _bond_cap(chi)
    n = len(mps.sites)
    if n <= 1:
        return mps, 0.0

    sites = mps.sites
    # Each leading identity is np.eye(l * d) as (l, d, l * d), whose
    # Householder QR has tau = 0 and Q = R = I: skipping it changes no bit.
    head = 0
    while head < n - 1 and not sites[head].flags.writeable:
        head += 1
    if head:
        # Of the skipped identities only the last product, with site head,
        # is made: it turns negative zeros into positive ones, and the sign
        # of a zero steers the Householder reflections of the next QR.
        sites[head] = _dot_left(_identity(sites[head].shape[0]), sites[head])
    for k in range(head, n - 1):
        dl, d, dr = sites[k].shape
        qr, tau, work, info = _lapack.dgeqrf(sites[k].reshape(dl * d, dr), lwork=dr)
        del work
        _check_info("dgeqrf", info)
        rank = min(dl * d, dr)
        r = _upper(qr[:rank])
        q, work, info = _lapack.dorgqr(qr[:, :rank], tau, lwork=rank)
        del work, qr
        _check_info("dorgqr", info)
        sites[k] = np.ascontiguousarray(q).reshape(dl, d, rank)
        del q
        sites[k + 1] = _dot_left(r, sites[k + 1])
        mps._normalize_site(k + 1)

    norm0 = float(np.linalg.norm(sites[-1]))
    if norm0 == 0.0:
        return mps, 0.0

    dropped = 0.0
    for k in range(n - 1, 0, -1):
        dl, d, dr = sites[k].shape
        u, s, vt, info = _lapack.dgesdd(sites[k].reshape(dl, d * dr), full_matrices=0)
        _check_info("dgesdd", info)
        keep = int(np.count_nonzero(s >= REL_CUTOFF * s[0])) if s[0] > 0.0 else 1
        keep = max(1, min(keep, chi))
        dropped += float((s[keep:] ** 2).sum())
        # a copy, so the site does not keep the whole of ``vt`` alive
        sites[k] = np.ascontiguousarray(vt[:keep]).reshape(keep, d, dr)
        carry = np.ascontiguousarray(u[:, :keep]) * s[:keep]
        del u, vt
        sites[k - 1] = _dot_right(sites[k - 1], carry)
    for k in range(n):
        mps._normalize_site(k)
    return mps, math.sqrt(dropped) / norm0


def sweep_contract(tn: TensorNetwork2D, chi: int | None = None) -> SweepValue:
    """Contract a closed planar network to a scalar.

    ``chi`` bounds the boundary MPS bond dimension (``None`` contracts
    exactly; see :func:`_run`).  Returns ``(mantissa, log_scale)`` with the
    value equal to ``mantissa * exp(log_scale)``.  The plan comes from
    :func:`_plan_for`; a folded plan sums the same network in another
    order, so its value is equal up to rounding.

    Raises ``ValueError`` for a ``chi`` that is not an integer of at least
    1, what :func:`planarize` raises for a network it rejects, and
    :class:`ContractionError`, also a ``ValueError``, for an empty or
    disconnected network and for a non-finite value met during the sweep.
    """
    if not tn.vertices:
        raise ContractionError("cannot contract an empty network")
    if chi is not None:
        chi = _bond_cap(chi)
    return _run(_plan_for(tn, chi), tn.vertices, chi)


def _run(plan: _Plan, vertices: dict, chi: int | None) -> SweepValue:
    """The sweep of ``plan`` over the network whose vertices are
    ``vertices``, at ``chi`` (already checked).

    After each step that emits a bond above ``2 * chi`` the boundary is
    compressed to ``chi``: the paper's buffer chi' fixed at twice chi, so
    a sweep costs near ``O(n chi^3)`` without compressing after every
    step.  A step makes no bond but those between the sites it emits, and
    reports the largest of them (``MPSState.emitted``), so testing that
    alone compresses at exactly the steps a check of the whole chain after
    every step would.  The chain makes its cuts with the plan's memo.
    """
    mps = MPSState(cuts=plan.memo.cuts)
    # A non-finite product raises ContractionError at the step that made it
    # (every site that takes new data is normalized, and the closing scalar
    # is checked), so numpy's overflow and invalid-value warnings would only
    # repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in plan.steps:
            contract_step(mps, step, _vertex_tensor(plan, vertices, step))
            if chi is not None and mps.emitted > 2 * chi:
                compress_mps(mps, chi)
    return SweepValue(mps.mantissa, mps.log_scale)
