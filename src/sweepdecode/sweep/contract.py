"""Sweep-line contraction of planar tensor networks.

:func:`sweep_contract` contracts a closed network in two parts.  The plan
(:class:`_Plan`) depends only on the network's geometry and on ``chi``:
the form and frame the network is swept in and, per step (:class:`_Step`),
the vertex it absorbs, the boundary slots it consumes and the order it
reads the vertex's axes in.  The one thing it holds beyond those is a memo
of the merged tensors a folded sweep has built, keyed by the tensor
objects they were built from.  The run (:func:`_run`) does only numerics:
it absorbs each step's element array into a boundary matrix product
state, and compresses that state when it grows too wide.

Each rule is stated where it is enforced:

- the network checks: :func:`planarize`;
- the candidate forms, frames and pairing: :func:`_candidates`;
- the cost model: :func:`_model`, on the counts of :func:`_tally`;
- the peak guard and the ties: :func:`_choose`;
- the recipe of a merged vertex: :class:`_Merge`;
- the memo of merged tensors and its ``MERGE_MEMO_BYTES`` bound:
  :class:`_MergeMemo`, filled by :func:`_vertex_tensor`;
- the plan cache and its key: :func:`_plan_for`;
- an absorption: :func:`contract_step`, split into sites by :func:`_split`;
- the identity head: :class:`MPSState`;
- the truncation and its LAPACK calls: :func:`compress_mps`;
- the ``2 * chi`` compression trigger: :func:`_run`.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack as _lapack

from .network import (
    Bond,
    PlanarizeError,
    TensorNetwork2D,
    TNVertex,
    _find_crossing,
    _orient,
    planarize,
)

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

# Singular values below this fraction of the largest are dropped on every
# compression, even when ``chi`` is not binding: they are rounding noise.
REL_CUTOFF = 1e-14

# Plans kept at once.  A decoder contracts the networks of one code over
# and over, so a handful of geometries covers it.
PLAN_CACHE_SIZE = 8

# Bytes one plan's memo of merged tensors (_MergeMemo) may hold, counting
# its arrays and the input tensors its keys keep alive.  A merged tensor
# depends only on its host's and absorbed vertices' tensors, and a coset
# network picks each qubit's from four, so a code has few variants.  Every
# variant of the benchmark's codes, measured: square d=5 at chi=8, 172
# entries of 0.06 MB (0.09 MB with their keys); subsystem d=5 exact,
# paired, 388 entries of 0.39 MB (0.53 MB).  The larger fits four times
# over, and all cached plans together hold at most PLAN_CACHE_SIZE *
# MERGE_MEMO_BYTES = 16 MB.
MERGE_MEMO_BYTES = 2 << 20

# Widest identity kept for the pass-through sites of contract_step.  A
# sweep meets a few small sizes over and over (up to 16 wide: 95% of them
# at chi=8 on a square code, 83% in an exact subsystem d=5 sweep); wider
# ones, MBs each in an exact contraction, are built per step.  The memo
# stays allocated between sweeps, so it is bounded in bytes: at most
# sum(8 n^2 for n <= 16) = 12 KB.
IDENTITY_MEMO_MAX = 16

# Constants of the plan cost model (_model), fitted to the measured sweeps
# in BENCH_plan_model.json by ``python scripts/plan_model.py --fit``.
MODEL_SECONDS_PER_MADD = 3.4e-11
MODEL_SECONDS_PER_STEP = 9.9e-6
MODEL_SECONDS_PER_MERGED_VERTEX = 5.96e-6
MODEL_SECONDS_PER_COMPRESSED_SITE = 4.28e-5


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

    ``head`` counts leading sites known to be exact reshaped identities:
    ``sites[k]`` for ``k < head`` is ``np.eye(l * d)`` reshaped to ``(l, d,
    l * d)``.  The sites a step emits left of its data site are such
    identities, and a run of them at the left end of the chain stays so
    until a step reaches it.  :func:`contract_step` keeps the count: a step
    that starts inside the head or right after it moves the head's end to
    its data site, and a step that folds into a neighbour ends the head
    before that neighbour.  :func:`compress_mps` starts its QR pass at
    ``head`` and resets it to 0: the Householder QR of an identity has
    ``tau = 0`` and ``Q = R = I``, so skipping those sites changes no bit.
    ``head`` may undercount but never overcount, so 0 is always safe.

    ``emitted`` is the largest bond the last :func:`contract_step` made
    between the sites it emitted, 0 when it made none.
    """

    sites: list = field(default_factory=list)
    log_scale: float = 0.0
    mantissa: float = 1.0
    head: int = 0
    emitted: int = 0

    def max_bond(self) -> int:
        if len(self.sites) < 2:
            return 1 if self.sites else 0
        return max(site.shape[2] for site in self.sites[:-1])

    def _normalize_site(self, k: int):
        """Shift site ``k`` by a power of two so its largest magnitude lands
        in [2^-0.5, 2^0.5], folding the shift into ``log_scale``.

        Only exponent bits change, so the elements are rescaled exactly.
        An all-zero site is left alone; a non-finite one raises.
        """
        arr = self.sites[k]
        m = np.abs(arr).max()
        if m == 0.0:
            return
        if not math.isfinite(m):
            raise ContractionError("boundary MPS holds a non-finite value")
        e = round(math.log2(m))
        if e != 0:
            self.sites[k] = np.ldexp(arr, -e)
            self.log_scale += e * math.log(2.0)


class _Step(NamedTuple):
    """One planned absorption.

    Vertex ``vid`` consumes the boundary slots ``lo..hi`` (none when
    ``hi == lo - 1``: it then enters at slot ``lo``) and leaves one slot
    per forward bond there, ordered left to right.  ``perm`` lists the
    vertex's axes in the order its absorption reads them: the ``forward``
    axes left to right by departure angle, then the backward axes in the
    order of the slots they meet.
    """

    vid: int
    lo: int
    hi: int
    perm: tuple
    forward: int


class _Merge(NamedTuple):
    """How a folded plan builds the tensor of one merged vertex, at its
    host's step (:func:`_vertex_tensor`).

    The host's elements are multiplied by each absorbed vertex in turn,
    one ``np.dot`` on transposed and reshaped views per vertex.
    ``products`` holds a ``(vid, shape, xperm, xmat, vperm, vmat)`` per
    absorbed vertex: the product so far is reshaped to ``shape``,
    transposed by ``xperm`` (free axes, then the bonds shared with ``vid``
    in the order the product holds them) and reshaped to the matrix
    ``xmat``; the elements of ``vid`` are transposed by ``vperm`` (shared
    bonds, then free axes) and reshaped to ``vmat``.  A ``None``
    permutation is the identity.  The last product is reshaped to
    ``shape``, transposed by ``perm`` and reshaped to ``out``, one axis per
    fused bond; in a plan, in the order the host's step reads them
    (:func:`_plan_of`), so the step reads the tensor as it is.  The plan's
    :class:`_MergeMemo` keeps each tensor built, so the same operands are
    multiplied once per plan, not once per sweep.
    """

    products: tuple
    shape: tuple
    perm: tuple | None
    out: tuple


class _MergeMemo:
    """The merged tensors one plan has built (:func:`_vertex_tensor`).

    A key is the host's id and the :class:`DenseTensor` objects of the host
    and of its absorbed vertices, in the order its :class:`_Merge` reads
    them.  A tensor hashes by identity and its elements never change after
    construction, so an entry is what the recipe would compute from those
    operands again, bit for bit.  Entries are read-only.  ``nbytes``
    counts the arrays and, per entry, the key's tensors, which the key
    keeps alive.  An entry larger than ``MERGE_MEMO_BYTES`` alone is not
    kept, and an insert that would take ``nbytes`` past it first clears
    the memo.
    """

    def __init__(self):
        self.arrays: dict = {}
        self.nbytes = 0
        self._lock = threading.Lock()

    def put(self, key, array: np.ndarray):
        size = array.nbytes + sum(t.elements.nbytes for t in key[1:])
        if size > MERGE_MEMO_BYTES:
            return
        with self._lock:
            if self.nbytes + size > MERGE_MEMO_BYTES:
                self.clear()
            self.arrays[key] = array
            self.nbytes += size

    def clear(self):
        self.arrays.clear()
        self.nbytes = 0


class _Plan(NamedTuple):
    """The steps of a sweep and the network form and frame they run in.

    ``turns`` is the frame, and ``fold`` and ``pairs`` the form, as
    :func:`_candidates` defines them.  A folded plan's step absorbs a
    host, whose tensor ``merges`` builds and ``memo`` keeps.
    """

    steps: tuple
    turns: int
    fold: int
    merges: dict  # host id -> _Merge; empty when unfolded
    pairs: int | None
    memo: _MergeMemo


class _Layout(NamedTuple):
    """A network form on shapes alone: what a replay and the model read.

    ``merges`` maps each host of a folded form to its :class:`_Merge`,
    with its axes in the form's own axis order, and ``legs`` to the
    network's bonds each of its axes fuses.
    """

    positions: dict
    bonds: list
    incident: dict
    shapes: dict
    merges: dict
    legs: dict


class _Candidate(NamedTuple):
    """A form and frame the plan chooses from: the ``fold`` and ``pairs``
    of :class:`_Plan`, replayed in frame ``turns`` to ``steps`` over
    ``layout``, and their modelled ``seconds`` and ``peak``."""

    fold: int
    pairs: int | None
    turns: int
    layout: _Layout
    steps: tuple
    seconds: float
    peak: int


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
    return _Layout(
        {vid: v.position for vid, v in tn.vertices.items()},
        tn.bonds,
        incident,
        {vid: v.tensor.extents for vid, v in tn.vertices.items()},
        {},
        {},
    )


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


def _perm(legs: list, order: list) -> tuple | None:
    """The transpose taking axes that carry ``legs`` to ``order``, or None
    when it is the identity."""
    if legs == order:
        return None
    slot = {b: k for k, b in enumerate(legs)}
    return tuple(map(slot.__getitem__, order))


def _merge_recipe(host: int, members, axes: dict, dims: dict, out_legs) -> _Merge:
    """The :class:`_Merge` of ``host`` absorbing ``members`` in order.

    ``axes`` maps each vertex id to the bond ids of its axes, ``dims`` each
    bond id to its dimension, and ``out_legs`` lists, per output axis, the
    bonds it fuses in bond id order.
    """
    size = lambda legs: math.prod(map(dims.__getitem__, legs))
    legs = axes[host]
    products = []
    for vid in members:
        vlegs = axes[vid]
        vset = set(vlegs)
        shared = [b for b in legs if b in vset]
        sset = set(shared)
        free = [b for b in legs if b not in sset]
        vfree = [b for b in vlegs if b not in sset]
        products.append((
            vid,
            tuple(map(dims.__getitem__, legs)),
            _perm(legs, free + shared),
            (size(free), size(shared)),
            _perm(vlegs, shared + vfree),
            (size(shared), size(vfree)),
        ))
        legs = free + vfree
    return _Merge(
        tuple(products),
        tuple(map(dims.__getitem__, legs)),
        _perm(legs, [b for fused in out_legs for b in fused]),
        tuple(map(size, out_legs)),
    )


def _assign(base: _Layout, hosts, absorbed, keys: dict) -> tuple:
    """Per host, in order, the ``absorbed`` vertices it merges by the fold
    rule of :func:`_candidates`, taken in ascending ``keys`` order."""
    near = _neighbours(base)
    members: dict = {h: [] for h in hosts}
    for vid in sorted(absorbed, key=keys.__getitem__):
        members[min(near[vid], key=lambda h: (len(members[h]), keys[h]))].append(vid)
    return tuple((h, tuple(members[h])) for h in hosts)


def _fold(base: _Layout, assignment) -> _Layout | None:
    """``base`` with each host of ``assignment`` merged with its absorbed
    vertices, as :func:`_candidates` folds it, or None when that drawing
    crosses itself (or puts a vertex on a bond), which the sweep cannot
    read."""
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
    try:
        if _find_crossing(bonds, positions) is not None:
            return None
    except PlanarizeError:
        return None

    axes = {}
    for vid, ends in base.incident.items():
        axes[vid] = [None] * len(ends)
        for bid, axis in ends:
            axes[vid][axis] = bid
    merges = {h: _merge_recipe(h, members, axes, dims, legs[h]) for h, members in assignment}
    shapes = {h: merge.out for h, merge in merges.items()}
    return _Layout(positions, bonds, incident, shapes, merges, legs)


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


def _tally(steps, layout: _Layout, chi: int | None) -> tuple:
    """``(madds, merged, compressed, peak)`` of a cold sweep along
    ``steps``, one that builds every merged tensor (its plan's memo empty),
    from shapes alone.

    The chain is replayed as ``(left, leg, right)`` triples by the rule of
    :func:`contract_step` and compressed where :func:`_run` compresses,
    each compression capping every bond at ``chi`` and at the ranks its QR
    and SVD reach on those shapes.  ``madds`` counts the multiply-adds of
    every product: building each merged tensor, merging the consumed run,
    the vertex product, the fold into a neighbour and each compression's
    QR and SVD passes at their leading terms.  ``merged`` counts the
    vertices merged into hosts, one product each, and ``compressed`` the
    sites the compressions pass.  ``peak`` estimates the most elements
    alive at once: the chain's sites (less the shared identities of
    :func:`_identity`), a merged tensor and its factors, the consumed run
    so far and its product with each next site, the merged run, the vertex
    product and its normalised copy, and a compression's LAPACK copies,
    factors and workspace.  It is an estimate at the ranks the shapes
    allow, not a bound: a compression that finds lower ranks moves the
    later compressions to other steps, where the sweep can hold more.
    Python ints, so no count overflows.
    """
    sites: list = []  # (left, leg, right, elements held)
    madds = merged = compressed = peak = held = 0

    def put(k: int, left: int, leg: int, right: int):
        nonlocal held
        held += left * leg * right - sites[k][3]
        sites[k] = (left, leg, right, left * leg * right)

    for vid, lo, hi, perm, m in steps:
        extents = layout.shapes[vid]
        dims = [extents[axis] for axis in perm[:m]]
        size = math.prod(extents)
        merge = layout.merges.get(vid)
        if merge is not None:
            for _, _, _, (f, s), _, (_, g) in merge.products:
                madds += f * s * g
                merged += 1
                peak = max(peak, held + f * s + s * g + f * g)
            peak = max(peak, held + 2 * size)
        if hi >= lo:
            left, legs, right, _ = sites[lo]
            right = sites[hi][2]
            for dl, d, dr, _ in sites[lo + 1 : hi + 1]:
                madds += left * legs * dl * d * dr
                # the run so far and its product with the next site
                peak = max(peak, held + left * legs * dl + left * legs * d * dr)
                legs *= d
            held -= sum(site[3] for site in sites[lo : hi + 1])
            del sites[lo : hi + 1]
        else:
            left = right = sites[lo - 1][2] if 0 < lo < len(sites) else 1
            legs = 1
        product = left * math.prod(dims) * right
        madds += product * legs
        peak = max(peak, held + size + left * legs * right + product)

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
    return madds, merged, compressed, peak


def _model(steps, layout: _Layout, chi: int | None) -> tuple:
    """``(seconds, peak)``: the plan's cost model of a cold sweep along
    ``steps``, as :func:`_tally` counts it.  A warm sweep, whose merged
    tensors are memoized, costs less by the merged vertices' share.

    The time prices :func:`_tally`'s multiply-adds at
    ``MODEL_SECONDS_PER_MADD``, each step at ``MODEL_SECONDS_PER_STEP``,
    each vertex merged into a host at ``MODEL_SECONDS_PER_MERGED_VERTEX``
    and each compressed site at ``MODEL_SECONDS_PER_COMPRESSED_SITE``: a
    step's call overhead is several numpy calls, a merged vertex's one
    ``np.dot``.  The peak is :func:`_tally`'s, in elements.
    """
    madds, merged, compressed, peak = _tally(steps, layout, chi)
    seconds = (
        madds * MODEL_SECONDS_PER_MADD
        + len(steps) * MODEL_SECONDS_PER_STEP
        + merged * MODEL_SECONDS_PER_MERGED_VERTEX
        + compressed * MODEL_SECONDS_PER_COMPRESSED_SITE
    )
    return seconds, peak


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

    A fold or pairing whose drawing crosses is no form.  Each form is
    replayed in four frames, ``turns`` 0 to 3: the positions turned by that
    many quarter turns, ``(x, y) -> (-y, x)`` each (:func:`_turned`),
    before the vertices are ordered by :func:`sweep_key` and their bonds by
    departure angle.  A quarter turn only negates and swaps coordinates,
    which is exact in floating point, so every crossing, angle and
    collinearity test sees the same geometry in each frame; a turn lets a
    code cut wider than it is tall be swept along its short side.

    A disconnected network raises, as does the unturned replay of the
    unfolded form, run first; any other replay that raises is no candidate.
    """
    base = _layout(tn)
    layouts = [(0, None, base)]
    classes = _colour_classes(base) if len(base.positions) > 1 else None
    if classes is not None:
        keys = {vid: sweep_key(v) for vid, v in _frame(base.positions, 0).items()}
        for fold, (absorbed, hosts) in ((1, classes), (2, classes[::-1])):
            assignment = _assign(base, hosts, absorbed, keys)
            folded = _fold(base, assignment)
            if folded is None:
                continue
            layouts.append((fold, None, folded))
            for pairs in range(4):
                paired = _fold(base, _pair(folded, assignment, pairs))
                if paired is not None:
                    layouts.append((fold, pairs, paired))
    out = []
    for turns in range(4):
        for fold, pairs, layout in layouts:
            try:
                steps = _replay(layout, turns)
            except ContractionError:
                if fold == 0 and turns == 0:
                    raise
                continue
            out.append(_Candidate(fold, pairs, turns, layout, steps, *_model(steps, layout, chi)))
    return out


def _choose(candidates) -> _Candidate:
    """The fastest modelled candidate whose modelled peak is no higher
    than that of the fastest unfolded one; ties go to the lowest fold
    (unfolded first), then to unpaired, the lowest pairing frame and the
    lowest turn.  The guard compares :func:`_tally`'s estimates, so a
    sweep along the chosen plan can still hold more than the unfolded one
    would."""
    rank = lambda c: (c.seconds, c.fold, -1 if c.pairs is None else c.pairs, c.turns)
    unfolded = min((c for c in candidates if c.fold == 0), key=rank)
    return min((c for c in candidates if c.peak <= unfolded.peak), key=rank)


def _in_step_order(merge: _Merge, legs, order) -> _Merge:
    """``merge`` building its axes in ``order``, a permutation of the axes
    it builds, each of which fuses the bonds of its entry in ``legs``."""
    perm = merge.perm or tuple(range(len(merge.shape)))
    chunks, k = [], 0
    for fused in legs:
        chunks.append(perm[k : k + len(fused)])
        k += len(fused)
    perm = tuple(i for axis in order for i in chunks[axis])
    return merge._replace(
        perm=None if perm == tuple(range(len(perm))) else perm,
        out=tuple(merge.out[axis] for axis in order),
    )


def _plan_of(candidate: _Candidate) -> _Plan:
    """The plan that runs ``candidate``, each merge building its axes in
    the order its step reads them (:func:`_in_step_order`), so that step
    reads them as they are."""
    fold, pairs, turns, layout, steps, _, _ = candidate
    merges = {}
    if fold:
        merges = {
            s.vid: _in_step_order(layout.merges[s.vid], layout.legs[s.vid], s.perm)
            for s in steps
        }
        steps = tuple(s._replace(perm=tuple(range(len(s.perm)))) for s in steps)
    return _Plan(steps, turns, fold, merges, pairs, _MergeMemo())


def _build_plan(tn: TensorNetwork2D, chi: int | None) -> _Plan:
    """Check ``tn`` (:func:`planarize`) and plan its sweep at ``chi``."""
    planarize(tn)
    return _plan_of(_choose(_candidates(tn, chi)))


def _geometry_key(tn: TensorNetwork2D) -> tuple:
    """The part of :func:`_plan_for`'s key that ``tn`` gives."""
    return (
        tuple((v.id, tuple(v.position), v.tensor.extents) for v in tn.vertices.values()),
        tuple((b.endpoint_a, b.endpoint_b, b.dimension) for b in tn.bonds),
    )


_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


def _plan_for(tn: TensorNetwork2D, chi: int | None = None) -> _Plan:
    """The plan of ``tn`` at ``chi``: cached, built on a miss.

    The key is ``chi`` and everything :func:`_build_plan` reads from
    ``tn``: the vertex ids, positions and tensor shapes, and the ordered
    bonds with both endpoints and their dimensions.  The four coset
    networks of a code and the networks of every syndrome share it, so the
    plan and its check are paid once per code and ``chi``.  Equal keys
    replay the same deterministic build, so a hit's steps and merges are
    exactly what a rebuild would make, and it stands for a network that
    passed the check, which reads nothing the key does not hold.  The one
    tensor-dependent part of a plan, its :class:`_MergeMemo`, is keyed by
    tensor identity, and a tensor's elements never change after
    construction, so any network of the key may share it: a memo entry is
    what the rebuilt plan would compute from the same tensors.  The least
    recently used of more than ``PLAN_CACHE_SIZE`` plans is dropped, and
    its memo with it.  Errors are not cached, so a network that fails to
    plan raises on every call.
    """
    key = (_geometry_key(tn), chi)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    plan = _build_plan(tn, chi)
    with _plans_lock:
        _plans[key] = plan
        if len(_plans) > PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


def _vertex_tensor(plan: _Plan, vertices: dict, vid: int) -> np.ndarray:
    """The element array the step of ``vid`` absorbs, for a network with
    the vertices ``vertices``: the vertex's own or, in a folded plan, the
    one its :class:`_Merge` builds from the tensors of its host and
    absorbed vertices, read from the plan's memo when it holds them."""
    merge = plan.merges.get(vid)
    host = vertices[vid].tensor
    if merge is None:
        return host.elements
    key = (vid, host, *[vertices[p[0]].tensor for p in merge.products])
    x = plan.memo.arrays.get(key)
    if x is not None:
        return x
    x = host.elements
    for (_, shape, xperm, xmat, vperm, vmat), absorbed in zip(merge.products, key[2:]):
        if xperm is not None:
            x = x.reshape(shape).transpose(xperm)
        v = absorbed.elements
        if vperm is not None:
            v = v.transpose(vperm)
        x = np.dot(x.reshape(xmat), v.reshape(vmat))
    if merge.perm is not None:
        x = x.reshape(merge.shape).transpose(merge.perm)
    x = x.reshape(merge.out)
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


def contract_step(mps: MPSState, step: _Step, elements: np.ndarray) -> MPSState:
    """Absorb the vertex of ``step``, whose element array is ``elements``,
    into the boundary MPS, in place.

    It is one batched matrix product that transposes no boundary data.
    The consumed run merges, untransposed, into ``run`` of shape ``(left,
    L, right)`` as the chain stores it (a vertex with no backward bonds
    takes the identity on the bond it enters across, as ``(p, 1, p)``),
    and ``np.matmul(W, run)``, with ``W`` the elements permuted by
    ``step.perm`` and reshaped to ``(S, L)``, gives ``(left, S, right)``,
    already in chain order.  :func:`_split` cuts it into the data site, a
    reshape of the product, and read-only views of shared identities
    (:func:`_identity`) either side.  Consumed sites leave the chain
    before their replacement is built.  The step keeps ``mps.head`` and
    sets ``mps.emitted`` (:class:`MPSState`).
    """
    _, lo, hi, perm, m = step
    sites = mps.sites
    if hi >= lo:
        left, right = sites[lo].shape[0], sites[hi].shape[2]
        run = sites.pop(lo)
        for _ in range(hi - lo):
            site = sites.pop(lo)
            run = np.dot(run.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1))
            del site
    else:
        # A fresh component enters between pending slots lo-1 and lo; the
        # bond already running there (extent 1 at either end of the chain)
        # passes through the inserted sites untouched.
        left = right = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
        run = _identity(left)
    vt = elements.transpose(perm)
    dims = vt.shape[:m]
    merged = np.matmul(vt.reshape(math.prod(dims), -1), run.reshape(left, -1, right))
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
        if lo <= mps.head:
            mps.head = max(lo - 1, 0)
        return mps

    prefix, suffix, t, mps.emitted = _split(left, dims, right)
    crossover = merged.reshape(prefix[t], dims[t], suffix[t + 1])
    del merged
    new_sites = []
    for k in range(m):
        if k < t:
            site = _identity(prefix[k + 1]).reshape(prefix[k], dims[k], prefix[k + 1])
        elif k > t:
            site = _identity(suffix[k]).reshape(suffix[k], dims[k], suffix[k + 1])
        else:
            site = crossover
        new_sites.append(site)

    sites[lo:lo] = new_sites
    mps._normalize_site(lo + t)
    if lo <= mps.head:
        mps.head = lo + t
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

    A left-to-right QR pass, after the identity head (:class:`MPSState`),
    makes the state left-canonical, then a right-to-left SVD pass
    truncates each bond, dropping the singular values beyond ``chi`` and
    those below ``REL_CUTOFF`` of the largest.  In that gauge each bond's
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
    head, mps.head = mps.head, 0
    n = len(mps.sites)
    if n <= 1:
        return mps, 0.0

    sites = mps.sites
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
    every step would.
    """
    mps = MPSState()
    # A non-finite product raises ContractionError at the step that made it
    # (every site that takes new data is normalized, and the closing scalar
    # is checked), so numpy's overflow and invalid-value warnings would only
    # repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in plan.steps:
            contract_step(mps, step, _vertex_tensor(plan, vertices, step.vid))
            if chi is not None and mps.emitted > 2 * chi:
                compress_mps(mps, chi)
    return SweepValue(mps.mantissa, mps.log_scale)
