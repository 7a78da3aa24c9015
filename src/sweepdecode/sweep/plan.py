"""The sweep plan of a planar tensor network.

:func:`plan_sweep` plans the sweep of a closed network at ``chi`` and
returns it as a :class:`Plan`, a value that depends only on the network's
geometry (vertex ids, positions and tensor shapes, and the bonds) and on
``chi``: the form and frame the network is swept in, the recipe of each
vertex's tensor in that form (:class:`_Merge`), its modelled cost and, per
step (:class:`_Step`), the vertex it absorbs, the boundary slots it
consumes, how it lays out the vertex's axes and where it splits the
consumed run.  A decoder plans once per code and sweeps the networks of
every syndrome along the one plan (:func:`contract.run`); the cost model
that picks the plan prices those warm sweeps.

Each rule is stated where it is enforced:

- the checks of a request, and their order: :func:`plan_sweep`, the
  first two in :func:`_checked_chi`;
- ``chi``, a bond cap of at least 1: :func:`_bond_cap`;
- the candidate forms, frames and pairing: :func:`_candidates`;
- the cost model of a warm sweep: :func:`_model`, on the counts of
  :func:`_tally`;
- the split of each step's consumed run (``_Step.split``): priced by
  :func:`_absorption` and picked by :func:`_tally`;
- the peak guard and the ties: :func:`_choose`;
- the recipe of each step's array: :class:`_Merge`;
- the sites an absorption leaves: :func:`_split`;
- the shapes a sweep that never compresses meets, from which
  :func:`contract._tape` makes its records: :attr:`Plan.runs`, as
  :func:`_tally` replays them;
- the window of scales a site may keep unshifted, and the range it
  leaves a raw step array: :attr:`Plan.window`, of ``SCALE_BITS``;
- the identities shared between sweeps: ``IDENTITY_MEMO_MAX``;
- the ``2 * chi`` compression trigger: :func:`_compress_above`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .network import Bond, TensorNetwork2D, TNVertex, _orient, planarize

__all__ = ["ContractionError", "Plan", "plan_sweep", "sweep_key"]

TWO_PI = 2.0 * math.pi

# Widest identity the sweep shares between its pass-through sites, kept by
# contract._identity.  A sweep meets a few small sizes over and over (up to
# 16 wide: 95% of them at chi=8 on a square code, 83% in an exact
# subsystem d=5 sweep); wider ones, MBs each in an exact contraction, are
# built per step.  The shared ones stay allocated between sweeps, so they
# are bounded in bytes: at most sum(8 n^2 for n <= 16) = 12 KB.  _tally
# counts no sweep as holding them, and a record (Plan.records) holds views
# of these shared identities and no wider one: a record with a wider
# identity keeps its shape, and each sweep builds it.
IDENTITY_MEMO_MAX = 16

# Bits of float64's exponent range that the sites a step multiplies may
# move away from unit scale together, unshifted (Plan.window).
SCALE_BITS = 512

# Constants of the plan cost model (_model), fitted to the measured warm
# sweeps in BENCH_plan_model.json by ``python scripts/plan_model.py --fit``.
MODEL_SECONDS_PER_MADD = 5.17e-11
MODEL_SECONDS_PER_STEP = 1.14e-5
MODEL_SECONDS_PER_COMPRESSED_SITE = 4.68e-5


class ContractionError(ValueError):
    """Network shape the sweep cannot process."""


def sweep_key(vertex) -> tuple:
    """Sort key of ``vertex`` in a sweep: ascending ``(y, x, id)``.

    A plan applies it to the positions of its own frame (``Plan.turns``),
    so the order of a network's own positions is that of frame 0.
    """
    x, y = vertex.position
    return (y, x, vertex.id)


class _Step(NamedTuple):
    """One planned absorption.

    Vertex ``vid`` consumes the boundary slots ``lo..hi`` (none when
    ``hi == lo - 1``: it then enters at slot ``lo``) and leaves one slot
    per forward bond there, ordered left to right.  ``perm`` is how the
    plan lays out the vertex's axes in the array the step absorbs
    (``Plan.shapes``): the ``forward`` axes left to right by departure
    angle, then the backward axes in the order of the slots they meet.
    ``split`` is where :func:`contract.contract_step` splits the consumed
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
    """How the tensor of one vertex of a plan's form is built from the
    network's tensors, for the vertex's step (:func:`contract._build`, run
    once per variant, so a warm sweep never runs it).

    The host's elements, those of the vertex itself, are contracted with
    each absorbed vertex in turn, one ``np.tensordot`` per vertex.
    ``products`` holds a ``(vid, axes, vaxes)`` per absorbed vertex:
    ``axes`` are the product's axes that carry the bonds it shares with
    ``vid``, in the order the product holds them, and ``vaxes`` are the
    axes of ``vid`` that carry the same bonds, in the same order.  Each
    product keeps the product's free axes, then those of ``vid``.  The
    last product is transposed by ``perm`` and reshaped to ``out``, one
    axis per bond of the form, in its axis order; the step then lays the
    axes out as every step does (``_Step.perm``).  An unfolded
    vertex absorbs nothing: its recipe is ``((), identity, extents)``.
    """

    products: tuple
    perm: tuple
    out: tuple


class _Layout(NamedTuple):
    """A network form on shapes alone: what a replay, the model and a plan
    read.

    ``merges`` maps every vertex of the form to the :class:`_Merge` that
    builds its tensor, with its axes in the form's own axis order; an
    unfolded vertex's recipe absorbs nothing.
    """

    positions: dict
    bonds: tuple
    incident: dict
    merges: dict


@dataclass(frozen=True)
class Plan:
    """A sweep: a network form and frame, its bond cap, its steps, and
    what the cost model makes of them.

    ``fold`` and ``pairs`` name the form, and ``turns`` the frame, as
    :func:`_candidates` defines them; ``chi`` is the bond cap the sweep
    compresses to, an int of at least 1, or None for an exact sweep;
    ``layout`` is the form, replayed in that frame to ``steps``, whose
    warm sweep at ``chi`` :func:`_model` prices at ``seconds`` and
    ``peak``.  Every candidate is a plan, and
    :func:`_choose` picks the one that runs.  A plan holds no tensor: two
    networks of one geometry, planned at one ``chi``, get equal plans.

    ``records`` is the memo of the records :func:`contract.contract_step`
    runs on (:func:`contract._record`), shared by every sweep along the
    plan.  Under None it keeps the plan's tape (:func:`contract._tape`):
    one record per step, made from :attr:`runs`, when the plan never
    compresses.  A plan that compresses keeps one record per step and
    chain shape its sweeps met (:func:`contract._live_record`), which
    :func:`contract.run` hands to the steps.  A record
    holds ints, shapes, ``np.dot`` or ``np.matmul``, and read-only views
    of the identities shared up to ``IDENTITY_MEMO_MAX`` wide, never a
    wider one.  An entry depends on its key alone, so equality and
    ``repr`` ignore the memo.
    """

    fold: int
    pairs: int | None
    turns: int
    chi: int | None
    layout: _Layout
    steps: tuple
    seconds: float
    peak: int
    records: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def shapes(self) -> dict:
        """The shape of the array each step absorbs, by the step's vertex
        id: the vertex's ``_Merge.out`` laid out by ``_Step.perm``."""
        return {s.vid: tuple(self.layout.merges[s.vid].out[a] for a in s.perm) for s in self.steps}

    @cached_property
    def runs(self) -> tuple | None:
        """Per step, the ``(left, leg, right)`` shapes of the sites it
        consumes (``((left, 1, left),)``, the identity on the bond it enters
        across, for a fresh component) and the count of sites the chain
        keeps beside them, as :func:`_tally` replays them; None when
        :func:`_tally` counts a compressed site, since the ranks a
        compression finds fix the later shapes.  A plan that never
        compresses meets exactly these shapes on every sweep."""
        _, compressed, _, _, runs = _tally(self.steps, self.layout, self.chi)
        return None if compressed else runs

    @cached_property
    def window(self) -> int:
        """``T``: the scale rule of :class:`contract.MPSState` leaves a site
        whose norm is strictly within ``2^±T`` as it is, and shifts any
        other to unit scale.

        A step multiplies at most ``F`` factors: the sites it consumes (for
        a fresh component, the identity it enters with), its array, and,
        when it leaves no open leg, the neighbour it folds into.  Each site
        is one the rule left within the window or shifted to unit scale
        (a compression factor meets the rule as a step's site does) or a
        shared identity, so the factors other than the array multiply to a
        norm within ``2^±(F - 1) T`` of what they would at unit scale, and
        ``T = SCALE_BITS // F`` keeps that within ``2^±(512 - T)``, half of
        float64's exponent range; the last ``T`` bits cover the square
        roots of the sites' sizes, which the norm of a product adds.  The
        other half is the step array's.  The arrays :func:`contract.run`
        reads from a network are at unit scale, their powers of two kept
        apart (:func:`contract._build`), so the half binds only a raw array
        handed to :func:`contract.run` with exponent 0: one of at most 2^24
        elements, each of magnitude below ``2^500``, has a norm below
        ``2^512``, so no product of a step overflows.  At unit scale, which
        a window of 0 keeps, the elements could reach about ``2^1000``.  The
        low end of the range is given up alike."""
        factors = max(max(s.hi - s.lo + 1, 1) + 1 + (s.forward == 0) for s in self.steps)
        return SCALE_BITS // factors


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
    """The network ``tn`` as it is, unfolded: a copy, which no later edit
    of ``tn`` reaches."""
    incident: dict = {vid: [] for vid in tn.vertices}
    for bid, bond in enumerate(tn.bonds):
        incident[bond.endpoint_a[0]].append((bid, bond.endpoint_a[1]))
        incident[bond.endpoint_b[0]].append((bid, bond.endpoint_b[1]))
    positions = {vid: tuple(v.position) for vid, v in tn.vertices.items()}
    merges = {vid: _Merge((), tuple(range(v.tensor.rank)), v.tensor.extents)
              for vid, v in tn.vertices.items()}
    return _Layout(positions, tuple(tn.bonds), incident, merges)


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
    return _Layout(positions, tuple(bonds), incident, merges)


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
    """``(peak, madds)`` of :func:`contract.contract_step` absorbing a step
    array of ``size`` elements, whose forward extents multiply to ``rows``, into
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
    """``(madds, compressed, peak, splits, runs)`` of a warm sweep along
    ``steps``, one whose step arrays are already built, from shapes alone,
    with the split of each step's consumed run (:attr:`_Step.split`) that
    the sweep takes, and the shapes each step consumes (``Plan.runs``).

    The chain is replayed as ``(left, leg, right)`` triples by the rule of
    :func:`contract.contract_step` and compressed where
    :func:`_compress_above` has :func:`contract.run` compress,
    each compression capping every bond at ``chi`` and at the ranks its QR
    and SVD reach on those shapes.  ``madds`` counts the multiply-adds of
    every product: chaining the consumed run, the vertex product, the fold
    into a neighbour and each compression's QR and SVD passes at their
    leading terms.  ``compressed`` counts the sites the compressions pass.
    ``peak`` estimates the most elements alive at once: the chain's sites
    (less the identities shared up to ``IDENTITY_MEMO_MAX`` wide), the
    step's array,
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
    limit = _compress_above(chi)
    # per step, the run and chain _absorption prices, and the (peak, madds)
    # of each split priced so far
    options = []

    def put(k: int, left: int, leg: int, right: int):
        nonlocal held
        held += left * leg * right - sites[k][3]
        sites[k] = (left, leg, right, left * leg * right)

    runs = []  # per step, the shapes of the sites it consumes and the rest's count
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
        runs.append((tuple(site[:3] for site in run), len(sites)))
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
        if emitted <= limit:
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
    return madds, compressed, peak, splits, tuple(runs)


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
    madds, compressed, peak, splits, _ = _tally(steps, layout, chi)
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
            out.append(Plan(fold, pairs, turns, chi, layout, steps, seconds, peak))
    return out


def _choose(candidates) -> Plan:
    """The fastest modelled candidate whose modelled peak is no higher
    than that of the fastest unfolded one; ties go to the lowest fold
    (unfolded first), then to unpaired, the lowest pairing frame and the
    lowest turn.  The guard compares :func:`_tally`'s estimates, so a
    sweep along the chosen plan can still hold more than the unfolded one
    would."""
    rank = lambda c: (c.seconds, c.fold, -1 if c.pairs is None else c.pairs, c.turns)
    unfolded = min((c for c in candidates if c.fold == 0), key=rank)
    return min((c for c in candidates if c.peak <= unfolded.peak), key=rank)


def plan_sweep(tn: TensorNetwork2D, chi: int | None) -> Plan:
    """The plan of the sweep of ``tn`` at ``chi`` (None sweeps exactly).

    Raises, in this order: :class:`ContractionError` for an empty network,
    ``ValueError`` for a ``chi`` that is not an integer of at least 1,
    what :func:`planarize` raises for a network it rejects, and
    :class:`ContractionError`, also a ``ValueError``, for a disconnected
    network and for one whose sweep would leave a bond open.
    """
    chi = _checked_chi(tn, chi)
    planarize(tn)
    return _choose(_candidates(tn, chi))


def _checked_chi(tn: TensorNetwork2D, chi) -> int | None:
    """The first two checks of :func:`plan_sweep`, in its order: ``tn``
    is not empty, and ``chi`` is None or a bond cap, returned as an int
    (:func:`_bond_cap`).  :func:`contract.sweep_contract` runs them before
    it looks for a cached plan."""
    if not tn.vertices:
        raise ContractionError("cannot contract an empty network")
    return None if chi is None else _bond_cap(chi)


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


def _compress_above(chi) -> float:
    """The widest bond a sweep at ``chi`` emits and keeps uncompressed:
    ``2 * chi``, the paper's buffer chi' fixed at twice chi, so a sweep
    costs near ``O(n chi^3)`` without compressing after every step, and no
    bound when ``chi`` is None."""
    return math.inf if chi is None else 2 * chi


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
