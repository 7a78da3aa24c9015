"""Geometrically embedded tensor networks and crossing removal.

A network is a set of tensors at 2D positions joined by bonds drawn as
straight segments.  Contraction only needs the combinatorial structure,
but the sweep algorithm needs an embedding in which bonds do not cross;
:func:`planarize` restores that property by splicing a swap tensor into
every crossing point.

Crossings are found on a uniform grid of buckets: each bond is registered
in every cell its bounding box covers, and only bonds sharing a cell are
tested against each other.  Two segments whose closed bounding boxes are
disjoint never cross, so the grid finds the same first crossing as a scan
over all pairs, in time near-linear in the number of bonds on networks
whose bonds have similar lengths.  A bond much longer than the rest would
cover a quadratic number of cells, so such a bond stays off the grid and
is tested against every other bond instead.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..tensor import DenseTensor

__all__ = [
    "TNVertex",
    "Bond",
    "TensorNetwork2D",
    "PlanarizeError",
    "planarize",
]


# A bond whose bounding box covers more grid cells than this is kept off
# the grid.  Such a bond spans at least five cells along its larger side,
# which is more than three times the mean that sets the cell side, so fewer
# than a third of the bonds can be long (none on networks of similar bond
# lengths), and no bond on the grid costs more than this many cells.
MAX_BOND_CELLS = 16


class PlanarizeError(ValueError):
    """Geometry that crossing removal cannot repair."""


@dataclass
class TNVertex:
    id: int
    tensor: DenseTensor
    position: tuple


@dataclass
class Bond:
    endpoint_a: tuple  # (vertex id, axis index)
    endpoint_b: tuple
    dimension: int


def _check_bond(b: Bond, shapes: dict):
    """Raise ValueError unless ``b`` joins axes of its dimension on two
    distinct vertices of ``shapes`` (vertex id -> tensor shape)."""
    for vid, axis in (b.endpoint_a, b.endpoint_b):
        shape = shapes.get(vid)
        if shape is None:
            raise ValueError(f"bond references missing vertex {vid}")
        if not (0 <= axis < len(shape)):
            raise ValueError(f"bond references axis {axis} of rank-{len(shape)} vertex {vid}")
        if shape[axis] != b.dimension:
            raise ValueError(
                f"bond dimension {b.dimension} != extent {shape[axis]} "
                f"at vertex {vid} axis {axis}"
            )
    if b.endpoint_a[0] == b.endpoint_b[0]:
        raise ValueError("self-loop bonds are not supported")


class TensorNetwork2D:
    """Vertices keyed by id plus a list of bonds between (vertex, axis) slots."""

    def __init__(self, vertices=(), bonds=()):
        self.vertices: dict = {}
        self.bonds: list = []
        for v in vertices:
            self.add_vertex(v)
        # each vertex's shape is read once, not once per bond end
        shapes = {vid: v.tensor.extents for vid, v in self.vertices.items()}
        for b in bonds:
            _check_bond(b, shapes)
            self.bonds.append(b)

    def add_vertex(self, v: TNVertex):
        if v.id in self.vertices:
            raise ValueError(f"duplicate vertex id {v.id}")
        self.vertices[v.id] = v

    def add_bond(self, b: Bond):
        ends = (b.endpoint_a[0], b.endpoint_b[0])
        _check_bond(b, {v: self.vertices[v].tensor.extents for v in ends if v in self.vertices})
        self.bonds.append(b)

    def next_vertex_id(self) -> int:
        return max(self.vertices) + 1 if self.vertices else 0

    def validate_closed(self):
        """Every tensor axis must be covered by exactly one bond endpoint."""
        seen = set()
        for b in self.bonds:
            for ep in (b.endpoint_a, b.endpoint_b):
                if ep in seen:
                    raise ValueError(f"(vertex, axis) slot {ep} used by two bonds")
                seen.add(ep)
        for v in self.vertices.values():
            for axis in range(v.tensor.rank):
                if (v.id, axis) not in seen:
                    raise ValueError(f"dangling axis {axis} on vertex {v.id}")

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: dict = {vid: [] for vid in self.vertices}
        for b in self.bonds:
            adj[b.endpoint_a[0]].append(b.endpoint_b[0])
            adj[b.endpoint_b[0]].append(b.endpoint_a[0])
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b) -> bool:
    """p strictly inside segment ab, assuming collinear."""
    if min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
        return p != a and p != b
    return False


def _bbox(p, q) -> tuple:
    return (min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1]))


def _boxes_disjoint(a, b) -> bool:
    """Closed boxes ``(x0, y0, x1, y1)`` share no point."""
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


def _proper_crossing(p1, p2, q1, q2):
    """Return the interior crossing point of segments p1p2 and q1q2, or None.

    Degenerate contact (an endpoint lying exactly on the other segment, or
    collinear overlap) raises, since it implies a vertex sitting on the
    interior of a bond it does not terminate.  Segments with disjoint
    closed bounding boxes are rejected first by exact comparisons: for
    nearly collinear segments, rounding can flip the orientation signs and
    report a crossing point that lies outside one of them.
    """
    if _boxes_disjoint(_bbox(p1, p2), _bbox(q1, q2)):
        return None
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if d1 == 0.0 and _on_segment(p1, q1, q2):
        raise PlanarizeError(f"vertex at {p1} lies on the interior of another bond")
    if d2 == 0.0 and _on_segment(p2, q1, q2):
        raise PlanarizeError(f"vertex at {p2} lies on the interior of another bond")
    if d3 == 0.0 and _on_segment(q1, p1, p2):
        raise PlanarizeError(f"vertex at {q1} lies on the interior of another bond")
    if d4 == 0.0 and _on_segment(q2, p1, p2):
        raise PlanarizeError(f"vertex at {q2} lies on the interior of another bond")
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and 0.0 not in (d1, d2, d3, d4):
        # Solve p1 + t (p2 - p1) on the line through q1, q2.
        t = d1 / (d1 - d2)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
    return None


def _cells(box, side):
    """Grid cells a closed box ``(x0, y0, x1, y1)`` covers, or None when
    there are more than ``MAX_BOND_CELLS`` of them."""
    x0, y0, x1, y1 = box
    xs = range(math.floor(x0 / side), math.floor(x1 / side) + 1)
    ys = range(math.floor(y0 / side), math.floor(y1 / side) + 1)
    if len(xs) * len(ys) > MAX_BOND_CELLS:
        return None
    return [(cx, cy) for cx in xs for cy in ys]


def _find_crossing(bonds, pos):
    """First crossing ``(i, j, point)`` in ascending ``(i, j)`` order, or None.

    Bonds are bucketed on a uniform grid whose cell side is the mean of
    each bond's larger bounding-box side; a bond sits in every cell its
    bounding box covers.  A bond covering more than ``MAX_BOND_CELLS``
    cells is long: it stays off the grid and every bond is a candidate
    partner of it.  Bond ``i`` is tested against the bonds ``j > i`` that
    share one of its cells or are long (all ``j > i`` when ``i`` is long),
    in ascending ``j``, skipping pairs with disjoint bounding boxes or a
    shared vertex.  Any two closed boxes that meet share a cell (cell
    indices are monotone in the coordinates), and :func:`_proper_crossing`
    rejects disjoint boxes anyway, so the result -- including which
    degenerate contact raises -- is the one a scan over all pairs in
    ``(i, j)`` order gives.
    """
    ends = [(b.endpoint_a[0], b.endpoint_b[0]) for b in bonds]
    segs = [(pos[a], pos[b]) for a, b in ends]
    boxes = [_bbox(p, q) for p, q in segs]
    if not boxes:
        return None
    side = sum(max(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes) / len(boxes) or 1.0

    spans = []
    grid: dict = {}
    long_bonds = []
    for i, box in enumerate(boxes):
        cells = _cells(box, side)
        spans.append(cells)
        if cells is None:
            long_bonds.append(i)
            continue
        for cell in cells:
            grid.setdefault(cell, []).append(i)

    n = len(bonds)
    for i, cells in enumerate(spans):
        if cells is None:
            near = range(i + 1, n)
        else:
            near = {j for cell in cells for j in grid[cell] if j > i}
            near.update(long_bonds[bisect.bisect_right(long_bonds, i):])
            near = sorted(near)
        for j in near:
            if _boxes_disjoint(boxes[i], boxes[j]) or not set(ends[i]).isdisjoint(ends[j]):
                continue
            pt = _proper_crossing(*segs[i], *segs[j])
            if pt is not None:
                return i, j, pt
    return None


def _swap_tensor(dim_a: int, dim_b: int) -> DenseTensor:
    eye_a = np.eye(dim_a)
    eye_b = np.eye(dim_b)
    # axes: (a_in, b_in, a_out, b_out); passes both indices straight through
    return DenseTensor(np.einsum("ik,jl->ijkl", eye_a, eye_b))


def planarize(tn: TensorNetwork2D) -> TensorNetwork2D:
    """Replace every bond crossing with a degree-4 swap tensor.

    Crossings are removed one at a time, always the first in ``(i, j)``
    order over the bond list, so the output is deterministic.  Each search
    buckets the bonds on a uniform grid (see :func:`_find_crossing`) and
    tests only pairs whose closed bounding boxes meet, so it costs
    near-linear time in the number of bonds; the grid is rebuilt after
    every inserted swap.  Degeneracies a swap cannot express (a bond
    through a vertex it does not terminate) and a vertex at a non-finite
    position raise :class:`PlanarizeError`; a swap vertex that would itself
    land on another bond or vertex is nudged by a deterministic epsilon so
    chains of crossings through one point resolve pairwise.

    The input is returned unchanged (same object) when already planar.
    """
    pos = {vid: v.position for vid, v in tn.vertices.items()}
    for vid, p in pos.items():
        if not all(math.isfinite(c) for c in p):
            raise PlanarizeError(f"vertex {vid} has a non-finite position {p}")
    hit = _find_crossing(tn.bonds, pos)
    if hit is None:
        return tn

    # the working copy shares the vertex and bond objects, which are
    # never mutated: swaps only replace entries of its own bond list
    out = TensorNetwork2D(tn.vertices.values(), tn.bonds)

    max_rounds = 10 * len(tn.bonds) ** 2 + 100
    for _ in range(max_rounds):
        i, j, pt = hit
        bond_a = out.bonds[i]
        bond_b = out.bonds[j]

        # Keep the swap off every other vertex and bond so later crossings
        # stay pairwise.  The halves of both bonds re-terminate at the swap,
        # so it need not sit exactly on either segment; candidates spiral
        # outward through eight directions at a step tied to bond_a's length.
        pa1, pa2 = pos[bond_a.endpoint_a[0]], pos[bond_a.endpoint_b[0]]
        norm = math.hypot(pa2[0] - pa1[0], pa2[1] - pa1[1])
        ux, uy = (pa2[0] - pa1[0]) / norm, (pa2[1] - pa1[1]) / norm
        dirs = [
            (ux, uy), (-uy, ux), (-ux, -uy), (uy, -ux),
            (ux - uy, uy + ux), (-ux - uy, -uy + ux),
            (-ux + uy, -uy - ux), (ux + uy, uy - ux),
        ]
        step = 1e-9 * norm

        def is_clean(cand):
            if any(cand == p for p in pos.values()):
                return False
            for other in out.bonds:
                if other is bond_a or other is bond_b:
                    continue
                o1, o2 = pos[other.endpoint_a[0]], pos[other.endpoint_b[0]]
                if _orient(o1, o2, cand) == 0.0 and _on_segment(cand, o1, o2):
                    return False
            return True

        if not is_clean(pt):
            found = None
            k = 1
            while found is None and k < 1000:
                for dx, dy in dirs:
                    cand = (pt[0] + k * step * dx, pt[1] + k * step * dy)
                    if is_clean(cand):
                        found = cand
                        break
                k += 1
            if found is None:
                raise PlanarizeError(
                    f"could not place a swap vertex near {pt}; geometry too degenerate"
                )
            pt = found

        wid = out.next_vertex_id()
        swap = TNVertex(wid, _swap_tensor(bond_a.dimension, bond_b.dimension), pt)
        out.add_vertex(swap)
        pos[wid] = pt
        del out.bonds[j]
        del out.bonds[i]
        out.add_bond(Bond(bond_a.endpoint_a, (wid, 0), bond_a.dimension))
        out.add_bond(Bond((wid, 2), bond_a.endpoint_b, bond_a.dimension))
        out.add_bond(Bond(bond_b.endpoint_a, (wid, 1), bond_b.dimension))
        out.add_bond(Bond((wid, 3), bond_b.endpoint_b, bond_b.dimension))
        hit = _find_crossing(out.bonds, pos)
        if hit is None:
            return out
    raise PlanarizeError("crossing removal did not converge")
