"""Geometrically embedded tensor networks and the one check they pass.

A network is a set of tensors at 2D positions joined by bonds drawn as
straight segments, which :class:`TensorNetwork2D` only holds.  The sweep
needs every axis to end one bond of its dimension and bonds that do not
cross; :func:`planarize` checks both, once per plan, and raises at the
first fault.

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
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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
    """A drawing whose bonds cross, or that is degenerate."""


@dataclass
class TNVertex:
    id: int
    tensor: DenseTensor
    position: tuple


class Bond(NamedTuple):
    """A bond joining two (vertex id, axis) slots: an immutable value, so
    a network's bond list holds everything the sweep's plan cache compares
    (:func:`planarize` rejects an endpoint that is not a tuple)."""

    endpoint_a: tuple  # (vertex id, axis index)
    endpoint_b: tuple
    dimension: int


class TensorNetwork2D:
    """Vertices keyed by id plus a list of bonds between (vertex, axis) slots.

    A plain container that rejects only a duplicate id, which the dict would
    drop; :func:`planarize` checks the rest as the sweep plans the network.
    """

    def __init__(self, vertices=(), bonds=()):
        self.vertices: dict = {}
        for v in vertices:
            if v.id in self.vertices:
                raise ValueError(f"duplicate vertex id {v.id}")
            self.vertices[v.id] = v
        self.bonds: list = list(bonds)


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


def _on_ray(bonds, pos):
    """``(u, k)`` for the first vertex ``u`` that lies on a bond ``k`` it
    does not end, found where ``k`` and a bond of ``u`` leave one vertex
    along one ray, or None.

    :func:`_find_crossing` skips each pair of bonds with a shared vertex,
    so it misses ``u`` when every bond of ``u`` runs to an end of ``k``;
    then ``k`` and such a bond leave that end along one ray.  The test is
    exact: two bonds of one vertex to different vertices, collinear with
    it (:func:`_orient` is 0) and on the same side of it.  ``u`` is the
    nearer of their far ends.
    """
    ends: dict = {}  # vertex id -> [(bond id, other end)]
    for i, b in enumerate(bonds):
        ends.setdefault(b.endpoint_a[0], []).append((i, b.endpoint_b[0]))
        ends.setdefault(b.endpoint_b[0], []).append((i, b.endpoint_a[0]))
    for vid, out in ends.items():
        x, y = pos[vid]
        rays = [(i, u, pos[u][0] - x, pos[u][1] - y) for i, u in out]
        for n, (i, u, ux, uy) in enumerate(rays):
            for j, w, wx, wy in rays[n + 1 :]:
                # _orient(pos[vid], pos[u], pos[w]) == 0, on the same side
                if ux * wy - uy * wx == 0.0 and ux * wx + uy * wy > 0 and u != w:
                    return (u, j) if ux * ux + uy * uy <= wx * wx + wy * wy else (w, i)
    return None


def _is_int(value) -> bool:
    """``value`` is a Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_fields(b):
    """Raise ``ValueError`` naming ``b`` unless it is a :class:`Bond`
    between ``(vertex id, axis)`` tuples whose dimension is an int of at
    least 1 and whose axes are ints; a bool is no int here.  These are the
    checks of a bond that read its fields' types, which a bond equal to a
    checked one need not pass (``0.0 == 0``, ``True == 1``)."""
    if not (isinstance(b, Bond) and all(isinstance(ep, tuple) for ep in b[:2])):
        raise ValueError(f"{b!r} is not a Bond between (vertex id, axis) tuples")
    if not (_is_int(b.dimension) and b.dimension >= 1):
        raise ValueError(f"{b!r} has dimension {b.dimension!r}, not an int of at least 1")
    for _, axis in (b.endpoint_a, b.endpoint_b):
        if not _is_int(axis):
            raise ValueError(f"{b!r} has axis {axis!r}, not an int")


def _check_tensor(vid, tensor):
    """Raise ``ValueError`` naming vertex ``vid`` unless ``tensor`` is a
    :class:`DenseTensor`."""
    if not isinstance(tensor, DenseTensor):
        raise ValueError(f"vertex {vid} tensor is a {type(tensor).__name__}, not a DenseTensor")


def planarize(tn: TensorNetwork2D) -> TensorNetwork2D:
    """Return ``tn`` itself when it is closed and drawn without crossings;
    raise otherwise.  This is the one check of a network.

    A vertex whose tensor is not a :class:`DenseTensor` raises
    ``ValueError``, and one whose position is not two finite real
    coordinates :class:`PlanarizeError`, both naming the vertex.  Then
    ``ValueError`` is raised, in this order, for a bond that is not a
    :class:`Bond` between ``(vertex id, axis)`` tuples, whose dimension is
    not an int of at least 1 or whose axis is not an int
    (:func:`_check_fields`), for one naming a missing vertex, an axis out
    of range or an axis whose extent is not its dimension, for a
    self-loop, a (vertex, axis) slot two bonds end and an axis no bond
    ends.  The sweep reads the drawing as planar, and every code family's
    coset network is drawn without crossings, so the rest is a check, not
    a repair: the first crossing or vertex on the interior of a bond it
    does not end, in ``(i, j)`` order over the bond list (see
    :func:`_find_crossing`), raises :class:`PlanarizeError`; a crossing
    names both bonds.  A vertex on a bond that every one of its bonds
    shares a vertex with, which that search cannot see (:func:`_on_ray`),
    raises it next, naming the vertex and the bond.  The name is kept for
    the layer trace, which wraps this function as the sweep calls it.
    """
    for vid, v in tn.vertices.items():
        _check_tensor(vid, v.tensor)
        try:
            x, y = v.position
        except (TypeError, ValueError):
            x = y = None
        if not (isinstance(x, numbers.Real) and isinstance(y, numbers.Real)):
            raise PlanarizeError(f"vertex {vid} position {v.position!r} is not two real coordinates")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PlanarizeError(f"vertex {vid} has a non-finite position {v.position}")
    shapes = {vid: v.tensor.extents for vid, v in tn.vertices.items()}
    seen = set()
    for b in tn.bonds:
        _check_fields(b)
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
        for ep in (b.endpoint_a, b.endpoint_b):
            if ep in seen:
                raise ValueError(f"(vertex, axis) slot {ep} used by two bonds")
            seen.add(ep)
    for vid, shape in shapes.items():
        for axis in range(len(shape)):
            if (vid, axis) not in seen:
                raise ValueError(f"dangling axis {axis} on vertex {vid}")
    pos = {vid: v.position for vid, v in tn.vertices.items()}
    hit = _find_crossing(tn.bonds, pos)
    if hit is not None:
        i, j, pt = hit
        a, b = tn.bonds[i], tn.bonds[j]
        raise PlanarizeError(
            f"bond {i} ({a.endpoint_a[0]}-{a.endpoint_b[0]}) crosses bond {j} "
            f"({b.endpoint_a[0]}-{b.endpoint_b[0]}) at {pt}"
        )
    hit = _on_ray(tn.bonds, pos)
    if hit is not None:
        u, k = hit
        b = tn.bonds[k]
        raise PlanarizeError(
            f"vertex {u} lies on bond {k} ({b.endpoint_a[0]}-{b.endpoint_b[0]}), "
            "which it does not end"
        )
    return tn
