"""Random triangulation and quadrangulation surface codes.

Interior points are dropped uniformly into a rectangle about twice as
wide as it is high, whose short left and right sides carry the rough
boundaries; a hem of regularly spaced boundary vertices keeps the
outline square-lattice-like.  The Z distance is a path across the width
and the X distance a dual path across the height, and a unit-density
triangulation's dual-path metric is about 2.3-2.5x its path metric, so
the aspect ratio brings both distances near d together.
Quadrangulations come from the vertex/edge/face derived graph of a
triangulation.  Draws whose X or Z distance falls below d are redrawn.
"""

import hashlib

import numpy as np
from scipy.spatial import Delaunay

from .graphs import (
    ROUGH,
    SMOOTH,
    BoundarySegment,
    PatchError,
    PlanarGraph,
    _midpoint,
    code_distances,
    surface_code_from_graph,
)
from ..pauli import CodeDefinition

# Rectangle extents in units of d, fitted so that nearly every first
# draw reaches d at d = 3..12 and the mean X and Z distances come
# within 1.1-1.2 d by d = 12 (see module tests).  The hem's rounding
# makes small d overshoot: mean ratios are ~1.6 at d = 3.
TRI_WIDTH, TRI_HEIGHT = 1.7, 0.8
QUAD_WIDTH, QUAD_HEIGHT = 0.85, 0.45
# Interior point density: 2/3 points per unit area matches the square
# lattice's edge budget after the 3:1 triangulation edge-vertex ratio.
DENSITY = 2.0 / 3.0
HEM_MARGIN = 0.45    # keep interior points off the hem
MAX_ATTEMPTS = 200


def _rng(tag: str, d: int, seed: int) -> np.random.Generator:
    digest = hashlib.blake2b(
        f"{tag}:{d}:{seed}".encode(), digest_size=16).digest()
    return np.random.Generator(
        np.random.Philox(key=int.from_bytes(digest, "little")))


def _hem_points(w: float, h: float):
    """Boundary vertices in cycle order, unit-ish spacing, corners shared.

    Starts at (0, 0) and walks up the left side; returns the point list
    plus the index runs of the four sides (left, top, right, bottom),
    each run including its corners.
    """
    # top/bottom need an interior vertex so the smooth runs are nonempty
    nl = max(2, int(round(h)) + 1)
    nt = max(3, int(round(w)) + 1)
    # Scaling the fraction, not the product, puts the corners exactly
    # on both sides; w * i / i can miss w by an ulp, and Delaunay then
    # lays a flat sliver along that side.
    pts = []
    left = []
    for i in range(nl):
        left.append(len(pts))
        pts.append((0.0, h * (i / (nl - 1))))
    top = [left[-1]]
    for i in range(1, nt):
        top.append(len(pts))
        pts.append((w * (i / (nt - 1)), h))
    right = [top[-1]]
    for i in range(nl - 2, -1, -1):
        right.append(len(pts))
        pts.append((w, h * (i / (nl - 1))))
    bottom = [right[-1]]
    for i in range(nt - 2, 0, -1):
        bottom.append(len(pts))
        pts.append((w * (i / (nt - 1)), 0.0))
    bottom.append(0)
    return pts, (left, top, right, bottom)


def _triangulate(points):
    """Edges (sorted pairs, lexicographic) and faces (vertex triples)."""
    tri = Delaunay(np.asarray(points, dtype=float))
    simplices = sorted(tuple(sorted(s)) for s in tri.simplices.tolist())
    edge_set = set()
    for a, b, c in simplices:
        edge_set.update([(a, b), (b, c), (a, c)])
    edges = sorted(edge_set)
    return edges, simplices


def _segments_from_sides(sides):
    left, top, right, bottom = sides
    return (
        BoundarySegment(ROUGH, tuple(left)),
        BoundarySegment(SMOOTH, tuple(top[1:-1])),
        BoundarySegment(ROUGH, tuple(right)),
        BoundarySegment(SMOOTH, tuple(bottom[1:-1])),
    )


def _triangulation_graph(d, rng, w, h):
    pts, sides = _hem_points(w, h)
    n_interior = int(round(DENSITY * w * h))
    lo = (HEM_MARGIN, HEM_MARGIN)
    hi = (w - HEM_MARGIN, h - HEM_MARGIN)
    interior = rng.uniform(lo, hi, size=(n_interior, 2))
    points = [tuple(p) for p in pts] + [tuple(p) for p in interior.tolist()]
    edges, triangles = _triangulate(points)
    edge_index = {e: i for i, e in enumerate(edges)}

    def face_cycle(a, b, c):
        return (edge_index[(a, b)], edge_index[tuple(sorted((b, c)))],
                edge_index[tuple(sorted((a, c)))])

    faces = tuple(face_cycle(*t) for t in triangles)
    return PlanarGraph(
        positions=tuple(points),
        edges=tuple(edges),
        faces=faces,
        segments=_segments_from_sides(sides),
    )


def _derived_graph(g: PlanarGraph) -> PlanarGraph:
    """Vertex/edge/face derived graph: quadrangulates a triangulation.

    New vertices sit at the old vertices, edge midpoints and face
    centroids; edges join midpoints to their endpoints and to the
    centroids of their faces.  Every internal face becomes the quad
    (vertex, midpoint, centroid, midpoint) at a face corner.
    """
    nv = g.num_vertices
    ne = len(g.edges)
    positions = list(g.positions) + [_midpoint(g, e) for e in range(ne)]
    for fi in range(len(g.faces)):
        positions.append(g.face_centroid(fi))

    new_edges = []
    edge_of = {}

    def add_edge(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_of:
            edge_of[key] = len(new_edges)
            new_edges.append(key)
        return edge_of[key]

    for ei, (u, v) in enumerate(g.edges):
        add_edge(u, nv + ei)
        add_edge(nv + ei, v)
    for fi, cyc in enumerate(g.faces):
        for ei in cyc:
            add_edge(nv + ei, nv + ne + fi)

    new_faces = []
    for fi, cyc in enumerate(g.faces):
        verts = g.face_vertices(fi)
        k = len(verts)
        for i, v in enumerate(verts):
            e_prev = cyc[(i - 1) % k]
            e_next = cyc[i]
            # cyc[i] joins verts[i] to verts[i+1]; both touch v
            quad = (
                add_edge(v, nv + e_prev),
                add_edge(nv + e_prev, nv + ne + fi),
                add_edge(nv + e_next, nv + ne + fi),
                add_edge(v, nv + e_next),
            )
            new_faces.append(quad)

    # Boundary cycle: original hem vertices with boundary-edge midpoints
    # spliced in between.  Midpoints sit off the rectangle's corners, so
    # the segment bridges between a rough run and its smooth neighbours
    # belong to the smooth runs; the rough arcs stay the x-extreme runs.
    boundary_mid = {}
    for ei, (u, v) in enumerate(g.edges):
        if len(g.face_table[ei]) == 1:
            boundary_mid[(u, v)] = nv + ei
            boundary_mid[(v, u)] = nv + ei

    old_perimeter = [v for seg in g.segments for v in seg.vertices]
    kp = len(old_perimeter)
    after = {}
    for i, v in enumerate(old_perimeter):
        after[v] = boundary_mid[(v, old_perimeter[(i + 1) % kp])]

    segments = []
    for idx, seg in enumerate(g.segments):
        verts = []
        for i, v in enumerate(seg.vertices):
            verts.append(v)
            if i + 1 < len(seg.vertices):
                verts.append(after[v])
        if seg.kind == SMOOTH:
            prev = g.segments[(idx - 1) % len(g.segments)]
            verts.insert(0, after[prev.vertices[-1]])
            verts.append(after[seg.vertices[-1]])
        segments.append(BoundarySegment(seg.kind, tuple(verts)))

    return PlanarGraph(
        positions=tuple(positions),
        edges=tuple(new_edges),
        faces=tuple(new_faces),
        segments=tuple(segments),
    )


def _build(d, seed, tag, maker):
    if d < 2:
        raise ValueError("distance must be at least 2")
    rng = _rng(tag, d, seed)
    last = None
    for _ in range(MAX_ATTEMPTS):
        try:
            g = maker(rng)
            dx, dz = code_distances(g)
        except (PatchError, ValueError) as exc:
            last = exc
            continue
        if dx < d or dz < d:
            last = PatchError(f"distances {(dx, dz)} below {d}")
            continue
        return surface_code_from_graph(g, family=tag)
    raise RuntimeError(f"could not build {tag} code at d={d}: {last}")


def random_triangulation_code(d: int, seed: int) -> CodeDefinition:
    """Delaunay triangulation code on a hemmed rectangle, distances >= d."""
    def maker(rng):
        return _triangulation_graph(
            d, rng, TRI_WIDTH * d, TRI_HEIGHT * d)
    return _build(d, seed, "rand_tri", maker)


def random_quadrangulation_code(d: int, seed: int) -> CodeDefinition:
    """Derived-graph quadrangulation code of a random triangulation."""
    def maker(rng):
        base = _triangulation_graph(
            d, rng, QUAD_WIDTH * d, QUAD_HEIGHT * d)
        return _derived_graph(base)
    return _build(d, seed, "rand_quad", maker)
