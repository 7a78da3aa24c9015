"""Planar patch graphs and the face/vertex surface-code construction.

A patch is stored untruncated: every edge of the cut lattice window is
present, faces are full cycles, and the outer boundary is designated as
four alternating rough/smooth segments.  Building the code truncates it:
vertices on rough segments are ghosts that carry no vertex check, and
edges joining two ghosts are dropped from the qubit set.  A ghost may
lose every edge this way (lattices whose window boundary zigzags can
strand rough vertices); such ghosts are inert.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..pauli import (
    CodeDefinition,
    PauliOperator,
    commutes,
    validate_code,
)

ROUGH = "rough"
SMOOTH = "smooth"


class PatchError(ValueError):
    """Raised when a patch graph or its boundary designation is malformed."""


@dataclass(frozen=True)
class BoundarySegment:
    kind: str
    vertices: tuple

    def __post_init__(self):
        if self.kind not in (ROUGH, SMOOTH):
            raise PatchError(f"unknown boundary kind {self.kind!r}")
        if not self.vertices:
            raise PatchError("empty boundary segment")


@dataclass(frozen=True)
class PlanarGraph:
    """Straight-line planar patch with designated boundary segments.

    ``faces`` lists internal faces only, each as a cyclically ordered
    tuple of edge indices.  ``segments`` cuts the outer boundary walk
    (see ``perimeter_cycle``) into four runs, alternating rough and
    smooth; rough runs own the corner vertices.  A pinch vertex, met
    twice by the walk, appears once in each run that passes it.
    """

    positions: tuple
    edges: tuple
    faces: tuple
    segments: tuple

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    def rough_segments(self):
        return [s for s in self.segments if s.kind == ROUGH]

    def ghosts(self) -> set:
        out = set()
        for s in self.rough_segments():
            out.update(s.vertices)
        return out

    def face_vertices(self, face_index: int) -> list:
        """Vertices of a face in cycle order."""
        cycle = self.faces[face_index]
        if len(cycle) == 1:
            raise PatchError("single-edge face")
        out = []
        for k, e in enumerate(cycle):
            u, v = self.edges[e]
            nu, nv = self.edges[cycle[(k + 1) % len(cycle)]]
            # the shared endpoint belongs to the next edge; emit the other
            if u in (nu, nv) and v in (nu, nv):
                raise PatchError("repeated edge pair in face")
            out.append(v if u in (nu, nv) else u)
        return out

    def face_centroid(self, face_index: int):
        vs = self.face_vertices(face_index)
        xs = [self.positions[v][0] for v in vs]
        ys = [self.positions[v][1] for v in vs]
        return (sum(xs) / len(vs), sum(ys) / len(vs))


def edge_face_table(g: PlanarGraph):
    """List of face indices per edge; every edge must lie in one or two."""
    table = [[] for _ in g.edges]
    for fi, cycle in enumerate(g.faces):
        seen = set()
        for e in cycle:
            if e in seen:
                raise PatchError(f"face {fi} repeats edge {e}")
            seen.add(e)
            table[e].append(fi)
    for e, fs in enumerate(table):
        if not fs:
            raise PatchError(f"edge {e} lies in no face")
        if len(fs) > 2:
            raise PatchError(f"edge {e} lies in {len(fs)} faces")
    return table


def _angular_ring(g: PlanarGraph, v: int, edges) -> list:
    """The given edges at ``v`` sorted by the direction they leave in."""
    vx, vy = g.positions[v]

    def angle(e):
        a, b = g.edges[e]
        wx, wy = g.positions[b if a == v else a]
        return math.atan2(wy - vy, wx - vx)

    return sorted(edges, key=angle)


def _outside_gaps(ring, table) -> list:
    """Ring positions r where ring[r - 1] and ring[r] share no face.

    Such an angular gap faces the outside, so it exists only at the
    boundary.  A ring of two edges has no gap this test can see.
    """
    return [r for r in range(len(ring))
            if not set(table[ring[r - 1]]) & set(table[ring[r]])]


def _boundary_walk(g: PlanarGraph, table) -> tuple:
    """Outer boundary as a closed walk: (vertices, edges).

    ``edges[i]`` joins ``vertices[i]`` to ``vertices[i + 1]``
    (cyclically).  At a vertex on two boundary edges the walk goes on
    along the other one.  A pinch vertex lies on four or more, and the
    walk pairs them across the outside gaps of its angular edge ring,
    so it passes the vertex once per gap.
    """
    boundary = [e for e, fs in enumerate(table) if len(fs) == 1]
    if not boundary:
        raise PatchError("patch has no boundary")
    at = {}
    for e in boundary:
        for w in g.edges[e]:
            at.setdefault(w, []).append(e)
    turn = {}
    for v, es in at.items():
        if len(es) == 2:
            pairs = [es]
        else:
            ring = _angular_ring(
                g, v, [e for e, uv in enumerate(g.edges) if v in uv])
            pairs = [(ring[r - 1], ring[r]) for r in _outside_gaps(ring, table)]
            if 2 * len(pairs) != len(es) or \
                    {e for pr in pairs for e in pr} != set(es):
                raise PatchError(f"boundary does not pass vertex {v} "
                                 "through its outside gaps")
        for a, b in pairs:
            turn[(v, a)] = b
            turn[(v, b)] = a

    def other(e, v):
        a, b = g.edges[e]
        return b if a == v else a

    start = min(at)
    first = min(at[start], key=lambda e: other(e, start))
    vertices, edges = [start], [first]
    v, e = other(first, start), first
    while (v, turn[(v, e)]) != (start, first):
        e = turn[(v, e)]
        vertices.append(v)
        edges.append(e)
        v = other(e, v)
    if len(edges) != len(boundary):
        raise PatchError("boundary edges form more than one closed walk")
    return vertices, edges


def perimeter_cycle(g: PlanarGraph) -> list:
    """Outer boundary walk as a vertex list, from the edges in one face.

    The walk is a simple cycle unless the patch is pinched: a vertex
    whose faces reach the outside in two separate fans is listed once
    per pass, like the crossing of a figure eight.
    """
    return _boundary_walk(g, edge_face_table(g))[0]


def _segment_walk(g: PlanarGraph, table) -> tuple:
    """The boundary walk read along the segments: (owner, edges).

    ``owner[i]`` is the index in ``g.segments`` of the run holding the
    i-th vertex of the concatenated segments, and ``edges[i]`` joins it
    to the next.  Raises unless the segments, concatenated, are the walk
    read from some position in one direction.
    """
    vertices, walk_edges = _boundary_walk(g, table)
    chain = [v for s in g.segments for v in s.vertices]
    if sorted(chain) != sorted(vertices):
        raise PatchError("segments do not partition the outer cycle")
    k = len(vertices)
    for i in range(k):
        if vertices[i] != chain[0]:
            continue
        if all(vertices[(i + j) % k] == chain[j] for j in range(k)):
            edges = [walk_edges[(i + j) % k] for j in range(k)]
        elif all(vertices[(i - j) % k] == chain[j] for j in range(k)):
            edges = [walk_edges[(i - j - 1) % k] for j in range(k)]
        else:
            continue
        owner = [si for si, s in enumerate(g.segments) for _ in s.vertices]
        return owner, edges
    raise PatchError("segments are not contiguous along the outer cycle")


def validate_patch(g: PlanarGraph):
    """Structural checks of the graph, its faces and its segments."""
    n = g.num_vertices
    seen_pairs = set()
    for e, (u, v) in enumerate(g.edges):
        if not (0 <= u < n and 0 <= v < n):
            raise PatchError(f"edge {e} endpoint out of range")
        if u == v:
            raise PatchError(f"edge {e} is a loop")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise PatchError(f"duplicate edge {pair}")
        seen_pairs.add(pair)

    table = edge_face_table(g)
    for fi in range(len(g.faces)):
        g.face_vertices(fi)  # raises on malformed cycles

    # Euler formula, counting the outer face.
    if n - len(g.edges) + len(g.faces) + 1 != 2:
        raise PatchError("Euler formula violated; faces missing or extra")

    # Segments must cut the boundary walk into contiguous runs.
    if len(g.segments) != 4:
        raise PatchError("expected four boundary segments")
    kinds = [s.kind for s in g.segments]
    if kinds not in ([ROUGH, SMOOTH, ROUGH, SMOOTH], [SMOOTH, ROUGH, SMOOTH, ROUGH]):
        raise PatchError("boundary segments must alternate rough/smooth")
    _segment_walk(g, table)


def _bfs_path(adjacency, sources, targets):
    """Deterministic BFS; returns the edge list of a shortest path."""
    target_set = set(targets)
    parent = {}
    queue = deque()
    for s in sorted(sources):
        parent[s] = (None, None)
        queue.append(s)
    while queue:
        v = queue.popleft()
        if v in target_set:
            path = []
            while parent[v][0] is not None:
                v, e = parent[v]
                path.append(e)
            return path[::-1]
        for w, e in adjacency.get(v, ()):
            if w not in parent:
                parent[w] = (v, e)
                queue.append(w)
    return None


def _kept_edges(g: PlanarGraph):
    ghosts = g.ghosts()
    kept = []
    for e, (u, v) in enumerate(g.edges):
        if u in ghosts and v in ghosts:
            continue
        kept.append(e)
    return kept, ghosts


def _face_supports(g: PlanarGraph, kept) -> list:
    """Kept edges of each face in cycle order; raises when one keeps none.

    A face whose edges all join two ghosts would give an empty Z check.
    """
    kept = set(kept)
    supports = []
    for fi, cycle in enumerate(g.faces):
        support = [e for e in cycle if e in kept]
        if not support:
            raise PatchError(f"face {fi} lost all qubit edges")
        supports.append(support)
    return supports


def _rough_path(g: PlanarGraph, kept):
    """Shortest rough-to-rough path over the kept edges, or None."""
    adj = {}
    for e in kept:
        u, v = g.edges[e]
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    for ns in adj.values():
        ns.sort()
    rough = g.rough_segments()
    return _bfs_path(adj, rough[0].vertices, set(rough[1].vertices))


def _logical_paths(g: PlanarGraph, kept, table, merge=None):
    """Shortest rough-to-rough edge path and smooth-to-smooth dual path.

    ``merge`` maps a face to the face whose dual node it shares; an edge
    between two faces of one node is free, so the dual walk skips it.
    """
    z_path = _rough_path(g, kept)
    if z_path is None:
        raise PatchError("rough boundaries are not connected by kept edges")

    # Dual nodes: faces, then one node per smooth segment.  A boundary
    # edge takes its smooth side from its place in the walk, since a
    # pinch vertex lies on both smooth sides.
    smooth_ids = [si for si, s in enumerate(g.segments) if s.kind == SMOOTH]
    owner, walk_edges = _segment_walk(g, table)
    k = len(owner)
    sides_of = {}
    for i, e in enumerate(walk_edges):
        sides_of[e] = {smooth_ids.index(si)
                       for si in (owner[i], owner[(i + 1) % k])
                       if si in smooth_ids}
    nf = len(g.faces)
    dual_adj = {}

    def link(a, b, e):
        dual_adj.setdefault(a, []).append((b, e))
        dual_adj.setdefault(b, []).append((a, e))

    node = (merge or {}).get
    for e in kept:
        fs = [node(f, f) for f in table[e]]
        if len(fs) == 2:
            if fs[0] != fs[1]:
                link(fs[0], fs[1], e)
            continue
        sides = sides_of[e]
        if len(sides) != 1:
            raise PatchError(f"boundary edge {e} has no unique smooth side")
        link(fs[0], nf + min(sides), e)
    for ns in dual_adj.values():
        ns.sort()
    x_path = _bfs_path(dual_adj, [nf], {nf + 1})
    if x_path is None:
        raise PatchError("smooth boundaries are not connected in the dual")
    assert set(x_path) <= set(kept)
    return x_path, z_path


def _midpoint(g: PlanarGraph, e: int):
    u, v = g.edges[e]
    (ux, uy), (vx, vy) = g.positions[u], g.positions[v]
    return ((ux + vx) / 2.0, (uy + vy) / 2.0)


def _css_code(g: PlanarGraph, kept, x_supports, x_coords, *,
              claimed_distance=None, fix_z=None, family="") -> CodeDefinition:
    """Validated code on the kept edges of ``g``, one qubit per edge.

    Checks are an X check per edge list in ``x_supports`` at ``x_coords``,
    then a Z check per face on its kept edges at the face centroid.  The
    logicals are the shortest boundary paths of :func:`_logical_paths`;
    ``claimed_distance`` defaults to the shorter one.  A code given
    ``fix_z(z_bits, x_rows, z_rows)`` is a subsystem code: its X checks
    are gauge generators, and the fix returns a Z string that commutes
    with all of them.
    """
    qubit_of = {e: i for i, e in enumerate(kept)}
    n = len(kept)
    zero = np.zeros(n, dtype=np.uint8)

    def bits(support):
        row = np.zeros(n, dtype=np.uint8)
        for e in support:
            row[qubit_of[e]] = 1
        return row

    x_rows = [bits(s) for s in x_supports]
    z_rows = [bits(s) for s in _face_supports(g, kept)]
    x_path, z_path = _logical_paths(g, kept, edge_face_table(g))
    lz = bits(z_path)
    if fix_z is not None:
        lz = fix_z(lz, np.array(x_rows), np.array(z_rows))
    logical_x = PauliOperator(bits(x_path), zero)
    logical_z = PauliOperator(zero, lz)
    if commutes(logical_x, logical_z):
        raise PatchError("boundary paths cross an even number of times")

    code = CodeDefinition(
        n=n,
        checks=([PauliOperator(x, zero) for x in x_rows]
                + [PauliOperator(zero, z) for z in z_rows]),
        logical_x=logical_x,
        logical_z=logical_z,
        qubit_coords=[_midpoint(g, e) for e in kept],
        check_coords=list(x_coords) + [g.face_centroid(fi)
                                       for fi in range(len(g.faces))],
        claimed_distance=(min(len(x_path), len(z_path))
                          if claimed_distance is None else claimed_distance),
        is_subsystem=fix_z is not None,
        family=family,
    )
    validate_code(code)
    return code


def surface_code_from_graph(g: PlanarGraph, *, family: str = "") -> CodeDefinition:
    """Qubit per edge, X check per non-ghost vertex, Z check per face.

    Checks incident to the rough boundary are truncated by the removal
    of ghost-to-ghost edges.  The logicals are shortest boundary-to-
    boundary paths, so their weights certify the code distances.
    """
    validate_patch(g)
    kept, ghosts = _kept_edges(g)
    incident = [[] for _ in range(g.num_vertices)]
    for e in kept:
        u, v = g.edges[e]
        incident[u].append(e)
        incident[v].append(e)

    stars = []
    coords = []
    for v in range(g.num_vertices):
        if v in ghosts:
            # a ghost stranded by the truncation is inert, not an error
            continue
        if not incident[v]:
            raise PatchError(f"vertex {v} acts on zero qubits")
        stars.append(incident[v])
        coords.append(g.positions[v])
    return _css_code(g, kept, stars, coords, family=family)


def code_distances(g: PlanarGraph) -> tuple:
    """(x_distance, z_distance) certified by shortest boundary paths."""
    x_path, z_path = _logical_paths(g, _kept_edges(g)[0], edge_face_table(g))
    return len(x_path), len(z_path)


def _designate_arcs(g, cyc, la, ra):
    """Segments from two explicit rough arc position runs.

    Returns the designated PlanarGraph, or None when the arcs collide
    or leave an empty smooth run between them.
    """
    k = len(cyc)
    if not la or not ra or set(la) & set(ra):
        return None
    gap1 = (ra[0] - la[-1]) % k - 1
    gap2 = (la[0] - ra[-1]) % k - 1
    if gap1 < 1 or gap2 < 1:
        return None

    def arc(s, e):
        n = (e - s) % k + 1
        return [(s + i) % k for i in range(n)]

    s1 = arc((la[-1] + 1) % k, (ra[0] - 1) % k)
    s2 = arc((ra[-1] + 1) % k, (la[0] - 1) % k)
    if set(s1) & set(s2) or (set(s1) | set(s2)) & (set(la) | set(ra)):
        return None
    segments = (
        BoundarySegment(ROUGH, tuple(cyc[i] for i in la)),
        BoundarySegment(SMOOTH, tuple(cyc[i] for i in s1)),
        BoundarySegment(ROUGH, tuple(cyc[i] for i in ra)),
        BoundarySegment(SMOOTH, tuple(cyc[i] for i in s2)),
    )
    return PlanarGraph(g.positions, g.edges, g.faces, segments)


def dual_patch(g: PlanarGraph) -> PlanarGraph:
    """Planar dual of a patch, with rough and smooth sides exchanged.

    Faces become vertices at their centroids.  Each smooth perimeter
    edge grows an outward ghost vertex, and consecutive ghosts along a
    side are joined so the dual's boundary faces close; those joining
    edges are exactly the ones the code construction drops again.  The
    dual's qubit edges appear in the same order as the primal's, so the
    two codes match check for check under an X/Z exchange.  The two
    ghost runs of the dual's perimeter are its rough arcs, designated by
    :func:`_designate_arcs` as a cut lattice window's are.
    """
    validate_patch(g)
    table = edge_face_table(g)
    kept, ghosts = _kept_edges(g)

    positions = [g.face_centroid(fi) for fi in range(len(g.faces))]
    nf = len(g.faces)

    # One ghost per smooth perimeter qubit edge, pushed outward.
    ghost_of_edge = {}
    for e in kept:
        if len(table[e]) != 1:
            continue
        mx, my = _midpoint(g, e)
        cx, cy = positions[table[e][0]]
        positions.append((mx + (mx - cx) * 0.5, my + (my - cy) * 0.5))
        ghost_of_edge[e] = nf + len(ghost_of_edge)

    edges = []
    edge_index = {}
    for e in kept:
        fs = table[e]
        if len(fs) == 2:
            pair = (fs[0], fs[1])
        else:
            pair = (fs[0], ghost_of_edge[e])
        edge_index[e] = len(edges)
        edges.append(pair)

    # Joining edges between ghosts of consecutive perimeter edges at a
    # shared smooth vertex; recorded per vertex for the face cycles.
    join_at = {}
    perim_at = {}
    for e in kept:
        if len(table[e]) != 1:
            continue
        for w in g.edges[e]:
            perim_at.setdefault(w, []).append(e)
    for v, es in sorted(perim_at.items()):
        if v in ghosts:
            continue
        if len(es) != 2:
            raise PatchError(f"smooth vertex {v} lies on {len(es)} boundary edges")
        a, b = es
        join_at[v] = len(edges)
        edges.append((ghost_of_edge[a], ghost_of_edge[b]))

    # A dual face per non-ghost primal vertex: its fan of incident
    # faces in angular order, closed through ghosts on the boundary.
    incident = {}
    for e in kept:
        u, v = g.edges[e]
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)

    faces = []
    for v in range(g.num_vertices):
        if v in ghosts or v not in incident:
            continue
        ring = _angular_ring(g, v, incident[v])
        if len(ring) < 2:
            raise PatchError(f"dangling boundary vertex {v}")
        # Cut the angular ring at its outside gap.
        cuts = _outside_gaps(ring, table)
        if v in perim_at:
            if len(cuts) == 1:
                r = cuts[0]
                ring = ring[r:] + ring[:r]
            elif cuts:
                raise PatchError(f"boundary fan at vertex {v} is split")
            cycle = [edge_index[e] for e in ring] + [join_at[v]]
        else:
            if cuts:
                raise PatchError(f"interior fan at vertex {v} is split")
            cycle = [edge_index[e] for e in ring]
        faces.append(tuple(cycle))

    # The ghosts along each primal smooth side form a dual rough arc;
    # the faces met between them form the smooth runs.  A primal face
    # touching both rough sides is a pinch of the dual, met once in
    # each smooth run.
    dual = PlanarGraph(tuple(positions), tuple(edges), tuple(faces), ())
    cyc = perimeter_cycle(dual)
    k = len(cyc)
    ghost = [v >= nf for v in cyc]
    starts = [i for i in range(k) if ghost[i] and not ghost[i - 1]]
    if len(starts) != 2:
        raise PatchError(f"dual boundary has {len(starts)} ghost runs, expected 2")
    runs = []
    for i in starts:
        j = i
        while ghost[(j + 1) % k]:
            j += 1
        runs.append([m % k for m in range(i, j + 1)])
    return _designate_arcs(dual, cyc, *runs)
