"""Regular lattice patches cut from periodic templates.

Templates use exact integer coordinates; a vertex at integer (i, j)
sits at real position (i*hx, j*hy).  A window is an axis-aligned closed
integer box, and its patch is the template faces whose bounding boxes
lie inside it, with their edges and vertices.  The extreme-x perimeter
runs become the rough sides, and a window whose code reaches X and Z
distance d is chosen by direct search (see :func:`smallest_patch`).
Dual families reuse the primal patch through the planar dual, which
exchanges rough and smooth boundaries.
"""

import bisect
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .graphs import (
    ROUGH,
    SMOOTH,
    BoundarySegment,
    PatchError,
    PlanarGraph,
    _designate_arcs,
    _face_supports,
    code_distances,
    dual_patch,
)

PRIMAL_FAMILIES = ("square", "triangular", "kagome", "trunc_hex")
DUAL_OF_PRIMAL = {"triangular": "hexagonal", "kagome": "rhombille",
                  "trunc_hex": "asanoha"}


@dataclass(frozen=True)
class LatticeTemplate:
    basis: tuple          # ((ax, 0), (bx, by)) integer lattice vectors
    sites: tuple          # integer (i, j) offsets within one cell
    edges: tuple          # (site_a, site_b, (dm, dn)) for a@(0,0)-b@(dm,dn)
    faces: tuple          # vertex cycles of (site, (dm, dn))
    hscale: tuple         # (hx, hy) real units per integer step

    @cached_property
    def face_refs(self) -> tuple:
        """Per face: its integer bounding box ``(x0, x1, y0, y1)`` about the
        origin of its cell, and the ``(dm, dn, template edge)`` of each
        cycle step, the edge anchored in cell ``(m + dm, n + dn)``."""
        (ax, _), (bx, by) = self.basis
        step = {}
        for e, (sa, sb, (dm, dn)) in enumerate(self.edges):
            step[(sa, sb, dm, dn)] = (0, 0, e)
            step[(sb, sa, -dm, -dn)] = (-dm, -dn, e)
        out = []
        for cyc in self.faces:
            xs = [dm * ax + dn * bx + self.sites[s][0] for s, (dm, dn) in cyc]
            ys = [dn * by + self.sites[s][1] for s, (dm, dn) in cyc]
            refs = []
            for (sa, (ma, na)), (sb, (mb, nb)) in zip(cyc, cyc[1:] + cyc[:1]):
                dm, dn, e = step[(sa, sb, mb - ma, nb - na)]
                refs.append((ma + dm, na + dn, e))
            out.append(((min(xs), max(xs), min(ys), max(ys)), tuple(refs)))
        return tuple(out)


TEMPLATES = {
    "square": LatticeTemplate(
        basis=((1, 0), (0, 1)),
        sites=((0, 0),),
        edges=((0, 0, (1, 0)), (0, 0, (0, 1))),
        faces=(((0, (0, 0)), (0, (1, 0)), (0, (1, 1)), (0, (0, 1))),),
        hscale=(1.0, 1.0),
    ),
    "triangular": LatticeTemplate(
        basis=((2, 0), (1, 1)),
        sites=((0, 0),),
        edges=((0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, 1))),
        faces=(
            ((0, (0, 0)), (0, (1, 0)), (0, (0, 1))),
            ((0, (1, 0)), (0, (1, 1)), (0, (0, 1))),
        ),
        hscale=(0.5, math.sqrt(3.0) / 2.0),
    ),
    # Sites are the edge midpoints of the triangular lattice.
    "kagome": LatticeTemplate(
        basis=((4, 0), (2, 2)),
        sites=((2, 0), (1, 1), (3, 1)),
        edges=(
            (0, 1, (0, 0)), (0, 2, (0, 0)), (1, 2, (0, 0)),
            (2, 1, (1, 0)), (2, 0, (0, 1)), (1, 0, (-1, 1)),
        ),
        faces=(
            ((0, (0, 0)), (2, (0, 0)), (1, (0, 0))),
            ((2, (0, 0)), (1, (1, 0)), (0, (0, 1))),
            ((0, (0, 0)), (1, (1, -1)), (2, (1, -1)),
             (0, (1, 0)), (1, (1, 0)), (2, (0, 0))),
        ),
        hscale=(0.5, math.sqrt(3.0) / 2.0),
    ),
    # The 3.12.12 tiling: each kagome vertex split in two, each half moved
    # halfway toward the centroid of one of its two triangles, in kagome
    # coordinates scaled by 6 so the halfway points stay integral.
    "trunc_hex": LatticeTemplate(
        basis=((24, 0), (12, 12)),
        sites=((12, 2), (12, -2), (9, 5), (3, 7), (15, 5), (21, 7)),
        edges=(
            (0, 2, (0, 0)), (0, 4, (0, 0)), (2, 4, (0, 0)),
            (5, 3, (1, 0)), (5, 1, (0, 1)), (3, 1, (-1, 1)),
            (0, 1, (0, 0)), (2, 3, (0, 0)), (4, 5, (0, 0)),
        ),
        faces=(
            ((0, (0, 0)), (4, (0, 0)), (2, (0, 0))),
            ((5, (0, 0)), (3, (1, 0)), (1, (0, 1))),
            ((0, (0, 0)), (1, (0, 0)), (3, (1, -1)), (2, (1, -1)),
             (4, (1, -1)), (5, (1, -1)), (1, (1, 0)), (0, (1, 0)),
             (2, (1, 0)), (3, (1, 0)), (5, (0, 0)), (4, (0, 0))),
        ),
        hscale=(0.5 / 6.0, math.sqrt(3.0) / 12.0),
    ),
}


def template(name: str) -> LatticeTemplate:
    if name not in TEMPLATES:
        raise ValueError(f"unknown primal lattice {name!r}")
    return TEMPLATES[name]


def _search_space(t: LatticeTemplate, reach: int):
    """Window offsets over one lattice period, then the x and y extents
    to try: gcd steps of the vertex coordinates up to reach cells plus
    the spread of the sites within a cell."""
    xs = {t.basis[0][0], t.basis[1][0], 0} | {s[0] for s in t.sites}
    ys = {t.basis[1][1], 0} | {s[1] for s in t.sites}
    gx = math.gcd(*(v - min(xs) for v in xs)) or 1
    gy = math.gcd(*(v - min(ys) for v in ys)) or 1
    ax, by = t.basis[0][0], t.basis[1][1]
    sx = max(s[0] for s in t.sites) - min(s[0] for s in t.sites)
    sy = max(s[1] for s in t.sites) - min(s[1] for s in t.sites)
    offsets = [(ox, oy) for oy in range(0, by, gy) for ox in range(0, ax, gx)]
    return (offsets, range(gx, ax * reach + sx + gx + 1, gx),
            range(gy, by * reach + sy + gy + 1, gy))


def _widths(t: LatticeTemplate, ox: int, oy: int, wxs: range, wy: int) -> range:
    """``wxs`` from the narrowest width at which a template face fits a
    window at offset ``(ox, oy)`` of height ``wy``.

    A face placed in row ``n`` lies ``(n bx + x0 - ox) mod ax`` right of
    ``ox`` at its leftmost placement inside the window, so it fits a width
    of that plus its own width; a narrower window, of any height up to
    ``wy``, holds no face and cuts to nothing.
    """
    (ax, _), (bx, by) = t.basis
    first = min(
        ((n * bx + x0 - ox) % ax + x1 - x0
         for (x0, x1, y0, y1), _ in t.face_refs
         for n in range(-((y0 - oy) // by), (oy + wy - y1) // by + 1)),
        default=wxs.stop,
    )
    return wxs[bisect.bisect_left(wxs, first):]


def _cut_region(t: LatticeTemplate, ox: int, oy: int, wx: int, wy: int):
    """Graph of the template faces inside the closed integer window.

    A face is kept when its integer bounding box lies in the window; the
    edges are those of the kept faces, in (cell m, cell n, template edge)
    order, and the vertices those of the edges, in (n, site, m) order.
    Returns (graph, integer positions) with placeholder segments, or None
    when no face fits or the boundary is not a single simple cycle (a
    patch in two pieces has two boundary walks).
    """
    (ax, _), (bx, by) = t.basis
    faces = []
    for fi, ((x0, x1, y0, y1), _) in enumerate(t.face_refs):
        for n in range(-((y0 - oy) // by), (oy + wy - y1) // by + 1):
            for m in range(-((n * bx + x0 - ox) // ax),
                           (ox + wx - n * bx - x1) // ax + 1):
                faces.append((m, n, fi))
    if not faces:
        return None
    faces.sort()
    cycles = [[(m + dm, n + dn, e) for dm, dn, e in t.face_refs[fi][1]]
              for m, n, fi in faces]
    edge_keys = sorted({k for cyc in cycles for k in cyc})
    edge_of = {k: i for i, k in enumerate(edge_keys)}
    ends = []
    for m, n, e in edge_keys:
        sa, sb, (dm, dn) = t.edges[e]
        ends.append(((n, sa, m), (n + dn, sb, m + dm)))
    vertex_keys = sorted({v for pair in ends for v in pair})
    vertex_of = {k: i for i, k in enumerate(vertex_keys)}
    ipos = [(m * ax + n * bx + t.sites[s][0], n * by + t.sites[s][1])
            for n, s, m in vertex_keys]

    hx, hy = t.hscale
    g = PlanarGraph(
        positions=tuple((ix * hx, iy * hy) for ix, iy in ipos),
        edges=tuple((vertex_of[a], vertex_of[b]) for a, b in ends),
        faces=tuple(tuple(edge_of[k] for k in cyc) for cyc in cycles),
        segments=(
            BoundarySegment(ROUGH, (0,)),
            BoundarySegment(SMOOTH, (0,)),
            BoundarySegment(ROUGH, (0,)),
            BoundarySegment(SMOOTH, (0,)),
        ),
    )
    try:
        cyc = g.walk[0]
    except PatchError:
        return None
    if len(set(cyc)) != len(cyc):
        return None  # pinched: the arc designation needs a simple cycle
    return g, ipos


def _extreme_arcs(cyc, int_positions):
    """Perimeter index runs around the leftmost and rightmost vertices.

    Each arc is the shortest contiguous run covering every vertex at
    that x extreme (the complement of the largest gap between members).
    Returns (left, right) index lists or None when degenerate.
    """
    k = len(cyc)
    xs = [int_positions[v][0] for v in cyc]
    xmin, xmax = min(xs), max(xs)
    if xmin == xmax:
        return None

    def minimal_arc(val):
        idxs = sorted(i for i in range(k) if xs[i] == val)
        if len(idxs) == 1:
            return idxs
        best_gap, best_j = -1, 0
        for j in range(len(idxs)):
            gap = (idxs[(j + 1) % len(idxs)] - idxs[j]) % k
            if gap > best_gap:
                best_gap, best_j = gap, j
        start = idxs[(best_j + 1) % len(idxs)]
        end = idxs[best_j]
        length = (end - start) % k + 1
        return [(start + i) % k for i in range(length)]

    left = minimal_arc(xmin)
    right = minimal_arc(xmax)
    if set(left) & set(right):
        return None
    return left, right


def cut_window(t: LatticeTemplate, ox: int, oy: int, wx: int, wy: int,
               rotate: bool = False):
    """Patch of the window with rough sides at the x extremes.

    ``rotate`` anchors the rough arcs at the y extremes instead, leaving
    the patch geometry itself untouched.  Returns None when the window
    yields nothing patch-shaped.
    """
    return _patch(_cut_region(t, ox, oy, wx, wy), rotate)


def _patch(region, rotate: bool = False):
    """:func:`cut_window` of the window whose :func:`_cut_region` is
    ``region``."""
    if region is None:
        return None
    g, ipos = region
    if rotate:
        ipos = [(p[1], p[0]) for p in ipos]
    arcs = _extreme_arcs(g.walk[0], ipos)
    if arcs is None:
        return None
    return _designate_arcs(g, *arcs)


def _safe_distances(g):
    if g is None:
        return None
    try:
        return code_distances(g)
    except PatchError:
        return None


def _keeps_face_qubits(g) -> bool:
    """Whether every face keeps a qubit edge, so no Z check is empty.

    ``code_distances`` cannot see an emptied face, so a window it
    certifies may still fail to build; the scan checks both.
    """
    try:
        _face_supports(g)
    except PatchError:
        return False
    return True


_MAX_SIDE_ARCS = 64


def _candidate_arcs(g, ipos):
    """Rough-arc candidates per side, anchored at the x extremes.

    A perimeter vertex of window degree 2 has no edge into the bulk, so
    it survives truncation only at an arc end (its outward perimeter
    edge stays).  Candidates are therefore the contiguous sub-runs
    between degree-2 vertices, extended by at most one such vertex per
    end; each must touch its side's x extreme.
    """
    cyc = g.walk[0]
    k = len(cyc)
    deg = [0] * g.num_vertices
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    low = [i for i in range(k) if deg[cyc[i]] == 2]

    ext_runs = []
    if not low:
        ext_runs.append(list(range(k)))
    else:
        for j, a in enumerate(low):
            b = low[(j + 1) % len(low)]
            length = (b - a) % k or k
            ext_runs.append([(a + t) % k for t in range(length + 1)])
    arcs = set()
    for run in ext_runs:
        for i in range(len(run)):
            for j in range(i, len(run)):
                if j - i + 1 > k - 2:
                    continue
                arcs.add(tuple(run[i:j + 1]))
    xs = [ipos[v][0] for v in cyc]
    xmin, xmax = min(xs), max(xs)
    lefts = sorted(a for a in arcs if any(xs[i] == xmin for i in a))
    rights = sorted(a for a in arcs if any(xs[i] == xmax for i in a))
    return lefts, rights


def _arc_search_hits(region, d):
    """Best (d, d) designation of the region over candidate arc pairs.

    Distances are screened with precomputed tables before any graph is
    built: rough-to-rough distance is a plain vertex BFS (arc-internal
    edges never help a shortest path between the arcs), and the dual
    distance is two more than the face-to-face hop count between smooth
    boundary edges.  Both are lower bounds of the designated graph's
    distances, exact unless a dropped ghost-to-ghost chord interferes,
    so survivors are confirmed by building the actual patch.
    """
    g, ipos = region
    cyc, walk_edges = g.walk
    k = len(cyc)
    extreme = _extreme_arcs(cyc, ipos)
    if extreme is None:
        return None
    lefts, rights = _candidate_arcs(g, ipos)
    if not lefts or not rights:
        return None

    def cap(arcs, ref_len):
        return sorted(arcs, key=lambda a: (abs(len(a) - ref_len), len(a), a)
                      )[:_MAX_SIDE_ARCS]

    lefts = cap(lefts, len(extreme[0]))
    rights = cap(rights, len(extreme[1]))

    adj = [[] for _ in range(g.num_vertices)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)

    def bfs(src, neighbours, size):
        dist = [-1] * size
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in neighbours[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    vdist = {i: bfs(cyc[i], adj, g.num_vertices)
             for i in sorted({i for a in lefts for i in a})}

    pairs = {(min(u, v), max(u, v)) for u, v in g.edges}
    pedge_face = [g.face_table[e][0] for e in walk_edges]
    fadj = [[] for _ in g.faces]
    for fs in g.face_table:
        if len(fs) == 2:
            fadj[fs[0]].append(fs[1])
            fadj[fs[1]].append(fs[0])
    fdist = {f: bfs(f, fadj, len(g.faces)) for f in sorted(set(pedge_face))}

    def intra(arcpos):
        vs = [cyc[i] for i in arcpos]
        count = 0
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if (min(u, v), max(u, v)) in pairs:
                    count += 1
        return count

    intra_left = {a: intra(a) for a in lefts}
    intra_right = {a: intra(a) for a in rights}

    candidates = []
    for arc_a in lefts:
        aset = set(arc_a)
        for arc_b in rights:
            if aset & set(arc_b):
                continue
            gap1 = (arc_b[0] - arc_a[-1]) % k - 1
            gap2 = (arc_a[0] - arc_b[-1]) % k - 1
            if gap1 < 1 or gap2 < 1:
                continue
            dz = min(vdist[i][cyc[j]] for i in arc_a for j in arc_b)
            if not d - 1 <= dz <= d:
                continue
            s1 = [(arc_a[-1] + t) % k for t in range(gap1 + 1)]
            s2 = [(arc_b[-1] + t) % k for t in range(gap2 + 1)]
            dx = 2 + min(fdist[pedge_face[p]][pedge_face[q]]
                         for p in s1 for q in s2)
            if not d - 2 <= dx <= d:
                continue
            n_est = len(g.edges) - intra_left[arc_a] - intra_right[arc_b]
            candidates.append((n_est, len(arc_a) + len(arc_b), arc_a, arc_b))
    candidates.sort()
    for _, _, arc_a, arc_b in candidates:
        gg = _designate_arcs(g, list(arc_a), list(arc_b))
        if (gg is not None and _safe_distances(gg) == (d, d)
                and _keeps_face_qubits(gg)):
            return gg
    return None


# Families whose window boundaries advance the two sector distances at
# incommensurate rates, so equal distances exist only sporadically.
ANISOTROPIC_FAMILIES = ("trunc_hex",)


def _anisotropic_patch(family: str, d: int) -> PlanarGraph:
    """Smallest patch with min(dx, dz) = d and the other sector >= d.

    Scans both arc anchorings (rough at the x or at the y extremes);
    the `along` axis is whichever the rough arcs terminate, so a probe
    window maximal in the other direction lower-bounds dz for every
    window of that along extent.  The kept-edge count never falls as the
    inner extent grows, so the inner loop stops at the first window
    whose key reaches the best key, before its distances are computed.
    The key orders every window, so the scan's order does not change
    the patch it returns.
    """
    t = template(family)
    offsets, wxs, wys = _search_space(t, d + 4)
    spread = 3
    best = None
    for ox, oy in offsets:
        # both anchorings meet some windows of an offset: each is cut once
        cut = lru_cache(maxsize=None)(partial(_cut_region, t, ox, oy))
        fit = _widths(t, ox, oy, wxs, wys[-1])
        for rotate in (False, True):
            outer, inner = (wys, fit) if rotate else (fit, wys)
            for wa in outer:
                probe_dims = (wxs[-1], wa) if rotate else (wa, wys[-1])
                probe = _patch(cut(*probe_dims), rotate)
                dd = _safe_distances(probe)
                if dd is None:
                    continue
                if dd[1] > d + spread:
                    break
                for wb in inner:
                    wx_, wy_ = (wb, wa) if rotate else (wa, wb)
                    gg = _patch(cut(wx_, wy_), rotate)
                    if gg is None:
                        continue
                    key = (len(gg.kept), wy_, wx_, oy, ox, rotate)
                    if best is not None and key >= best[0]:
                        break  # the kept count never falls as wb grows
                    dd2 = _safe_distances(gg)
                    if dd2 is None:
                        continue
                    if dd2[0] > d + spread:
                        break
                    if min(dd2) != d:
                        continue
                    best = (key, gg)
                    break  # larger windows only add qubits here
    if best is None:
        raise ValueError(f"no {family} patch found with distance {d}")
    return best[1]


@lru_cache(maxsize=None)
def smallest_patch(family: str, d: int) -> PlanarGraph:
    """A small window of the named primal lattice with distances (d, d).

    Stage one designates the minimal perimeter arcs around the x
    extremes as the rough sides and takes the smallest window whose
    code reaches X and Z distances exactly d.  Some lattices cannot
    reach every distance that way (the boundary zigzag fixes a parity,
    and on lattices with degree-2 window vertices the minimal arcs
    strand ghosts), so stage two retries near-miss windows over freely
    placed rough arcs anchored at the x extremes.  Candidates are
    ordered by qubit count, then window extents and offsets; offsets
    range over one lattice period.  Raises when no window in range
    works.

    Stage two runs only when stage one finds nothing, so the result is
    the smallest window of the first stage that succeeds, not the
    smallest over both: stage two alone finds smaller triangular
    patches (n=33 against 37 at d=5, 67 against 89 at d=7) at 10-20
    times the search cost.

    Anisotropic families cannot reach equal sector distances for most
    d at all; they take the smallest window whose minimum sector
    distance is d, over both arc anchorings, so claimed_distance still
    matches the code distance exactly.
    """
    if d < 2:
        raise ValueError("distance must be at least 2")
    if family in ANISOTROPIC_FAMILIES:
        return _anisotropic_patch(family, d)
    t = template(family)
    offsets, wxs, wys = _search_space(t, d + 3)
    # both stages, each column's probe and the height loop that reaches
    # it, and the relaxed arc search meet one window: the build cuts it once
    cut = lru_cache(maxsize=None)(partial(_cut_region, t))

    def scan(relaxed):
        slack = 3 if relaxed else 0
        best = None
        for ox, oy in offsets:
            for wx in _widths(t, ox, oy, wxs, wys[-1]):
                dd = _safe_distances(_patch(cut(ox, oy, wx, wys[-1])))
                if dd is None:
                    continue
                if dd[1] > d + slack:
                    break
                if abs(dd[1] - d) > slack:
                    continue
                hit = None
                for wy in wys:
                    gg = _patch(cut(ox, oy, wx, wy))
                    dd2 = _safe_distances(gg)
                    if dd2 is not None and dd2[0] > d + slack:
                        break
                    if not relaxed:
                        hit = (gg if dd2 == (d, d) and _keeps_face_qubits(gg)
                               else None)
                    elif dd2 is None or max(abs(dd2[0] - d),
                                            abs(dd2[1] - d)) <= slack:
                        region = cut(ox, oy, wx, wy)
                        if region is not None:
                            hit = _arc_search_hits(region, d)
                    if hit is not None:
                        break
                if hit is None:
                    continue
                key = (len(hit.kept), wy, wx, oy, ox)
                if best is None or key < best[0]:
                    best = (key, hit)
                break  # wider windows only add qubits here
        return best

    best = scan(relaxed=False) or scan(relaxed=True)
    if best is None:
        raise ValueError(f"no {family} patch found with distances {d}")
    return best[1]


def regular_lattice(family: str, d: int) -> PlanarGraph:
    """Patch of the named lattice; dual families dualize their primal."""
    if family in PRIMAL_FAMILIES:
        return smallest_patch(family, d)
    for primal, dual in DUAL_OF_PRIMAL.items():
        if family == dual:
            return dual_patch(smallest_patch(primal, d))
    raise ValueError(f"unsupported regular family {family!r}")
