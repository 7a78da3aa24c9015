"""Independent reference implementations used to pin expected values.

These deliberately avoid the package's contraction machinery: the network
oracle is a literal sum over all joint bond-index assignments, evaluated in
chunks so larger index spaces stay within memory.  The crossing oracle is
the plain scan over all pairs of bonds that planarize's grid search must
reproduce.  The compression oracle runs the same QR and SVD passes as
``compress_mps`` through ``np.linalg``, and the trigger oracle reads the
largest bond after every step of a sweep.  The plan oracle orders a sweep
by the network's own positions, never turned.  The kernel oracle absorbs a
vertex as ``np.tensordot`` would: both operands transposed to matrices,
one ``np.dot``, and the product transposed to chain order.  The patch
oracle is the subsystem window scan without its breaks: it cuts, fan-splits
and certifies every window of the search space.  The window oracle cuts a
lattice window by listing its vertices, then the edges between them, then
the faces, and pruning the edges that bound no face.  The embedding oracle
scans every pair of vertices and of edges of a patch.  The fan oracles
split a triangular patch face by face through ``face_vertices`` and walk a
dual graph built from the smooth segments' vertex sets.  The distance
oracle enumerates single-type supports by weight; CSS codes admit
single-type minimum-weight logicals, so it is exact up to its weight limit
and exponential in it.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np

from sweepdecode.codes import lattices, subsystem
from sweepdecode.codes.graphs import (
    ROUGH,
    SMOOTH,
    BoundarySegment,
    PatchError,
    PlanarGraph,
    _bfs_path,
    _rough_path,
    validate_patch,
)
from sweepdecode.codes.lattices import _search_space, cut_window, template
from sweepdecode.pauli import stabiliser_basis
from sweepdecode.sweep import contract, network


def brute_force_value(tn, chunk=1 << 19):
    """Index-sum value of a closed network.

    Sums, over every joint assignment of all bond indices, the product of
    one element per vertex.  Returns ``(value, log_scale, abs_sum)`` where
    the value part is unnormalized, log_scale is 0.0 (tensors carry no
    scale of their own), and abs_sum (the same sum over absolute products)
    sets the scale against which cancellation error should be judged.
    """
    bonds = list(tn.bonds)
    dims = [b.dimension for b in bonds]
    n_assign = int(np.prod(dims, dtype=np.int64)) if dims else 1
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()

    vertex_axes = {}
    for v in tn.vertices.values():
        amap = {}
        for k, b in enumerate(bonds):
            if b.endpoint_a[0] == v.id:
                amap[b.endpoint_a[1]] = k
            if b.endpoint_b[0] == v.id:
                amap[b.endpoint_b[1]] = k
        vertex_axes[v.id] = [amap[a] for a in range(v.tensor.rank)]

    total = 0.0
    total_abs = 0.0
    for start in range(0, n_assign, chunk):
        flat = np.arange(start, min(start + chunk, n_assign), dtype=np.int64)
        rows = {}
        prod = np.ones(len(flat))
        for v in tn.vertices.values():
            if not vertex_axes[v.id]:
                prod = prod * float(v.tensor.elements)
                continue
            sel = []
            for k in vertex_axes[v.id]:
                if k not in rows:
                    rows[k] = (flat // strides[k]) % dims[k]
                sel.append(rows[k])
            prod = prod * v.tensor.elements[tuple(sel)]
        total += float(prod.sum())
        total_abs += float(np.abs(prod).sum())
    return total, 0.0, total_abs


def assert_matches_oracle(result, tn, rel=1e-10):
    """Compare a SweepValue against brute_force_value in a shared frame."""
    mant, log_extra, total_abs = brute_force_value(tn)
    got = result.mantissa * math.exp(result.log_scale - log_extra)
    assert got == got, "contraction produced NaN"
    # When massive cancellation shrinks the value, judge against the
    # summand magnitude instead of the (possibly zero) result.
    tol = rel * max(abs(mant), 1e-5 * total_abs)
    assert abs(got - mant) <= tol, f"expected {mant}, got {got} (tol {tol})"


def first_crossing_all_pairs(bonds, pos):
    """First crossing ``(i, j, point)`` over all bond pairs in ``(i, j)`` order.

    Tests every pair of bonds without a shared vertex with
    ``network._proper_crossing``; O(B^2) segment tests for B bonds.
    """
    for i in range(len(bonds)):
        a = bonds[i]
        pa1, pa2 = pos[a.endpoint_a[0]], pos[a.endpoint_b[0]]
        for j in range(i + 1, len(bonds)):
            b = bonds[j]
            if {a.endpoint_a[0], a.endpoint_b[0]} & {b.endpoint_a[0], b.endpoint_b[0]}:
                continue
            pb1, pb2 = pos[b.endpoint_a[0]], pos[b.endpoint_b[0]]
            pt = network._proper_crossing(pa1, pa2, pb1, pb2)
            if pt is not None:
                return i, j, pt
    return None


def planarize_all_pairs(tn):
    """``planarize`` with its crossing search replaced by the all-pairs scan."""
    with mock.patch.object(network, "_find_crossing", first_crossing_all_pairs):
        return network.planarize(tn)


def compress_mps_reference(mps, chi):
    """``compress_mps`` with ``np.linalg.qr`` and ``np.linalg.svd``.

    Same passes, cutoff (read from ``contract.REL_CUTOFF`` at call time),
    normalisation and discard; returns ``(mps, discard)`` and modifies
    ``mps`` in place.
    """
    n = len(mps.sites)
    if n <= 1:
        return mps, 0.0

    for k in range(n - 1):
        dl, d, dr = mps.sites[k].shape
        q, r = np.linalg.qr(mps.sites[k].reshape(dl * d, dr))
        mps.sites[k] = q.reshape(dl, d, q.shape[1])
        nxt = mps.sites[k + 1]
        mps.sites[k + 1] = np.tensordot(r, nxt, axes=([1], [0]))
        mps._normalize_site(k + 1)

    norm0 = float(np.linalg.norm(mps.sites[-1]))
    if norm0 == 0.0:
        return mps, 0.0

    dropped = 0.0
    for k in range(n - 1, 0, -1):
        dl, d, dr = mps.sites[k].shape
        u, s, vt = np.linalg.svd(mps.sites[k].reshape(dl, d * dr), full_matrices=False)
        keep = int(np.count_nonzero(s >= contract.REL_CUTOFF * s[0])) if s[0] > 0.0 else 1
        keep = max(1, min(keep, chi))
        dropped += float(np.sum(s[keep:] ** 2))
        mps.sites[k] = vt[:keep].reshape(keep, d, dr).copy()
        mps.sites[k - 1] = np.tensordot(mps.sites[k - 1], u[:, :keep] * s[:keep], axes=([2], [0]))
    for k in range(n):
        mps._normalize_site(k)
    return mps, math.sqrt(dropped) / norm0


def sweep_checking_every_step(tn, chi):
    """``sweep_contract`` with the compression trigger read after every step.

    Runs the cached plan of ``tn`` at ``chi`` through ``contract_step``,
    reading each step's tensor as the sweep does, and compresses whenever a
    bond is above ``2 * chi``, whatever the step.  Returns ``(SweepValue,
    steps)`` with the indices of the steps after which it compressed.
    """
    plan = contract._plan_for(tn, chi)
    mps = contract.MPSState()
    fired = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, step in enumerate(plan.steps):
            contract.contract_step(mps, step, contract._vertex_tensor(plan, tn.vertices, step))
            if mps.max_bond() > 2 * chi:
                contract.compress_mps(mps, chi)
                fired.append(i)
    return contract.SweepValue(mps.mantissa, mps.log_scale), fired


def plan_unrotated(tn):
    """The sweep plan of ``tn`` in its own frame, as every plan was made
    before the frame and the fold were chosen: check that ``tn`` is
    planar, then replay the steps in ascending ``sweep_key`` order of the
    untouched positions.  It folds nothing, and it is not modelled: its
    ``seconds`` and ``peak`` are None."""
    network.planarize(tn)
    incident = {vid: [] for vid in tn.vertices}
    for bid, bond in enumerate(tn.bonds):
        incident[bond.endpoint_a[0]].append((bid, bond.endpoint_a[1]))
        incident[bond.endpoint_b[0]].append((bid, bond.endpoint_b[1]))
    pending, open_ = [], set()
    steps = tuple(
        contract._plan_step(pending, open_, v, tn.vertices, incident, tn.bonds)
        for v in sorted(tn.vertices.values(), key=contract.sweep_key)
    )
    assert not pending
    return contract._Plan(0, None, 0, contract._layout(tn), steps, None, None, contract._MergeMemo())


def _tensordot_axes(step):
    """The transposes of the tensordot-style absorption of ``step``: the
    consumed run's axes (left, right, then legs in the vertex's axis
    order), the vertex's axes (contracted, then surviving, both in axis
    order), and the product's axes (left, open legs left to right, right).
    The first two are None for a vertex with no backward bonds."""
    forward, backward = step.perm[: step.forward], step.perm[step.forward :]
    if not backward:
        return None, None, (0, *(2 + a for a in forward), 1)
    contracted, surviving = sorted(backward), sorted(forward)
    run_axes = (0, len(backward) + 1, *(1 + backward.index(a) for a in contracted))
    open_axes = (0, *(2 + surviving.index(a) for a in forward), 1)
    return run_axes, (*contracted, *surviving), open_axes


def contract_step_reference(mps, step, elements):
    """``contract_step`` with every product a ``np.dot`` of transposed
    operands, as ``np.tensordot`` computes it.

    ``elements`` is laid out in the step's order, as ``contract_step``
    reads it; the reference puts its axes back in the vertex's own order
    first.  Same slots, splitting, normalisation and ``emitted``
    bookkeeping; modifies ``mps`` in place and returns it.
    """
    elements = elements.transpose(np.argsort(step.perm))
    run_axes, vertex_axes, open_axes = _tensordot_axes(step)
    lo, hi, sites = step.lo, step.hi, mps.sites
    if hi >= lo:
        merged = sites.pop(lo)
        for _ in range(hi - lo):
            site = sites.pop(lo)
            merged = np.dot(
                merged.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1)
            ).reshape(merged.shape[:-1] + site.shape[1:])
        left, right = merged.shape[0], merged.shape[-1]
        merged = merged.transpose(run_axes).reshape(left * right, -1)
        vt = elements.transpose(vertex_axes)
        merged = np.dot(merged, vt.reshape(merged.shape[1], -1)).reshape(
            (left, right) + vt.shape[hi - lo + 1 :]
        )
    else:
        pass_dim = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
        merged = np.multiply.outer(np.eye(pass_dim), elements)
    merged = merged.transpose(open_axes)
    left_dim, right_dim = merged.shape[0], merged.shape[-1]
    dims = merged.shape[1:-1]
    m = len(dims)

    if m == 0:
        mps.emitted = 0
        mat = merged.reshape(left_dim, right_dim)
        if lo > 0:
            sites[lo - 1] = np.tensordot(sites[lo - 1], mat, axes=([2], [0]))
        elif sites:
            sites[0] = np.tensordot(mat, sites[0], axes=([1], [0]))
        else:
            val = float(mat.reshape(()))
            if val == 0.0:
                mps.mantissa = 0.0
            else:
                mps.mantissa *= math.copysign(1.0, val)
                mps.log_scale += math.log(abs(val))
        if sites:
            mps._normalize_site(max(lo - 1, 0))
        return mps

    prefix = [left_dim]
    for d in dims:
        prefix.append(prefix[-1] * d)
    suffix = [right_dim]
    for d in reversed(dims):
        suffix.append(suffix[-1] * d)
    suffix.reverse()
    t = 0
    for k in range(1, m):
        if prefix[k] <= suffix[k]:
            t = k
        else:
            break
    new_sites = []
    for k in range(m):
        if k < t:
            site = np.eye(prefix[k + 1]).reshape(prefix[k], dims[k], prefix[k + 1])
        elif k > t:
            site = np.eye(suffix[k]).reshape(suffix[k], dims[k], suffix[k + 1])
        else:
            site = merged.reshape(prefix[t], dims[t], suffix[t + 1])
        new_sites.append(site)
    sites[lo:lo] = new_sites
    mps.emitted = max((site.shape[2] for site in new_sites[:-1]), default=0)
    mps._normalize_site(lo + t)
    return mps


def subsystem_patch_exhaustive(d):
    """``subsystem_patch`` scanning every window of its search space.

    Each window is cut and fan-split; one with a split vertex and a key
    below the best so far is certified by ``dressed_distances``.
    """
    t = template("triangular")
    offsets, wxs, wys = _search_space(t, d + 4)
    best = None
    for ox, oy in offsets:
        for wx in wxs:
            for wy in wys:
                g = cut_window(t, ox, oy, wx, wy)
                if g is None:
                    continue
                try:
                    kept, _, _, split, _ = subsystem._fan_split(g)
                except PatchError:
                    continue
                if not split:
                    continue
                key = (len(kept), wy, wx, oy, ox)
                if best is not None and key >= best[0]:
                    continue
                try:
                    dd = subsystem.dressed_distances(g)
                except PatchError:
                    continue
                if dd == (d, d):
                    best = (key, g)
    if best is None:
        raise ValueError(f"no subsystem patch found with distances {d}")
    validate_patch(best[1])
    return best[1]


def cut_region_reference(t, ox, oy, wx, wy):
    """``lattices._cut_region`` by enumeration: the window's vertices,
    then the edges between them, then the faces, then the pruning.

    Edges survive when both endpoints do; edges bounding no surviving
    face are dropped.  Returns (graph, integer positions) with
    placeholder segments, or None when the remains are disconnected or
    the boundary is not a single simple cycle.
    """
    (ax, _), (bx, by) = t.basis
    smin_y = min(s[1] for s in t.sites)
    smax_y = max(s[1] for s in t.sites)

    index = {}
    coords = []
    n_lo = (oy - smax_y) // by - 1
    n_hi = (oy + wy - smin_y) // by + 1
    for n in range(n_lo, n_hi + 1):
        base_y = n * by
        for si, (sx, sy) in enumerate(t.sites):
            iy = base_y + sy
            if not (oy <= iy <= oy + wy):
                continue
            m_lo = (ox - n * bx - sx) // ax - 1
            m_hi = (ox + wx - n * bx - sx) // ax + 1
            for m in range(m_lo, m_hi + 1):
                ix = m * ax + n * bx + sx
                if ox <= ix <= ox + wx:
                    index[(si, m, n)] = len(coords)
                    coords.append((ix, iy))

    if len(coords) < 4:
        return None

    edges = []
    edge_by_pair = {}
    cells = sorted({(m, n) for (_, m, n) in index})
    cell_set = set()
    for m, n in cells:
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                cell_set.add((m + dm, n + dn))
    for m, n in sorted(cell_set):
        for sa, sb, (dm, dn) in t.edges:
            ka = (sa, m, n)
            kb = (sb, m + dm, n + dn)
            if ka in index and kb in index:
                u, v = index[ka], index[kb]
                edge_by_pair[(min(u, v), max(u, v))] = len(edges)
                edges.append((u, v))

    faces = []
    for m, n in sorted(cell_set):
        for cyc in t.faces:
            vids = []
            ok = True
            for s, (dm, dn) in cyc:
                k = (s, m + dm, n + dn)
                if k not in index:
                    ok = False
                    break
                vids.append(index[k])
            if ok:
                face_edges = []
                for i, u in enumerate(vids):
                    v = vids[(i + 1) % len(vids)]
                    face_edges.append(edge_by_pair[(min(u, v), max(u, v))])
                faces.append(tuple(face_edges))

    # Drop edges bounding no face, then unused vertices.
    used = set()
    for cyc in faces:
        used.update(cyc)
    if not used:
        return None
    kept_edges = sorted(used)
    vmap = {}
    for e in kept_edges:
        for v in edges[e]:
            if v not in vmap:
                vmap[v] = None
    for i, v in enumerate(sorted(vmap)):
        vmap[v] = i
    new_positions = [None] * len(vmap)
    for v, i in vmap.items():
        new_positions[i] = coords[v]
    emap = {e: i for i, e in enumerate(kept_edges)}
    new_edges = [(vmap[edges[e][0]], vmap[edges[e][1]]) for e in kept_edges]
    new_faces = [tuple(emap[e] for e in cyc) for cyc in faces]

    # Connectivity over the kept graph.
    adj = {}
    for u, v in new_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != len(new_positions):
        return None

    hx, hy = t.hscale
    g = PlanarGraph(
        positions=tuple((ix * hx, iy * hy) for ix, iy in new_positions),
        edges=tuple(new_edges),
        faces=tuple(new_faces),
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
    return g, new_positions


def cut_window_reference(t, ox, oy, wx, wy, rotate=False):
    """``cut_window`` with its region cut by :func:`cut_region_reference`."""
    with mock.patch.object(lattices, "_cut_region", cut_region_reference):
        return lattices.cut_window(t, ox, oy, wx, wy, rotate=rotate)


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_cross(a, b, c, d) -> bool:
    """Proper interior crossing of segments ab and cd (no shared endpoints)."""
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    return ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0)


def assert_straight_line_embedding(g):
    """Raise ``PatchError`` if two vertices of ``g`` coincide or two of its
    edges cross; an O(V^2 + E^2) scan over all pairs."""
    pts = g.positions
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise PatchError(f"vertices {i} and {j} coincide")
    for e in range(len(g.edges)):
        a, b = g.edges[e]
        for f in range(e + 1, len(g.edges)):
            c, d = g.edges[f]
            if len({a, b, c, d}) < 4:
                continue
            if _segments_cross(pts[a], pts[b], pts[c], pts[d]):
                raise PatchError(f"edges {e} and {f} cross")


def fan_split_reference(g):
    """``subsystem._fan_split`` as first written: it reads each face's
    corners through ``face_vertices`` and takes two sextants per corner."""
    kept, ghosts = g.kept, g.ghosts()
    coords = g.positions
    spokes = {}
    for e in kept:
        u, v = g.edges[e]
        for a, b in ((u, v), (v, u)):
            if a in ghosts:
                continue
            s = subsystem._sextant(coords, a, b)
            sm = spokes.setdefault(a, {})
            if s in sm:
                raise PatchError(f"vertex {a} has two spokes toward sextant {s}")
            sm[s] = e

    straddle_at = {}
    for fi, cycle in enumerate(g.faces):
        vs = g.face_vertices(fi)
        k = len(cycle)
        corner = None
        for idx, v in enumerate(vs):
            e1, e2 = cycle[idx], cycle[(idx + 1) % k]
            if v not in g.edges[e1] or v not in g.edges[e2]:
                e1, e2 = cycle[(idx - 1) % k], cycle[idx]
            w1 = next(w for w in g.edges[e1] if w != v)
            w2 = next(w for w in g.edges[e2] if w != v)
            s1 = subsystem._sextant(coords, v, w1)
            s2 = subsystem._sextant(coords, v, w2)
            if (s1 in subsystem._WEST_FAN) != (s2 in subsystem._WEST_FAN):
                if corner is not None:
                    raise PatchError(f"face {fi} straddles two corners")
                corner = v
        if corner is not None:
            straddle_at.setdefault(corner, []).append(fi)

    split = {v for v, sm in spokes.items()
             if len(sm) == 6 and len(straddle_at.get(v, ())) == 2}
    return kept, ghosts, spokes, split, straddle_at


def dressed_distances_reference(g, fan):
    """``subsystem._dressed_distances`` on a dual graph of its own: each
    straddle pair is one node, and a boundary edge takes its smooth side
    from the smooth segment holding its endpoints."""
    table = g.face_table
    kept, _, _, split, straddle_at = fan

    z_path = _rough_path(g)
    if z_path is None:
        return None

    node_of = {}
    nid = 0
    for v in sorted(split):
        f1, f2 = straddle_at[v]
        node_of[f1] = node_of[f2] = nid
        nid += 1
    for fi in range(len(g.faces)):
        if fi not in node_of:
            node_of[fi] = nid
            nid += 1

    smooth_of = {}
    for si, s in enumerate(s for s in g.segments if s.kind == SMOOTH):
        for v in s.vertices:
            smooth_of[v] = si
    dual_adj = {}

    def link(a, b, e):
        dual_adj.setdefault(a, []).append((b, e))
        dual_adj.setdefault(b, []).append((a, e))

    for e in kept:
        fs = table[e]
        if len(fs) == 2:
            a, b = node_of[fs[0]], node_of[fs[1]]
            if a != b:
                link(a, b, e)
            continue
        u, v = g.edges[e]
        sides = {smooth_of[w] for w in (u, v) if w in smooth_of}
        if len(sides) != 1:
            return None
        link(node_of[fs[0]], nid + sides.pop(), e)
    for ns in dual_adj.values():
        ns.sort()
    x_path = _bfs_path(dual_adj, [nid], {nid + 1})
    if x_path is None:
        return None
    return len(x_path), len(z_path)


def _mask(bits) -> int:
    m = 0
    for i, b in enumerate(bits):
        if b:
            m |= 1 << i
    return m


def min_single_type_weight(n, even_masks, odd_mask, limit):
    """Smallest support size with even overlap against every mask in
    even_masks and odd overlap against odd_mask, or None."""
    even_masks = [m for m in set(even_masks) if m]
    for w in range(1, limit + 1):
        for support in combinations(range(n), w):
            s = 0
            for q in support:
                s |= 1 << q
            if (s & odd_mask).bit_count() % 2 == 0:
                continue
            if all((s & m).bit_count() % 2 == 0 for m in even_masks):
                return w
    return None


def brute_force_distances(code, limit, *, dressed=False) -> tuple:
    """(X distance, Z distance) up to the weight limit; None when above.

    Requires CSS checks (each check a single Pauli type).  For
    subsystem codes the default counts bare logicals (commuting with
    every check); dressed=True quotients by the gauge group instead,
    constraining candidates only by the stabiliser centre.
    """
    for c in code.checks:
        if c.x.any() and c.z.any():
            raise ValueError("brute-force distances require CSS checks")
    constraints = code.checks
    if dressed:
        if not code.is_subsystem:
            raise ValueError("dressed distance applies to subsystem codes")
        constraints = stabiliser_basis(code)
    x_even = [_mask(c.z) for c in constraints]
    z_even = [_mask(c.x) for c in constraints]
    dx = min_single_type_weight(
        code.n, x_even, _mask(code.logical_z.z), limit)
    dz = min_single_type_weight(
        code.n, z_even, _mask(code.logical_x.x), limit)
    return dx, dz
