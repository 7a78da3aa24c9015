"""Subsystem surface code built from fan-split triangular patches.

Every gauge generator acts on three qubits (two at a truncated
boundary): each face of the patch contributes its edge triple as a Z
generator, and the six edges around an interior vertex split into two
X fans of three.  Multiplying the two fans at a vertex restores the
full vertex star, and each fan anticommutes with exactly two faces,
the pair facing each other across its vertex; the product of such a
pair commutes with everything again.  The stabiliser group is
therefore generated by weight-6 operators, stars and face bowties, and
one gauge qubit lives at every split vertex.

Splitting leaves Z strings intact but lets X strings shortcut through
bowties, so the patch is sized by the dressed distances rather than
the surface-code ones.
"""

import math
from functools import lru_cache

import numpy as np

from ..pauli import CodeDefinition, gf2_rref
from .graphs import (
    PatchError,
    PlanarGraph,
    _css_code,
    _logical_paths,
    _midpoint,
    _rough_path,
    validate_patch,
)
from .lattices import _search_space, _widths, cut_window, template

# sextants NE, NW, W; the other fan takes SW, SE, E
_WEST_FAN = frozenset((1, 2, 3))


def _sextant(coords, a, b) -> int:
    """Direction class of the edge a -> b in 60 degree steps from east."""
    dx = coords[b][0] - coords[a][0]
    dy = coords[b][1] - coords[a][1]
    return round(math.degrees(math.atan2(dy, dx)) / 60.0) % 6


def _fan_split(g: PlanarGraph):
    """Spokes by direction, split vertices, and straddle faces per vertex.

    A face straddles the one corner where its two edges fall in
    different fans.  A vertex is split when all six spokes and both of
    its straddle faces are present, i.e. away from the boundary; there
    the paired faces merge into bowtie stabilisers.
    """
    kept, ghosts = g.kept, g.ghosts()
    leaving = {}  # (vertex, edge) -> sextant the edge leaves the vertex in
    for e, (u, v) in enumerate(g.edges):
        leaving[u, e] = _sextant(g.positions, u, v)
        leaving[v, e] = _sextant(g.positions, v, u)
    spokes = {}
    for e in kept:
        for a in g.edges[e]:
            if a in ghosts:
                continue
            s = leaving[a, e]
            sm = spokes.setdefault(a, {})
            if s in sm:
                raise PatchError(f"vertex {a} has two spokes toward sextant {s}")
            sm[s] = e

    straddle_at = {}
    for fi, cycle in enumerate(g.faces):
        corners = []
        for e1, e2 in zip(cycle, cycle[1:] + cycle[:1]):
            u, v = g.edges[e1]
            c = u if u in g.edges[e2] else v  # the corner the two share
            if (leaving[c, e1] in _WEST_FAN) != (leaving[c, e2] in _WEST_FAN):
                corners.append(c)
        if len(corners) > 1:
            raise PatchError(f"face {fi} straddles two corners")
        if corners:
            straddle_at.setdefault(corners[0], []).append(fi)

    split = {v for v, sm in spokes.items()
             if len(sm) == 6 and len(straddle_at.get(v, ())) == 2}
    return kept, ghosts, spokes, split, straddle_at


def dressed_distances(g: PlanarGraph):
    """(x, z) dressed distances of the fan-split code, or None.

    Both come from shortest paths.  Z strings must still join the rough
    sides vertex by vertex, unchanged by the split.  X strings join the
    smooth sides in the dual, but entering one face of a bowtie and
    leaving through its partner costs nothing, so the two straddle faces
    of each split vertex share one dual node in the walk of
    ``graphs._logical_paths``.
    """
    return _dressed_distances(g, _fan_split(g))


def _dressed_distances(g: PlanarGraph, fan):
    """:func:`dressed_distances` of ``g`` given its ``_fan_split``."""
    _, _, _, split, straddle_at = fan
    merge = {straddle_at[v][1]: straddle_at[v][0] for v in split}
    try:
        x_path, z_path = _logical_paths(g, merge)
    except PatchError:
        return None
    return len(x_path), len(z_path)


@lru_cache(maxsize=None)
def subsystem_patch(d: int) -> PlanarGraph:
    """Smallest triangular window whose fan-split code has distances (d, d).

    The scan orders windows by qubit count, then extents and offsets,
    each offset's widths from the narrowest that holds a face
    (``lattices._widths``).  It reads each window's z distance (rough to
    rough, across x) as the length of ``graphs._rough_path``, which the
    fan split leaves intact, and fan-splits only windows where it is d;
    those with a split vertex are certified by :func:`dressed_distances`.

    Each break rests on a monotonicity that the tests check on every
    window of the d = 2..6 spaces (the scan matches the exhaustive one
    for d = 2..13).  As ``wy`` grows the kept-edge count and the dressed
    x distance never fall and z never rises, so a column ends once the
    key reaches the best, x exceeds d or z drops below d.  As ``wx``
    grows z never falls, so z above d on a column's tallest window,
    where it is smallest, ends the offset; a shorter window cannot
    tell, as at ``wy`` = 2 it can read one above every taller one.
    """
    if d < 2:
        raise ValueError("distance must be at least 2")
    t = template("triangular")
    offsets, wxs, wys = _search_space(t, d + 4)
    best = None
    for ox, oy in offsets:
        for wx in _widths(t, ox, oy, wxs, wys[-1]):
            low = None  # z distance of the last window read, the lowest
            for wy in wys:
                g = cut_window(t, ox, oy, wx, wy)
                if g is None:
                    continue
                key = (len(g.kept), wy, wx, oy, ox)
                if best is not None and key >= best[0]:
                    break
                z = _rough_path(g)
                if z is None:
                    continue
                low = len(z)
                if low < d:
                    break
                if low > d:
                    continue
                try:
                    fan = _fan_split(g)
                    dd = _dressed_distances(g, fan) if fan[3] else None
                except PatchError:
                    continue
                if dd and dd[0] > d:
                    break
                if dd == (d, d):
                    best = (key, g)
            if low is None or low > d:  # the tallest window decides
                g = g if wy == wys[-1] else cut_window(t, ox, oy, wx, wys[-1])
                z = g and _rough_path(g)
                if z and len(z) > d:
                    break
    if best is None:
        raise ValueError(f"no subsystem patch found with distances {d}")
    validate_patch(best[1])
    return best[1]


def _commuting_z_logical(z_path_bits, fan_rows, face_rows):
    """Adjust a rough-to-rough Z string by faces until every fan commutes.

    The string already commutes with every full star, so the system
    asks only for the right intersection parity with each fan; it is
    consistent because a Z logical of the gauge-fixed surface code lies
    in the same face coset.
    """
    overlap = (fan_rows @ face_rows.T) % 2
    target = (fan_rows @ z_path_bits) % 2
    aug = np.concatenate([overlap, target[:, None]], axis=1)
    r, pivots, _ = gf2_rref(aug)
    if overlap.shape[1] in pivots:
        raise PatchError("no face adjustment makes the Z string gauge-even")
    out = z_path_bits.copy()
    for row, col in enumerate(pivots):
        if r[row, -1]:
            out ^= face_rows[col]
    return out


def subsystem_code(d: int) -> CodeDefinition:
    """Fan-split subsystem code of dressed distance d on both sectors.

    Checks hold the gauge generators: X fans (full stars along the
    boundary) listed per vertex, then Z faces truncated to their kept
    edges.  The logicals commute with every gauge generator; the X one
    is a dual smooth-to-smooth path, the Z one a rough-to-rough path
    pushed into the gauge centraliser by face multiplication.
    """
    g = subsystem_patch(d)
    _, ghosts, spokes, split, _ = _fan_split(g)

    fans = []
    coords = []
    for v in range(g.num_vertices):
        if v in ghosts:
            continue
        sm = spokes.get(v)
        if not sm:
            raise PatchError(f"vertex {v} acts on zero qubits")
        groups = [sorted(sm)]
        if v in split:
            west = [s for s in sorted(sm) if s in _WEST_FAN]
            east = [s for s in sorted(sm) if s not in _WEST_FAN]
            groups = [west, east]
        for sextants in groups:
            fans.append([sm[s] for s in sextants])
            mids = [_midpoint(g, sm[s]) for s in sextants]
            cx = sum(m[0] for m in mids) / len(mids)
            cy = sum(m[1] for m in mids) / len(mids)
            px, py = g.positions[v]
            pull = 0.3 if v in split else 0.0
            coords.append((px + pull * (cx - px), py + pull * (cy - py)))
    return _css_code(g, fans, coords, claimed_distance=d,
                     fix_z=_commuting_z_logical, family="subsystem_square")
