"""The one check of a network, ``planarize``: its grid-bucketed crossing
search against the all-pairs scan, and its typed errors."""

import math
import re

import numpy as np
import pytest

from sweepdecode import DenseTensor
from sweepdecode.sweep import (
    Bond,
    PlanarizeError,
    TensorNetwork2D,
    TNVertex,
    contract,
    network,
    planarize,
    sweep_contract,
)

from netgen import grid_network, random_planar_network, scramble_positions
from oracles import first_crossing_all_pairs, planarize_all_pairs


def outcome(fn, tn):
    """The error ``fn`` raises on ``tn``, or whether it returned ``tn``."""
    try:
        out = fn(tn)
    except PlanarizeError as err:
        return "raised", str(err)
    return "returned", out is tn


def equivalence_cases():
    for seed in range(100):
        tn = random_planar_network(
            np.random.default_rng(seed), max_vertices=14, product_cap=1 << 12
        )
        yield f"random{seed}", tn
        yield f"random{seed}-scrambled", scramble_positions(tn, np.random.default_rng(10_000 + seed))
    for seed in range(40):
        rng = np.random.default_rng(20_000 + seed)
        tn = grid_network(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        yield f"grid{seed}", tn
        # integer positions put vertices on other bonds, so many of these
        # raise a contact error
        yield f"grid{seed}-scrambled", scramble_positions(tn, rng)


class TestGridSearchMatchesAllPairs:
    def test_identical_outputs_and_errors(self):
        crossings = contacts = 0
        for name, tn in equivalence_cases():
            got = outcome(planarize, tn)
            assert got == outcome(planarize_all_pairs, tn), name
            if got[0] == "returned":
                assert got[1], name
            elif " crosses bond " in got[1]:
                crossings += 1
            else:
                contacts += 1
        # the set must exercise both crossings and degenerate contact
        assert crossings > 80
        assert contacts > 10


class TestScaling:
    def test_planar_grid_needs_at_most_one_test_per_bond(self, monkeypatch):
        calls = []
        real = network._proper_crossing

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(network, "_proper_crossing", counting)
        tn = grid_network(np.random.default_rng(7), 30, 30)
        assert planarize(tn) is tn
        # the all-pairs scan makes about len(tn.bonds) ** 2 / 2 of these
        assert len(calls) <= len(tn.bonds)


class TestNearlyCollinearBonds:
    """Rounding once reported crossings between segments whose bounding
    boxes are disjoint, at points outside one of the segments."""

    @staticmethod
    def scrambled(seed, scramble_seed):
        tn = random_planar_network(
            np.random.default_rng(seed), max_vertices=14, product_cap=1 << 12
        )
        return scramble_positions(tn, np.random.default_rng(scramble_seed))

    def test_no_false_contact_error(self):
        # the sweep raises the first crossing, at a point on both bonds'
        # bounding boxes, not a contact error
        tn = self.scrambled(72, 79)
        pos = {vid: v.position for vid, v in tn.vertices.items()}
        i, j, (x, y) = network._find_crossing(tn.bonds, pos)
        for b in (tn.bonds[i], tn.bonds[j]):
            x0, y0, x1, y1 = network._bbox(pos[b.endpoint_a[0]], pos[b.endpoint_b[0]])
            assert x0 <= x <= x1 and y0 <= y <= y1
        with pytest.raises(PlanarizeError, match=rf"^bond {i} .* crosses bond {j} "):
            sweep_contract(tn)

    def test_disjoint_boxes_never_cross(self):
        # a pair from the (215, 222) network: rounding flipped the signs and
        # put the reported point at x = 4.9776, outside [0.5631, 4.7253]
        p1, p2 = (4.811205381621382, 6.610561018214321), (5.643232401795098, 6.302578914656843)
        q1, q2 = (0.563122256188159, 8.18302626914426), (4.725276889091575, 6.642368203850345)
        assert network._proper_crossing(p1, p2, q1, q2) is None
        assert network._proper_crossing(q1, q2, p1, p2) is None


def ring_with_far_vertex(n_bonds, far):
    """Bonds and positions of a ring: ``n_bonds`` unit bonds along the x
    axis, closed by two long bonds through one vertex ``far`` above the
    middle of the line.  Crossing-free for every ``far > 0``."""
    pos = {i: (float(i), 0.0) for i in range(n_bonds + 1)}
    apex = n_bonds + 1
    pos[apex] = (n_bonds / 2, float(far))
    bonds = [Bond((i, 1), (i + 1, 0), 2) for i in range(n_bonds)]
    bonds += [Bond((n_bonds, 1), (apex, 0), 2), Bond((apex, 1), (0, 0), 2)]
    return bonds, pos


def random_segments(rng, n_points=40, n_short=60, n_long=3):
    """Bonds between random points: mostly between near neighbours, plus a
    few between arbitrary points, which the grid keeps off its cells."""
    pts = rng.uniform(0.0, 30.0, size=(n_points, 2))
    pos = {i: (float(x), float(y)) for i, (x, y) in enumerate(pts)}
    bonds = []
    for _ in range(n_short):
        a = int(rng.integers(n_points))
        b = int(np.argsort(np.hypot(*(pts - pts[a]).T))[rng.integers(1, 4)])
        bonds.append(Bond((a, 0), (b, 0), 2))
    for _ in range(n_long):
        a, b = (int(k) for k in rng.choice(n_points, size=2, replace=False))
        bonds.append(Bond((a, 0), (b, 0), 2))
    order = rng.permutation(len(bonds))
    return [bonds[k] for k in order], pos


def crossing_outcome(fn, bonds, pos):
    try:
        return fn(bonds, pos)
    except PlanarizeError as err:
        return "raised", str(err)


class TestLongBonds:
    """A few bonds much longer than the mean must not blow up the grid."""

    @pytest.mark.parametrize("far", [1, 1000, 10**6])
    def test_ring_registrations_independent_of_far_vertex(self, monkeypatch, far):
        registered = []
        real = network._cells

        def counting(box, side):
            cells = real(box, side)
            if cells is not None:
                registered.append(len(cells))
            return cells

        monkeypatch.setattr(network, "_cells", counting)
        bonds, pos = ring_with_far_vertex(1000, far)
        assert network._find_crossing(bonds, pos) is None
        # the two closing bonds would otherwise cover up to ~far * 500 / 4 cells
        assert sum(registered) <= 4 * len(bonds)

    def test_ring_matches_all_pairs(self):
        for far in (1, 50, 1000):
            bonds, pos = ring_with_far_vertex(200, far)
            assert network._find_crossing(bonds, pos) is None
            assert first_crossing_all_pairs(bonds, pos) is None
            # a long vertical chord through the line crosses a unit bond
            # and one closing bond; both scans must report the same first one
            lo, hi = len(pos), len(pos) + 1
            pos[lo], pos[hi] = (60.5, -2.0 * far), (60.5, 2.0 * far)
            chord = bonds + [Bond((lo, 0), (hi, 0), 2)]
            for order in (chord, chord[::-1]):
                got = network._find_crossing(order, pos)
                assert got is not None
                assert got == first_crossing_all_pairs(order, pos)

    def test_random_long_bonds_match_all_pairs(self):
        hits = 0
        for seed in range(60):
            bonds, pos = random_segments(np.random.default_rng(seed))
            got = crossing_outcome(network._find_crossing, bonds, pos)
            assert got == crossing_outcome(first_crossing_all_pairs, bonds, pos), seed
            hits += got is not None
        assert hits > 30


def two_vertices(position=(1.0, 0.0), tensor=None):
    """Vertex 0 at the origin bonded to vertex 1 at ``position``, which
    holds ``tensor`` (a vector of ones when None)."""
    tensor = DenseTensor(np.ones(2)) if tensor is None else tensor
    vertices = [TNVertex(0, DenseTensor(np.ones(2)), (0.0, 0.0)), TNVertex(1, tensor, position)]
    return TensorNetwork2D(vertices, [Bond((0, 0), (1, 0), 2)])


class TestMalformedVertices:
    """A vertex the sweep cannot read raises the check's typed error, not
    whatever the plan cache's lookup or the sweep would meet first."""

    @pytest.mark.parametrize(
        "position",
        [5.0, None, (1 + 2j, 0.0), ("1", "2"), (0.0,), (1.0, 2.0, 3.0)],
        ids=["float", "None", "complex", "strings", "one", "three"],
    )
    def test_position_that_is_not_two_real_coordinates_raises(self, position):
        tn = two_vertices(position=position)
        for check in (planarize, sweep_contract, sweep_contract):
            with pytest.raises(PlanarizeError, match=r"^vertex 1 position .* is not two real coordinates$"):
                check(tn)

    def test_tensor_that_is_not_a_dense_tensor_raises(self):
        tn = two_vertices(tensor=np.ones(2))
        for check in (planarize, sweep_contract, sweep_contract):
            with pytest.raises(ValueError, match=r"^vertex 1 tensor is a ndarray, not a DenseTensor$"):
                check(tn)

    @pytest.mark.parametrize("position", [[1.0, 0.0], np.array([1.0, 0.0]), (1, 0), (np.float32(1.0), 0.0)])
    def test_any_pair_of_real_coordinates_is_read(self, position):
        assert sweep_contract(two_vertices(position=position)) == sweep_contract(two_vertices())


class TestMalformedBonds:
    """A bond field the sweep would misread raises ``ValueError`` naming
    the bond, not numpy's or Python's error from deep in the sweep."""

    @pytest.mark.parametrize(
        "bond, extent, message",
        [
            (Bond((0, 0.0), (1, 0), 2), 2, r"has axis 0\.0, not an int$"),
            (Bond((0, 0), (1, 0), 0), 0, r"has dimension 0, not an int of at least 1$"),
            (Bond((0, 0), (1, 0), True), 1, r"has dimension True, not an int of at least 1$"),
        ],
        ids=["float axis", "dimension 0", "dimension True"],
    )
    def test_axis_or_dimension_that_is_not_an_int_raises(self, bond, extent, message):
        vertices = [TNVertex(k, DenseTensor(np.ones(extent)), (float(k), 0.0)) for k in (0, 1)]
        tn = TensorNetwork2D(vertices, [bond])
        # 0.0 == 0 and True == 1, so a plan cached for the int fields would
        # stand for this network
        contract._plans.clear()
        for check in (planarize, sweep_contract, sweep_contract):
            with pytest.raises(ValueError, match=r"^Bond\(.*" + message):
                check(tn)

    @pytest.mark.parametrize(
        "bond, extent, message",
        [
            (Bond((0, 0.0), (1, 0), 2), 2, r"^Bond\(.*has axis 0\.0, not an int$"),
            (Bond((0, 0), (1, 0), True), 1, r"^Bond\(.*has dimension True, not an int of at least 1$"),
            (((0, 0), (1, 0), 2), 2, r"is not a Bond between \(vertex id, axis\) tuples$"),
        ],
        ids=["float axis", "dimension True", "plain tuple"],
    )
    def test_a_cached_plan_does_not_pass_an_equal_malformed_bond(self, bond, extent, message):
        # each bad bond equals the int-field Bond of a network swept first,
        # whose plan the cache then holds for the bad network's geometry
        vertices = [TNVertex(k, DenseTensor(np.ones(extent)), (float(k), 0.0)) for k in (0, 1)]
        good = TensorNetwork2D(vertices, [Bond((0, 0), (1, 0), extent)])
        assert good.bonds[0] == bond
        contract._plans.clear()
        want = sweep_contract(good)
        bad = TensorNetwork2D(vertices, [bond])
        for check in (sweep_contract, sweep_contract, planarize):
            with pytest.raises(ValueError, match=message):
                check(bad)
        assert sweep_contract(good) == want

    def test_equal_fresh_bonds_hit_the_cached_plan(self, monkeypatch):
        builds = []
        build = contract.plan_sweep
        monkeypatch.setattr(contract, "plan_sweep", lambda tn, chi: builds.append(tn) or build(tn, chi))
        contract._plans.clear()
        tn = grid_network(np.random.default_rng(4700), 3, 3, dim=2)
        want = sweep_contract(tn)
        fresh = TensorNetwork2D(tn.vertices.values(), [Bond(*b) for b in tn.bonds])
        assert all(a == b and a is not b for a, b in zip(fresh.bonds, tn.bonds))
        assert sweep_contract(fresh) == want
        assert len(builds) == 1

    def test_numpy_ints_are_read(self):
        tn = two_vertices()
        tn.bonds = [Bond((np.int64(0), np.int64(0)), (1, np.int32(0)), np.int64(2))]
        assert sweep_contract(tn) == sweep_contract(two_vertices())


def value(result):
    return result.mantissa * math.exp(result.log_scale)


def collinear_triangle(middle):
    """Vertices 0 at (0, 0), 1 at ``middle`` and 2 at (2, 0), bonded 0-1,
    1-2 and 0-2, each tensor a 2 x 2 matrix of ones."""
    positions = [(0.0, 0.0), middle, (2.0, 0.0)]
    vertices = [TNVertex(k, DenseTensor(np.ones((2, 2))), p) for k, p in enumerate(positions)]
    bonds = [Bond((0, 0), (1, 0), 2), Bond((1, 1), (2, 0), 2), Bond((0, 1), (2, 1), 2)]
    return TensorNetwork2D(vertices, bonds)


class TestVertexOnABondOfItsNeighbours:
    """A vertex on a bond that each of its own bonds shares a vertex with:
    the crossing search skips every such pair of bonds."""

    @pytest.mark.parametrize(
        "middle, vertex, bond",
        [((1.0, 0.0), 1, "2 (0-2)"), ((0.5, 0.0), 1, "2 (0-2)"), ((3.0, 0.0), 2, "0 (0-1)"),
         ((-1.0, 0.0), 0, "1 (1-2)")],
        ids=["midpoint", "off-centre", "beyond-2", "beyond-0"],
    )
    def test_raises_naming_the_vertex_and_the_bond(self, middle, vertex, bond):
        tn = collinear_triangle(middle)
        assert network._find_crossing(tn.bonds, {k: v.position for k, v in tn.vertices.items()}) is None
        message = f"^vertex {vertex} lies on bond {re.escape(bond)}, which it does not end$"
        for check in (planarize, planarize_all_pairs, sweep_contract, sweep_contract):
            with pytest.raises(PlanarizeError, match=message):
                check(tn)

    @pytest.mark.parametrize("middle", [(1.0, 0.5), (1.0, -1e-9)])
    def test_vertex_off_the_bond_is_read(self, middle):
        tn = collinear_triangle(middle)
        assert planarize(tn) is tn
        assert value(sweep_contract(tn)) == pytest.approx(8.0, rel=1e-14)

    def test_parallel_bonds_between_two_vertices_are_read(self):
        # both bonds leave each end along one ray, to the same vertex
        vertices = [TNVertex(k, DenseTensor(np.ones((2, 3))), (float(k), 0.0)) for k in (0, 1)]
        tn = TensorNetwork2D(vertices, [Bond((0, 0), (1, 0), 2), Bond((0, 1), (1, 1), 3)])
        assert planarize(tn) is tn
        assert value(sweep_contract(tn)) == pytest.approx(6.0, rel=1e-14)
