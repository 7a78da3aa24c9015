"""Grid-bucketed crossing search of ``planarize`` against the all-pairs scan."""

import numpy as np
import pytest

from sweepdecode.sweep import Bond, PlanarizeError, network, planarize, sweep_contract

from netgen import grid_network, random_planar_network, scramble_positions
from oracles import assert_matches_oracle, first_crossing_all_pairs, planarize_all_pairs


def snapshot(tn):
    """Vertex ids, positions and extents plus the ordered bond list."""
    vertices = [(v.id, v.position, v.tensor.extents) for v in tn.vertices.values()]
    bonds = [(b.endpoint_a, b.endpoint_b, b.dimension) for b in tn.bonds]
    return vertices, bonds


def outcome(fn, tn):
    try:
        out = fn(tn)
    except PlanarizeError as err:
        return "raised", str(err)
    return "planarized", out is tn, snapshot(out)


def equivalence_cases():
    for seed in range(100):
        tn = random_planar_network(
            np.random.default_rng(seed), max_vertices=14, product_cap=1 << 12
        )
        yield f"random{seed}", tn
        yield f"random{seed}-scrambled", scramble_positions(tn, np.random.default_rng(10_000 + seed))
    for seed in range(20):
        rng = np.random.default_rng(20_000 + seed)
        tn = grid_network(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        yield f"grid{seed}", tn
        # integer positions put vertices on other bonds, so most of these raise
        yield f"grid{seed}-scrambled", scramble_positions(tn, rng)


class TestGridSearchMatchesAllPairs:
    def test_identical_outputs_and_errors(self):
        swaps = raised = 0
        for name, tn in equivalence_cases():
            got = outcome(planarize, tn)
            assert got == outcome(planarize_all_pairs, tn), name
            if got[0] == "raised":
                raised += 1
            else:
                swaps += len(got[2][0]) - len(tn.vertices)
        # the set must exercise both swap insertion and degenerate contact
        assert swaps > 1000
        assert raised > 10


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
        tn = self.scrambled(72, 79)
        result = sweep_contract(tn)
        assert_matches_oracle(result, tn, rel=1e-10)
        assert result.mantissa * np.exp(result.log_scale) == pytest.approx(-0.25953301, rel=1e-6)

    def test_no_bogus_swaps(self):
        tn = self.scrambled(215, 222)
        flat = planarize(tn)
        assert len(flat.vertices) - len(tn.vertices) == 29
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-10)

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
