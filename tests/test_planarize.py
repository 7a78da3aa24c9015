"""Grid-bucketed crossing search of ``planarize`` against the all-pairs scan."""

import numpy as np
import pytest

from sweepdecode.sweep import PlanarizeError, network, planarize, sweep_contract

from netgen import grid_network, random_planar_network, scramble_positions
from oracles import assert_matches_oracle, planarize_all_pairs


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
