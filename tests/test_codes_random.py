import numpy as np
import pytest

from sweepdecode.codes.graphs import code_distances
from sweepdecode.codes.random import (
    TRI_HEIGHT,
    TRI_WIDTH,
    _rng,
    _triangulation_graph,
    random_quadrangulation_code,
    random_triangulation_code,
)
from sweepdecode.pauli import format_code, validate_code

from oracles import brute_force_distances


class TestTriangulation:
    def test_d3_smoke(self):
        code = random_triangulation_code(3, seed=0)
        validate_code(code)
        assert code.family == "rand_tri"
        assert code.claimed_distance >= 3
        assert brute_force_distances(code, 2) == (None, None)

    def test_deterministic(self):
        a = format_code(random_triangulation_code(3, seed=7))
        b = format_code(random_triangulation_code(3, seed=7))
        assert a == b
        c = format_code(random_triangulation_code(3, seed=8))
        assert c != a

    def test_delivered_distances_hold_at_d3(self):
        for seed in range(30):
            code = random_triangulation_code(3, seed=seed)
            assert code.claimed_distance >= 3

    def test_first_draw_rarely_needs_resampling(self):
        ok = 0
        for seed in range(100):
            rng = _rng("rand_tri", 3, seed)
            try:
                g = _triangulation_graph(3, rng, TRI_WIDTH * 3, TRI_HEIGHT * 3)
                dx, dz = code_distances(g)
            except Exception:
                continue
            if dx >= 3 and dz >= 3:
                ok += 1
        assert ok >= 95

    def test_mean_distances_track_d(self):
        for d in (8, 12):
            dxs, dzs = [], []
            for seed in range(12):
                rng = _rng("rand_tri", d, seed)
                g = _triangulation_graph(d, rng, TRI_WIDTH * d, TRI_HEIGHT * d)
                dx, dz = code_distances(g)
                dxs.append(dx)
                dzs.append(dz)
            assert 0.75 * d <= np.mean(dxs) <= 1.35 * d
            assert 0.75 * d <= np.mean(dzs) <= 1.35 * d

    def test_rejects_distance_below_two(self):
        with pytest.raises(ValueError):
            random_triangulation_code(1, seed=0)


@pytest.mark.parametrize("build", [random_triangulation_code,
                                   random_quadrangulation_code])
def test_claimed_distance_meets_d_beyond_d4(build):
    for seed in range(3):
        assert build(8, seed).claimed_distance >= 8


class TestQuadrangulation:
    def test_d3_smoke(self):
        code = random_quadrangulation_code(3, seed=0)
        validate_code(code)
        assert code.family == "rand_quad"
        assert code.claimed_distance >= 3
        assert brute_force_distances(code, 2) == (None, None)

    def test_faces_are_quads(self):
        code = random_quadrangulation_code(3, seed=1)
        z_weights = {int(c.z.sum()) for c in code.checks if c.z.any()}
        assert z_weights <= {2, 3, 4}
        assert 4 in z_weights

    def test_deterministic(self):
        a = format_code(random_quadrangulation_code(3, seed=5))
        b = format_code(random_quadrangulation_code(3, seed=5))
        assert a == b

    def test_delivered_distances_hold_at_d3(self):
        for seed in range(10):
            code = random_quadrangulation_code(3, seed=seed)
            assert code.claimed_distance >= 3
