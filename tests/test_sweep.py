import math

import numpy as np
import pytest

from sweepdecode import DenseTensor
from sweepdecode.sweep import (
    Bond,
    ContractionError,
    MPSState,
    PlanarizeError,
    TensorNetwork2D,
    TNVertex,
    compress_mps,
    parse_network,
    format_network,
    planarize,
    sweep_contract,
    sweep_key,
)
from sweepdecode.sweep import contract

from netgen import grid_network, random_planar_network, scramble_positions
from oracles import assert_matches_oracle, brute_force_value


def value_of(result):
    return result.mantissa * math.exp(result.log_scale)


def chain_network(mats, positions=None):
    """Open chain: rank-1 tensors at the ends, rank-2 in the middle."""
    n = len(mats)
    tn = TensorNetwork2D()
    for i, m in enumerate(mats):
        pos = positions[i] if positions else (0.0, float(i))
        tn.add_vertex(TNVertex(i, DenseTensor(m), pos))
    for i in range(n - 1):
        axis_a = 0 if i == 0 else 1
        tn.add_bond(Bond((i, axis_a), (i + 1, 0), mats[i].shape[-1]))
    return tn


class TestSweepContractExact:
    def test_single_scalar_vertex(self):
        tn = TensorNetwork2D()
        tn.add_vertex(TNVertex(0, DenseTensor(np.array(7.0)), (0.0, 0.0)))
        result = sweep_contract(tn)
        assert value_of(result) == pytest.approx(7.0, rel=1e-15)
        assert result.trunc_error == 0.0

    def test_five_site_chain_matches_matrix_product(self):
        rng = np.random.default_rng(31)
        v0 = rng.normal(size=3)
        m1 = rng.normal(size=(3, 4))
        m2 = rng.normal(size=(4, 2))
        m3 = rng.normal(size=(2, 5))
        v4 = rng.normal(size=5)
        want = v0 @ m1 @ m2 @ m3 @ v4
        tn = chain_network([v0, m1, m2, m3, v4])
        got = value_of(sweep_contract(tn))
        assert got == pytest.approx(want, rel=1e-12)

    def test_horizontal_chain(self):
        # all vertices share y; the x tie-break orders the sweep
        rng = np.random.default_rng(33)
        v0 = rng.normal(size=2)
        m1 = rng.normal(size=(2, 2))
        v2 = rng.normal(size=2)
        want = v0 @ m1 @ v2
        tn = chain_network([v0, m1, v2], positions=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert value_of(sweep_contract(tn)) == pytest.approx(want, rel=1e-12)

    def test_grid_4x4_matches_brute_force(self):
        rng = np.random.default_rng(37)
        tn = grid_network(rng, 4, 4, dim=2, positive=True)
        result = sweep_contract(tn)
        assert_matches_oracle(result, tn, rel=1e-10)

    def test_grid_3x3_dim3(self):
        rng = np.random.default_rng(39)
        tn = grid_network(rng, 3, 3, dim=3)
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-10)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_planar_networks(self, seed):
        rng = np.random.default_rng(1000 + seed)
        tn = random_planar_network(rng)
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_integer_networks_match_exactly(self, seed):
        rng = np.random.default_rng(2000 + seed)
        tn = random_planar_network(rng, integer_elements=True)
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-10)

    def test_embedding_invariance(self):
        rng = np.random.default_rng(41)
        tn = random_planar_network(rng, max_vertices=9)
        base = value_of(sweep_contract(tn))
        angle = 0.37
        c, s = math.cos(angle), math.sin(angle)
        moved = TensorNetwork2D()
        for v in tn.vertices.values():
            x, y = v.position
            moved.add_vertex(TNVertex(v.id, v.tensor, (c * x - s * y + 5.0, s * x + c * y - 2.0)))
        for b in tn.bonds:
            moved.add_bond(Bond(b.endpoint_a, b.endpoint_b, b.dimension))
        assert value_of(sweep_contract(moved)) == pytest.approx(base, rel=1e-12)

    def test_large_scale_factors_survive(self):
        # product of many tiny tensors: value only representable via log_scale
        n = 60
        mats = [np.array([1e-8, 1e-8])] + [np.full((2, 2), 1e-8) for _ in range(n - 2)] + [np.array([1e-8, 1e-8])]
        tn = chain_network(mats)
        result = sweep_contract(tn)
        # each site contributes 1e-8 and each of the n-1 bonds doubles:
        # value = 2^(n-1) * 1e-(8n)
        want_log = (n - 1) * math.log(2.0) + n * math.log(1e-8)
        got_log = math.log(abs(result.mantissa)) + result.log_scale
        assert got_log == pytest.approx(want_log, rel=1e-12)

    def test_validation_errors(self):
        tn = TensorNetwork2D()
        with pytest.raises(ContractionError):
            sweep_contract(tn)
        tn.add_vertex(TNVertex(0, DenseTensor(np.zeros(2)), (0.0, 0.0)))
        with pytest.raises(ValueError):  # dangling axis
            sweep_contract(tn)
        # disconnected: two scalar vertices
        tn2 = TensorNetwork2D()
        tn2.add_vertex(TNVertex(0, DenseTensor(np.array(1.0)), (0.0, 0.0)))
        tn2.add_vertex(TNVertex(1, DenseTensor(np.array(2.0)), (1.0, 0.0)))
        with pytest.raises(ContractionError):
            sweep_contract(tn2)


class TestPlanarize:
    def k4_square(self, rng):
        """Complete graph on four corners of a square; diagonals cross."""
        tn = TensorNetwork2D()
        pos = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
        deg = {i: 0 for i in range(4)}
        axes = []
        for a, b in pairs:
            axes.append((deg[a], deg[b]))
            deg[a] += 1
            deg[b] += 1
        for i in range(4):
            tn.add_vertex(TNVertex(i, DenseTensor(rng.normal(size=(2,) * deg[i])), pos[i]))
        for (a, b), (ax_a, ax_b) in zip(pairs, axes):
            tn.add_bond(Bond((a, ax_a), (b, ax_b), 2))
        return tn

    def test_k4_needs_one_swap(self):
        rng = np.random.default_rng(43)
        tn = self.k4_square(rng)
        flat = planarize(tn)
        assert len(flat.vertices) == 5
        assert len(flat.bonds) == 8
        swap = flat.vertices[4]
        assert swap.tensor.extents == (2, 2, 2, 2)

    def test_k4_value_preserved(self):
        rng = np.random.default_rng(47)
        tn = self.k4_square(rng)
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)

    def test_planar_input_returned_unchanged(self):
        rng = np.random.default_rng(53)
        tn = random_planar_network(rng)
        assert planarize(tn) is tn

    @pytest.mark.parametrize("seed", range(10))
    def test_scrambled_positions_still_contract(self, seed):
        rng = np.random.default_rng(3000 + seed)
        tn = random_planar_network(rng, max_vertices=8, product_cap=1 << 12)
        scrambled = scramble_positions(tn, np.random.default_rng(seed))
        assert_matches_oracle(sweep_contract(scrambled), scrambled, rel=1e-10)

    def test_planarize_preserves_value_directly(self):
        rng = np.random.default_rng(59)
        tn = self.k4_square(rng)
        flat = planarize(tn)
        v_orig = brute_force_value(tn)
        v_flat = brute_force_value(flat)
        got = v_flat[0] * math.exp(v_flat[1] - v_orig[1])
        assert got == pytest.approx(v_orig[0], rel=1e-12)

    def test_bond_through_vertex_rejected(self):
        # vertex 1 sits exactly on the segment from 0 to 2
        tn = TensorNetwork2D()
        tn.add_vertex(TNVertex(0, DenseTensor(np.zeros((2, 2))), (0.0, 0.0)))
        tn.add_vertex(TNVertex(1, DenseTensor(np.zeros((2, 2))), (1.0, 1.0)))
        tn.add_vertex(TNVertex(2, DenseTensor(np.zeros((2, 2))), (2.0, 2.0)))
        tn.add_vertex(TNVertex(3, DenseTensor(np.zeros((2, 2))), (0.0, 2.0)))
        tn.add_bond(Bond((0, 0), (2, 0), 2))
        tn.add_bond(Bond((1, 0), (3, 0), 2))
        tn.add_bond(Bond((0, 1), (3, 1), 2))
        tn.add_bond(Bond((1, 1), (2, 1), 2))
        with pytest.raises(PlanarizeError):
            planarize(tn)

    def test_triple_crossing_resolves(self):
        # three bonds through one point: nudging must split them pairwise
        rng = np.random.default_rng(61)
        tn = TensorNetwork2D()
        pos = [(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, 0.0), (1.0, 0.0)]
        for i in range(6):
            tn.add_vertex(TNVertex(i, DenseTensor(rng.normal(size=(2, 2))), pos[i]))
        tn.add_bond(Bond((0, 0), (1, 0), 2))
        tn.add_bond(Bond((2, 0), (3, 0), 2))
        tn.add_bond(Bond((4, 0), (5, 0), 2))
        # close remaining axes without adding crossing-free degeneracies:
        # top and bottom edges, plus a second middle bond through (0, 0)
        tn.add_bond(Bond((0, 1), (3, 1), 2))
        tn.add_bond(Bond((2, 1), (1, 1), 2))
        tn.add_bond(Bond((4, 1), (5, 1), 2))
        flat = planarize(tn)
        flat.validate_closed()
        assert len(flat.vertices) > 6
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-10)


class TestCompression:
    def random_mps(self, rng, shapes):
        sites = [rng.normal(size=s) for s in shapes]
        return MPSState(sites=sites, pending=list(range(len(sites))))

    def mps_dense(self, mps):
        out = mps.sites[0]
        for s in mps.sites[1:]:
            out = np.tensordot(out, s, axes=([out.ndim - 1], [0]))
        out = out.reshape(out.shape[1:-1])
        return out * math.exp(mps.log_scale)

    def test_compress_error_matches_actual(self):
        rng = np.random.default_rng(67)
        shapes = [(1, 2, 8), (8, 2, 8), (8, 2, 8), (8, 2, 8), (8, 2, 8), (8, 2, 1)]
        mps = self.random_mps(rng, shapes)
        before = self.mps_dense(mps)
        _, err = compress_mps(mps, chi=4)
        after = self.mps_dense(mps)
        actual = np.linalg.norm(before - after) / np.linalg.norm(before)
        assert err == pytest.approx(actual, abs=1e-10)
        assert mps.max_bond() <= 4
        assert err > 1e-3  # the cut is real for random tensors

    def test_no_truncation_when_bonds_small(self):
        rng = np.random.default_rng(71)
        shapes = [(1, 2, 2), (2, 2, 3), (3, 2, 1)]
        mps = self.random_mps(rng, shapes)
        before = self.mps_dense(mps)
        _, err = compress_mps(mps, chi=8, rel_cutoff=0.0)
        after = self.mps_dense(mps)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_product_state_fixed_point(self):
        rng = np.random.default_rng(73)
        shapes = [(1, 3, 1), (1, 3, 1), (1, 3, 1)]
        mps = self.random_mps(rng, shapes)
        before = self.mps_dense(mps)
        _, err = compress_mps(mps, chi=1)
        assert err == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(self.mps_dense(mps), before, rtol=1e-12)

    def test_single_site_noop(self):
        mps = MPSState(sites=[np.ones((1, 4, 1))], pending=[0])
        _, err = compress_mps(mps, chi=1)
        assert err == 0.0

    def test_approximation_monotone_in_chi(self):
        rng = np.random.default_rng(79)
        errors = {chi: [] for chi in (1, 2, 4)}
        for trial in range(50):
            g = np.random.default_rng(rng.integers(1 << 31))
            tn = grid_network(g, 5, 5, dim=2, positive=True)
            exact = sweep_contract(tn)
            exact_val = exact.log_scale + math.log(abs(exact.mantissa))
            for chi in errors:
                approx = sweep_contract(tn, chi=chi)
                approx_val = approx.log_scale + math.log(abs(approx.mantissa))
                errors[chi].append(abs(approx_val - exact_val))
        med = {chi: np.median(errors[chi]) for chi in errors}
        assert med[1] >= med[2] - 1e-12
        assert med[2] >= med[4] - 1e-12

    def test_truncation_error_reported_when_capped(self):
        rng = np.random.default_rng(83)
        tn = grid_network(rng, 6, 6, dim=2)
        exact = sweep_contract(tn)
        capped = sweep_contract(tn, chi=2)
        assert exact.trunc_error == 0.0
        assert capped.trunc_error > 0.0

    def test_chi_prime_delays_compression(self):
        # with a huge chi_prime no compression ever triggers, so the capped
        # run degenerates to the exact one
        rng = np.random.default_rng(89)
        tn = grid_network(rng, 5, 5, dim=2)
        exact = value_of(sweep_contract(tn))
        lazy = sweep_contract(tn, chi=2, chi_prime=1 << 30)
        assert value_of(lazy) == pytest.approx(exact, rel=1e-12)
        assert lazy.trunc_error == 0.0


class TestTextFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(97)
        tn = random_planar_network(rng, max_vertices=6)
        text = format_network(tn)
        back = parse_network(text)
        assert sorted(back.vertices) == sorted(tn.vertices)
        for vid, v in tn.vertices.items():
            w = back.vertices[vid]
            np.testing.assert_array_equal(w.tensor.densify(), v.tensor.densify())
            assert w.position == v.position
        assert len(back.bonds) == len(tn.bonds)
        v1 = brute_force_value(tn)
        v2 = brute_force_value(back)
        assert v2[0] * math.exp(v2[1]) == pytest.approx(v1[0] * math.exp(v1[1]), rel=1e-12)

    def test_parse_comments_and_hex(self):
        text = """
        # a two-vertex dot product
        tn2d v1 2 1
        v 0 0.0 0.0 1 2 0x1.8p+1 2.0   # tensor [3, 2]
        v 1 0.0 1.0 1 2 4.0 -1.0
        b 0 0 1 0
        """
        tn = parse_network(text)
        assert len(tn.vertices) == 2
        np.testing.assert_array_equal(tn.vertices[0].tensor.elements, [3.0, 2.0])
        got = sweep_contract(tn)
        assert value_of(got) == pytest.approx(10.0, rel=1e-14)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_network("tn2d v2 0 0")
        with pytest.raises(ValueError):
            parse_network("tn2d v1 1 0\nv 0 0.0 0.0 1 2 1.0")  # truncated
        with pytest.raises(ValueError):
            parse_network("tn2d v1 1 0\nq 0")


def with_tensors(tn, rng):
    """Same vertices, positions and bonds as ``tn``; fresh random tensors."""
    out = TensorNetwork2D()
    for v in tn.vertices.values():
        out.add_vertex(TNVertex(v.id, DenseTensor(rng.normal(size=v.tensor.extents)), v.position))
    for b in tn.bonds:
        out.add_bond(Bond(b.endpoint_a, b.endpoint_b, b.dimension))
    return out


def rebuilt(tn, position=None, dims=None, bond_order=None):
    """Copy of ``tn`` with one vertex moved (``position = (vid, xy)``), some
    bond dimensions changed (``dims = {bond index: dim}``, the endpoint
    tensors resized to match) or the bonds listed in ``bond_order``."""
    dims = dims or {}
    extents = {v.id: list(v.tensor.extents) for v in tn.vertices.values()}
    for k, d in dims.items():
        for vid, axis in (tn.bonds[k].endpoint_a, tn.bonds[k].endpoint_b):
            extents[vid][axis] = d
    rng = np.random.default_rng(len(tn.bonds))
    out = TensorNetwork2D()
    for v in tn.vertices.values():
        pos = position[1] if position and position[0] == v.id else v.position
        arr = v.tensor.elements
        if list(arr.shape) != extents[v.id]:
            arr = rng.normal(size=extents[v.id])
        out.add_vertex(TNVertex(v.id, DenseTensor(arr), pos))
    for k in bond_order or range(len(tn.bonds)):
        b = tn.bonds[k]
        out.add_bond(Bond(b.endpoint_a, b.endpoint_b, dims.get(k, b.dimension)))
    return out


def planarize_counter(monkeypatch):
    calls = []
    real = contract.planarize

    def counting(tn):
        calls.append(tn)
        return real(tn)

    monkeypatch.setattr(contract, "planarize", counting)
    return calls


def plan_cases():
    for seed in range(12):
        tn = random_planar_network(np.random.default_rng(4000 + seed), max_vertices=10, product_cap=1 << 12)
        yield tn
        yield scramble_positions(tn, np.random.default_rng(seed))
    yield grid_network(np.random.default_rng(4100), 4, 4, dim=2)
    yield TestPlanarize().k4_square(np.random.default_rng(4101))


class TestSweepPlanCache:
    def test_cold_and_warm_cache_agree(self):
        swaps = 0
        for k, tn in enumerate(plan_cases()):
            swaps += len(planarize(tn).vertices) - len(tn.vertices)
            sibling = with_tensors(tn, np.random.default_rng(k))
            for chi in (None, 2):
                contract._plans.clear()
                cold = sweep_contract(tn, chi)
                warm_sibling = sweep_contract(sibling, chi)  # tn's plan
                assert sweep_contract(tn, chi) == cold
                contract._plans.clear()
                assert sweep_contract(sibling, chi) == warm_sibling
                assert sweep_contract(tn, chi) == cold
        assert swaps > 20

    def test_coset_style_networks_plan_once(self, monkeypatch):
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        base = scramble_positions(
            random_planar_network(np.random.default_rng(4200), max_vertices=10, product_cap=1 << 12),
            np.random.default_rng(4201),
        )
        for k in range(4):
            net = with_tensors(base, np.random.default_rng(4300 + k))
            assert_matches_oracle(sweep_contract(net, None), net, rel=1e-10)
        assert len(calls) == 1

    @pytest.mark.parametrize("change", ["moved vertex", "bond dimension", "bond order"])
    def test_changed_geometry_gets_fresh_plan(self, monkeypatch, change):
        tn = TestPlanarize().k4_square(np.random.default_rng(4400))
        if change == "moved vertex":
            other = rebuilt(tn, position=(2, (1.5, 1.25)))
        elif change == "bond dimension":
            other = rebuilt(tn, dims={4: 3})  # a diagonal: its swap changes shape
        else:
            other = rebuilt(tn, bond_order=[5, 3, 1, 0, 4, 2])
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        sweep_contract(tn)
        warm = sweep_contract(other)
        assert len(calls) == 2
        assert_matches_oracle(warm, other, rel=1e-12)
        contract._plans.clear()
        assert sweep_contract(other) == warm

    def test_cache_is_bounded(self, monkeypatch):
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        nets = [grid_network(np.random.default_rng(k), 2, k + 2) for k in range(contract.PLAN_CACHE_SIZE + 1)]
        for tn in nets:
            sweep_contract(tn)
        assert len(contract._plans) == contract.PLAN_CACHE_SIZE
        sweep_contract(nets[-1])
        assert len(calls) == len(nets)
        sweep_contract(nets[0])  # the oldest plan was evicted
        assert len(calls) == len(nets) + 1

    @staticmethod
    def non_contiguous_network():
        """Vertices 0 and 1 share a point, so the zero-length bond between
        them leaves vertex 1's bond to 5 between vertex 0's bonds to 3 and
        to 2, although it departs left of both; vertex 3's backward bonds
        then sit in slots 0 and 2."""
        pos = {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (1.0, 1.0), 3: (-1.0, 2.0), 5: (-3.0, 3.0)}
        pairs = [(0, 3), (0, 1), (0, 2), (1, 5), (2, 3)]
        return network_from_pairs(pos, pairs)

    @pytest.mark.parametrize("case", ["dangling axis", "disconnected", "non-contiguous"])
    def test_invalid_network_raises_every_call(self, case):
        if case == "dangling axis":
            tn = chain_network([np.ones(2), np.ones((2, 2)), np.ones(2)])
            tn.bonds.pop()
            kind = ValueError
        elif case == "disconnected":
            tn = TensorNetwork2D()
            tn.add_vertex(TNVertex(0, DenseTensor(np.array(1.0)), (0.0, 0.0)))
            tn.add_vertex(TNVertex(1, DenseTensor(np.array(2.0)), (1.0, 0.0)))
            kind = ContractionError
        else:
            tn = self.non_contiguous_network()
            kind = ContractionError
        contract._plans.clear()
        for _ in range(3):
            with pytest.raises(kind) as err:
                sweep_contract(tn)
            if case == "non-contiguous":
                assert "not contiguous" in str(err.value)
        assert not contract._plans


def network_from_pairs(pos, pairs, dim=2, rng=None):
    """Network on the vertices of ``pos`` with one bond per vertex pair."""
    rng = rng or np.random.default_rng(0)
    degree = {vid: 0 for vid in pos}
    axes = []
    for a, b in pairs:
        axes.append((degree[a], degree[b]))
        degree[a] += 1
        degree[b] += 1
    tn = TensorNetwork2D()
    for vid, xy in pos.items():
        tn.add_vertex(TNVertex(vid, DenseTensor(rng.normal(size=(dim,) * degree[vid])), xy))
    for (a, b), (ax_a, ax_b) in zip(pairs, axes):
        tn.add_bond(Bond((a, ax_a), (b, ax_b), dim))
    return tn


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["mid-sweep", "last vertex"])
    @pytest.mark.parametrize("chi", [None, 2])
    def test_non_finite_element_raises(self, bad, where, chi):
        tn = grid_network(np.random.default_rng(4500), 4, 4, dim=2)
        order = sorted(tn.vertices.values(), key=sweep_key)
        v = order[len(order) // 2] if where == "mid-sweep" else order[-1]
        arr = v.tensor.elements.copy()
        arr[(0,) * arr.ndim] = bad
        tn.vertices[v.id] = TNVertex(v.id, DenseTensor(arr), v.position)
        with pytest.raises(ContractionError):
            sweep_contract(tn, chi)
