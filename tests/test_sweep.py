import functools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sweepdecode import DenseTensor
from sweepdecode.codes import graphs, lattices, subsystem
from sweepdecode.codes.random import random_quadrangulation_code, random_triangulation_code
from sweepdecode.sweep import (
    Bond,
    ContractionError,
    MPSState,
    PlanarizeError,
    TensorNetwork2D,
    TNVertex,
    compress_mps,
    contract_step,
    planarize,
    sweep_contract,
    sweep_key,
)
from sweepdecode.sweep import contract

from netgen import (
    coset_geometry_network,
    depolarised_coset_network,
    grid_network,
    random_planar_network,
)
from oracles import (
    assert_matches_oracle,
    compress_mps_reference,
    contract_step_reference,
    plan_unrotated,
    sweep_checking_every_step,
)


def value_of(result):
    return result.mantissa * math.exp(result.log_scale)


def chain_network(mats, positions=None):
    """Open chain: rank-1 tensors at the ends, rank-2 in the middle."""
    n = len(mats)
    vertices = [
        TNVertex(i, DenseTensor(m), positions[i] if positions else (0.0, float(i)))
        for i, m in enumerate(mats)
    ]
    bonds = [Bond((i, 0 if i == 0 else 1), (i + 1, 0), mats[i].shape[-1]) for i in range(n - 1)]
    return TensorNetwork2D(vertices, bonds)


class TestSweepContractExact:
    def test_single_scalar_vertex(self):
        tn = TensorNetwork2D([TNVertex(0, DenseTensor(np.array(7.0)), (0.0, 0.0))])
        result = sweep_contract(tn)
        assert value_of(result) == pytest.approx(7.0, rel=1e-15)

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

    @pytest.mark.slow
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
        vertices = []
        for v in tn.vertices.values():
            x, y = v.position
            vertices.append(TNVertex(v.id, v.tensor, (c * x - s * y + 5.0, s * x + c * y - 2.0)))
        moved = TensorNetwork2D(vertices, tn.bonds)
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
        with pytest.raises(ContractionError):
            sweep_contract(TensorNetwork2D())
        tn = TensorNetwork2D([TNVertex(0, DenseTensor(np.zeros(2)), (0.0, 0.0))])
        with pytest.raises(ValueError):  # dangling axis
            sweep_contract(tn)
        # disconnected: two scalar vertices
        tn2 = TensorNetwork2D([
            TNVertex(0, DenseTensor(np.array(1.0)), (0.0, 0.0)),
            TNVertex(1, DenseTensor(np.array(2.0)), (1.0, 0.0)),
        ])
        with pytest.raises(ContractionError):
            sweep_contract(tn2)


K4_CROSSED = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]  # diagonals cross
K4_NESTED = [(0.0, 0.0), (2.0, 0.0), (1.0, 2.0), (1.0, 0.7)]  # vertex 3 inside


def k4_network(rng, pos):
    """Complete graph on four vertices at ``pos``; bonds 4 and 5 are
    0-2 and 1-3, the diagonals of ``K4_CROSSED``."""
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    deg = {i: 0 for i in range(4)}
    axes = []
    for a, b in pairs:
        axes.append((deg[a], deg[b]))
        deg[a] += 1
        deg[b] += 1
    vertices = [TNVertex(i, DenseTensor(rng.normal(size=(2,) * deg[i])), pos[i]) for i in range(4)]
    bonds = [Bond((a, ax_a), (b, ax_b), 2) for (a, b), (ax_a, ax_b) in zip(pairs, axes)]
    return TensorNetwork2D(vertices, bonds)


RANDOM_CODES = {
    "random_triangulation": random_triangulation_code,
    "random_quadrangulation": random_quadrangulation_code,
}


def planarity_cases():
    """Codes whose coset-network drawing must be crossing-free: every
    regular family and subsystem at d=3, square, triangular, hexagonal and
    subsystem at d=5, subsystem at d=7, and random triangulation and
    quadrangulation codes at d=5, seeds 0-2."""
    regular = lattices.PRIMAL_FAMILIES + tuple(lattices.DUAL_OF_PRIMAL.values())
    # trunc_hex d=3, which asanoha dualizes, takes ~10 s to build
    cases = [pytest.param(f, 3, 0, marks=pytest.mark.slow if f in ("trunc_hex", "asanoha") else ())
             for f in (*regular, "subsystem")]
    cases += [(f, 5, 0) for f in ("square", "triangular", "hexagonal", "subsystem")]
    cases += [("subsystem", 7, 0)]
    return cases + [(f, 5, seed) for f in RANDOM_CODES for seed in range(3)]


class TestPlanarize:
    def test_k4_crossing_raises_every_call(self):
        tn = k4_network(np.random.default_rng(47), K4_CROSSED)
        contract._plans.clear()
        for _ in range(3):
            with pytest.raises(PlanarizeError, match=r"bond 4 \(0-2\) crosses bond 5 \(1-3\)"):
                sweep_contract(tn)
        assert not contract._plans

    def test_k4_value_preserved(self):
        # K4 drawn with one vertex inside the triangle of the others
        tn = k4_network(np.random.default_rng(47), K4_NESTED)
        assert planarize(tn) is tn
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)

    def test_planar_input_returned_unchanged(self):
        rng = np.random.default_rng(53)
        tn = random_planar_network(rng)
        assert planarize(tn) is tn

    @pytest.mark.parametrize("family, d, seed", planarity_cases())
    def test_code_networks_are_planar(self, family, d, seed):
        tn = code_network(family, d, seed)
        assert planarize(tn) is tn

    def test_bond_through_vertex_rejected(self):
        # vertex 1 sits exactly on the segment from 0 to 2
        pos = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 2.0)]
        tn = TensorNetwork2D(
            [TNVertex(i, DenseTensor(np.zeros((2, 2))), p) for i, p in enumerate(pos)],
            [
                Bond((0, 0), (2, 0), 2),
                Bond((1, 0), (3, 0), 2),
                Bond((0, 1), (3, 1), 2),
                Bond((1, 1), (2, 1), 2),
            ],
        )
        with pytest.raises(PlanarizeError):
            planarize(tn)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_position_rejected(self, bad):
        tn = grid_network(np.random.default_rng(62), 3, 3, dim=2)
        tn.vertices[4].position = (1.0, bad)
        with pytest.raises(PlanarizeError, match="vertex 4 has a non-finite position"):
            sweep_contract(tn)


class TestCompression:
    def random_mps(self, rng, shapes):
        sites = [rng.normal(size=s) for s in shapes]
        return MPSState(sites=sites)

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
        _, err = compress_mps(mps, chi=8)
        after = self.mps_dense(mps)
        assert err == 0.0
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
        mps = MPSState(sites=[np.ones((1, 4, 1))])
        _, err = compress_mps(mps, chi=1)
        assert err == 0.0

    def test_truncated_sites_own_their_memory(self):
        # a site cut from a larger SVD factor must not keep that factor alive
        rng = np.random.default_rng(68)
        shapes = [(1, 2, 8), (8, 2, 8), (8, 2, 8), (8, 2, 8), (8, 2, 1)]
        mps = self.random_mps(rng, shapes)
        _, err = compress_mps(mps, chi=2)
        assert err > 0.0
        for site in mps.sites:
            assert site.base is None or site.base.nbytes == site.nbytes

    @pytest.mark.parametrize("rel_cutoff, bond", [(contract.REL_CUTOFF, 1), (0.0, 4)])
    def test_rel_cutoff_drops_noise_rank(self, monkeypatch, rel_cutoff, bond):
        # the middle bond carries a rank-1 matrix plus noise of ~1e-16
        # relative: the cutoff drops the noise, a zero cutoff keeps it
        monkeypatch.setattr(contract, "REL_CUTOFF", rel_cutoff)
        rng = np.random.default_rng(72)
        shapes = [(1, 2, 2), (2, 2, 4), (4, 2, 2), (2, 2, 1)]
        mps = self.random_mps(rng, shapes)
        rank1 = np.outer(rng.normal(size=4), rng.normal(size=4))
        noise = rng.normal(size=(4, 4)) * 1e-16 * np.linalg.norm(rank1)
        mps.sites[1] = np.tensordot(mps.sites[1], rank1 + noise, axes=([2], [0]))
        before = self.mps_dense(mps)
        _, err = compress_mps(mps, chi=8)
        assert [site.shape[2] for site in mps.sites[:-1]] == [2, bond, 2]
        assert err <= 1e-14
        np.testing.assert_allclose(self.mps_dense(mps), before, rtol=1e-12)

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

    def test_chi_prime_delays_compression(self):
        # the buffer chi' = 2 chi: with the largest bond of the exact sweep
        # at exactly 2 chi no compression triggers, so the capped run is
        # the exact one although chi is below that bond
        rng = np.random.default_rng(89)
        tn = grid_network(rng, 5, 5, dim=2)
        chi = max(bond for _, bond in exact_bond_trace(tn)) // 2
        exact = sweep_contract(tn)
        lazy = sweep_contract(tn, chi=chi)
        assert chi > 1
        assert [x.hex() for x in lazy] == [x.hex() for x in exact]

    @staticmethod
    def reference_cases():
        """Shapes for the LAPACK-vs-np.linalg check: tall and wide sites,
        rank-deficient ones (a bond wider than the rank reaching it, and a
        site of rank one) and an all-zero site."""
        rng = np.random.default_rng(91)
        tall = [(1, 4, 8), (8, 4, 16), (16, 2, 8), (8, 3, 1)]
        wide = [(1, 2, 16), (16, 2, 16), (16, 2, 4), (4, 2, 1)]
        for shapes in (tall, wide):
            yield [rng.normal(size=sh) for sh in shapes]
        deficient = [rng.normal(size=sh) for sh in [(1, 2, 8), (8, 2, 8), (8, 2, 8), (8, 2, 1)]]
        deficient[2] = np.einsum("a,b,c->abc", *(rng.normal(size=n) for n in (8, 2, 8)))
        yield deficient
        zero = [rng.normal(size=sh) for sh in [(1, 2, 4), (4, 2, 4), (4, 2, 1)]]
        zero[1] = np.zeros((4, 2, 4))
        yield zero

    @pytest.mark.parametrize("chi", [1, 2, 4, 8])
    @pytest.mark.parametrize("rel_cutoff", [contract.REL_CUTOFF, 0.0])
    def test_matches_np_linalg_reference(self, monkeypatch, chi, rel_cutoff):
        # the same LAPACK algorithms run on both paths; numpy and scipy may
        # link different BLAS builds, so agreement is to rounding, not bits.
        # A zero cutoff keeps the rounding-level singular values of the
        # rank-deficient cases, so both paths carry them through.
        monkeypatch.setattr(contract, "REL_CUTOFF", rel_cutoff)
        for sites in self.reference_cases():
            got = MPSState(sites=[a.copy() for a in sites], log_scale=0.5)
            ref = MPSState(sites=[a.copy() for a in sites], log_scale=0.5)
            _, err = compress_mps(got, chi)
            _, ref_err = compress_mps_reference(ref, chi)
            assert err == pytest.approx(ref_err, rel=1e-13, abs=1e-300)
            assert got.log_scale == pytest.approx(ref.log_scale, rel=1e-13)
            assert [a.shape for a in got.sites] == [a.shape for a in ref.sites]
            for a, b in zip(got.sites, ref.sites):
                assert a.flags.c_contiguous
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max())

    @pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr", "dgesdd"])
    def test_lapack_failure_raises(self, monkeypatch, routine):
        real = getattr(contract._lapack, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(contract._lapack, routine, failing)
        rng = np.random.default_rng(93)
        mps = self.random_mps(rng, [(1, 2, 8), (8, 2, 8), (8, 2, 1)])
        with pytest.raises(ContractionError, match=routine):
            compress_mps(mps, chi=2)
        # the folded 4x4 grid keeps bonds of at most 4, so chi=1 compresses
        with pytest.raises(ContractionError, match=routine):
            sweep_contract(grid_network(rng, 4, 4, dim=2), chi=1)


class TestIdentitySites:
    # Both checks run the unfolded sweep (plan_unrotated), whose steps emit
    # many identity sites; the chosen plan of these grids is paired, and
    # absorbs them in two or three wide steps that emit at most two.

    def test_identity_sites_are_shared_and_read_only(self, monkeypatch):
        tn = grid_network(np.random.default_rng(95), 3, 4, dim=2)
        monkeypatch.setattr(contract, "_identities", {})
        plan = plan_unrotated(tn)
        mps, sites = MPSState(), []
        for step in plan.steps:
            contract_step(mps, step, contract._vertex_tensor(plan, tn.vertices, step.vid))
            sites.extend(mps.sites)
        assert_matches_oracle(contract.SweepValue(mps.mantissa, mps.log_scale), tn, rel=1e-10)
        shared = [a for a in sites if not a.flags.writeable]
        assert len(shared) > 10
        bases = {}
        for a in shared:
            n = a.base.shape[0]
            np.testing.assert_array_equal(a.base, np.eye(n))
            if n <= contract.IDENTITY_MEMO_MAX:
                assert a.base is bases.setdefault(n, a.base)  # one base per size
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 2.0
        assert len(bases) > 1

    def test_equal_steps_share_one_base(self):
        tn = grid_network(np.random.default_rng(96), 3, 3, dim=2)
        plan = plan_unrotated(tn)
        step = plan.steps[0]
        tensor = contract._vertex_tensor(plan, tn.vertices, step.vid)
        first = contract_step(MPSState(), step, tensor).sites
        second = contract_step(MPSState(), step, tensor).sites
        assert [a.shape for a in first] == [a.shape for a in second]
        pairs = [(a, b) for a, b in zip(first, second) if not a.flags.writeable]
        assert pairs and all(a.base is b.base for a, b in pairs)

    def test_vertices_sharing_one_tensor(self, monkeypatch):
        # hosts whose own and absorbed tensors are the same objects still
        # merge by their own recipes
        tn = grid_network(np.random.default_rng(4850), 4, 4, dim=2)
        shared = {}
        for v in tn.vertices.values():
            shared.setdefault(v.tensor.rank, v.tensor)
        tn = TensorNetwork2D(
            [TNVertex(v.id, shared[v.tensor.rank], v.position) for v in tn.vertices.values()],
            tn.bonds,
        )
        contract._plans.clear()
        with monkeypatch.context() as m:
            m.setattr(contract, "MERGE_MEMO_BYTES", 0)
            want = sweep_contract(tn)
        plan = contract._plan_for(tn, None)
        assert sweep_contract(tn) == sweep_contract(tn) == want
        assert len(plan.memo.arrays) == len(plan.steps)

    def test_memo_is_bounded_in_bytes(self, monkeypatch):
        # the top vertex of a triangle with two bonds of dimension n below
        # it emits an n x n identity site
        monkeypatch.setattr(contract, "_identities", {})
        widest = contract.IDENTITY_MEMO_MAX
        pos = {0: (0.0, 0.0), 1: (-1.0, 1.0), 2: (1.0, 1.0)}
        for n in range(2, widest + 6):
            tn = network_from_pairs(pos, [(0, 1), (0, 2), (1, 2)], dim=n)
            assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)
        memo = contract._identities
        assert max(memo) == widest
        assert sum(eye.nbytes for eye in memo.values()) <= 8 * sum(n * n for n in range(widest + 1))
        # a wider identity is built afresh on every call, read-only too
        wide = contract._identity(widest + 1), contract._identity(widest + 1)
        assert wide[0] is not wide[1]
        assert not wide[0].flags.writeable
        assert max(memo) == widest


@functools.cache
def netgen_corpus():
    """Networks for the head and trigger checks: random planar ones, grids
    of dimension 2 and 3, and larger grids, whose boundaries compress many
    times.  Grids are bipartite, so their plans fold, which halves their
    compressions; the 7x7 grid of dimension 3 brings them back above 30
    at chi=8."""
    rng = np.random.default_rng(4600)
    seeds = lambda k: [np.random.default_rng(s) for s in rng.integers(1 << 31, size=k)]
    planar = [random_planar_network(g) for g in seeds(24)]
    planar += [random_planar_network(g) for g in seeds(24)]
    grids = [
        grid_network(g, int(g.integers(2, 6)), int(g.integers(2, 6)), dim=int(g.integers(2, 4)))
        for g in seeds(12)
    ]
    large = [grid_network(g, 8, 8, dim=2) for g in seeds(3)]
    large += [grid_network(g, 6, 6, dim=3) for g in seeds(3)]
    large += [grid_network(g, 7, 7, dim=3) for g in seeds(1)]
    return planar + grids + large


class TestIdentityHead:
    @pytest.mark.parametrize("chi", [None, 1, 2, 4, 8])
    def test_head_is_identities_and_skipping_it_changes_no_bit(self, monkeypatch, chi):
        real_step, real_compress = contract.contract_step, contract.compress_mps
        heads = []

        def checked_step(mps, step, tensor):
            real_step(mps, step, tensor)
            assert 0 <= mps.head <= max(len(mps.sites) - 1, 0)
            for site in mps.sites[: mps.head]:
                left, leg, right = site.shape
                assert right == left * leg
                np.testing.assert_array_equal(site.reshape(right, right), np.eye(right))
            return mps

        def checked_compress(mps, chi):
            heads.append(mps.head)
            full = MPSState(sites=list(mps.sites), log_scale=mps.log_scale)  # head 0
            _, full_err = real_compress(full, chi)
            _, err = real_compress(mps, chi)
            assert mps.head == 0
            assert err.hex() == full_err.hex()
            assert mps.log_scale.hex() == full.log_scale.hex()
            assert [a.shape for a in mps.sites] == [a.shape for a in full.sites]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(mps.sites, full.sites))
            return mps, err

        corpus = netgen_corpus()
        assert len(corpus) > 50
        monkeypatch.setattr(contract, "contract_step", checked_step)
        monkeypatch.setattr(contract, "compress_mps", checked_compress)
        for tn in corpus:
            sweep_contract(tn, chi)
        if chi is None:
            assert not heads
        else:
            # the skip is exercised, and not on every compression
            assert max(heads) >= 2 and min(heads) == 0

    @pytest.mark.parametrize(
        "shape", [(1, 1), (4, 4), (3, 8), (16, 16), (8, 17), (20, 20), (12, 40)]
    )
    def test_upper_triangle_matches_np_triu(self, shape):
        a = np.asfortranarray(np.random.default_rng(4601).normal(size=shape))
        a[a < -1.0] = -0.0
        r = contract._upper(a)
        assert r.flags.c_contiguous
        assert r.tobytes() == np.triu(a).tobytes()


def exact_bond_trace(tn, chi=None):
    """``(step.forward >= 2, largest bond)`` after each step of the sweep
    along the plan of ``tn`` at ``chi``, run without compressing; a step
    leaving fewer than two slots makes no new bond."""
    plan = contract._plan_for(tn, chi)
    mps, trace = MPSState(), []
    for step in plan.steps:
        contract_step(mps, step, contract._vertex_tensor(plan, tn.vertices, step.vid))
        trace.append((step.forward >= 2, mps.max_bond()))
    return trace


def record_compressions(monkeypatch):
    """Patch the sweep so that it appends each step it takes to ``steps``
    and, for each compression, the index of the step before it to
    ``fired``; returns ``(steps, fired)``."""
    real_step, real_compress = contract.contract_step, contract.compress_mps
    steps, fired = [], []

    def counting_step(mps, step, tensor):
        steps.append(step)
        return real_step(mps, step, tensor)

    def recording_compress(mps, chi):
        fired.append(len(steps) - 1)
        return real_compress(mps, chi)

    monkeypatch.setattr(contract, "contract_step", counting_step)
    monkeypatch.setattr(contract, "compress_mps", recording_compress)
    return steps, fired


class TestCompressionTrigger:
    @pytest.mark.parametrize("chi", [1, 2, 4, 8])
    def test_matches_check_after_every_step(self, monkeypatch, chi):
        corpus = netgen_corpus()
        expected = [sweep_checking_every_step(tn, chi) for tn in corpus]
        assert sum(len(fired) for _, fired in expected) >= 30

        steps, fired = record_compressions(monkeypatch)
        for tn, (want_value, want_fired) in zip(corpus, expected):
            steps.clear()
            fired.clear()
            value = sweep_contract(tn, chi)
            assert fired == want_fired
            assert all(steps[i].forward >= 2 for i in fired)
            assert [x.hex() for x in value] == [x.hex() for x in want_value]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_compresses_only_above_twice_chi(self, monkeypatch, dim):
        # Until the first compression the boundary is the exact one, so the
        # first compression follows the first growing step whose exact
        # largest bond is above 2 chi, and there is none if no bond is.
        # Bonds of dimension 2 end at an even largest bond, exactly 2 chi
        # for one chi; dimension 3 at an odd one, exactly 2 chi + 1.
        # Plans are made per chi, so each chi is traced along its own plan.
        tn = grid_network(np.random.default_rng(4605), 4, 4, dim=dim)
        largest = max(bond for _, bond in exact_bond_trace(tn))
        steps, fired = record_compressions(monkeypatch)
        first_fired = {}
        for chi in range(1, largest + 1):
            trace = exact_bond_trace(tn, chi)
            steps.clear()
            fired.clear()
            sweep_contract(tn, chi)
            first = [i for i, (grows, bond) in enumerate(trace) if grows and bond > 2 * chi]
            assert fired[:1] == first[:1]
            first_fired[chi] = fired[:1]
        edge = largest // 2
        assert largest == 2 * edge + (dim == 3)
        assert bool(first_fired[edge]) == (dim == 3)
        assert first_fired[edge + 1] == []

    @pytest.mark.parametrize("chi", [0, -1])
    def test_compress_rejects_chi_below_one(self, chi):
        mps = MPSState(sites=[np.ones((1, 2, 2)), np.ones((2, 2, 1))])
        with pytest.raises(ValueError, match="chi must be a positive integer"):
            compress_mps(mps, chi)
        with pytest.raises(ValueError, match="chi must be a positive integer"):
            compress_mps(MPSState(sites=[np.ones((1, 2, 1))]), chi)

    @pytest.mark.parametrize("bad", [float("nan"), 2.0, 2.5, "3", True, False])
    def test_non_integer_chi_raises(self, bad):
        mps = MPSState(sites=[np.ones((1, 2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 1))])
        with pytest.raises(ValueError, match="chi must be a positive integer"):
            compress_mps(mps, bad)
        tn = grid_network(np.random.default_rng(4603), 6, 6, dim=2)
        with pytest.raises(ValueError, match="chi must be a positive integer"):
            sweep_contract(tn, bad)

    def test_numpy_integer_chi_matches_int(self):
        tn = grid_network(np.random.default_rng(4604), 6, 6, dim=2)
        want = [x.hex() for x in sweep_contract(tn, 4)]
        assert [x.hex() for x in sweep_contract(tn, np.int64(4))] == want


def absorption_branches(mps, step):
    """Names of the branches of the absorption kernel that ``step`` takes
    on the boundary ``mps`` (before the step)."""
    lo, hi, n = step.lo, step.hi, len(mps.sites)
    taken = set()
    if hi < lo and 0 < lo < n and mps.sites[lo - 1].shape[2] > 1:
        taken.add("pass-through mid-chain")
    if step.forward == 0 and lo > 0:
        taken.add("fold left")
    if step.forward == 0 and lo == 0 and n > hi - lo + 1:
        taken.add("fold at lo 0")
    if hi - lo + 1 >= 3:
        taken.add("run of 3+")
    if step.forward >= 3:
        taken.add("emits 3+")
    return taken


class TestAbsorptionKernel:
    @pytest.mark.parametrize("chi", [None, 2, 4, 8])
    def test_matches_tensordot_reference(self, monkeypatch, chi):
        # both kernels absorb every step from the same boundary; the batched
        # product sums in another order, so agreement is to rounding
        branches = set()
        for tn in netgen_corpus():
            plan = contract._plan_for(tn, chi)
            mps = MPSState()
            with np.errstate(over="ignore", invalid="ignore"):
                for step in plan.steps:
                    branches |= absorption_branches(mps, step)
                    tensor = contract._vertex_tensor(plan, tn.vertices, step.vid)
                    ref = MPSState(list(mps.sites), mps.log_scale, mps.mantissa, mps.head)
                    contract_step_reference(ref, step, tensor)
                    contract_step(mps, step, tensor)
                    assert [a.shape for a in mps.sites] == [b.shape for b in ref.sites]
                    assert mps.head == ref.head
                    assert mps.log_scale == pytest.approx(ref.log_scale, rel=1e-13, abs=1e-13)
                    assert mps.mantissa == pytest.approx(ref.mantissa, rel=1e-13)
                    for a, b in zip(mps.sites, ref.sites):
                        np.testing.assert_allclose(
                            a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max()
                        )
                    if chi is not None and step.forward >= 2 and mps.max_bond() > 2 * chi:
                        compress_mps(mps, chi)
            value = sweep_contract(tn, chi)
            with monkeypatch.context() as m:
                m.setattr(contract, "contract_step", contract_step_reference)
                want = sweep_contract(tn, chi)
            assert value.mantissa == want.mantissa
            got_log = value.log_scale + math.log(abs(value.mantissa))
            want_log = want.log_scale + math.log(abs(want.mantissa))
            assert got_log == pytest.approx(want_log, rel=1e-12, abs=1e-12)
        assert branches == {
            "pass-through mid-chain", "fold left", "fold at lo 0", "run of 3+", "emits 3+"
        }


class TestNetworkConstruction:
    @staticmethod
    def parts():
        vertices = [
            TNVertex(0, DenseTensor(np.ones((2, 3))), (0.0, 0.0)),
            TNVertex(1, DenseTensor(np.ones(2)), (1.0, 0.0)),
            TNVertex(2, DenseTensor(np.ones(3)), (0.0, 1.0)),
        ]
        bonds = [Bond((0, 0), (1, 0), 2), Bond((0, 1), (2, 0), 3)]
        return vertices, bonds

    def test_valid_network_builds(self):
        vertices, bonds = self.parts()
        tn = TensorNetwork2D(vertices, bonds)
        assert tn.bonds == bonds
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("duplicate vertex", "duplicate vertex id 1"),
            ("missing vertex", "missing vertex 7"),
            ("axis out of range", "axis 1 of rank-1 vertex 2"),
            ("negative axis", "axis -1 of rank-2 vertex 0"),
            ("dimension mismatch", "bond dimension 2 != extent 3 at vertex 0 axis 1"),
            ("self-loop", "self-loop"),
        ],
    )
    def test_constructor_and_add_bond_raise(self, case, message):
        # the constructor rejects a duplicate id; every other fault is
        # found by the check, alone and as sweep_contract plans
        vertices, bonds = self.parts()
        if case == "duplicate vertex":
            vertices.append(TNVertex(1, DenseTensor(np.ones(2)), (2.0, 0.0)))
            with pytest.raises(ValueError, match=message):
                TensorNetwork2D(vertices, bonds)
            return
        if case == "missing vertex":
            bonds[1] = Bond((0, 1), (7, 0), 3)
        elif case == "axis out of range":
            bonds[1] = Bond((0, 1), (2, 1), 3)
        elif case == "negative axis":
            bonds[0] = Bond((0, -1), (1, 0), 2)
        elif case == "dimension mismatch":
            bonds[1] = Bond((0, 1), (2, 0), 2)
        else:
            bonds[1] = Bond((0, 0), (0, 0), 2)
        tn = TensorNetwork2D(vertices, bonds)
        with pytest.raises(ValueError, match=message):
            planarize(tn)
        contract._plans.clear()
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                sweep_contract(tn)
        assert not contract._plans


def with_tensors(tn, rng):
    """Same vertices, positions and bonds as ``tn``; fresh random tensors."""
    return TensorNetwork2D(
        [
            TNVertex(v.id, DenseTensor(rng.normal(size=v.tensor.extents)), v.position)
            for v in tn.vertices.values()
        ],
        tn.bonds,
    )


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
    vertices = []
    for v in tn.vertices.values():
        pos = position[1] if position and position[0] == v.id else v.position
        arr = v.tensor.elements
        if list(arr.shape) != extents[v.id]:
            arr = rng.normal(size=extents[v.id])
        vertices.append(TNVertex(v.id, DenseTensor(arr), pos))
    bonds = []
    for k in bond_order or range(len(tn.bonds)):
        b = tn.bonds[k]
        bonds.append(Bond(b.endpoint_a, b.endpoint_b, dims.get(k, b.dimension)))
    return TensorNetwork2D(vertices, bonds)


def planarize_counter(monkeypatch):
    calls = []
    real = contract.planarize

    def counting(tn):
        calls.append(tn)
        return real(tn)

    monkeypatch.setattr(contract, "planarize", counting)
    return calls


def plan_cases():
    for seed in range(24):
        yield random_planar_network(np.random.default_rng(4000 + seed), max_vertices=10, product_cap=1 << 12)
    yield grid_network(np.random.default_rng(4100), 4, 4, dim=2)
    yield k4_network(np.random.default_rng(4101), K4_NESTED)


class TestSweepPlanCache:
    def test_cold_and_warm_cache_agree(self):
        folds = set()
        for k, tn in enumerate(plan_cases()):
            sibling = with_tensors(tn, np.random.default_rng(k))
            for chi in (None, 2):
                contract._plans.clear()
                cold = sweep_contract(tn, chi)
                folds.add(contract._plan_for(tn, chi).fold)
                warm_sibling = sweep_contract(sibling, chi)  # tn's plan
                assert sweep_contract(tn, chi) == cold
                contract._plans.clear()
                assert sweep_contract(sibling, chi) == warm_sibling
                assert sweep_contract(tn, chi) == cold
        # cached plans both folded and unfolded
        assert 0 in folds and len(folds) > 1

    def test_coset_style_networks_plan_once(self, monkeypatch):
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        base = random_planar_network(
            np.random.default_rng(4200), max_vertices=10, product_cap=1 << 12
        )
        for k in range(4):
            net = with_tensors(base, np.random.default_rng(4300 + k))
            assert_matches_oracle(sweep_contract(net, None), net, rel=1e-10)
        assert len(calls) == 1

    @pytest.mark.parametrize("change", ["moved vertex", "bond dimension", "bond order"])
    def test_changed_geometry_gets_fresh_plan(self, monkeypatch, change):
        tn = k4_network(np.random.default_rng(4400), K4_NESTED)
        if change == "moved vertex":
            other = rebuilt(tn, position=(2, (1.5, 2.25)))
        elif change == "bond dimension":
            other = rebuilt(tn, dims={4: 3})
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

    @pytest.mark.parametrize(
        "case",
        [
            "dangling axis",
            "slot used twice",
            "disconnected",
            "non-contiguous",
            "self-loop",
            "self-loop in chain",
            "edited dimension",
            "edited missing vertex",
        ],
    )
    def test_invalid_network_raises_every_call(self, case):
        # each network is edited after construction, which checks nothing
        # but the vertex ids
        kind = ValueError
        if case == "dangling axis":
            tn = chain_network([np.ones(2), np.ones((2, 2)), np.ones(2)])
            tn.bonds.pop()
            message = "dangling axis 1 on vertex 1"
        elif case == "slot used twice":
            tn = chain_network([np.ones(2), np.ones((2, 2)), np.ones(2)])
            tn.bonds[1] = Bond((1, 0), (2, 0), 2)
            message = r"slot \(1, 0\) used by two bonds"
        elif case == "disconnected":
            tn = TensorNetwork2D([
                TNVertex(0, DenseTensor(np.array(1.0)), (0.0, 0.0)),
                TNVertex(1, DenseTensor(np.array(2.0)), (1.0, 0.0)),
            ])
            kind, message = ContractionError, "network is not connected"
        elif case == "non-contiguous":
            tn = self.non_contiguous_network()
            kind, message = ContractionError, "not contiguous"
        elif case == "self-loop":
            tn = TensorNetwork2D([TNVertex(0, DenseTensor(np.eye(2)), (0.0, 0.0))])
            tn.bonds.append(Bond((0, 0), (0, 1), 2))
            message = "self-loop"
        elif case == "self-loop in chain":
            tn = chain_network([np.ones(2), np.ones((2, 2, 2, 2)), np.ones(2)])
            tn.bonds.append(Bond((1, 2), (1, 3), 2))
            message = "self-loop"
        elif case == "edited dimension":
            tn = TensorNetwork2D(*TestNetworkConstruction.parts())
            tn.bonds[1] = Bond((0, 1), (2, 0), 2)
            message = "bond dimension 2 != extent 3 at vertex 0 axis 1"
        else:
            tn = TensorNetwork2D(*TestNetworkConstruction.parts())
            tn.bonds[1] = Bond((0, 1), (7, 0), 3)
            message = "missing vertex 7"
        contract._plans.clear()
        for _ in range(3):
            with pytest.raises(kind, match=message):
                sweep_contract(tn)
        assert not contract._plans


def run_plan(plan, tn):
    """The exact sweep of ``tn`` along ``plan``: ``(SweepValue, largest
    bond)``."""
    mps = MPSState()
    widest = 0
    for step in plan.steps:
        contract_step(mps, step, contract._vertex_tensor(plan, tn.vertices, step.vid))
        widest = max(widest, mps.max_bond())
    return contract.SweepValue(mps.mantissa, mps.log_scale), widest


def assert_same_value(got, want):
    """Equal signs and values within 1e-12 relative."""
    assert got.mantissa == want.mantissa
    assert got.log_scale == pytest.approx(want.log_scale, abs=1e-12)


@functools.cache
def code_of(family, d, seed=0):
    """The ``family`` code of distance ``d`` (and ``seed``, for a family of
    ``RANDOM_CODES``)."""
    if family == "subsystem":
        return subsystem.subsystem_code(d)
    if family in RANDOM_CODES:
        return RANDOM_CODES[family](d, seed)
    return graphs.surface_code_from_graph(lattices.regular_lattice(family, d), family=family)


@functools.cache
def code_network(family, d, seed=0):
    """Coset-network geometry of the ``family`` code of distance ``d``
    (and ``seed``, for a family of ``RANDOM_CODES``)."""
    return coset_geometry_network(code_of(family, d, seed), np.random.default_rng(d))


class TestSweepFrame:
    def test_corpus_values_match_unturned_plan(self):
        turned = 0
        for tn in netgen_corpus():
            plan = contract._build_plan(tn, None)
            turned += plan.turns != 0
            assert_same_value(run_plan(plan, tn)[0], run_plan(plan_unrotated(tn), tn)[0])
        assert turned > 0

    # the unturned exact sweep of a square, triangular or hexagonal code at
    # d=7 keeps 4096-wide bonds, sites of 268 MB
    @pytest.mark.parametrize(
        "family, d",
        [(f, d) for f in ("square", "triangular", "hexagonal", "subsystem") for d in (3, 5)]
        + [("subsystem", 7)],
    )
    def test_code_values_match_unturned_plan(self, family, d):
        tn = code_network(family, d)
        want = run_plan(plan_unrotated(tn), tn)[0]
        assert want.mantissa == 1.0
        assert_same_value(run_plan(contract._build_plan(tn, None), tn)[0], want)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_square_codes_keep_their_frame(self, d):
        # every frame of an unfolded square code costs the same, and a tie
        # keeps 0
        tn = code_network("square", d)
        unfolded = [c for c in contract._candidates(tn, None) if c.fold == 0]
        assert len(unfolded) == 4
        assert len({c.seconds for c in unfolded}) == 1
        plan = contract._choose(unfolded)
        assert plan.turns == 0
        assert plan.steps == plan_unrotated(tn).steps

    def test_subsystem_d5_sweeps_its_short_side(self):
        # folded, generators into qubits, the exact sweep keeps bonds of 32
        # (64 unfolded along the short side)
        tn = code_network("subsystem", 5)
        plan = contract._build_plan(tn, None)
        assert plan.turns % 2 == 1
        assert run_plan(plan, tn)[1] == 32
        assert run_plan(plan_unrotated(tn), tn)[1] == 128

    def test_triangular_d9_contracts_exactly_in_well_under_a_second(self):
        # unturned, its largest bond is 4096 and a sweep takes ~20 s
        tn = code_network("triangular", 9)
        contract._plans.clear()
        start = time.perf_counter()
        sweep_contract(tn)
        assert time.perf_counter() - start < 1.0
        assert run_plan(contract._plan_for(tn), tn)[1] <= 128

    def test_turned_frames_that_fail_are_skipped(self, monkeypatch):
        tn = code_network("subsystem", 3)
        assert contract._build_plan(tn, None).turns != 0
        replay = contract._replay

        def failing(layout, turns):
            if turns:
                raise ContractionError("turned replay fails")
            return replay(layout, turns)

        monkeypatch.setattr(contract, "_replay", failing)
        candidates = contract._candidates(tn, None)
        assert {c.turns for c in candidates} == {0}
        want = plan_unrotated(tn)
        assert [c.steps for c in candidates if c.fold == 0] == [want.steps]
        assert contract._build_plan(tn, None).turns == 0


def network_from_pairs(pos, pairs, dim=2, rng=None):
    """Network on the vertices of ``pos`` with one bond per vertex pair."""
    rng = rng or np.random.default_rng(0)
    degree = {vid: 0 for vid in pos}
    axes = []
    for a, b in pairs:
        axes.append((degree[a], degree[b]))
        degree[a] += 1
        degree[b] += 1
    vertices = [
        TNVertex(vid, DenseTensor(rng.normal(size=(dim,) * degree[vid])), xy)
        for vid, xy in pos.items()
    ]
    bonds = [Bond((a, ax_a), (b, ax_b), dim) for (a, b), (ax_a, ax_b) in zip(pairs, axes)]
    return TensorNetwork2D(vertices, bonds)


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


# Folded candidates whose modelled peak is above this many elements (an
# exact sweep along a code's long side) are not run.
FOLD_PEAK_CAP = 1 << 20


def fold_cases():
    """The code networks the fold checks run on: square, triangular,
    hexagonal and subsystem codes at d=3 and d=5, and subsystem d=7."""
    cases = [(f, d) for f in ("square", "triangular", "hexagonal", "subsystem") for d in (3, 5)]
    return cases + [("subsystem", 7)]


def unfolded_best(candidates):
    return contract._choose([c for c in candidates if c.fold == 0])


def every_fold_crosses():
    """A bipartite planar network each of whose two folds crosses itself."""
    pos = {
        0: (2.8, 9.1), 1: (8.2, 2.9), 2: (8.3, 9.0), 3: (2.8, 8.9),
        4: (4.0, 5.7), 5: (1.9, 8.4), 6: (8.9, 4.8), 7: (5.5, 2.1),
    }
    pairs = [(0, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 5), (4, 7), (5, 7)]
    return network_from_pairs(pos, pairs, rng=np.random.default_rng(4700))


class TestFold:
    @staticmethod
    def assert_folds_match(tn):
        """Every folded candidate of ``tn`` that is run, paired or not,
        sweeps exactly to the unfolded plan's value; returns how many were
        run and how many of those were paired."""
        want = run_plan(plan_unrotated(tn), tn)[0]
        run = paired = 0
        for c in contract._candidates(tn, None):
            if c.fold and c.peak <= FOLD_PEAK_CAP:
                plan = contract._plan_of(c)
                assert plan.pairs == c.pairs
                assert_same_value(run_plan(plan, tn)[0], want)
                run += 1
                paired += c.pairs is not None
        return run, paired

    def test_corpus_folds_match_unfolded(self):
        run, paired = map(sum, zip(*(self.assert_folds_match(tn) for tn in netgen_corpus())))
        assert run > 50 and paired > 50

    @pytest.mark.parametrize("family, d", fold_cases())
    def test_code_folds_match_unfolded(self, family, d):
        run, paired = self.assert_folds_match(code_network(family, d))
        # subsystem d=7's paired forms all hold more than FOLD_PEAK_CAP
        # (2.2M elements at least), so none of them is run there
        assert run >= 2 and (paired >= 1 or (family, d) == ("subsystem", 7))

    def test_odd_cycles_keep_the_unfolded_plan(self):
        odd = 0
        for tn in netgen_corpus():
            if contract._colour_classes(contract._layout(tn)) is None:
                odd += 1
                assert {c.fold for c in contract._candidates(tn, None)} == {0}
                assert contract._build_plan(tn, None).fold == 0
        assert odd > 20

    def test_folds_that_cross_are_no_candidates(self):
        tn = every_fold_crosses()
        assert planarize(tn) is tn
        base = contract._layout(tn)
        classes = contract._colour_classes(base)
        assert classes is not None
        keys = {vid: sweep_key(v) for vid, v in tn.vertices.items()}
        for absorbed, hosts in (classes, classes[::-1]):
            assert contract._fold(base, contract._assign(base, hosts, absorbed, keys)) is None
        for chi in (None, 1):
            assert {c.fold for c in contract._candidates(tn, chi)} == {0}
            assert contract._build_plan(tn, chi).fold == 0
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)

    @staticmethod
    def folds(tn):
        """``(fold, assignment, folded layout)`` of each fold of ``tn``
        that does not cross, as :func:`contract._candidates` makes them."""
        base = contract._layout(tn)
        classes = contract._colour_classes(base)
        keys = {vid: sweep_key(v) for vid, v in tn.vertices.items()}
        out = []
        for fold, (absorbed, hosts) in ((1, classes), (2, classes[::-1])):
            assignment = contract._assign(base, hosts, absorbed, keys)
            folded = contract._fold(base, assignment)
            if folded is not None:
                out.append((fold, assignment, folded))
        return base, out

    def test_pairs_cover_each_host_once(self):
        pairings = 0
        for tn in [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus()):
            if contract._colour_classes(contract._layout(tn)) is None:
                continue
            base, folds = self.folds(tn)
            for _, assignment, folded in folds:
                members = dict(assignment)
                for turns in range(4):
                    pairs = contract._pair(folded, assignment, turns)
                    pairings += 1
                    # each host heads one group or sits in exactly one
                    groups = [(h, *group) for h, group in pairs]
                    assert sorted(v for g in groups for v in g) == sorted(base.positions)
                    heads = {h for h, _ in pairs}
                    for h, group in pairs:
                        partners = [u for u in group if u in members]
                        assert len(partners) <= 1
                        if partners:
                            u = partners[0]
                            assert u not in heads
                            assert group == (*members[h], u, *members[u])
                        else:
                            assert group == members[h]
        assert pairings > 100

    def test_last_host_of_a_chain_stays_alone(self):
        # a chain 0-1-2-3-4 along x; folding class 1 into class 0 gives the
        # hosts 0 (with 1), 2 (with 3) and 4 in a row
        mats = [np.ones(2), np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), np.ones(2)]
        tn = chain_network(mats, [(float(i), 0.0) for i in range(5)])
        _, folds = self.folds(tn)
        (_, assignment, folded), = [f for f in folds if f[0] == 2]
        assert assignment == ((0, (1,)), (2, (3,)), (4, ()))
        # frame 0 sweeps 0, 2, 4: 0 takes 2, and 4 has no later neighbour
        assert contract._pair(folded, assignment, 0) == ((0, (1, 2, 3)), (4, ()))
        # two quarter turns sweep 4, 2, 0: 4 takes 2, and 0 stays alone
        assert contract._pair(folded, assignment, 2) == ((0, (1,)), (4, (2, 3)))

    def test_pairings_that_cross_are_no_candidates(self):
        # square d=5 folded class 1 into class 0 and paired in frame 1
        # draws crossing bonds
        tn = code_network("square", 5)
        base, folds = self.folds(tn)
        crossing = set()
        for fold, assignment, folded in folds:
            for turns in range(4):
                if contract._fold(base, contract._pair(folded, assignment, turns)) is None:
                    crossing.add((fold, turns))
        assert (2, 1) in crossing
        for chi in (None, 8):
            formed = {(c.fold, c.pairs) for c in contract._candidates(tn, chi)}
            assert not formed & crossing
            assert {(f, p) for f, _, _ in folds for p in range(4)} - crossing <= formed

    # the benchmark's codes, square d=5 at chi=8 and subsystem d=5 exact
    @pytest.mark.parametrize(
        "family, chi, fold, pairs, turns, steps",
        [("square", 8, 2, None, 2, 40), ("subsystem", None, 1, 2, 1, 25)],
    )
    def test_benchmark_code_plans(self, family, chi, fold, pairs, turns, steps):
        plan = contract._build_plan(code_network(family, 5), chi)
        assert (plan.fold, plan.pairs, plan.turns, len(plan.steps)) == (fold, pairs, turns, steps)

    def test_model_constants_match_their_record(self):
        # scripts/plan_model.py --fit writes the fitted constants to
        # BENCH_plan_model.json, and they are copied into contract.py by hand
        path = Path(__file__).resolve().parents[1] / "BENCH_plan_model.json"
        recorded = json.loads(path.read_text())["constants"]
        names = [n for n in dir(contract) if n.startswith("MODEL_SECONDS_PER_")]
        assert recorded == {n: getattr(contract, n) for n in names}

    # the benchmark's codes and noise
    @pytest.mark.parametrize("family, p, chi", [("square", 0.15, 8), ("subsystem", 0.05, None)])
    def test_modelled_peak_bounds_traced_peak(self, family, p, chi, monkeypatch):
        # the chosen plan and every paired candidate of at most 1 MB: the
        # modelled peak is never more than 15% below what one cold sweep of
        # a decoder's coset network holds.  The model prices a cold sweep,
        # which builds every merged tensor; the memo that keeps them is
        # resident memory, bounded apart, so here it keeps none.
        monkeypatch.setattr(contract, "MERGE_MEMO_BYTES", 0)
        tn = depolarised_coset_network(code_of(family, 5), p, np.random.default_rng(0))
        candidates = contract._candidates(tn, chi)
        chosen = contract._choose(candidates)
        checked = [chosen] + [c for c in candidates if c.pairs is not None and 8 * c.peak <= 1 << 20]
        for c in checked:
            plan = contract._plan_of(c)
            contract._run(plan, tn.vertices, chi)  # warm the identity memo
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                contract._run(plan, tn.vertices, chi)
                traced = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert 8 * c.peak >= 0.85 * traced, (c.fold, c.pairs, c.turns)
        assert len(checked) > 5

    def test_chosen_peak_is_never_above_unfolded(self):
        folded = guarded = 0
        networks = [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus())
        for tn in networks:
            for chi in (None, 8):
                candidates = contract._candidates(tn, chi)
                unfolded = unfolded_best(candidates)
                chosen = contract._choose(candidates)
                assert chosen.peak <= unfolded.peak
                folded += chosen.fold != 0
                fastest = min(candidates, key=lambda c: (c.seconds, c.fold, c.turns))
                guarded += fastest.peak > unfolded.peak
        # the guard binds on some networks, and folds win on others
        assert folded > 20 and guarded > 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["host", "absorbed"])
    @pytest.mark.parametrize("chi", [None, 1])
    def test_non_finite_element_raises(self, bad, where, chi):
        tn = grid_network(np.random.default_rng(4500), 4, 4, dim=2)
        host, merge = next(
            (h, m) for h, m in contract._plan_for(tn, chi).merges.items() if m.products
        )
        vid = host if where == "host" else merge.products[0][0]
        v = tn.vertices[vid]
        arr = v.tensor.elements.copy()
        arr[(0,) * arr.ndim] = bad
        tn.vertices[vid] = TNVertex(vid, DenseTensor(arr), v.position)
        with pytest.raises(ContractionError):
            sweep_contract(tn, chi)


def variant_networks(tn, rng, count, kinds=2):
    """``count`` networks of ``tn``'s geometry whose vertices each take one
    of ``kinds`` tensors, fixed per vertex, at random: tensor objects that
    networks share, as a decoder's coset networks share them."""
    choices = {
        vid: [v.tensor] + [
            DenseTensor(rng.uniform(0.1, 1.0, size=v.tensor.extents)) for _ in range(kinds - 1)
        ]
        for vid, v in tn.vertices.items()
    }
    return [
        TensorNetwork2D(
            [TNVertex(vid, choices[vid][rng.integers(kinds)], v.position) for vid, v in tn.vertices.items()],
            tn.bonds,
        )
        for _ in range(count)
    ]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def entry_bytes(key, array):
    """What a memo entry counts: its array and the tensors of its key."""
    return array.nbytes + sum(t.elements.nbytes for t in key[1:])


def memo_bytes(memo):
    """What ``memo.nbytes`` should read."""
    return sum(entry_bytes(key, a) for key, a in memo.arrays.items())


class TestMergeMemo:
    @pytest.mark.parametrize("family, d", fold_cases())
    def test_hits_are_fresh_builds_bit_for_bit(self, family, d):
        tn = code_network(family, d)
        networks = variant_networks(tn, np.random.default_rng(d), 6)
        plans = [
            contract._plan_of(c) for c in contract._candidates(tn, None)
            if c.fold and c.peak <= FOLD_PEAK_CAP
        ]
        assert plans
        for plan in plans:
            for net in networks:
                for step in plan.steps:
                    contract._vertex_tensor(plan, net.vertices, step.vid)
            filled = dict(plan.memo.arrays)
            assert len(filled) > len(plan.steps)  # several variants per host
            fresh = plan._replace(memo=contract._MergeMemo())
            for net in networks:
                for step in plan.steps:
                    hit = contract._vertex_tensor(plan, net.vertices, step.vid)
                    assert any(hit is a for a in filled.values())
                    built = contract._vertex_tensor(fresh, net.vertices, step.vid)
                    assert same_bits(hit, built)
            assert plan.memo.arrays == filled  # every read hit
            for a in filled.values():
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 2.0
            assert plan.memo.nbytes == memo_bytes(plan.memo)

    @pytest.mark.parametrize("family, d", [("square", 5), ("subsystem", 5), ("hexagonal", 5)])
    @pytest.mark.parametrize("chi", [None, 8])
    def test_warm_sweeps_equal_cold_ones_bit_for_bit(self, family, d, chi, monkeypatch):
        networks = variant_networks(code_network(family, d), np.random.default_rng(7), 8)
        contract._plans.clear()
        plan = contract._plan_for(networks[0], chi)
        with monkeypatch.context() as m:
            m.setattr(contract, "MERGE_MEMO_BYTES", 0)  # every sweep builds every tensor
            unmemoized = [sweep_contract(net, chi) for net in networks]
        assert not plan.memo.arrays
        cold = [sweep_contract(net, chi) for net in networks]
        assert plan.fold == 0 or plan.memo.arrays
        warm = [sweep_contract(net, chi) for net in networks]
        assert warm == cold == unmemoized

    def test_equal_elements_in_distinct_tensors_miss(self):
        tn = grid_network(np.random.default_rng(4800), 4, 4, dim=2)
        twin = TensorNetwork2D(
            [TNVertex(v.id, DenseTensor(v.tensor.elements), v.position) for v in tn.vertices.values()],
            tn.bonds,
        )
        contract._plans.clear()
        plan = contract._plan_for(tn, None)
        assert plan.merges
        first = sweep_contract(tn)
        entries = len(plan.memo.arrays)
        assert entries == len(plan.steps)
        assert sweep_contract(twin) == first
        assert len(plan.memo.arrays) == 2 * entries

    def test_vertices_sharing_one_tensor(self, monkeypatch):
        # hosts whose own and absorbed tensors are the same objects still
        # merge by their own recipes
        tn = grid_network(np.random.default_rng(4850), 4, 4, dim=2)
        shared = {}
        for v in tn.vertices.values():
            shared.setdefault(v.tensor.rank, v.tensor)
        tn = TensorNetwork2D(
            [TNVertex(v.id, shared[v.tensor.rank], v.position) for v in tn.vertices.values()],
            tn.bonds,
        )
        contract._plans.clear()
        with monkeypatch.context() as m:
            m.setattr(contract, "MERGE_MEMO_BYTES", 0)
            want = sweep_contract(tn)
        plan = contract._plan_for(tn, None)
        assert sweep_contract(tn) == sweep_contract(tn) == want
        assert len(plan.memo.arrays) == len(plan.steps)

    def test_memo_is_bounded_in_bytes(self, monkeypatch):
        tn = grid_network(np.random.default_rng(4900), 3, 3, dim=2)
        contract._plans.clear()
        plan = contract._plan_for(tn, None)
        sweep_contract(tn)
        widest = max(entry_bytes(key, a) for key, a in plan.memo.arrays.items())
        cap = 3 * widest
        monkeypatch.setattr(contract, "MERGE_MEMO_BYTES", cap)
        plan.memo.clear()
        rng = np.random.default_rng(4901)
        for _ in range(20):
            net = with_tensors(tn, rng)  # fresh tensors: every build misses
            assert_matches_oracle(sweep_contract(net), net, rel=1e-10)
            assert 0 < plan.memo.nbytes <= cap
            assert plan.memo.nbytes == memo_bytes(plan.memo)
        # an entry larger than the bound alone is not kept
        plan.memo.clear()
        monkeypatch.setattr(contract, "MERGE_MEMO_BYTES", 1)
        sweep_contract(with_tensors(tn, rng))
        assert not plan.memo.arrays and plan.memo.nbytes == 0
