import dataclasses
import functools
import importlib.util
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from sweepdecode import DenseTensor
from sweepdecode.codes import graphs, lattices, subsystem
from sweepdecode.codes.random import random_quadrangulation_code, random_triangulation_code
from sweepdecode.sweep import (
    Bond,
    ContractionError,
    PlanarizeError,
    TensorNetwork2D,
    TNVertex,
    planarize,
    sweep_contract,
    sweep_key,
)
from sweepdecode.sweep import contract, network
from sweepdecode.sweep import plan as planner
from sweepdecode.sweep.contract import MPSState, compress_mps, contract_step

from netgen import (
    coset_geometry_network,
    depolarised_coset_network,
    depolarised_coset_networks,
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


def arrays_of(plan, tn, memo=None):
    """The ``(array, exponent)`` pairs the steps of ``plan`` absorb for the
    network ``tn``, in step order and built as each is read, as
    ``sweep_contract`` builds them, with the memo of step arrays ``memo``
    (a fresh one by default)."""
    return contract._step_arrays(plan, memo or contract._MergeMemo(), tn.vertices)


def live_record(mps, step, tensor):
    """The record ``contract_step`` absorbs ``tensor`` by at ``step`` on
    the chain of ``mps`` as it is, made afresh."""
    return contract._live_record({}, mps, step, tensor.shape)


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
        # at exactly 2 chi no compression triggers, so the capped run along
        # the same plan is the exact one although chi is below that bond
        rng = np.random.default_rng(89)
        tn = grid_network(rng, 5, 5, dim=2)
        chi = max(bond for _, bond in exact_bond_trace(tn)) // 2
        exact = sweep_contract(tn)
        capped = dataclasses.replace(planner.plan_sweep(tn, None), chi=chi)
        lazy = contract.run(capped, arrays_of(capped, tn))
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
        for step, (tensor, e) in zip(plan.steps, arrays_of(plan, tn)):
            contract_step(mps, step, tensor, live_record(mps, step, tensor))
            mps.exponent += e
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
        step, (tensor, _) = plan.steps[0], next(arrays_of(plan, tn))
        record = live_record(MPSState(), step, tensor)
        first = contract_step(MPSState(), step, tensor, record).sites
        second = contract_step(MPSState(), step, tensor, record).sites
        assert [a.shape for a in first] == [a.shape for a in second]
        pairs = [(a, b) for a, b in zip(first, second) if not a.flags.writeable]
        assert pairs and all(a.base is b.base for a, b in pairs)

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


def read_only_head(sites):
    """How many sites at the left end of ``sites`` are read-only: the
    identities :func:`contract.compress_mps` skips."""
    return next((k for k, site in enumerate(sites) if site.flags.writeable), len(sites))


class TestIdentityHead:
    @pytest.mark.parametrize("chi", [None, 1, 2, 4, 8])
    def test_head_is_identities_and_skipping_it_changes_no_bit(self, monkeypatch, chi):
        real_step, real_compress = contract.contract_step, contract.compress_mps
        heads = []

        def checked_step(mps, step, tensor, *record):
            real_step(mps, step, tensor, *record)
            head = read_only_head(mps.sites)
            for k, site in enumerate(mps.sites):
                if site.flags.writeable:
                    continue
                # an identity fed from the left, (l, d, l * d), or from the
                # right, (d * r, d, r); those of the head from the left
                left, leg, right = site.shape
                n = max(left, right)
                assert left * leg * right == n * n and (k >= head or right == left * leg)
                np.testing.assert_array_equal(site.reshape(n, n), np.eye(n))
            return mps

        def checked_compress(mps, chi):
            heads.append(read_only_head(mps.sites))
            copies = [site.copy() for site in mps.sites]  # writeable: no head
            full = MPSState(sites=copies, log_scale=mps.log_float)
            full.exponent, full._low, full._high = mps.exponent, mps._low, mps._high
            _, full_err = real_compress(full, chi)
            _, err = real_compress(mps, chi)
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
    plan, memo = contract._plan_for(tn, chi)
    mps, trace = MPSState(), []
    for step, (tensor, _) in zip(plan.steps, arrays_of(plan, tn, memo)):
        contract_step(mps, step, tensor, live_record(mps, step, tensor))
        trace.append((step.forward >= 2, mps.max_bond()))
    return trace


def record_compressions(monkeypatch):
    """Patch the sweep so that it appends each step it takes to ``steps``
    and, for each compression, the index of the step before it to
    ``fired``; returns ``(steps, fired)``."""
    real_step, real_compress = contract.contract_step, contract.compress_mps
    steps, fired = [], []

    def counting_step(mps, step, tensor, *record):
        steps.append(step)
        return real_step(mps, step, tensor, *record)

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

    @pytest.mark.parametrize(
        "bad", [float("nan"), 2.0, 2.5, "3", True, False, np.array(2.0), np.array([2])]
    )
    def test_non_integer_chi_raises(self, bad):
        mps = MPSState(sites=[np.ones((1, 2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 1))])
        with pytest.raises(ValueError, match="chi must be a positive integer"):
            compress_mps(mps, bad)
        tn = grid_network(np.random.default_rng(4603), 6, 6, dim=2)
        # plans cached at chi 1 and 2, which True, 2.0 and np.array(2.0) equal
        sweep_contract(tn, 1)
        sweep_contract(tn, 2)
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
            plan, memo = contract._plan_for(tn, chi)
            mps = MPSState()
            with np.errstate(over="ignore", invalid="ignore"):
                for step, (tensor, _) in zip(plan.steps, arrays_of(plan, tn, memo)):
                    branches |= absorption_branches(mps, step)
                    ref = MPSState(list(mps.sites), mps.log_scale, mps.mantissa)
                    contract_step_reference(ref, step, tensor)
                    contract_step(mps, step, tensor, live_record(mps, step, tensor))
                    assert [a.shape for a in mps.sites] == [b.shape for b in ref.sites]
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
    real = planner.planarize

    def counting(tn):
        calls.append(tn)
        return real(tn)

    monkeypatch.setattr(planner, "planarize", counting)
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
                folds.add(contract._plan_for(tn, chi)[0].fold)
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

    # the benchmark's codes and noise
    @pytest.mark.parametrize("family, p, chi", [("square", 0.15, 8), ("subsystem", 0.05, None)])
    def test_benchmark_coset_networks_plan_once(self, family, p, chi, monkeypatch):
        # eight coset networks, the four cosets of two syndromes, each built
        # anew: equal geometry in distinct objects still hits
        code = code_of(family, 5)
        networks = [depolarised_coset_network(code, p, np.random.default_rng(k)) for k in range(8)]
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        values = [sweep_contract(net, chi) for net in networks]
        assert len(calls) == 1 and len(contract._plans) == 1
        plan = planner.plan_sweep(networks[0], chi)
        assert values == [contract.run(plan, arrays_of(plan, net)) for net in networks]

    @pytest.mark.parametrize(
        "edit", ["position reassigned", "position list edited", "bond replaced", "bond appended"]
    )
    def test_edit_after_caching_misses(self, monkeypatch, edit):
        tn = k4_network(np.random.default_rng(4450), K4_NESTED)
        position = [1.0, 2.0]
        tn.vertices[2].position = position
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        sweep_contract(tn)
        if edit == "position reassigned":
            tn.vertices[2].position = (1.5, 2.25)
        elif edit == "position list edited":
            position[:] = [1.5, 2.25]
        elif edit == "bond replaced":
            b = tn.bonds[4]
            tn.bonds[4] = Bond(b.endpoint_b, b.endpoint_a, b.dimension)
        else:
            tn.bonds.append(Bond((0, 0), (1, 0), 2))
            for k in range(3):
                with pytest.raises(ValueError, match=r"slot \(0, 0\) used by two bonds"):
                    sweep_contract(tn)
                assert len(calls) == k + 2
            return
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)
        sweep_contract(tn)
        assert len(calls) == 2 and len(contract._plans) == 2

    def test_vertex_order_and_chi_miss(self, monkeypatch):
        tn = grid_network(np.random.default_rng(4460), 3, 3, dim=2)
        calls = planarize_counter(monkeypatch)
        contract._plans.clear()
        sweep_contract(tn)
        sweep_contract(tn, 2)
        assert len(calls) == 2
        tn.vertices = dict(reversed(tn.vertices.items()))
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)
        assert len(calls) == 3 and len(contract._plans) == 3

    def test_bond_fields_cannot_be_assigned(self):
        b = Bond((0, 0), (1, 0), 2)
        for name, value in (("endpoint_a", (0, 1)), ("endpoint_b", (1, 1)), ("dimension", 3)):
            with pytest.raises(AttributeError):
                setattr(b, name, value)
        assert b == Bond((0, 0), (1, 0), 2)

    @pytest.mark.parametrize("case", ["list endpoint", "not a Bond"])
    def test_mutable_bond_raises_every_call(self, case):
        tn = TensorNetwork2D(*TestNetworkConstruction.parts())
        b = tn.bonds[1]
        if case == "list endpoint":
            tn.bonds[1] = Bond(b.endpoint_a, list(b.endpoint_b), b.dimension)
        else:
            tn.bonds[1] = types.SimpleNamespace(**b._asdict())
        contract._plans.clear()
        for _ in range(3):
            with pytest.raises(ValueError, match=r"is not a Bond between \(vertex id, axis\) tuples"):
                sweep_contract(tn)
        assert not contract._plans

    @pytest.mark.parametrize("hashable", [False, True])
    def test_tensor_that_is_not_a_dense_tensor_raises_every_call(self, hashable):
        # a network of a cached geometry skips planarize; its tensors meet
        # planarize's check where the memo of step arrays misses
        contract._plans.clear()
        tn = chain_network([np.ones(2), np.ones(2)])
        assert value_of(sweep_contract(tn)) == 2.0
        duck = types.SimpleNamespace(extents=(2,), elements=np.ones(2), rank=1)
        if hashable:
            duck = type("SimpleNamespace", (), vars(duck))()  # hashes by identity
        bad = TensorNetwork2D([tn.vertices[0], TNVertex(1, duck, tn.vertices[1].position)], tn.bonds)
        message = "vertex 1 tensor is a SimpleNamespace, not a DenseTensor"
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                sweep_contract(bad)
        assert len(contract._plans) == 1
        contract._plans.clear()
        with pytest.raises(ValueError, match=message):
            sweep_contract(bad)

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
    for step, (tensor, e) in zip(plan.steps, arrays_of(plan, tn)):
        contract_step(mps, step, tensor, live_record(mps, step, tensor))
        mps.exponent += e
        widest = max(widest, mps.max_bond())
    return contract.SweepValue(mps.mantissa, mps.log_scale), widest


def uncut(steps):
    """``steps`` with every consumed run chained whole, as a replay makes
    them (``_Step.split`` 0)."""
    return tuple(step._replace(split=0) for step in steps)


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
            plan = planner.plan_sweep(tn, None)
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
        assert_same_value(run_plan(planner.plan_sweep(tn, None), tn)[0], want)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_square_codes_keep_their_frame(self, d):
        # every frame of an unfolded square code costs the same, and a tie
        # keeps 0
        tn = code_network("square", d)
        unfolded = [c for c in planner._candidates(tn, None) if c.fold == 0]
        assert len(unfolded) == 4
        assert len({c.seconds for c in unfolded}) == 1
        plan = planner._choose(unfolded)
        assert plan.turns == 0
        assert uncut(plan.steps) == plan_unrotated(tn).steps

    def test_subsystem_d5_sweeps_its_short_side(self):
        # folded, generators into qubits, the exact sweep keeps bonds of 32
        # (64 unfolded along the short side)
        tn = code_network("subsystem", 5)
        plan = planner.plan_sweep(tn, None)
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
        assert run_plan(contract._plan_for(tn)[0], tn)[1] <= 128

    def test_turned_frames_that_fail_are_skipped(self, monkeypatch):
        tn = code_network("subsystem", 3)
        assert planner.plan_sweep(tn, None).turns != 0
        replay = planner._replay

        def failing(layout, turns):
            if turns:
                raise ContractionError("turned replay fails")
            return replay(layout, turns)

        monkeypatch.setattr(planner, "_replay", failing)
        candidates = planner._candidates(tn, None)
        assert {c.turns for c in candidates} == {0}
        want = plan_unrotated(tn)
        assert [uncut(c.steps) for c in candidates if c.fold == 0] == [want.steps]
        assert planner.plan_sweep(tn, None).turns == 0


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", ["middle", "last"])
    @pytest.mark.parametrize("where", ["mid-sweep", "last vertex"])
    @pytest.mark.parametrize("chi", [None, 2])
    def test_non_finite_element_anywhere_raises(self, bad, index, where, chi):
        # a scale search that passed over a NaN or inf behind a larger
        # finite magnitude would let this one through
        tn = grid_network(np.random.default_rng(4500), 4, 4, dim=2)
        order = sorted(tn.vertices.values(), key=sweep_key)
        v = order[len(order) // 2] if where == "mid-sweep" else order[-1]
        arr = v.tensor.elements.copy()
        arr.reshape(-1)[arr.size // 2 if index == "middle" else -1] = bad
        tn.vertices[v.id] = TNVertex(v.id, DenseTensor(arr), v.position)
        with pytest.raises(ContractionError):
            sweep_contract(tn, chi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 13, 26])
    def test_normalize_site_finds_a_non_finite_element_anywhere(self, bad, index):
        site = np.random.default_rng(4502).normal(size=(3, 3, 3))
        site.reshape(-1)[index] = bad
        mps = MPSState(sites=[site])
        with pytest.raises(ContractionError, match="non-finite"):
            mps._normalize_site(0)

    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_normalize_site_leaves_a_zero_site(self, value):
        site = np.full((2, 3, 2), value)
        mps = MPSState(sites=[site], log_scale=0.5)
        mps._normalize_site(0)
        assert mps.sites[0] is site and mps.log_scale == 0.5
        assert np.signbit(site).all() == np.signbit(value)

    def test_normalize_site_scales_by_the_largest_magnitude(self):
        # the shift is round(log2(max |x|)), as np.abs(x).max() finds it,
        # and the sign of each zero survives it
        rng = np.random.default_rng(4503)
        sites = [rng.normal(size=shape) * 2.0 ** int(rng.integers(-1070, 1000))
                 for shape in [(1, 1, 1), (1, 2, 1), (2, 4, 8), (8, 2, 16), (16, 16, 16)] * 20]
        sites += [np.array([[[-0.0], [-3.0], [0.0], [2.9]]]), np.full((1, 3, 1), 5e-324)]
        for site in sites:
            site[site < -1.5] = -0.0
            got = MPSState(sites=[site.copy()])
            got._normalize_site(0)
            m = np.abs(site).max()
            e = round(math.log2(m)) if m else 0
            assert got.log_scale.hex() == (e * math.log(2.0)).hex()
            assert got.sites[0].tobytes() == np.ldexp(site, -e).tobytes()


# Folded candidates whose modelled peak is above this many elements (an
# exact sweep along a code's long side) are not run.
FOLD_PEAK_CAP = 1 << 20


def fold_cases():
    """The code networks the fold checks run on: square, triangular,
    hexagonal and subsystem codes at d=3 and d=5, and subsystem d=7."""
    cases = [(f, d) for f in ("square", "triangular", "hexagonal", "subsystem") for d in (3, 5)]
    return cases + [("subsystem", 7)]


# The plan of each fold case at chi=8 and exact, as (family, d, chi, fold,
# pairs, turns, steps), but the benchmark's two (test_benchmark_code_plans).
# Subsystem d=3 takes class 1 folded into class 0 and paired in frame 0, a
# form whose drawing crosses itself, as long as its replay succeeds.
FOLD_CASE_PLANS = [
    ("square", 3, 8, 2, 3, 0, 6),
    ("square", 3, None, 2, 3, 0, 6),
    ("square", 5, None, 2, 0, 0, 20),
    ("triangular", 3, 8, 0, None, 1, 41),
    ("triangular", 3, None, 0, None, 1, 41),
    ("triangular", 5, 8, 0, None, 1, 73),
    ("triangular", 5, None, 0, None, 1, 73),
    ("hexagonal", 3, 8, 0, None, 1, 41),
    ("hexagonal", 3, None, 0, None, 1, 41),
    ("hexagonal", 5, 8, 0, None, 1, 73),
    ("hexagonal", 5, None, 0, None, 1, 73),
    ("subsystem", 3, 8, 2, 0, 2, 11),
    ("subsystem", 3, None, 2, 0, 2, 11),
    ("subsystem", 5, 8, 0, None, 1, 105),
    ("subsystem", 7, 8, 0, None, 1, 241),
    ("subsystem", 7, None, 1, None, 1, 109),
]


def unfolded_best(candidates):
    return planner._choose([c for c in candidates if c.fold == 0])


def every_fold_crosses():
    """A bipartite planar network each of whose two folds crosses itself."""
    pos = {
        0: (2.8, 9.1), 1: (8.2, 2.9), 2: (8.3, 9.0), 3: (2.8, 8.9),
        4: (4.0, 5.7), 5: (1.9, 8.4), 6: (8.9, 4.8), 7: (5.5, 2.1),
    }
    pairs = [(0, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 5), (4, 7), (5, 7)]
    return network_from_pairs(pos, pairs, rng=np.random.default_rng(4700))


def crosses(layout):
    """Whether the drawing of ``layout`` crosses itself or puts a vertex
    on a bond, as :func:`planarize` reads a drawing."""
    try:
        return network._find_crossing(layout.bonds, layout.positions) is not None
    except PlanarizeError:
        return True


def merged_by_einsum(tn, layout, group, host):
    """The tensor of merged vertex ``host`` of the folded ``layout`` of
    ``tn``, by ``np.einsum`` over the tensors of the vertices of
    ``group[host]``, each axis labelled by the bond id it carries: one
    output axis per bond of ``host`` in ``layout``, which fuses the bonds
    of ``tn`` between the two groups it joins, in ascending bond id
    order."""
    owner = {v: h for h, members in group.items() for v in members}
    bonds_of = {v: [None] * tn.vertices[v].tensor.rank for v in group[host]}
    for bid, bond in enumerate(tn.bonds):
        for v, axis in (bond.endpoint_a, bond.endpoint_b):
            if v in bonds_of:
                bonds_of[v][axis] = bid
    out = []
    for fbid, _ in sorted(layout.incident[host], key=lambda end: end[1]):
        ends = {layout.bonds[fbid].endpoint_a[0], layout.bonds[fbid].endpoint_b[0]}
        out.append([
            bid for bid, b in enumerate(tn.bonds)
            if {owner[b.endpoint_a[0]], owner[b.endpoint_b[0]]} == ends
        ])
    labels = {bid: k for k, bid in enumerate(dict.fromkeys(b for bids in bonds_of.values() for b in bids))}
    assert len(labels) <= 52  # np.einsum's limit on labels
    operands = []
    for v, bids in bonds_of.items():
        operands += [tn.vertices[v].tensor.elements, [labels[bid] for bid in bids]]
    full = np.einsum(*operands, [labels[bid] for fused in out for bid in fused])
    return full.reshape([math.prod(tn.bonds[bid].dimension for bid in fused) for fused in out])


def assert_merges_match_einsum(tn):
    """Every merged host's step array of the chosen plans of ``tn`` (exact
    and at chi=8) and of each of its paired candidates is the host's
    :func:`merged_by_einsum` tensor in the step's axis order, to 1e-14
    relative; returns how many arrays were checked."""
    exact = planner._candidates(tn, None)
    plans = [planner._choose(exact), planner._choose(planner._candidates(tn, 8))]
    plans += [c for c in exact if c.pairs is not None]
    checked = 0
    oracle = {}  # (id(layout), host) -> merged_by_einsum
    for plan in {(c.fold, c.pairs, c.turns): c for c in plans if c.fold}.values():
        memo = contract._MergeMemo()
        merges = plan.layout.merges
        group = {h: {h, *(vid for vid, _, _ in m.products)} for h, m in merges.items()}
        for step, (got, e) in zip(plan.steps, arrays_of(plan, tn, memo)):
            key = (id(plan.layout), step.vid)
            if key not in oracle:
                oracle[key] = merged_by_einsum(tn, plan.layout, group, step.vid)
            want = np.ldexp(oracle[key].transpose(step.perm), -e)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0)
            checked += 1
    return checked


class TestFold:
    @staticmethod
    def assert_folds_match(tn):
        """Every folded candidate of ``tn`` that is run, paired or not,
        sweeps exactly to the unfolded plan's value; returns how many were
        run and how many of those were paired."""
        want = run_plan(plan_unrotated(tn), tn)[0]
        run = paired = 0
        for plan in planner._candidates(tn, None):
            if plan.fold and plan.peak <= FOLD_PEAK_CAP:
                assert_same_value(run_plan(plan, tn)[0], want)
                run += 1
                paired += plan.pairs is not None
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
            if planner._colour_classes(planner._layout(tn)) is None:
                odd += 1
                assert {c.fold for c in planner._candidates(tn, None)} == {0}
                assert planner.plan_sweep(tn, None).fold == 0
        assert odd > 20

    @staticmethod
    def folds(tn):
        """``(fold, assignment, folded layout)`` of each fold of ``tn``, as
        :func:`plan._candidates` makes them."""
        base = planner._layout(tn)
        classes = planner._colour_classes(base)
        keys = {vid: sweep_key(v) for vid, v in tn.vertices.items()}
        out = []
        for fold, (absorbed, hosts) in ((1, classes), (2, classes[::-1])):
            assignment = planner._assign(base, hosts, absorbed, keys)
            out.append((fold, assignment, planner._fold(base, assignment)))
        return base, out

    @staticmethod
    def crossing_candidates(tn, chi):
        """Assert that each folded form of ``tn``, paired or not, is a
        candidate at ``chi`` in exactly the frames where its replay
        succeeds, with the replay's steps.  Returns the candidates whose
        drawing crosses itself and the ``(fold, pairs, turns)`` of the
        replays that raised."""
        base, folds = TestFold.folds(tn)
        forms = []
        for fold, assignment, folded in folds:
            forms.append((fold, None, folded))
            for pairs in range(4):
                forms.append((fold, pairs, planner._fold(base, planner._pair(folded, assignment, pairs))))
        replays, dropped = {}, []
        for fold, pairs, layout in forms:
            for turns in range(4):
                try:
                    replays[fold, pairs, turns] = planner._replay(layout, turns)
                except ContractionError:
                    dropped.append((fold, pairs, turns))
        candidates = {(c.fold, c.pairs, c.turns): c for c in planner._candidates(tn, chi) if c.fold}
        assert candidates.keys() == replays.keys()
        assert all(uncut(c.steps) == replays[key] for key, c in candidates.items())
        return [c for c in candidates.values() if crosses(c.layout)], dropped

    def test_folds_that_cross_are_candidates_when_they_replay(self):
        tn = every_fold_crosses()
        assert planarize(tn) is tn
        _, folds = self.folds(tn)
        assert all(crosses(folded) for _, _, folded in folds)
        for chi in (None, 1):
            crossing, dropped = self.crossing_candidates(tn, chi)
            assert {c.fold for c in crossing} == {1, 2} and dropped
            # every folded form here comes of a crossing fold
            for c in planner._candidates(tn, chi):
                assert_matches_oracle(run_plan(c, tn)[0], tn, rel=1e-12)
        assert_matches_oracle(sweep_contract(tn), tn, rel=1e-12)

    def test_pairs_cover_each_host_once(self):
        pairings = 0
        for tn in [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus()):
            if planner._colour_classes(planner._layout(tn)) is None:
                continue
            base, folds = self.folds(tn)
            for _, assignment, folded in folds:
                members = dict(assignment)
                for turns in range(4):
                    pairs = planner._pair(folded, assignment, turns)
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
        assert planner._pair(folded, assignment, 0) == ((0, (1, 2, 3)), (4, ()))
        # two quarter turns sweep 4, 2, 0: 4 takes 2, and 0 stays alone
        assert planner._pair(folded, assignment, 2) == ((0, (1,)), (4, (2, 3)))

    def test_pairings_that_cross_are_candidates_when_they_replay(self):
        # square d=5 folded class 1 into class 0 and paired in frame 1
        # draws crossing bonds
        tn = code_network("square", 5)
        want = run_plan(plan_unrotated(tn), tn)[0]
        for chi in (None, 8):
            crossing, dropped = self.crossing_candidates(tn, chi)
            assert (2, 1) in {(c.fold, c.pairs) for c in crossing} and dropped
        run = [c for c in crossing if c.peak <= FOLD_PEAK_CAP]
        assert run
        for c in run:
            assert_same_value(run_plan(c, tn)[0], want)

    # the benchmark's codes, square d=5 at chi=8 and subsystem d=5 exact,
    # then the rest of the fold cases (FOLD_CASE_PLANS)
    @pytest.mark.parametrize(
        "family, chi, fold, pairs, turns, steps",
        [("square", 8, 2, 0, 0, 20), ("subsystem", None, 1, 2, 1, 25)]
        + [
            pytest.param((family, d), chi, *plan, id=f"{family}{d}-{chi}-{'-'.join(map(str, plan))}")
            for family, d, chi, *plan in FOLD_CASE_PLANS
        ],
    )
    def test_benchmark_code_plans(self, family, chi, fold, pairs, turns, steps):
        code = (family, 5) if isinstance(family, str) else family
        plan = planner.plan_sweep(code_network(*code), chi)
        assert (plan.fold, plan.pairs, plan.turns, len(plan.steps)) == (fold, pairs, turns, steps)

    def test_model_constants_match_their_record(self):
        # scripts/plan_model.py --fit writes the fitted constants to
        # BENCH_plan_model.json, and they are copied into plan.py by hand
        path = Path(__file__).resolve().parents[1] / "BENCH_plan_model.json"
        recorded = json.loads(path.read_text())["constants"]
        names = [n for n in dir(planner) if n.startswith("MODEL_SECONDS_PER_")]
        assert recorded == {n: getattr(planner, n) for n in names}

    def test_recorded_constants_fit_their_rows(self, monkeypatch):
        # the constants BENCH_plan_model.json records are what
        # scripts/plan_model.py --fit computes from the file's own rows
        root = Path(__file__).resolve().parents[1]
        # the script prepends to sys.path and sets a BLAS thread count
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
        spec = importlib.util.spec_from_file_location("plan_model", root / "scripts" / "plan_model.py")
        plan_model = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(plan_model)
        record = json.loads((root / "BENCH_plan_model.json").read_text())
        assert plan_model.fitted(record["configurations"]) == record["constants"]

    # the benchmark's codes and noise
    @pytest.mark.parametrize("family, p, chi", [("square", 0.15, 8), ("subsystem", 0.05, None)])
    def test_modelled_peak_bounds_traced_peak(self, family, p, chi, monkeypatch):
        # the chosen plan and every paired candidate of at most 1 MB: the
        # modelled peak is never more than 15% below what one cold sweep of
        # a decoder's coset network holds.  The model prices a warm sweep,
        # whose step arrays the memo holds; a cold one also builds every
        # merged tensor, so it holds more, and bounding it is the stricter
        # check.  The memo is resident memory, bounded apart, so here it
        # keeps nothing.
        monkeypatch.setattr(contract, "MERGE_MEMO_BYTES", 0)
        tn = depolarised_coset_network(code_of(family, 5), p, np.random.default_rng(0))
        candidates = planner._candidates(tn, chi)
        chosen = planner._choose(candidates)
        checked = [chosen] + [c for c in candidates if c.pairs is not None and 8 * c.peak <= 1 << 20]
        for plan in checked:
            contract.run(plan, arrays_of(plan, tn))  # warm the identity memo
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                contract.run(plan, arrays_of(plan, tn))
                traced = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert 8 * plan.peak >= 0.85 * traced, (plan.fold, plan.pairs, plan.turns)
        assert len(checked) > 5

    def test_chosen_peak_is_never_above_unfolded(self):
        folded = guarded = 0
        networks = [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus())
        for tn in networks:
            for chi in (None, 8):
                candidates = planner._candidates(tn, chi)
                unfolded = unfolded_best(candidates)
                chosen = planner._choose(candidates)
                assert chosen.peak <= unfolded.peak
                folded += chosen.fold != 0
                fastest = min(candidates, key=lambda c: (c.seconds, c.fold, c.turns))
                guarded += fastest.peak > unfolded.peak
        # the guard binds on some networks, and folds win on others
        assert folded > 20 and guarded > 0

    @pytest.mark.parametrize("chi", [None, 8])
    def test_every_step_vertex_has_one_recipe(self, chi):
        # every vertex a plan's steps absorb, folded or not, has a recipe;
        # an unfolded one absorbs nothing and keeps its tensor's axes
        unfolded = 0
        for tn in [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus()):
            candidates = planner._candidates(tn, chi)
            for plan in candidates:
                merges = plan.layout.merges
                assert set(merges) == {step.vid for step in plan.steps}
                if not plan.fold:
                    unfolded += 1
                    for vid, merge in merges.items():
                        extents = tn.vertices[vid].tensor.extents
                        assert merge == ((), tuple(range(len(extents))), extents)
            built, chosen = planner.plan_sweep(tn, chi), planner._choose(candidates)
            assert built.fold == chosen.fold and built.pairs == chosen.pairs
            assert built.turns == chosen.turns and built.steps == chosen.steps
        assert unfolded > 100

    @pytest.mark.parametrize("family, d", fold_cases())
    def test_code_merges_match_einsum(self, family, d):
        assert assert_merges_match_einsum(code_network(family, d)) > 20

    def test_corpus_merges_match_einsum(self):
        assert sum(map(assert_merges_match_einsum, netgen_corpus())) > 500

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["host", "absorbed"])
    @pytest.mark.parametrize("chi", [None, 1])
    def test_non_finite_element_raises(self, bad, where, chi):
        tn = grid_network(np.random.default_rng(4500), 4, 4, dim=2)
        host, merge = next(
            (h, m) for h, m in planner.plan_sweep(tn, chi).layout.merges.items() if m.products
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


def entry_bytes(key, entry):
    """What a memo entry, an ``(array, exponent)`` pair, counts: its array
    and the tensors of its key."""
    return entry[0].nbytes + sum(t.elements.nbytes for t in key[1:])


def memo_bytes(memo):
    """What ``memo.nbytes`` should read."""
    return sum(entry_bytes(key, a) for key, a in memo.arrays.items())


def step_arrays(plan, tn, chi, monkeypatch):
    """Every ``(step, array)`` that ``run`` hands to ``contract_step`` in
    one sweep of ``tn`` along ``plan`` at ``chi``."""
    seen, real = [], contract.contract_step

    def recording_step(mps, step, elements, *record):
        seen.append((step, elements))
        return real(mps, step, elements, *record)

    with monkeypatch.context() as m:
        m.setattr(contract, "contract_step", recording_step)
        contract.run(plan, arrays_of(plan, tn))
    return seen


class TestMergeMemo:
    @pytest.mark.parametrize("chi", [None, 8])
    def test_steps_absorb_read_only_c_arrays_in_step_order(self, chi, monkeypatch):
        # the chosen plan and the best unfolded one of every network; every
        # array is at unit scale, and an unfolded step's is its vertex's
        # tensor at unit scale, transposed
        networks = [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus())
        folded = 0
        for tn in networks:
            candidates = planner._candidates(tn, chi)
            for plan in (planner._choose(candidates), unfolded_best(candidates)):
                folded += plan.fold != 0
                arrays = step_arrays(plan, tn, chi, monkeypatch)
                assert [step for step, _ in arrays] == list(plan.steps)
                for step, a in arrays:
                    assert not a.flags.writeable and a.flags.c_contiguous
                    assert a.shape == tuple(plan.layout.merges[step.vid].out[k] for k in step.perm)
                    assert contract._unit_scale(a)[1] == 0  # merged or not
                    if not plan.fold:
                        own, _ = contract._unit_scale(tn.vertices[step.vid].tensor.elements)
                        assert same_bits(a, own.transpose(step.perm))
        assert folded > 20

    def test_rank_0_vertex_stays_0_d(self):
        tn = TensorNetwork2D([TNVertex(0, DenseTensor(np.array(7.0)), (0.0, 0.0))])
        contract._plans.clear()
        assert value_of(sweep_contract(tn)) == pytest.approx(7.0, rel=1e-15)
        ((array, exponent),) = contract._plan_for(tn, None)[1].arrays.values()
        assert type(array) is np.ndarray and array.shape == () and not array.flags.writeable
        assert array * 2.0 ** exponent == 7.0

    @pytest.mark.parametrize("family, d", fold_cases())
    def test_hits_are_fresh_builds_bit_for_bit(self, family, d):
        tn = code_network(family, d)
        networks = variant_networks(tn, np.random.default_rng(d), 6)
        plans = [c for c in planner._candidates(tn, None) if c.fold and c.peak <= FOLD_PEAK_CAP]
        assert plans
        for plan in plans:
            memo = contract._MergeMemo()
            for net in networks:
                list(arrays_of(plan, net, memo))
            filled = dict(memo.arrays)
            assert len(filled) > len(plan.steps)  # several variants per host
            fresh = contract._MergeMemo()
            for net in networks:
                for hit, built in zip(arrays_of(plan, net, memo), arrays_of(plan, net, fresh)):
                    assert any(hit is entry for entry in filled.values())  # the pair itself
                    assert same_bits(hit[0], built[0]) and hit[1] == built[1]
            assert memo.arrays == filled  # every read hit
            for a, _ in filled.values():
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 2.0
            assert memo.nbytes == memo_bytes(memo)

    @pytest.mark.parametrize("family, d", [("square", 5), ("subsystem", 5), ("hexagonal", 5)])
    @pytest.mark.parametrize("chi", [None, 8])
    def test_warm_sweeps_equal_cold_ones_bit_for_bit(self, family, d, chi, monkeypatch):
        networks = variant_networks(code_network(family, d), np.random.default_rng(7), 8)
        contract._plans.clear()
        _, memo = contract._plan_for(networks[0], chi)
        with monkeypatch.context() as m:
            m.setattr(contract, "MERGE_MEMO_BYTES", 0)  # every sweep builds every tensor
            unmemoized = [sweep_contract(net, chi) for net in networks]
        assert not memo.arrays
        cold = [sweep_contract(net, chi) for net in networks]
        assert memo.arrays
        warm = [sweep_contract(net, chi) for net in networks]
        assert warm == cold == unmemoized

    def test_equal_elements_in_distinct_tensors_miss(self):
        tn = grid_network(np.random.default_rng(4800), 4, 4, dim=2)
        twin = TensorNetwork2D(
            [TNVertex(v.id, DenseTensor(v.tensor.elements), v.position) for v in tn.vertices.values()],
            tn.bonds,
        )
        contract._plans.clear()
        plan, memo = contract._plan_for(tn, None)
        assert plan.fold
        first = sweep_contract(tn)
        entries = len(memo.arrays)
        assert entries == len(plan.steps)
        assert sweep_contract(twin) == first
        assert len(memo.arrays) == 2 * entries

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
        plan, memo = contract._plan_for(tn, None)
        assert sweep_contract(tn) == sweep_contract(tn) == want
        assert len(memo.arrays) == len(plan.steps)

    def test_memo_is_bounded_in_bytes(self, monkeypatch):
        tn = grid_network(np.random.default_rng(4900), 3, 3, dim=2)
        contract._plans.clear()
        _, memo = contract._plan_for(tn, None)
        sweep_contract(tn)
        widest = max(entry_bytes(key, a) for key, a in memo.arrays.items())
        cap = 3 * widest
        monkeypatch.setattr(contract, "MERGE_MEMO_BYTES", cap)
        memo.clear()
        rng = np.random.default_rng(4901)
        for _ in range(20):
            net = with_tensors(tn, rng)  # fresh tensors: every build misses
            assert_matches_oracle(sweep_contract(net), net, rel=1e-10)
            assert 0 < memo.nbytes <= cap
            assert memo.nbytes == memo_bytes(memo)
        # an entry larger than the bound alone is not kept
        memo.clear()
        monkeypatch.setattr(contract, "MERGE_MEMO_BYTES", 1)
        sweep_contract(with_tensors(tn, rng))
        assert not memo.arrays and memo.nbytes == 0

    def test_a_key_put_twice_is_counted_once(self):
        # two threads that miss one step array both build and put it
        memo = contract._MergeMemo()
        key, entry = (0, DenseTensor(np.ones((2, 3)))), (np.zeros(4), 0)
        memo.put(key, entry)
        memo.put(key, (entry[0].copy(), 0))
        assert memo.arrays[key] is entry
        assert memo.nbytes == memo_bytes(memo) == entry_bytes(key, entry)

    def test_threads_that_miss_together_count_each_array_once(self):
        # four threads sweep the same networks along one cold plan, so two
        # of them often build and put the same step array
        tn = grid_network(np.random.default_rng(4903), 4, 4, dim=2)
        contract._plans.clear()
        _, memo = contract._plan_for(tn, None)
        nets = variant_networks(tn, np.random.default_rng(4904), 6)
        want = [sweep_contract(net) for net in nets]
        got, errors = [], []

        def sweep_all():
            try:
                got.append([sweep_contract(net) for net in nets])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                memo.clear()
                threads = [threading.Thread(target=sweep_all) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and not errors
                assert memo.nbytes == memo_bytes(memo)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 20 and all(values == want for values in got)


def cut_networks():
    """The networks of the cut checks: every fold case and the netgen
    corpus."""
    return [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus())


def absorb(mps, step, tensor, chi, record=None):
    """One step of ``run``: absorb by ``record`` (by default a fresh record
    of the chain as it is), then compress above ``2 * chi``."""
    record = record or live_record(mps, step, tensor)
    contract_step(mps, step, tensor, record)
    if chi is not None and record.emitted > 2 * chi:
        compress_mps(mps, chi)


def kept_records(plan):
    """``(step, shape, run, record)`` of every record ``plan`` keeps: its
    tape when it never compresses, else those its sweeps made from the live
    chain, with the array shape and consumed shapes each was made for."""
    for key, value in plan.records.items():
        if key is None:
            runs = plan.runs or ()
            for (step, record), (run, _) in zip(value, runs):
                yield step, plan.shapes[step.vid], run, record
        else:
            step, run, _ = key
            yield step, plan.shapes[step.vid], run, value


class TestCutMemo:
    @pytest.mark.parametrize("chi", [None, 8])
    def test_warm_cuts_equal_cold_ones_bit_for_bit(self, chi):
        # each network is swept twice in lockstep along its plan: once with
        # every record, and so every cut, made afresh from the live chain,
        # once with the plan's records (its tape, or the records a first
        # sweep kept); the chains agree bit for bit after every step
        held = 0
        for tn in cut_networks():
            plan, memo = contract._plan_for(tn, chi)
            plan.records.clear()
            contract.run(plan, arrays_of(plan, tn, memo))
            records = dict(plan.records)
            cold, warm = MPSState(window=plan.window), MPSState(window=plan.window)
            with np.errstate(over="ignore", invalid="ignore"):
                for (step, record), (tensor, _) in zip(contract._tape(plan), arrays_of(plan, tn, memo)):
                    fresh = live_record(cold, step, tensor)
                    record = record or contract._live_record(plan.records, warm, step, tensor.shape)
                    absorb(cold, step, tensor, chi, fresh)
                    absorb(warm, step, tensor, chi, record)
                    assert (fresh.emitted, cold.log_scale.hex(), cold.mantissa.hex()) == (
                        record.emitted, warm.log_scale.hex(), warm.mantissa.hex())
                    assert [a.shape for a in cold.sites] == [a.shape for a in warm.sites]
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(cold.sites, warm.sites))
            # the second sweep was warm: it made no record
            assert plan.records.keys() == records.keys()
            assert all(plan.records[key] is value for key, value in records.items())
            held += len(list(kept_records(plan)))
        assert held > 300

    @pytest.mark.parametrize("chi", [None, 8])
    def test_memoized_cuts_are_fresh_cuts(self, chi):
        # a kept record cuts as _split does, and its identities are fresh
        # _identity views; a record with a wider identity keeps its shape
        kept = wide = 0
        for tn in cut_networks():
            plan, memo = contract._plan_for(tn, chi)
            plan.records.clear()
            contract.run(plan, arrays_of(plan, tn, memo))
            for step, shape, run, record in kept_records(plan):
                left, right, m = run[0][0], run[-1][2], step.forward
                # the product fills the data site (left, S, right) wholly
                size = left * math.prod(shape[:m]) * right
                assert math.prod(record.oshape) == math.prod(record.shape) == size
                if m == 0:
                    assert record.before is record.after is None and record.shape == (left, right)
                    continue
                dims = shape[:m]
                prefix, suffix, t, emitted = planner._split(left, dims, right)
                assert (record.slot, record.emitted) == (step.lo + t, emitted)
                assert record.shape == (prefix[t], dims[t], suffix[t + 1])
                fresh = [contract._identity(prefix[k + 1]).reshape(prefix[k], dims[k], prefix[k + 1])
                         for k in range(t)]
                fresh += [contract._identity(suffix[k]).reshape(suffix[k], dims[k], suffix[k + 1])
                          for k in range(t + 1, len(dims))]
                assert len(record.before) + len(record.after) == len(fresh)
                if record.wide:
                    # a shape alone, each built by the step that absorbs it
                    assert max(emitted, left if step.hi < step.lo else 0) > contract.IDENTITY_MEMO_MAX
                    assert [*record.before, *record.after] == [b.shape for b in fresh]
                    wide += 1
                    continue
                assert emitted <= contract.IDENTITY_MEMO_MAX
                for a, b in zip((*record.before, *record.after), fresh):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                    assert not a.flags.writeable and a.base is b.base
                kept += 1
        assert kept > 300 and wide > 0

    @pytest.mark.parametrize("chi", [None, 8])
    def test_left_1_dot_equals_matmul(self, chi):
        # at every step whose run starts at a bond of 1, np.dot and
        # np.matmul of its operands give the same bits
        shapes = set()
        for tn in cut_networks():
            plan, memo = contract._plan_for(tn, chi)
            mps = MPSState()
            with np.errstate(over="ignore", invalid="ignore"):
                for step, (tensor, _) in zip(plan.steps, arrays_of(plan, tn, memo)):
                    sites, lo, hi = mps.sites, step.lo, step.hi
                    if hi >= lo:
                        # the consumed run, merged as contract_step merges it
                        left, right, run = sites[lo].shape[0], sites[hi].shape[2], sites[lo]
                        for site in sites[lo + 1 : hi + 1]:
                            run = np.dot(run.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1))
                    else:
                        left = right = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
                        run = contract._identity(left)
                    if left == 1:
                        w = tensor.reshape(math.prod(tensor.shape[: step.forward]), -1)
                        got = np.dot(w, run.reshape(-1, right))
                        want = np.matmul(w, run.reshape(1, -1, right))
                        assert got.tobytes() == want.tobytes()
                        shapes.add((w.shape, right))
                    absorb(mps, step, tensor, chi)
        assert len(shapes) > 50


def unsplit_peak(plan, chi, monkeypatch):
    """The modelled peak of ``plan`` at ``chi`` with every consumed run
    chained whole, priced by pricing every split as split 0."""
    real = planner._absorption
    with monkeypatch.context() as m:
        m.setattr(planner, "_absorption", lambda run, held, size, rows, split: real(run, held, size, rows, 0))
        return planner._tally(plan.steps, plan.layout, chi)[2]


def unsplit_product(sites, step, tensor):
    """The ``(left, S, right)`` product of ``step`` on the chain ``sites``,
    its run chained whole, as one ``np.matmul`` (``np.dot`` at a left bond
    of 1)."""
    lo, hi = step.lo, step.hi
    left, right, run = sites[lo].shape[0], sites[hi].shape[2], sites[lo]
    for site in sites[lo + 1 : hi + 1]:
        run = np.dot(run.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1))
    w = tensor.reshape(math.prod(tensor.shape[: step.forward]), -1)
    if left == 1:
        return np.dot(w, run.reshape(-1, right)).reshape(1, -1, right)
    return np.matmul(w, run.reshape(left, -1, right))


class TestRunSplit:
    @pytest.mark.parametrize("chi", [None, 8])
    def test_every_split_gives_the_unsplit_product(self, chi):
        # at every step that consumes two sites or more, along each chosen
        # plan: the chain after the step split at each j equals the unsplit
        # one to 1e-13 relative, and the unsplit one's data site holds the
        # bits of one np.matmul of the run chained whole, shifted by the
        # power of two its normalisation folded into the scale
        splits = bits = 0
        for tn in cut_networks():
            plan, memo = contract._plan_for(tn, chi)
            mps = MPSState()
            with np.errstate(over="ignore", invalid="ignore"):
                for step, (tensor, _) in zip(plan.steps, arrays_of(plan, tn, memo)):
                    if step.hi > step.lo:
                        chains, emitted = [], []
                        for j in range(step.hi - step.lo + 1):
                            chain = MPSState(list(mps.sites), mps.log_scale, mps.mantissa)
                            at_j = step._replace(split=j)
                            record = live_record(chain, at_j, tensor)
                            emitted.append(record.emitted)
                            chains.append(contract_step(chain, at_j, tensor, record))
                        whole = chains[0]
                        assert len(set(emitted)) == 1
                        for chain in chains[1:]:
                            assert [a.shape for a in chain.sites] == [a.shape for a in whole.sites]
                            assert chain.mantissa == whole.mantissa
                            assert chain.log_scale == pytest.approx(whole.log_scale, abs=1e-13)
                            for a, b in zip(chain.sites, whole.sites):
                                assert np.abs(a - b).max(initial=0.0) <= 1e-13 * np.abs(b).max(initial=0.0)
                            splits += 1
                        if step.forward:
                            want = unsplit_product(mps.sites, step, tensor)
                            left, dims, right = want.shape[0], tensor.shape[: step.forward], want.shape[2]
                            t = planner._split(left, dims, right)[2]
                            data = whole.sites[step.lo + t]
                            shift = round((whole.log_scale - mps.log_scale) / math.log(2.0))
                            assert np.ldexp(data, shift).tobytes() == want.reshape(data.shape).tobytes()
                            bits += 1
                    absorb(mps, step, tensor, chi)
        assert splits > 400 and bits > 300

    def test_exact_sweeps_split_equal_unsplit(self):
        split = 0
        for tn in cut_networks():
            plan = contract._plan_for(tn, None)[0]
            if any(step.split for step in plan.steps):
                split += 1
                whole = dataclasses.replace(plan, steps=uncut(plan.steps))
                assert_same_value(run_plan(plan, tn)[0], run_plan(whole, tn)[0])
        assert split > 5

    def test_benchmark_plans_split_only_at_their_peak_step(self, monkeypatch):
        # square d=5 at chi=8 splits the run of its peak step, which holds
        # 10,816 elements whole; subsystem d=5 exact splits none
        tn = code_network("square", 5)
        plan = planner.plan_sweep(tn, 8)
        assert [(k, step.split) for k, step in enumerate(plan.steps) if step.split] == [(15, 1)]
        assert (plan.peak, unsplit_peak(plan, 8, monkeypatch)) == (6720, 10816)
        assert plan.steps[15].hi - plan.steps[15].lo == 2
        # unsplit, the plan would hold more than the unfolded one (7,028)
        assert unfolded_best(planner._candidates(tn, 8)).peak == 7028
        plan = planner.plan_sweep(code_network("subsystem", 5), None)
        assert not any(step.split for step in plan.steps)


def held_arrays(value, path="plan"):
    """Every ``(path, object)`` reachable from ``value`` that is an
    ``np.ndarray`` or a ``DenseTensor``, walking tuples, lists, sets, the
    keys and values of dicts, and every attribute of a dataclass instance
    (a ``Plan``'s fields and what it has cached)."""
    if isinstance(value, (np.ndarray, DenseTensor)):
        yield path, value
    elif dataclasses.is_dataclass(value):
        for name, item in vars(value).items():
            yield from held_arrays(item, f"{path}.{name}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from held_arrays(key, f"{path} key")
            yield from held_arrays(item, f"{path}[{key!r}]")
    elif isinstance(value, (tuple, list, set, frozenset)):
        for k, item in enumerate(value):
            yield from held_arrays(item, f"{path}[{k}]")


def value_cases():
    """``(network, chi)`` of the plan-value checks: the fold cases and the
    first dozen netgen corpus networks, exact and at chi=8."""
    networks = [code_network(f, d) for f, d in fold_cases()] + list(netgen_corpus()[:12])
    return [(tn, chi) for tn in networks for chi in (None, 8)]


class TestPlanValue:
    def test_two_builds_are_equal(self):
        split = filled = 0
        for tn, chi in value_cases():
            a, b = planner.plan_sweep(tn, chi), planner.plan_sweep(tn, chi)
            assert a == b and a is not b and repr(a) == repr(b)
            assert [s.split for s in a.steps] == [s.split for s in b.steps]
            split += any(s.split for s in a.steps)
            # sweeping fills the memo of records, which equality ignores
            contract.run(a, arrays_of(a, tn))
            assert not b.records and a == b and repr(a) == repr(b)
            filled += bool(a.records)
        assert split > 3 and filled > 20

    def test_a_plan_records_its_chi(self):
        # run compresses to the chi the plan was modelled at, so a plan of
        # another chi is another plan, and the cache keys by the checked int
        tn = grid_network(np.random.default_rng(4606), 6, 6, dim=2)
        plan = planner.plan_sweep(tn, np.int64(4))
        assert plan.chi == 4 and type(plan.chi) is int
        assert planner.plan_sweep(tn, None).chi is None
        assert plan != dataclasses.replace(plan, chi=8)
        assert contract._plan_for(tn, 4)[0] == plan
        assert contract.run(plan, arrays_of(plan, tn)) == sweep_contract(tn, np.int64(4))

    def test_a_plan_holds_no_tensor(self):
        # a fresh plan holds no array at all; after sweeps, only its memo of
        # records does, and only views of the identities the kernel shares
        kept = 0
        for tn, chi in value_cases():
            plan = planner.plan_sweep(tn, chi)
            assert not list(held_arrays(plan))
            for _ in range(2):
                contract.run(plan, arrays_of(plan, tn))
            for path, a in held_arrays(plan):
                assert path.startswith("plan.records[") and isinstance(a, np.ndarray), path
                assert not a.flags.writeable
                assert a.base is contract._identities[a.base.shape[0]], path
                kept += 1
        assert kept > 100
        names = {f.name: f.compare for f in dataclasses.fields(planner.Plan)}
        assert names.pop("records") is False and all(names.values())

    @pytest.mark.parametrize("family, p", [("square", 0.15), ("subsystem", 0.05)])
    @pytest.mark.parametrize("chi", [8, None])
    def test_run_along_one_plan_equals_sweep_contract(self, family, p, chi):
        # the four coset networks of one shot, swept along the one plan
        # built apart from the cache, against the cached wrapper
        networks = depolarised_coset_networks(code_of(family, 5), p, np.random.default_rng(5))
        plan = planner.plan_sweep(networks[0], chi)
        for net in networks:
            want = sweep_contract(net, chi)
            got = contract.run(plan, arrays_of(plan, net))
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert contract._plan_for(net, chi)[0] == plan

    def test_run_reads_each_array_as_its_step_runs(self, monkeypatch):
        tn = code_network("square", 5)
        plan = planner.plan_sweep(tn, 8)
        steps, _ = record_compressions(monkeypatch)
        reads = []

        def lazily():
            for array in arrays_of(plan, tn):
                reads.append(len(steps))
                yield array

        contract.run(plan, lazily())
        assert reads == list(range(len(plan.steps)))

    def test_run_names_the_step_of_a_bad_array(self):
        # a missing, extra, mis-shaped or non-pair item raises ValueError
        # naming the step
        tn = code_network("square", 5)
        plan = planner.plan_sweep(tn, 8)
        arrays = list(arrays_of(plan, tn))
        n, last = len(arrays), plan.steps[-1].vid
        assert contract.run(plan, arrays) == sweep_contract(tn, 8)
        with pytest.raises(ValueError, match=rf"^step {n - 1} \(vertex {last}\) .* got no array$"):
            contract.run(plan, arrays[:-1])
        with pytest.raises(ValueError, match=rf"^step {n}: got an item beyond the plan's steps$"):
            contract.run(plan, arrays + arrays[:1])
        k = next(k for k, (a, _) in enumerate(arrays) if a.ndim > 1)
        a, e = arrays[k]
        step = rf"^step {k} \(vertex {plan.steps[k].vid}\) absorbs shape {re.escape(str(a.shape))}, got "
        not_a_pair = r"a {}, not an \(array, int\) pair$"
        cases = [
            ((a.reshape(-1), e), rf"\({a.size},\)$"),
            (a, not_a_pair.format("ndarray")),  # no exponent
            ((a, e, 0), not_a_pair.format("tuple")),
            ((a, float(e)), not_a_pair.format("tuple")),
            ((a.tolist(), e), not_a_pair.format("tuple")),
            (3, not_a_pair.format("int")),
        ]
        for item, message in cases:
            with pytest.raises(ValueError, match=step + message):
                contract.run(plan, arrays[:k] + [item] + arrays[k + 1:])
        # any integer is an exponent, and the scale stays a float
        got = contract.run(plan, arrays[:k] + [(a, np.int64(e))] + arrays[k + 1:])
        assert got == sweep_contract(tn, 8) and type(got.log_scale) is float

    def test_plan_sweep_raises_in_order(self):
        # empty network, chi, planarize, disconnected network: each network
        # below has every later fault too
        crossed = k4_network(np.random.default_rng(47), K4_CROSSED)
        disconnected = TensorNetwork2D([
            TNVertex(0, DenseTensor(np.array(1.0)), (0.0, 0.0)),
            TNVertex(1, DenseTensor(np.array(2.0)), (1.0, 0.0)),
        ])
        cases = [
            (TensorNetwork2D(), 0, ContractionError, "cannot contract an empty network"),
            (crossed, 0, ValueError, "chi must be a positive integer"),
            (crossed, None, PlanarizeError, "crosses"),
            (disconnected, None, ContractionError, "network is not connected"),
        ]
        for tn, chi, kind, message in cases:
            for contract_or_plan in (planner.plan_sweep, sweep_contract):
                with pytest.raises(kind, match=message):
                    contract_or_plan(tn, chi)


# The codes of the benchmark's coset networks, with their error rates.
COSET_CODES = (("square", 0.15), ("subsystem", 0.05))


def coset_networks(family, p, shots, d=5):
    """The four coset networks of each of ``shots`` depolarised shots of the
    ``family`` code of distance ``d``."""
    code = code_of(family, d)
    return [tn for shot in range(shots)
            for tn in depolarised_coset_networks(code, p, np.random.default_rng(shot))]


def traced_steps(monkeypatch, networks, chi):
    """Sweep ``networks`` at ``chi`` with ``contract.contract_step`` wrapped
    by attribute, as ``perfbench/layertrace.py`` wraps it: per sweep, the
    number of calls, and the largest ``max_bond()`` and ``len(sites)`` the
    calls returned.  Every call must return the chain it was handed."""
    real, calls = contract.contract_step, []

    def traced(*args, **kwargs):
        result = real(*args, **kwargs)
        assert result is args[0]
        calls.append((result.max_bond(), len(result.sites)))
        return result

    out = []
    with monkeypatch.context() as m:
        m.setattr(contract, "contract_step", traced)
        for tn in networks:
            del calls[:]
            sweep_contract(tn, chi)
            out.append((len(calls), max(c[0] for c in calls), max(c[1] for c in calls)))
    return out


class TestLayerTrace:
    @pytest.mark.parametrize("family, p, chi, bond, sites", [
        ("square", 0.15, 8, 16, 6), ("subsystem", 0.05, None, 32, 8)])
    def test_trace_sees_every_step_of_a_tape(self, monkeypatch, family, p, chi, bond, sites):
        # the benchmark's plans never compress, so they run from a tape; the
        # trace still counts one call per step and reads the chain each returns
        networks = coset_networks(family, p, 4)
        plan, _ = contract._plan_for(networks[0], chi)
        assert plan.runs is not None and all(r is not None for _, r in contract._tape(plan))
        trace = traced_steps(monkeypatch, networks, chi)
        assert {calls for calls, _, _ in trace} == {len(plan.steps)}
        assert max(t[1] for t in trace) == bond and max(t[2] for t in trace) == sites

    def test_trace_sees_every_step_of_a_compressing_plan(self, monkeypatch):
        live = 0
        for tn, (calls, _, _) in zip(netgen_corpus(), traced_steps(monkeypatch, netgen_corpus(), 2)):
            plan, _ = contract._plan_for(tn, 2)
            assert calls == len(plan.steps)
            live += plan.runs is None
        assert live >= 10


def sweep_along(plan, tn, window=None, monkeypatch=None):
    """``contract.run`` of ``tn``, a network or a list of its step pairs,
    along a fresh copy of ``plan``, at its derived window, or with
    ``Plan.window`` patched to ``window``."""
    fresh = dataclasses.replace(plan)
    pairs = tn if isinstance(tn, list) else arrays_of(fresh, tn)
    if window is None:
        return contract.run(fresh, pairs)
    with monkeypatch.context() as m:
        m.setattr(planner.Plan, "window", window)
        return contract.run(fresh, pairs)


def bits(value):
    return value.mantissa.hex(), value.log_scale.hex()


class TestScaleSchedule:
    def test_window_moves_no_bit(self, monkeypatch):
        # shifts are exact and the scale is an integer until the close, so
        # shifting every site (window 0) and shifting only those leaving the
        # plan's window give the same bits, compressing or not; every site a
        # step or a compression makes meets the rule, so a shift is counted
        # where it moves the exponent
        real, shifts, compressions = MPSState._normalize_site, [0], [0]
        real_compress = contract.compress_mps

        def counting(mps, k):
            before = mps.exponent
            real(mps, k)
            shifts[0] += mps.exponent != before

        def counting_compress(mps, chi):
            compressions[0] += 1
            return real_compress(mps, chi)

        monkeypatch.setattr(MPSState, "_normalize_site", counting)
        monkeypatch.setattr(contract, "compress_mps", counting_compress)
        cases = [(tn, chi, False) for tn in netgen_corpus() for chi in (None, 1, 2, 4, 8)]
        cases += [(code_network(f, d), chi, False) for f, d in fold_cases() for chi in (None, 8)]
        cases += [(tn, chi, False) for family, p in COSET_CODES
                  for tn in coset_networks(family, p, 16) for chi in (None, 8)]
        # chi binds on square d=7 at p=0.1: every sweep compresses
        cases += [(tn, 8, True) for tn in coset_networks("square", 0.1, 2, d=7)]
        plans, counts = {}, {False: [0, 0], True: [0, 0]}
        for tn, chi, compresses in cases:
            key = (contract._geometry(tn), chi)
            plan = plans.get(key) or plans.setdefault(key, planner.plan_sweep(tn, chi))
            assert plan.window > 0
            shifts[0] = compressions[0] = 0
            derived = sweep_along(plan, tn)
            counts[compresses][0] += shifts[0]
            assert compressions[0] > 0 or not compresses
            shifts[0] = 0
            every = sweep_along(plan, tn, 0, monkeypatch)
            counts[compresses][1] += shifts[0]
            assert bits(derived) == bits(every)
        # the window lets most sites stand, on the sweeps that compress too
        assert sum(c[0] for c in counts.values()) < sum(c[1] for c in counts.values()) / 2
        assert counts[True][0] < counts[True][1]

    def test_window_is_derived_from_the_most_factors(self):
        for family, p in COSET_CODES:
            tn = coset_networks(family, p, 1)[0]
            for chi in (None, 8):
                plan = planner.plan_sweep(tn, chi)
                factors = max(max(s.hi - s.lo + 1, 1) + 1 + (s.forward == 0) for s in plan.steps)
                assert plan.window == planner.SCALE_BITS // factors
        assert planner.plan_sweep(coset_networks("square", 0.15, 1)[0], 8).window == 102


def checked(site, window=102):
    """``site`` after ``MPSState._normalize_site`` within ``window``, with
    the exponent it took."""
    mps = MPSState([site], window=window)
    mps._normalize_site(0)
    return mps.sites[0], mps.exponent


class TestSiteCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 5, 11])
    def test_non_finite_raises(self, bad, where):
        site = np.random.default_rng(where).uniform(-1, 1, (2, 3, 2))
        site.reshape(-1)[where] = bad
        with pytest.raises(ContractionError, match="non-finite"):
            checked(site)

    def test_all_zero_site_is_left_alone(self):
        site = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0]).reshape(1, 3, 2)
        before = site.tobytes()  # the bytes hold the signs of the zeros
        got, exponent = checked(site)
        assert got is site and got.tobytes() == before and exponent == 0

    @pytest.mark.parametrize("scale, squares", [(5e-324, 0.0), (1e-300, 0.0), (1e200, math.inf)])
    def test_squares_under_or_overflowing_shift_the_site(self, scale, squares):
        # the sum of squares underflows to 0 or overflows to inf, and the
        # site is shifted exactly as _normalize_site shifts it
        rng = np.random.default_rng(4602)
        base = rng.integers(-3, 4, (2, 4, 3)).astype(float) if scale == 5e-324 else rng.uniform(-1, 1, (2, 4, 3))
        site = base * scale
        flat = site.reshape(-1)
        assert contract._blas.ddot(flat, flat) == squares and np.isfinite(site).all()
        want = MPSState([site.copy()])
        want._normalize_site(0)
        got, exponent = checked(site)
        assert got is not site and exponent == want.exponent != 0
        assert got.tobytes() == want.sites[0].tobytes()

    def test_site_within_the_window_stands(self):
        # a norm of about 2^90 is within 2^±102; about 2^110 is not
        site = np.random.default_rng(4603).uniform(-1, 1, (2, 4, 3)) * 2.0 ** 90
        got, exponent = checked(site)
        assert got is site and exponent == 0
        want = MPSState([site * 2.0 ** 20])
        want._normalize_site(0)
        got, exponent = checked(site * 2.0 ** 20)
        assert exponent == want.exponent > 100 and got.tobytes() == want.sites[0].tobytes()


# The largest element magnitude a raw step array, handed to run with
# exponent 0, may hold and still sweep as at unit scale under its plan's
# window (Plan.window): below 2^500.
ELEMENT_MAX = 2.0 ** 500


def read_only(x):
    """``x`` as a read-only array, as ``run`` takes it."""
    x = np.asarray(x)
    x.setflags(write=False)
    return x


class TestScaleRange:
    def test_arrays_just_below_the_largest_magnitude_sweep_as_at_unit_scale(self, monkeypatch):
        # each step array is scaled by a power of two and handed to run raw,
        # with exponent 0, so its largest element lies in [2^499, 2^500): the
        # sweep gives the bits of the sweep that shifts every site (window
        # 0), and the value of the unscaled network times the scale
        cases = [(coset_networks(f, p, 1)[0], chi) for f, p in COSET_CODES for chi in (None, 8)]
        cases += [(tn, 2) for tn in netgen_corpus()[:12]]
        for tn, chi in cases:
            plan = planner.plan_sweep(tn, chi)
            raw, shift = [], 0
            for x, e in arrays_of(plan, tn):
                top = float(np.abs(x).max())
                k = 499 - math.frexp(top)[1] + 1 if top else 0
                raw.append((read_only(np.ldexp(x, k)), 0))
                shift += k - e
            for x, _ in raw:
                top = float(np.abs(x).max())
                assert top == 0.0 or 2.0 ** 499 <= top < ELEMENT_MAX
            got = sweep_along(plan, raw)
            assert bits(got) == bits(sweep_along(plan, raw, 0, monkeypatch))
            want = sweep_along(plan, tn)
            assert got.mantissa == want.mantissa
            assert got.log_scale - shift * math.log(2.0) == pytest.approx(want.log_scale, rel=1e-13, abs=1e-11)


def scaled_network(tn, factor):
    """``tn`` with every tensor's elements times ``factor``."""
    return TensorNetwork2D([TNVertex(v.id, DenseTensor(v.tensor.elements * factor), v.position)
                            for v in tn.vertices.values()], tn.bonds)


def shifted_network(tn, exponents):
    """``tn`` with the elements of vertex ``vid``'s tensor times
    ``2^exponents[vid]``."""
    return TensorNetwork2D([TNVertex(v.id, DenseTensor(np.ldexp(v.tensor.elements, exponents[v.id])),
                                     v.position) for v in tn.vertices.values()], tn.bonds)


def log_value(value):
    return math.log(abs(value.mantissa)) + value.log_scale


def positive_grid(factor=1.0):
    """The positive 3x3 grid, every tensor times ``factor``: its plans
    fold."""
    return scaled_network(grid_network(np.random.default_rng(0), 3, 3, positive=True), factor)


def bonded_pair(value):
    """Two vertices ``[value, value]`` joined by a bond: its plan folds."""
    return TensorNetwork2D([TNVertex(0, DenseTensor(np.array([value, value])), (0.0, 0.0)),
                            TNVertex(1, DenseTensor(np.array([value, value])), (0.0, 1.0))],
                           [Bond((0, 0), (1, 0), 2)])


def alternating_exponents(tn, exponents):
    """``exponents[0]`` and ``exponents[1]`` on the vertices of ``tn`` in
    turn, in dict order."""
    return {vid: exponents[k % 2] for k, vid in enumerate(tn.vertices)}


def unfolded_network():
    """A random planar network whose plans at chi None and 2 fold
    nothing."""
    return random_planar_network(np.random.default_rng(0))


def scale_range_networks():
    """The networks of the scale checks that ``scripts/sweep_bits.py``
    fingerprints too: the positive 3x3 grid times 1e-100, 1e-160 and
    1e-200 and the ``[1e200, 1e200]`` pair, whose merged tensors float64's
    normal range cannot hold, and an unfolded network whose tensors are
    times 2^1020 and 2^-1060 in turn."""
    tn = unfolded_network()
    return [positive_grid(1e-100), positive_grid(1e-160), positive_grid(1e-200), bonded_pair(1e200),
            shifted_network(tn, alternating_exponents(tn, (1020, -1060)))]


class TestMergeScale:
    # a folded plan merges several tensors into one step array; a merged
    # tensor whose scale leaves float64's normal range sweeps, its power of
    # two kept apart, to the value of the unfolded plan of the same network
    # (the first two checks are named for the range error these networks
    # raised before step arrays carried their own exponent)

    @pytest.mark.parametrize("factor", [1e-100, 1e-160, 1e-200])
    @pytest.mark.parametrize("chi", [None, 2])
    def test_merges_below_the_range_raise(self, factor, chi):
        tn = positive_grid(factor)
        assert planner.plan_sweep(tn, chi).fold
        want, _ = run_plan(plan_unrotated(tn), tn)
        assert want.mantissa == 1.0
        if factor == 1e-100:
            assert log_value(want) == pytest.approx(-2070.338, abs=1e-3)
        got = sweep_contract(tn, chi)
        assert got.mantissa == 1.0
        assert log_value(got) == pytest.approx(log_value(want), rel=1e-13)

    def test_a_merge_above_the_range_raises(self):
        # the value, 2e400, is a SweepValue's, but no float64's
        tn = bonded_pair(1e200)
        assert planner.plan_sweep(tn, None).fold
        want, _ = run_plan(plan_unrotated(tn), tn)
        assert log_value(want) == pytest.approx(math.log(2.0) + 400 * math.log(10.0), rel=1e-15)
        got = sweep_contract(tn)
        assert got.mantissa == 1.0
        assert log_value(got) == pytest.approx(log_value(want), rel=1e-15)

    @pytest.mark.parametrize("chi", [None, 2])
    def test_merges_within_the_range_sweep_as_unfolded(self, chi):
        tn = positive_grid(1e-40)
        want, _ = run_plan(plan_unrotated(tn), tn)
        got = sweep_contract(tn, chi)
        assert got.mantissa == want.mantissa == 1.0
        assert log_value(got) == pytest.approx(log_value(want), rel=1e-13)


class TestStepArrayScale:
    @pytest.mark.parametrize("exponents", [(1020, 1020), (-1060, -1060), (1020, -1060)])
    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("chi", [None, 2])
    def test_tensors_beyond_the_old_range_sweep_to_the_scaled_value(self, exponents, folded, chi):
        # tensors times 2^1020, far above the 2^500 a raw array may reach,
        # or times 2^-1060, near the subnormal floor, where the elements
        # keep fewer bits: the sweep gives the value of the tensors the
        # network holds, shifted back, times the shift
        tn = positive_grid() if folded else unfolded_network()
        assert bool(planner.plan_sweep(tn, chi).fold) == folded
        shifts = alternating_exponents(tn, exponents)
        scaled = shifted_network(tn, shifts)
        held = shifted_network(scaled, {vid: -k for vid, k in shifts.items()})
        got, want = sweep_contract(scaled, chi), sweep_contract(held, chi)
        assert got.mantissa == want.mantissa != 0.0
        shift = sum(shifts.values()) * math.log(2.0)
        assert log_value(got) == pytest.approx(log_value(want) + shift, rel=1e-14)

    @pytest.mark.parametrize("chi", [None, 1, 2, 4, 8])
    def test_shifting_a_step_array_moves_no_bit(self, chi):
        # any step array times 2^k with k taken from its exponent gives the
        # same bits: shifts are exact, and the scale an integer until the
        # boundary closes
        networks = list(netgen_corpus())
        if chi in (None, 8):
            networks += [code_network(f, d) for f, d in fold_cases()]
        rng = np.random.default_rng(4950)
        for tn in networks:
            plan, memo = contract._plan_for(tn, chi)
            pairs = list(arrays_of(plan, tn, memo))
            shifted = []
            for x, e in pairs:
                k = int(rng.integers(-200, 201))
                shifted.append((read_only(np.ldexp(x, k)), e - k))
            assert bits(contract.run(plan, shifted)) == bits(contract.run(plan, pairs))

    def test_building_the_arrays_of_a_non_finite_tensor_is_quiet(self):
        # the products of a merge with an inf are made under np.errstate,
        # wherever the pairs are read, so the sweep's ContractionError is
        # the one report of the value
        tn = grid_network(np.random.default_rng(4500), 4, 4, dim=2)
        v = max(tn.vertices.values(), key=sweep_key)
        arr = v.tensor.elements.copy()
        arr[(0,) * arr.ndim] = np.inf
        tn.vertices[v.id] = TNVertex(v.id, DenseTensor(arr), v.position)
        plan = planner.plan_sweep(tn, None)
        assert (plan.fold, plan.pairs) == (1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = list(contract._step_arrays(plan, contract._MergeMemo(), tn.vertices))
        assert not all(np.isfinite(x).all() for x, _ in pairs)
        with pytest.raises(ContractionError):
            contract.run(plan, pairs)
