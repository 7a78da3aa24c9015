import hashlib

import numpy as np
import pytest

from oracles import (
    brute_force_distances,
    dressed_distances_reference,
    fan_split_reference,
    subsystem_patch_exhaustive,
)
from sweepdecode.codes import subsystem
from sweepdecode.codes.graphs import PatchError, _rough_path, validate_patch
from sweepdecode.codes.lattices import _search_space, cut_window, template
from sweepdecode.codes.subsystem import (
    dressed_distances,
    subsystem_code,
    subsystem_patch,
)
from sweepdecode.pauli import (
    PauliOperator,
    commutes,
    format_code,
    gf2_rref,
    stabiliser_basis,
    validate_code,
)


def gauge_rank(code):
    rows = np.zeros((code.num_checks, 2 * code.n), dtype=np.uint8)
    for i, c in enumerate(code.checks):
        rows[i, : code.n] = c.x
        rows[i, code.n :] = c.z
    _, pivots, _ = gf2_rref(rows)
    return len(pivots)


def weight(p):
    return int(np.count_nonzero(p.x | p.z))


class TestPatch:
    def test_windows_certified(self):
        for d in (2, 3, 4, 5):
            g = subsystem_patch(d)
            validate_patch(g)
            assert dressed_distances(g) == (d, d)

    def test_rejects_distance_below_two(self):
        with pytest.raises(ValueError):
            subsystem_patch(1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_pruned_scan_matches_exhaustive(self, d):
        assert subsystem_patch(d) == subsystem_patch_exhaustive(d)

    def test_scan_cuts_at_most_half_the_windows(self, monkeypatch):
        # the d=5 search space holds 380 windows; 9 of them read z = 5
        calls = {}

        def counting(name):
            f = getattr(subsystem, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return f(*args)
            return wrapper

        for name in ("cut_window", "_fan_split"):
            monkeypatch.setattr(subsystem, name, counting(name))
        subsystem_patch.cache_clear()
        subsystem_patch(5)
        assert calls["cut_window"] <= 80
        assert calls["_fan_split"] <= 15

    def test_scan_premises_hold(self):
        # every window of the d=2..6 search spaces, column by column
        t = template("triangular")
        split_windows = 0
        for d in range(2, 7):
            offsets, wxs, wys = _search_space(t, d + 4)
            z = {}
            for ox, oy in offsets:
                for wx in wxs:
                    kept, zs, dx = [], [], []
                    for wy in wys:
                        g = cut_window(t, ox, oy, wx, wy)
                        if g is None:
                            continue
                        kept.append(len(g.kept))
                        path = _rough_path(g)
                        if path is not None:
                            zs.append(len(path))
                            z[ox, oy, wx, wy] = len(path)
                        try:
                            fan = subsystem._fan_split(g)
                        except PatchError:
                            continue
                        dd = subsystem._dressed_distances(g, fan)
                        if fan[3] and dd is not None:
                            assert dd[1] == len(path)
                            dx.append(dd[0])
                            split_windows += 1
                    # as wy grows: kept and dx never fall, z never rises
                    assert kept == sorted(kept)
                    assert dx == sorted(dx)
                    assert zs == sorted(zs, reverse=True)
            for ox, oy in offsets:
                for wy in wys:  # z never falls as wx grows
                    row = [z[ox, oy, wx, wy] for wx in wxs
                           if (ox, oy, wx, wy) in z]
                    assert row == sorted(row)
        assert split_windows > 500

    @pytest.mark.parametrize("d, wx, z", [(5, 10, 5), (13, 28, 14)])
    def test_short_window_reads_z_above_its_column(self, d, wx, z):
        # at offset (1, 0) the wy=2 window reads z one above every taller
        # one, so it cannot judge a column too wide: at d=13 a break on it
        # would skip windows with z = d
        t = template("triangular")
        _, _, wys = _search_space(t, d + 4)
        zs = [dressed_distances(cut_window(t, 1, 0, wx, wy))[1]
              for wy in wys[1:]]
        assert zs[0] == z
        assert set(zs[1:]) == {z - 1}

    def test_fan_pass_matches_reference(self):
        # every other window of the d=2..6 search spaces
        t = template("triangular")
        windows = []
        for d in range(2, 7):
            offsets, wxs, wys = _search_space(t, d + 4)
            windows += [(ox, oy, wx, wy) for ox, oy in offsets
                        for wx in wxs for wy in wys]
        compared = 0
        for window in windows[::2]:
            g = cut_window(t, *window)
            if g is None:
                continue
            try:
                ref = fan_split_reference(g)
            except PatchError:
                with pytest.raises(PatchError):
                    subsystem._fan_split(g)
                continue
            fan = subsystem._fan_split(g)
            assert fan == ref
            if fan[3]:
                assert subsystem._dressed_distances(g, fan) \
                    == dressed_distances_reference(g, ref)
                compared += 1
        assert compared > 500


class TestCode:
    def test_d3_parameters(self):
        code = subsystem_code(3)
        assert code.n == 19
        assert code.is_subsystem
        assert code.claimed_distance == 3
        rank = gauge_rank(code)
        s = len(stabiliser_basis(code))
        assert s == 16
        assert (rank - s) % 2 == 0
        assert (rank - s) // 2 == 2  # gauge qubits
        assert code.n - (rank + s) // 2 == 1  # one logical qubit

    def test_every_generator_is_a_triangle_or_truncation(self):
        for d in (2, 3, 4):
            code = subsystem_code(d)
            for c in code.checks:
                assert not (c.x.any() and c.z.any())
                if c.z.any():
                    assert weight(c) in (2, 3)
                else:
                    assert 2 <= weight(c) <= 6
            interior = [c for c in code.checks
                        if c.x.any() and weight(c) == 3]
            assert interior, "no split fans delivered"

    def test_gauge_group_is_noncommuting(self):
        code = subsystem_code(2)
        pairs = [(a, b)
                 for i, a in enumerate(code.checks)
                 for b in code.checks[i + 1:]
                 if not commutes(a, b)]
        assert pairs

    def test_paired_triangles_are_stabilisers(self):
        code = subsystem_code(3)
        fans = [c for c in code.checks if c.x.any() and weight(c) == 3]
        faces = [c for c in code.checks if c.z.any()]
        found_star = found_bowtie = 0
        for i, a in enumerate(fans):
            for b in fans[i + 1:]:
                prod = PauliOperator(a.x ^ b.x, a.z ^ b.z)
                if weight(prod) == 6 and all(
                        commutes(prod, c) for c in code.checks):
                    found_star += 1
        for fan in fans:
            odd = [f for f in faces if not commutes(fan, f)]
            if not odd:
                continue
            assert len(odd) == 2  # the pair facing each other across the vertex
            prod = PauliOperator(odd[0].x ^ odd[1].x, odd[0].z ^ odd[1].z)
            assert all(commutes(prod, c) for c in code.checks)
            found_bowtie += 1
        assert found_star >= 2
        assert found_bowtie >= 2

    def test_dressed_distance_brute_force(self):
        for d in (2, 3):
            code = subsystem_code(d)
            assert brute_force_distances(code, d, dressed=True) == (d, d)

    def test_bare_distances_do_not_undershoot(self):
        code = subsystem_code(3)
        bare = brute_force_distances(code, 2)
        assert bare == (None, None)

    def test_dressed_distance_brute_force_d4(self):
        code = subsystem_code(4)
        assert brute_force_distances(code, 4, dressed=True) == (4, 4)

    def test_logicals_commute_with_every_generator(self):
        code = subsystem_code(3)
        for c in code.checks:
            assert commutes(code.logical_x, c)
            assert commutes(code.logical_z, c)
        assert not commutes(code.logical_x, code.logical_z)

    def test_distinct_fan_coordinates(self):
        code = subsystem_code(3)
        assert len(set(code.check_coords)) == code.num_checks

    def test_deterministic(self):
        a = format_code(subsystem_code(3))
        subsystem_patch.cache_clear()
        b = format_code(subsystem_code(3))
        assert a == b

    @pytest.mark.parametrize("d, prefix", [
        (2, "b7c918ac6e480b74"),
        (3, "253159145e94d028"),
        (4, "b55ce1c592d2c55a"),
        (6, "f0a031f3fadcf87c"),
        (7, "8b4f006eb6762139"),
    ])
    def test_code_digest(self, d, prefix):
        code = format_code(subsystem_code(d))
        assert hashlib.sha256(code.encode()).hexdigest()[:16] == prefix

    def test_validate_accepts(self):
        validate_code(subsystem_code(4))
