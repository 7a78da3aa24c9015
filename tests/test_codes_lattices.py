import math

import pytest

from sweepdecode.codes import lattices
from sweepdecode.codes.graphs import (
    PatchError,
    PlanarGraph,
    code_distances,
    dual_patch,
    surface_code_from_graph,
    validate_patch,
)
from sweepdecode.codes.lattices import (
    DUAL_OF_PRIMAL,
    _cut_region,
    _keeps_face_qubits,
    _search_space,
    _widths,
    cut_window,
    regular_lattice,
    smallest_patch,
    template,
)
from sweepdecode.codes.subsystem import subsystem_code, subsystem_patch
from sweepdecode.pauli import pauli_to_string, validate_code

from oracles import assert_straight_line_embedding, brute_force_distances, cut_window_reference


def swap_xz(s):
    return s.translate(str.maketrans("XZ", "ZX"))


class TestTemplates:
    def test_per_cell_counts(self):
        expect = {
            "square": (1, 2, 1),
            "triangular": (1, 3, 2),
            "kagome": (3, 6, 3),
            "trunc_hex": (6, 9, 3),
        }
        for name, (nv, ne, nf) in expect.items():
            t = template(name)
            assert (len(t.sites), len(t.edges), len(t.faces)) == (nv, ne, nf)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            template("penrose")

    def test_cut_window_square_block(self):
        g = cut_window(template("square"), 0, 0, 2, 1)
        assert g is not None
        validate_patch(g)
        assert_straight_line_embedding(g)
        assert g.num_vertices == 6
        assert len(g.edges) == 7
        assert len(g.faces) == 2


class TestCutWindow:
    # (family, reach, stride): every window of the smaller search spaces,
    # every stride-th one of trunc_hex's, whose space is the largest
    SPACES = [("square", 5, 1), ("triangular", 5, 1), ("kagome", 2, 1),
              ("trunc_hex", 3, 389)]

    @pytest.mark.parametrize("family, reach, stride", SPACES,
                             ids=[s[0] for s in SPACES])
    def test_matches_enumeration_reference(self, family, reach, stride):
        t = template(family)
        offsets, wxs, wys = _search_space(t, reach)
        windows = [(ox, oy, wx, wy) for ox, oy in offsets
                   for wx in wxs for wy in wys][::stride]
        patches = 0
        for window in windows:
            for rotate in (False, True):
                g = cut_window(t, *window, rotate=rotate)
                assert g == cut_window_reference(t, *window, rotate=rotate), \
                    (window, rotate)
                patches += g is not None
        assert patches > len(windows) // 10


    @pytest.mark.parametrize("family, reach", [("square", 5), ("triangular", 5), ("kagome", 2),
                                               ("trunc_hex", 3)])
    def test_scans_skip_only_widths_that_hold_no_face(self, family, reach):
        # every window narrower than an offset's first width cuts to
        # nothing, and the first width cuts a region at some height
        t = template(family)
        offsets, wxs, wys = _search_space(t, reach)
        skipped = 0
        for ox, oy in offsets:
            fit = _widths(t, ox, oy, wxs, wys[-1])
            assert list(fit) == [wx for wx in wxs if wx >= fit[0]]
            for wx in wxs[: len(wxs) - len(fit)]:
                skipped += 1
                assert all(_cut_region(t, ox, oy, wx, wy) is None for wy in wys)
            assert any(_cut_region(t, ox, oy, fit[0], wy) is not None for wy in wys)
        # square faces are one step wide, the others' wider than a step
        assert (skipped == 0) == (family == "square")


class TestSmallestPatch:
    def test_square_sizes_match_standard_patch(self):
        for d in (2, 3, 4, 5):
            code = surface_code_from_graph(smallest_patch("square", d))
            assert code.n == d * d + (d - 1) * (d - 1)
            assert len(code.checks) == code.n - 1

    def test_square_d3_has_13_qubits(self):
        code = surface_code_from_graph(smallest_patch("square", 3))
        assert code.n == 13

    def test_distances_certified_small(self):
        for family, d in [
            ("square", 2), ("square", 3),
            ("triangular", 2), ("triangular", 3),
            ("kagome", 2), ("kagome", 3),
        ]:
            g = smallest_patch(family, d)
            assert code_distances(g) == (d, d)
            code = surface_code_from_graph(g, family=family)
            assert brute_force_distances(code, d) == (d, d)
            validate_code(code)

    def test_kagome_d2_brute_force(self):
        code = surface_code_from_graph(smallest_patch("kagome", 2))
        assert brute_force_distances(code, 2) == (2, 2)

    def test_triangular_even_distance_patch(self):
        g = smallest_patch("triangular", 4)
        assert code_distances(g) == (4, 4)
        code = surface_code_from_graph(g)
        assert brute_force_distances(code, 4) == (4, 4)

    def test_rejects_distance_below_two(self):
        with pytest.raises(ValueError):
            smallest_patch("square", 1)

    @pytest.mark.slow
    def test_trunc_hex_d3(self):
        g = smallest_patch("trunc_hex", 3)
        validate_patch(g)
        assert_straight_line_embedding(g)
        assert code_distances(g) == (3, 3)
        code = surface_code_from_graph(g, family="trunc_hex")
        assert brute_force_distances(code, 3) == (3, 3)

    def test_certification_rejects_emptied_face(self):
        # a kagome window with distances (7, 7) whose face 0 keeps no
        # qubit edge; the scan once returned it for d=7
        g = cut_window(template("kagome"), 3, 1, 18, 7)
        assert code_distances(g) == (7, 7)
        assert not _keeps_face_qubits(g)
        with pytest.raises(PatchError, match="face 0 lost all qubit edges"):
            surface_code_from_graph(g, family="kagome")
        assert _keeps_face_qubits(smallest_patch("kagome", 3))

    def test_geometry_of_small_patches(self):
        for family in ("square", "triangular", "kagome"):
            g = smallest_patch(family, 3)
            validate_patch(g)
            assert_straight_line_embedding(g)


class TestRegularLattice:
    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            regular_lattice("cairo", 3)

    def test_dual_families_dualize_the_primal(self):
        for primal, dual in DUAL_OF_PRIMAL.items():
            if primal == "trunc_hex":
                continue  # slow; covered separately
            gp = regular_lattice(primal, 3)
            gd = regular_lattice(dual, 3)
            validate_patch(gd)
            primal_code = surface_code_from_graph(gp)
            dual_code = surface_code_from_graph(gd)
            assert dual_code.n == primal_code.n
            assert sorted(pauli_to_string(c) for c in dual_code.checks) \
                == sorted(swap_xz(pauli_to_string(c))
                          for c in primal_code.checks)

    def test_rhombille_pinched_duals_build(self):
        # The kagome patches at d = 2, 3 have a face touching both rough
        # sides, so their duals have a pinched boundary.
        for d in (2, 3):
            g = regular_lattice("rhombille", d)
            validate_patch(g)
            assert_straight_line_embedding(g)
            code = surface_code_from_graph(g)
            kagome = surface_code_from_graph(regular_lattice("kagome", d))
            assert sorted(pauli_to_string(c) for c in code.checks) \
                == sorted(swap_xz(pauli_to_string(c)) for c in kagome.checks)
            assert brute_force_distances(code, d) == (d, d)

    def test_hexagonal_is_triangular_swapped(self):
        tri = surface_code_from_graph(regular_lattice("triangular", 3))
        hexa = surface_code_from_graph(regular_lattice("hexagonal", 3))
        assert sorted(pauli_to_string(c) for c in hexa.checks) \
            == sorted(swap_xz(pauli_to_string(c)) for c in tri.checks)
        assert brute_force_distances(hexa, 3) == (3, 3)


class TestOneWalkPerCut:
    """From the cut to the code, each window's boundary is walked once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"walk": 0, "cut": 0}
        walk, cut = PlanarGraph.walk.func, lattices._cut_region

        def counting_walk(g):
            calls["walk"] += 1
            return walk(g)

        def counting_cut(*args):
            calls["cut"] += 1
            return cut(*args)

        monkeypatch.setattr(PlanarGraph.walk, "func", counting_walk)
        monkeypatch.setattr(lattices, "_cut_region", counting_cut)
        return calls

    def test_square_d5(self, calls):
        # a cold build that keeps the cache of other tests' patches
        surface_code_from_graph(smallest_patch.__wrapped__("square", 5))
        assert calls == {"walk": 9, "cut": 9}

    def test_subsystem_d5(self, calls):
        subsystem_patch.cache_clear()
        subsystem_code(5)
        assert calls == {"walk": 55, "cut": 55}

    def test_designated_graph_shares_its_cuts_tables(self):
        g, ipos = _cut_region(template("square"), 0, 0, 4, 3)
        designated = lattices._designate_arcs(g, *lattices._extreme_arcs(g.walk[0], ipos))
        assert designated.face_table is g.face_table
        assert designated.walk is g.walk
        assert designated.kept != g.kept  # the kept edges depend on the segments

    # both stages of these builds scan, and the relaxed one searches arcs
    # in windows a stage has cut: one cut per visit makes 81 cuts of 52
    # windows here, and 226 of 136
    @pytest.mark.parametrize("family, d", [("triangular", 4), ("kagome", 2)])
    def test_build_cuts_each_window_once(self, family, d, monkeypatch):
        windows, cut = [], lattices._cut_region

        def recording_cut(t, *window):
            windows.append(window)
            return cut(t, *window)

        monkeypatch.setattr(lattices, "_cut_region", recording_cut)
        smallest_patch.__wrapped__(family, d)
        assert windows and len(windows) == len(set(windows))
