import pytest

from oracles import assert_straight_line_embedding, brute_force_distances
from sweepdecode.codes.graphs import (
    ROUGH,
    SMOOTH,
    BoundarySegment,
    PatchError,
    PlanarGraph,
    dual_patch,
    surface_code_from_graph,
    validate_patch,
)
from sweepdecode.pauli import commutes, pauli_to_string, validate_code


def square_two_patch() -> PlanarGraph:
    """A 2x1 block of unit squares with rough columns left and right.

    Vertices 0..5 on two rows; the outer columns are the rough sides,
    so their vertical edges carry no qubits and the remaining 5 edges
    are the distance-2 surface code.
    """
    positions = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    edges = (
        (0, 1), (1, 2),           # bottom horizontals
        (3, 4), (4, 5),           # top horizontals
        (0, 3), (1, 4), (2, 5),   # verticals
    )
    faces = ((0, 5, 2, 4), (1, 6, 3, 5))
    segments = (
        BoundarySegment(ROUGH, (0, 3)),
        BoundarySegment(SMOOTH, (4,)),
        BoundarySegment(ROUGH, (5, 2)),
        BoundarySegment(SMOOTH, (1,)),
    )
    return PlanarGraph(positions, edges, faces, segments)


def bowtie_patch() -> PlanarGraph:
    """Two triangles pinched at vertex 2, one rough side per triangle.

    The boundary walk passes vertex 2 twice, once on each smooth side,
    so the kept edges (1,2), (0,2), (2,3), (2,4) form a distance-2 code.
    """
    positions = ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2))
    edges = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))
    faces = ((0, 1, 2), (3, 4, 5))
    segments = (
        BoundarySegment(ROUGH, (0, 1)),
        BoundarySegment(SMOOTH, (2,)),
        BoundarySegment(ROUGH, (4, 3)),
        BoundarySegment(SMOOTH, (2,)),
    )
    return PlanarGraph(positions, edges, faces, segments)


class TestPatchValidation:
    def test_square_two_patch_valid(self):
        g = square_two_patch()
        validate_patch(g)
        assert_straight_line_embedding(g)

    def test_euler_violation_detected(self):
        g = square_two_patch()
        bad = PlanarGraph(g.positions, g.edges, g.faces[:1], g.segments)
        with pytest.raises(PatchError):
            validate_patch(bad)

    def test_nonalternating_segments_detected(self):
        g = square_two_patch()
        segs = (
            BoundarySegment(ROUGH, (0, 3)),
            BoundarySegment(ROUGH, (4,)),
            BoundarySegment(SMOOTH, (5, 2)),
            BoundarySegment(SMOOTH, (1,)),
        )
        with pytest.raises(PatchError):
            validate_patch(PlanarGraph(g.positions, g.edges, g.faces, segs))

    def test_segments_must_cover_perimeter(self):
        g = square_two_patch()
        segs = (
            BoundarySegment(ROUGH, (0,)),
            BoundarySegment(SMOOTH, (4,)),
            BoundarySegment(ROUGH, (5, 2)),
            BoundarySegment(SMOOTH, (1,)),
        )
        with pytest.raises(PatchError):
            validate_patch(PlanarGraph(g.positions, g.edges, g.faces, segs))

    def test_crossing_edges_detected_with_geometry(self):
        positions = ((0, 0), (1, 0), (1, 1), (0, 1))
        edges = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
        faces = ((0, 1, 4), (2, 3, 4))
        segments = (
            BoundarySegment(ROUGH, (0,)),
            BoundarySegment(SMOOTH, (1,)),
            BoundarySegment(ROUGH, (2,)),
            BoundarySegment(SMOOTH, (3,)),
        )
        g = PlanarGraph(positions, edges, faces, segments)
        with pytest.raises(PatchError, match="edges 4 and 5 cross"):
            assert_straight_line_embedding(g)

    def test_perimeter_cycle_of_block(self):
        cyc = square_two_patch().walk[0]
        assert sorted(cyc) == [0, 1, 2, 3, 4, 5]
        assert len(cyc) == 6

    def test_pinched_boundary_walk(self):
        g = bowtie_patch()
        assert g.walk[0] == [0, 1, 2, 4, 3, 2]
        validate_patch(g)
        assert_straight_line_embedding(g)
        code = surface_code_from_graph(g)
        assert code.n == 4
        assert code.claimed_distance == 2
        assert brute_force_distances(code, 2) == (2, 2)

    def test_two_components_rejected(self):
        # the bowtie with its pinch vertex split in two: each triangle
        # has its own boundary walk
        g = bowtie_patch()
        apart = PlanarGraph(
            g.positions + ((1.5, 1.0),),
            ((0, 1), (1, 2), (0, 2), (5, 3), (3, 4), (5, 4)),
            g.faces, g.segments)
        with pytest.raises(PatchError, match="more than one closed walk"):
            apart.walk

    def test_edge_face_table(self):
        table = square_two_patch().face_table
        assert table[5] == [0, 1]      # middle vertical borders both faces
        assert table[0] == [0]


class TestSurfaceCodeFromGraph:
    def test_distance_two_block_is_five_qubit_code(self):
        code = surface_code_from_graph(square_two_patch())
        assert code.n == 5
        assert len(code.checks) == 4
        assert code.claimed_distance == 2
        validate_code(code)

    def test_five_qubit_check_structure(self):
        code = surface_code_from_graph(square_two_patch())
        strings = sorted(pauli_to_string(c) for c in code.checks)
        # Qubits in kept-edge order: (0,1), (1,2), (3,4), (4,5), (1,4).
        assert strings == sorted(
            ["XXIIX", "IIXXX", "ZIZIZ", "IZIZZ"]
        )

    def test_logicals_anticommute_and_have_weight_two(self):
        code = surface_code_from_graph(square_two_patch())
        assert not commutes(code.logical_x, code.logical_z)
        assert brute_force_distances(code, 2) == (2, 2)

    def test_alternative_designation_also_valid(self):
        # Moving a corner from rough to smooth keeps one more edge and
        # still yields a distance-2 code on 6 qubits.
        g = square_two_patch()
        segs = (
            BoundarySegment(ROUGH, (0, 3)),
            BoundarySegment(SMOOTH, (4,)),
            BoundarySegment(ROUGH, (5,)),
            BoundarySegment(SMOOTH, (2, 1)),
        )
        other = PlanarGraph(g.positions, g.edges, g.faces, segs)
        code = surface_code_from_graph(other)
        validate_code(code)
        assert code.n == 6
        assert brute_force_distances(code, 2) == (2, 2)

    def test_coordinates_follow_layout(self):
        code = surface_code_from_graph(square_two_patch())
        assert code.qubit_coords[0] == (0.5, 0.0)
        assert len(code.check_coords) == len(code.checks)


class TestDualPatch:
    def test_dual_of_block_counts(self):
        g = square_two_patch()
        dg = dual_patch(g)
        validate_patch(dg)
        # Same code size: one dual edge per primal qubit edge.
        ghosts = dg.ghosts()
        dual_qubit_edges = [e for e in dg.edges
                            if not (e[0] in ghosts and e[1] in ghosts)]
        assert len(dual_qubit_edges) == 5

    def test_dual_code_is_bit_swapped_primal(self):
        g = square_two_patch()
        primal = surface_code_from_graph(g)
        dual = surface_code_from_graph(dual_patch(g))
        primal_swapped = sorted(
            pauli_to_string(c).translate(str.maketrans("XZ", "ZX"))
            for c in primal.checks
        )
        assert sorted(pauli_to_string(c) for c in dual.checks) \
            == primal_swapped

    def test_double_dual_restores_check_structure(self):
        g = square_two_patch()
        code = surface_code_from_graph(g)
        back = surface_code_from_graph(dual_patch(dual_patch(g)))
        assert sorted(pauli_to_string(c) for c in back.checks) \
            == sorted(pauli_to_string(c) for c in code.checks)

    def test_dual_swaps_boundary_kinds(self):
        dg = dual_patch(square_two_patch())
        kinds = [s.kind for s in dg.segments]
        assert kinds in ([ROUGH, SMOOTH, ROUGH, SMOOTH],)
        assert len(dg.rough_segments()) == 2
