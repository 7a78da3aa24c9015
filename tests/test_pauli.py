import dataclasses

import numpy as np
import pytest

from sweepdecode.pauli import (
    CodeDefinition,
    PauliOperator,
    commutes,
    gf2_nullspace,
    gf2_rref,
    identity_pauli,
    logical_class,
    multiply,
    pauli_from_string,
    pauli_to_string,
    pure_error,
    pure_error_batch,
    single_qubit_pauli,
    stabiliser_basis,
    syndrome,
    syndrome_batch,
    validate_code,
    weight,
)


def smallest_patch():
    """Five-qubit distance-2 surface code patch."""
    checks = [
        pauli_from_string("XXX" + "II"),
        pauli_from_string("II" + "XXX"),
        pauli_from_string("ZIZZI"),
        pauli_from_string("IZZIZ"),
    ]
    return CodeDefinition(
        n=5,
        checks=checks,
        logical_x=pauli_from_string("XIIXI"),
        logical_z=pauli_from_string("ZZIII"),
        qubit_coords=[(0, 0), (1, 0), (0.5, 0.5), (0, 1), (1, 1)],
        check_coords=[(0.5, 0.2), (0.5, 0.8), (0.2, 0.5), (0.8, 0.5)],
        claimed_distance=2,
    )


def two_by_two_gauge_code():
    """Smallest gauge code on a 2x2 qubit grid: row XX and column ZZ pairs."""
    checks = [
        pauli_from_string("XXII"),
        pauli_from_string("IIXX"),
        pauli_from_string("ZIZI"),
        pauli_from_string("IZIZ"),
    ]
    return CodeDefinition(
        n=4,
        checks=checks,
        logical_x=pauli_from_string("XIXI"),
        logical_z=pauli_from_string("ZZII"),
        qubit_coords=[(0, 0), (1, 0), (0, 1), (1, 1)],
        check_coords=[(0.5, 0), (0.5, 1), (0, 0.5), (1, 0.5)],
        claimed_distance=2,
        is_subsystem=True,
    )


def random_pauli(rng, n):
    return PauliOperator(rng.integers(0, 2, n), rng.integers(0, 2, n))


class TestOperatorAlgebra:
    def test_single_qubit_commutation(self):
        x = pauli_from_string("X")
        z = pauli_from_string("Z")
        assert not commutes(x, z)
        assert commutes(x, x)

    def test_two_anticommuting_factors_cancel(self):
        assert commutes(pauli_from_string("XZ"), pauli_from_string("ZX"))

    def test_multiply_is_involution(self):
        rng = np.random.default_rng(1)
        p = random_pauli(rng, 8)
        assert multiply(p, p).is_identity()

    def test_x_times_z_is_y(self):
        y = multiply(pauli_from_string("X"), pauli_from_string("Z"))
        assert pauli_to_string(y) == "Y"

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q, r = (random_pauli(rng, 6) for _ in range(3))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            commutes(identity_pauli(2), identity_pauli(3))
        with pytest.raises(ValueError):
            multiply(identity_pauli(2), identity_pauli(3))

    def test_string_round_trip(self):
        s = "IXYZZYXI"
        assert pauli_to_string(pauli_from_string(s)) == s
        with pytest.raises(ValueError):
            pauli_from_string("XQ")

    def test_weight_counts_non_identity(self):
        assert weight(pauli_from_string("IXYZI")) == 3

    def test_single_qubit_constructor(self):
        p = single_qubit_pauli(4, 2, "Y")
        assert pauli_to_string(p) == "IIYI"


class TestSyndrome:
    def test_identity_error_silent(self):
        code = smallest_patch()
        assert not syndrome(code, identity_pauli(5)).any()

    def test_check_is_silent(self):
        code = smallest_patch()
        for c in code.checks:
            assert not syndrome(code, c).any()

    def test_bulk_x_flips_adjacent_plaquettes(self):
        code = smallest_patch()
        syn = syndrome(code, single_qubit_pauli(5, 2, "X"))
        # qubit 2 sits on both Z checks and no others
        np.testing.assert_array_equal(syn, [0, 0, 1, 1])

    def test_homomorphism(self):
        code = smallest_patch()
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = random_pauli(rng, 5), random_pauli(rng, 5)
            lhs = syndrome(code, multiply(p, q))
            rhs = syndrome(code, p) ^ syndrome(code, q)
            np.testing.assert_array_equal(lhs, rhs)

    def test_batch_matches_single(self):
        code = smallest_patch()
        rng = np.random.default_rng(4)
        ps = [random_pauli(rng, 5) for _ in range(16)]
        xs = np.array([p.x for p in ps])
        zs = np.array([p.z for p in ps])
        batch = syndrome_batch(code, xs, zs)
        for i, p in enumerate(ps):
            np.testing.assert_array_equal(batch[i], syndrome(code, p))

    def test_malformed_input_rejected(self):
        code = smallest_patch()
        bits = np.zeros((3, 5), dtype=np.uint8)
        for x, z in ((bits[0], bits[0]), (bits, bits[:, :4]), (bits[None], bits[None])):
            with pytest.raises(ValueError):
                syndrome_batch(code, x, z)
        with pytest.raises(ValueError):
            syndrome(code, identity_pauli(4))

    def test_replaced_code_builds_its_own_tables(self):
        # the cached check matrix and solver belong to one code, not to
        # every copy dataclasses.replace makes of it
        code = smallest_patch()
        error = single_qubit_pauli(5, 0, "X")
        syn = syndrome(code, error)
        np.testing.assert_array_equal(syn, [0, 0, 1, 0])
        pure_error(code, syn)
        flipped = dataclasses.replace(code, checks=code.checks[::-1])
        flipped_syn = syndrome(flipped, error)
        np.testing.assert_array_equal(flipped_syn, [0, 1, 0, 0])
        np.testing.assert_array_equal(syndrome(flipped, pure_error(flipped, flipped_syn)), flipped_syn)
        np.testing.assert_array_equal(syndrome(code, error), syn)


class TestPureError:
    def test_zero_syndrome_gives_identity(self):
        code = smallest_patch()
        assert pure_error(code, np.zeros(4, dtype=np.uint8)).is_identity()

    def test_destabiliser_hits_one_check(self):
        code = smallest_patch()
        for i in range(code.num_checks):
            e = np.zeros(code.num_checks, dtype=np.uint8)
            e[i] = 1
            np.testing.assert_array_equal(syndrome(code, pure_error(code, e)), e)

    def test_coset_representative_property(self):
        code = smallest_patch()
        rng = np.random.default_rng(5)
        for _ in range(1000):
            e = random_pauli(rng, 5)
            syn = syndrome(code, e)
            r = pure_error(code, syn)
            np.testing.assert_array_equal(syndrome(code, r), syn)
            # r and e differ by a syndrome-free operator
            assert not syndrome(code, multiply(r, e)).any()

    def test_gauge_code_syndromes_solvable(self):
        code = two_by_two_gauge_code()
        rng = np.random.default_rng(6)
        for _ in range(200):
            e = random_pauli(rng, 4)
            syn = syndrome(code, e)
            np.testing.assert_array_equal(syndrome(code, pure_error(code, syn)), syn)

    def test_unattainable_syndrome_rejected(self):
        # third check is the product of the first two, so its syndrome bit
        # is forced to their XOR
        code = CodeDefinition(
            n=3,
            checks=[pauli_from_string("ZZI"), pauli_from_string("IZZ"), pauli_from_string("ZIZ")],
            logical_x=pauli_from_string("XXX"),
            logical_z=pauli_from_string("ZII"),
            qubit_coords=[(0, 0), (1, 0), (2, 0)],
            check_coords=[(0.5, 0), (1.5, 0), (1, 1)],
            claimed_distance=1,
        )
        with pytest.raises(ValueError):
            pure_error(code, [1, 0, 0])

    def test_batch_matches_single(self):
        code = smallest_patch()
        rng = np.random.default_rng(7)
        syns = np.array([syndrome(code, random_pauli(rng, 5)) for _ in range(32)])
        xs, zs = pure_error_batch(code, syns)
        for i in range(32):
            single = pure_error(code, syns[i])
            np.testing.assert_array_equal(xs[i], single.x)
            np.testing.assert_array_equal(zs[i], single.z)

    def test_malformed_input_rejected(self):
        code = smallest_patch()
        for syns in (np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 4))):
            with pytest.raises(ValueError):
                pure_error_batch(code, syns)
        for syn in ([0, 0, 0], np.zeros((1, 4))):
            with pytest.raises(ValueError):
                pure_error(code, syn)


class TestLogicalClass:
    def test_four_classes(self):
        code = smallest_patch()
        lx, lz = code.logical_x, code.logical_z
        assert logical_class(code, identity_pauli(5)) == "I"
        assert logical_class(code, lx) == "X"
        assert logical_class(code, lz) == "Z"
        assert logical_class(code, multiply(lx, lz)) == "Y"

    def test_stabiliser_multiplication_invariant(self):
        code = smallest_patch()
        for c in code.checks:
            assert logical_class(code, multiply(code.logical_x, c)) == "X"
            assert logical_class(code, multiply(code.logical_z, c)) == "Z"

    def test_rejects_syndrome_carrying_operator(self):
        code = smallest_patch()
        with pytest.raises(ValueError):
            logical_class(code, single_qubit_pauli(5, 2, "X"))

    def test_gauge_element_is_trivial_class(self):
        code = two_by_two_gauge_code()
        for c in code.checks:
            assert logical_class(code, c) == "I"
        assert logical_class(code, code.logical_x) == "X"


class TestStabiliserBasis:
    def test_stabiliser_code_basis_spans_checks(self):
        code = smallest_patch()
        basis = stabiliser_basis(code)
        assert len(basis) == 4
        for b in basis:
            assert not syndrome(code, b).any()

    def test_gauge_code_center(self):
        code = two_by_two_gauge_code()
        basis = stabiliser_basis(code)
        assert len(basis) == 2
        got = {pauli_to_string(b) for b in basis}
        assert got == {"XXXX", "ZZZZ"}
        for b in basis:
            for c in code.checks:
                assert commutes(b, c)


class TestValidation:
    def test_good_codes_pass(self):
        validate_code(smallest_patch())
        validate_code(two_by_two_gauge_code())

    def test_anticommuting_checks_rejected(self):
        code = smallest_patch()
        code.checks[0] = pauli_from_string("ZXIII")
        with pytest.raises(ValueError):
            validate_code(code)

    def test_logical_check_conflict_rejected(self):
        code = smallest_patch()
        code.logical_x = pauli_from_string("XIIII")
        with pytest.raises(ValueError):
            validate_code(code)

    def test_commuting_logicals_rejected(self):
        code = smallest_patch()
        code.logical_x = code.logical_z
        with pytest.raises(ValueError):
            validate_code(code)

    def test_duplicate_coords_rejected(self):
        code = smallest_patch()
        code.qubit_coords[1] = code.qubit_coords[0]
        with pytest.raises(ValueError):
            validate_code(code)


class TestGF2:
    def test_rref_transform_consistent(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rng.integers(0, 2, size=(6, 9)).astype(np.uint8)
            r, pivots, t = gf2_rref(m)
            np.testing.assert_array_equal((t @ m) % 2, r)
            for row, col in enumerate(pivots):
                column = r[:, col]
                assert column[row] == 1 and column.sum() == 1

    def test_nullspace_annihilates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.integers(0, 2, size=(5, 8)).astype(np.uint8)
            null = gf2_nullspace(m)
            assert null.shape[0] >= 8 - 5
            if null.size:
                np.testing.assert_array_equal((m @ null.T) % 2, 0)

    def test_rank_nullity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.integers(0, 2, size=(7, 7)).astype(np.uint8)
            _, pivots, _ = gf2_rref(m)
            assert len(pivots) + gf2_nullspace(m).shape[0] == 7
