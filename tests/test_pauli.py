import dataclasses

import numpy as np
import pytest

from sweepdecode.pauli import (
    CodeDefinition,
    PauliOperator,
    commutes,
    gf2_nullspace,
    gf2_rref,
    logical_class,
    pauli_to_string,
    pure_error_batch,
    stabiliser_basis,
    syndrome_batch,
    validate_code,
)


def pauli(s):
    """The operator spelled by a string of I, X, Y and Z."""
    return PauliOperator([c in "XY" for c in s], [c in "ZY" for c in s])


def product(p, q):
    return PauliOperator(p.x ^ q.x, p.z ^ q.z)


def syndromes(code, *paulis):
    """syndrome_batch of the operators, one row each."""
    return syndrome_batch(code, np.array([p.x for p in paulis]), np.array([p.z for p in paulis]))


def smallest_patch():
    """Five-qubit distance-2 surface code patch."""
    checks = [
        pauli("XXX" + "II"),
        pauli("II" + "XXX"),
        pauli("ZIZZI"),
        pauli("IZZIZ"),
    ]
    return CodeDefinition(
        n=5,
        checks=checks,
        logical_x=pauli("XIIXI"),
        logical_z=pauli("ZZIII"),
        qubit_coords=[(0, 0), (1, 0), (0.5, 0.5), (0, 1), (1, 1)],
        check_coords=[(0.5, 0.2), (0.5, 0.8), (0.2, 0.5), (0.8, 0.5)],
        claimed_distance=2,
    )


def two_by_two_gauge_code():
    """Smallest gauge code on a 2x2 qubit grid: row XX and column ZZ pairs."""
    checks = [
        pauli("XXII"),
        pauli("IIXX"),
        pauli("ZIZI"),
        pauli("IZIZ"),
    ]
    return CodeDefinition(
        n=4,
        checks=checks,
        logical_x=pauli("XIXI"),
        logical_z=pauli("ZZII"),
        qubit_coords=[(0, 0), (1, 0), (0, 1), (1, 1)],
        check_coords=[(0.5, 0), (0.5, 1), (0, 0.5), (1, 0.5)],
        claimed_distance=2,
        is_subsystem=True,
    )


def random_bits(rng, shots, n):
    return rng.integers(0, 2, (shots, n), dtype=np.uint8), rng.integers(0, 2, (shots, n), dtype=np.uint8)


class TestOperatorAlgebra:
    def test_single_qubit_commutation(self):
        x = pauli("X")
        z = pauli("Z")
        assert not commutes(x, z)
        assert commutes(x, x)

    def test_two_anticommuting_factors_cancel(self):
        assert commutes(pauli("XZ"), pauli("ZX"))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            commutes(pauli("II"), pauli("III"))

    def test_string_round_trip(self):
        s = "IXYZZYXI"
        assert pauli_to_string(pauli(s)) == s

    @pytest.mark.parametrize(
        "x, z, name",
        [
            (np.array([2, 0, 1]), np.array([0, 0, 0]), "x"),
            (np.array([1, 0, 1]), np.array([-1, 0, 0]), "z"),
            (np.array([0.5, 0, 1]), np.array([0, 0, 0]), "x"),
            (np.array([0, 0, 1], dtype=np.uint8), np.array([0, 3, 0], dtype=np.uint8), "z"),
        ],
    )
    def test_entry_that_is_not_a_bit_raises(self, x, z, name):
        # checked before any cast: 2 and -1 are not read as 0 and 1
        with pytest.raises(ValueError, match=f"^{name} must hold only 0 and 1"):
            PauliOperator(x, z)

    def test_bits_of_any_type_are_read_as_a_private_copy(self):
        want = pauli("XYIZ")
        for x, z in (([True, True, False, False], [False, True, False, True]),
                     ([1, 1, 0, 0], [0, 1, 0, 1]),
                     (np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]))):
            assert PauliOperator(x, z) == want
        x = np.array([1, 1, 0, 0], dtype=np.uint8)
        p = PauliOperator(x, want.z)
        assert p.x.dtype == np.uint8 and not p.x.flags.writeable
        assert x.flags.writeable and not np.shares_memory(p.x, x)


class TestSyndrome:
    def test_identity_error_silent(self):
        code = smallest_patch()
        assert not syndromes(code, pauli("IIIII")).any()

    def test_check_is_silent(self):
        code = smallest_patch()
        assert not syndromes(code, *code.checks).any()

    def test_bulk_x_flips_adjacent_plaquettes(self):
        code = smallest_patch()
        # qubit 2 sits on both Z checks and no others
        np.testing.assert_array_equal(syndromes(code, pauli("IIXII")), [[0, 0, 1, 1]])

    def test_homomorphism(self):
        code = smallest_patch()
        rng = np.random.default_rng(3)
        (px, pz), (qx, qz) = random_bits(rng, 50, 5), random_bits(rng, 50, 5)
        lhs = syndrome_batch(code, px ^ qx, pz ^ qz)
        rhs = syndrome_batch(code, px, pz) ^ syndrome_batch(code, qx, qz)
        np.testing.assert_array_equal(lhs, rhs)

    def test_batch_matches_single(self):
        # each row is the anticommutation of one operator with each check
        code = smallest_patch()
        xs, zs = random_bits(np.random.default_rng(4), 16, 5)
        batch = syndrome_batch(code, xs, zs)
        for i in range(16):
            p = PauliOperator(xs[i], zs[i])
            np.testing.assert_array_equal(batch[i], [not commutes(p, c) for c in code.checks])

    def test_malformed_input_rejected(self):
        code = smallest_patch()
        bits = np.zeros((3, 5), dtype=np.uint8)
        for x, z in ((bits[0], bits[0]), (bits, bits[:, :4]), (bits[None], bits[None]),
                     (bits[:, :4], bits[:, :4])):
            with pytest.raises(ValueError):
                syndrome_batch(code, x, z)
        # an entry that is not a bit, of any dtype, names its argument
        for dtype, bad, name in ((np.uint8, 2, "x bits"), (np.int64, -1, "z bits"),
                                 (np.float64, 0.5, "x bits")):
            x, z = bits.astype(dtype), bits.astype(dtype)
            (x if name == "x bits" else z)[1, 2] = bad
            with pytest.raises(ValueError, match=name):
                syndrome_batch(code, x, z)
        for ok in (bits.astype(bool), bits.astype(np.int64), bits.tolist()):
            np.testing.assert_array_equal(syndrome_batch(code, ok, ok), np.zeros((3, 4)))

    def test_replaced_code_builds_its_own_tables(self):
        # the cached check matrix and solver belong to one code, not to
        # every copy dataclasses.replace makes of it
        code = smallest_patch()
        error = pauli("XIIII")
        syn = syndromes(code, error)
        np.testing.assert_array_equal(syn, [[0, 0, 1, 0]])
        pure_error_batch(code, syn)
        flipped = dataclasses.replace(code, checks=code.checks[::-1])
        flipped_syn = syndromes(flipped, error)
        np.testing.assert_array_equal(flipped_syn, [[0, 1, 0, 0]])
        np.testing.assert_array_equal(
            syndrome_batch(flipped, *pure_error_batch(flipped, flipped_syn)), flipped_syn)
        np.testing.assert_array_equal(syndromes(code, error), syn)


class TestPureError:
    def test_zero_syndrome_gives_identity(self):
        code = smallest_patch()
        xs, zs = pure_error_batch(code, np.zeros((1, 4), dtype=np.uint8))
        assert not xs.any() and not zs.any()

    def test_destabiliser_hits_one_check(self):
        code = smallest_patch()
        eye = np.eye(code.num_checks, dtype=np.uint8)
        np.testing.assert_array_equal(syndrome_batch(code, *pure_error_batch(code, eye)), eye)

    def test_coset_representative_property(self):
        code = smallest_patch()
        xs, zs = random_bits(np.random.default_rng(5), 1000, 5)
        syn = syndrome_batch(code, xs, zs)
        rx, rz = pure_error_batch(code, syn)
        np.testing.assert_array_equal(syndrome_batch(code, rx, rz), syn)
        # each representative and its error differ by a syndrome-free operator
        assert not syndrome_batch(code, rx ^ xs, rz ^ zs).any()

    def test_gauge_code_syndromes_solvable(self):
        code = two_by_two_gauge_code()
        syn = syndrome_batch(code, *random_bits(np.random.default_rng(6), 200, 4))
        np.testing.assert_array_equal(syndrome_batch(code, *pure_error_batch(code, syn)), syn)

    def test_unattainable_syndrome_rejected(self):
        # third check is the product of the first two, so its syndrome bit
        # is forced to their XOR
        code = CodeDefinition(
            n=3,
            checks=[pauli("ZZI"), pauli("IZZ"), pauli("ZIZ")],
            logical_x=pauli("XXX"),
            logical_z=pauli("ZII"),
            qubit_coords=[(0, 0), (1, 0), (2, 0)],
            check_coords=[(0.5, 0), (1.5, 0), (1, 1)],
            claimed_distance=1,
        )
        with pytest.raises(ValueError, match="not attainable"):
            pure_error_batch(code, [[0, 0, 0], [1, 0, 0]])

    def test_batch_matches_single(self):
        # a batch solves each row as that row would be solved alone
        code = smallest_patch()
        syns = syndrome_batch(code, *random_bits(np.random.default_rng(7), 32, 5))
        xs, zs = pure_error_batch(code, syns)
        for i in range(32):
            x, z = pure_error_batch(code, syns[i : i + 1])
            np.testing.assert_array_equal(xs[i], x[0])
            np.testing.assert_array_equal(zs[i], z[0])

    def test_malformed_input_rejected(self):
        code = smallest_patch()
        for syns in (np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 4))):
            with pytest.raises(ValueError):
                pure_error_batch(code, syns)
        for bad in (np.array([[0, 0, 3, 0]], dtype=np.uint8), [[0, -1, 0, 0]], [[0, 0, 0, 0.5]]):
            with pytest.raises(ValueError, match="syndromes"):
                pure_error_batch(code, bad)
        for ok in (np.array([[0, 0, 1, 0]], dtype=bool), [[0, 0, 1, 0]]):
            xs, zs = pure_error_batch(code, ok)
            np.testing.assert_array_equal(syndrome_batch(code, xs, zs), [[0, 0, 1, 0]])


class TestLogicalClass:
    def test_four_classes(self):
        code = smallest_patch()
        lx, lz = code.logical_x, code.logical_z
        assert logical_class(code, pauli("IIIII")) == "I"
        assert logical_class(code, lx) == "X"
        assert logical_class(code, lz) == "Z"
        assert logical_class(code, product(lx, lz)) == "Y"

    def test_stabiliser_multiplication_invariant(self):
        code = smallest_patch()
        for c in code.checks:
            assert logical_class(code, product(code.logical_x, c)) == "X"
            assert logical_class(code, product(code.logical_z, c)) == "Z"

    def test_rejects_syndrome_carrying_operator(self):
        code = smallest_patch()
        with pytest.raises(ValueError):
            logical_class(code, pauli("IIXII"))

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
        assert not syndromes(code, *basis).any()

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
        code.checks[0] = pauli("ZXIII")
        with pytest.raises(ValueError):
            validate_code(code)

    def test_logical_check_conflict_rejected(self):
        code = smallest_patch()
        code.logical_x = pauli("XIIII")
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
