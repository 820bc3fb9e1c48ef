"""Axis kernels, partial trace, validators and symplectic conjugation.

The signed Pauli-string algebra (product, matrix, expectation) and the
per-axis contraction of the dense oracles live in tests/oracles.py as
references; they are checked here against dense matrices.
"""

import itertools

import numpy as np
import pytest

from chaincut.circuit import build_linear_cluster
from chaincut.qstate import (
    apply_on_axis,
    assert_density_operator,
    conjugate_cz,
    conjugate_h,
    cz_phases,
    partial_trace,
    projector,
    state_vector_1q,
)

import oracles
from oracles import (
    expectation,
    ket,
    masks_to_pauli,
    pauli_matrix,
    pauli_product,
    pauli_to_masks,
)


class TestPauliMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(pauli_matrix((1, "I")), np.eye(2))

    def test_z_is_diag(self):
        np.testing.assert_array_equal(pauli_matrix((1, "Z")), np.diag([1.0, -1.0]))

    def test_xz_matches_hand_expanded_kronecker(self):
        # X (x) Z expanded entrywise: X swaps the first qubit's blocks,
        # Z signs the second qubit within each block.
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(pauli_matrix((1, "XZ")), expected)

    def test_phase_is_applied(self):
        np.testing.assert_array_equal(
            pauli_matrix((-1, "X")), -pauli_matrix((1, "X"))
        )


class TestAxisKernels:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_apply_on_axis_matches_embedded_operator(self, n):
        rng = np.random.default_rng(40 + n)
        t = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for axis in range(n):
            got = apply_on_axis(t, m, axis).reshape(-1)
            want = oracles.embed(m, (axis,), n) @ t.reshape(-1)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 4])
    def test_oracle_contraction_matches_embedded_operator(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        t = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
        for axes in itertools.permutations(range(n), k):
            m = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            got = oracles.apply_on_axes(t, m, axes).reshape(-1)
            want = oracles.embed(m, axes, n) @ t.reshape(-1)
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=str(axes))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_cz_phases_match_embedded_cz(self, n):
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        for a in range(n):
            for b in range(n):
                if a != b:
                    want = np.diag(oracles.embed(cz, (a, b), n)).real
                    np.testing.assert_array_equal(cz_phases(a, b, n), want)


class TestPauliProducts:
    def test_spec_product_with_cancelling_z(self):
        s1 = (1, "XZII")
        s3 = (1, "IZXZ")
        assert pauli_product(s1, s3) == (1, "XIXZ")

    def test_imaginary_phase_rejected(self):
        with pytest.raises(ValueError, match="imaginary"):
            pauli_product((1, "X"), (1, "Z"))

    def test_product_matches_matrix_product_on_commuting_strings(self):
        rng = np.random.default_rng(11)
        n = 5
        stabs = [oracles.stabilizer(n, i) for i in range(1, n + 1)]
        for _ in range(20):
            a, b = rng.integers(0, n, size=2)
            prod = pauli_product(stabs[a], stabs[b])
            np.testing.assert_allclose(
                pauli_matrix(prod),
                pauli_matrix(stabs[a]) @ pauli_matrix(stabs[b]),
                atol=1e-14,
            )

    def test_letter_table_matches_matrices(self):
        for (a, b), (phase, c) in oracles.LETTER_PRODUCTS.items():
            np.testing.assert_array_equal(
                oracles.PAULIS[a] @ oracles.PAULIS[b], phase * oracles.PAULIS[c]
            )
        assert len(oracles.LETTER_PRODUCTS) == 16

    def test_reduce_product(self):
        factors = [(1, "XZ"), (1, "ZX"), (1, "II")]
        prod = pauli_product(*factors)
        np.testing.assert_allclose(
            pauli_matrix(prod),
            pauli_matrix(factors[0]) @ pauli_matrix(factors[1]),
            atol=1e-14,
        )


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rho = np.kron(projector(ket("0")), projector(state_vector_1q("Xp")))
        np.testing.assert_allclose(partial_trace(rho, [0]), projector(ket("0")), atol=1e-14)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = (ket("00") + ket("11")) / np.sqrt(2)
        for q in (0, 1):
            np.testing.assert_allclose(
                partial_trace(projector(bell), [q]), np.eye(2) / 2, atol=1e-14
            )

    def test_random_state_matches_index_summation_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= rho.trace()
        np.testing.assert_allclose(
            partial_trace(rho, [0, 1]),
            oracles.partial_trace_index_sum(rho, [0, 1]),
            atol=1e-13,
        )

    def test_preserves_trace(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho /= rho.trace()
        for keep in ([0], [1, 3], [0, 1, 2]):
            assert abs(partial_trace(rho, keep).trace() - 1.0) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4) / 4, [0, 5])


class TestExpectation:
    def test_z_eigenstate(self):
        assert expectation(projector(ket("0")), (1, "Z")) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert expectation(np.eye(2) / 2, (1, "X")) == pytest.approx(0.0, abs=1e-14)

    def test_cluster_stabilizer_via_statevector_oracle(self):
        psi = oracles.statevector(build_linear_cluster(4))
        rho = projector(psi)
        assert expectation(rho, (1, "XZII")) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_for_physical_states(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= rho.trace()
            letters = "".join(rng.choice(list("IXYZ"), size=2))
            val = expectation(rho, (1, letters))
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expectation(np.eye(4) / 4, (1, "X"))


class TestValidators:
    def test_accepts_physical_state(self):
        assert_density_operator(np.eye(4) / 4)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            assert_density_operator(bad)

    def test_rejects_unknown_state_label(self):
        with pytest.raises(ValueError, match="unknown state label 'Q'"):
            state_vector_1q("Q")

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            assert_density_operator(bad)


class TestConjugation:
    """Symplectic conjugation agrees with dense matrix conjugation on every 3-qubit Pauli."""

    LETTERS = ["".join(t) for t in itertools.product("IXYZ", repeat=3)]

    def conjugated(self, conj, *qubits) -> list[tuple[int, str]]:
        """All 64 strings conjugated as one batch, the gate naming ``qubits`` by bit mask."""
        x, z = (np.array(m, dtype=np.int64) for m in zip(*map(pauli_to_masks, self.LETTERS)))
        sign = np.ones(len(self.LETTERS))
        conj(x, z, sign, *(1 << (2 - q) for q in qubits))
        return [(int(s), masks_to_pauli(xi, zi, 3)) for s, xi, zi in zip(sign, x, z)]

    def assert_conjugates(self, got, gate: np.ndarray) -> None:
        for letters, p in zip(self.LETTERS, got):
            want = gate @ pauli_matrix((1, letters)) @ gate.conj().T
            np.testing.assert_allclose(pauli_matrix(p), want, atol=1e-14, err_msg=letters)

    @pytest.mark.parametrize("gate,conj,matrix", [
        ("H", conjugate_h, oracles.H),
    ])
    def test_single_qubit(self, gate, conj, matrix):
        for q in range(3):
            self.assert_conjugates(self.conjugated(conj, q), oracles.embed(matrix, (q,), 3))

    def test_cz(self):
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        for a, b in itertools.permutations(range(3), 2):
            got = self.conjugated(conjugate_cz, a, b)
            self.assert_conjugates(got, oracles.embed(cz, (a, b), 3))

    def test_identity_roundtrip(self):
        # every 4-qubit string survives letters -> masks -> letters; I...I is (0, 0)
        assert pauli_to_masks("IIII") == (0, 0)
        for t in itertools.product("IXYZ", repeat=4):
            letters = "".join(t)
            assert masks_to_pauli(*pauli_to_masks(letters), 4) == letters
