"""Circuit builders, basis changes and circuit validation."""

import numpy as np
import pytest

from chaincut.circuit import (
    Circuit,
    GateOp,
    basis_change_ops,
    build_block_subcircuit,
    build_linear_cluster,
    pull_back,
)

import oracles


def gate_counts(c: Circuit) -> dict:
    out: dict = {}
    for op in c.ops:
        out[op.kind] = out.get(op.kind, 0) + 1
    return out


class TestLinearCluster:
    def test_single_qubit(self):
        c = build_linear_cluster(1)
        assert gate_counts(c) == {"H": 1}

    def test_two_qubit_stabilizers(self):
        psi = oracles.statevector(build_linear_cluster(2))
        for letters in ("XZ", "ZX"):
            op = np.kron(oracles.PAULIS[letters[0]], oracles.PAULIS[letters[1]])
            assert np.real(psi.conj() @ op @ psi) == pytest.approx(1.0, abs=1e-12)

    def test_twelve_qubit_gate_counts(self):
        c = build_linear_cluster(12)
        assert gate_counts(c) == {"H": 12, "CZ": 11}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_linear_cluster(0)


class TestBlockSubcircuit:
    def test_four_qubit_form_with_plus_input_is_cluster_state(self):
        block = build_block_subcircuit("4q", "Xp")
        psi_block = oracles.statevector(block)
        psi_lc = oracles.statevector(build_linear_cluster(4))
        assert abs(psi_block.conj() @ psi_lc) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_three_qubit_form_with_plus_input_is_cluster_state(self):
        block = build_block_subcircuit("3q", "Xp")
        psi_block = oracles.statevector(block)
        psi_lc = oracles.statevector(build_linear_cluster(3))
        assert abs(psi_block.conj() @ psi_lc) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_three_qubit_z0_prep_structure(self):
        c = build_block_subcircuit("3q", "Z0")
        assert c.ops[0] == GateOp("prep", (0,), "Z0")
        assert gate_counts(c) == {"prep": 1, "H": 2, "CZ": 2}

    def test_arbitrary_input_matches_dense_oracle(self):
        c = build_block_subcircuit("4q", "Ym")
        psi = oracles.statevector(c)
        # final-state expectations against embedded Pauli matrices
        op = oracles.embed(oracles.PAULIS["Z"], (1,), 4)
        from chaincut.direct import run_statevector

        psi_lib = run_statevector(c)
        assert abs(psi.conj() @ psi_lib) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert np.real(psi.conj() @ op @ psi) == pytest.approx(
            np.real(psi_lib.conj() @ op @ psi_lib), abs=1e-12
        )


class TestBasisChanges:
    def test_all_z_is_empty(self):
        assert basis_change_ops("ZZZ") == []

    def test_x_basis_on_plus_state(self):
        c = Circuit(1, (GateOp("prep", (0,), "Xp"),))
        psi = oracles.statevector(c)
        p = oracles.measured_distribution(psi, "X")
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_y_basis_on_plus_i_state(self):
        c = Circuit(1, (GateOp("prep", (0,), "Yp"),))
        psi = oracles.statevector(c)
        p = oracles.measured_distribution(psi, "Y")
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_rotations(self):
        ops = basis_change_ops("XZX")
        assert [(o.kind, o.qubits) for o in ops] == [("H", (0,)), ("H", (2,))]


    def test_setting_validated(self):
        with pytest.raises(ValueError, match="invalid for 4 qubits"):
            basis_change_ops("XZX", 4)
        with pytest.raises(ValueError, match="bad basis"):
            basis_change_ops("XQ", 2)
        with pytest.raises(ValueError, match="bad basis"):  # no job reads out in Y
            basis_change_ops("XY", 2)


class TestValidation:
    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError, match="references qubit"):
            Circuit(2, (GateOp("H", (2,)),))

    def test_double_prep_rejected(self):
        ops = (GateOp("prep", (0,), "Z0"), GateOp("prep", (0,), "Z1"))
        with pytest.raises(ValueError, match="prepared twice"):
            Circuit(1, ops)

    def test_prep_after_gate_rejected(self):
        ops = (GateOp("H", (0,)), GateOp("prep", (0,), "Z0"))
        with pytest.raises(ValueError, match="precede"):
            Circuit(1, ops)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: GateOp("T", (0,)), "unknown gate kind"),
            (lambda: GateOp("H", (0, 1)), "exactly one qubit"),
            (lambda: GateOp("prep", (0,), "Q"), "bad prep label"),
            (lambda: GateOp("H", (0,), "Xp"), "takes no label"),
            (lambda: Circuit(0, ()), "at least one qubit"),
            (lambda: build_block_subcircuit("5q", "Xp"), "unknown block form"),
        ],
        ids=["kind", "one-qubit-on-two", "prep-label", "gate-label", "no-qubits", "block-form"],
    )
    def test_malformed_op_or_circuit_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_cz_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            GateOp("CZ", (1, 1))



class TestPullBack:
    @pytest.mark.parametrize("form, meas", [("4q", "XZXX"), ("4q", "ZXZZ"), ("3q", "XZX")])
    def test_frames_are_the_parities_conjugated_back_through_the_circuit(self, form, meas):
        # each frame T is U^dag Z_T U, U the block's ops after its prep and
        # then the readout rotations, with its sign
        c = build_block_subcircuit(form, "Xm")
        n = c.n_qubits
        u = np.eye(2**n, dtype=complex)
        for op in c.ops[1:] + tuple(basis_change_ops(meas, n)):
            u = oracles.embed(oracles.gate_matrix(op), op.qubits, n) @ u
        x, z, signed = pull_back(c, meas)
        for t in range(2**n):
            parity = "".join("IZ"[(t >> (n - 1 - q)) & 1] for q in range(n))
            want = u.conj().T @ oracles.pauli_matrix((1, parity)) @ u
            frame = oracles.masks_to_pauli(int(x[t]), int(z[t]), n)
            got = oracles.pauli_matrix((int(signed[t]), frame))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=parity)

    def test_an_insertion_damps_the_frames_that_meet_it(self):
        # depolarizing qubit 0 after the CZ damps the parities that read it
        c = build_linear_cluster(2)
        schedule = [(op, ()) for op in c.ops[:-1]] + [(c.ops[-1], (((0,), 0.25),))]
        _, _, signed = pull_back(c, "ZZ", schedule)
        np.testing.assert_array_equal(np.abs(signed), [1.0, 1.0, 0.75, 0.75])
