"""Whole-chain reference evaluation, independent of the block pipeline.

A circuit whose noise schedule inserts nothing runs as a plain statevector.
Otherwise every gate here is Clifford and the noise Pauli-diagonal, so
observables are back-propagated through the circuit (Heisenberg picture),
damped by (1-p) at each insertion of ``NoiseModel.schedule`` that meets
their support; the parities of all 2^n outcomes then give the exact
distribution by a Walsh-Hadamard transform, with no density matrix.

This stands in for the uncut chain on hardware.  Like the block jobs, its
distributions get readout flips, factored TMEM and simplex projection, but
the processing is not identical: sampled mode draws no shots when the
config has no readout rates; ``mitigation`` is ignored, so TMEM runs even
under "none"; and TMEM uses the model's true rates where the cut under
"auto" and "full" uses sampled calibration, understating direct's spread.
Each setting's chain distribution, its readout-flipped form and every
witness sign row are computed once per run; a repetition only samples,
mitigates and projects its own copy.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, basis_change_ops, build_linear_cluster
from .counts import Distribution, QuasiDistribution
from .mitigation import mle_project, readout_rates, tmem_product_inverse
from .qstate import (
    GATES_1Q,
    PAULI_1Q,
    apply_on_axis,
    apply_per_qubit,
    conjugate_cz,
    conjugate_h,
    conjugate_s,
    conjugate_sdg,
    conjugate_x,
    cz_phases,
    prep_unitary,
    state_vector_1q,
)
from .reconstruct import witness_report, witness_setting, witness_values_from_distribution
from .sim import NoiseModel, RunConfig, apply_readout_to_distribution, rng_for, sample_counts

MAX_DIRECT_QUBITS = 24
MAX_NOISY_QUBITS = 16

# One axis of the Walsh-Hadamard transform: parities (<I>, <Z>) -> 2 (P0, P1).
_WALSH_1Q = np.array([[1.0, 1.0], [1.0, -1.0]])


# ---------------------------------------------------------------------------
# Statevector path (noiseless)


def run_statevector(c: Circuit) -> np.ndarray:
    """Final state of a noiseless circuit (measurement not applied)."""
    n = c.n_qubits
    if n > MAX_DIRECT_QUBITS:
        raise ValueError(f"{n} qubits exceeds statevector cap {MAX_DIRECT_QUBITS}")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for g in c.ops:
        if g.kind == "CZ":
            psi = psi * cz_phases(g.qubits[0], g.qubits[1], n)
        else:
            u = prep_unitary(g.label) if g.kind == "prep" else GATES_1Q[g.kind]
            psi = apply_on_axis(psi.reshape((2,) * n), u, g.qubits[0]).reshape(-1)
    return psi


def statevector_distribution(c: Circuit, meas: str) -> np.ndarray:
    n = c.n_qubits
    psi = run_statevector(c)
    for g in basis_change_ops(meas, n):
        psi = apply_on_axis(psi.reshape((2,) * n), GATES_1Q[g.kind], g.qubits[0]).reshape(-1)
    return np.abs(psi) ** 2


# ---------------------------------------------------------------------------
# Heisenberg path (exact under depolarizing noise)

# <v|sigma|v> for each prep label and Pauli letter index 2z + x (I,X,Z,Y).
def _initial_values(label: str | None) -> np.ndarray:
    v = state_vector_1q(label) if label is not None else state_vector_1q("Z0")
    vals = []
    for letter in ("I", "X", "Z", "Y"):
        vals.append(float(np.real(v.conj() @ PAULI_1Q[letter] @ v)))
    return np.asarray(vals)


def _propagate_paulis(
    c: Circuit, meas: str, x: np.ndarray, z: np.ndarray, noise: NoiseModel
) -> np.ndarray:
    """Expectations of a batch of Z-frame observables after the circuit.

    ``x``/``z`` are (batch, n) bit arrays of observables measured after
    the basis rotations of ``meas``.  The ops of ``noise.schedule``, then
    the noiseless readout rotations, conjugate the batch in reverse order;
    each depolarizing insertion first multiplies the damping factor of
    every observable whose current support meets the insertion's.
    """
    n = c.n_qubits
    sign = np.ones(x.shape[0])
    factor = np.ones(x.shape[0])
    prep_labels: dict[int, str] = {}
    sequence = noise.schedule(c) + [(g, ()) for g in basis_change_ops(meas, n)]
    for g, insertions in reversed(sequence):
        if g.kind == "prep":
            prep_labels[g.qubits[0]] = g.label
            continue
        for qubits, p in insertions:
            touched = np.zeros(x.shape[0], dtype=bool)
            for q in qubits:
                touched |= (x[:, q] | z[:, q]) == 1
            factor[touched] *= 1.0 - p
        if g.kind == "CZ":
            sign = conjugate_cz(x, z, sign, g.qubits[0], g.qubits[1])
        elif g.kind == "H":
            sign = conjugate_h(x, z, sign, g.qubits[0])
        elif g.kind == "S":
            # adjoint channel of S conjugates with S^dag and vice versa
            sign = conjugate_sdg(x, z, sign, g.qubits[0])
        elif g.kind == "Sdg":
            sign = conjugate_s(x, z, sign, g.qubits[0])
        elif g.kind == "X":
            sign = conjugate_x(x, z, sign, g.qubits[0])
        else:
            raise ValueError(f"cannot propagate through {g.kind}")
    value = sign * factor
    for q in range(n):
        vals = _initial_values(prep_labels.get(q))
        value = value * vals[2 * z[:, q] + x[:, q]]
    return value


def heisenberg_distribution(c: Circuit, meas: str, noise: NoiseModel) -> np.ndarray:
    """Exact measured distribution of a noisy Clifford circuit.

    Computes <Z_T> for every outcome-parity subset T, then converts
    parities to probabilities with a Walsh-Hadamard transform.
    """
    n = c.n_qubits
    if n > MAX_NOISY_QUBITS:
        raise ValueError(f"{n} qubits exceeds noisy-propagation cap {MAX_NOISY_QUBITS}")
    subsets = np.arange(2**n, dtype=np.int64)
    z = np.zeros((2**n, n), dtype=np.uint8)
    for q in range(n):
        z[:, q] = (subsets >> (n - 1 - q)) & 1
    x = np.zeros_like(z)
    chi = _propagate_paulis(c, meas, x, z, noise)
    p = apply_per_qubit(chi, (_WALSH_1Q,) * n) / 2**n
    p[(p < 0) & (p > -1e-12)] = 0.0
    return p


def chain_distribution(n: int, meas: str, noise: NoiseModel) -> np.ndarray:
    """Pre-readout distribution of the n-qubit cluster circuit; a statevector when noiseless."""
    c = build_linear_cluster(n)
    if not any(insertions for _, insertions in noise.schedule(c)):
        return statevector_distribution(c, meas)
    return heisenberg_distribution(c, meas, noise)


# ---------------------------------------------------------------------------
# Full reference pipeline: simulate, (sample), mitigate, evaluate


def direct_chain_report(
    n: int,
    noise: NoiseModel,
    run: RunConfig,
    repetitions: int = 1,
) -> list[dict]:
    """Distributions, witness expectations, and bound of each repetition of the uncut chain.

    Readout noise is applied exactly to the distribution (exact mode) or
    at the sampled-bit level (sampled mode), then inverted by factored
    TMEM with the model's per-qubit rates and projected back onto the
    simplex -- the same processing the cut pipeline applies per block.
    Repetition r draws from its own stream (9000 + r), so its report does
    not depend on how many repetitions are requested.
    """
    if n > MAX_DIRECT_QUBITS:
        raise ValueError(f"direct reference capped at {MAX_DIRECT_QUBITS} qubits")
    readout = readout_rates(noise.readout, n)
    ideal = {}
    flipped = {}
    for key, parity in (("XZ", "odd"), ("ZX", "even")):
        ideal[key] = chain_distribution(n, witness_setting(n, parity), noise)
        flipped[key] = (
            ideal[key] if readout is None else apply_readout_to_distribution(ideal[key], readout)
        )
    per_rep = []
    for rep in range(repetitions):
        observed, mitigated = {}, {}
        for key, p in flipped.items():
            if readout is not None and run.mode == "sampled":
                rng = rng_for(run.seed, 9000 + rep, n, ord(key[0]))
                p = sample_counts(Distribution(n, p), run.shots, rng, None).frequencies()
            observed[key] = p
            quasi = p if readout is None else tmem_product_inverse(p, readout)
            mitigated[key] = mle_project(QuasiDistribution(n, quasi)).p
        per_rep.append({"ideal": ideal, "observed": observed, "mitigated": mitigated})
    stacked = {key: np.stack([d["mitigated"][key] for d in per_rep]) for key in flipped}
    odd = witness_values_from_distribution(stacked["XZ"], n, "odd")
    even = witness_values_from_distribution(stacked["ZX"], n, "even")
    return [
        {**witness_report(odd[rep], even[rep], n), "distributions": dists}
        for rep, dists in enumerate(per_rep)
    ]
