"""Whole-chain reference evaluation, independent of the block pipeline.

A circuit whose noise schedule inserts nothing runs as a plain statevector.
Otherwise every gate here is Clifford and the noise Pauli-diagonal, so
observables are back-propagated through the circuit (Heisenberg picture),
damped by (1-p) at each insertion of ``NoiseModel.schedule`` that meets
their support; the parities of all 2^n outcomes then give the exact
distribution by a Walsh-Hadamard transform, with no density matrix.
Each observable's Pauli frame is one x and one z bit mask in outcome-index
order (see qstate), so the frames take two int64 arrays of length 2^n.
Both paths share one cap, ``MAX_DIRECT_QUBITS``.

This stands in for the uncut chain on hardware.  Like the block jobs, its
distributions get readout flips, factored TMEM and simplex projection, but
the processing is not identical: ``mitigation`` is ignored, so TMEM runs
even under "none"; and TMEM uses the model's true rates where the cut
under "auto" and "full" uses sampled calibration, understating direct's
spread.
Each setting's chain distribution and its readout-flipped form are
computed once per run, and the report keeps that one ideal distribution;
a repetition only samples, mitigates and projects its own copy.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, basis_change_ops, build_linear_cluster
from .counts import QuasiDistribution
from .mitigation import (
    apply_readout_to_distribution,
    mle_project,
    readout_rates,
    tmem_product_inverse,
)
from .qstate import (
    GATES_1Q,
    PAULI_1Q,
    WALSH_1Q,
    apply_on_axis,
    apply_per_qubit,
    conjugate_cz,
    conjugate_h,
    cz_phases,
    prep_unitary,
    state_vector_1q,
)
from .reconstruct import SETTINGS, bound_from_distributions, witness_setting
from .sim import NoiseModel, RunConfig, rng_for, sample_counts

MAX_DIRECT_QUBITS = 24


# ---------------------------------------------------------------------------
# Statevector path (noiseless)


def run_statevector(c: Circuit) -> np.ndarray:
    """Final state of a noiseless circuit (measurement not applied)."""
    n = c.n_qubits
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


def heisenberg_distribution(c: Circuit, meas: str, noise: NoiseModel) -> np.ndarray:
    """Exact measured distribution of a noisy Clifford circuit.

    Computes <Z_T> for every outcome-parity subset T, then converts
    parities to probabilities with a Walsh-Hadamard transform.  Subset T's
    frame starts as x = 0 and z = T, its outcome index read as a bit mask
    (see qstate).  The ops of ``noise.schedule``, then the noiseless
    readout rotations, conjugate every frame in reverse order; each
    depolarizing insertion first multiplies the damping factor of every
    frame whose current support meets the insertion's.
    """
    n = c.n_qubits
    z = np.arange(2**n, dtype=np.int64)
    x = np.zeros_like(z)
    sign = np.ones(2**n)
    factor = np.ones(2**n)
    prep_labels: dict[int, str] = {}
    sequence = noise.schedule(c) + [(g, ()) for g in basis_change_ops(meas, n)]
    for g, insertions in reversed(sequence):
        if g.kind == "prep":
            prep_labels[g.qubits[0]] = g.label
            continue
        for qubits, p in insertions:
            support = sum(1 << (n - 1 - q) for q in qubits)
            factor[((x | z) & support) != 0] *= 1.0 - p
        bits = [1 << (n - 1 - q) for q in g.qubits]
        if g.kind == "CZ":
            conjugate_cz(x, z, sign, *bits)
        elif g.kind == "H":
            conjugate_h(x, z, sign, *bits)
        else:
            raise ValueError(f"cannot propagate through {g.kind}")
    chi = sign * factor
    for q in range(n):
        vals = _initial_values(prep_labels.get(q))
        chi = chi * vals[2 * ((z >> (n - 1 - q)) & 1) + ((x >> (n - 1 - q)) & 1)]
    p = apply_per_qubit(chi, (WALSH_1Q,) * n) / 2**n
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
) -> dict:
    """Distributions, witness expectations, and bound of the uncut chain, per repetition.

    Readout noise, if the model has rates, is applied exactly to the
    distribution; sampled mode then draws ``run.shots`` shots from it.
    TMEM with the model's per-qubit rates inverts the readout, and the
    result is projected back onto the simplex -- the same processing the
    cut pipeline applies per block.
    Repetitions are the leading axis of every array: ``odd``/``even``
    (R, 2^m), ``odd_avg``/``even_avg``/``bound`` (R,), and
    ``distributions[setting]["observed"|"mitigated"]`` (R, 2^n), while
    ``distributions[setting]["ideal"]`` is the one (2^n,) distribution
    that every repetition starts from.
    Repetition r draws from its own stream (9000 + r), so its row does
    not depend on how many repetitions are requested.
    """
    if n > MAX_DIRECT_QUBITS:
        raise ValueError(f"direct reference capped at {MAX_DIRECT_QUBITS} qubits")
    if n < 2:
        raise ValueError(f"direct reference needs n >= 2 for its witness terms, got {n}")
    readout = readout_rates(noise.readout, n)
    dists = {}
    for parity, setting in SETTINGS.items():
        ideal = chain_distribution(n, witness_setting(n, parity), noise)
        flipped = ideal if readout is None else apply_readout_to_distribution(ideal, readout)
        observed = np.empty((repetitions, 2**n))
        mitigated = np.empty((repetitions, 2**n))
        for rep in range(repetitions):
            p = flipped
            if run.mode == "sampled":
                rng = rng_for(run.seed, 9000 + rep, n, ord(setting[0]))
                p = sample_counts(p, run.shots, rng).frequencies()
            observed[rep] = p
            quasi = p if readout is None else tmem_product_inverse(p, readout)
            mitigated[rep] = mle_project(QuasiDistribution(quasi)).p
        dists[setting] = {"ideal": ideal, "observed": observed, "mitigated": mitigated}
    # odd (XZ) then even (ZX), the order of SETTINGS
    report = bound_from_distributions(*(d["mitigated"] for d in dists.values()), n)
    return {**report, "distributions": dists}
