"""Exact density-matrix simulation of small circuits plus seeded sampling.

Noise model: gate-local depolarizing noise, placed by NoiseModel.schedule
(the one statement of placement, iterated here and in chaincut.direct),
and classical readout bit-flips applied per sampled bit.  Decoherence is
not modelled as time evolution; p1/p2 are effective per-gate knobs.
``NoiseModel(0.0, 0.0, None)`` is the noiseless model.

Determinism contract: every stochastic step draws from a generator
derived from (master seed, stream path), so identical configurations
reproduce identical counts regardless of scheduling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qstate
from .circuit import Circuit, GateOp, basis_change_ops
from .counts import MAX_SHOTS, CountsTable, Distribution, counts_from_vector
from .mitigation import confusion_1q, confusion_matrix
from .qstate import GATES_1Q, apply_on_axis, apply_per_qubit, cz_phases, prep_unitary

# Dense density matrices become unwieldy past this point; larger chains
# go through the reference evaluator in chaincut.direct instead.
MAX_DENSITY_QUBITS = 8

# Effective per-gate depolarizing defaults.  These are calibration
# choices, not measured device numbers: p2 folds decoherence during the
# two-qubit gate into one knob and is set so the simulated 4-qubit
# cluster-state fidelity bound lands near the regime this artifact
# targets (~0.7); p1 matches a ~99.93% average single-qubit fidelity.
DEFAULT_P1 = 0.0014
DEFAULT_P2 = 0.085

# Per-qubit readout fidelities (f00, f11): probability of reading 0 given
# |0> and 1 given |1>.  Order matches the four physical qubits used for
# 4-qubit blocks; 3-qubit registers use the last three entries.
DEFAULT_READOUT = (
    (0.950, 0.909),
    (0.943, 0.910),
    (0.969, 0.901),
    (0.922, 0.887),
)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing rates per gate plus per-qubit readout fidelities."""

    p1: float = DEFAULT_P1
    p2: float = DEFAULT_P2
    readout: tuple[tuple[float, float], ...] | None = DEFAULT_READOUT

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.readout is not None:
            for f00, f11 in self.readout:
                if not (0.0 <= f00 <= 1.0 and 0.0 <= f11 <= 1.0):
                    raise ValueError(f"readout rates ({f00}, {f11}) outside [0, 1]")

    def schedule(self, c: Circuit) -> list[tuple[GateOp, tuple]]:
        """Each op of ``c`` with the depolarizing insertions ``(qubits, p)`` that follow it.

        p1 after each one-qubit gate and p2 after each CZ, on the gate's
        support; preparation is noiseless and a zero rate inserts nothing.
        """
        steps = []
        for g in c.ops:
            p = 0.0 if g.kind == "prep" else self.p2 if g.kind == "CZ" else self.p1
            steps.append((g, ((g.qubits, p),) if p > 0.0 else ()))
        return steps


@dataclass(frozen=True)
class RunConfig:
    """Execution mode for a batch of jobs."""

    mode: str = "exact"
    shots: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"sampled mode needs 1 <= shots <= {MAX_SHOTS}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def rng_for(master_seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible stream for (master seed, stream path)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


# ---------------------------------------------------------------------------
# Gate application on dense density matrices


def _apply_1q_unitary(rho: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    t = apply_on_axis(rho.reshape((2,) * (2 * n)), u, q)
    return apply_on_axis(t, u.conj(), n + q).reshape(rho.shape)


def _apply_cz(rho: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    d = cz_phases(a, b, n)
    return d[:, None] * rho * d[None, :]


def _depolarize(rho: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """rho -> (1-p) rho + p (I/2^k (x) Tr_support rho) on the gate support."""
    keep = [q for q in range(n) if q not in qubits]
    k = len(qubits)
    if not keep:
        mixed = np.eye(2**n, dtype=complex) / 2**n
        return (1.0 - p) * rho + p * mixed
    pt = qstate.partial_trace(rho, keep)
    m = len(keep)
    out = np.zeros((2,) * (2 * n), dtype=complex)
    block = pt.reshape((2,) * (2 * m)) / 2**k
    for bits in itertools.product((0, 1), repeat=k):
        idx: list = [slice(None)] * (2 * n)
        for q, bit in zip(qubits, bits):
            idx[q] = bit
            idx[n + q] = bit
        out[tuple(idx)] = block
    return (1.0 - p) * rho + p * out.reshape(rho.shape)


def run_exact(c: Circuit, noise: NoiseModel) -> np.ndarray:
    """Density operator after all ops of ``c`` and the insertions ``noise.schedule`` places."""
    n = c.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds dense limit {MAX_DENSITY_QUBITS}")
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for g, insertions in noise.schedule(c):
        if g.kind == "prep":
            rho = _apply_1q_unitary(rho, prep_unitary(g.label), g.qubits[0], n)
        elif g.kind == "CZ":
            rho = _apply_cz(rho, g.qubits[0], g.qubits[1], n)
        else:
            rho = _apply_1q_unitary(rho, GATES_1Q[g.kind], g.qubits[0], n)
        for qubits, p in insertions:
            rho = _depolarize(rho, qubits, p, n)
    if __debug__:
        qstate.assert_density_operator(rho)
    return rho


def measure_distribution(rho: np.ndarray, meas: str) -> Distribution:
    """Outcome distribution of measuring ``rho`` in the given bases.

    Basis rotations here model ideal readout optics; readout error is a
    classical process applied at sampling time (see sample_counts).
    """
    n = qstate.num_qubits(rho.shape[0])
    if len(meas) != n:
        raise ValueError(f"setting {meas!r} does not match {n} qubits")
    for g in basis_change_ops(meas):
        rho = _apply_1q_unitary(rho, GATES_1Q[g.kind], g.qubits[0], n)
    p = np.real(np.diag(rho)).copy()
    p[(p < 0) & (p > -1e-12)] = 0.0
    return Distribution(n, p)


# ---------------------------------------------------------------------------
# Sampling


def sample_counts(
    dist: Distribution,
    shots: int,
    seed_or_rng: int | np.random.Generator,
    readout: tuple[tuple[float, float], ...] | None = None,
    meas: str | None = None,
) -> CountsTable:
    """Multinomial sampling, then per-bit classical readout flips.

    Readout flips are applied shot-wise: all shots landing on a true
    bitstring are redistributed over observed bitstrings by a second
    multinomial draw from that bitstring's confusion column.  ``meas``
    labels the frame the distribution was measured in (metadata only);
    it defaults to the native Z frame.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    meas = meas or "Z" * dist.n
    raw = rng.multinomial(shots, dist.p / dist.p.sum())
    if readout is None:
        return counts_from_vector(raw, meas, shots)
    if len(readout) != dist.n:
        raise ValueError("readout rates do not match register size")
    nz = np.flatnonzero(raw)
    observed = rng.multinomial(raw[nz], confusion_matrix(readout)[:, nz].T).sum(axis=0)
    return counts_from_vector(observed, meas, shots)


def apply_readout_to_distribution(
    p: np.ndarray, readout: tuple[tuple[float, float], ...]
) -> np.ndarray:
    """Exact action of the classical readout process on a distribution."""
    n = qstate.num_qubits(len(p))
    if len(readout) != n:
        raise ValueError("readout rates do not match register size")
    return apply_per_qubit(p, [confusion_1q(f00, f11) for f00, f11 in readout])
