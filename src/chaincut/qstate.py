"""Dense complex linear algebra and symplectic Pauli conjugation.

Everything downstream (circuit simulation, cut decomposition, witness
evaluation) works with plain numpy arrays produced and validated here:

* state vectors     -- complex vectors of length 2^n, unit L2 norm
* density operators -- Hermitian, unit-trace, PSD 2^n x 2^n matrices
* Pauli strings     -- one x and one z bit mask each (qubit q is bit
                       n-1-q) plus a +/-1 sign, conjugated through
                       Clifford gates in place

Bit convention used across the whole package: qubit 0 is the leftmost
qubit of the chain and the most significant bit of every basis-state
index and printed bitstring.  ``numpy.kron`` composes factors MSB-first,
so a register-ordered Kronecker chain needs no reshuffling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Structural checks (Hermiticity, trace, eigenvalue floor).
ATOL_STRUCTURAL = 1e-10
# Probabilistic checks (distribution normalization).
ATOL_PROB = 1e-9

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Fixed single-qubit gates, keyed by GateOp kind.
GATES_1Q = {"H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)}

# Single-qubit preparation labels, in the order of the cut table's rows
# (cut.decomposition_table).  Input-labelled tensor axes follow the job
# grid's labels, cut.GRID_PREPS: the first four.
STATE_LABELS = ("Z0", "Z1", "Xp", "Xm", "Yp", "Ym")

_STATE_VECTORS = {
    "Z0": np.array([1, 0], dtype=complex),
    "Z1": np.array([0, 1], dtype=complex),
    "Xp": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "Xm": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "Yp": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "Ym": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def state_vector_1q(label: str) -> np.ndarray:
    """Return the normalized single-qubit ket for a preparation label."""
    try:
        return _STATE_VECTORS[label].copy()
    except KeyError:
        raise ValueError(f"unknown state label {label!r}") from None


def prep_unitary(label: str) -> np.ndarray:
    """Unitary mapping |0> to the labelled state; the second column completes it."""
    v = state_vector_1q(label)
    return np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a normalized state vector."""
    return np.outer(vec, vec.conj())


def num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


# ---------------------------------------------------------------------------
# Kernels on qubit-indexed tensors (one axis of length 2 per qubit)


# One axis of the Walsh-Hadamard transform: probabilities (P0, P1) -> parities
# (<I>, <Z>), and parities -> 2 (P0, P1).  Its entries are +/-1, so each
# product is exact and each output one rounded a +/- b, however BLAS splits it.
WALSH_1Q = np.array([[1.0, 1.0], [1.0, -1.0]])


def apply_on_axis(t: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """Contract the 2x2 matrix ``m`` into one qubit axis: t'[..i..] = sum_j m[i, j] t[..j..].

    Gates on statevectors and density matrices, readout flips, factor-wise
    readout inversion and the Walsh-Hadamard transform (distributions to
    parities and back) all go through this one contraction.
    """
    return np.moveaxis(np.tensordot(m, t, axes=([1], [axis])), 0, axis)


def apply_per_qubit(v: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """``kron(factors[0], factors[1], ...) @ v``, one 2x2 factor per qubit axis, qubit 0 first.

    ``v`` may carry leading axes (a stack of vectors); the product acts along its last axis.
    """
    lead = np.shape(v)[:-1]
    t = np.reshape(v, lead + (2,) * len(factors))
    for q, m in enumerate(factors):
        t = apply_on_axis(t, m, len(lead) + q)
    return t.reshape(np.shape(v))


def cz_phases(a: int, b: int, n: int) -> np.ndarray:
    """Diagonal of CZ on qubits (a, b) of an n-qubit register, as +/-1 floats."""
    idx = np.arange(2**n)
    bit_a = (idx >> (n - 1 - a)) & 1
    bit_b = (idx >> (n - 1 - b)) & 1
    return 1.0 - 2.0 * (bit_a & bit_b)


# ---------------------------------------------------------------------------
# Density operators


def assert_density_operator(rho: np.ndarray, atol: float = ATOL_STRUCTURAL) -> None:
    """Raise unless rho is Hermitian, unit trace, and PSD to tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density operator must be square, got {rho.shape}")
    num_qubits(rho.shape[0])
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density operator has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > atol:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > atol:
        raise ValueError(f"trace {tr} differs from 1 beyond {atol}")
    evmin = float(np.linalg.eigvalsh(rho)[0])
    if evmin < -atol:
        raise ValueError(f"negative eigenvalue {evmin:.3e}")


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out every qubit not in ``keep``.

    The kept qubits stay in their original relative order.  Equivalent to
    the index-summation definition sum_k <.. k| rho |.. k> over the traced
    subsystem's basis.
    """
    n = num_qubits(rho.shape[0])
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("must keep at least one qubit")
    if keep[0] < 0 or keep[-1] >= n:
        raise IndexError(f"keep indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    t = rho.reshape((2,) * (2 * n))
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    m = len(keep)
    return np.ascontiguousarray(t.reshape(2**m, 2**m))


# ---------------------------------------------------------------------------
# Distributions over measurement outcomes


def assert_distribution(p: np.ndarray, atol: float = ATOL_PROB) -> None:
    if p.ndim != 1:
        raise ValueError("distribution must be 1-D")
    num_qubits(p.shape[0])
    # Written so that NaN fails each test, as a NaN read from a file must.
    if not np.all(p >= -atol):
        raise ValueError(f"probability {p.min():.3e} is negative or not a number")
    s = float(p.sum())
    if not abs(s - 1.0) <= atol:
        raise ValueError(f"probabilities sum to {s}, not 1")


def assert_quasi_distribution(w: np.ndarray, atol: float = ATOL_PROB) -> None:
    if w.ndim != 1:
        raise ValueError("quasi-distribution must be 1-D")
    num_qubits(w.shape[0])
    s = float(w.sum())
    if not abs(s - 1.0) <= atol:
        raise ValueError(f"weights sum to {s}, not 1")


def index_to_bits(index: int, n: int) -> str:
    """Basis-state index -> bitstring, qubit 0 leftmost."""
    return format(index, f"0{n}b")


# ---------------------------------------------------------------------------
# Symplectic (x, z) representation used for Heisenberg propagation of
# Pauli strings through Clifford gates.  Each string is one integer x mask
# and one z mask in outcome-index order (qubit q is bit n-1-q, as in
# index_to_bits), held in int64 arrays; its sign is tracked as a +/-1
# array (conjugation by H and CZ can only flip signs, never introduce
# factors of i).  Gates name their qubits by the same one-bit masks.


def conjugate_h(x, z, sign, q):
    """In-place P -> H P H on the qubit of bit mask q."""
    sign[(x & z & q) != 0] *= -1
    swap = (x ^ z) & q
    x ^= swap
    z ^= swap


def conjugate_cz(x, z, sign, a, b):
    """In-place P -> CZ P CZ on the qubits of bit masks a and b."""
    xa, xb = (x & a) != 0, (x & b) != 0
    sign[xa & xb & (((z & a) != 0) != ((z & b) != 0))] *= -1
    z ^= np.where(xb, a, 0) | np.where(xa, b, 0)
