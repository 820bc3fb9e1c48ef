"""Readout error model, its mitigation, and physicalization of quasi-distributions.

Readout flips each bit independently, so a register's read-out law is
C p, with C the Kronecker product of per-qubit confusion matrices
(``confusion_matrix``, or factor-wise ``apply_readout_to_distribution``).
Transition-matrix error mitigation (TMEM) left-multiplies observed
frequencies by the inverse of a column-stochastic readout confusion
matrix.  Because the all-ones row is a left fixed point of any
column-stochastic matrix, the mitigated vector still sums to one, but
entries may go negative; ``mle_project`` then finds the closest
physical distribution.

For distributions (diagonal density operators) the closest-physical-
density-operator construction reduces to Euclidean projection onto the
probability simplex, computed in closed form by sorted water-filling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circuit import REGISTER_SIZES
from .counts import CountsTable, Distribution, Payload, QuasiDistribution, payload_from_dict
from .cut import calibration_file, read_bundle_file, read_entries
from .qstate import apply_per_qubit, index_to_bits, num_qubits

COND_LIMIT = 1e6
# Mitigation modes that estimate each confusion matrix from calibration counts.
CALIBRATION_MODES = ("auto", "full")


class NumericalError(RuntimeError):
    """Numerically unusable input: singular or ill-conditioned matrices."""


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic readout confusion matrix for one register.

    Column j holds the distribution of observed bitstrings given true
    bitstring j.  The 1-norm condition number is computed at build time
    and surfaced rather than hidden; past COND_LIMIT the matrix is
    rejected as unusable, so no unchecked matrix exists.
    """

    n: int
    mode: str
    matrix: np.ndarray
    cond: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2**self.n, 2**self.n):
            raise ValueError(f"matrix shape {m.shape} does not match n={self.n}")
        if np.any(m < -1e-12):
            raise ValueError("confusion matrix has negative entries")
        colsums = m.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-9:
            raise ValueError("columns must sum to 1")
        object.__setattr__(self, "cond", checked_cond(m))

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        same_register = (self.n, self.mode) == (other.n, other.mode)
        return same_register and np.array_equal(self.matrix, other.matrix)


def confusion_1q(f00: float, f11: float) -> np.ndarray:
    """One qubit's confusion matrix: column j = P(observed bit | true bit j)."""
    return np.array([[f00, 1.0 - f11], [1.0 - f00, f11]])


@functools.lru_cache(maxsize=16)
def confusion_matrix(readout: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Kronecker product of per-qubit confusion matrices, qubit 0 leftmost.

    Built once per rate tuple and shared, so the result is read-only.
    """
    m = np.array([[1.0]])
    for f00, f11 in readout:
        m = np.kron(m, confusion_1q(f00, f11))
    m.flags.writeable = False
    return m


def checked_cond(*factors: np.ndarray) -> float:
    """1-norm condition number of kron(*factors); NumericalError if singular or past COND_LIMIT.

    Norm and inverse factor over a Kronecker product, so the condition
    number of a tensored register is the product of its qubits'.
    """
    cond = math.prod(float(np.linalg.cond(m, 1)) for m in factors)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(f"confusion matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return cond


def apply_tmem(data: CountsTable | np.ndarray, t: TransitionMatrix) -> QuasiDistribution:
    """Invert the readout process: solve T q = observed frequencies."""
    freq = data.frequencies() if isinstance(data, CountsTable) else np.asarray(data, dtype=float)
    if len(freq) != 2**t.n:
        raise ValueError("data size does not match transition matrix")
    try:
        q = np.linalg.solve(t.matrix, freq)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular transition matrix: {exc}") from exc
    return QuasiDistribution(q)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum x = 1} by water-filling."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(v) + 1)
    rho = np.nonzero(u + (1.0 - css) / j > 0)[0][-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


def mle_project(q: QuasiDistribution) -> Distribution:
    """Closest physical distribution to a quasi-distribution (2-norm).

    Treating q as a diagonal operator, the closest-density-operator
    eigenvalue-truncation method reduces to simplex projection of the
    diagonal, so the result is exactly the Euclidean projection.  q sums
    to one already: QuasiDistribution checks that when it is built.
    """
    return Distribution(project_to_simplex(q.w))


def readout_rates(
    readout: tuple[tuple[float, float], ...] | None, n: int
) -> tuple[tuple[float, float], ...] | None:
    """Per-qubit (f00, f11) rates for an n-qubit register.

    Registers smaller than the configured list take its last n entries
    (a 3-qubit register reuses the same physical qubits as the tail of
    the 4-qubit one); larger registers cycle the list.  The block jobs,
    the mitigation pipeline and the direct reference all read rates
    through this one function, so they always agree.
    """
    if not readout:
        return None
    m = len(readout)
    if n <= m:
        return tuple(readout[m - n:])
    return tuple(readout[q % m] for q in range(n))


def apply_readout_to_distribution(
    p: np.ndarray, readout: tuple[tuple[float, float], ...]
) -> np.ndarray:
    """The readout process applied exactly to p: confusion_matrix(readout) @ p, factor-wise."""
    n = num_qubits(len(p))
    if len(readout) != n:
        raise ValueError("readout rates do not match register size")
    return apply_per_qubit(p, [confusion_1q(f00, f11) for f00, f11 in readout])


def tmem_product_inverse(p: np.ndarray, readout: tuple[tuple[float, float], ...]) -> np.ndarray:
    """TMEM for a tensor-product confusion model, applied factor-wise.

    Equivalent to apply_tmem with the Kronecker-product matrix, and held to
    the same conditioning rule (checked_cond), but never materializes it,
    so it scales to registers far beyond 4 qubits.
    """
    if len(p) != 2 ** len(readout):
        raise ValueError("distribution size does not match readout rates")
    return apply_per_qubit(np.asarray(p, dtype=float), _inverse_factors(readout))


@functools.lru_cache(maxsize=16)
def _inverse_factors(readout: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, ...]:
    """Each qubit's inverse confusion matrix, once the product passes checked_cond.

    Built once per rate tuple and shared, so the matrices are read-only.
    """
    factors = [confusion_1q(f00, f11) for f00, f11 in readout]
    checked_cond(*factors)
    inverses = tuple(np.linalg.inv(m) for m in factors)
    for m in inverses:
        m.flags.writeable = False
    return inverses


# ---------------------------------------------------------------------------
# Pipeline: payload -> physical distribution


@dataclass(frozen=True)
class MitigationPipeline:
    """Counts -> TMEM -> simplex projection, per register size.

    ``matrices`` maps each register size to a TransitionMatrix, or is
    empty, in which case counts are only normalized.  Exact distributions
    skip TMEM: they model pre-readout statistics.
    """

    matrices: dict[int, TransitionMatrix]

    def physical(self, payload: Payload) -> Distribution:
        if isinstance(payload, Distribution):
            return mle_project(QuasiDistribution(payload.p))
        t = self.matrices.get(payload.n)
        if t is None:
            q = QuasiDistribution(payload.frequencies())
        else:
            q = apply_tmem(payload, t)
        return mle_project(q)


def read_calibration(bundle_dir: Path, rep: int, shots: int) -> dict[int, list[CountsTable]]:
    """The calibration count tables of one repetition, per register size, in basis-state order.

    The repetition's calibration.json must hold every register's every
    basis state and nothing else.  Only calibrated configs
    (``ExperimentConfig.calibrated``) have one, and only they read it.
    """

    def register(n: int):
        # calibration reads every qubit of the register in Z
        parse = functools.partial(payload_from_dict, meas="Z" * n, shots=shots)
        return lambda d: read_entries(d, {index_to_bits(j, n): parse for j in range(2**n)})

    def parse(d: dict) -> dict[int, list[CountsTable]]:
        tables = read_entries(d, {f"q{n}": register(n) for n in REGISTER_SIZES})
        return dict(zip(REGISTER_SIZES, tables))

    return read_bundle_file(calibration_file(bundle_dir, rep), parse)


def pipeline_for_rep(
    calibration: dict[int, list[CountsTable]],
    readout: tuple[tuple[float, float], ...],
    mode: str,
) -> MitigationPipeline:
    """The mitigation pipeline of one repetition: each register's confusion matrix under ``mode``.

    Modes "auto" and "full" estimate column j of each register's matrix
    from the counts of prepared basis state j (``calibration``, see
    read_calibration); "tensor" builds the Kronecker product of the
    configured per-qubit rates, sliced per register by readout_rates
    exactly as the simulator does, and reads no calibration; "none"
    builds no matrix.
    """
    matrices: dict[int, TransitionMatrix] = {}
    for n in REGISTER_SIZES:
        if mode in CALIBRATION_MODES:
            full = np.stack([t.frequencies() for t in calibration[n]], axis=1)
            matrices[n] = TransitionMatrix(n, "full", full)
        elif mode == "tensor":
            matrices[n] = TransitionMatrix(n, mode, confusion_matrix(readout_rates(readout, n)))
        elif mode != "none":
            raise ValueError(f"unknown mitigation mode {mode!r}")
    return MitigationPipeline(matrices)


def transition_matrix_to_dict(t: TransitionMatrix) -> dict:
    return {
        "n": t.n,
        "mode": t.mode,
        "cond": t.cond,
        "matrix": [[float(x) for x in row] for row in t.matrix],
    }
