"""Wire-cut decomposition and the fixed job grid for cut cluster chains.

Cutting one qubit wire replaces it with six measure-and-prepare terms:
measure an observable O_i on the upstream side, prepare a state rho_i on
the downstream side, weight the combination by c_i.  The six-term table
(combining the identity and Z eigenstate expansions so the projector
outcomes are reused) is:

    c=+1    O=|0><0|   prep Z0          c=+1    O=|1><1|   prep Z1
    c=+1/2  O=X        prep Xp          c=-1/2  O=X        prep Xm
    c=+1/2  O=Y        prep Yp          c=-1/2  O=Y        prep Ym

The table's defining property is the reconstruction identity
``sum_i c_i Tr_b(rho O_i^b) (x) rho_i = rho`` for every state; the
planner refuses to emit jobs until that identity has been checked on a
Pauli operator basis, which proves it for every state.  Each O_i is
stored as the readout that realizes it (a basis and two outcome weights)
and its matrix is derived from those, so the check covers the readout the
reconstruction applies.

The job grid reads only Z0, Z1, Xp and Xm (GRID_TERMS: sum |c_i| = 3, 4^k
term combinations for k cuts).  The Y terms cancel: the planner proves that
no parity a job measures, pulled back through its readout rotations and
Clifford block, reads Y on the input qubit, so Yp and Ym (which differ only
in <Y>) give equal rows under every NoiseModel: depolarizing noise is
Pauli-diagonal, and readout flips and TMEM act within one setting.

This module carries no simulator dependency: the job grid and the
on-disk bundle format defined here are the contract between execution
(chaincut.runner) and reconstruction (chaincut.reconstruct), so
reconstruction can run on archived or externally produced data.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import circuit
from .circuit import BLOCK_FORMS, FOUR_QUBIT, REGISTER_SIZES, THREE_QUBIT
from .counts import Payload, dump_json, payload_from_dict, payload_to_dict
from .qstate import PAULI_1Q, conjugate_cz, conjugate_h, projector, state_vector_1q

CUT_PATTERNS = ("XZX", "ZXZ")
CUT_BASES = ("X", "Z")


@dataclass(frozen=True)
class CutTerm:
    """One measure-and-prepare term (c_i, O_i, rho_i).

    O_i is read out in ``basis``, weighting outcome 0 by w0 and outcome 1 by
    w1 (``outcome_weights``): projectors are indicator-weighted Z outcomes,
    X/Y are outcome parities.  The reconstruction uses exactly these fields.
    """

    coeff: float
    basis: str
    outcome_weights: tuple[float, float]
    prep: str

    def observable_matrix(self) -> np.ndarray:
        """O_i = w0 P_0 + w1 P_1 in the readout basis: ((w0 + w1) I + (w0 - w1) P) / 2."""
        w0, w1 = self.outcome_weights
        return ((w0 + w1) * PAULI_1Q["I"] + (w0 - w1) * PAULI_1Q[self.basis]) / 2


def decomposition_table() -> tuple[CutTerm, ...]:
    """The six (coefficient, readout, prepared state) cut terms.

    Prepared states appear in STATE_LABELS order.
    """
    return (
        CutTerm(1.0, "Z", (1.0, 0.0), "Z0"),
        CutTerm(1.0, "Z", (0.0, 1.0), "Z1"),
        CutTerm(0.5, "X", (1.0, -1.0), "Xp"),
        CutTerm(-0.5, "X", (1.0, -1.0), "Xm"),
        CutTerm(0.5, "Y", (1.0, -1.0), "Yp"),
        CutTerm(-0.5, "Y", (1.0, -1.0), "Ym"),
    )


GRID_TERMS = tuple(t for t in decomposition_table() if t.basis in CUT_BASES)
# The grid's input labels, in GRID_TERMS order: every input-labelled axis follows it.
GRID_PREPS = tuple(t.prep for t in GRID_TERMS)


def reconstruction_error(rho: np.ndarray, terms=None) -> float:
    """Error of sum_i c_i Tr_b(rho O_i^b) (x) rho_i against rho.

    The cut qubit b is rho's last (least significant) qubit; the others are kept.
    """
    terms = terms or decomposition_table()
    d = rho.shape[0] // 2
    acc = np.zeros(rho.shape, dtype=complex)
    for t in terms:
        # Tr_b(rho (I (x) O)): contract b's row and column indices through O.
        cond = np.einsum("aibj,ji->ab", rho.reshape(d, 2, d, 2), t.observable_matrix())
        acc += t.coeff * np.kron(cond, projector(state_vector_1q(t.prep)))
    return float(np.max(np.abs(acc - rho)))


def verify_decomposition() -> None:
    """Prove the cut table exact before any downstream use.

    The reconstruction identity is linear in rho, so checking it on the
    16 two-qubit Pauli operators (a basis of the operator space; the I (x) P
    cases carry the one-qubit identity) to 1e-12 proves it for every state,
    for the readout bases and outcome weights the block tensors use.  The
    1-norm sum |c_i| = 4 is checked too.  Raises on failure; plan_chain_jobs,
    cached for the process lifetime, runs it once per process.
    """
    terms = decomposition_table()
    one_norm = sum(abs(t.coeff) for t in terms)
    if abs(one_norm - 4.0) > 1e-12:
        raise AssertionError(f"cut-table 1-norm {one_norm} != 4")
    worst = max(
        reconstruction_error(np.kron(a, b), terms)
        for a in PAULI_1Q.values()
        for b in PAULI_1Q.values()
    )
    if worst > 1e-12:
        raise AssertionError(f"cut reconstruction identity violated: {worst:.3e}")


# ---------------------------------------------------------------------------
# Job grid


@dataclass(frozen=True)
class JobSpec:
    """One subcircuit execution: block form, input label, measurement."""

    form: str
    input: str
    pattern: str
    cut_basis: str | None

    def __post_init__(self):
        if self.form not in BLOCK_FORMS:
            raise ValueError(f"bad form {self.form!r}")
        if self.input not in GRID_PREPS:
            raise ValueError(f"bad input label {self.input!r}")
        if self.pattern not in CUT_PATTERNS:
            raise ValueError(f"bad pattern {self.pattern!r}")
        if self.form == FOUR_QUBIT:
            if self.cut_basis not in CUT_BASES:
                raise ValueError("4q jobs need a cut basis of X or Z")
        elif self.cut_basis is not None:
            raise ValueError("3q jobs carry no cut basis")

    @property
    def n_qubits(self) -> int:
        return REGISTER_SIZES[BLOCK_FORMS.index(self.form)]

    @property
    def meas(self) -> str:
        return self.pattern + (self.cut_basis or "")

    @property
    def job_id(self) -> str:
        return "-".join(filter(None, (self.form, self.input, self.pattern, self.cut_basis)))


@functools.cache
def plan_chain_jobs() -> tuple[JobSpec, ...]:
    """The 24-job grid covering every cut chain built from the two blocks.

    16 four-qubit jobs (4 inputs x 2 witness patterns x 2 cut bases) and
    8 three-qubit jobs (4 inputs x 2 patterns): the inputs are GRID_PREPS,
    whose terms' observables the cut bases X, Z on the last qubit cover
    (projector outcomes come from the Z marginal).  Fixed ordering, computed
    once per process after the cut table and the Y cancellation are proven.
    """
    verify_decomposition()
    jobs = [JobSpec(FOUR_QUBIT, *k) for k in product(GRID_PREPS, CUT_PATTERNS, CUT_BASES)]
    jobs += [JobSpec(THREE_QUBIT, *k, None) for k in product(GRID_PREPS, CUT_PATTERNS)]
    for spec in jobs:
        _check_input_reads_no_y(spec)
    return tuple(jobs)


def _check_input_reads_no_y(spec: JobSpec) -> None:
    """Raise if a parity Z_T that ``spec`` measures, pulled back to its input qubit, reads Y."""
    n = spec.n_qubits
    z = np.arange(2**n, dtype=np.int64)  # every T, with x = 0; signs do not matter
    x, sign = np.zeros_like(z), np.ones(2**n)
    gates = circuit.build_block_subcircuit(spec.form, spec.input).ops[1:]  # after the prep
    for g in reversed(gates + tuple(circuit.basis_change_ops(spec.meas))):
        conj = conjugate_cz if g.kind == "CZ" else conjugate_h
        conj(x, z, sign, *(1 << (n - 1 - q) for q in g.qubits))
    if np.any(x & z & (1 << (n - 1))):
        raise AssertionError(f"job {spec.job_id} reads Y on its input qubit")


# ---------------------------------------------------------------------------
# On-disk bundle: reps/rXX/jobs.json (+ reps/rXX/calibration.json)


def read_bundle_file(path: Path, parse):
    """``parse(obj)`` for the JSON object in one bundle (or config) file: the one reader.

    Invalid or too deeply nested JSON, a value that is not an object, and
    anything ``parse`` finds missing, mistyped or out of range become a
    ValueError naming the file; a file that cannot be opened stays the
    OSError (FileNotFoundError, ...) naming it.
    """
    return _parse_object(path, lambda: json.loads(Path(path).read_text()), parse)


def read_entries(d: dict, parsers: dict) -> list:
    """``parsers[key](d[key])`` for each key, in order: the entries of one bundle object.

    ``d`` must hold exactly those keys, each a JSON object; an error names
    the entry's key.
    """
    extra = sorted(d.keys() - parsers.keys())
    if extra:
        raise ValueError(f"holds an unexpected entry {extra[0]!r}")
    for key in parsers:
        if key not in d:
            raise ValueError(f"no entry {key!r}")
    return [
        _parse_object(f"entry {key!r}", lambda: d[key], parse) for key, parse in parsers.items()
    ]


def _parse_object(where, load, parse):
    """``parse(load())``, where ``load()`` must give a JSON object; errors name ``where``."""
    try:
        d = load()
        if not isinstance(d, dict):
            raise ValueError("not a JSON object")
        return parse(d)
    except KeyError as exc:
        raise ValueError(f"{where}: no field {exc}") from exc
    except (ValueError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def rep_dir(bundle_dir: Path, rep: int) -> Path:
    return Path(bundle_dir) / "reps" / f"r{rep:02d}"


def calibration_file(bundle_dir: Path, rep: int) -> Path:
    """The readout calibration of one repetition: ``{"qN": {"<bits>": <counts form>}}``."""
    return rep_dir(bundle_dir, rep) / "calibration.json"


def jobs_file(bundle_dir: Path, rep: int) -> Path:
    """The job results of one repetition: ``{"<job-id>": <counts form>}``."""
    return rep_dir(bundle_dir, rep) / "jobs.json"


def write_job_result(bundle_dir: Path, rep: int, payloads: dict[JobSpec, Payload]) -> None:
    """Write one repetition's jobs.json: each job's result under its id."""
    path = jobs_file(bundle_dir, rep)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json({s.job_id: payload_to_dict(s.meas, p) for s, p in payloads.items()}))


def read_job_result(bundle_dir: Path, rep: int, shots: int | None) -> dict[JobSpec, Payload]:
    """One repetition's jobs.json, one entry per job of the grid, in plan_chain_jobs order.

    Each entry is checked against its job's setting and config.json's
    ``shots`` (None for an exact bundle); an id the grid does not list is
    an error.
    """
    grid = plan_chain_jobs()
    parsers = {
        s.job_id: functools.partial(payload_from_dict, meas=s.meas, shots=shots) for s in grid
    }

    def parse(d: dict) -> dict[JobSpec, Payload]:
        return dict(zip(grid, read_entries(d, parsers)))

    return read_bundle_file(jobs_file(bundle_dir, rep), parse)
