"""Circuit IR and builders for linear-cluster chains and their cut blocks.

A circuit is a register size and a flat list of gate ops; the
measurement setting (one basis letter per qubit) is an argument of
whichever function measures it.  Preparation of a labelled
single-qubit state is an op of kind ``prep`` resolved by the simulator;
there is no pulse- or gate-level decomposition of state preparation.

Measurement-basis changes map X readout onto the native Z readout
(X -> H).  With that convention the expectation of a basis letter is
always P(0) - P(1) of the rotated qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qstate import STATE_LABELS

GATE_KINDS = ("prep", "H", "CZ")

# Four-qubit block: prepared input + 3 fresh qubits.  Three-qubit block:
# prepared input + 2 fresh qubits.  The prepared qubit is the downstream
# side of a cut (or the open left end of the chain).
FOUR_QUBIT = "4q"
THREE_QUBIT = "3q"
BLOCK_FORMS = (FOUR_QUBIT, THREE_QUBIT)
# Register sizes of the two block forms, in BLOCK_FORMS order.
REGISTER_SIZES = (4, 3)


@dataclass(frozen=True)
class GateOp:
    """One operation: ``kind`` acting on ``qubits``, optional ``label``.

    ``label`` holds the prepared-state name for ``prep``; it is None for
    plain gates.
    """

    kind: str
    qubits: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CZ":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"CZ needs two distinct qubits, got {self.qubits}")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit, got {self.qubits}")
        if self.kind == "prep":
            if self.label not in STATE_LABELS:
                raise ValueError(f"bad prep label {self.label!r}")
        elif self.label is not None:
            raise ValueError(f"{self.kind} takes no label")


@dataclass(frozen=True)
class Circuit:
    """An n-qubit circuit: ordered ops, measured in whatever setting the caller names."""

    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        seen: set[int] = set()
        prepped: set[int] = set()
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"op {op} references qubit {q} >= {self.n_qubits}")
            if op.kind == "prep":
                q = op.qubits[0]
                if q in prepped:
                    raise ValueError(f"qubit {q} prepared twice")
                if q in seen:
                    raise ValueError(f"prep on qubit {q} must precede its other ops")
                prepped.add(q)
            seen.update(op.qubits)


def basis_change_ops(meas: str, n_qubits: int | None = None) -> list[GateOp]:
    """Pre-measurement rotations mapping each requested basis onto Z.

    X -> H; Z -> nothing.  Applied right before the terminal Z-basis readout.
    """
    if n_qubits is not None and len(meas) != n_qubits:
        raise ValueError(f"measurement setting {meas!r} invalid for {n_qubits} qubits")
    ops = []
    for q, basis in enumerate(meas):
        if basis == "X":
            ops.append(GateOp("H", (q,)))
        elif basis != "Z":
            raise ValueError(f"bad basis {basis!r}")
    return ops


def build_linear_cluster(n: int) -> Circuit:
    """Hadamard column then a CZ staircase: the n-qubit linear-cluster circuit."""
    if n < 1:
        raise ValueError("linear cluster needs n >= 1")
    ops = [GateOp("H", (q,)) for q in range(n)]
    ops += [GateOp("CZ", (q, q + 1)) for q in range(n - 1)]
    return Circuit(n, tuple(ops))


def build_block_subcircuit(form: str, input_label: str) -> Circuit:
    """One cut block: prepared qubit 0, H on the rest, CZ staircase.

    With ``input_label`` = "Xp" the 4q and 3q forms prepare the 4- and
    3-qubit linear-cluster states.  Qubit 0 carries the re-prepared
    downstream side of a cut; the last qubit of the 4q form is the
    upstream side of the next cut.
    """
    if form not in BLOCK_FORMS:
        raise ValueError(f"unknown block form {form!r}")
    n = REGISTER_SIZES[BLOCK_FORMS.index(form)]
    ops = [GateOp("prep", (0,), input_label)]
    ops += [GateOp("H", (q,)) for q in range(1, n)]
    ops += [GateOp("CZ", (q, q + 1)) for q in range(n - 1)]
    return Circuit(n, tuple(ops))
