"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way — explicit
Kronecker embeddings, elementwise index summation, exhaustive 4^k loops,
generic constrained optimization — and shares no code path with the
library being tested.  The dense simulator still reads out in Y, so it can
build the six-term block tables that the library's grid no longer runs.
"""

import itertools

import numpy as np
from scipy import optimize

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}

STATES = {
    "Z0": np.array([1, 0], dtype=complex),
    "Z1": np.array([0, 1], dtype=complex),
    "Xp": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "Xm": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "Yp": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "Ym": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def ket(bits: str) -> np.ndarray:
    """Computational-basis ket for a bitstring, qubit 0 leftmost."""
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def cluster_state(n: int) -> np.ndarray:
    """|LC_n> = 2^(-n/2) sum_b (-1)^(sum_i b_i b_(i+1)) |b>, in closed form."""
    b = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (-1.0) ** np.sum(b[:, :-1] & b[:, 1:], axis=1) / 2 ** (n / 2)


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ rho @ psi))


def lc_state_fidelity(rho: np.ndarray, n: int) -> float:
    """<LC_n| rho |LC_n> against the ideal cluster state."""
    return fidelity_to_pure(rho, cluster_state(n))


# ---------------------------------------------------------------------------
# Signed Pauli strings as (phase, letters), qubit 0 first


def _letter_products() -> dict:
    """(i-power phase, letter) of a.b for every pair of letters, read off 2x2 matrices."""
    table = {}
    for a, b in itertools.product("IXYZ", repeat=2):
        m = PAULIS[a] @ PAULIS[b]
        for c in "IXYZ":
            phase = np.trace(PAULIS[c].conj().T @ m) / 2
            if abs(phase) > 0.5:
                table[a, b] = (complex(np.round(phase)), c)
    return table


LETTER_PRODUCTS = _letter_products()


def stabilizer(n: int, i: int) -> tuple[int, str]:
    """Chain stabilizer s_i (1-based): X at site i, Z on its neighbours."""
    letters = ["I"] * n
    letters[i - 1] = "X"
    if i > 1:
        letters[i - 2] = "Z"
    if i < n:
        letters[i] = "Z"
    return 1, "".join(letters)


def pauli_product(*factors: tuple[int, str]) -> tuple[int, str]:
    """Phase-tracked product of signed Pauli strings, left to right, letter by letter.

    A product whose phase is imaginary is not a Hermitian Pauli string and raises.
    """
    phase, letters = complex(factors[0][0]), factors[0][1]
    for f_phase, f_letters in factors[1:]:
        if len(f_letters) != len(letters):
            raise ValueError("Pauli length mismatch")
        phase *= f_phase
        out = []
        for a, b in zip(letters, f_letters):
            p, c = LETTER_PRODUCTS[a, b]
            phase *= p
            out.append(c)
        letters = "".join(out)
    if phase.imag:
        raise ValueError("product has imaginary phase; not a Hermitian Pauli string")
    return int(phase.real), letters


def pauli_matrix(p: tuple[int, str]) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a signed Pauli string."""
    out = np.array([[p[0]]], dtype=complex)
    for c in p[1]:
        out = np.kron(out, PAULIS[c])
    return out


def expectation(rho: np.ndarray, p: tuple[int, str]) -> float:
    """Tr(rho P), checked to be real."""
    if rho.shape[0] != 2 ** len(p[1]):
        raise ValueError(f"Pauli on {len(p[1])} qubits, state of dimension {rho.shape[0]}")
    val = complex(np.trace(rho @ pauli_matrix(p)))
    assert abs(val.imag) < 1e-10, val
    return val.real


def pauli_to_masks(letters: str) -> tuple[int, int]:
    """Symplectic bit masks of a Pauli string, qubit q at bit n-1-q.

    x marks X/Y letters, z marks Z/Y.
    """
    n = len(letters)
    x = sum(1 << (n - 1 - q) for q, c in enumerate(letters) if c in "XY")
    z = sum(1 << (n - 1 - q) for q, c in enumerate(letters) if c in "ZY")
    return x, z


def masks_to_pauli(x: int, z: int, n: int) -> str:
    """Letters of the n-qubit Pauli string with bit masks x and z; inverse of pauli_to_masks."""
    bits = [(int(x) >> (n - 1 - q) & 1, int(z) >> (n - 1 - q) & 1) for q in range(n)]
    return "".join("IXZY"[2 * zb + xb] for xb, zb in bits)


def embed(op: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Full 2^n matrix of an operator on the listed qubits, by index lookup."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]

    def sub(i):
        bits = format(i, f"0{n}b")
        return int("".join(bits[q] for q in qubits), 2), tuple(bits[q] for q in rest)

    for i in range(dim):
        si, ri = sub(i)
        for j in range(dim):
            sj, rj = sub(j)
            if ri == rj:
                out[i, j] = op[si, sj]
    return out


def circuit_unitary(circuit, n: int) -> np.ndarray:
    """Full unitary of a noiseless circuit via embedded matrix products."""
    u = np.eye(2**n, dtype=complex)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for op in circuit.ops:
        if op.kind == "prep":
            v = STATES[op.label]
            g = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
            u = embed(g, op.qubits, n) @ u
        elif op.kind == "CZ":
            u = embed(cz, op.qubits, n) @ u
        elif op.kind == "H":
            u = embed(H, op.qubits, n) @ u
        else:
            raise ValueError(op.kind)
    return u


def statevector(circuit) -> np.ndarray:
    n = circuit.n_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return circuit_unitary(circuit, n) @ psi


def measured_distribution(psi: np.ndarray, meas: str) -> np.ndarray:
    """Outcome probabilities after rotating each basis onto Z."""
    n = len(meas)
    rot = np.eye(2**n, dtype=complex)
    for q, b in enumerate(meas):
        if b == "X":
            rot = embed(H, (q,), n) @ rot
        elif b == "Y":
            rot = embed(H @ SDG, (q,), n) @ rot
    return np.abs(rot @ psi) ** 2


def kraus_depolarize(rho: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """Depolarizing via the Pauli-twirl Kraus sum on the gate support."""
    if p == 0.0:
        return rho
    k = len(qubits)
    acc = np.zeros_like(rho)
    for letters in itertools.product("IXYZ", repeat=k):
        op = np.array([[1.0]])
        for c in letters:
            op = np.kron(op, PAULIS[c])
        full = embed(op, qubits, n)
        acc += full @ rho @ full.conj().T
    return (1.0 - p) * rho + p * acc / 4**k


def noisy_density(circuit, p1: float, p2: float) -> np.ndarray:
    """Channel-composition reference: full-matrix unitaries + Kraus noise."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    gates = {"H": H}
    for op in circuit.ops:
        if op.kind == "prep":
            v = STATES[op.label]
            g = embed(np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]]), op.qubits, n)
            rho = g @ rho @ g.conj().T
        elif op.kind == "CZ":
            g = embed(cz, op.qubits, n)
            rho = g @ rho @ g.conj().T
            rho = kraus_depolarize(rho, op.qubits, p2, n)
        else:
            g = embed(gates[op.kind], op.qubits, n)
            rho = g @ rho @ g.conj().T
            rho = kraus_depolarize(rho, op.qubits, p1, n)
    return rho


def density_distribution(rho: np.ndarray, meas: str) -> np.ndarray:
    n = len(meas)
    rot = np.eye(2**n, dtype=complex)
    for q, b in enumerate(meas):
        if b == "X":
            rot = embed(H, (q,), n) @ rot
        elif b == "Y":
            rot = embed(H @ SDG, (q,), n) @ rot
    return np.real(np.diag(rot @ rho @ rot.conj().T))


def partial_trace_index_sum(rho: np.ndarray, keep: list[int]) -> np.ndarray:
    """Sum_k <.. k| rho |.. k> by explicit bitstring loops."""
    n = int(np.log2(rho.shape[0]))
    traced = [q for q in range(n) if q not in keep]
    m = len(keep)
    out = np.zeros((2**m, 2**m), dtype=complex)
    for a in range(2**m):
        abits = format(a, f"0{m}b")
        for b in range(2**m):
            bbits = format(b, f"0{m}b")
            for t in range(2 ** len(traced)):
                tbits = format(t, f"0{len(traced)}b") if traced else ""
                row = ["?"] * n
                col = ["?"] * n
                for qi, q in enumerate(keep):
                    row[q] = abits[qi]
                    col[q] = bbits[qi]
                for qi, q in enumerate(traced):
                    row[q] = tbits[qi]
                    col[q] = tbits[qi]
                out[a, b] += rho[int("".join(row), 2), int("".join(col), 2)]
    return out


def expectation_from_weights(weights: np.ndarray, n: int, pauli_letters: str, meas: str) -> float:
    """Parity expectation of a Pauli string from outcome weights, letter by letter.

    ``weights`` is a normalized (quasi-)distribution over 2^n outcomes
    measured in ``meas``.  Every non-identity letter of the Pauli must
    match the measured basis at that qubit; the value is
    sum_b w(b) * (-1)^(parity of b on the Pauli's support), the sign
    vector built one support qubit at a time (qubit q is bit n-1-q).
    """
    if len(pauli_letters) != n or len(meas) != n:
        raise ValueError("length mismatch")
    index = np.arange(2**n)
    signs = np.ones(2**n)
    for q, (letter, basis) in enumerate(zip(pauli_letters, meas)):
        if letter == "I":
            continue
        if letter != basis:
            raise ValueError(
                f"Pauli letter {letter} at qubit {q} incompatible with {basis} readout"
            )
        signs *= 1.0 - 2.0 * ((index >> (n - 1 - q)) & 1)
    return float(weights @ signs)


def witness_values_per_term(p: np.ndarray, letters: list[str]) -> np.ndarray:
    """Each distribution's parity expectation of each Pauli string, a whole sign row per string.

    ``p`` is a (distributions, 2^n) stack.  A string's support is its
    non-identity sites (qubit q is bit n-1-q); its sign row
    (-1)^popcount(outcome & support) is built from that mask alone and
    dotted with every distribution.
    """
    n = len(letters[0])
    index = np.arange(2**n, dtype=np.int64)
    out = np.empty((len(p), len(letters)))
    for t, pauli in enumerate(letters):
        support = int("".join("0" if c == "I" else "1" for c in pauli), 2)
        signs = 1.0 - 2.0 * (np.bitwise_count(index & support) & 1)
        for r, dist in enumerate(p):
            out[r, t] = dist @ signs
    return out


def sample_with_readout_flips(p: np.ndarray, shots: int, readout, rng) -> np.ndarray:
    """Counts of ``shots`` shots, each drawn from p and then read out bit by bit.

    The readout model's two stages, one shot at a time: a true outcome from
    p, then each bit kept with probability f00 (true 0) or f11 (true 1) and
    flipped otherwise.  Qubit 0 is the leftmost bit.
    """
    n = len(readout)
    counts = np.zeros(2**n, dtype=np.int64)
    for true in rng.choice(2**n, size=shots, p=p / p.sum()):
        observed = 0
        for q, (f00, f11) in enumerate(readout):
            bit = (int(true) >> (n - 1 - q)) & 1
            if rng.random() >= (f11 if bit else f00):
                bit ^= 1
            observed |= bit << (n - 1 - q)
        counts[observed] += 1
    return counts


def _block_masks_and_patterns(letters: str, parity: str) -> tuple[int, list, list]:
    """Cut count, per-block 3-bit masks and pattern indices, from raw letters."""
    n = len(letters)
    assert n % 3 == 0 and n >= 6
    k = n // 3 - 1
    masks = []
    for b in range(k + 1):
        chunk = letters[3 * b: 3 * b + 3]
        masks.append(sum(4 >> t for t, c in enumerate(chunk) if c != "I"))
    patterns = []
    for b in range(k + 1):
        if parity == "odd":
            patterns.append(0 if b % 2 == 0 else 1)
        else:
            patterns.append(1 if b % 2 == 0 else 0)
    return k, masks, patterns


def stitch_brute_force(letters: str, parity: str, t4: np.ndarray, t3: np.ndarray,
                       coeffs: np.ndarray, xp_index: int = 2) -> float:
    """Exhaustive m^k summation of the chain-reuse contraction over m cut terms.

    ``t4``/``t3`` are block tensors shaped (2, m, m, 8) and (2, m, 8), m the
    length of ``coeffs``; block masks, patterns, and weights are recomputed
    here from the raw Pauli letters, independently of the library's bit tricks.
    """
    k, masks, patterns = _block_masks_and_patterns(letters, parity)
    total = 0.0
    for combo in itertools.product(range(len(coeffs)), repeat=k):
        weight = 1.0
        for i in combo:
            weight *= coeffs[i]
        value = t4[patterns[0], xp_index, combo[0], masks[0]]
        for b in range(1, k):
            value *= t4[patterns[b], combo[b - 1], combo[b], masks[b]]
        value *= t3[patterns[k], combo[k - 1], masks[k]]
        total += weight * value
    return total


# Coefficients of the cut terms the job grid reads (Z0, Z1, Xp, Xm), and of
# the full six-term table (Z0, Z1, Xp, Xm, Yp, Ym).
CUT_COEFFS = np.array([1.0, 1.0, 0.5, -0.5])
SIX_TERM_COEFFS = np.array([1.0, 1.0, 0.5, -0.5, 0.5, -0.5])
XP_INDEX = 2


# Readout (basis, outcome weights) of each of the six cut terms, in table order.
SIX_TERM_READOUTS = (("Z", (1.0, 0.0)), ("Z", (0.0, 1.0)), ("X", (1.0, -1.0)),
                     ("X", (1.0, -1.0)), ("Y", (1.0, -1.0)), ("Y", (1.0, -1.0)))


def local_parities(weights: np.ndarray) -> np.ndarray:
    """Entry m: sum over 3-bit outcomes b of weights[b] * (-1)^(number of bits in m & b)."""
    return np.array([sum(w * (-1) ** bin(m & b).count("1") for b, w in enumerate(weights))
                     for m in range(8)])


def six_term_block_tables(block_circuit, p1: float, p2: float) -> tuple[np.ndarray, np.ndarray]:
    """Parity tables of the 48 jobs of the six-term cut, by dense simulation with Y readout.

    ``block_circuit(form, label)`` builds a block.  Returns the four-qubit
    table (pattern, input, cut term, local mask) over the six STATES inputs
    and the six cut terms of SIX_TERM_READOUTS, and the three-qubit table
    (pattern, input, local mask); no readout error is applied.
    """
    v4, v3 = np.zeros((2, 6, 6, 8)), np.zeros((2, 6, 8))
    for j, label in enumerate(STATES):
        rho4 = noisy_density(block_circuit("4q", label), p1, p2)
        rho3 = noisy_density(block_circuit("3q", label), p1, p2)
        for pat, pattern in enumerate(("XZX", "ZXZ")):
            for i, (basis, (w0, w1)) in enumerate(SIX_TERM_READOUTS):
                p = density_distribution(rho4, pattern + basis).reshape(8, 2)
                v4[pat, j, i] = local_parities(w0 * p[:, 0] + w1 * p[:, 1])
            v3[pat, j] = local_parities(density_distribution(rho3, pattern))
    return v4, v3


def stitch_expectation(letters: str, parity: str, bt4, bt3, n_cuts: int) -> float:
    """Expectation of one witness term by explicit 4x4 transfer matrices.

    Left boundary: the four-qubit tensor at input Xp (the open chain end
    prepares |+>).  Middle blocks reuse the same tensor with the input
    label dictated by each cut term; the three-qubit tensor closes the
    chain.  Masks and patterns come from the term's letters, as in
    stitch_brute_force, not from the library's bit tricks.
    """
    k, masks, patterns = _block_masks_and_patterns(letters, parity)
    assert k == n_cuts, f"term on {len(letters)} qubits, chain has {3 * n_cuts + 3}"
    v = CUT_COEFFS * bt4.values[patterns[0], XP_INDEX, :, masks[0]]
    for b in range(1, k):
        v = v @ (bt4.values[patterns[b], :, :, masks[b]] * CUT_COEFFS[None, :])
    return float(v @ bt3.values[patterns[k], :, masks[k]])


def stitch_all_terms(bt4, bt3, n: int, parity: str, coeffs=CUT_COEFFS) -> np.ndarray:
    """Every subset term of one parity by transfer matrices, all terms advancing together.

    Entry s is the subset whose bit t selects the t-th stabilizer of the
    parity (1-based sites 1, 3, ... for odd, 2, 4, ... for even).  Its
    support, with site q at bit n-1-q, is the chosen X sites plus the Z
    sites that exactly one chosen neighbour reaches.  The chain is then
    contracted as in stitch_expectation, one row per term, the rows grouped
    by their 3-bit block mask at each block; memory follows the 2^(n/2)
    term count, not the 2^n outcomes.  ``bt4``/``bt3`` need only a
    ``values`` table with one input and cut-term entry per coefficient.
    """
    first = 1 if parity == "odd" else 2
    sites = range(first, n + 1, 2)
    subsets = np.arange(2 ** len(sites), dtype=np.int64)
    chosen = np.zeros_like(subsets)
    for t, i in enumerate(sites):
        chosen |= ((subsets >> t) & 1) << (n - i)
    support = chosen | (((chosen >> 1) ^ (chosen << 1)) & ((1 << n) - 1))
    k = n // 3 - 1
    masks = [(support >> (n - 3 - 3 * b)) & 7 for b in range(k + 1)]
    patterns = [(b + first - 1) % 2 for b in range(k + 1)]
    weighted = bt4.values * coeffs[:, None]
    v = weighted[patterns[0], XP_INDEX][:, masks[0]].T
    for b in range(1, k):
        out = np.empty_like(v)
        for mask in range(8):
            rows = masks[b] == mask
            out[rows] = v[rows] @ weighted[patterns[b]][:, :, mask]
        v = out
    return np.sum(v * bt3.values[patterns[k]][:, masks[k]].T, axis=1)


def project_simplex_qp(q: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex as a generic constrained QP."""
    d = len(q)
    res = optimize.minimize(
        lambda x: 0.5 * np.sum((x - q) ** 2),
        np.full(d, 1.0 / d),
        jac=lambda x: x - q,
        method="SLSQP",
        bounds=[(0.0, None)] * d,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                      "jac": lambda x: np.ones_like(x)}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert res.success, res.message
    return res.x
