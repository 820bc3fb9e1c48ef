"""Stitch mitigated block statistics into chain-wide witness expectations.

The chain of length n = 3k + 3 is covered by k four-qubit blocks and a
final three-qubit block; adjacent blocks share a cut qubit measured
upstream (observable O_i) and re-prepared downstream (state rho_i).
Block statistics enter as one outcome table per block form:

* four-qubit: outcome[pattern, input, cut term, local outcome]
* three-qubit: outcome[pattern, input, local outcome]

where ``local outcome`` is the 3-bit measurement outcome of the block's
real qubits and ``pattern`` is the local measurement setting (XZX or
ZXZ).  The parity table derived from it replaces the outcome by a local
mask, which selects the real qubits that carry a non-identity witness
letter.  A chain expectation is then a contraction

    sum_{i_1..i_k} prod_j c_{i_j} * L[i_1] * M_1[i_1,i_2] * ... * R[i_k]

over the four cut terms the job grid reads (cut.GRID_TERMS), evaluated
as one boundary vector, k-1 applications of a 4x4 transfer matrix, and a
closing vector -- linear cost in k instead of 4^k.  The
same chain over outcome tables reproduces full measurement
distributions.  One block walk, _chain_blocks, states for both stitchers
which pattern each block measures and where the cut coefficients c_i
enter.

Witness terms are all subset-products of the odd- (or even-) indexed
chain stabilizers; every odd product is measurable in the XZXZ...
setting and every even product in ZXZX....  The fidelity bound needs
only their mean, the expectation of the projector prod (I + s_i)/2, so
one walk per parity contracts that projector through an 8-dim transfer
state (cut term x chosen bit of the stabilizer straddling the block
boundary), never enumerating the ~2^(n/2) terms, and closes every chain
length it passes: a whole sweep to n costs time linear in n.
Per-term values (witness_values) are read off the stitched distribution
by the Walsh-Hadamard kernel that direct uses; their cost is 2^n.

This module never touches a simulator: it consumes job bundles, making
reconstruction a purely classical pass over archived data.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .circuit import FOUR_QUBIT, THREE_QUBIT
from .cut import CUT_PATTERNS, GRID_PREPS, GRID_TERMS, JobSpec, Payload, plan_chain_jobs
from .mitigation import MitigationPipeline
from .qstate import WALSH_1Q, apply_per_qubit

# Global measurement setting that reads every witness term of each parity.
SETTINGS = {"odd": "XZ", "even": "ZX"}
XP_INDEX = GRID_PREPS.index("Xp")
COEFFS = np.array([t.coeff for t in GRID_TERMS])  # c_i of the grid's cut terms
COEFFS.flags.writeable = False


# SIGNS3[mask, outcome] = (-1)^popcount(mask & outcome) turns outcome-indexed
# block values into parity-indexed ones.
SIGNS3 = apply_per_qubit(np.eye(8), (WALSH_1Q,) * 3)

BLOCK_ENTRY_TOL = 1e-6


# ---------------------------------------------------------------------------
# Chain stabilizers and witness terms


def _start(parity: str) -> int:
    """0-based site of the parity's first stabilizer, and so block 0's pattern (XZX, ZXZ) index."""
    if parity not in SETTINGS:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return 0 if parity == "odd" else 1


def parity_indices(n: int, parity: str) -> list[int]:
    return list(range(_start(parity) + 1, n + 1, 2))


def witness_setting(n: int, parity: str) -> str:
    """Global measurement setting reading every term of one parity."""
    _start(parity)  # an unknown parity is a ValueError, not a KeyError
    return (SETTINGS[parity] * ((n + 1) // 2))[:n]


def witness_term_count(n: int, parity: str) -> int:
    return 2 ** len(parity_indices(n, parity))


@dataclass(frozen=True)
class WitnessTerm:
    """One subset-product of same-parity stabilizers and its Pauli letters."""

    subset: tuple[int, ...]
    letters: str


def witness_terms(n: int, parity: str) -> list[WitnessTerm]:
    """All 2^m subset-products of the odd- or even-indexed stabilizers.

    Each term's letters come from its site masks (X on the chosen sites,
    Z where exactly one neighbour is chosen, I elsewhere).  No two
    same-parity stabilizers are neighbours, so no X meets a Z and every
    product carries phase +1; this is asserted rather than assumed.
    """
    if n < 2:
        raise ValueError("witness terms need n >= 2")
    indices = parity_indices(n, parity)
    chosen, z_sites = _subset_masks(n, parity)
    if np.any(chosen & (chosen << 1)):
        raise AssertionError(f"{parity} stabilizers include neighbours; products need not be +1")
    bits = np.arange(n - 1, -1, -1)
    codes = ((chosen[:, None] >> bits) & 1) + 2 * ((z_sites[:, None] >> bits) & 1)
    letters = np.array(list("IXZ"))[codes]
    return [
        WitnessTerm(tuple(i for t, i in enumerate(indices) if (s >> t) & 1), "".join(row))
        for s, row in enumerate(letters)
    ]


def _subset_masks(n: int, parity: str) -> tuple[np.ndarray, np.ndarray]:
    """X-site and Z-site bitmasks of every subset-product of one parity.

    Entry s of each array is an integer in outcome-index bit order (chain
    site p is bit n-1-p, as in index_to_bits) for the subset whose bit t
    selects the t-th stabilizer of that parity: the X sites are the
    chosen stabilizers, and a Z survives where exactly one neighbouring
    stabilizer was chosen.  Their union is the term's support.
    """
    positions = [i - 1 for i in parity_indices(n, parity)]
    subsets = np.arange(2 ** len(positions), dtype=np.int64)
    chosen = np.zeros_like(subsets)
    for t, p in enumerate(positions):
        chosen |= ((subsets >> t) & 1) << (n - 1 - p)
    z_sites = ((chosen >> 1) ^ (chosen << 1)) & ((1 << n) - 1)
    return chosen, z_sites


# ---------------------------------------------------------------------------
# Block tensors


@dataclass(frozen=True, eq=False)
class BlockTensor:
    """Mitigated per-block statistics: one outcome table and its parity table.

    ``outcomes`` axes: (pattern, input, cut term, outcome) for the
    four-qubit form and (pattern, input, outcome) for the three-qubit
    form, with the pattern axis ordered (XZX, ZXZ), inputs and cut terms
    in GRID_TERMS order and the 3-bit measurement outcome of the block's
    real qubits last.  ``values`` is derived from it: the same axes, with
    the outcome replaced by the local parity mask.
    """

    form: str
    outcomes: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        m = len(GRID_TERMS)
        shape = (2, m, m, 8) if self.form == FOUR_QUBIT else (2, m, 8)
        if self.outcomes.shape != shape:
            raise ValueError(f"tensor shape {self.outcomes.shape} invalid for {self.form}")
        object.__setattr__(self, "values", self.outcomes @ SIGNS3)
        limit = 1.0 + BLOCK_ENTRY_TOL
        if np.max(np.abs(self.values)) > limit:
            raise ValueError("block tensor entry outside [-1-eps, 1+eps]")

    def __eq__(self, other):
        if not isinstance(other, BlockTensor):
            return NotImplemented
        return self.form == other.form and np.array_equal(self.outcomes, other.outcomes)


def build_block_tensors(
    payloads: dict[JobSpec, Payload], pipeline: MitigationPipeline
) -> tuple[BlockTensor, BlockTensor]:
    """Mitigate every job's payload and assemble the two block tensors.

    ``payloads`` maps each job of the grid to its counts or distribution.
    A job's entries sit at (its pattern, its input) in CUT_PATTERNS and
    GRID_PREPS order.  Four-qubit entries combine the physical
    distribution's last-qubit outcome with the outcome weights of each cut
    observable read in the job's cut basis (projector terms read the Z
    marginal, X terms the parity).
    """
    grid = plan_chain_jobs()
    missing = sorted(s.job_id for s in grid if s not in payloads)
    if missing:
        raise ValueError(f"job grid incomplete, missing: {missing}")
    m = len(GRID_TERMS)
    w4, p3 = np.zeros((2, m, m, 8)), np.zeros((2, m, 8))
    for spec in grid:
        at = (CUT_PATTERNS.index(spec.pattern), GRID_PREPS.index(spec.input))
        p = pipeline.physical(payloads[spec]).p
        if spec.form == THREE_QUBIT:
            p3[at] = p
        else:
            for i, t in enumerate(GRID_TERMS):
                if t.basis == spec.cut_basis:
                    w4[at + (i,)] = p.reshape(8, 2) @ np.asarray(t.outcome_weights)
    return BlockTensor(FOUR_QUBIT, w4), BlockTensor(THREE_QUBIT, p3)


# ---------------------------------------------------------------------------
# Transfer-matrix stitching


def chain_cut_count(n: int) -> int:
    """Number of cuts for an n-site chain built from 4q blocks + one 3q block."""
    if n < 6 or n % 3 != 0:
        raise ValueError(f"chain length {n} is not 3k+3 with k >= 1")
    return n // 3 - 1


def _chain_blocks(t4: np.ndarray, t3: np.ndarray, n: int, parity: str) -> tuple[list, list]:
    """The block sequence of an n-site chain measured in one parity's setting.

    ``t4`` and ``t3`` are a block form's outcome or parity tables.  Block
    b of the k four-qubit blocks measures pattern (b + start) % 2, and its
    (input, cut term, last axis) table is weighted by the cut coefficient
    of its outgoing cut term.  The three-qubit closing tables, also
    returned, measure the patterns of blocks 1..k: entry b closes the
    chain of b + 1 cuts, the last one the n-site chain.
    """
    start = _start(parity)
    weighted = t4 * COEFFS[:, None]
    patterns = [(b + start) % 2 for b in range(chain_cut_count(n) + 1)]
    return [weighted[a] for a in patterns[:-1]], [t3[a] for a in patterns[1:]]


def stitched_distribution(bt4: BlockTensor, bt3: BlockTensor, n: int, parity: str) -> np.ndarray:
    """Full chain outcome quasi-distribution in one parity's setting.

    Contracts outcome-indexed block tables instead of parity masks; the
    result sums to one exactly (cut-term weights cancel per block) but
    may carry small negative entries for sampled data.
    """
    blocks, closings = _chain_blocks(bt4.outcomes, bt3.outcomes, n, parity)
    acc = blocks[0][XP_INDEX].T
    for block in blocks[1:]:
        acc = np.tensordot(acc, np.moveaxis(block, 2, 0), axes=([-1], [1]))
    acc = np.tensordot(acc, closings[-1].T, axes=([-1], [1]))
    return acc.reshape(-1)


# ---------------------------------------------------------------------------
# Fidelity bound and the chain-length sweep


def fidelity_lower_bound(odd_avg, even_avg):
    """odd_avg + even_avg - 1: valid lower bound on cluster-state fidelity.

    The averages are uniform means over all subset-product expectations,
    since each parity projector expands as 2^-m times their sum.  They may
    be arrays (one entry per repetition); the bound is then elementwise.
    """
    return _bound_within(odd_avg, even_avg, 1.0)


def stitched_lower_bound(odd_avg: float, even_avg: float, n: int) -> float:
    """fidelity_lower_bound for averages stitched across the cuts of an n-site chain.

    Stitched from sampled blocks, each average is a quasi-probability
    estimate: unbiased, but bounded by gamma^k (gamma = sum |c_i| over the
    cut terms, k cuts) rather than by 1.  A noiseless sampled chain can
    land just above 1, which is shot noise, not a corrupt bundle.
    """
    gamma = float(np.sum(np.abs(COEFFS)))
    try:
        limit = gamma ** chain_cut_count(n)
    except OverflowError:  # gamma^k is past the float range: every finite average passes
        limit = np.finfo(float).max
    return _bound_within(odd_avg, even_avg, limit)


def _bound_within(odd_avg, even_avg, limit: float):
    for name, v in (("odd_avg", odd_avg), ("even_avg", even_avg)):
        if not np.all(np.abs(v) <= limit + BLOCK_ENTRY_TOL):
            raise ValueError(f"{name}={v} outside [-{limit:g}-eps, {limit:g}+eps]")
    return odd_avg + even_avg - 1.0


@dataclass(frozen=True)
class ScalingRow:
    """One chain length of the reuse sweep with the wall time of its step of the walk."""

    n: int
    odd_avg: float
    even_avg: float
    bound: float
    postprocess_time_s: float


@functools.cache
def _choice_weights(n: int, parity: str, block: int) -> np.ndarray:
    """Weight of each stabilizer choice seen by one block, by local mask (read-only).

    Entry [l, r, mask] sums, over the choices of the parity's stabilizers
    that give the block this 3-bit local mask, the weight 2^-(number of
    stabilizers first seen here).  A block's mask depends only on the
    stabilizers at 0-based sites 3b-1..3b+3: the one at 3b-1 or 3b
    straddles the left boundary (bit l), the one at 3b+2 or 3b+3 the right
    boundary (bit r), and any other is local to the block.  The end
    blocks have no left or right neighbour, so there l or r stays 0.
    """
    n_cuts = chain_cut_count(n)
    first = _start(parity)
    base = 3 * block
    sites = [p for p in range(base - 1, base + 4) if 0 <= p < n and p % 2 == first]
    left = next((p for p in sites if p <= base), None) if block > 0 else None
    right = next((p for p in sites if p >= base + 2), None) if block < n_cuts else None
    weight = 0.5 ** (len(sites) - (left is not None))
    out = np.zeros((2, 2, 8))
    for bits in range(2 ** len(sites)):
        chosen = {p: (bits >> t) & 1 for t, p in enumerate(sites)}
        mask = 0
        for p in range(base, base + 3):
            hit = chosen.get(p, 0) | (chosen.get(p - 1, 0) ^ chosen.get(p + 1, 0))
            mask = (mask << 1) | hit
        out[chosen.get(left, 0), chosen.get(right, 0), mask] += weight
    out.flags.writeable = False
    return out


def _parity_walk(bt4: BlockTensor, bt3: BlockTensor, n: int, parity: str) -> Iterator[float]:
    """Mean of all 2^m subset terms of one parity, for each chain of 6, 9, ..., n sites.

    The mean is the expectation of the stabilizer projector prod (I+s_i)/2,
    contracted through the chain with an 8-dim transfer state: the 4 cut
    terms times the chosen bit of the stabilizer straddling the boundary.
    Each stabilizer carries its factor 1/2 into the transfer weights, so
    no 2^-m normaliser is ever formed.  A block's transfer matrix is the
    same in every chain that extends past it, so one walk closes each
    chain on its way.  Middle blocks repeat with period two (both the
    local pattern and the stabilizer sites alternate), so each parity
    needs at most two middle matrices.
    """
    blocks, closings = _chain_blocks(bt4.values, bt3.values, n, parity)
    dim = 2 * len(GRID_TERMS)

    def transfer(b: int) -> np.ndarray:
        weights = _choice_weights(n, parity, b)
        return np.einsum("ijm,lrm->iljr", blocks[b], weights).reshape(dim, dim)

    v = transfer(0)[2 * XP_INDEX]  # state (input Xp, no left stabilizer)
    middles = {b % 2: transfer(b) for b in range(1, min(len(blocks), 3))}
    for b, closing in enumerate(closings):
        if b:
            v = v @ middles[b % 2]
        closing = np.einsum("im,lrm->il", closing, _choice_weights(3 * b + 6, parity, b + 1))
        yield float(v @ closing.reshape(dim))


def witness_averages(bt4: BlockTensor, bt3: BlockTensor, n: int) -> tuple[float, float]:
    """Mean odd and even subset-term expectations of an n-site chain."""
    *_, odd_avg = _parity_walk(bt4, bt3, n, "odd")
    *_, even_avg = _parity_walk(bt4, bt3, n, "even")
    return odd_avg, even_avg


def scaling_sweep(bt4: BlockTensor, bt3: BlockTensor, k_max: int) -> list[ScalingRow]:
    """Reuse the same block tensors for chains n = 6 + 3k, k = 1..k_max.

    Each row is the exact mean over every subset term (no term
    subsampling).  One walk per parity passes every chain length, so the
    whole sweep costs time linear in k_max and each row's recorded
    wall-clock time is its own step of the walks, not a function of the
    2^(n/2)-ish term count; the tensors themselves are fixed, mirroring
    how one set of measured blocks serves every chain length.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_max = 6 + 3 * k_max
    walks = zip(_parity_walk(bt4, bt3, n_max, "odd"), _parity_walk(bt4, bt3, n_max, "even"))
    next(walks)  # n = 6, below the sweep's first chain
    rows = []
    for n in range(9, n_max + 1, 3):
        t0 = time.perf_counter()
        odd_avg, even_avg = next(walks)
        elapsed = time.perf_counter() - t0
        rows.append(
            ScalingRow(n, odd_avg, even_avg, stitched_lower_bound(odd_avg, even_avg, n), elapsed)
        )
    return rows


# ---------------------------------------------------------------------------
# Per-term witness values from chain distributions


def witness_values_from_distribution(p: np.ndarray, n: int, parity: str) -> np.ndarray:
    """Per-term expectations of one parity from full-chain distributions.

    ``p`` is one distribution or a (repetitions, 2^n) stack of them, each
    measured in witness_setting(n, parity), where every term is the parity
    of the outcome bits on its support; terms follow witness_terms order,
    along the last axis of the result.  One Walsh-Hadamard transform gives
    the parity of every support, and each term reads its own.
    """
    chosen, z_sites = _subset_masks(n, parity)
    # np.take keeps the result C-ordered, so the mean over terms sums as for one row
    return np.take(apply_per_qubit(p, (WALSH_1Q,) * n), chosen | z_sites, axis=-1)


def witness_values(bt4: BlockTensor, bt3: BlockTensor, n: int, parity: str) -> np.ndarray:
    """Stitched expectations of every subset term of one parity, in witness_terms order.

    Read off the stitched distribution in the parity's setting, so time
    and memory grow as 2^n: n = 18 holds 2^18 floats, n = 33 would need
    2^33.  For the mean over all terms at any n, use witness_averages.
    """
    return witness_values_from_distribution(stitched_distribution(bt4, bt3, n, parity), n, parity)


def bound_from_distributions(p_xz: np.ndarray, p_zx: np.ndarray, n: int) -> dict:
    """Witness values, averages and fidelity bound from XZ- and ZX-basis statistics.

    Takes one pair of distributions, or a pair of (repetitions, 2^n)
    stacks; then every value gains the leading repetition axis, and row r
    is what the pair of rows r gives on its own.
    """
    odd = witness_values_from_distribution(p_xz, n, "odd")
    even = witness_values_from_distribution(p_zx, n, "even")
    odd_avg, even_avg = odd.mean(axis=-1), even.mean(axis=-1)
    return {
        "n": n,
        "odd": odd,
        "even": even,
        "odd_avg": odd_avg,
        "even_avg": even_avg,
        "bound": fidelity_lower_bound(odd_avg, even_avg),
    }
