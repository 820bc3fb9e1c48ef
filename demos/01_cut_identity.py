#!/usr/bin/env python3
"""The six measure-and-prepare terms that replace one cut qubit wire.

Cutting a wire means: measure an observable O_i upstream, prepare a
state rho_i downstream, and weight each of the six combinations with a
coefficient c_i.  Each O_i is a readout in the X, Y or Z basis with a
weight for each of its two outcomes.  The table is only trustworthy
because it satisfies a reconstruction identity for *every* input state,
which this script checks on random density matrices.
"""

import numpy as np

from chaincut.cut import (
    CUT_PATTERNS,
    GRID_PREPS,
    GRID_TERMS,
    decomposition_table,
    plan_chain_jobs,
    reconstruction_error,
)

print("term   coeff   readout basis   outcome weights   prepared state")
for i, t in enumerate(decomposition_table()):
    weights = "({:g}, {:g})".format(*t.outcome_weights)
    print(f"  {i}    {t.coeff:+.1f}      {t.basis:<15} {weights:<17} {t.prep}")

one_norm = sum(abs(t.coeff) for t in decomposition_table())
print(f"\n1-norm of the coefficients: {one_norm}  (sampling-overhead base per cut)")
print(f"combinations for 3 cuts: {6 ** 3}, for 9 cuts: {6 ** 9:,}")
# No job reads a Y parity on its input qubit, so the Yp and Ym terms cancel
# and the job grid keeps only the four terms read in X or Z.
grid_norm = sum(abs(t.coeff) for t in GRID_TERMS)
print(f"1-norm of the job grid's terms {', '.join(GRID_PREPS)}: {grid_norm}")
print(f"grid combinations for 3 cuts: {4 ** 3}, for 9 cuts: {4 ** 9:,}")

# The planner pulls every parity a job measures back through its block and
# plans a cut basis only where some parity it is read through can be
# nonzero.  After an XZX block every X-cut parity is 0, so that cut is read
# in Z alone: a classical measure-and-prepare, where each shot's outcome
# picks Z0 or Z1 with weight 1 (gamma 1).  After a ZXZ block the cut reads
# all four terms, gamma = sum |c_i| = 3, the base of the range check's 3^k.
plan = plan_chain_jobs()
print(f"\njob grid: {len(plan)} jobs, derived by the planner")
for pattern in CUT_PATTERNS:
    bases = sorted({s.cut_basis for s in plan if s.form == "4q" and s.pattern == pattern})
    terms = [t for t in GRID_TERMS if t.basis in bases]
    gamma = 1.0 if bases == ["Z"] else sum(abs(t.coeff) for t in terms)
    preps = ", ".join(t.prep for t in terms)
    read = "/".join(bases)
    print(f"  cut after {pattern} blocks: read in {read}, prepares {preps}, gamma {gamma:g}")

rng = np.random.default_rng(1)


def random_density(dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


worst1 = max(reconstruction_error(random_density(2)) for _ in range(200))
worst2 = max(reconstruction_error(random_density(4)) for _ in range(50))
print(f"\nreconstruction identity, 200 random single-qubit states: max error {worst1:.3e}")
print(f"reconstruction identity,  50 random two-qubit states:    max error {worst2:.3e}")
print("\nthe identity, not the table, is the contract: any equivalent table must pass it.")
