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

from chaincut.cut import GRID_PREPS, GRID_TERMS, decomposition_table, reconstruction_error

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
