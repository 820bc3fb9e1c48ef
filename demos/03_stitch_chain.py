#!/usr/bin/env python3
"""Stitching block statistics back into a 12-qubit chain, exactly.

With noiseless blocks, the transfer-matrix contraction of the measured
block tensors must reproduce the uncut 12-qubit circuit to floating
point: all 128 witness expectations equal 1, and the full XZ/ZX outcome
distributions match a direct statevector simulation.
"""

import numpy as np

from chaincut.cut import plan_chain_jobs
from chaincut.direct import chain_distribution
from chaincut.mitigation import MitigationPipeline
from chaincut.reconstruct import (
    build_block_tensors,
    stitched_distribution,
    witness_terms,
    witness_values,
)
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

NOISELESS = NoiseModel(0.0, 0.0, None)

results = execute_jobs(plan_chain_jobs(), RunConfig("exact"), NOISELESS)
bt4, bt3 = build_block_tensors(results, MitigationPipeline({}))

for parity in ("odd", "even"):
    vals = witness_values(bt4, bt3, 12, parity)
    print(f"{parity:>5} witness terms: {len(vals)},  max |value - 1| = "
          f"{np.max(np.abs(vals - 1)):.2e}")

sample = witness_terms(12, "odd")[37]
print(f"\nexample term: stabilizer subset {sample.subset} -> Pauli {sample.letters}")

for setting in ("XZ", "ZX"):
    stitched = stitched_distribution(bt4, bt3, 12, setting)
    direct = chain_distribution(12, (setting * 6)[:12], NOISELESS)
    tv = 0.5 * np.sum(np.abs(stitched - direct))
    print(f"{setting} distribution: 4096 outcomes, total variation vs direct = {tv:.2e}")

print("\nthree cuts, four blocks, zero approximation: the wire-cut identity is exact.")
