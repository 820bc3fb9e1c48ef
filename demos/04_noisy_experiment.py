#!/usr/bin/env python3
"""A full noisy experiment: sample, calibrate, mitigate, stitch, compare.

Default noise: effective depolarizing after every gate plus per-qubit
readout flips.  One million shots per job, transition-matrix error
mitigation from the true rates, maximum-likelihood projection back onto
the simplex, then the cut-vs-direct comparison at 12 qubits.
"""

from chaincut.direct import direct_chain_report
from chaincut.mitigation import MitigationPipeline, pipeline_for_rep
from chaincut.reconstruct import (
    bound_from_distributions,
    build_block_tensors,
    fidelity_lower_bound,
    witness_averages,
)
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

noise = NoiseModel()
run = RunConfig("sampled", shots=1_000_000, seed=2024)
print(f"noise: p1={noise.p1}, p2={noise.p2}, f00={[r[0] for r in noise.readout]}")

results = execute_jobs(run, noise)

pipeline = pipeline_for_rep({}, noise.readout, "tensor")
t4, t3 = pipeline.matrices[4], pipeline.matrices[3]
print(f"confusion matrices: cond(T4)={t4.cond:.3f}, cond(T3)={t3.cond:.3f}")

by_id = {spec.job_id: counts for spec, counts in results.items()}
p_xz = pipeline.physical(by_id["4q-Xp-XZX-Z"]).p
p_zx = pipeline.physical(by_id["4q-Xp-ZXZ-X"]).p
block = bound_from_distributions(p_xz, p_zx, 4)
print(f"\n4-qubit cluster block, mitigated fidelity bound: {block['bound']:.4f}")

bt4, bt3 = build_block_tensors(results, pipeline)
odd, even = witness_averages(bt4, bt3, 12)
stitched = fidelity_lower_bound(odd, even)
[direct] = direct_chain_report(12, noise, RunConfig("exact"))["bound"]
print(f"12-qubit stitched bound (sampled):  {stitched:.4f}")
print(f"12-qubit direct-simulation bound:   {direct:.4f}")

# shot noise (~1e-3 here) hides the deterministic margin; rerun the
# stitching on exact block statistics to see it cleanly
exact_results = execute_jobs(RunConfig("exact"), noise)
e4, e3 = build_block_tensors(exact_results, MitigationPipeline({}))
odd_e, even_e = witness_averages(e4, e3, 12)
stitched_exact = fidelity_lower_bound(odd_e, even_e)
print(f"12-qubit stitched bound (exact):    {stitched_exact:.4f}")
print(f"cutting wins by {stitched_exact - direct:+.2e}: the cut chain's open end")
print("is prepared noiselessly, saving exactly one noisy gate over the uncut run.")
