#!/usr/bin/env python3
"""The fixed 48-job grid and what one block's statistics look like.

Two circuit templates cover every chain: a 4-qubit block (prepared
input, H column, CZ staircase, last qubit read in X/Y/Z for the cut)
and a 3-qubit closing block.  6 inputs x 2 witness patterns x 3 cut
bases gives 36 four-qubit jobs; 6 x 2 gives 12 three-qubit jobs.
"""

import numpy as np

from chaincut.circuit import build_block_subcircuit
from chaincut.cut import plan_chain_jobs
from chaincut.mitigation import MitigationPipeline
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

plan = plan_chain_jobs()
four = [s for s in plan if s.form == "4q"]
three = [s for s in plan if s.form == "3q"]
print(f"grid: {len(four)} four-qubit jobs + {len(three)} three-qubit jobs = {len(plan)}")
print("first few job ids:", ", ".join(s.job_id for s in plan[:4]), "...")

circ = build_block_subcircuit("4q", "Xp")
print("\nthe |+>-input block is the 4-qubit linear-cluster circuit itself:")
print(" ", [(g.kind, g.qubits, g.label) for g in circ.ops])

results = execute_jobs(plan, RunConfig("exact"), NoiseModel(0.0, 0.0, None))
job = next(r for r in results if r.spec.job_id == "4q-Xp-XZX-Z")
print("\nexact XZXZ outcome distribution of that block (16 bitstrings):")
p = job.dist.p
for i, prob in enumerate(p):
    bits = format(i, "04b")
    bar = "#" * int(round(prob * 160))
    if prob > 1e-12:
        print(f"  {bits}  {prob:.4f}  {bar}")
print("\nfour outcomes at 1/4 each: the two parity constraints of the cluster")
print("state in this basis kill the other twelve bitstrings.")

pipeline = MitigationPipeline({})  # nothing to mitigate in exact mode
phys = pipeline.physical(job.dist)
print("mitigation pipeline is the identity here: max change",
      np.max(np.abs(phys.p - p)))
