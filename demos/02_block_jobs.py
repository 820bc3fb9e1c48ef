#!/usr/bin/env python3
"""The 16-job grid and what one block's statistics look like.

Two circuit templates cover every chain: a 4-qubit block (prepared
input, H column, CZ staircase, last qubit read in X or Z for the cut)
and a 3-qubit closing block.  The inputs are the preps of the four cut
terms read in X or Z (Z0, Z1, Xp, Xm): the two Y terms cancel on these
blocks, which the planner proves.  The planner also drops what no report
reads: every cut parity of an XZX block read in X is 0, so the cut after
an XZX block is read in Z only, and the blocks after it never take Xm
(nor a closing block Xp).  That leaves 4 XZX-Z jobs, 3 inputs x 2 cut
bases of ZXZ, and 4 + 2 three-qubit jobs.
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

results = execute_jobs(RunConfig("exact"), NoiseModel(0.0, 0.0, None))
dist = next(d for spec, d in results.items() if spec.job_id == "4q-Xp-XZX-Z")
print("\nexact XZXZ outcome distribution of that block (16 bitstrings):")
p = dist.p
for i, prob in enumerate(p):
    bits = format(i, "04b")
    bar = "#" * int(round(prob * 160))
    if prob > 1e-12:
        print(f"  {bits}  {prob:.4f}  {bar}")
print("\nfour outcomes at 1/4 each: the two parity constraints of the cluster")
print("state in this basis kill the other twelve bitstrings.")

pipeline = MitigationPipeline({})  # nothing to mitigate in exact mode
phys = pipeline.physical(dist)
print("mitigation pipeline is the identity here: max change",
      np.max(np.abs(phys.p - p)))
