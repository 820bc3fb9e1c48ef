#!/usr/bin/env python3
"""Reusing one set of block data for chains of 9 to 33 qubits.

The same 24 jobs serve every chain length n = 6 + 3k: middle blocks are
repeated in postprocessing only.  Quantum cost stays fixed; the exact
witness averages of every length come from one transfer walk per parity,
one step per row, even though the witness term count grows as
2^(n/2)-ish, and under noise the fidelity bound decays with n.
"""

from chaincut.mitigation import MitigationPipeline
from chaincut.reconstruct import build_block_tensors, scaling_sweep, witness_term_count
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

noise = NoiseModel()
results = execute_jobs(RunConfig("exact"), noise)
bt4, bt3 = build_block_tensors(results, MitigationPipeline({}))

print("  n  cuts  4^cuts        terms   bound     time")
rows = scaling_sweep(bt4, bt3, 9)
for r in rows:
    cuts = r.n // 3 - 1
    terms = witness_term_count(r.n, "odd") + witness_term_count(r.n, "even")
    print(
        f" {r.n:2d}   {cuts:2d}  {4 ** cuts:>12,} {terms:>8,}  "
        f"{r.bound:+.4f}  {r.postprocess_time_s * 1e3:8.2f} ms"
    )

print("\nnote the columns: the naive 4^cuts combination count and the witness")
print("term count both explode, but the averages contract the stabilizer")
print("projector through one transfer matrix per block, and one walk per")
print("parity passes every chain length: each row costs one transfer step.")
print("The bound decays because every extra block multiplies each term by")
print("more sub-unity expectations.")

csv = ["n,odd_avg,even_avg,bound,time_ms"]
for r in rows:
    csv.append(f"{r.n},{r.odd_avg!r},{r.even_avg!r},{r.bound!r},{r.postprocess_time_s*1e3:.3f}")
with open("scaling_demo.csv", "w") as fh:
    fh.write("\n".join(csv) + "\n")
print("\nwrote scaling_demo.csv")
