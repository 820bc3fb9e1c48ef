"""Job execution: plays the role of the quantum backend for the cut blocks.

Runs the jobs of cut.plan_chain_jobs(), simulating each block state once
per (form, input label, noise model) and measuring it once per setting;
repetitions differ only in their seeded draws, one multinomial per job
(sim.sample_counts) from its read-out law C p, C the register's confusion
matrix.  Results go to a bundle in chaincut.cut's layout (one jobs.json
per repetition).  Also writes the readout calibration (basis state j read
out by column j of C, one calibration.json per repetition) of calibrated
configs (``ExperimentConfig.calibrated``: sampled, with readout rates,
under a mitigation mode that estimates its matrices from calibration counts).
"""

from __future__ import annotations

import functools
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .circuit import REGISTER_SIZES, build_block_subcircuit
from .counts import CountsTable, Distribution, Payload, dump_json, payload_to_dict
from .cut import JobSpec, calibration_file, plan_chain_jobs
from .mitigation import confusion_matrix, readout_rates
from .qstate import index_to_bits
from .sim import NoiseModel, RunConfig, measure_distribution, rng_for, run_exact, sample_counts

# Stream path tags keeping job sampling and calibration draws disjoint.
_JOB_STREAM = 0
_CALIB_STREAM = 1


@functools.lru_cache(maxsize=2)  # two noise models at once
def grid_distributions(noise: NoiseModel) -> Mapping[JobSpec, Distribution]:
    """Each job's exact outcome distribution, in plan_chain_jobs order, shared read-only.

    Each block state is simulated once per (form, input label) and measured
    once per setting of its jobs.
    """
    states, dists = {}, {}
    for spec in plan_chain_jobs():
        key = (spec.form, spec.input)
        if key not in states:
            states[key] = run_exact(build_block_subcircuit(*key), noise)
        dists[spec] = measure_distribution(states[key], spec.meas)
        dists[spec].p.flags.writeable = False
    return types.MappingProxyType(dists)


def execute_jobs(run: RunConfig, noise: NoiseModel, rep: int = 0) -> dict[JobSpec, Payload]:
    """Run every job of the grid; each spec's payload, in plan_chain_jobs order.

    Exact mode stores the exact outcome distribution; sampled mode draws
    ``run.shots`` shots from a generator derived from (seed, rep, job
    index).  Each shot's bits flip independently, so a shot reads out as
    outcome i with probability (C p)_i, C the register's confusion matrix
    (column j: the readout law of true outcome j).  The shots are
    independent, so their counts are one Multinomial(shots, C p) draw: the
    same law as drawing the true outcomes first and then flipping each
    shot's bits.  Results are independent of execution order by construction.
    """
    payloads = {}
    for idx, (spec, dist) in enumerate(grid_distributions(noise).items()):
        if run.mode == "exact":
            payloads[spec] = dist
        else:
            readout = readout_rates(noise.readout, spec.n_qubits)
            p = dist.p if readout is None else confusion_matrix(readout) @ dist.p
            payloads[spec] = sample_counts(p, run.shots, rng_for(run.seed, rep, _JOB_STREAM, idx))
    return payloads


def calibration_counts(
    readout: tuple[tuple[float, float], ...], shots: int, rng: np.random.Generator
) -> list[CountsTable]:
    """Readout calibration data: sampled counts for each prepared basis state, in index order.

    The register has one qubit per readout pair, and basis state j reads
    out by column j of the confusion matrix.
    """
    return [sample_counts(column, shots, rng) for column in confusion_matrix(readout).T]


def write_calibration(bundle_dir: Path, rep: int, run: RunConfig, noise: NoiseModel) -> None:
    """Write one repetition's calibration.json.

    Entry ``["qN"]["<bits>"]`` holds the n-qubit register's counts read out
    from prepared basis state <bits>.
    """
    registers = {}
    for n in REGISTER_SIZES:
        readout = readout_rates(noise.readout, n)
        rng = rng_for(run.seed, rep, _CALIB_STREAM, n)
        tables = calibration_counts(readout, run.shots, rng)
        registers[f"q{n}"] = {
            index_to_bits(j, n): payload_to_dict("Z" * n, table) for j, table in enumerate(tables)
        }
    path = calibration_file(bundle_dir, rep)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(registers))
