"""Job execution: plays the role of the quantum backend for the cut blocks.

Simulates each block state once per (form, input label, noise model) and
measures it once per setting; repetitions differ only in their seeded
shot draws and readout flips.  Writes bundles in the on-disk layout
defined by chaincut.cut.  Also produces readout-calibration bundles
(every basis state prepared and read out) for the full-calibration
mitigation mode.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .circuit import REGISTER_SIZES, build_block_subcircuit
from .counts import CountsTable, Distribution, counts_to_dict, dump_json
from .cut import JobResult, JobSpec, calibration_dir
from .mitigation import readout_rates
from .qstate import index_to_bits
from .sim import NoiseModel, RunConfig, measure_distribution, rng_for, run_exact, sample_counts

# Stream path tags keeping job sampling and calibration draws disjoint.
_JOB_STREAM = 0
_CALIB_STREAM = 1


# The memos hold the 12 block states and 48 job distributions of one plan
# (cut.plan_chain_jobs) for two noise models at once: an LRU smaller than the
# keys one repetition cycles through would never hit.
@functools.lru_cache(maxsize=2 * 12)
def _block_state(form: str, label: str, noise: NoiseModel) -> np.ndarray:
    """Read-only density operator of one block, measured later in each of its settings."""
    rho = run_exact(build_block_subcircuit(form, label), noise)
    rho.flags.writeable = False
    return rho


@functools.lru_cache(maxsize=2 * 48)
def block_distribution(spec: JobSpec, noise: NoiseModel) -> Distribution:
    """Exact outcome distribution of one job, computed once and shared (read-only)."""
    dist = measure_distribution(_block_state(spec.form, spec.input, noise), spec.meas)
    dist.p.flags.writeable = False
    return dist


def execute_jobs(
    plan: tuple[JobSpec, ...],
    run: RunConfig,
    noise: NoiseModel,
    rep: int = 0,
) -> list[JobResult]:
    """Run every job in the plan; one result per spec, in plan order.

    Exact mode stores the exact outcome distribution; sampled mode draws
    ``run.shots`` shots from a generator derived from (seed, rep, job
    index), then applies readout flips if the noise model has them.
    Results are independent of execution order by construction.
    """
    results = []
    for idx, spec in enumerate(plan):
        try:
            results.append(_execute_one(spec, idx, run, noise, rep))
        except Exception as exc:
            raise RuntimeError(f"job {spec.job_id} failed: {exc}") from exc
    return results


def _execute_one(
    spec: JobSpec, idx: int, run: RunConfig, noise: NoiseModel, rep: int
) -> JobResult:
    dist = block_distribution(spec, noise)
    if run.mode == "exact":
        return JobResult(spec, dist=dist)
    readout = readout_rates(noise.readout, spec.n_qubits)
    counts = sample_counts(
        dist, run.shots, rng_for(run.seed, rep, _JOB_STREAM, idx), readout, meas=spec.meas
    )
    return JobResult(spec, counts=counts)


def calibration_counts(
    n: int,
    readout: tuple[tuple[float, float], ...],
    shots: int,
    rng: np.random.Generator,
) -> list[CountsTable]:
    """Readout calibration data: sampled counts for each prepared basis state, in index order."""
    return [sample_counts(Distribution(n, p), shots, rng, readout) for p in np.eye(2**n)]


def write_calibration(bundle_dir: Path, rep: int, run: RunConfig, noise: NoiseModel) -> None:
    """Write per-register calibration bundles under reps/rXX/calibration/qN/<bits>.json."""
    for n in REGISTER_SIZES:
        readout = readout_rates(noise.readout, n)
        rng = rng_for(run.seed, rep, _CALIB_STREAM, n)
        target = calibration_dir(bundle_dir, rep, n)
        target.mkdir(parents=True, exist_ok=True)
        for j, table in enumerate(calibration_counts(n, readout, run.shots, rng)):
            (target / f"{index_to_bits(j, n)}.json").write_text(dump_json(counts_to_dict(table)))
