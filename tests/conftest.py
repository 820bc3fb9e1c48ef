"""Shared fixtures: executed job grids and block tensors, built once."""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import chaincut
from chaincut.cut import plan_chain_jobs
from chaincut.mitigation import MitigationPipeline, build_transition_matrix, readout_rates
from chaincut.reconstruct import build_block_tensors
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

NOISELESS = NoiseModel(0.0, 0.0, None)


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports this same checkout.

    pyproject's pythonpath reaches only the pytest process, not subprocesses.
    """
    src = str(Path(chaincut.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}


@pytest.fixture(scope="session")
def plan():
    return plan_chain_jobs()


@pytest.fixture(scope="session")
def exact_results(plan):
    return execute_jobs(plan, RunConfig("exact"), NOISELESS)


@pytest.fixture(scope="session")
def exact_tensors(exact_results):
    return build_block_tensors(exact_results, MitigationPipeline({}))


@pytest.fixture(scope="session")
def default_noise():
    return NoiseModel()


@pytest.fixture(scope="session")
def noisy_exact_results(plan, default_noise):
    return execute_jobs(plan, RunConfig("exact"), default_noise)


@pytest.fixture(scope="session")
def noisy_exact_tensors(noisy_exact_results):
    return build_block_tensors(noisy_exact_results, MitigationPipeline({}))


@pytest.fixture(scope="session")
def sampled_results(plan, default_noise):
    run = RunConfig("sampled", shots=1_000_000, seed=20240917)
    return execute_jobs(plan, run, default_noise)


@pytest.fixture(scope="session")
def sampled_noiseless_tensors(plan):
    run = RunConfig("sampled", shots=1_000_000, seed=31)
    results = execute_jobs(plan, run, NOISELESS)
    return build_block_tensors(results, MitigationPipeline({}))


@pytest.fixture(scope="session")
def sampled_pipeline(default_noise):
    t4 = build_transition_matrix(4, "tensor", readout=readout_rates(default_noise.readout, 4))
    t3 = build_transition_matrix(3, "tensor", readout=readout_rates(default_noise.readout, 3))
    return MitigationPipeline({4: t4, 3: t3})


@pytest.fixture(scope="session")
def sampled_tensors(sampled_results, sampled_pipeline):
    return build_block_tensors(sampled_results, sampled_pipeline)
