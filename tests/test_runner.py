"""Shared block simulations: one dense simulation per block state per run."""

import json

import numpy as np
import pytest

from chaincut import runner
from chaincut.circuit import build_block_subcircuit
from chaincut.cli import main
from chaincut.config import ExperimentConfig
from chaincut.counts import dump_json
from chaincut.sim import NoiseModel, measure_distribution, run_exact


@pytest.fixture(autouse=True)
def empty_memos():
    """Start and leave each test with an empty memo, so test order cannot matter."""
    runner.grid_distributions.cache_clear()
    yield
    runner.grid_distributions.cache_clear()


@pytest.mark.parametrize(
    "noise", [NoiseModel(0.0, 0.0, None), NoiseModel()], ids=["noiseless", "default-noise"]
)
def test_shared_distribution_equals_fresh_simulation(plan, noise):
    shared = runner.grid_distributions(noise)
    assert tuple(shared) == plan and len(plan) == 16
    again = runner.grid_distributions(noise)
    for spec, dist in shared.items():
        fresh = measure_distribution(
            run_exact(build_block_subcircuit(spec.form, spec.input), noise), spec.meas
        )
        assert dist.n == fresh.n
        assert np.array_equal(dist.p, fresh.p)
        assert not dist.p.flags.writeable
        assert again[spec] is dist
    with pytest.raises(ValueError, match="read-only"):
        dist.p[0] = 0.5
    with pytest.raises(TypeError):
        shared[plan[0]] = dist


def test_run_jobs_simulates_each_block_once(tmp_path, monkeypatch):
    calls = {"run_exact": 0, "measure_distribution": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(runner, "run_exact", counted("run_exact", run_exact))
    monkeypatch.setattr(
        runner, "measure_distribution", counted("measure_distribution", measure_distribution)
    )
    cfg = ExperimentConfig(
        mode="sampled", shots=1000, repetitions=3, out_dir=str(tmp_path / "run")
    )
    (tmp_path / "config.json").write_text(dump_json(cfg.to_dict()))
    assert main(["run-jobs", "--config", str(tmp_path / "config.json")]) == 0
    assert len(json.loads((tmp_path / "run" / "reps" / "r02" / "jobs.json").read_text())) == 16
    # 8 block states (2 forms x 4 input labels), 16 settings; 48 of each
    # if every job of every repetition simulated its block again.
    assert 0 < calls["run_exact"] <= 8
    assert 0 < calls["measure_distribution"] <= 16
