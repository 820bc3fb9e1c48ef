"""Whole-chain reference evaluator: statevector and Heisenberg paths."""

import numpy as np
import pytest

from chaincut import direct, reconstruct
from chaincut.circuit import build_block_subcircuit, build_linear_cluster
from chaincut.cli import main
from chaincut.config import ExperimentConfig
from chaincut.counts import dump_json
from chaincut.direct import (
    chain_distribution,
    direct_chain_report,
    heisenberg_distribution,
    run_statevector,
    statevector_distribution,
)
from chaincut.reconstruct import witness_term_count
from chaincut.sim import (
    DEFAULT_READOUT,
    NoiseModel,
    RunConfig,
    measure_distribution,
    run_exact,
)

import oracles

NOISELESS = NoiseModel(0.0, 0.0, None)


class TestStatevector:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_full_matrix_oracle(self, n):
        c = build_linear_cluster(n)
        psi = run_statevector(c)
        np.testing.assert_allclose(psi, oracles.statevector(c), atol=1e-13)

    def test_block_with_prep(self):
        c = build_block_subcircuit("4q", "Ym")
        np.testing.assert_allclose(run_statevector(c), oracles.statevector(c), atol=1e-13)

    def test_distribution_matches_oracle(self):
        c = build_linear_cluster(4)
        got = statevector_distribution(c, "XZXZ")
        want = oracles.measured_distribution(oracles.statevector(c), "XZXZ")
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_twelve_qubit_cluster_norm(self):
        psi = run_statevector(build_linear_cluster(12))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


class TestHeisenberg:
    """Propagation agrees with dense density simulation wherever both run."""

    @pytest.mark.parametrize("meas", ["XZXZ", "ZXZX", "YXZY"])
    def test_noisy_cluster_distribution_matches_density_sim(self, meas):
        noise = NoiseModel(p1=0.004, p2=0.06, readout=None)
        c = build_linear_cluster(4)
        got = heisenberg_distribution(c, meas, noise)
        rho = run_exact(c, noise)
        want = measure_distribution(rho, meas).p
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_block_circuit_with_prep(self):
        noise = NoiseModel(p1=0.01, p2=0.08, readout=None)
        c = build_block_subcircuit("4q", "Yp")
        got = heisenberg_distribution(c, "XZXZ", noise)
        want = measure_distribution(run_exact(c, noise), "XZXZ").p
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_five_qubit_cross_check(self):
        noise = NoiseModel(p1=0.002, p2=0.05, readout=None)
        c = build_linear_cluster(5)
        got = heisenberg_distribution(c, "XZXZX", noise)
        want = measure_distribution(run_exact(c, noise), "XZXZX").p
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_noiseless_agrees_with_statevector(self):
        c = build_linear_cluster(6)
        got = heisenberg_distribution(c, "XZXZXZ", NOISELESS)
        want = statevector_distribution(c, "XZXZXZ")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_chain_distribution_dispatch(self):
        p = chain_distribution(12, "XZ" * 6, NOISELESS)
        assert abs(p.sum() - 1.0) < 1e-12
        # no depolarizing insertion: the statevector path, whatever the readout rates
        want = statevector_distribution(build_linear_cluster(12), "XZ" * 6)
        assert np.array_equal(p, want)
        readout_only = NoiseModel(0.0, 0.0, DEFAULT_READOUT)
        assert np.array_equal(chain_distribution(12, "XZ" * 6, readout_only), want)
        noisy = chain_distribution(12, "XZ" * 6, NoiseModel(readout=None))
        assert abs(noisy.sum() - 1.0) < 1e-10
        assert not np.allclose(noisy, p)


class TestDirectReport:
    def test_noiseless_bound_is_one(self):
        [rep] = direct_chain_report(12, NOISELESS, RunConfig("exact"))
        assert rep["bound"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rep["odd"], 1.0, atol=1e-12)

    def test_two_qubit_stabilizers(self):
        [rep] = direct_chain_report(2, NOISELESS, RunConfig("exact"))
        # <X1 Z2> and <Z1 X2> both appear among the per-term values
        assert rep["odd"][-1] == pytest.approx(1.0, abs=1e-12)
        assert rep["even"][-1] == pytest.approx(1.0, abs=1e-12)

    def test_exact_readout_mitigation_is_transparent(self):
        noise = NoiseModel(p1=0.0, p2=0.0)  # readout only
        [rep] = direct_chain_report(6, noise, RunConfig("exact"))
        assert rep["bound"] == pytest.approx(1.0, abs=1e-9)
        flipped = rep["distributions"]["observed"]["XZ"]
        ideal = rep["distributions"]["ideal"]["XZ"]
        assert 0.5 * np.sum(np.abs(flipped - ideal)) > 0.05

    def test_repetition_does_not_depend_on_how_many_run(self):
        # repetition r draws from its own stream, so asking for more
        # repetitions leaves the first ones as they were
        noise = NoiseModel()
        run = RunConfig("sampled", shots=100_000, seed=5)
        three = direct_chain_report(6, noise, run, 3)
        assert len(three) == 3
        for count in (1, 2):
            fewer = direct_chain_report(6, noise, run, count)
            assert len(fewer) == count
            for a, b in zip(fewer, three):
                assert a["bound"] == b["bound"]
                assert np.array_equal(a["odd"], b["odd"]) and np.array_equal(a["even"], b["even"])
                for kind in ("ideal", "observed", "mitigated"):
                    for key in ("XZ", "ZX"):
                        assert np.array_equal(
                            a["distributions"][kind][key], b["distributions"][kind][key]
                        )
        assert three[1]["bound"] != three[0]["bound"]

    def test_noisy_bound_below_true_fidelity(self):
        noise = NoiseModel(p1=0.003, p2=0.05, readout=None)
        [rep] = direct_chain_report(5, noise, RunConfig("exact"))
        rho = run_exact(build_linear_cluster(5), noise)
        fid = oracles.lc_state_fidelity(rho, 5)
        assert rep["bound"] <= fid + 1e-9

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            direct_chain_report(27, NOISELESS, RunConfig("exact"))


def test_sampled_direct_shares_deterministic_work(tmp_path, monkeypatch):
    """Each setting is simulated once per run, each witness term's sign row built once."""
    calls = {"chain_distribution": 0, "mask_signs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        direct, "chain_distribution", counted("chain_distribution", direct.chain_distribution)
    )
    monkeypatch.setattr(reconstruct, "mask_signs", counted("mask_signs", reconstruct.mask_signs))
    cfg = ExperimentConfig(
        mode="sampled", shots=1000, repetitions=3, out_dir=str(tmp_path / "ref")
    )
    (tmp_path / "config.json").write_text(dump_json(cfg.to_dict()))
    assert main(["direct", "--config", str(tmp_path / "config.json"), "--n", "9"]) == 0
    # two settings (XZ, ZX) and 32 + 16 witness terms; 6 and 144 if every
    # repetition simulated the chain and built the sign rows again
    assert calls["chain_distribution"] == 2
    assert calls["mask_signs"] == witness_term_count(9, "odd") + witness_term_count(9, "even")
