"""Whole-chain reference evaluator: statevector and Heisenberg paths."""

import json
import tracemalloc

import numpy as np
import pytest

from chaincut import direct, reconstruct
from chaincut.circuit import build_block_subcircuit, build_linear_cluster
from chaincut.cli import main
from chaincut.config import ExperimentConfig
from chaincut.cut import plan_chain_jobs
from chaincut.counts import LONG_LIST, dump_json
from chaincut.direct import (
    chain_distribution,
    direct_chain_report,
    heisenberg_distribution,
    run_statevector,
    statevector_distribution,
)
from chaincut.sim import DEFAULT_READOUT, NoiseModel, RunConfig

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
    """Propagation agrees with the dense oracle, tests/oracles.py, wherever both run."""

    @pytest.mark.parametrize("meas", ["XZXZ", "ZXZX"])
    def test_noisy_cluster_distribution_matches_density_sim(self, meas):
        noise = NoiseModel(p1=0.004, p2=0.06, readout=None)
        c = build_linear_cluster(4)
        got = heisenberg_distribution(c, meas, noise)
        want = oracles.density_distribution(oracles.noisy_density(c, noise), meas)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_block_circuit_with_prep(self):
        noise = NoiseModel(p1=0.01, p2=0.08, readout=None)
        c = build_block_subcircuit("4q", "Yp")
        got = heisenberg_distribution(c, "XZXZ", noise)
        want = oracles.density_distribution(oracles.noisy_density(c, noise), "XZXZ")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_five_qubit_cross_check(self):
        noise = NoiseModel(p1=0.002, p2=0.05, readout=None)
        c = build_linear_cluster(5)
        got = heisenberg_distribution(c, "XZXZX", noise)
        want = oracles.density_distribution(oracles.noisy_density(c, noise), "XZXZX")
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("noise", [
        NoiseModel(readout=None),
        NoiseModel(p2=0.2, readout=None),
        NOISELESS,
    ], ids=["default", "p2-0.2", "noiseless"])
    def test_every_block_job_matches_density_sim(self, noise):
        # the only circuits with prep gates
        for spec in plan_chain_jobs():
            c = build_block_subcircuit(spec.form, spec.input)
            got = heisenberg_distribution(c, spec.meas, noise)
            want = oracles.density_distribution(oracles.noisy_density(c, noise), spec.meas)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=spec.job_id)

    def test_noiseless_agrees_with_statevector(self):
        c = build_linear_cluster(6)
        got = heisenberg_distribution(c, "XZXZXZ", NOISELESS)
        want = oracles.measured_distribution(oracles.statevector(c), "XZXZXZ")
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("setting", ["XZ", "ZX"])
    def test_noiseless_twelve_qubit_chain_matches_closed_form(self, setting):
        got = chain_distribution(12, setting * 6, NOISELESS)
        want = oracles.measured_distribution(oracles.cluster_state(12), setting * 6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

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
        report = direct_chain_report(12, NOISELESS, RunConfig("exact"))
        [bound], [odd] = report["bound"], report["odd"]
        assert bound == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(odd, 1.0, atol=1e-12)

    def test_two_qubit_stabilizers(self):
        report = direct_chain_report(2, NOISELESS, RunConfig("exact"))
        [odd], [even] = report["odd"], report["even"]
        # <X1 Z2> and <Z1 X2> both appear among the per-term values
        assert odd[-1] == pytest.approx(1.0, abs=1e-12)
        assert even[-1] == pytest.approx(1.0, abs=1e-12)

    def test_exact_readout_mitigation_is_transparent(self):
        noise = NoiseModel(p1=0.0, p2=0.0)  # readout only
        report = direct_chain_report(6, noise, RunConfig("exact"))
        [bound] = report["bound"]
        assert bound == pytest.approx(1.0, abs=1e-9)
        flipped = report["distributions"]["XZ"]["observed"]
        ideal = report["distributions"]["XZ"]["ideal"]
        assert 0.5 * np.sum(np.abs(flipped - ideal)) > 0.05

    def test_repetitions_are_the_leading_axis(self):
        run = RunConfig("sampled", shots=1000, seed=5)
        report = direct_chain_report(6, NoiseModel(), run, 3)
        for key in ("odd_avg", "even_avg", "bound"):
            assert report[key].shape == (3,)
        for setting, parity in (("XZ", "odd"), ("ZX", "even")):
            assert report[parity].shape == (3, reconstruct.witness_term_count(6, parity))
            kinds = report["distributions"][setting]
            # every distribution is held once, not once per repetition: the
            # ideal one, and the means of the drawn and the mitigated ones
            assert all(kinds[kind].shape == (64,) for kind in ("observed", "mitigated"))
            meas = reconstruct.witness_setting(6, parity)
            assert np.array_equal(kinds["ideal"], chain_distribution(6, meas, NoiseModel()))
            # a repetition's witness values come from its own mitigated
            # distribution, so their mean is read off the mean distribution
            of_mean = reconstruct.witness_values_from_distribution(kinds["mitigated"], 6, parity)
            np.testing.assert_allclose(report[parity].mean(axis=0), of_mean, rtol=0, atol=1e-12)

    def test_repetition_does_not_depend_on_how_many_run(self):
        # repetition r draws from its own stream, so asking for more
        # repetitions leaves the first ones as they were
        noise = NoiseModel()
        run = RunConfig("sampled", shots=100_000, seed=5)
        three = direct_chain_report(6, noise, run, 3)
        assert len(three["bound"]) == 3
        for count in (1, 2):
            fewer = direct_chain_report(6, noise, run, count)
            assert len(fewer["bound"]) == count
            for key in ("bound", "odd", "even", "odd_avg", "even_avg"):
                assert len(fewer[key]) == count and np.array_equal(fewer[key], three[key][:count])
            for key in ("XZ", "ZX"):
                a, b = fewer["distributions"][key], three["distributions"][key]
                assert np.array_equal(a["ideal"], b["ideal"])
        assert three["bound"][1] != three["bound"][0]

    def test_noisy_bound_below_true_fidelity(self):
        noise = NoiseModel(p1=0.003, p2=0.05, readout=None)
        [bound] = direct_chain_report(5, noise, RunConfig("exact"))["bound"]
        rho = oracles.noisy_density(build_linear_cluster(5), noise)
        fid = oracles.lc_state_fidelity(rho, 5)
        assert bound <= fid + 1e-9

    def test_memory_does_not_grow_with_repetitions(self):
        # each repetition's 2^n distributions are folded into running means
        # and dropped; only its 2^m witness values per parity stay
        run = RunConfig("sampled", 10_000, 3)

        def peak(repetitions):
            tracemalloc.start()
            try:
                direct_chain_report(12, NoiseModel(), run, repetitions)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: module-level caches fill outside the measurement
        assert peak(8) - peak(1) < 128 * 1024

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            direct_chain_report(27, NOISELESS, RunConfig("exact"))


@pytest.mark.parametrize("rates", [None, []], ids=["null-rates", "empty-rates"])
def test_sampled_direct_without_readout_rates_draws_shots(tmp_path, rates):
    """Sampled mode samples whether or not the config has readout rates."""
    out = tmp_path / "ref"
    (tmp_path / "config.json").write_text(json.dumps({
        "mode": "sampled", "shots": 1000, "repetitions": 3, "seed": 3,
        "f00": rates, "f11": rates, "out_dir": str(out),
    }))
    assert main(["direct", "--config", str(tmp_path / "config.json"), "--n", "6"]) == 0
    witness = json.loads((out / "direct" / "witness_terms.json").read_text())
    [exact] = direct_chain_report(6, NoiseModel(readout=None), RunConfig("exact"))["bound"]
    assert witness["bound_stddev"] > 0.0 and witness["bound"] != exact


def test_sampled_direct_shares_deterministic_work(tmp_path, monkeypatch):
    """Each setting is simulated once per run, not once per repetition."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        direct, "chain_distribution", counted("chain_distribution", chain_distribution)
    )
    for repetitions in (1, 3):
        calls.update(chain_distribution=0)
        cfg = ExperimentConfig(
            mode="sampled", shots=1000, repetitions=repetitions, out_dir=str(tmp_path / "ref")
        )
        (tmp_path / "config.json").write_text(dump_json(cfg.to_dict()))
        assert main(["direct", "--config", str(tmp_path / "config.json"), "--n", "9"]) == 0
        # two settings (XZ, ZX), whatever the number of repetitions
        assert calls == {"chain_distribution": 2}


def test_distributions_file_is_what_json_dumps_writes(tmp_path):
    """The largest artifact, direct's distributions.json, is written as the stdlib would."""
    cfg = ExperimentConfig(mode="sampled", shots=1000, repetitions=2, out_dir=str(tmp_path / "ref"))
    (tmp_path / "config.json").write_text(dump_json(cfg.to_dict()))
    assert main(["direct", "--config", str(tmp_path / "config.json"), "--n", "9"]) == 0
    text = (tmp_path / "ref" / "direct" / "distributions.json").read_text()
    dists = json.loads(text)
    # 2^9 floats per list, long enough for the C encoder; the ideal lists
    # repeat enough values to be formatted one distinct value at a time
    assert len(dists["XZ"]["observed"]) == 2**9 >= LONG_LIST
    assert text == json.dumps(dists, sort_keys=True, indent=1) + "\n"
