"""Density simulation, noise channels and sampling."""

import numpy as np
import pytest

from chaincut.circuit import Circuit, GateOp, build_linear_cluster
from chaincut.counts import Distribution
from chaincut.mitigation import confusion_matrix, readout_rates
from chaincut.qstate import assert_density_operator
from chaincut.sim import (
    DEFAULT_READOUT,
    NoiseModel,
    apply_readout_to_distribution,
    measure_distribution,
    rng_for,
    run_exact,
    sample_counts,
)

import oracles

NOISELESS = NoiseModel(0.0, 0.0, None)


def chain_stabilizers(n):
    return [oracles.stabilizer(n, i) for i in range(1, n + 1)]


class TestRunExact:
    def test_cluster_state_stabilizers(self):
        rho = run_exact(build_linear_cluster(3), NOISELESS)
        assert_density_operator(rho)
        for s in chain_stabilizers(3):
            assert oracles.expectation(rho, s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_noiseless_stabilizers_up_to_five(self, n):
        rho = run_exact(build_linear_cluster(n), NOISELESS)
        for s in chain_stabilizers(n):
            assert oracles.expectation(rho, s) == pytest.approx(1.0, abs=1e-12)

    def test_full_depolarization_gives_maximally_mixed(self):
        c = Circuit(1, (GateOp("H", (0,)),))
        rho = run_exact(c, NoiseModel(p1=1.0, p2=0.0, readout=None))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)

    def test_noisy_cluster_matches_kraus_composition_oracle(self):
        c = build_linear_cluster(4)
        p1, p2 = 0.0007, 0.015
        rho = run_exact(c, NoiseModel(p1=p1, p2=p2, readout=None))
        ref = oracles.noisy_density(c, p1, p2)
        np.testing.assert_allclose(rho, ref, atol=1e-12)
        psi = oracles.statevector(c)
        assert oracles.fidelity_to_pure(rho, psi) == pytest.approx(
            oracles.fidelity_to_pure(ref, psi), abs=1e-12
        )

    def test_register_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            run_exact(build_linear_cluster(9), NOISELESS)

    def test_noisy_block_with_prep_matches_oracle(self):
        from chaincut.circuit import build_block_subcircuit

        c = build_block_subcircuit("4q", "Ym")
        rho = run_exact(c, NoiseModel(p1=0.002, p2=0.03, readout=None))
        np.testing.assert_allclose(rho, oracles.noisy_density(c, 0.002, 0.03), atol=1e-12)


class TestSchedule:
    """NoiseModel.schedule is the one statement of where depolarizing noise goes."""

    @pytest.mark.parametrize(
        "op, insertions",
        [
            (GateOp("prep", (0,), "Ym"), ()),
            (GateOp("H", (1,)), (((1,), 0.01),)),
            (GateOp("CZ", (2, 0)), (((2, 0), 0.2),)),
        ],
        ids=["prep", "one-qubit", "CZ"],
    )
    def test_rate_follows_the_op_on_its_support(self, op, insertions):
        c = Circuit(3, (op,))
        assert NoiseModel(0.01, 0.2, None).schedule(c) == [(op, insertions)]

    def test_zero_rate_inserts_nothing(self):
        c = build_linear_cluster(4)  # four H, then three CZ
        noiseless = NoiseModel(0.0, 0.0, DEFAULT_READOUT).schedule(c)
        assert [insertions for _, insertions in noiseless] == [()] * 7
        no_p1 = NoiseModel(0.0, 0.1, None).schedule(c)
        assert [insertions for g, insertions in no_p1 if g.kind == "H"] == [()] * 4
        no_p2 = NoiseModel(0.1, 0.0, None).schedule(c)
        assert [insertions for g, insertions in no_p2 if g.kind == "CZ"] == [()] * 3


class TestMeasureDistribution:
    def test_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(measure_distribution(rho, "Z").p, [1.0, 0.0])

    def test_lc2_xz_matches_oracle(self):
        c = build_linear_cluster(2)
        rho = run_exact(c, NOISELESS)
        got = measure_distribution(rho, "XZ").p
        ref = oracles.measured_distribution(oracles.statevector(c), "XZ")
        np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_lc4_xzxz_matches_oracle(self):
        c = build_linear_cluster(4)
        rho = run_exact(c, NOISELESS)
        got = measure_distribution(rho, "XZXZ").p
        ref = oracles.measured_distribution(oracles.statevector(c), "XZXZ")
        np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_normalized_and_nonnegative_under_noise(self):
        rho = run_exact(build_linear_cluster(4), NoiseModel(p1=0.01, p2=0.05, readout=None))
        for meas in ("XZXZ", "ZXZX", "YYYY"):
            p = measure_distribution(rho, meas).p
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            measure_distribution(np.eye(2) / 2, "ZZ")


class TestSampleCounts:
    def test_deterministic_outcome(self):
        d = Distribution(1, np.array([1.0, 0.0]))
        t = sample_counts(d, 1000, 5)
        np.testing.assert_array_equal(t.counts, [1000, 0])

    def test_binomial_within_five_sigma(self):
        d = Distribution(1, np.array([0.5, 0.5]))
        t = sample_counts(d, 1_000_000, 42)
        sigma = np.sqrt(1_000_000 * 0.25)
        assert abs(t.counts[0] - 500_000) < 5 * sigma

    def test_readout_flip_rate_within_five_sigma(self):
        d = Distribution(1, np.array([1.0, 0.0]))
        t = sample_counts(d, 1_000_000, 9, readout=((0.95, 0.9),))
        sigma = np.sqrt(1_000_000 * 0.05 * 0.95)
        assert abs(t.counts[1] - 50_000) < 5 * sigma

    def test_reproducible_for_fixed_seed(self):
        d = Distribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
        kwargs = dict(shots=10_000, readout=((0.95, 0.9), (0.97, 0.92)))
        a = sample_counts(d, seed_or_rng=77, **kwargs)
        b = sample_counts(d, seed_or_rng=77, **kwargs)
        assert a == b

    @pytest.mark.parametrize("seed", range(12))
    def test_readout_draw_matches_per_outcome_loop(self, seed):
        # One multinomial per observed true outcome, in index order, from the
        # same generator: the draws and the generator's final state must agree.
        n = 3 + seed % 2
        readout = DEFAULT_READOUT[-n:]
        p = rng_for(seed, 1).random(2**n)
        p[seed % 3 :: 3] = 0.0
        p /= p.sum()
        shots = (1, 10, 1_000_000)[seed % 3]
        rng = rng_for(seed, 2)
        got = sample_counts(Distribution(n, p), shots, rng, readout)
        ref = rng_for(seed, 2)
        raw = ref.multinomial(shots, p / p.sum())
        want = np.zeros(2**n, dtype=np.int64)
        for j in np.flatnonzero(raw):
            want += ref.multinomial(int(raw[j]), confusion_matrix(readout)[:, j])
        np.testing.assert_array_equal(got.counts, want)
        assert rng.integers(1 << 62) == ref.integers(1 << 62)

    def test_shots_validated(self):
        d = Distribution(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            sample_counts(d, 0, 1)

    def test_readout_matches_exact_distribution_action(self):
        rng = np.random.default_rng(13)
        p = rng.random(8)
        p /= p.sum()
        readout = ((0.95, 0.9), (0.93, 0.91), (0.96, 0.9))
        flipped = apply_readout_to_distribution(p, readout)
        t = sample_counts(Distribution(3, p), 2_000_000, 3, readout=readout)
        np.testing.assert_allclose(t.frequencies(), flipped, atol=2e-3)


class TestRng:
    def test_stream_separation(self):
        a = rng_for(1, 0, 0).integers(0, 1 << 30, 4)
        b = rng_for(1, 0, 1).integers(0, 1 << 30, 4)
        c = rng_for(1, 0, 0).integers(0, 1 << 30, 4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_noise_model_readout_slicing(self):
        nm = NoiseModel()
        assert readout_rates(nm.readout, 4) == nm.readout
        assert readout_rates(nm.readout, 3) == nm.readout[1:]
        assert len(readout_rates(nm.readout, 12)) == 12
        assert readout_rates(nm.readout, 12)[4] == nm.readout[0]
