"""Density simulation, noise channels and sampling."""

import numpy as np
import pytest

from chaincut.circuit import Circuit, GateOp, build_block_subcircuit, build_linear_cluster
from chaincut.mitigation import apply_readout_to_distribution, confusion_matrix, readout_rates
from chaincut.qstate import assert_density_operator
from chaincut.sim import (
    DEFAULT_READOUT,
    NoiseModel,
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
        noise = NoiseModel(p1=0.0007, p2=0.015, readout=None)
        rho = run_exact(c, noise)
        ref = oracles.noisy_density(c, noise)
        np.testing.assert_allclose(rho, ref, atol=1e-12)
        psi = oracles.statevector(c)
        assert oracles.fidelity_to_pure(rho, psi) == pytest.approx(
            oracles.fidelity_to_pure(ref, psi), abs=1e-12
        )

    def test_register_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            run_exact(build_linear_cluster(9), NOISELESS)

    def test_noisy_block_with_prep_matches_oracle(self):
        c = build_block_subcircuit("4q", "Ym")
        noise = NoiseModel(p1=0.002, p2=0.03, readout=None)
        rho = run_exact(c, noise)
        np.testing.assert_allclose(rho, oracles.noisy_density(c, noise), atol=1e-12)


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

    def test_whole_block_schedule(self):
        # the dense oracle walks this schedule, so a wrong placement shows here alone
        c = build_block_subcircuit("4q", "Ym")
        schedule = NoiseModel(0.01, 0.2, None).schedule(c)
        assert [g for g, _ in schedule] == list(c.ops)
        assert schedule == [
            (GateOp("prep", (0,), "Ym"), ()),
            (GateOp("H", (1,)), (((1,), 0.01),)),
            (GateOp("H", (2,)), (((2,), 0.01),)),
            (GateOp("H", (3,)), (((3,), 0.01),)),
            (GateOp("CZ", (0, 1)), (((0, 1), 0.2),)),
            (GateOp("CZ", (1, 2)), (((1, 2), 0.2),)),
            (GateOp("CZ", (2, 3)), (((2, 3), 0.2),)),
        ]

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
        for meas in ("XZXZ", "ZXZX", "XXXX"):
            p = measure_distribution(rho, meas).p
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            measure_distribution(np.eye(2) / 2, "ZZ")


class TestSampleCounts:
    def test_deterministic_outcome(self):
        t = sample_counts(np.array([1.0, 0.0]), 1000, np.random.default_rng(5))
        np.testing.assert_array_equal(t.counts, [1000, 0])

    def test_binomial_within_five_sigma(self):
        t = sample_counts(np.array([0.5, 0.5]), 1_000_000, np.random.default_rng(42))
        sigma = np.sqrt(1_000_000 * 0.25)
        assert abs(t.counts[0] - 500_000) < 5 * sigma

    def test_readout_flip_rate_within_five_sigma(self):
        p = confusion_matrix(((0.95, 0.9),)) @ np.array([1.0, 0.0])
        t = sample_counts(p, 1_000_000, np.random.default_rng(9))
        sigma = np.sqrt(1_000_000 * 0.05 * 0.95)
        assert abs(t.counts[1] - 50_000) < 5 * sigma

    def test_reproducible_for_fixed_seed(self):
        p = confusion_matrix(((0.95, 0.9), (0.97, 0.92))) @ np.array([0.4, 0.3, 0.2, 0.1])
        a = sample_counts(p, 10_000, np.random.default_rng(77))
        b = sample_counts(p, 10_000, np.random.default_rng(77))
        assert a == b

    @staticmethod
    def seeded_case(seed: int) -> tuple[np.ndarray, tuple]:
        """A 3- or 4-qubit distribution with every third outcome impossible, and its rates."""
        n = 3 + seed % 2
        p = rng_for(seed, 1).random(2**n)
        p[seed % 3 :: 3] = 0.0
        return p / p.sum(), DEFAULT_READOUT[-n:]

    @pytest.mark.parametrize("seed", range(12))
    def test_readout_draw_is_one_multinomial_of_flipped_distribution(self, seed):
        # The counts and the generator's final state are those of one
        # multinomial draw from C p on an identical generator.
        p, readout = self.seeded_case(seed)
        shots = (1, 10, 1_000_000)[seed % 3]
        flipped = confusion_matrix(readout) @ p
        rng = rng_for(seed, 2)
        got = sample_counts(flipped, shots, rng)
        ref = rng_for(seed, 2)
        np.testing.assert_array_equal(got.counts, ref.multinomial(shots, flipped / flipped.sum()))
        assert rng.integers(1 << 62) == ref.integers(1 << 62)

    @pytest.mark.parametrize("seed", range(12))
    def test_readout_draw_matches_per_outcome_loop(self, seed):
        # In law: over many 10-shot draws from C p, the counts' mean and
        # covariance match those of the per-shot two-stage sampler (each
        # shot's true outcome, then its bit flips), entry by entry within
        # 5 sigma.
        p, readout = self.seeded_case(seed)
        draws, shots = 2000, 10
        flipped = confusion_matrix(readout) @ p
        rng, ref = rng_for(seed, 2), rng_for(seed, 3)
        got = np.array([sample_counts(flipped, shots, rng).counts for _ in range(draws)])
        want = np.array(
            [oracles.sample_with_readout_flips(p, shots, readout, ref) for _ in range(draws)]
        )

        def moments(x):
            """Mean and covariance estimates of the rows of x, each with its standard error."""
            d = x - x.mean(axis=0)
            prods = d[:, :, None] * d[:, None, :]
            return [(m.mean(axis=0), m.std(axis=0) / np.sqrt(len(x))) for m in (x, prods)]

        for (a, sa), (b, sb) in zip(moments(got), moments(want)):
            assert np.all(np.abs(a - b) <= 5 * np.hypot(sa, sb))

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([1.0, 0.0]), 0, np.random.default_rng(1))

    def test_readout_length_validated(self):
        two = ((0.95, 0.9), (0.97, 0.92))
        with pytest.raises(ValueError, match="register size"):
            apply_readout_to_distribution(np.array([1.0, 0.0]), two)

    def test_readout_matches_exact_distribution_action(self):
        rng = np.random.default_rng(13)
        p = rng.random(8)
        p /= p.sum()
        readout = ((0.95, 0.9), (0.93, 0.91), (0.96, 0.9))
        flipped = apply_readout_to_distribution(p, readout)
        t = sample_counts(confusion_matrix(readout) @ p, 2_000_000, np.random.default_rng(3))
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
