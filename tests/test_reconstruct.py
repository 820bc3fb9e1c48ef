"""Witness terms, block tensors, transfer stitching, and the scaling sweep."""

import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from chaincut.circuit import build_block_subcircuit, build_linear_cluster
from chaincut.cut import GRID_TERMS
from chaincut.mitigation import MitigationPipeline
from chaincut.reconstruct import (
    SETTINGS,
    SIGNS3,
    BlockTensor,
    _choice_weights,
    bound_from_distributions,
    build_block_tensors,
    chain_cut_count,
    fidelity_lower_bound,
    scaling_sweep,
    stitched_distribution,
    stitched_lower_bound,
    witness_averages,
    witness_setting,
    witness_term_count,
    witness_terms,
    witness_values,
    witness_values_from_distribution,
)
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

import oracles

NOISELESS = NoiseModel(0.0, 0.0, None)


class TestStabilizers:
    """The reference stabilizers in tests/oracles.py that witness terms are checked against."""

    def test_boundary_and_bulk_forms(self):
        assert oracles.stabilizer(4, 1) == (1, "XZII")
        assert oracles.stabilizer(4, 3) == (1, "IZXZ")
        assert oracles.stabilizer(4, 4) == (1, "IIZX")

    def test_stabilize_cluster_state(self):
        psi = oracles.statevector(build_linear_cluster(5))
        np.testing.assert_allclose(psi, oracles.cluster_state(5), atol=1e-13)
        for i in range(1, 6):
            val = np.real(psi.conj() @ oracles.pauli_matrix(oracles.stabilizer(5, i)) @ psi)
            assert val == pytest.approx(1.0, abs=1e-12)


class TestWitnessTerms:
    def test_twelve_qubit_odd_has_64_terms(self):
        assert len(witness_terms(12, "odd")) == 64
        assert witness_term_count(12, "odd") == 64

    def test_empty_subset_is_identity(self):
        terms = witness_terms(4, "odd")
        assert terms[0].subset == ()
        assert terms[0].letters == "IIII"

    def test_spec_product_example(self):
        terms = {t.subset: t for t in witness_terms(4, "odd")}
        assert terms[(1, 3)].letters == "XIXZ"

    def test_cardinalities(self):
        for n in (4, 7, 9, 12, 15):
            odd = witness_term_count(n, "odd")
            even = witness_term_count(n, "even")
            assert odd == 2 ** -(-n // 2)
            assert even == 2 ** (n // 2)
            assert len(witness_terms(n, "odd")) == odd

    def test_products_match_phase_tracked_multiplication(self):
        # Every term of both parities up to the direct verb's noiseless cap:
        # letters from masks against the oracle's stabilizer product, built
        # from the product without the subset's last stabilizer.
        for n in range(2, 25):
            for parity in ("odd", "even"):
                products = {(): (1, "I" * n)}
                for term in witness_terms(n, parity):
                    if term.subset:
                        head, last = term.subset[:-1], term.subset[-1]
                        products[term.subset] = oracles.pauli_product(
                            products[head], oracles.stabilizer(n, last)
                        )
                    assert products[term.subset] == (1, term.letters), (n, term.subset)

    def test_basis_compatibility_with_setting(self):
        for n in (6, 9, 12):
            for parity in ("odd", "even"):
                setting = witness_setting(n, parity)
                for term in witness_terms(n, parity):
                    for letter, basis in zip(term.letters, setting):
                        assert letter in ("I", basis)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            witness_terms(1, "odd")


def random_tensors(rng) -> tuple[BlockTensor, BlockTensor]:
    """Synthetic (unphysical but structurally valid) block tensors.

    Mirrors what real data guarantees: the projector pair shares a
    normalized cut marginal, and the +/- terms of the same observable
    share one weighted marginal (they come from the same job).
    """
    w4 = rng.uniform(-0.12, 0.12, size=(2, 4, 4, 8))
    p3 = rng.uniform(0.0, 1.0, size=(2, 4, 8))
    p3 /= p3.sum(axis=2, keepdims=True)
    marg = rng.uniform(0.05, 1.0, size=(2, 4, 8))
    marg /= marg.sum(axis=2, keepdims=True)
    split = rng.uniform(0.2, 0.8, size=(2, 4, 8))
    w4[:, :, 0, :] = marg * split
    w4[:, :, 1, :] = marg * (1.0 - split)
    w4[:, :, 3, :] = w4[:, :, 2, :]
    return BlockTensor("4q", w4), BlockTensor("3q", p3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: witness_setting(4, "bogus"),
        lambda: witness_values(*random_tensors(np.random.default_rng(0)), 6, "bogus"),
        lambda: stitched_distribution(*random_tensors(np.random.default_rng(0)), 6, "bogus"),
        lambda: _choice_weights(9, "bogus", 1),
    ],
    ids=["witness_setting", "witness_values", "stitched_distribution", "choice_weights"],
)
def test_unknown_parity_rejected(call):
    with pytest.raises(ValueError, match="'bogus'"):
        call()


class TestYTermsCancel:
    """The fact the 24-job grid rests on, checked on six-term tables from the dense oracle."""

    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(), NoiseModel(p2=0.3), NOISELESS],
        ids=["default", "p2-0.3", "noiseless"],
    )
    def test_y_terms_vanish_and_the_grid_gives_the_six_term_values(self, noise):
        v4, v3 = oracles.six_term_block_tables(build_block_subcircuit, noise)
        # the Y-measured cut parity is 0 for every input and local mask
        np.testing.assert_allclose(v4[:, :, 4:], 0.0, rtol=0, atol=1e-12)
        # Yp and Ym inputs give equal rows
        np.testing.assert_allclose(v4[:, 4], v4[:, 5], rtol=0, atol=1e-12)
        np.testing.assert_allclose(v3[:, 4], v3[:, 5], rtol=0, atol=1e-12)
        six = SimpleNamespace(values=v4), SimpleNamespace(values=v3)
        bt4, bt3 = build_block_tensors(
            execute_jobs(RunConfig("exact"), noise), MitigationPipeline({})
        )
        for n in range(6, 19, 3):
            for parity in ("odd", "even"):
                want = oracles.stitch_all_terms(*six, n, parity, oracles.SIX_TERM_COEFFS)
                got = witness_values(bt4, bt3, n, parity)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{n} {parity}")


class TestStitching:
    def test_noiseless_twelve_qubit_terms_are_one(self, exact_tensors):
        bt4, bt3 = exact_tensors
        for parity in ("odd", "even"):
            vals = witness_values(bt4, bt3, 12, parity)
            np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", [9, 12])
    def test_noiseless_matches_direct_simulation_per_term(self, exact_tensors, n):
        bt4, bt3 = exact_tensors
        from chaincut.direct import chain_distribution

        for parity in ("odd", "even"):
            meas = witness_setting(n, parity)
            p = chain_distribution(n, meas, NOISELESS)
            stitched = witness_values(bt4, bt3, n, parity)
            for term, sval in zip(witness_terms(n, parity), stitched):
                dval = oracles.expectation_from_weights(p, n, term.letters, meas)
                assert sval == pytest.approx(dval, abs=1e-9)

    def test_single_term_matches_batch(self, noisy_exact_tensors):
        bt4, bt3 = noisy_exact_tensors
        for parity in ("odd", "even"):
            batch = witness_values(bt4, bt3, 12, parity)
            for term, want in zip(witness_terms(12, parity), batch):
                got = oracles.stitch_expectation(term.letters, parity, bt4, bt3, 3)
                assert got == pytest.approx(want, abs=1e-12)

    def test_all_identity_term_is_one_for_normalized_data(self, sampled_tensors):
        bt4, bt3 = sampled_tensors
        for n_cuts, parity in ((1, "odd"), (3, "even")):
            n = 3 * n_cuts + 3
            term = witness_terms(n, parity)[0]
            assert term.subset == ()
            val = oracles.stitch_expectation(term.letters, parity, bt4, bt3, n_cuts)
            assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_transfer_matches_brute_force_on_random_tensors(self, k):
        rng = np.random.default_rng(50 + k)
        bt4, bt3 = random_tensors(rng)
        coeffs = np.array([t.coeff for t in GRID_TERMS])
        n = 3 * k + 3
        for parity in ("odd", "even"):
            terms = witness_terms(n, parity)
            pick = rng.choice(len(terms), size=min(6, len(terms)), replace=False)
            batch = witness_values(bt4, bt3, n, parity)
            # every term, read off the stitched distribution, against the
            # transfer-matrix oracle
            oracle = oracles.stitch_all_terms(bt4, bt3, n, parity)
            np.testing.assert_allclose(batch, oracle, rtol=0, atol=1e-15)
            for idx in pick:
                term = terms[idx]
                ref = oracles.stitch_brute_force(
                    term.letters, parity, bt4.values, bt3.values, coeffs
                )
                got = oracles.stitch_expectation(term.letters, parity, bt4, bt3, k)
                assert got == pytest.approx(ref, abs=1e-12)
                assert batch[idx] == pytest.approx(ref, abs=1e-12)

    def test_noisy_stitched_s1_matches_brute_force(self, noisy_exact_tensors):
        bt4, bt3 = noisy_exact_tensors
        coeffs = np.array([t.coeff for t in GRID_TERMS])
        term = next(t for t in witness_terms(12, "odd") if t.subset == (1,))
        ref = oracles.stitch_brute_force(term.letters, "odd", bt4.values, bt3.values, coeffs)
        assert oracles.stitch_expectation(term.letters, "odd", bt4, bt3, 3) == pytest.approx(ref, abs=1e-12)

    @staticmethod
    def assert_averages_equal_term_mean(bt4, bt3, n_max):
        for n in range(6, n_max + 1, 3):
            got = witness_averages(bt4, bt3, n)
            for parity, avg in zip(("odd", "even"), got):
                want = np.mean(oracles.stitch_all_terms(bt4, bt3, n, parity))
                assert abs(avg - want) <= 1e-15, (n, parity)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_averages_equal_term_mean_on_random_tensors(self, seed):
        bt4, bt3 = random_tensors(np.random.default_rng(seed))
        self.assert_averages_equal_term_mean(bt4, bt3, 33)

    @pytest.mark.parametrize(
        "fixture", ["exact_tensors", "noisy_exact_tensors", "sampled_tensors"]
    )
    def test_averages_equal_term_mean_on_block_data(self, request, fixture):
        self.assert_averages_equal_term_mean(*request.getfixturevalue(fixture), 24)

    def test_averages_stay_finite_at_3006_sites(self, sampled_tensors):
        for avg in witness_averages(*sampled_tensors, 3006):
            assert np.isfinite(avg) and -1.0 <= avg <= 1.0

    def test_chain_cut_count(self):
        assert chain_cut_count(6) == 1
        assert chain_cut_count(12) == 3
        assert chain_cut_count(33) == 10
        with pytest.raises(ValueError):
            chain_cut_count(10)


class TestStitchedDistribution:
    def test_noiseless_matches_direct(self, exact_tensors):
        bt4, bt3 = exact_tensors
        from chaincut.direct import chain_distribution

        for parity in SETTINGS:
            got = stitched_distribution(bt4, bt3, 12, parity)
            want = chain_distribution(12, witness_setting(12, parity), NOISELESS)
            assert 0.5 * np.sum(np.abs(got - want)) <= 1e-9

    def test_sums_to_one_even_for_random_tensors(self):
        rng = np.random.default_rng(60)
        bt4, bt3 = random_tensors(rng)
        for n, parity in ((6, "odd"), (9, "even"), (12, "odd")):
            p = stitched_distribution(bt4, bt3, n, parity)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert len(p) == 2**n

    def test_consistent_with_term_stitching(self, noisy_exact_tensors):
        bt4, bt3 = noisy_exact_tensors
        p = stitched_distribution(bt4, bt3, 12, "odd")
        vals = witness_values(bt4, bt3, 12, "odd")
        meas = witness_setting(12, "odd")
        for term, want in zip(witness_terms(12, "odd"), vals):
            got = oracles.expectation_from_weights(p, 12, term.letters, meas)
            assert got == pytest.approx(want, abs=1e-10)


class TestWitnessFromDistribution:
    def test_signs3_match_popcount_loop(self):
        want = [[(-1.0) ** bin(mask & b).count("1") for b in range(8)] for mask in range(8)]
        np.testing.assert_array_equal(SIGNS3, want)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_matches_letter_oracle(self, n):
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.full(2**n, 0.5))
        q = p + rng.normal(0.0, 1e-3, 2**n)  # quasi-distribution with negative entries
        # dyadic inputs: counts over 2^20 shots, and q rounded to multiples of
        # 2^-30, where every partial sum is exact whatever the summation order
        counts = rng.multinomial(2**20, p) / 2**20
        q_dyadic = np.round(q * 2**30) / 2**30
        for parity in ("odd", "even"):
            meas = witness_setting(n, parity)
            terms = witness_terms(n, parity)
            for weights, exact in ((p, False), (q, False), (counts, True), (q_dyadic, True)):
                want = [
                    oracles.expectation_from_weights(weights, n, t.letters, meas)
                    for t in terms
                ]
                got = witness_values_from_distribution(weights, n, parity)
                if exact:
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            # a stack of distributions gives each one's values, to the bit
            stacked = witness_values_from_distribution(np.stack([p, q]), n, parity)
            assert np.array_equal(stacked[0], witness_values_from_distribution(p, n, parity))
            assert np.array_equal(stacked[1], witness_values_from_distribution(q, n, parity))

    @pytest.mark.parametrize("n", range(6, 16))
    def test_transform_matches_per_term_rows(self, n):
        # The transform gives each term the parity that a sign row built
        # whole from its support gives: to the bit on dyadic counts, within
        # rounding on other inputs.
        rng = np.random.default_rng(100 + n)
        p = rng.dirichlet(np.full(2**n, 0.5))
        stack = np.stack([p, p + rng.normal(0.0, 1e-3, 2**n)])
        dyadic = rng.multinomial(2**20, p, size=2) / 2**20
        for parity in ("odd", "even"):
            letters = [t.letters for t in witness_terms(n, parity)]
            want = oracles.witness_values_per_term(stack, letters)
            got = witness_values_from_distribution(stack, n, parity)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            want = oracles.witness_values_per_term(dyadic, letters)
            assert np.array_equal(witness_values_from_distribution(dyadic, n, parity), want)
            for dist, row in zip(dyadic, want):
                assert np.array_equal(witness_values_from_distribution(dist, n, parity), row)

    @pytest.mark.parametrize("n", [4, 9])
    def test_noiseless_chain_terms_are_one(self, n):
        from chaincut.direct import chain_distribution

        for parity in ("odd", "even"):
            p = chain_distribution(n, witness_setting(n, parity), NOISELESS)
            np.testing.assert_allclose(
                witness_values_from_distribution(p, n, parity), 1.0, atol=1e-12
            )


class TestBlockTensors:
    def test_projector_pair_marginal_normalization(self, exact_tensors):
        bt4, _ = exact_tensors
        # P0 + P1 at identity mask: total weight of the cut marginal
        for pat in (0, 1):
            for j in range(4):
                total = bt4.values[pat, j, 0, 0] + bt4.values[pat, j, 1, 0]
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_stabilizer_entry_on_cluster_input(self, exact_tensors):
        bt4, _ = exact_tensors
        # X1 Z2 on the block's first two qubits: mask 0b110, XZX pattern,
        # summed over the projector pair = <X1 Z2 (x) I> on |LC_4>
        val = bt4.values[0, 2, 0, 0b110] + bt4.values[0, 2, 1, 0b110]
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_sampled_entries_close_to_exact(self, exact_tensors, sampled_noiseless_tensors):
        e4, e3 = exact_tensors
        s4, s3 = sampled_noiseless_tensors
        # each entry is a mean of 1e6 shot values in [-1, 1], so its standard
        # error is at most sqrt((1 - exact^2) / 1e6): within five of them
        # (about 1e-4 odds of a false failure over the 272 random entries),
        # and exact where the exact entry is +/-1
        for sampled, exact in ((s4, e4), (s3, e3)):
            stderr = np.sqrt(np.maximum(1.0 - exact.values**2, 0.0) / 1_000_000)
            assert np.all(np.abs(sampled.values - exact.values) <= 5 * stderr + 1e-12)

    def test_incomplete_grid_reported(self, plan, exact_results):
        partial = {s: p for s, p in exact_results.items() if s.job_id != "4q-Xp-XZX-Z"}
        with pytest.raises(ValueError, match="missing.*4q-Xp-XZX"):
            build_block_tensors(partial, MitigationPipeline({}))

    def test_tensors_compare_by_outcomes(self, exact_tensors):
        bt4, bt3 = exact_tensors
        assert bt4 == BlockTensor("4q", bt4.outcomes.copy())
        assert bt4 != BlockTensor("4q", np.zeros_like(bt4.outcomes))
        assert bt4 != bt3

    def test_entry_bound_enforced(self):
        bad = np.zeros((2, 4, 4, 8))
        bad[0, 0, 0, 0] = 1.5
        with pytest.raises(ValueError, match="outside"):
            BlockTensor("4q", bad)


class TestBoundAndSweep:
    def test_ideal_bound(self):
        assert fidelity_lower_bound(1.0, 1.0) == pytest.approx(1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fidelity_lower_bound(1.5, 0.0)

    def test_range_validation_checks_every_repetition(self):
        ok = np.array([1.0, 0.5, -1.0])
        assert np.array_equal(fidelity_lower_bound(ok, ok), ok + ok - 1.0)
        for bad in (1.5, -1.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                fidelity_lower_bound(ok, np.array([0.0, bad, 0.0]))

    @pytest.mark.parametrize("reps", [1, 3, 9])
    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_stacked_distributions_match_each_pair(self, n, reps):
        # averages of a stack are reduced along each row, as one pair's are,
        # so every value matches to the bit
        rng = np.random.default_rng(100 * n + reps)
        p_xz, p_zx = rng.dirichlet(np.ones(2**n), size=(2, reps))
        stacked = bound_from_distributions(p_xz, p_zx, n)
        assert stacked["n"] == n and stacked["bound"].shape == (reps,)
        for r in range(reps):
            one = bound_from_distributions(p_xz[r], p_zx[r], n)
            for key in ("odd", "even", "odd_avg", "even_avg", "bound"):
                assert stacked[key][r].tobytes() == np.asarray(one[key]).tobytes(), key

    def test_stitched_range_is_the_cut_one_norm(self):
        # sampled blocks may stitch to just above 1; the reachable range at
        # k cuts is gamma^k with gamma = sum |c_i| = 3 over the grid's terms
        assert stitched_lower_bound(1.0001, 1.0, 9) == pytest.approx(1.0001)
        assert stitched_lower_bound(-9.0, 9.0, 9) == pytest.approx(-1.0)
        for bad in (9.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside"):
                stitched_lower_bound(bad, 1.0, 9)
        # 3^647 at n = 1944 is past the float range: every finite average
        # passes there, and a non-finite one still fails
        assert stitched_lower_bound(1e300, -1e300, 1944) == -1.0
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside"):
                stitched_lower_bound(bad, 1.0, 1944)

    def test_noiseless_sweep_is_exact(self, exact_tensors):
        bt4, bt3 = exact_tensors
        rows = scaling_sweep(bt4, bt3, 9)
        assert [r.n for r in rows] == [9, 12, 15, 18, 21, 24, 27, 30, 33]
        for r in rows:
            assert r.bound == pytest.approx(1.0, abs=1e-9)
            assert r.bound == pytest.approx(r.odd_avg + r.even_avg - 1.0, abs=1e-15)

    def test_noisy_bound_decays(self, noisy_exact_tensors):
        bt4, bt3 = noisy_exact_tensors
        rows = {r.n: r for r in scaling_sweep(bt4, bt3, 9)}
        assert rows[33].bound < rows[12].bound

    def test_sampled_four_qubit_block_bound_in_regime(
        self, sampled_results, sampled_pipeline
    ):
        # the measured-and-mitigated cluster block itself, one million shots
        by_id = {s.job_id: counts for s, counts in sampled_results.items()}
        p_xz = sampled_pipeline.physical(by_id["4q-Xp-XZX-Z"]).p
        p_zx = sampled_pipeline.physical(by_id["4q-Xp-ZXZ-X"]).p
        rep = bound_from_distributions(p_xz, p_zx, 4)
        assert 0.60 <= rep["bound"] <= 0.85

    def test_term_counts_double_every_three_sites(self):
        for k in range(1, 10):
            n = 6 + 3 * k
            total = witness_term_count(n, "odd") + witness_term_count(n, "even")
            if n % 2 == 0:
                assert total == 2 * 2 ** (n // 2)
            else:
                assert total == 2 ** ((n + 1) // 2) + 2 ** (n // 2)

    def test_noiseless_sweep_stays_exact_to_306(self, exact_tensors):
        rows = scaling_sweep(*exact_tensors, 100)
        assert rows[-1].n == 306
        for r in rows:
            assert r.bound == pytest.approx(1.0, abs=1e-9)

    def test_k_max_validated(self, exact_tensors):
        with pytest.raises(ValueError):
            scaling_sweep(*exact_tensors, 0)


class TestModuleBoundary:
    def test_reconstruct_does_not_import_simulator(self, child_env):
        code = (
            "import sys; import chaincut.reconstruct; "
            "sys.exit(1 if 'chaincut.sim' in sys.modules else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env)
        assert proc.returncode == 0, proc.stderr.decode()
