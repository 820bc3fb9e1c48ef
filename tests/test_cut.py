"""Cut decomposition identity, job grid, execution, and bundle round-trip."""

import dataclasses

import numpy as np
import pytest

from chaincut import cut
from chaincut.counts import Distribution
from chaincut.cut import (
    JobResult,
    JobSpec,
    decomposition_table,
    plan_chain_jobs,
    read_job_result,
    read_plan,
    reconstruction_error_1q,
    reconstruction_error_2q,
    sampling_overhead,
    verify_decomposition,
    write_job_result,
    write_plan,
)
from chaincut.qstate import projector
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig

import oracles


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


class TestDecomposition:
    def test_six_terms_with_unit_projector_weights(self):
        terms = decomposition_table()
        assert len(terms) == 6
        assert [t.coeff for t in terms] == [1.0, 1.0, 0.5, -0.5, 0.5, -0.5]
        assert [t.prep for t in terms] == ["Z0", "Z1", "Xp", "Xm", "Yp", "Ym"]

    def test_one_norm_is_four(self):
        assert sum(abs(t.coeff) for t in decomposition_table()) == pytest.approx(4.0)

    def test_z_eigenstate_hits_only_projector_term(self):
        assert reconstruction_error_1q(projector(oracles.ket("0"))) < 1e-15

    def test_identity_on_random_single_qubit_states(self):
        rng = np.random.default_rng(100)
        worst = max(
            reconstruction_error_1q(random_density(rng, 2)) for _ in range(100)
        )
        assert worst <= 1e-12

    def test_identity_on_random_two_qubit_states(self):
        rng = np.random.default_rng(101)
        worst = max(
            reconstruction_error_2q(random_density(rng, 4)) for _ in range(20)
        )
        assert worst <= 1e-12

    def test_verify_decomposition_passes(self):
        verify_decomposition()

    @pytest.mark.parametrize(
        "index, field, value",
        [(3, "coeff", 0.5), (0, "coeff", 1.0 + 1e-9), (2, "prep", "Xm"), (5, "prep", "Yp")],
    )
    def test_verify_decomposition_rejects_perturbed_table(self, monkeypatch, index, field, value):
        table = list(decomposition_table())
        table[index] = dataclasses.replace(table[index], **{field: value})
        monkeypatch.setattr(cut, "decomposition_table", lambda: tuple(table))
        monkeypatch.setattr(cut, "_VERIFIED", False)
        with pytest.raises(AssertionError):
            verify_decomposition()

    def test_observable_matrices(self):
        terms = decomposition_table()
        np.testing.assert_array_equal(terms[0].observable_matrix(), np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(terms[2].observable_matrix(), oracles.X)
        assert terms[0].basis == "Z" and terms[4].basis == "Y"


class TestSamplingOverhead:
    def test_values(self):
        assert sampling_overhead(0) == 1
        assert sampling_overhead(3) == 216
        assert sampling_overhead(9) == 10_077_696

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sampling_overhead(-1)


class TestPlan:
    def test_grid_shape(self, plan):
        assert len(plan) == 48
        four = [s for s in plan if s.form == "4q"]
        three = [s for s in plan if s.form == "3q"]
        assert len(four) == 36 and len(three) == 12

    def test_ids_unique_and_specs_distinct(self, plan):
        assert len({s.job_id for s in plan}) == 48
        assert len(set(plan)) == 48

    def test_deterministic_ordering(self, plan):
        assert plan == plan_chain_jobs()

    def test_cut_bases_cover_decomposition_needs(self, plan):
        needed = {t.basis for t in decomposition_table()}
        for label in ("Z0", "Z1", "Xp", "Xm", "Yp", "Ym"):
            for pattern in ("XZX", "ZXZ"):
                have = {
                    s.cut_basis
                    for s in plan
                    if s.form == "4q" and s.input == label and s.pattern == pattern
                }
                assert needed <= have

    def test_setting_invariants(self, plan):
        for s in plan:
            if s.form == "4q":
                assert s.meas[:3] in ("XZX", "ZXZ") and s.meas[3] in "XYZ"
            else:
                assert s.meas in ("XZX", "ZXZ")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            JobSpec("4q", "Xp", "XZX", None)
        with pytest.raises(ValueError):
            JobSpec("3q", "Xp", "XZX", "Z")
        with pytest.raises(ValueError):
            JobSpec("4q", "Q9", "XZX", "Z")


class TestExecution:
    def test_exact_cluster_job_matches_statevector_oracle(self, plan, exact_results):
        from chaincut.circuit import build_linear_cluster

        want = oracles.measured_distribution(
            oracles.statevector(build_linear_cluster(4)), "XZXZ"
        )
        job = next(r for r in exact_results if r.spec.job_id == "4q-Xp-XZX-Z")
        np.testing.assert_allclose(job.dist.p, want, atol=1e-13)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            RunConfig("sampled", shots=0)

    def test_rerun_with_same_seed_is_identical(self, plan, default_noise):
        run = RunConfig("sampled", shots=5000, seed=99)
        a = execute_jobs(plan, run, default_noise)
        b = execute_jobs(plan, run, default_noise)
        for ra, rb in zip(a, b):
            assert ra.spec == rb.spec
            assert ra.counts == rb.counts

    def test_results_align_with_plan(self, plan, exact_results):
        assert [r.spec for r in exact_results] == list(plan)


class TestBundle:
    def test_plan_roundtrip(self, tmp_path, plan):
        write_plan(tmp_path, plan)
        assert read_plan(tmp_path) == plan

    def test_result_roundtrip_counts(self, tmp_path, plan, default_noise):
        run = RunConfig("sampled", shots=2000, seed=3)
        results = execute_jobs(plan[:2], run, default_noise)
        for r in results:
            write_job_result(tmp_path, 0, r)
        for r in results:
            again = read_job_result(tmp_path, 0, r.spec, 2000)
            assert again.counts == r.counts
            assert again.counts.meas == r.spec.meas

    def test_result_roundtrip_exact(self, tmp_path, plan):
        results = execute_jobs(plan[:1], RunConfig("exact"), NoiseModel(0.0, 0.0, None))
        write_job_result(tmp_path, 0, results[0])
        again = read_job_result(tmp_path, 0, results[0].spec, None)
        np.testing.assert_allclose(again.dist.p, results[0].dist.p, rtol=0, atol=0)

    def test_payload_type_enforced(self, plan):
        with pytest.raises(ValueError, match="exactly one"):
            JobResult(plan[0])
        with pytest.raises(ValueError, match="register size"):
            JobResult(plan[0], dist=Distribution(3, np.full(8, 1 / 8)))
