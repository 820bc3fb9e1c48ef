"""Cut decomposition identity, job grid, execution, and bundle round-trip."""

import dataclasses
import json

import numpy as np
import pytest

from chaincut import circuit, cut
from chaincut.circuit import Circuit, build_block_subcircuit
from chaincut.cut import (
    GRID_TERMS,
    JobSpec,
    decomposition_table,
    jobs_file,
    plan_chain_jobs,
    read_job_result,
    reconstruction_error,
    verify_decomposition,
    write_job_result,
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
        assert reconstruction_error(projector(oracles.ket("0"))) < 1e-15

    def test_identity_on_random_single_qubit_states(self):
        rng = np.random.default_rng(100)
        worst = max(
            reconstruction_error(random_density(rng, 2)) for _ in range(100)
        )
        assert worst <= 1e-12

    def test_identity_on_random_two_qubit_states(self):
        rng = np.random.default_rng(101)
        worst = max(
            reconstruction_error(random_density(rng, 4)) for _ in range(20)
        )
        assert worst <= 1e-12

    def test_verify_decomposition_passes(self):
        verify_decomposition()

    @pytest.mark.parametrize(
        "index, field, value",
        [
            (3, "coeff", 0.5),
            (0, "coeff", 1.0 + 1e-9),
            (2, "prep", "Xm"),
            (5, "prep", "Yp"),
            (2, "outcome_weights", (1.0, 1.0)),
            (1, "basis", "X"),
        ],
    )
    def test_verify_decomposition_rejects_perturbed_table(self, monkeypatch, index, field, value):
        table = list(decomposition_table())
        table[index] = dataclasses.replace(table[index], **{field: value})
        monkeypatch.setattr(cut, "decomposition_table", lambda: tuple(table))
        with pytest.raises(AssertionError):
            verify_decomposition()

    def test_observable_matrices(self):
        terms = decomposition_table()
        np.testing.assert_array_equal(terms[0].observable_matrix(), np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(terms[2].observable_matrix(), oracles.X)
        np.testing.assert_array_equal(terms[1].observable_matrix(), np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(terms[5].observable_matrix(), oracles.Y)
        assert terms[0].basis == "Z" and terms[4].basis == "Y"


class TestPlan:
    def test_grid_shape(self, plan):
        assert len(plan) == 16
        four = [s for s in plan if s.form == "4q"]
        three = [s for s in plan if s.form == "3q"]
        assert len(four) == 10 and len(three) == 6

    def test_ids_unique_and_specs_distinct(self, plan):
        assert len({s.job_id for s in plan}) == 16
        assert len(set(plan)) == 16

    def test_plan_is_the_derived_sixteen_job_grid(self, plan):
        # the XZX X cut reads only zeros, so the cut after an XZX block is
        # read in Z alone, and a ZXZ block never takes Xm (nor a 3q one Xp)
        assert [s.job_id for s in plan] == [
            "4q-Z0-XZX-Z", "4q-Z0-ZXZ-X", "4q-Z0-ZXZ-Z",
            "4q-Z1-XZX-Z", "4q-Z1-ZXZ-X", "4q-Z1-ZXZ-Z",
            "4q-Xp-XZX-Z", "4q-Xp-ZXZ-X", "4q-Xp-ZXZ-Z",
            "4q-Xm-XZX-Z",
            "3q-Z0-XZX", "3q-Z0-ZXZ", "3q-Z1-XZX", "3q-Z1-ZXZ", "3q-Xp-XZX", "3q-Xm-XZX",
        ]

    def test_a_readable_xzx_x_cut_is_planned(self, plan, monkeypatch):
        # without its last CZ the 4q block's cut qubit is a lone |+>, so the
        # XZX X-cut parity of that qubit alone reads 1 and the full
        # 4 x 2 x 2 + 4 x 2 product comes back
        def no_last_cz(form, label):
            c = build_block_subcircuit(form, label)
            return Circuit(c.n_qubits, c.ops[:-1]) if form == "4q" else c

        xzx_x = {f"4q-{label}-XZX-X" for label in ("Z0", "Z1", "Xp", "Xm")}
        assert not xzx_x & {s.job_id for s in plan}
        plan_chain_jobs.cache_clear()
        monkeypatch.setattr(circuit, "build_block_subcircuit", no_last_cz)
        try:
            ids = {s.job_id for s in plan_chain_jobs()}
        finally:
            plan_chain_jobs.cache_clear()
        assert xzx_x <= ids
        assert {"4q-Xm-ZXZ-X", "3q-Xp-ZXZ", "3q-Xm-ZXZ"} <= ids and len(ids) == 24

    def test_deterministic_ordering(self, plan):
        assert plan == plan_chain_jobs()

    def test_grid_terms_are_the_table_terms_read_in_x_or_z(self):
        assert [t.prep for t in GRID_TERMS] == ["Z0", "Z1", "Xp", "Xm"]
        assert GRID_TERMS == decomposition_table()[:4]
        assert sum(abs(t.coeff) for t in GRID_TERMS) == 3.0

    def test_planner_refuses_a_grid_that_reads_y_on_an_input(self, monkeypatch):
        # X X on the block's first two qubits pulls back through CZ(0, 1) to
        # Y Y: with that pattern, Yp and Ym inputs would give different rows
        plan_chain_jobs.cache_clear()
        monkeypatch.setattr(cut, "CUT_PATTERNS", ("XXZ", "ZXZ"))
        try:
            with pytest.raises(AssertionError, match="job 4q-Z0-XXZ-X reads Y"):
                plan_chain_jobs()
        finally:
            plan_chain_jobs.cache_clear()

    def test_plan_is_computed_once(self):
        assert plan_chain_jobs() is plan_chain_jobs()

    def test_cut_bases_cover_decomposition_needs(self, plan):
        # every input a block can be given is planned, read in every cut
        # basis its pattern is planned in: the preps of the terms that the
        # opposite pattern's cut bases read, and Xp at the chain's open end
        def jobs(form, pattern):
            return [s for s in plan if s.form == form and s.pattern == pattern]

        bases = {p: {s.cut_basis for s in jobs("4q", p)} for p in ("XZX", "ZXZ")}
        assert bases == {"XZX": {"Z"}, "ZXZ": {"X", "Z"}}
        for pattern, opposite in (("XZX", "ZXZ"), ("ZXZ", "XZX")):
            fed = {t.prep for t in GRID_TERMS if t.basis in bases[opposite]}
            assert {s.input for s in jobs("3q", pattern)} == fed
            for label in fed | {"Xp"}:
                have = {s.cut_basis for s in jobs("4q", pattern) if s.input == label}
                assert have == bases[pattern]
            assert {s.input for s in jobs("4q", pattern)} == fed | {"Xp"}

    def test_setting_invariants(self, plan):
        for s in plan:
            if s.form == "4q":
                assert s.meas[:3] in ("XZX", "ZXZ") and s.meas[3] in "XZ"
            else:
                assert s.meas in ("XZX", "ZXZ")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            JobSpec("4q", "Xp", "XZX", None)
        with pytest.raises(ValueError):
            JobSpec("3q", "Xp", "XZX", "Z")
        with pytest.raises(ValueError):
            JobSpec("4q", "Q9", "XZX", "Z")
        with pytest.raises(ValueError, match="X or Z"):
            JobSpec("4q", "Xp", "XZX", "Y")
        with pytest.raises(ValueError, match="bad input label"):
            JobSpec("4q", "Yp", "XZX", "Z")  # no job prepares Yp or Ym
        with pytest.raises(ValueError, match="bad form"):
            JobSpec("5q", "Xp", "XZX", "Z")
        with pytest.raises(ValueError, match="bad pattern"):
            JobSpec("4q", "Xp", "XXX", "Z")


class TestExecution:
    def test_exact_cluster_job_matches_statevector_oracle(self, exact_results):
        from chaincut.circuit import build_linear_cluster

        want = oracles.measured_distribution(
            oracles.statevector(build_linear_cluster(4)), "XZXZ"
        )
        job = next(p for s, p in exact_results.items() if s.job_id == "4q-Xp-XZX-Z")
        np.testing.assert_allclose(job.p, want, atol=1e-13)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            RunConfig("sampled", shots=0)

    def test_rerun_with_same_seed_is_identical(self, default_noise):
        run = RunConfig("sampled", shots=5000, seed=99)
        assert execute_jobs(run, default_noise) == execute_jobs(run, default_noise)

    def test_results_align_with_plan(self, plan, exact_results):
        assert list(exact_results) == list(plan)


class TestBundle:
    def test_result_roundtrip_counts(self, tmp_path, plan, default_noise):
        run = RunConfig("sampled", shots=2000, seed=3)
        payloads = execute_jobs(run, default_noise)
        write_job_result(tmp_path, 0, payloads)
        again = read_job_result(tmp_path, 0, 2000)
        assert list(again) == list(plan) and again == payloads
        entries = json.loads(jobs_file(tmp_path, 0).read_text())
        assert sorted(entries) == sorted(spec.job_id for spec in plan)
        assert all(entries[spec.job_id]["meas"] == list(spec.meas) for spec in plan)

    def test_result_roundtrip_exact(self, tmp_path, default_noise):
        payloads = execute_jobs(RunConfig("exact"), default_noise)
        write_job_result(tmp_path, 0, payloads)
        assert read_job_result(tmp_path, 0, None) == payloads
