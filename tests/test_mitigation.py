"""Readout mitigation, transition matrices, and simplex projection."""

import json

import numpy as np
import pytest

from chaincut import mitigation
from chaincut.counts import CountsTable, Distribution, QuasiDistribution, counts_from_vector
from chaincut.mitigation import (
    MitigationPipeline,
    NumericalError,
    TransitionMatrix,
    apply_readout_to_distribution,
    apply_tmem,
    checked_cond,
    confusion_matrix,
    mle_project,
    pipeline_for_rep,
    project_to_simplex,
    read_calibration,
    readout_rates,
    tmem_product_inverse,
    transition_matrix_to_dict,
)
from chaincut.runner import calibration_counts
from chaincut.sim import sample_counts

import oracles

TABLE_RATES = ((0.950, 0.909), (0.943, 0.910), (0.969, 0.901), (0.922, 0.887))
# Qubit 0 is nearly singular: its condition number alone is about 1e7.
NEAR_SINGULAR_RATES = ((0.5000001, 0.5), (0.95, 0.9), (0.95, 0.9), (0.95, 0.9))


class TestTransitionMatrix:
    def test_perfect_readout_is_identity(self):
        t = TransitionMatrix(2, "tensor", confusion_matrix(((1.0, 1.0), (1.0, 1.0))))
        np.testing.assert_array_equal(t.matrix, np.eye(4))

    def test_single_qubit_definition(self):
        t = TransitionMatrix(1, "tensor", confusion_matrix(((0.95, 0.90),)))
        np.testing.assert_allclose(t.matrix, [[0.95, 0.10], [0.05, 0.90]])

    def test_two_qubit_kronecker_vs_entrywise_oracle(self):
        rates = TABLE_RATES[:2]
        t = TransitionMatrix(2, "tensor", confusion_matrix(rates))
        singles = [
            np.array([[f00, 1 - f11], [1 - f00, f11]]) for f00, f11 in rates
        ]
        for obs in range(4):
            for true in range(4):
                o, t_ = format(obs, "02b"), format(true, "02b")
                want = 1.0
                for q in range(2):
                    want *= singles[q][int(o[q]), int(t_[q])]
                assert t.matrix[obs, true] == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_confusion_matrix_is_kronecker_chain(self, n):
        rates = tuple(map(tuple, np.random.default_rng(n).uniform(0.5, 1.0, size=(n, 2))))
        want = np.eye(1)
        for f00, f11 in rates:
            want = np.kron(want, np.array([[f00, 1 - f11], [1 - f00, f11]]))
        got = confusion_matrix(rates)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert np.all(got >= 0)
        np.testing.assert_allclose(got.sum(axis=0), np.ones(2**n), atol=1e-12)

    def test_confusion_matrix_built_once_and_read_only(self):
        rates = TABLE_RATES[:3]
        m = confusion_matrix(rates)
        assert confusion_matrix(tuple(rates)) is m
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    def test_matrices_compare_by_value(self):
        t = TransitionMatrix(1, "full", np.eye(2))
        assert t == TransitionMatrix(1, "full", np.eye(2))
        assert t != TransitionMatrix(1, "tensor", np.eye(2))
        assert t != TransitionMatrix(1, "full", confusion_matrix(((0.95, 0.9),)))
        assert t != TransitionMatrix(2, "full", np.eye(4))
        same = TransitionMatrix(1, "full", np.eye(2))
        assert MitigationPipeline({1: t}) == MitigationPipeline({1: same})

    def test_columns_stochastic(self):
        t = TransitionMatrix(4, "tensor", confusion_matrix(TABLE_RATES))
        np.testing.assert_allclose(t.matrix.sum(axis=0), np.ones(16), atol=1e-12)
        assert t.cond < 10

    def test_full_calibration_estimates_columns(self):
        rng = np.random.default_rng(17)
        calibration = {
            n: calibration_counts(readout_rates(TABLE_RATES, n), 200_000, rng) for n in (3, 4)
        }
        full = pipeline_for_rep(calibration, TABLE_RATES, "full").matrices
        ref = pipeline_for_rep({}, TABLE_RATES, "tensor").matrices
        for n in (3, 4):
            assert full[n].mode == "full"
            assert np.max(np.abs(full[n].matrix - ref[n].matrix)) < 5e-3
        # the tables are one multinomial draw per column of C, in order,
        # on an identical generator
        same = np.random.default_rng(17)
        for n in (3, 4):
            columns = confusion_matrix(readout_rates(TABLE_RATES, n)).T
            assert len(calibration[n]) == len(columns)
            for table, col in zip(calibration[n], columns):
                want = same.multinomial(200_000, col / col.sum())
                np.testing.assert_array_equal(table.counts, want)

    def test_full_calibration_missing_state(self):
        rng = np.random.default_rng(18)
        calibration = {
            n: calibration_counts(readout_rates(TABLE_RATES, n), 1000, rng) for n in (3, 4)
        }
        del calibration[4][15]
        with pytest.raises(ValueError, match=r"matrix shape \(16, 15\) does not match n=4"):
            pipeline_for_rep(calibration, TABLE_RATES, "full")

    @pytest.mark.parametrize(
        "rates, qubits",
        [
            # more rates than qubits: a register takes the last n
            (TABLE_RATES, {3: (1, 2, 3), 4: (0, 1, 2, 3)}),
            # fewer: a register cycles the list
            (TABLE_RATES[:3], {3: (0, 1, 2), 4: (0, 1, 2, 0)}),
            (TABLE_RATES[:1], {3: (0, 0, 0), 4: (0, 0, 0, 0)}),
        ],
    )
    def test_tensor_pipeline_is_kronecker_of_sliced_and_cycled_rates(self, rates, qubits):
        matrices = pipeline_for_rep({}, rates, "tensor").matrices
        assert sorted(matrices) == [3, 4]
        for n, t in matrices.items():
            want = np.eye(1)
            for q in qubits[n]:
                f00, f11 = rates[q]
                want = np.kron(want, np.array([[f00, 1 - f11], [1 - f00, f11]]))
            assert t.mode == "tensor"
            np.testing.assert_allclose(t.matrix, want, rtol=0, atol=1e-15)
            assert t.cond == pytest.approx(np.linalg.cond(want, 1), rel=1e-12)

    @pytest.mark.parametrize(
        "matrix, match",
        [
            ([[1.1, 0.1], [-0.1, 0.9]], "negative entries"),
            ([[0.9, 0.1], [0.0, 0.9]], "sum to 1"),
        ],
        ids=["negative", "column-sum"],
    )
    def test_non_stochastic_matrix_rejected(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            TransitionMatrix(1, "full", np.array(matrix))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mitigation mode 'bogus'"):
            pipeline_for_rep({}, TABLE_RATES, "bogus")

    def test_singular_matrix_is_hard_error(self):
        with pytest.raises(NumericalError, match="condition number"):
            TransitionMatrix(1, "tensor", confusion_matrix(((0.5, 0.5),)))

    def test_export_shape(self):
        t = TransitionMatrix(1, "tensor", confusion_matrix(((0.95, 0.9),)))
        d = transition_matrix_to_dict(t)
        assert d["n"] == 1 and d["mode"] == "tensor"
        np.testing.assert_allclose(d["matrix"], [[0.95, 0.10], [0.05, 0.90]], atol=1e-15)
        assert d["cond"] == pytest.approx(t.cond)


class TestApplyTmem:
    def test_identity_matrix_returns_normalized_counts(self):
        t = TransitionMatrix(1, "tensor", confusion_matrix(((1.0, 1.0),)))
        counts = CountsTable([3, 1])
        q = apply_tmem(counts, t)
        np.testing.assert_allclose(q.w, [0.75, 0.25])

    def test_exact_pushthrough_recovers_input(self):
        rng = np.random.default_rng(23)
        p = rng.random(16)
        p /= p.sum()
        t = TransitionMatrix(4, "tensor", confusion_matrix(TABLE_RATES))
        observed = t.matrix @ p
        q = apply_tmem(observed, t)
        assert np.max(np.abs(q.w - p)) <= 1e-12

    def test_monte_carlo_recovery_within_tv_bound(self):
        rng = np.random.default_rng(24)
        p = rng.random(16)
        p /= p.sum()
        t = TransitionMatrix(4, "tensor", confusion_matrix(TABLE_RATES))
        flipped = apply_readout_to_distribution(p, TABLE_RATES)
        counts = sample_counts(flipped, 1_000_000, np.random.default_rng(77))
        rec = mle_project(apply_tmem(counts, t))
        tv = 0.5 * np.sum(np.abs(rec.p - p))
        assert tv <= 5e-3

    def test_weight_sum_preserved(self):
        rng = np.random.default_rng(25)
        t = TransitionMatrix(3, "tensor", confusion_matrix(TABLE_RATES[:3]))
        for _ in range(20):
            vec = rng.multinomial(10_000, np.full(8, 1 / 8))
            counts = counts_from_vector(vec, 10_000)
            q = apply_tmem(counts, t)
            assert abs(q.w.sum() - 1.0) <= 1e-9

    def test_size_mismatch(self):
        t = TransitionMatrix(2, "tensor", confusion_matrix(TABLE_RATES[:2]))
        with pytest.raises(ValueError):
            apply_tmem(np.ones(8) / 8, t)
        with pytest.raises(ValueError, match="does not match readout rates"):
            tmem_product_inverse(np.ones(8) / 8, TABLE_RATES[:2])

    def test_product_inverse_matches_dense(self):
        rng = np.random.default_rng(26)
        p = rng.random(16)
        p /= p.sum()
        t = TransitionMatrix(4, "tensor", confusion_matrix(TABLE_RATES))
        dense = apply_tmem(p, t).w
        fast = tmem_product_inverse(p, TABLE_RATES)
        np.testing.assert_allclose(fast, dense, atol=1e-12)

    def test_product_inverse_condition_number_matches_dense(self, monkeypatch):
        dense = TransitionMatrix(4, "tensor", confusion_matrix(TABLE_RATES)).cond
        seen = []

        def spy(*factors):
            seen.append(checked_cond(*factors))
            return seen[-1]

        monkeypatch.setattr(mitigation, "checked_cond", spy)
        mitigation._inverse_factors.cache_clear()  # earlier calls checked these rates
        tmem_product_inverse(np.full(16, 1 / 16), TABLE_RATES)
        assert len(seen) == 1
        assert seen[0] == pytest.approx(dense, rel=1e-12)
        # the check and the inverses are computed once per rate tuple
        tmem_product_inverse(np.full(16, 1 / 16), TABLE_RATES)
        assert len(seen) == 1

    def test_dense_and_factored_share_the_condition_limit(self):
        # every qubit's determinant is far from 0 (1e-7 for qubit 0), yet the
        # register is past COND_LIMIT on both paths
        with pytest.raises(NumericalError, match="condition number 1.885e"):
            TransitionMatrix(4, "tensor", confusion_matrix(NEAR_SINGULAR_RATES))
        with pytest.raises(NumericalError, match="condition number 1.885e"):
            tmem_product_inverse(np.full(16, 1 / 16), NEAR_SINGULAR_RATES)


class TestMleProject:
    def test_physical_input_is_fixed_point(self):
        q = QuasiDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
        np.testing.assert_allclose(mle_project(q).p, q.w, atol=1e-15)

    def test_two_point_closed_form(self):
        q = QuasiDistribution(np.array([1.2, -0.2]))
        np.testing.assert_allclose(mle_project(q).p, [1.0, 0.0], atol=1e-15)

    def test_matches_qp_oracle_on_random_inputs(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(200):
            w = rng.normal(0.125, 0.5, size=8)
            w += (1.0 - w.sum()) / 8
            got = mle_project(QuasiDistribution(w)).p
            ref = oracles.project_simplex_qp(w)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        assert worst <= 1e-9

    def test_output_in_simplex(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            w = rng.normal(1 / 16, 1.0, size=16)
            w += (1.0 - w.sum()) / 16
            p = mle_project(QuasiDistribution(w)).p
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_projection_is_nonexpansive(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            a = rng.normal(0.25, 0.7, size=4)
            b = rng.normal(0.25, 0.7, size=4)
            a += (1.0 - a.sum()) / 4
            b += (1.0 - b.sum()) / 4
            pa, pb = project_to_simplex(a), project_to_simplex(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_badly_unnormalized_rejected(self):
        # the container itself enforces normalization on construction
        with pytest.raises(ValueError, match="sum"):
            QuasiDistribution(np.array([0.9, 0.2]))


class TestPipeline:
    def test_identity_pipeline_on_physical_counts(self):
        pipe = MitigationPipeline({})
        counts = CountsTable([9000, 1000])
        np.testing.assert_allclose(pipe.physical(counts).p, [0.9, 0.1], atol=1e-15)

    def test_exact_payload_passthrough(self):
        pipe = MitigationPipeline({})
        d = Distribution(np.array([0.7, 0.3]))
        np.testing.assert_allclose(pipe.physical(d).p, d.p, atol=1e-15)

    def test_auto_mode_prefers_full_calibration(self, tmp_path, default_noise):
        from chaincut.runner import write_calibration
        from chaincut.sim import RunConfig

        write_calibration(tmp_path, 0, RunConfig("sampled", shots=50_000, seed=4), default_noise)
        calibration = read_calibration(tmp_path, 0, 50_000)
        assert sorted(calibration) == [3, 4] and len(calibration[4]) == 16
        pipe = pipeline_for_rep(calibration, default_noise.readout, mode="auto")
        assert pipe.matrices[4].mode == "full"
        assert pipe.matrices[3].mode == "full"

    def test_read_calibration_needs_the_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="r00/calibration.json"):
            read_calibration(tmp_path, 0, 50_000)

    def test_read_calibration_needs_every_register(self, tmp_path, default_noise):
        from chaincut.cut import calibration_file
        from chaincut.runner import write_calibration
        from chaincut.sim import RunConfig

        write_calibration(tmp_path, 0, RunConfig("sampled", shots=1000, seed=4), default_noise)
        path = calibration_file(tmp_path, 0)
        d = json.loads(path.read_text())
        del d["q4"]
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=r"calibration.json: no entry 'q4'"):
            read_calibration(tmp_path, 0, 1000)

    def test_none_mode(self, default_noise):
        pipe = pipeline_for_rep({}, default_noise.readout, mode="none")
        assert pipe.matrices == {}
