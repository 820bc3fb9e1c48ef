"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and the reported (non-asserted) magnitudes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from chaincut.circuit import build_linear_cluster
from chaincut.cli import main
from chaincut.config import ExperimentConfig
from chaincut.counts import dump_json
from chaincut.cut import GRID_TERMS, reconstruction_error
from chaincut.direct import direct_chain_report
from chaincut.mitigation import (
    MitigationPipeline,
    apply_readout_to_distribution,
    apply_tmem,
    confusion_matrix,
    mle_project,
    pipeline_for_rep,
    readout_rates,
)
from chaincut.counts import QuasiDistribution
from chaincut.reconstruct import (
    SETTINGS,
    build_block_tensors,
    fidelity_lower_bound,
    scaling_sweep,
    stitched_distribution,
    witness_setting,
    witness_term_count,
    witness_terms,
    witness_values,
    witness_values_from_distribution,
)
from chaincut.runner import execute_jobs
from chaincut.sim import NoiseModel, RunConfig, sample_counts

import oracles
from test_reconstruct import random_tensors

NOISELESS = NoiseModel(0.0, 0.0, None)
TABLE_RATES = ((0.950, 0.909), (0.943, 0.910), (0.969, 0.901), (0.922, 0.887))


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed {suffix}"


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_c1_cut_identity_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, reconstruction_error(random_density(rng, 2)))
    for _ in range(20):
        worst = max(worst, reconstruction_error(random_density(rng, 4)))
    elapsed = time.perf_counter() - t0
    report(
        "C1 cut-identity exactness",
        worst <= 1e-12 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_c2_noiseless_end_to_end_equality():
    t0 = time.perf_counter()
    results = execute_jobs(RunConfig("exact"), NOISELESS)
    bt4, bt3 = build_block_tensors(results, MitigationPipeline({}))
    reference = direct_chain_report(12, NOISELESS, RunConfig("exact"))
    [direct_odd], [direct_even] = reference["odd"], reference["even"]
    worst_unit = 0.0
    worst_cross = 0.0
    for parity, direct in (("odd", direct_odd), ("even", direct_even)):
        stitched = witness_values(bt4, bt3, 12, parity)
        worst_unit = max(worst_unit, float(np.max(np.abs(stitched - 1.0))))
        worst_cross = max(worst_cross, float(np.max(np.abs(stitched - direct))))
    worst_tv = 0.0
    for parity, setting in SETTINGS.items():
        stitched_p = stitched_distribution(bt4, bt3, 12, parity)
        direct_p = reference["distributions"][setting]["mitigated"]
        worst_tv = max(worst_tv, 0.5 * float(np.sum(np.abs(stitched_p - direct_p))))
    elapsed = time.perf_counter() - t0
    report(
        "C2 noiseless end-to-end equality",
        worst_unit <= 1e-9 and worst_cross <= 1e-9 and worst_tv <= 1e-9 and elapsed < 30.0,
        f"|ev-1| {worst_unit:.2e}, stitched-vs-direct {worst_cross:.2e}, "
        f"TV {worst_tv:.2e}, {elapsed:.1f}s",
    )


def test_c3_contraction_vs_brute_force():
    t0 = time.perf_counter()
    coeffs = np.array([t.coeff for t in GRID_TERMS])
    worst = 0.0
    rng = np.random.default_rng(77)
    for k in (1, 2, 3, 4):
        bt4, bt3 = random_tensors(rng)
        n = 3 * k + 3
        for parity in ("odd", "even"):
            terms = witness_terms(n, parity)
            batch = witness_values(bt4, bt3, n, parity)
            if len(terms) <= 32:
                idxs = range(len(terms))
            else:
                idxs = rng.choice(len(terms), size=16, replace=False)
            for idx in idxs:
                ref = oracles.stitch_brute_force(
                    terms[idx].letters, parity, bt4.values, bt3.values, coeffs
                )
                got = oracles.stitch_expectation(terms[idx].letters, parity, bt4, bt3, k)
                worst = max(worst, abs(got - ref), abs(batch[idx] - ref))
    elapsed = time.perf_counter() - t0
    report(
        "C3 transfer contraction vs 4^k brute force",
        worst <= 1e-12 and elapsed < 10.0,
        f"max diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_c4_scaling_exactness_and_cost():
    results = execute_jobs(RunConfig("exact"), NOISELESS)
    bt4, bt3 = build_block_tensors(results, MitigationPipeline({}))
    t0 = time.perf_counter()
    rows = scaling_sweep(bt4, bt3, 9)
    elapsed = time.perf_counter() - t0
    worst = max(abs(r.bound - 1.0) for r in rows)
    counts_ok = True
    for r in rows:
        total = witness_term_count(r.n, "odd") + witness_term_count(r.n, "even")
        expected = (
            2 * 2 ** (r.n // 2)
            if r.n % 2 == 0
            else 2 ** ((r.n + 1) // 2) + 2 ** (r.n // 2)
        )
        counts_ok = counts_ok and total == expected
        print(
            f"[acceptance]   n={r.n:3d}  bound={r.bound:+.12f}  "
            f"terms={total:6d}  time={r.postprocess_time_s * 1e3:9.2f} ms"
        )
    report(
        "C4 scaling exactness and cost",
        [r.n for r in rows] == list(range(9, 34, 3))
        and worst <= 1e-9
        and counts_ok
        and elapsed < 300.0,
        f"max |bound-1| {worst:.2e}, sweep {elapsed:.1f}s",
    )


def _noisy_chain_witness(n: int, noise: NoiseModel):
    rho = oracles.noisy_density(build_linear_cluster(n), noise)
    values = {}
    for parity in ("odd", "even"):
        values[parity] = np.array(
            [oracles.expectation(rho, (1, t.letters)) for t in witness_terms(n, parity)]
        )
    bound = fidelity_lower_bound(
        float(np.mean(values["odd"])), float(np.mean(values["even"]))
    )
    return rho, bound


def test_c5_witness_soundness():
    rng = np.random.default_rng(4242)
    worst_excess = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 7))
        noise = NoiseModel(
            p1=float(rng.uniform(0.0, 0.02)),
            p2=float(rng.uniform(0.0, 0.12)),
            readout=None,
        )
        rho, bound = _noisy_chain_witness(n, noise)
        fid = oracles.lc_state_fidelity(rho, n)
        worst_excess = max(worst_excess, bound - fid)
    exact_ok = worst_excess <= 1e-9

    # sampled mode: 25 seeded repetitions at one million shots
    noise = NoiseModel()
    n = 4
    rho_true = oracles.noisy_density(build_linear_cluster(n), noise)
    fid_true = oracles.lc_state_fidelity(rho_true, n)
    t4 = pipeline_for_rep({}, noise.readout, "tensor").matrices[4]
    bounds = []
    for rep in range(25):
        rng_rep = np.random.default_rng(np.random.SeedSequence(777, spawn_key=(rep,)))
        avgs = {}
        for parity in ("odd", "even"):
            meas = witness_setting(n, parity)
            p = oracles.density_distribution(rho_true, meas)
            flipped = confusion_matrix(readout_rates(noise.readout, 4)) @ p
            counts = sample_counts(flipped, 1_000_000, rng_rep)
            phys = mle_project(apply_tmem(counts, t4))
            vals = [
                oracles.expectation_from_weights(phys.p, n, t.letters, meas)
                for t in witness_terms(n, parity)
            ]
            avgs[parity] = float(np.mean(vals))
        bounds.append(fidelity_lower_bound(avgs["odd"], avgs["even"]))
    bounds = np.array(bounds)
    sigma = float(np.std(bounds, ddof=1))
    violations = int(np.sum(bounds > fid_true + 3 * sigma))
    sampled_ok = violations / 25 < 0.05
    report(
        "C5 witness soundness",
        exact_ok and sampled_ok,
        f"max exact excess {worst_excess:.2e}, sampled violations {violations}/25 "
        f"(bound {bounds.mean():.4f} vs fidelity {fid_true:.4f}, sigma {sigma:.1e})",
    )


def test_c6_mitigation_pipeline():
    rng = np.random.default_rng(31415)
    t4 = pipeline_for_rep({}, TABLE_RATES, "tensor").matrices[4]

    # exact recovery through simulated readout
    worst_exact = 0.0
    for _ in range(20):
        p = rng.random(16)
        p /= p.sum()
        observed = apply_readout_to_distribution(p, TABLE_RATES)
        rec = apply_tmem(observed, t4)
        worst_exact = max(worst_exact, float(np.max(np.abs(rec.w - p))))

    # sampled recovery at one million shots
    p = rng.random(16)
    p /= p.sum()
    observed = apply_readout_to_distribution(p, TABLE_RATES)
    counts = sample_counts(observed, 1_000_000, np.random.default_rng(2718))
    rec = mle_project(apply_tmem(counts, t4))
    tv = 0.5 * float(np.sum(np.abs(rec.p - p)))

    # simplex projection against an independent QP oracle: register-sized
    # inputs through mle_project itself, arbitrary lengths through the core
    from chaincut.mitigation import project_to_simplex

    worst_proj = 0.0
    for trial in range(1000):
        if trial % 2 == 0:
            n = int(rng.integers(1, 5))
            w = rng.normal(2.0**-n, 0.6, size=2**n)
            w += (1.0 - w.sum()) / len(w)
            got = mle_project(QuasiDistribution(w)).p
        else:
            d = int(rng.integers(2, 17))
            w = rng.normal(1.0 / d, 0.6, size=d)
            w += (1.0 - w.sum()) / d
            got = project_to_simplex(w)
        ref = oracles.project_simplex_qp(w)
        worst_proj = max(worst_proj, float(np.max(np.abs(got - ref))))
    report(
        "C6 mitigation pipeline",
        worst_exact <= 1e-12 and tv <= 5e-3 and worst_proj <= 1e-9,
        f"exact {worst_exact:.2e}, TV {tv:.2e}, projection {worst_proj:.2e}",
    )


def test_c7_qualitative_paper_regime():
    noise = NoiseModel()  # documented default calibration
    results = execute_jobs(RunConfig("exact"), noise)
    bt4, bt3 = build_block_tensors(results, MitigationPipeline({}))
    by_id = {s.job_id: dist for s, dist in results.items()}
    p_xz = by_id["4q-Xp-XZX-Z"].p
    p_zx = by_id["4q-Xp-ZXZ-X"].p
    block4 = fidelity_lower_bound(
        np.mean(witness_values_from_distribution(p_xz, 4, "odd")),
        np.mean(witness_values_from_distribution(p_zx, 4, "even")),
    )
    odd = float(np.mean(witness_values(bt4, bt3, 12, "odd")))
    even = float(np.mean(witness_values(bt4, bt3, 12, "even")))
    stitched12 = fidelity_lower_bound(odd, even)
    [direct12] = direct_chain_report(12, noise, RunConfig("exact"))["bound"]
    report(
        "C7 qualitative regime (4q bound bracket, cut beats direct)",
        0.60 <= block4 <= 0.85 and stitched12 > direct12,
        f"4q bound {block4:.4f} in [0.60, 0.85]; "
        f"stitched12 {stitched12:.4f} > direct12 {direct12:.4f}",
    )


@pytest.mark.parametrize("p2", [0.085, 0.3])
def test_cut_equals_direct_without_one_qubit_noise(p2):
    # The stitched chain differs from the uncut one only at its open end,
    # where a block prepares |+> noiselessly and the uncut chain applies a
    # noisy H; with p1 = 0 both are the same channel.  The block pipeline
    # (dense simulator, transfer matrices) and the Heisenberg reference
    # compute it independently, so each checks the other.
    noise = NoiseModel(0.0, p2, None)
    results = execute_jobs(RunConfig("exact"), noise)
    bt4, bt3 = build_block_tensors(results, MitigationPipeline({}))
    odd6, even6 = (float(np.mean(witness_values(bt4, bt3, 6, p))) for p in ("odd", "even"))
    stitched = {6: fidelity_lower_bound(odd6, even6)}
    stitched.update((row.n, row.bound) for row in scaling_sweep(bt4, bt3, 3))

    def direct_bound(n):
        [bound] = direct_chain_report(n, noise, RunConfig("exact"))["bound"]
        return bound

    gaps = {n: abs(bound - direct_bound(n)) for n, bound in stitched.items()}
    report(
        f"cut = direct without one-qubit noise (p2 = {p2})",
        sorted(gaps) == [6, 9, 12, 15] and max(gaps.values()) <= 1e-12,
        ", ".join(f"n={n} gap {gap:.1e}" for n, gap in gaps.items()),
    )


def test_c8_determinism(tmp_path, monkeypatch):
    def run_all(base: Path) -> dict[str, bytes]:
        # identical config + seed: run from inside `base` so the config
        # bytes (including out_dir) are the same for both invocations
        base.mkdir(parents=True, exist_ok=True)
        monkeypatch.chdir(base)
        cfg = ExperimentConfig(
            mode="sampled", shots=20_000, seed=12345, repetitions=2,
            k_max=2, out_dir="run",
        )
        cfg_path = base / "config.json"
        cfg_path.write_text(dump_json(cfg.to_dict()))
        assert main(["run-jobs", "--config", str(cfg_path)]) == 0
        assert main(["reconstruct", "--out", "run"]) == 0
        assert main(["direct", "--config", str(cfg_path), "--n", "6"]) == 0
        tree = {}
        for p in sorted((base / "run").rglob("*")):
            if p.is_file():
                data = p.read_bytes()
                if p.name == "scaling.csv":
                    # wall-clock column is exempt from byte-identity
                    lines = data.decode().splitlines()
                    data = "\n".join(",".join(l.split(",")[:5]) for l in lines).encode()
                tree[str(p.relative_to(base))] = data
        return tree

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )
    report(
        "C8 determinism (byte-identical reruns)",
        identical,
        f"{len(first)} files compared; timing columns excluded",
    )
