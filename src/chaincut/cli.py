"""Batch experiment driver.

Verbs:
    run-jobs     execute the 48-job block grid and persist the bundle,
                 with readout calibration for sampled configs with rates
    reconstruct  turn a bundle into witness/bound/distribution reports,
                 including the chain-length sweep to n = 6 + 3 k_max
    direct       simulate the uncut chain as a reference

Every verb accepts --config FILE and --out DIR, plus the overrides it
reads: --seed and --shots (run-jobs, direct), --exact (run-jobs, direct),
--k-max (reconstruct), --n (direct).  Exit codes: 0 success, 1 validation
error, 2 numerical error.  All outputs except wall-clock timing columns are
byte-reproducible for a fixed config and seed.

run-jobs and reconstruct run their repetitions in parallel
(``_map_reps``): one forked worker per CPU in the affinity mask, at most
one per repetition.  Each repetition draws from its own seeded stream, so
the outputs do not depend on the worker count, and the first failing
repetition, in repetition order, is the error reported.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, override_config
from .counts import dump_json
from .cut import (
    plan_chain_jobs,
    read_bundle_file,
    read_job_result,
    read_plan,
    rep_dir,
    write_job_result,
    write_plan,
)
from .direct import direct_chain_report
from .mitigation import (
    FULL_CALIBRATION,
    NumericalError,
    pipeline_for_rep,
    read_calibration,
    transition_matrix_to_dict,
)
from .reconstruct import (
    build_block_tensors,
    scaling_sweep,
    stitched_distribution,
    stitched_lower_bound,
    witness_terms,
    witness_values,
)
from .runner import block_distribution, execute_jobs, write_calibration

REPORT_N = 12  # chain length of the per-term witness report


def _write_manifest(target: Path, command: str, cfg: ExperimentConfig) -> None:
    manifest = {
        "command": command,
        "package": "chaincut",
        "version": __version__,
        "config_sha256": cfg.sha256(),
        "seed": cfg.seed,
    }
    target.mkdir(parents=True, exist_ok=True)
    (target / "manifest.json").write_text(dump_json(manifest))


def _load_effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return override_config(
        cfg,
        out_dir=args.out,
        seed=args.seed,
        shots=args.shots,
        mode="exact" if getattr(args, "exact", False) else None,
    )


def _map_reps(fn, reps) -> list:
    """``[fn(rep) for rep in reps]``, with the repetitions spread over forked workers.

    One worker per CPU in the affinity mask, at most one per repetition;
    the repetitions go out in one contiguous chunk per worker.  Results
    come back in repetition order, and of the exceptions raised in the
    workers, the one of the first failing repetition is re-raised here.
    """
    reps = list(reps)
    workers = min(len(reps), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return list(map(fn, reps))
    # Imported here: at module level they slow every `import chaincut.cli`.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, reps, chunksize=math.ceil(len(reps) / workers)))


def _run_rep(out: Path, plan, run, noise, rep: int) -> None:
    for result in execute_jobs(plan, run, noise, rep=rep):
        write_job_result(out, rep, result)
    if run.mode == "sampled" and noise.readout is not None:
        write_calibration(out, rep, run, noise)


def cmd_run_jobs(args) -> int:
    cfg = _load_effective_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(dump_json(cfg.to_dict()))
    _write_manifest(out, "run-jobs", cfg)
    plan = plan_chain_jobs()
    write_plan(out, plan)
    noise = cfg.noise_model()
    run = cfg.run_config()
    # Simulated once here, the block distributions reach the workers by fork.
    for spec in plan:
        block_distribution(spec, noise)
    _map_reps(functools.partial(_run_rep, out, plan, run, noise), range(cfg.effective_repetitions))
    print(f"wrote {cfg.effective_repetitions} repetition(s) of {len(plan)} jobs to {out}")
    return 0


def _load_bundle_config(bundle: Path, args) -> ExperimentConfig:
    cfg_path, manifest_path = bundle / "config.json", bundle / "manifest.json"
    cfg = load_config(cfg_path)
    if read_bundle_file(manifest_path, lambda d: d.get("config_sha256")) != cfg.sha256():
        raise ValueError(f"{cfg_path} does not match the config_sha256 in {manifest_path}")
    return override_config(cfg, k_max=args.k_max)


def _check_rep_dirs(bundle: Path, repetitions: int) -> None:
    """Reject a reps/ whose rNN directories are not exactly the config's repetitions."""
    root = bundle / "reps"
    children = root.iterdir() if root.is_dir() else ()
    found = {p.name for p in children if p.is_dir() and re.fullmatch(r"r\d+", p.name)}
    expected = {rep_dir(bundle, rep).name for rep in range(repetitions)}
    problems = []
    if found - expected:
        problems.append("extra " + ", ".join(sorted(found - expected)))
    if expected - found:
        problems.append("missing " + ", ".join(sorted(expected - found)))
    if problems:
        raise ValueError(
            f"{root} does not hold the {repetitions} repetition(s) config.json says: "
            + "; ".join(problems)
        )


def _reconstruct_rep(bundle: Path, plan, cfg: ExperimentConfig, mitigation: str, rep: int) -> dict:
    shots = cfg.shots if cfg.mode == "sampled" else None
    results = [read_job_result(bundle, rep, spec, shots) for spec in plan]
    calibration = {}
    if shots is not None:
        calibration = read_calibration(bundle, rep, shots, required=mitigation == FULL_CALIBRATION)
    pipeline = pipeline_for_rep(calibration, cfg.readout, mode=mitigation)
    bt4, bt3 = build_block_tensors(results, pipeline)
    return {
        "odd12": witness_values(bt4, bt3, REPORT_N, "odd"),
        "even12": witness_values(bt4, bt3, REPORT_N, "even"),
        "dist_xz": stitched_distribution(bt4, bt3, REPORT_N, "XZ"),
        "dist_zx": stitched_distribution(bt4, bt3, REPORT_N, "ZX"),
        "rows": scaling_sweep(bt4, bt3, cfg.k_max),
        "matrices": pipeline.matrices,
    }


def _reconstruct_reports(bundle: Path, cfg: ExperimentConfig) -> list[dict]:
    plan = read_plan(bundle)
    reps = range(cfg.effective_repetitions)
    _check_rep_dirs(bundle, len(reps))
    # Exact distributions model pre-readout statistics and never pass
    # through TMEM, so exact bundles build no confusion matrices; nor does a
    # config without readout rates, whose sampled bundles hold no calibration.
    mitigation = "none" if cfg.mode == "exact" or cfg.readout is None else cfg.mitigation
    return _map_reps(functools.partial(_reconstruct_rep, bundle, plan, cfg, mitigation), reps)


def _aggregate_scaling(per_rep: list[dict], k_max: int) -> list[dict]:
    rows = []
    for idx in range(k_max):
        n = per_rep[0]["rows"][idx].n
        bounds = np.array([r["rows"][idx].bound for r in per_rep])
        stddev = float(np.std(bounds, ddof=1)) if len(bounds) > 1 else 0.0
        rows.append(
            {
                "n": n,
                "odd_avg": float(np.mean([r["rows"][idx].odd_avg for r in per_rep])),
                "even_avg": float(np.mean([r["rows"][idx].even_avg for r in per_rep])),
                "bound": float(np.mean(bounds)),
                "bound_stddev": stddev,
                "time_ms": float(
                    np.mean([r["rows"][idx].postprocess_time_s for r in per_rep]) * 1e3
                ),
            }
        )
    return rows


def _scaling_csv(rows: list[dict]) -> str:
    lines = ["n,odd_avg,even_avg,bound,bound_stddev,time_ms"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['odd_avg']!r},{r['even_avg']!r},{r['bound']!r},"
            f"{r['bound_stddev']!r},{r['time_ms']:.3f}"
        )
    return "\n".join(lines) + "\n"


def _term_entries(n: int, parity: str, means, stds=None) -> list[dict]:
    """One report entry per witness term: subset, letters (key "pauli"), mean[, std]."""
    entries = []
    for i, t in enumerate(witness_terms(n, parity)):
        entry = {"subset": list(t.subset), "pauli": t.letters, "mean": float(means[i])}
        if stds is not None:
            entry["std"] = float(stds[i])
        entries.append(entry)
    return entries


def _witness_report(per_rep: list[dict]) -> dict:
    report = {"n": REPORT_N}
    for parity in ("odd", "even"):
        stacked = np.stack([r[f"{parity}12"] for r in per_rep])
        means = stacked.mean(axis=0)
        stds = stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1 else np.zeros_like(means)
        report[parity] = _term_entries(REPORT_N, parity, means, stds)
    return report


def cmd_reconstruct(args) -> int:
    if not (args.out or args.config):
        raise ValueError("reconstruct needs --out (the bundle directory) or --config")
    bundle = Path(args.out or load_config(args.config).out_dir)
    cfg = _load_bundle_config(bundle, args)
    per_rep = _reconstruct_reports(bundle, cfg)
    reports = bundle / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    rows = _aggregate_scaling(per_rep, cfg.k_max)
    (reports / "scaling.csv").write_text(_scaling_csv(rows))
    witness = _witness_report(per_rep)
    odd_avg = float(np.mean([t["mean"] for t in witness["odd"]]))
    even_avg = float(np.mean([t["mean"] for t in witness["even"]]))
    witness["odd_avg"] = odd_avg
    witness["even_avg"] = even_avg
    witness["bound"] = stitched_lower_bound(odd_avg, even_avg, REPORT_N)
    (reports / "witness_terms.json").write_text(dump_json(witness))
    dists = {
        "n": REPORT_N,
        "XZ": [float(x) for x in np.mean([r["dist_xz"] for r in per_rep], axis=0)],
        "ZX": [float(x) for x in np.mean([r["dist_zx"] for r in per_rep], axis=0)],
    }
    (reports / "stitched_distributions.json").write_text(dump_json(dists))
    for n, t in sorted(per_rep[0]["matrices"].items()):
        (reports / f"transition_q{n}.json").write_text(
            dump_json(transition_matrix_to_dict(t))
        )
    _write_manifest(reports, "reconstruct", cfg)
    print(f"12-qubit stitched bound: {witness['bound']:.6f}")
    print(f"wrote reports to {reports}")
    return 0


def cmd_direct(args) -> int:
    cfg = _load_effective_config(args)
    n = args.n
    noise = cfg.noise_model()
    run = cfg.run_config()
    reports = direct_chain_report(n, noise, run, cfg.effective_repetitions)
    out = Path(cfg.out_dir) / "direct"
    out.mkdir(parents=True, exist_ok=True)
    bounds = np.array([r["bound"] for r in reports])
    stddev = float(np.std(bounds, ddof=1)) if len(bounds) > 1 else 0.0
    odd = np.mean([r["odd"] for r in reports], axis=0)
    even = np.mean([r["even"] for r in reports], axis=0)
    witness = {
        "n": n,
        "odd": _term_entries(n, "odd", odd),
        "even": _term_entries(n, "even", even),
        "odd_avg": float(np.mean(odd)),
        "even_avg": float(np.mean(even)),
        "bound": float(np.mean(bounds)),
        "bound_stddev": stddev,
    }
    (out / "witness_terms.json").write_text(dump_json(witness))
    dists = {
        "n": n,
        "XZ": {
            kind: [float(x) for x in np.mean([r["distributions"][kind]["XZ"] for r in reports], axis=0)]
            for kind in ("ideal", "observed", "mitigated")
        },
        "ZX": {
            kind: [float(x) for x in np.mean([r["distributions"][kind]["ZX"] for r in reports], axis=0)]
            for kind in ("ideal", "observed", "mitigated")
        },
    }
    (out / "distributions.json").write_text(dump_json(dists))
    summary = "n,odd_avg,even_avg,bound,bound_stddev\n"
    summary += (
        f"{n},{witness['odd_avg']!r},{witness['even_avg']!r},"
        f"{witness['bound']!r},{stddev!r}\n"
    )
    (out / "summary.csv").write_text(summary)
    _write_manifest(out, "direct", cfg)
    print(f"direct {n}-qubit bound: {witness['bound']:.6f}")
    print(f"wrote reference reports to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincut",
        description="cut-chain simulation, mitigation, and witness reconstruction",
    )
    parser.add_argument("--version", action="version", version=f"chaincut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--seed": dict(type=int, help="master seed override"),
        "--shots": dict(type=int, help="shots-per-job override"),
        "--exact": dict(action="store_true", help="force exact (no sampling) mode"),
        "--k-max": dict(dest="k_max", type=int, help="largest chain index k (n = 6 + 3k)"),
        "--n": dict(type=int, default=12, help="chain length (default 12)"),
    }

    def verb(name: str, help: str, *options: str) -> None:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, help="experiment config (JSON)")
        p.add_argument("--out", type=str, help="output / bundle directory")
        for option in options:
            p.add_argument(option, **flags[option])

    verb("run-jobs", "execute the 48-job block grid", "--seed", "--shots", "--exact")
    verb("reconstruct", "build reports from a job bundle", "--k-max")
    verb("direct", "simulate the uncut chain directly", "--seed", "--shots", "--exact", "--n")
    return parser


_HANDLERS = {
    "run-jobs": cmd_run_jobs,
    "reconstruct": cmd_reconstruct,
    "direct": cmd_direct,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
