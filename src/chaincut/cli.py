"""Batch experiment driver.

Verbs:
    run-jobs     execute the block job grid and persist the bundle,
                 with readout calibration for sampled configs with rates
                 under "auto" or "full" mitigation
    reconstruct  turn a bundle into witness/bound/distribution reports,
                 including the chain-length sweep to n = 6 + 3 k_max
    direct       simulate the uncut chain as a reference

Every verb accepts --config FILE and --out DIR, plus the overrides it
reads: --seed and --shots (run-jobs, direct), --exact (run-jobs, direct),
--k-max (reconstruct), --n (direct).  Exit codes: 0 success, 1 validation
error, 2 numerical error.  All outputs except wall-clock timing columns are
byte-reproducible for a fixed config and seed.

A bundle is config.json, manifest.json and, per repetition, jobs.json,
plus calibration.json when ``ExperimentConfig.calibrated`` holds.  The job
grid is ``cut.plan_chain_jobs()``, a code constant, so no file stores it.

Every verb runs its repetitions one after another in its own process.
Each run-jobs repetition draws from its own seeded streams, one
multinomial per job and per calibration state, and reconstruct reads a
repetition's two files; either way the first failing repetition is the
error reported.  A repetition is too little work to pay for a worker
process, and in one process a trace of the verb sees every layer it calls.
"""

from __future__ import annotations

import argparse
import re
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, override_config
from .counts import dump_json
from .cut import plan_chain_jobs, read_bundle_file, read_job_result, rep_dir, write_job_result
from .direct import direct_chain_report
from .mitigation import (
    MitigationPipeline,
    NumericalError,
    pipeline_for_rep,
    read_calibration,
    transition_matrix_to_dict,
)
from .reconstruct import (
    SETTINGS,
    build_block_tensors,
    scaling_sweep,
    stitched_distribution,
    stitched_lower_bound,
    witness_terms,
    witness_values_from_distribution,
)
from .runner import execute_jobs, write_calibration

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


def cmd_run_jobs(args) -> int:
    cfg = _load_effective_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # manifest.json marks a whole bundle: it goes first and comes back last,
    # so a run that dies partway leaves a bundle that reconstruct rejects.
    # An earlier run's repetitions go with it, and its reports lose their
    # mark: they were built from the bundle this run replaces.
    (out / "manifest.json").unlink(missing_ok=True)
    (out / "reports" / "manifest.json").unlink(missing_ok=True)
    shutil.rmtree(out / "reps", ignore_errors=True)
    (out / "config.json").write_text(dump_json(cfg.to_dict()))
    noise = cfg.noise_model()
    run = cfg.run_config()
    reps = range(cfg.effective_repetitions)
    for rep in reps:
        write_job_result(out, rep, execute_jobs(run, noise, rep=rep))
        if cfg.calibrated:
            write_calibration(out, rep, run, noise)
    _write_manifest(out, "run-jobs", cfg)
    print(f"wrote {len(reps)} repetition(s) of {len(plan_chain_jobs())} jobs to {out}")
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


def _reconstruct_rep(bundle: Path, cfg: ExperimentConfig, rep: int) -> dict:
    sampled = cfg.mode == "sampled"
    payloads = read_job_result(bundle, rep, cfg.shots if sampled else None)
    # Exact distributions model pre-readout statistics: like counts without
    # readout rates, no TMEM.
    pipeline = MitigationPipeline({})
    if sampled and cfg.readout is not None:
        calibration = read_calibration(bundle, rep, cfg.shots) if cfg.calibrated else {}
        pipeline = pipeline_for_rep(calibration, cfg.readout, cfg.mitigation)
    bt4, bt3 = build_block_tensors(payloads, pipeline)
    dists = {p: stitched_distribution(bt4, bt3, REPORT_N, p) for p in SETTINGS}
    return {
        "odd12": witness_values_from_distribution(dists["odd"], REPORT_N, "odd"),
        "even12": witness_values_from_distribution(dists["even"], REPORT_N, "even"),
        "dists": dists,
        "rows": scaling_sweep(bt4, bt3, cfg.k_max),
        "matrices": pipeline.matrices,
    }


def _reconstruct_reports(bundle: Path, cfg: ExperimentConfig) -> list[dict]:
    reps = range(cfg.effective_repetitions)
    _check_rep_dirs(bundle, len(reps))
    return [_reconstruct_rep(bundle, cfg, rep) for rep in reps]


def _mean_std(stack) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample std (ddof=1) over the leading repetition axis; std 0 for one repetition.

    Reduce per-scaling-row and bound statistics as 1-D vectors: numpy sums
    8 or more values pairwise along a vector but one by one down axis 0 of
    a 2-D stack, so stacking them would change the last bits.
    """
    stack = np.asarray(stack)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1) if len(stack) > 1 else np.zeros_like(mean)
    return mean, std


def _aggregate_scaling(per_rep: list[dict], k_max: int) -> list[dict]:
    rows = []
    for idx in range(k_max):
        column = [r["rows"][idx] for r in per_rep]
        bound, stddev = _mean_std([row.bound for row in column])
        rows.append(
            {
                "n": column[0].n,
                "odd_avg": float(np.mean([row.odd_avg for row in column])),
                "even_avg": float(np.mean([row.even_avg for row in column])),
                "bound": float(bound),
                "bound_stddev": float(stddev),
                "time_ms": float(np.mean([row.postprocess_time_s for row in column]) * 1e3),
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
    """Per-term mean and std over the repetitions, and the bound of the mean averages."""
    report = {"n": REPORT_N}
    for parity in ("odd", "even"):
        means, stds = _mean_std([r[f"{parity}12"] for r in per_rep])
        report[parity] = _term_entries(REPORT_N, parity, means, stds)
        report[f"{parity}_avg"] = float(np.mean(means))
    report["bound"] = stitched_lower_bound(report["odd_avg"], report["even_avg"], REPORT_N)
    return report


def cmd_reconstruct(args) -> int:
    if not (args.out or args.config):
        raise ValueError("reconstruct needs --out (the bundle directory) or --config")
    bundle = Path(args.out or load_config(args.config).out_dir)
    cfg = _load_bundle_config(bundle, args)
    per_rep = _reconstruct_reports(bundle, cfg)
    reports = bundle / "reports"
    # As in run-jobs, manifest.json marks whole reports: an earlier run's
    # reports go first, manifest.json with them, and it comes back last.
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir(parents=True)
    rows = _aggregate_scaling(per_rep, cfg.k_max)
    (reports / "scaling.csv").write_text(_scaling_csv(rows))
    witness = _witness_report(per_rep)
    (reports / "witness_terms.json").write_text(dump_json(witness))
    dists = {"n": REPORT_N}
    for parity, setting in SETTINGS.items():
        dists[setting] = np.mean([r["dists"][parity] for r in per_rep], axis=0)
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
    report = direct_chain_report(n, noise, run, cfg.effective_repetitions)
    out = Path(cfg.out_dir) / "direct"
    # As in reconstruct: an earlier run's files go first, manifest.json with them.
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bound, stddev = _mean_std(report["bound"])
    odd, even = report["odd"].mean(axis=0), report["even"].mean(axis=0)
    witness = {
        "n": n,
        "odd": _term_entries(n, "odd", odd),
        "even": _term_entries(n, "even", even),
        "odd_avg": float(np.mean(odd)),
        "even_avg": float(np.mean(even)),
        "bound": float(bound),
        "bound_stddev": float(stddev),
    }
    (out / "witness_terms.json").write_text(dump_json(witness))
    # The arrays go to the file as they are: dump_json converts and writes
    # them a slice at a time, so their text is never held whole.
    with open(out / "distributions.json", "w") as stream:
        dump_json({"n": n, **report["distributions"]}, stream)
    summary = "n,odd_avg,even_avg,bound,bound_stddev\n"
    summary += (
        f"{n},{witness['odd_avg']!r},{witness['even_avg']!r},"
        f"{witness['bound']!r},{witness['bound_stddev']!r}\n"
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

    verb("run-jobs", "execute the block job grid", "--seed", "--shots", "--exact")
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
