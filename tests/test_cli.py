"""End-to-end CLI runs: bundles, reports, determinism, exit codes."""

import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaincut import cli
from chaincut.circuit import build_linear_cluster
from chaincut.cli import main
from chaincut.config import MITIGATION_MODES, ExperimentConfig, config_from_dict, load_config
from chaincut.counts import MAX_SHOTS, dump_json
from chaincut.cut import plan_chain_jobs
from chaincut.mitigation import CALIBRATION_MODES
from chaincut.runner import write_calibration
from chaincut.sim import NoiseModel


def write_config(path: Path, **kwargs) -> Path:
    cfg = ExperimentConfig(**kwargs)
    target = path / "config.json"
    target.write_text(dump_json(cfg.to_dict()))
    return target


def read_tree(root: Path, skip_time: bool = True) -> dict[str, bytes]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            if skip_time and p.name in ("scaling.csv",):
                # wall-clock column is the one non-deterministic output
                lines = data.decode().splitlines()
                data = "\n".join(",".join(l.split(",")[:5]) for l in lines).encode()
            out[str(p.relative_to(root))] = data
    return out


def rep_files(run: Path, rep: str = "r00") -> tuple[dict, dict]:
    """The parsed jobs.json and calibration.json (empty if absent) of one repetition."""
    files = [run / "reps" / rep / name for name in ("jobs.json", "calibration.json")]
    return tuple(json.loads(f.read_text()) if f.exists() else {} for f in files)


def entry_files(tree: dict[str, bytes]) -> dict[str, bytes]:
    """Each jobs.json and calibration.json entry of a read_tree, written alone as a file.

    Keyed by the file's path in the layout of one file per job
    (reps/rNN/jobs/<id>.json) and per calibration state
    (reps/rNN/calibration/qN/<bits>.json).
    """
    files = {}
    for name, data in tree.items():
        parent, _, base = name.rpartition("/")
        if base == "jobs.json":
            for job_id, entry in json.loads(data).items():
                files[f"{parent}/jobs/{job_id}.json"] = dump_json(entry).encode()
        elif base == "calibration.json":
            for register, states in json.loads(data).items():
                for bits, entry in states.items():
                    path = f"{parent}/calibration/{register}/{bits}.json"
                    files[path] = dump_json(entry).encode()
    return files


DELETE = object()


def edit_entry(path: Path, keys: tuple[str, ...], change, dump=dump_json) -> None:
    """Replace the entry at ``keys`` of a bundle file by ``change(entry)``; DELETE removes it."""
    d = json.loads(path.read_text())
    *outer, last = keys
    parent = functools.reduce(dict.__getitem__, outer, d)
    value = change(parent[last])
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    path.write_text(dump(d))


def sha256_of(tree: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name, data in sorted(tree.items()):
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


# sha256 of the default-noise sampled bundle in
# TestRunJobs.test_sampled_bundle_matches_golden_digest: every jobs.json and
# calibration.json entry written alone (entry_files).
GOLDEN_SAMPLED_BUNDLE_SHA256 = "7e13f2e4b7c9199755e5b05e2ced3b057c0aadffb554ef7756428b2d3ab6db3a"
# sha256 of the same bundle's jobs.json and calibration.json files.
GOLDEN_SAMPLED_BUNDLE_FILES_SHA256 = "bb480f368ecd4e5280561b6c49271aa0a7088bd2db4498e318b93d537ed7de88"
# sha256 of the sampled direct reports in
# TestDirect.test_sampled_direct_matches_golden_digest.
GOLDEN_SAMPLED_DIRECT_SHA256 = "a6e683dc32a29e0bad257bee57eda74d5f9f36bfa240dc6ebdd9027489aadd86"


# Ids of the job grid, spelled out: the four cut terms' preps as inputs, and
# X or Z on the cut qubit; the Y terms cancel, so no job reads Y or prepares Yp/Ym.
GRID_IDS = sorted(
    [f"4q-{label}-{pattern}-{basis}"
     for label in ("Z0", "Z1", "Xp", "Xm") for pattern in ("XZX", "ZXZ") for basis in "XZ"]
    + [f"3q-{label}-{pattern}" for label in ("Z0", "Z1", "Xp", "Xm") for pattern in ("XZX", "ZXZ")]
)


class TestRunJobs:
    @pytest.mark.parametrize(
        "fields",
        [{"mode": "exact"}, {"mode": "sampled", "shots": 1000, "repetitions": 2}],
        ids=["exact", "sampled"],
    )
    def test_every_jobs_file_holds_the_24_grid_ids(self, tmp_path, fields):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out), **fields)
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        files = sorted(out.glob("reps/r*/jobs.json"))
        assert len(GRID_IDS) == 24 and len(files) == load_config(cfg).effective_repetitions
        for path in files:
            assert sorted(json.loads(path.read_text())) == GRID_IDS

    def test_exact_bundle_layout(self, tmp_path):
        cfg = write_config(tmp_path, mode="exact", out_dir=str(tmp_path / "run"))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        jobs, calibration = rep_files(tmp_path / "run")
        assert list(jobs) == sorted(spec.job_id for spec in plan_chain_jobs())
        assert all("dist" in entry for entry in jobs.values())
        assert calibration == {}

    def test_sampled_writes_calibration(self, tmp_path):
        cfg = write_config(
            tmp_path, mode="sampled", shots=2000, repetitions=2,
            out_dir=str(tmp_path / "run"), seed=11,
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        for rep in ("r00", "r01"):
            jobs, calibration = rep_files(tmp_path / "run", rep)
            assert len(jobs) == 24
            assert sorted(calibration) == ["q3", "q4"]
            assert list(calibration["q3"]) == [f"{j:03b}" for j in range(8)]
            assert list(calibration["q4"]) == [f"{j:04b}" for j in range(16)]

    @pytest.mark.parametrize(
        "fields, calibrated",
        [
            ({"mode": "exact"}, False),
            ({"mode": "sampled", "repetitions": 3}, True),
            ({"mode": "sampled", "repetitions": 2, "f00": None, "f11": None}, False),
            # these modes read no calibration counts, so none are written
            ({"mode": "sampled", "repetitions": 2, "mitigation": "tensor"}, False),
            ({"mode": "sampled", "repetitions": 2, "mitigation": "none"}, False),
        ],
        ids=["exact", "sampled", "sampled-no-rates", "tensor", "none"],
    )
    def test_bundle_holds_two_files_per_repetition(self, tmp_path, fields, calibrated):
        out = tmp_path / "run"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"shots": 1000, "out_dir": str(out), **fields}))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert load_config(cfg).calibrated == calibrated
        expected = ["config.json", "manifest.json"]
        for rep in range(load_config(cfg).effective_repetitions):
            expected.append(f"reps/r{rep:02d}/jobs.json")
            if calibrated:
                expected.append(f"reps/r{rep:02d}/calibration.json")
        assert sorted(read_tree(out)) == sorted(expected)

    def test_sampled_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, mode="sampled", shots=5000, repetitions=1,
            out_dir=str(tmp_path / "a"), seed=21,
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        first = read_tree(tmp_path / "a")
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert read_tree(tmp_path / "a") == first

    def test_sampled_bundle_matches_golden_digest(self, tmp_path):
        # Pins the job and calibration RNG streams across code changes, not
        # only across reruns.  config.json holds out_dir and manifest.json its
        # hash, so both are left out.  Each entry of every rep file, written
        # alone, is hashed, and so are the rep files.
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", mitigation="auto", shots=10_000, repetitions=2,
            seed=20240917, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        tree = read_tree(out)
        del tree["config.json"], tree["manifest.json"]
        assert len(tree) == 2 * 2
        entries = entry_files(tree)
        assert len(entries) == 2 * (24 + 16 + 8)
        assert sha256_of(entries) == GOLDEN_SAMPLED_BUNDLE_SHA256
        assert sha256_of(tree) == GOLDEN_SAMPLED_BUNDLE_FILES_SHA256

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, mode="sampled", shots=1000, out_dir="ignored")
        out = tmp_path / "direct-out"
        assert main(["run-jobs", "--config", str(cfg), "--out", str(out), "--exact"]) == 0
        saved = load_config(out / "config.json")
        assert saved.mode == "exact"
        assert saved.out_dir == str(out)


class TestReconstruct:
    def test_noiseless_reports(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="exact", p1=0.0, p2=0.0, f00=None, f11=None,
            mitigation="none", k_max=3, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        witness = json.loads((out / "reports" / "witness_terms.json").read_text())
        assert witness["n"] == 12
        assert len(witness["odd"]) == 64 and len(witness["even"]) == 64
        for term in witness["odd"] + witness["even"]:
            assert term["mean"] == pytest.approx(1.0, abs=1e-9)
        assert witness["bound"] == pytest.approx(1.0, abs=1e-9)
        csv = (out / "reports" / "scaling.csv").read_text().splitlines()
        assert csv[0] == "n,odd_avg,even_avg,bound,bound_stddev,time_ms"
        assert len(csv) == 4  # header + k = 1..3
        assert csv[1].startswith("9,") and csv[3].startswith("15,")
        dists = json.loads((out / "reports" / "stitched_distributions.json").read_text())
        assert len(dists["XZ"]) == 4096
        assert sum(dists["XZ"]) == pytest.approx(1.0, abs=1e-9)

    def test_k_max_override_reaches_33(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="exact", p1=0.0, p2=0.0, f00=None, f11=None,
            mitigation="none", k_max=1, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out), "--k-max", "9"]) == 0
        csv = (out / "reports" / "scaling.csv").read_text().splitlines()
        assert len(csv) == 10
        assert csv[-1].startswith("33,")

    def test_sweep_past_the_float_range_of_gamma_k(self, tmp_path):
        # At k = 646 the cut one-norm 3^647 overflows a float; the sweep
        # still ends in reports with finite rows.
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out), "--k-max", "646"]) == 0
        csv = (out / "reports" / "scaling.csv").read_text().splitlines()
        assert len(csv) == 647
        n, *values = csv[-1].split(",")
        assert n == "1944" and all(math.isfinite(float(v)) for v in values)

    def test_missing_job_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        victim = out / "reps" / "r00" / "jobs.json"
        edit_entry(victim, ("3q-Xp-XZX",), lambda entry: DELETE)
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(victim) in err and "'3q-Xp-XZX'" in err and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_job_the_plan_does_not_list_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        victim = out / "reps" / "r00" / "jobs.json"
        d = json.loads(victim.read_text())
        d["3q-Xp-XZX-X"] = d["3q-Xp-XZX"]
        victim.write_text(dump_json(d))
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(victim) in err and "'3q-Xp-XZX-X'" in err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bundle_of_one_file_per_job_is_rejected(self, tmp_path, capsys):
        # a repetition's job results are one jobs.json; a jobs/ directory of
        # one file per job is not read
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        rep = out / "reps" / "r00"
        (rep / "jobs").mkdir()
        for job_id, entry in json.loads((rep / "jobs.json").read_text()).items():
            (rep / "jobs" / f"{job_id}.json").write_text(dump_json(entry))
        (rep / "jobs.json").unlink()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(rep / "jobs.json") in err

    @pytest.mark.parametrize("mitigation", ["auto", "tensor"])
    def test_bundle_of_the_earlier_layout_reconstructs(self, tmp_path, mitigation):
        # Earlier bundles also hold the job grid as plan.json and, under
        # tensor and none, a calibration.json of each repetition.  Neither is
        # read, so such a bundle gives the same reports.
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", mitigation=mitigation, shots=1000, repetitions=2,
            k_max=1, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        reports = read_tree(out / "reports")
        jobs = [
            {"id": s.job_id, "form": s.form, "input": s.input, "pattern": s.pattern,
             "cut_basis": s.cut_basis}
            for s in plan_chain_jobs()
        ]
        (out / "plan.json").write_text(dump_json({"jobs": jobs}))
        config = load_config(cfg)
        if not config.calibrated:
            for rep in range(config.repetitions):
                write_calibration(out, rep, config.run_config(), config.noise_model())
        assert len(list((out / "reps").glob("r*/calibration.json"))) == 2
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert read_tree(out / "reports") == reports

    def test_short_readout_list_reconstructs(self, tmp_path):
        # two rates for four-qubit registers: mitigation must cycle the list
        # exactly as the simulator does, not slice too few rates
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", mitigation="tensor", shots=2000, repetitions=1,
            f00=(0.95, 0.93), f11=(0.90, 0.92), k_max=1, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        t4 = json.loads((out / "reports" / "transition_q4.json").read_text())
        assert t4["mode"] == "tensor" and t4["n"] == 4

    @pytest.mark.parametrize(
        "readout",
        [
            {"f00": (0.5,) * 4, "f11": (0.5,) * 4},  # singular confusion matrices
            {"mitigation": "full"},  # exact bundles hold no calibration data
        ],
        ids=["singular-rates", "full-calibration"],
    )
    def test_exact_mode_builds_no_confusion_matrix(self, tmp_path, readout):
        # exact distributions skip TMEM, so readout settings that could not
        # build a confusion matrix must not stop an exact bundle reconstructing
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out), **readout)
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert not list((out / "reports").glob("transition_q*.json"))

    @pytest.mark.parametrize(
        "fields",
        [
            {"f00": None, "f11": None},
            {"f00": [], "f11": []},
            {"f00": None, "f11": None, "p1": 0.0, "p2": 0.0},
        ],
        ids=["null-rates", "empty-rates", "noiseless"],
    )
    def test_sampled_without_readout_rates_skips_tmem(self, tmp_path, fields):
        # such a bundle holds no calibration, so even mitigation "full" must
        # reconstruct it without TMEM instead of looking for calibration files
        out = tmp_path / "run"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "mode": "sampled", "mitigation": "full", "shots": 1000, "repetitions": 1,
            "k_max": 1, "out_dir": str(out), **fields,
        }))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert not (out / "reps" / "r00" / "calibration.json").exists()
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert not list((out / "reports").glob("transition_q*.json"))

    def test_mislabelled_job_file_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        jobs = out / "reps" / "r00" / "jobs.json"
        d = json.loads(jobs.read_text())
        d["4q-Xp-XZX-X"], d["4q-Xp-XZX-Z"] = d["4q-Xp-XZX-Z"], d["4q-Xp-XZX-X"]
        jobs.write_text(dump_json(d))
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(jobs) in err and "'4q-Xp-XZX-X'" in err

    def test_sampled_full_calibration_pipeline(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", shots=200_000, repetitions=2, seed=5,
            mitigation="auto", k_max=2, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        # transition matrices exported in full-calibration mode
        t4 = json.loads((out / "reports" / "transition_q4.json").read_text())
        assert t4["mode"] == "full" and t4["n"] == 4
        witness = json.loads((out / "reports" / "witness_terms.json").read_text())
        assert witness["odd"][0]["std"] >= 0.0
        assert 0.0 < witness["bound"] < 1.0

    def test_reconstruct_without_bundle_fails_cleanly(self, tmp_path, capsys):
        assert main(["reconstruct", "--out", str(tmp_path / "nothing")]) == 1

    def test_stale_repetition_is_rejected(self, tmp_path, capsys):
        # run-jobs removes the repetitions it did not write, but one copied in
        # by hand is rejected, not averaged in
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", repetitions=2, shots=1000, k_max=1, out_dir=str(out)
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        shutil.copytree(out / "reps" / "r01", out / "reps" / "r02")
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "extra r02" in err
        assert not (out / "reports").exists()

    def test_missing_repetition_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", repetitions=3, shots=1000, k_max=1, out_dir=str(out)
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        shutil.rmtree(out / "reps" / "r01")
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        assert "missing r01" in capsys.readouterr().err


class TestWholeOutputs:
    """manifest.json goes first and comes back last, so it marks a verb's whole output.

    A rerun into an old directory also deletes what the earlier run wrote
    and this one did not.
    """

    SAMPLED = dict(mode="sampled", shots=1000, k_max=1)

    def test_killed_rerun_cannot_be_reconstructed(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        fields = dict(self.SAMPLED, repetitions=5, out_dir=str(out))
        assert main(["run-jobs", "--config", str(write_config(tmp_path, seed=1, **fields))]) == 0
        write = cli.write_job_result

        def dies_at_rep_3(bundle_dir, rep, *job):
            if rep == 3:
                raise OSError("killed at repetition 3")
            write(bundle_dir, rep, *job)

        # the repetitions run in this process, so they see the patch
        monkeypatch.setattr(cli, "write_job_result", dies_at_rep_3)
        assert main(["run-jobs", "--config", str(write_config(tmp_path, seed=2, **fields))]) == 1
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(out / "manifest.json") in err

    def test_smaller_rerun_reconstructs_from_its_own_repetitions(self, tmp_path):
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        first = write_config(tmp_path, **self.SAMPLED, repetitions=3, out_dir=str(out))
        assert main(["run-jobs", "--config", str(first)]) == 0
        second = write_config(tmp_path, **self.SAMPLED, repetitions=2, seed=99, out_dir=str(out))
        assert main(["run-jobs", "--config", str(second)]) == 0
        assert sorted(p.name for p in (out / "reps").iterdir()) == ["r00", "r01"]
        assert main(["reconstruct", "--out", str(out)]) == 0
        # the same as the same run into an empty directory
        assert main(["run-jobs", "--config", str(second), "--out", str(fresh)]) == 0
        assert main(["reconstruct", "--out", str(fresh)]) == 0
        assert read_tree(out / "reps") == read_tree(fresh / "reps")
        reports, fresh_reports = read_tree(out / "reports"), read_tree(fresh / "reports")
        del reports["manifest.json"], fresh_reports["manifest.json"]  # out_dir is hashed
        assert reports == fresh_reports

    def test_rerun_without_calibration_removes_it(self, tmp_path):
        out = tmp_path / "run"
        sampled = write_config(tmp_path, **self.SAMPLED, repetitions=2, out_dir=str(out))
        assert main(["run-jobs", "--config", str(sampled)]) == 0
        assert (out / "reps" / "r00" / "calibration.json").is_file()
        exact = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(exact)]) == 0
        assert [p.name for p in (out / "reps").iterdir()] == ["r00"]
        assert not (out / "reps" / "r00" / "calibration.json").exists()
        assert main(["reconstruct", "--out", str(out)]) == 0

    def test_rerun_without_matrices_leaves_no_transition_file(self, tmp_path):
        out = tmp_path / "run"
        for mitigation, files in (("auto", 2), ("none", 0)):
            cfg = write_config(
                tmp_path, **self.SAMPLED, repetitions=1, mitigation=mitigation, out_dir=str(out)
            )
            assert main(["run-jobs", "--config", str(cfg)]) == 0
            assert main(["reconstruct", "--out", str(out)]) == 0
            assert len(list((out / "reports").glob("transition_q*.json"))) == files

    def test_rerun_unmarks_the_earlier_reports(self, tmp_path):
        # reports built from the bundle a rerun replaces are no longer whole
        out = tmp_path / "run"
        cfg = write_config(tmp_path, **self.SAMPLED, repetitions=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert main(["run-jobs", "--config", str(cfg), "--seed", "2"]) == 0
        assert (out / "manifest.json").exists()
        assert not (out / "reports" / "manifest.json").exists()

    def test_failed_reconstruct_leaves_reports_unmarked(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, **self.SAMPLED, repetitions=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert (out / "reports" / "manifest.json").exists()

        def fails(per_rep):
            raise OSError("killed while writing reports")

        monkeypatch.setattr(cli, "_witness_report", fails)
        assert main(["reconstruct", "--out", str(out)]) == 1
        assert (out / "reports" / "scaling.csv").exists()
        assert not (out / "reports" / "manifest.json").exists()

    def test_failed_direct_leaves_no_earlier_output(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", out_dir=str(out))
        assert main(["direct", "--config", str(cfg), "--n", "9"]) == 0
        assert (out / "direct" / "manifest.json").exists()
        dump = cli.dump_json

        def fails_on_distributions(obj, stream=None):
            if stream is not None:  # only distributions.json is streamed
                raise OSError("killed while writing distributions.json")
            return dump(obj)

        monkeypatch.setattr(cli, "dump_json", fails_on_distributions)
        assert main(["direct", "--config", str(cfg), "--n", "12"]) == 1
        left = {p.name for p in (out / "direct").iterdir()}
        assert "manifest.json" not in left and "summary.csv" not in left
        assert json.loads((out / "direct" / "witness_terms.json").read_text())["n"] == 12


# (mode, field, edit): job-file edits that int(), float() or "".join() would
# read back as the file run-jobs wrote.
COERCIBLE = {
    "string-shots": ("sampled", "shots", str),
    "fractional-count": ("sampled", "counts", lambda c: {**c, min(c): c[min(c)] + 0.9}),
    "string-meas": ("sampled", "meas", "".join),
    "float-n": ("sampled", "n", float),
    "string-dist": ("exact", "dist", lambda p: [repr(x) for x in p]),
    "float-n-exact": ("exact", "n", float),
}


class TestBundleIntegrity:
    """Entries that disagree with the bundle's config.json are rejected, naming file and entry."""

    @staticmethod
    def bundle(tmp_path: Path, mode: str, **fields) -> Path:
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode=mode, shots=2000, repetitions=1, k_max=1, seed=4, out_dir=str(out),
            **fields,
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        return out

    @staticmethod
    def double_shots(entry: dict) -> dict:
        # still a valid counts entry, with the same frequencies
        return {**entry, "shots": 2 * entry["shots"],
                "counts": {b: 2 * c for b, c in entry["counts"].items()}}

    def assert_rejected(self, out: Path, capsys, *names: str) -> None:
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        for name in names:
            assert name in err, (name, err)
        assert not (out / "reports").exists()

    def test_job_file_shots_differ_from_config(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "jobs.json"
        edit_entry(victim, ("4q-Xp-XZX-Z",), self.double_shots)
        self.assert_rejected(out, capsys, str(victim), "'4q-Xp-XZX-Z'")

    def test_calibration_file_shots_differ_from_config(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "calibration.json"
        edit_entry(victim, ("q4", "0101"), self.double_shots)
        self.assert_rejected(out, capsys, str(victim), "'q4'", "'0101'")

    def test_calibration_file_meas_is_not_z(self, tmp_path, capsys):
        # every calibration entry is a Z-basis readout of a prepared basis state
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "calibration.json"
        edit_entry(victim, ("q4", "0101"), lambda e: {**e, "meas": ["X", "Y", "X", "Y"]})
        self.assert_rejected(out, capsys, str(victim), "'0101'")

    @pytest.mark.parametrize(
        "keys", [("q4",), ("q3",), ("q4", "0000"), ("q4", "0011"), ("q3", "111")],
        ids=lambda keys: "-".join(keys),
    )
    def test_calibration_file_missing_entry(self, tmp_path, capsys, keys):
        # a register or a basis state missing from calibration.json, under
        # auto mitigation: the confusion matrix needs every column
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "calibration.json"
        edit_entry(victim, keys, lambda entry: DELETE)
        self.assert_rejected(out, capsys, str(victim), f"no entry {keys[-1]!r}")

    @pytest.mark.parametrize("keys", [("q5",), ("q4", "01010")], ids=["register", "state"])
    def test_calibration_file_extra_entry(self, tmp_path, capsys, keys):
        out = self.bundle(tmp_path, "sampled", mitigation="full")
        victim = out / "reps" / "r00" / "calibration.json"
        d = json.loads(victim.read_text())
        (d if len(keys) == 1 else d[keys[0]])[keys[-1]] = {}
        victim.write_text(dump_json(d))
        self.assert_rejected(out, capsys, str(victim), repr(keys[-1]))

    def test_exact_bundle_holding_counts(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "exact")
        victim = out / "reps" / "r00" / "jobs.json"
        counts = {"n": 3, "meas": ["X", "Z", "X"], "shots": 8, "counts": {"000": 8}}
        edit_entry(victim, ("3q-Xp-XZX",), lambda entry: counts)
        self.assert_rejected(out, capsys, str(victim), "'3q-Xp-XZX'")

    def test_sampled_bundle_holding_dist(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "jobs.json"
        dist = {"n": 3, "meas": ["X", "Z", "X"], "dist": [0.125] * 8}
        edit_entry(victim, ("3q-Xp-XZX",), lambda entry: dist)
        self.assert_rejected(out, capsys, str(victim), "'3q-Xp-XZX'")

    def test_exact_job_file_dist_of_wrong_length(self, tmp_path, capsys):
        # a 3-qubit distribution in the entry of a 4-qubit job
        out = self.bundle(tmp_path, "exact")
        victim = out / "reps" / "r00" / "jobs.json"
        edit_entry(victim, ("4q-Xp-XZX-Z",), lambda e: {**e, "dist": [0.125] * 8})
        self.assert_rejected(out, capsys, str(victim), "'4q-Xp-XZX-Z'")

    def test_config_does_not_match_manifest_hash(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "exact")
        cfg = json.loads((out / "config.json").read_text())
        cfg["seed"] += 1
        (out / "config.json").write_text(dump_json(cfg))
        self.assert_rejected(out, capsys, "config.json does not match the config_sha256")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_in_exact_job_file(self, tmp_path, capsys, value):
        # Python's json reads NaN and Infinity; a distribution holding one
        # must be rejected, not passed on to the simplex projection
        out = self.bundle(tmp_path, "exact")
        victim = out / "reps" / "r00" / "jobs.json"
        edit_entry(victim, ("3q-Xp-XZX",), lambda e: {**e, "dist": [value, *e["dist"][1:]]},
                   dump=json.dumps)
        self.assert_rejected(out, capsys, str(victim), "'3q-Xp-XZX'")

    def test_directory_in_place_of_job_file(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "jobs.json"
        victim.unlink()
        victim.mkdir()
        self.assert_rejected(out, capsys, str(victim))

    @pytest.mark.parametrize("mitigation", CALIBRATION_MODES)
    def test_missing_calibration_directory(self, tmp_path, capsys, mitigation):
        # run-jobs writes a calibration.json for each repetition of a sampled
        # config with rates under these modes, so a bundle without one is malformed
        out = self.bundle(tmp_path, "sampled", mitigation=mitigation)
        victim = out / "reps" / "r00" / "calibration.json"
        victim.unlink()
        self.assert_rejected(out, capsys, str(victim))

    def test_one_repetition_missing_calibration_directory(self, tmp_path, capsys):
        # rejected, not averaged: mitigating r00 from rates and r01 from its
        # calibration would mix two processings into one bound
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", shots=2000, repetitions=2, k_max=1, seed=7,
            out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        victim = out / "reps" / "r00" / "calibration.json"
        victim.unlink()
        self.assert_rejected(out, capsys, str(victim))

    @pytest.mark.parametrize("mitigation", ["tensor", "none"])
    def test_unparsable_calibration_file_unused_by_mode(self, tmp_path, capsys, mitigation):
        # these modes build no matrix from calibration counts: run-jobs writes
        # no calibration.json, and a stray one is not read, so the reports
        # keep their bytes
        out = self.bundle(tmp_path, "sampled", mitigation=mitigation)
        assert main(["reconstruct", "--out", str(out)]) == 0
        intact = read_tree(out / "reports")
        (out / "reps" / "r00" / "calibration.json").write_text("not json")
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert read_tree(out / "reports") == intact

    @pytest.mark.parametrize("case", sorted(COERCIBLE))
    def test_bundle_numbers_are_checked_not_coerced(self, tmp_path, capsys, case):
        mode, field, change = COERCIBLE[case]
        out = self.bundle(tmp_path, mode)
        victim = out / "reps" / "r00" / "jobs.json"
        edit_entry(victim, ("3q-Xp-XZX",), lambda e: {**e, field: change(e[field])},
                   dump=json.dumps)
        self.assert_rejected(out, capsys, str(victim), "'3q-Xp-XZX'")

    def test_each_bundle_file_is_parsed_once(self, tmp_path, monkeypatch):
        out = self.bundle(tmp_path, "sampled")
        bundle_files = {p.relative_to(out) for p in out.rglob("*.json")}
        assert len(bundle_files) == 2 + 2
        reads = collections.Counter()
        path_open = Path.open

        def counting_open(path, mode="r", *args, **kwargs):
            if "r" in mode:
                reads[path.relative_to(out)] += 1
            return path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert dict(reads) == dict.fromkeys(bundle_files, 1)


class TestParallelRepetitions:
    """Every verb runs its repetitions one after another in its own process.

    Neither the outputs nor the error reported depend on the CPUs the
    process may use, and an error in any repetition is one message line.
    """

    SAMPLED = dict(mode="sampled", repetitions=3, shots=2000, k_max=2, seed=5, out_dir="run")

    @staticmethod
    def chaincut(cwd: Path, env: dict, *argv, cpus=None) -> subprocess.CompletedProcess:
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        return subprocess.run(
            [sys.executable, "-m", "chaincut.cli", *argv], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120, preexec_fn=pin,
        )

    def test_same_bytes_on_one_cpu_and_on_all(self, tmp_path, child_env):
        trees = []
        for name, cpus in (("one", {min(os.sched_getaffinity(0))}), ("all", None)):
            work = tmp_path / name
            work.mkdir()
            write_config(work, **self.SAMPLED)
            for argv in (("run-jobs", "--config", "config.json"), ("reconstruct", "--out", "run")):
                proc = self.chaincut(work, child_env, *argv, cpus=cpus)
                assert proc.returncode == 0, proc.stderr
            trees.append(read_tree(work / "run"))
        assert len(trees[0]) == 2 + 3 * 2 + 6
        assert trees[0] == trees[1]

    def test_bad_job_file_in_last_repetition(self, tmp_path, child_env):
        write_config(tmp_path, **self.SAMPLED)
        assert self.chaincut(tmp_path, child_env, "run-jobs", "--config", "config.json").returncode == 0
        victim = tmp_path / "run" / "reps" / "r02" / "jobs.json"
        edit_entry(victim, ("4q-Xp-XZX-Z",), lambda e: {**e, "meas": ["X", "X", "X", "X"]})
        proc = self.chaincut(tmp_path, child_env, "reconstruct", "--out", "run")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert str(Path("run") / "reps" / "r02" / "jobs.json") in proc.stderr
        assert "'4q-Xp-XZX-Z'" in proc.stderr

    def test_first_failing_repetition_is_reported(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, **{**self.SAMPLED, "out_dir": str(out)})
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        dist = {"n": 3, "meas": ["Z", "Z", "Z"], "dist": [0.125] * 8}
        for rep in ("r01", "r02"):
            edit_entry(out / "reps" / rep / "jobs.json", ("3q-Xp-XZX",), lambda entry: dist)
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err.replace(str(tmp_path), "")
        assert str(Path("r01") / "jobs.json") in err and "r02" not in err

    def test_singular_calibration_in_one_process(self, tmp_path, child_env):
        write_config(
            tmp_path, **{**self.SAMPLED, "f00": (0.5,) * 4, "f11": (0.5,) * 4},
            mitigation="tensor",
        )
        assert self.chaincut(tmp_path, child_env, "run-jobs", "--config", "config.json").returncode == 0
        proc = self.chaincut(tmp_path, child_env, "reconstruct", "--out", "run")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("numerical error:") and proc.stderr.count("\n") == 1

    def test_cli_import_does_not_load_multiprocessing(self, child_env):
        code = (
            "import sys; import chaincut.cli; "
            "sys.exit(1 if {'multiprocessing', 'concurrent.futures'} & set(sys.modules) else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env)
        assert proc.returncode == 0, proc.stderr.decode()


class TestDirect:
    def test_noiseless_direct(self, tmp_path):
        out = tmp_path / "ref"
        cfg = write_config(
            tmp_path, mode="exact", p1=0.0, p2=0.0, f00=None, f11=None,
            out_dir=str(out),
        )
        assert main(["direct", "--config", str(cfg), "--n", "12"]) == 0
        witness = json.loads((out / "direct" / "witness_terms.json").read_text())
        assert witness["bound"] == pytest.approx(1.0, abs=1e-12)
        assert len(witness["odd"]) == 64
        dists = json.loads((out / "direct" / "distributions.json").read_text())
        assert len(dists["XZ"]["mitigated"]) == 4096

    def test_sampled_direct_matches_golden_digest(self, tmp_path):
        # Pins the per-repetition sampling streams (9000 + rep) across code
        # changes; manifest.json holds the config hash and is left out.
        out = tmp_path / "ref"
        cfg = write_config(
            tmp_path, mode="sampled", shots=10_000, repetitions=3, seed=20240917,
            out_dir=str(out),
        )
        assert main(["direct", "--config", str(cfg), "--n", "9"]) == 0
        digest = hashlib.sha256()
        for name in ("witness_terms.json", "distributions.json", "summary.csv"):
            digest.update(name.encode() + b"\0" + (out / "direct" / name).read_bytes() + b"\0")
        assert digest.hexdigest() == GOLDEN_SAMPLED_DIRECT_SHA256

    def test_direct_bytes_do_not_depend_on_blas_threads(self, tmp_path, child_env):
        # OpenBLAS splits long products over its threads; at n = 15 the
        # reports must not depend on how it splits them.
        reports = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            cfg = write_config(tmp_path, mode="sampled", repetitions=5, out_dir=str(out))
            subprocess.run(
                [sys.executable, "-m", "chaincut.cli", "direct", "--config", str(cfg), "--n", "15"],
                env={**child_env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, check=True, timeout=300,
            )
            reports[threads] = {
                name: (out / "direct" / name).read_bytes()
                for name in ("witness_terms.json", "distributions.json", "summary.csv")
            }
        for name, data in reports["1"].items():
            assert data == reports["2"][name], name

    def test_direct_exceeding_cap_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode="exact", out_dir=str(tmp_path / "x"))
        assert main(["direct", "--config", str(cfg), "--n", "27"]) == 1

    @pytest.mark.parametrize("noise", [{}, {"p1": 0.0, "p2": 0.0}], ids=["noisy", "noiseless"])
    def test_direct_one_past_cap_fails(self, tmp_path, capsys, noise):
        # noisy and noiseless direct share the one cap of 24 qubits
        out = tmp_path / "x"
        cfg = write_config(tmp_path, mode="exact", out_dir=str(out), **noise)
        assert main(["direct", "--config", str(cfg), "--n", "25"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "24 qubits" in err
        assert not out.exists()

    def test_noisy_direct_runs_past_sixteen_qubits(self, tmp_path):
        out = tmp_path / "ref"
        cfg = write_config(tmp_path, out_dir=str(out))
        assert main(["direct", "--config", str(cfg), "--exact", "--n", "17"]) == 0
        witness = json.loads((out / "direct" / "witness_terms.json").read_text())
        # the bound falls below 0 from 15 qubits at default noise
        assert witness["n"] == 17 and -1.0 < witness["bound"] < 0.0

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_direct_too_short_writes_nothing(self, tmp_path, capsys, n):
        out = tmp_path / "x"
        cfg = write_config(tmp_path, mode="exact", out_dir=str(out))
        assert main(["direct", "--config", str(cfg), "--n", n]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "n >= 2" in err
        assert not (out / "direct").exists()

    @pytest.mark.parametrize("mode", ["sampled", "exact"])
    def test_ill_conditioned_readout_is_numerical_error(self, tmp_path, capsys, mode):
        # direct's factored TMEM is held to the block path's condition-number
        # limit: these rates give about 1.9e7 for four qubits, 2.3e14 for six
        out = tmp_path / "ref"
        cfg = write_config(
            tmp_path, mode=mode, shots=10_000, repetitions=1, out_dir=str(out),
            f00=(0.5000001, 0.95, 0.95, 0.95), f11=(0.5, 0.9, 0.9, 0.9),
        )
        assert main(["direct", "--config", str(cfg), "--n", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1
        assert "condition number" in err
        assert not out.exists()


class TestErrors:
    def test_unknown_config_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"modee": "exact"}')
        assert main(["run-jobs", "--config", str(bad)]) == 1

    def test_negative_seed_override_writes_nothing(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run-jobs", "--seed", "-1", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--shots", "5"],
            ["reconstruct", "--exact"],
        ],
    )
    def test_verbs_take_only_the_options_they_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb", ["calibrate", "scaling"])
    def test_removed_verb_is_unknown(self, tmp_path, capsys, verb):
        # run-jobs writes the calibration; reconstruct writes the sweep
        with pytest.raises(SystemExit) as exc:
            main([verb, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_rate_lists_are_no_readout_rates(self):
        empty = config_from_dict({"f00": [], "f11": []})
        assert empty.readout is None and empty.noise_model().readout is None
        noiseless = config_from_dict({"f00": [], "f11": [], "p1": 0.0, "p2": 0.0}).noise_model()
        assert noiseless == NoiseModel(0.0, 0.0, None)
        assert all(insertions == () for _, insertions in noiseless.schedule(build_linear_cluster(4)))
        # config.json keeps the lists as written, and so does its hash
        assert empty.to_dict()["f00"] == []
        assert empty.sha256() != config_from_dict({"f00": None, "f11": None}).sha256()

    def test_error_while_drawing_a_job_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr("chaincut.runner.sample_counts", boom)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="sampled", shots=100, out_dir=str(out), repetitions=1)
        assert main(["run-jobs", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: boom\n"
        assert not (out / "manifest.json").exists()

    def test_reconstruct_needs_a_bundle(self, capsys):
        assert main(["reconstruct"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "needs --out" in err

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run-jobs", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("verb", ["run-jobs", "direct"])
    def test_deeply_nested_config_is_one_error_line(self, tmp_path, capsys, verb):
        bad = tmp_path / "nested.json"
        bad.write_bytes(NESTED)
        assert main([verb, "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(bad) in err
        assert not (tmp_path / "run").exists()

    def test_largest_shot_count_reconstructs(self, tmp_path):
        # every count of a calibration file stays readable (<= MAX_SHOTS)
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", shots=MAX_SHOTS, k_max=1, repetitions=1, out_dir=str(out)
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 0

    def test_singular_readout_is_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", shots=1000,
            f00=(0.5, 0.5, 0.5, 0.5), f11=(0.5, 0.5, 0.5, 0.5),
            mitigation="tensor", k_max=1, out_dir=str(out), repetitions=1,
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        assert main(["reconstruct", "--out", str(out)]) == 2
        assert "condition number" in capsys.readouterr().err

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config_from_dict({"mode": "both"})
        with pytest.raises(ValueError):
            config_from_dict({"k_max": 0})
        with pytest.raises(ValueError):
            config_from_dict({"f00": [0.9], "f11": None})
        with pytest.raises(ValueError):
            config_from_dict({"f00": [1.5], "f11": [0.9]})
        # in range for JSON, out of range for SeedSequence and multinomial
        with pytest.raises(ValueError, match="seed"):
            config_from_dict({"mode": "sampled", "seed": -1})
        for shots in (2**62, 10**20):
            with pytest.raises(ValueError, match="shots"):
                config_from_dict({"mode": "sampled", "shots": shots})
        # mistyped, then well typed but out of range
        named = [
            ("f00", {"f00": 0.9, "f11": 0.9}),
            ("k_max", {"k_max": "9"}),
            ("shots", {"shots": True, "mode": "sampled"}),
            ("p1", {"p1": False}),
            ("f11", {"f00": [0.9], "f11": [True]}),
            ("mode", {"mode": 1}),
            ("seed", {"seed": 1.0}),
            ("mitigation", {"mitigation": "bogus"}),
            ("repetitions", {"repetitions": 0}),
            ("p1", {"p1": 1.5}),
            ("p2", {"p2": -0.1}),
        ]
        for field, d in named:
            with pytest.raises(ValueError, match=field):
                config_from_dict(d)

    @pytest.mark.parametrize(
        "fields",
        [
            {"f00": 0.9, "f11": 0.9},
            {"k_max": "9"},
            {"shots": True, "mode": "sampled"},
            {"mode": "sampled", "seed": -1},
            {"mode": "sampled", "shots": 10**20},
        ],
        ids=["scalar-rates", "string-int", "bool-shots", "negative-seed", "huge-shots"],
    )
    def test_mistyped_field_is_one_error_line(self, tmp_path, child_env, fields):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fields))
        proc = subprocess.run(
            [sys.executable, "-m", "chaincut.cli", "run-jobs", "--config", str(bad)],
            capture_output=True, text=True, env=child_env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=10,
)
# values near the valid ones, so that accepted configs are explored too
PLAUSIBLE = (
    st.sampled_from(["exact", "sampled", "auto", "tensor", "full", "none"])
    | st.integers(-2, 30) | st.floats(0.0, 1.0)
    | st.lists(st.floats(0.0, 1.0) | st.just(10**400), max_size=4)
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(sorted(ExperimentConfig().to_dict())), JSON_VALUES | PLAUSIBLE))
def test_config_from_dict_returns_config_or_raises_value_error(d):
    try:
        cfg = config_from_dict(d)
    except ValueError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert config_from_dict(cfg.to_dict()) == cfg


@st.composite
def small_configs(draw):
    """Small runnable configs: every mode and mitigation, rates null, empty or in range."""
    n_rates = draw(st.none() | st.integers(0, 4))
    rates = st.lists(st.floats(0.0, 1.0), min_size=n_rates or 0, max_size=n_rates or 0)
    rate = st.just(0.0) | st.floats(0.0, 1.0)
    return {
        "mode": draw(st.sampled_from(["exact", "sampled"])),
        "mitigation": draw(st.sampled_from(MITIGATION_MODES)),
        "shots": draw(st.integers(1, 64)),
        "repetitions": draw(st.integers(1, 2)),
        "k_max": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**32)),
        "p1": draw(rate),
        "p2": draw(rate),
        "f00": None if n_rates is None else draw(rates),
        "f11": None if n_rates is None else draw(rates),
    }


NO_RATES = {"mode": "sampled", "mitigation": "full", "shots": 64, "repetitions": 1, "k_max": 1}


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(small_configs())
@example({**NO_RATES, "f00": None, "f11": None})
@example({**NO_RATES, "f00": [], "f11": []})
@example({**NO_RATES, "f00": None, "f11": None, "p1": 0.0, "p2": 0.0})
def test_every_accepted_config_runs_and_reconstructs(d):
    try:
        config_from_dict(d)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({**d, "out_dir": str(out)}))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--out", str(out)])
        # run-jobs writes calibration exactly for the configs reconstruct reads it for
        config = config_from_dict(d)
        assert config.calibrated == any((out / "reps").glob("r*/calibration.json"))
        # a confusion matrix sampled from a few calibration shots, or built
        # from the configured rates, can be singular
        if code == 2 and config.mode == "sampled" and config.readout is not None:
            assert err.getvalue().startswith("numerical error:") and err.getvalue().count("\n") == 1
        else:
            assert code == 0, (d, err.getvalue())


# What a malformation test changes: a bundle file, and the entry in it that
# a "value" or "field" change hits (() for the file's top level).  Every kind
# of file and entry that reconstruct reads.
MALFORMABLE = (
    ("config.json", ()),
    ("manifest.json", ()),
    ("reps/r00/jobs.json", ()),
    ("reps/r00/jobs.json", ("4q-Xp-XZX-Z",)),
    ("reps/r00/calibration.json", ()),
    ("reps/r00/calibration.json", ("q4",)),
    ("reps/r00/calibration.json", ("q4", "0101")),
)


@pytest.fixture(scope="module")
def malformable_bundle(tmp_path_factory) -> Path:
    """A one-repetition sampled bundle, so that reconstruct runs in this process."""
    out = tmp_path_factory.mktemp("malformable") / "run"
    cfg = write_config(
        out.parent, mode="sampled", shots=500, repetitions=1, k_max=1, seed=3, out_dir=str(out)
    )
    assert main(["run-jobs", "--config", str(cfg)]) == 0
    return out


JOBS, JOB, CALIBRATION, STATE = MALFORMABLE[2], MALFORMABLE[3], MALFORMABLE[4], MALFORMABLE[6]
# Every field or entry key of the objects in MALFORMABLE, so that a change can hit any of them.
FIELDS = sorted(
    {*ExperimentConfig().to_dict(), "command", "package", "version", "config_sha256",
     "n", "meas", "shots", "counts", "dist", "4q-Xp-XZX-Z", "q3", "q4", "0101", "000"}
)
CHANGES = (
    st.tuples(st.just("value"), JSON_VALUES)
    | st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True))
    | st.tuples(st.just("field"), st.sampled_from(FIELDS), st.just(DELETE) | JSON_VALUES)
    | st.tuples(st.just("bytes"), st.binary(max_size=64))
)
# valid JSON nested past the parser's recursion limit
NESTED = b"[" * 100_000 + b"]" * 100_000


def _changed(original: bytes, keys: tuple[str, ...], change: tuple) -> bytes:
    """The file's bytes after ``change``: its entry at ``keys`` changed, or the whole file."""
    if change[0] == "bytes":
        return change[1]
    if change[0] == "truncate":
        # every bundle file ends in "}\n", so no proper prefix short of it is valid JSON
        return original[: int(change[1] * (len(original) - 1))]
    if change[0] == "value" and not keys:
        return json.dumps(change[1]).encode()
    d = json.loads(original)
    if change[0] == "value":
        *outer, last = keys
        functools.reduce(dict.__getitem__, outer, d)[last] = change[1]
    else:
        entry = functools.reduce(dict.__getitem__, keys, d)
        if change[2] is DELETE:
            entry.pop(change[1], None)
        else:
            entry[change[1]] = change[2]
    return json.dumps(d).encode()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(target=st.sampled_from(MALFORMABLE), change=CHANGES)
@example(target=JOB, change=("value", []))
@example(target=JOB, change=("bytes", NESTED))
@example(target=JOB, change=("value", {"n": 3, "meas": 5}))
@example(target=JOB, change=("value", {"n": 4, "meas": ["X", "Z", "X", "Z"]}))
@example(target=JOB, change=("field", "shots", DELETE))
@example(target=JOB, change=("field", "counts", [1]))
@example(target=JOB, change=("field", "counts", {"0000": None}))
@example(target=JOB, change=("field", "n", 10**9))
@example(target=JOBS, change=("value", []))
@example(target=JOBS, change=("field", "4q-Xp-XZX-Z", DELETE))
@example(target=JOBS, change=("field", "q4", {}))
@example(target=CALIBRATION, change=("field", "q4", DELETE))
@example(target=MALFORMABLE[5], change=("field", "0101", DELETE))
@example(target=STATE, change=("value", []))
@example(target=STATE, change=("field", "shots", DELETE))
@example(target=STATE, change=("field", "counts", {"0101": 1}))
@example(target=("manifest.json", ()), change=("value", []))
def test_malformed_bundle_file_is_one_error_line(malformable_bundle, target, change):
    """A changed bundle file gives exit 1 and one error line naming it, never a traceback.

    The line also names the changed entry.  An arbitrary value, arbitrary
    bytes or a truncation is always rejected; a changed field may also
    leave a file that reconstructs (an unchecked manifest field, or a value
    that happens to be valid), or calibration counts that give a singular
    confusion matrix.
    """
    name, keys = target
    path = malformable_bundle / name
    original = path.read_bytes()
    path.write_bytes(_changed(original, keys, change))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--out", str(malformable_bundle)])
    finally:
        path.write_bytes(original)
    err = err.getvalue()
    if change[0] == "field" and code == 0:
        return
    if change[0] == "field" and code == 2:
        assert err.startswith("numerical error:") and err.count("\n") == 1
        return
    assert code == 1, (change, err)
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err, err
    if change[0] in ("value", "field"):
        assert all(repr(key) in err for key in keys), err
