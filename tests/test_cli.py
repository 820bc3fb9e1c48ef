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

from chaincut.circuit import build_linear_cluster
from chaincut.cli import _map_reps, main
from chaincut.config import MITIGATION_MODES, ExperimentConfig, config_from_dict, load_config
from chaincut.counts import MAX_SHOTS, dump_json
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


# sha256 of the default-noise sampled bundle in
# TestRunJobs.test_sampled_bundle_matches_golden_digest.
GOLDEN_SAMPLED_BUNDLE_SHA256 = "acf0b8b57ade56ed24b3bd0ebb7b88e3b2da7872bbb0ff4fb453057aa7fb61ee"
# sha256 of the sampled direct reports in
# TestDirect.test_sampled_direct_matches_golden_digest.
GOLDEN_SAMPLED_DIRECT_SHA256 = "e24b79a4a5e4d9661ebb4048c2f4439040c77000dd861f9e5452399adbfa5fa4"


class TestRunJobs:
    def test_exact_bundle_layout(self, tmp_path):
        cfg = write_config(tmp_path, mode="exact", out_dir=str(tmp_path / "run"))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        assert (run / "plan.json").exists()
        assert (run / "config.json").exists()
        assert (run / "manifest.json").exists()
        jobs = list((run / "reps" / "r00" / "jobs").glob("*.json"))
        assert len(jobs) == 48

    def test_sampled_writes_calibration(self, tmp_path):
        cfg = write_config(
            tmp_path, mode="sampled", shots=2000, repetitions=2,
            out_dir=str(tmp_path / "run"), seed=11,
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        for rep in ("r00", "r01"):
            assert len(list((tmp_path / "run" / "reps" / rep / "jobs").glob("*.json"))) == 48
            assert len(list((tmp_path / "run" / "reps" / rep / "calibration" / "q4").glob("*.json"))) == 16
            assert len(list((tmp_path / "run" / "reps" / rep / "calibration" / "q3").glob("*.json"))) == 8

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
        # hash, so both are left out; plan.json and every rep file are hashed.
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", mitigation="auto", shots=10_000, repetitions=2,
            seed=20240917, out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        tree = read_tree(out)
        del tree["config.json"], tree["manifest.json"]
        assert len(tree) == 1 + 2 * (48 + 16 + 8)
        digest = hashlib.sha256()
        for name, data in sorted(tree.items()):
            digest.update(name.encode() + b"\0" + data + b"\0")
        assert digest.hexdigest() == GOLDEN_SAMPLED_BUNDLE_SHA256

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

    def test_missing_job_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        victim = out / "reps" / "r00" / "jobs" / "3q-Xp-XZX.json"
        victim.unlink()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(victim) in err and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

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
        assert not (out / "reps" / "r00" / "calibration").exists()
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert not list((out / "reports").glob("transition_q*.json"))

    def test_mislabelled_job_file_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, mode="exact", k_max=1, out_dir=str(out))
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        jobs = out / "reps" / "r00" / "jobs"
        x_file, z_file = jobs / "4q-Xp-XZX-X.json", jobs / "4q-Xp-XZX-Z.json"
        x_bytes, z_bytes = x_file.read_bytes(), z_file.read_bytes()
        x_file.write_bytes(z_bytes)
        z_file.write_bytes(x_bytes)
        assert main(["reconstruct", "--out", str(out)]) == 1
        assert "4q-Xp-XZX-X.json" in capsys.readouterr().err

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
        # a smaller run into the same out_dir leaves the first run's r02 behind;
        # averaging it in would mix two configs into one bound
        out = tmp_path / "run"
        first = write_config(
            tmp_path, mode="sampled", repetitions=3, shots=1000, k_max=1, out_dir=str(out)
        )
        assert main(["run-jobs", "--config", str(first)]) == 0
        second = write_config(
            tmp_path, mode="sampled", repetitions=2, shots=1000, k_max=1, seed=99,
            out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(second)]) == 0
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
    """Files that disagree with the bundle's config.json are rejected, naming the file."""

    @staticmethod
    def bundle(tmp_path: Path, mode: str) -> Path:
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode=mode, shots=2000, repetitions=1, k_max=1, seed=4, out_dir=str(out)
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        return out

    @staticmethod
    def double_shots(path: Path) -> None:
        # still a valid counts file, with the same frequencies
        d = json.loads(path.read_text())
        d["shots"] *= 2
        d["counts"] = {b: 2 * c for b, c in d["counts"].items()}
        path.write_text(dump_json(d))

    def assert_rejected(self, out: Path, name: str, capsys) -> None:
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        assert name in capsys.readouterr().err

    def test_job_file_shots_differ_from_config(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        self.double_shots(out / "reps" / "r00" / "jobs" / "4q-Xp-XZX-Z.json")
        self.assert_rejected(out, "4q-Xp-XZX-Z.json", capsys)

    def test_calibration_file_shots_differ_from_config(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        self.double_shots(out / "reps" / "r00" / "calibration" / "q4" / "0101.json")
        self.assert_rejected(out, "0101.json", capsys)

    def test_calibration_file_meas_is_not_z(self, tmp_path, capsys):
        # every calibration file is a Z-basis readout of a prepared basis state
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "calibration" / "q4" / "0101.json"
        d = json.loads(victim.read_text())
        d["meas"] = ["X", "Y", "X", "Y"]
        victim.write_text(dump_json(d))
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(victim) in err

    def test_exact_bundle_holding_counts(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "exact")
        (out / "reps" / "r00" / "jobs" / "3q-Xp-XZX.json").write_text(dump_json(
            {"n": 3, "meas": ["X", "Z", "X"], "shots": 8, "counts": {"000": 8}}
        ))
        self.assert_rejected(out, "3q-Xp-XZX.json", capsys)

    def test_sampled_bundle_holding_dist(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        (out / "reps" / "r00" / "jobs" / "3q-Xp-XZX.json").write_text(dump_json(
            {"n": 3, "meas": ["X", "Z", "X"], "dist": [0.125] * 8}
        ))
        self.assert_rejected(out, "3q-Xp-XZX.json", capsys)

    def test_config_does_not_match_manifest_hash(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "exact")
        cfg = json.loads((out / "config.json").read_text())
        cfg["seed"] += 1
        (out / "config.json").write_text(dump_json(cfg))
        self.assert_rejected(out, "config.json does not match the config_sha256", capsys)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_in_exact_job_file(self, tmp_path, capsys, value):
        # Python's json reads NaN and Infinity; a distribution holding one
        # must be rejected, not passed on to the simplex projection
        out = self.bundle(tmp_path, "exact")
        victim = out / "reps" / "r00" / "jobs" / "3q-Xp-XZX.json"
        d = json.loads(victim.read_text())
        d["dist"][0] = value
        victim.write_text(json.dumps(d))
        self.assert_rejected(out, str(victim), capsys)

    def test_directory_in_place_of_job_file(self, tmp_path, capsys):
        out = self.bundle(tmp_path, "sampled")
        victim = out / "reps" / "r00" / "jobs" / "3q-Xp-XZX.json"
        victim.unlink()
        victim.mkdir()
        self.assert_rejected(out, str(victim), capsys)

    def test_full_mitigation_without_calibration_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", mitigation="full", shots=2000, repetitions=1, k_max=1,
            out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        shutil.rmtree(out / "reps" / "r00" / "calibration" / "q4")
        self.assert_rejected(out, str(out / "reps" / "r00" / "calibration" / "q4"), capsys)

    def test_partial_calibration_directory_under_tensor(self, tmp_path, capsys):
        # tensor mode builds no matrix from calibration files, but a bundle
        # holding an incomplete calibration directory is still malformed
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path, mode="sampled", mitigation="tensor", shots=2000, repetitions=1, k_max=1,
            out_dir=str(out),
        )
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        victim = out / "reps" / "r00" / "calibration" / "q4" / "0011.json"
        victim.unlink()
        self.assert_rejected(out, str(victim), capsys)

    @pytest.mark.parametrize("case", sorted(COERCIBLE))
    def test_bundle_numbers_are_checked_not_coerced(self, tmp_path, capsys, case):
        mode, field, change = COERCIBLE[case]
        out = self.bundle(tmp_path, mode)
        victim = out / "reps" / "r00" / "jobs" / "3q-Xp-XZX.json"
        d = json.loads(victim.read_text())
        d[field] = change(d[field])
        victim.write_text(json.dumps(d))
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(victim) in err

    def test_each_bundle_file_is_parsed_once(self, tmp_path, monkeypatch):
        out = self.bundle(tmp_path, "sampled")
        bundle_files = {p.relative_to(out) for p in out.rglob("*.json")}
        assert len(bundle_files) == 3 + 48 + 16 + 8
        reads = collections.Counter()
        path_open = Path.open

        def counting_open(path, mode="r", *args, **kwargs):
            if "r" in mode:
                reads[path.relative_to(out)] += 1
            return path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        assert main(["reconstruct", "--out", str(out)]) == 0
        assert dict(reads) == dict.fromkeys(bundle_files, 1)


def _fail_from_rep_2(rep: int) -> int:
    if rep >= 2:
        raise ValueError(f"repetition {rep} failed")
    return rep


class TestParallelRepetitions:
    """Repetitions run in forked workers; outputs and errors do not depend on it."""

    SAMPLED = dict(mode="sampled", repetitions=3, shots=2000, k_max=2, seed=5, out_dir="run")

    @staticmethod
    def chaincut(cwd: Path, env: dict, *argv, cpus=None) -> subprocess.CompletedProcess:
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        return subprocess.run(
            [sys.executable, "-m", "chaincut.cli", *argv], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120, preexec_fn=pin,
        )

    def test_map_reps_keeps_repetition_order(self):
        assert _map_reps(functools.partial(pow, 2), range(7)) == [1, 2, 4, 8, 16, 32, 64]
        assert _map_reps(functools.partial(pow, 2), [3]) == [8]

    def test_map_reps_raises_the_first_failing_repetition(self):
        with pytest.raises(ValueError, match="repetition 2 failed"):
            _map_reps(_fail_from_rep_2, range(6))

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
        assert len(trees[0]) == 3 + 3 * (48 + 16 + 8) + 6
        assert trees[0] == trees[1]

    def test_bad_job_file_in_last_repetition(self, tmp_path, child_env):
        write_config(tmp_path, **self.SAMPLED)
        assert self.chaincut(tmp_path, child_env, "run-jobs", "--config", "config.json").returncode == 0
        victim = tmp_path / "run" / "reps" / "r02" / "jobs" / "4q-Xp-XZX-Z.json"
        d = json.loads(victim.read_text())
        d["meas"] = ["X", "X", "X", "X"]
        victim.write_text(dump_json(d))
        proc = self.chaincut(tmp_path, child_env, "reconstruct", "--out", "run")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert str(Path("run") / "reps" / "r02" / "jobs" / "4q-Xp-XZX-Z.json") in proc.stderr

    def test_first_failing_repetition_is_reported(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, **{**self.SAMPLED, "out_dir": str(out)})
        assert main(["run-jobs", "--config", str(cfg)]) == 0
        for rep in ("r01", "r02"):
            (out / "reps" / rep / "jobs" / "3q-Xp-XZX.json").write_text(dump_json(
                {"n": 3, "meas": ["Z", "Z", "Z"], "dist": [0.125] * 8}
            ))
        capsys.readouterr()
        assert main(["reconstruct", "--out", str(out)]) == 1
        err = capsys.readouterr().err.replace(str(tmp_path), "")
        assert str(Path("r01") / "jobs" / "3q-Xp-XZX.json") in err and "r02" not in err

    def test_singular_calibration_in_workers(self, tmp_path, child_env):
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

    def test_direct_exceeding_cap_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode="exact", out_dir=str(tmp_path / "x"))
        assert main(["direct", "--config", str(cfg), "--n", "27"]) == 1

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

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run-jobs", "--config", str(bad)]) == 1

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
        mistyped = [
            ("f00", {"f00": 0.9, "f11": 0.9}),
            ("k_max", {"k_max": "9"}),
            ("shots", {"shots": True, "mode": "sampled"}),
            ("p1", {"p1": False}),
            ("f11", {"f00": [0.9], "f11": [True]}),
            ("mode", {"mode": 1}),
            ("seed", {"seed": 1.0}),
        ]
        for field, d in mistyped:
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
        # a confusion matrix sampled from a few calibration shots can be singular
        calibrated = any((out / "reps").glob("r*/calibration/q*/*.json"))
        if code == 2 and calibrated:
            assert err.getvalue().startswith("numerical error:") and err.getvalue().count("\n") == 1
        else:
            assert code == 0, (d, err.getvalue())


# Bundle files a malformation test overwrites: every kind reconstruct reads.
MALFORMABLE = (
    "config.json",
    "manifest.json",
    "plan.json",
    "reps/r00/jobs/4q-Xp-XZX-Z.json",
    "reps/r00/calibration/q4/0101.json",
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


DELETE = object()
JOB, CALIBRATION = MALFORMABLE[3], MALFORMABLE[4]
# Every top-level field of the files in MALFORMABLE, so that a change can hit any of them.
FIELDS = sorted(
    {*ExperimentConfig().to_dict(), "command", "package", "version", "config_sha256", "jobs",
     "n", "meas", "shots", "counts", "dist"}
)
CHANGES = (
    st.tuples(st.just("value"), JSON_VALUES)
    | st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True))
    | st.tuples(st.just("field"), st.sampled_from(FIELDS), st.just(DELETE) | JSON_VALUES)
)


def _changed(original: bytes, change: tuple) -> bytes:
    if change[0] == "value":
        return json.dumps(change[1]).encode()
    if change[0] == "truncate":
        # every bundle file ends in "}\n", so no proper prefix short of it is valid JSON
        return original[: int(change[1] * (len(original) - 1))]
    d = json.loads(original)
    if change[2] is DELETE:
        d.pop(change[1], None)
    else:
        d[change[1]] = change[2]
    return json.dumps(d).encode()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(MALFORMABLE), change=CHANGES)
@example(name=JOB, change=("value", []))
@example(name=JOB, change=("value", {"n": 3, "meas": 5}))
@example(name=JOB, change=("value", {"n": 4, "meas": ["X", "Z", "X", "Z"]}))
@example(name=JOB, change=("field", "shots", DELETE))
@example(name=JOB, change=("field", "counts", [1]))
@example(name=JOB, change=("field", "counts", {"0000": None}))
@example(name=JOB, change=("field", "n", 10**9))
@example(name=CALIBRATION, change=("value", []))
@example(name=CALIBRATION, change=("field", "shots", DELETE))
@example(name="manifest.json", change=("value", []))
@example(name="plan.json", change=("value", []))
@example(name="plan.json", change=("field", "jobs", []))
@example(name="plan.json", change=("truncate", 0.5))
def test_malformed_bundle_file_is_one_error_line(malformable_bundle, name, change):
    """A changed bundle file gives exit 1 and one error line naming it, never a traceback.

    An arbitrary value or a truncation is always rejected; a changed field
    may also leave a file that reconstructs (an unchecked manifest field, or
    a value that happens to be valid), or calibration counts that give a
    singular confusion matrix.
    """
    target = malformable_bundle / name
    original = target.read_bytes()
    target.write_bytes(_changed(original, change))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--out", str(malformable_bundle)])
    finally:
        target.write_bytes(original)
    err = err.getvalue()
    if change[0] == "field" and code == 0:
        return
    if change[0] == "field" and code == 2:
        assert err.startswith("numerical error:") and err.count("\n") == 1
        return
    assert code == 1, (change, err)
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(target) in err, err
