"""Check that this checkout's CLI writes the same bytes as an earlier commit.

    python3 tools/same_outputs.py BASE_REV

Extracts the ``src/`` tree of BASE_REV (``git archive``) into a temporary
directory and runs the same verbs with it and with this checkout's
``src/``, each side in its own working directory: ``run-jobs`` then
``reconstruct`` on small sampled configs under every mitigation mode, on
null and empty readout-rate lists, on an exact config, an exact one with
p2 = 0 and a noiseless exact one, and ``direct`` in sampled, exact, exact
with p1 = 0 and noiseless mode at n = 9 and sampled at n = 15 with 5
repetitions (the ``direct_n15`` benchmark's register size and repetition
count).  The two zero-rate configs each reach a depolarizing rate of 0 in
one engine: p2 = 0 in the dense block simulator, p1 = 0 in the Heisenberg
reference.  Configs use
relative ``out_dir``s, so the two sides write the same paths.  Every output
file is compared byte for byte, with the wall-clock ``time_ms`` column of
``scaling.csv`` stripped; so are each verb's exit code, stdout and stderr.
Prints the number of files compared and exits 0 when all are identical;
otherwise exits 1, listing every file that differs or exists on one side
only.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLED = {"mode": "sampled", "shots": 2000, "repetitions": 3, "seed": 7, "k_max": 3}
NO_RATES = {"f00": None, "f11": None}
NOISELESS = {"mode": "exact", "p1": 0.0, "p2": 0.0, **NO_RATES, "mitigation": "none"}

# name -> config fields; run-jobs + reconstruct on each
BUNDLES = {
    "auto": SAMPLED,
    "tensor": {**SAMPLED, "mitigation": "tensor"},
    "full": {**SAMPLED, "mitigation": "full"},
    "none": {**SAMPLED, "mitigation": "none"},
    "null-rates": {**SAMPLED, **NO_RATES},
    "empty-rates": {**SAMPLED, "f00": [], "f11": []},
    "exact": {"mode": "exact", "k_max": 3},
    "exact-p2-zero": {"mode": "exact", "p2": 0.0, "k_max": 3},
    "noiseless": {**NOISELESS, "k_max": 3},
}
# name -> (config fields, chain length); direct --n <length> on each
DIRECT = {
    "direct-sampled": (SAMPLED, 9),
    "direct-exact": ({"mode": "exact"}, 9),
    "direct-exact-p1-zero": ({"mode": "exact", "p1": 0.0}, 9),
    "direct-noiseless": (NOISELESS, 9),
    "direct-sampled-n15": ({**SAMPLED, "repetitions": 5}, 15),
}


def commands() -> list[list[str]]:
    """Verb argvs in run order; each config is written as configs/<name>.json."""
    steps = []
    for name in BUNDLES:
        steps.append(["run-jobs", "--config", f"configs/{name}.json"])
        steps.append(["reconstruct", "--out", name])
    for name, (_, n) in DIRECT.items():
        steps.append(["direct", "--config", f"configs/{name}.json", "--n", str(n)])
    return steps


def run_side(src: Path, work: Path) -> None:
    """Run every command with chaincut from ``src``; outputs land under ``work``."""
    (work / "configs").mkdir(parents=True)
    configs = {**BUNDLES, **{name: fields for name, (fields, _) in DIRECT.items()}}
    for name, fields in configs.items():
        (work / "configs" / f"{name}.json").write_text(json.dumps({**fields, "out_dir": name}))
    env = {**os.environ, "PYTHONPATH": str(src)}
    log = []
    for argv in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "chaincut.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=600,
        )
        log.append(f"$ chaincut {' '.join(argv)}\nexit {proc.returncode}")
        log.append(proc.stdout + proc.stderr)
    (work / "commands.log").write_text("\n".join(log))


def comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "scaling.csv":  # drop the wall-clock column
        data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
    return data


def tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): comparable(p) for p in sorted(root.rglob("*")) if p.is_file()
    }


def extract_src(rev: str, target: Path) -> Path:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return target / "src"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py BASE_REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        base_src = extract_src(argv[0], tmp / "base-src")
        run_side(base_src, tmp / "base")
        run_side(ROOT / "src", tmp / "head")
        base, head = tree(tmp / "base"), tree(tmp / "head")
    problems = [f"only in {argv[0]}: {name}" for name in sorted(base.keys() - head.keys())]
    problems += [f"only in this checkout: {name}" for name in sorted(head.keys() - base.keys())]
    problems += [f"differs: {name}" for name in sorted(base.keys() & head.keys())
                 if base[name] != head[name]]
    for line in problems:
        print(line)
    print(f"{len(base.keys() | head.keys())} files compared, {len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
