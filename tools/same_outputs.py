"""Check that this checkout's CLI writes the same bytes as an earlier commit.

    python3 tools/same_outputs.py BASE_REV

Extracts the ``src/`` tree of BASE_REV (``git archive``) into a temporary
directory and runs the same verbs with it and with this checkout's
``src/``, each side in its own working directory: ``run-jobs`` then
``reconstruct`` on small sampled configs under every mitigation mode, on
``tensor`` mitigation from one readout-rate pair (which every register
cycles), on null and empty readout-rate lists, on an exact config, an exact one with
p2 = 0 and a noiseless exact one, on one sampled config at k_max 9,
whose sweep reaches n = 33, and on one exact config at k_max 1000, whose
sweep reaches n = 3006 and passes gamma^k's float range at n = 1944 (the
others stop at k_max 3, n = 15); then a user's rerun into an existing bundle: the
sampled config under ``auto`` and then under ``none``, both into
``rerun``, so the second run replaces the first's outputs and shows what
it leaves of those it no longer writes (``auto``'s transition matrices);
and ``direct`` in sampled, sampled with null readout rates, exact, exact
with p1 = 0 and noiseless mode at n = 9,
sampled at n = 15 with 5 repetitions (the ``direct_n15`` benchmark's
register size and repetition count), noiseless at n = 18, whose
distributions are written in several slices and whose witness transform
runs over 2^18 outcomes for 512 terms per parity, and exact at n = 16, the
largest register that the Heisenberg engine ran before its 16-qubit cap
went; and sampled at n = 12 with 25 repetitions, the default count.  The
other sampled configs use
3 repetitions, apart from one bundle and one ``direct --n 9`` at 9
repetitions and again at 1: numpy sums 8 or more values pairwise along a
vector but one by one down the first axis of a stack, so only 8 or more
repetitions show a change in how the means and stds over repetitions are
summed, and 1 repetition takes the branch that writes a std of 0.  The two zero-rate configs each
reach a depolarizing rate of 0 in one engine: p2 = 0 in the dense block
simulator, p1 = 0 in the Heisenberg reference.  Configs use relative
``out_dir``s, so the two sides write the same paths; a case's ``out_dir``
is its name unless its fields name another.  Every output file is
compared byte for byte, with the wall-clock ``time_ms`` column of
``scaling.csv`` stripped; so are each verb's exit code, stdout and stderr,
one file per command named by case and verb (``logs/auto-run-jobs.log``),
so a change declared for one command's output hides no other command's.

A change that alters outputs on purpose declares them in
``tools/expected_changes.txt``, read from this checkout: one path or glob
(``fnmatch``, relative to the working directory, so ``*`` also matches
``/``) per line, then whitespace and a one-line reason; blank lines and
lines starting with ``#`` are skipped.  A file that differs, or exists on
one side only, is declared when some line matches it.  Prints the declared
differences apart from the undeclared ones, then the number of files
compared.  Exits 0 when every difference is declared and every line
matches at least one difference; otherwise exits 1, listing each
undeclared file and each line that matched nothing.  With no lines
declared, any difference fails.
"""

from __future__ import annotations

import fnmatch
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "expected_changes.txt"

SAMPLED = {"mode": "sampled", "shots": 2000, "repetitions": 3, "seed": 7, "k_max": 3}
NO_RATES = {"f00": None, "f11": None}
NOISELESS = {"mode": "exact", "p1": 0.0, "p2": 0.0, **NO_RATES, "mitigation": "none"}

# name -> config fields; run-jobs + reconstruct on each, in order, into its
# out_dir (by default its name)
BUNDLES = {
    "auto": SAMPLED,
    "tensor": {**SAMPLED, "mitigation": "tensor"},
    "tensor-one-rate": {**SAMPLED, "mitigation": "tensor", "f00": [0.95], "f11": [0.9]},
    "full": {**SAMPLED, "mitigation": "full"},
    "none": {**SAMPLED, "mitigation": "none"},
    "null-rates": {**SAMPLED, **NO_RATES},
    "empty-rates": {**SAMPLED, "f00": [], "f11": []},
    "exact": {"mode": "exact", "k_max": 3},
    "exact-p2-zero": {"mode": "exact", "p2": 0.0, "k_max": 3},
    "noiseless": {**NOISELESS, "k_max": 3},
    "auto-9-reps": {**SAMPLED, "repetitions": 9},
    "auto-1-rep": {**SAMPLED, "repetitions": 1},
    "auto-k9": {**SAMPLED, "k_max": 9},
    "exact-k1000": {"mode": "exact", "k_max": 1000},
    # a rerun into an existing bundle (the benchmark times only empty out_dirs)
    "rerun-auto": {**SAMPLED, "out_dir": "rerun"},
    "rerun-none": {**SAMPLED, "mitigation": "none", "out_dir": "rerun"},
}
# name -> (config fields, chain length); direct --n <length> on each
DIRECT = {
    "direct-sampled": (SAMPLED, 9),
    "direct-null-rates": ({**SAMPLED, **NO_RATES}, 9),
    "direct-exact": ({"mode": "exact"}, 9),
    "direct-exact-p1-zero": ({"mode": "exact", "p1": 0.0}, 9),
    "direct-noiseless": (NOISELESS, 9),
    "direct-sampled-n15": ({**SAMPLED, "repetitions": 5}, 15),
    "direct-noiseless-n18": (NOISELESS, 18),
    "direct-exact-n16": ({"mode": "exact"}, 16),
    "direct-sampled-9-reps": ({**SAMPLED, "repetitions": 9}, 9),
    "direct-sampled-1-rep": ({**SAMPLED, "repetitions": 1}, 9),
    "direct-sampled-25-reps": ({**SAMPLED, "repetitions": 25}, 12),
}


def commands() -> list[tuple[str, list[str]]]:
    """(case name, verb argv) in run order; each config is written as configs/<name>.json."""
    steps = []
    for name, fields in BUNDLES.items():
        steps.append((name, ["run-jobs", "--config", f"configs/{name}.json"]))
        steps.append((name, ["reconstruct", "--out", fields.get("out_dir", name)]))
    for name, (_, n) in DIRECT.items():
        steps.append((name, ["direct", "--config", f"configs/{name}.json", "--n", str(n)]))
    return steps


def run_side(src: Path, work: Path) -> None:
    """Run every command with chaincut from ``src``; outputs land under ``work``."""
    (work / "configs").mkdir(parents=True)
    configs = {**BUNDLES, **{name: fields for name, (fields, _) in DIRECT.items()}}
    for name, fields in configs.items():
        (work / "configs" / f"{name}.json").write_text(json.dumps({"out_dir": name, **fields}))
    env = {**os.environ, "PYTHONPATH": str(src)}
    (work / "logs").mkdir()
    for name, argv in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "chaincut.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=600,
        )
        (work / "logs" / f"{name}-{argv[0]}.log").write_text(
            f"$ chaincut {' '.join(argv)}\nexit {proc.returncode}\n"
            f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        )


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


def read_expected(path: Path) -> list[str]:
    """Declared patterns, one per line, each followed by its reason."""
    patterns = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip() and not line.startswith("#"):
            pattern, *reason = line.split(None, 1)
            if not reason:
                raise ValueError(f"{path.name}:{number}: {pattern} has no reason")
            patterns.append(pattern)
    return patterns


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py BASE_REV", file=sys.stderr)
        return 2
    try:
        patterns = read_expected(EXPECTED) if EXPECTED.exists() else []
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        base_src = extract_src(argv[0], tmp / "base-src")
        run_side(base_src, tmp / "base")
        run_side(ROOT / "src", tmp / "head")
        base, head = tree(tmp / "base"), tree(tmp / "head")
    differences = [(f"only in {argv[0]}", name) for name in sorted(base.keys() - head.keys())]
    differences += [("only in this checkout", name) for name in sorted(head.keys() - base.keys())]
    differences += [("differs", name) for name in sorted(base.keys() & head.keys())
                    if base[name] != head[name]]
    matched = {p: [n for _, n in differences if fnmatch.fnmatchcase(n, p)] for p in patterns}
    declared = {n for names in matched.values() for n in names}
    for kind, name in differences:
        if name in declared:
            print(f"{kind} (declared): {name}")
    problems = [f"{kind}: {name}" for kind, name in differences if name not in declared]
    problems += [f"declared but unchanged: {p}" for p, names in matched.items() if not names]
    for line in problems:
        print(line)
    summary = f"{len(base.keys() | head.keys())} files compared, {len(differences)} differ"
    if patterns:
        summary += f", {len(declared)} as declared in {EXPECTED.relative_to(ROOT)}"
    print(summary)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
