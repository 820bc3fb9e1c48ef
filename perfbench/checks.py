"""Output checks.  None of them depends on the seed.

* ``snapshot`` digests every file a verb wrote, with the wall-clock
  ``time_ms`` column of ``scaling.csv`` removed, so iterations can be
  compared byte for byte (the README's determinism contract).
* ``report_problems`` checks that every bound is finite and within
  [-1, 1] and that every reported distribution sums to 1 within 1e-9.
* ``noiseless_problems`` checks the exact noiseless 12-qubit bundle:
  bound 1 within 1e-9, XZ/ZX distributions equal to the statevector
  reference within 1e-12.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

BOUND_TOL = 1e-9
SUM_TOL = 1e-9
STATEVECTOR_TOL = 1e-12


def _strip_time_column(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("time_ms")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows)


def snapshot(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "scaling.csv":
            data = _strip_time_column(data.decode()).encode()
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def snapshot_problems(first: dict[str, str], current: dict[str, str]) -> list[str]:
    if first == current:
        return []
    changed = sorted(k for k in first.keys() | current.keys() if first.get(k) != current.get(k))
    return [f"outputs differ from the first iteration: {', '.join(changed[:5])}"]


def _bound_problems(where: str, bound: float) -> list[str]:
    if not math.isfinite(bound) or not -1.0 <= bound <= 1.0:
        return [f"{where}: bound {bound!r} is not finite within [-1, 1]"]
    return []


def _sum_problems(where: str, dist: list[float]) -> list[str]:
    total = math.fsum(dist)
    if not abs(total - 1.0) <= SUM_TOL:
        return [f"{where}: distribution sums to {total!r}"]
    return []


def _csv_bounds(path: Path) -> list[float]:
    return [float(row["bound"]) for row in csv.DictReader(io.StringIO(path.read_text()))]


def report_problems(out_dir: Path) -> list[str]:
    """Semantic checks on the reports of a bundle or of the direct verb."""
    problems: list[str] = []
    reports = out_dir / "reports"
    if reports.is_dir():
        bounds = _csv_bounds(reports / "scaling.csv")
        dists = json.loads((reports / "stitched_distributions.json").read_text())
        named = {f"stitched {s}": dists[s] for s in ("XZ", "ZX")}
    else:
        reports = out_dir / "direct"
        bounds = _csv_bounds(reports / "summary.csv")
        dists = json.loads((reports / "distributions.json").read_text())
        named = {f"direct {s} {kind}": dists[s][kind] for s in ("XZ", "ZX") for kind in dists[s]}
    bounds.append(json.loads((reports / "witness_terms.json").read_text())["bound"])
    for bound in bounds:
        problems += _bound_problems(str(reports), bound)
    for where, dist in named.items():
        problems += _sum_problems(where, dist)
    return problems


def noiseless_problems(out_dir: Path, n: int) -> list[str]:
    """Exact noiseless bundle against bound 1 and the statevector reference."""
    import numpy as np
    from chaincut.circuit import build_linear_cluster
    from chaincut.direct import statevector_distribution
    from chaincut.reconstruct import witness_setting

    reports = out_dir / "reports"
    problems = []
    bound = json.loads((reports / "witness_terms.json").read_text())["bound"]
    if not abs(bound - 1.0) <= BOUND_TOL:
        problems.append(f"noiseless n={n} bound {bound!r} is not 1 within {BOUND_TOL}")
    dists = json.loads((reports / "stitched_distributions.json").read_text())
    circuit = build_linear_cluster(n)
    for setting, parity in (("XZ", "odd"), ("ZX", "even")):
        ref = statevector_distribution(circuit, witness_setting(n, parity))
        err = float(np.max(np.abs(np.asarray(dists[setting]) - ref)))
        if not err <= STATEVECTOR_TOL:
            problems.append(f"noiseless n={n} {setting} differs from statevector by {err:.3e}")
    return problems
