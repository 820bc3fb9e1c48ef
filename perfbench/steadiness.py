"""Steadiness report: run the benchmark over several seeds and measure spread.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]
        [--save perfbench/.work/set1.json]
        [--against perfbench/.work/set0.json] [--trace]

Run from the root of a checkout.  Reads ``BENCHMARK.json`` for the
command, ``run_seconds``, workloads and bounds, runs the untraced
benchmark once per seed and workload, seeds outermost so that slow drifts
of machine load spread over every workload, and prints for each pairing
of end-to-end metric and workload the median, the quartiles and the
spread (q3 - q1) / median.  A pairing whose spread exceeds its bound is
named; so is one above a third of its bound, the target for a steady
benchmark.  ``--against`` compares medians with an earlier saved set
and names every pairing that is worse by more than its bound.
``--trace`` does the same for the per-layer metrics of traced runs, which
have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, kind: str) -> dict:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(int(kind == "per_layer")),
    ]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    expected = {m["name"] for m in spec[kind]}
    if set(result["metrics"]) != expected:
        raise SystemExit(f"{workload}: metrics {sorted(result['metrics'])} != {sorted(expected)}")
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    if not med:
        return q1, med, q3, 0.0 if q3 == q1 else float("inf")
    return q1, med, q3, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write the raw results here")
    parser.add_argument("--against", type=Path, help="earlier saved set to compare medians with")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec[kind]}

    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in metrics} for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            result = run_once(spec, w, seed, kind)
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            if not args.trace:
                summary = "  ".join(f"{m}={values[w][m][-1]:.4f}" for m in metrics)
                print(f"seed {seed:>3} {w:<12} {summary}", flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(values, indent=1) + "\n")

    earlier = json.loads(args.against.read_text()) if args.against else {}
    flagged = []
    width = max(map(len, metrics))
    print(f"\n{'workload':<12} {'metric':<{width}} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  status")
    for w in names:
        for m, info in metrics.items():
            q1, med, q3, s = spread(values[w][m])
            bound = info.get("bound", float("inf"))
            flags = []
            if s > bound:
                flags.append("spread over bound")
            elif s > bound / 3:
                flags.append("spread over bound/3")
            if w in earlier:
                old = statistics.median(earlier[w][m])
                worse = (med - old) / old if info["better"] == "lower" else (old - med) / old
                flags.append(f"{worse:+.3f} vs earlier median {old:.4f}")
                if worse > bound:
                    flags.append("WORSE THAN BOUND")
                    flagged.append(f"{w}/{m}")
            if s > bound / 3:
                flagged.append(f"{w}/{m}")
            status = "; ".join(flags) or "ok"
            print(f"{w:<12} {m:<{width}} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f} "
                  f"{bound:>6.3f}  {status}")
    print("\nflagged: " + (", ".join(flagged) if flagged else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
