"""chaincut benchmark: one closed-loop client driving the chaincut CLI verbs.

    python3 perfbench/run.py --workload sweep_k9 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client runs one verb process at a time and waits for it, so each
workload iteration is the blocking path a user sees.  The run

1. stitches a noiseless exact 12-qubit bundle once and checks it;
2. repeats the workload's verbs until ``--seconds`` is used up, checking
   every iteration's outputs;
3. times ``setup_s`` with fresh processes that import ``chaincut.cli``
   and call ``plan_chain_jobs()``: one before each iteration, topped up
   to SETUP_PROBES at the end, after one untimed warm-up.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced iterations with traced ones, whose verbs run
through ``chaincut.cli.main`` inside ``traced_verb.py``, and reports the
per-layer metrics.  The last line of standard output is the result JSON;
the lines before it are a human-readable table and the run metadata.
Spans and the full result are written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import noiseless_problems, report_problems, snapshot, snapshot_problems
from tracer import PROCESS_SPAN, ROOT_SPAN, TRACED, layer_totals, span_name
from workloads import CONFIG_FILE, NOISELESS, NOISELESS_N, OUT_DIR, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 9
# Every process the run starts is killed at this perf_counter() reading.
HARD_DEADLINE = time.perf_counter() + 170.0
SETUP_CODE = "import chaincut.cli\nfrom chaincut.cut import plan_chain_jobs\nplan_chain_jobs()"

END_TO_END = (
    ("time_to_report_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SWEEP_LENGTHS = tuple(6 + 3 * k for k in range(1, 10))  # k_max 9: n = 9 ... 33
PER_LAYER = (
    [(f"{span_name(m, a)}.{kind}", u) for m, a in TRACED for kind, u in
     (("s", "s"), ("self_s", "s"), ("calls", "count"))]
    + [(f"reconstruct.witness_averages.n{n}.s", "s") for n in SWEEP_LENGTHS]
    + [
        ("cut.bundle_bytes", "bytes"),
        ("cut.bundle_files", "count"),
        ("mitigation.projected_frac", "ratio"),
        ("reconstruct.witness_terms", "count"),
        ("direct.paulis_propagated", "count"),
        ("cli.run_jobs.s", "s"),
        ("cli.reconstruct.s", "s"),
        ("cli.direct.s", "s"),
        ("cli.self_s", "s"),
        ("proc.self_s", "s"),
        ("proc.import.self_s", "s"),
        ("bench.self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one process run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


@dataclass
class Proc:
    start: float
    end: float
    code: int
    rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def verb_env() -> dict[str, str]:
    """Environment of every verb process: the caller's, with chaincut from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(argv: list[str], cwd: Path, env: dict, log: Path) -> Proc:
    """Start ``argv``, wait for it, and return its wall time and max RSS.

    A process still running at the run's hard deadline is killed, so the
    benchmark always ends in time; it then counts as a failed operation.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(HARD_DEADLINE - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, end, proc.returncode, usage.ru_maxrss / 1024.0)


def chaincut_argv(verb: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "chaincut.cli", *verb]


def traced_argv(verb: tuple[str, ...], spans_file: Path, iteration: int) -> list[str]:
    return [sys.executable, str(HERE / "traced_verb.py"), str(spans_file), str(iteration), *verb]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare(work: Path, workload: Workload, seed: int) -> None:
    shutil.rmtree(work / OUT_DIR, ignore_errors=True)
    (work / CONFIG_FILE).write_text(json.dumps(workload.config(seed), indent=1) + "\n")


# ---------------------------------------------------------------------------
# One iteration of a workload


@dataclass
class Iteration:
    index: int
    traced: bool
    time_to_report_s: float
    verbs: dict[str, float]
    rss_mb: float
    spans: list[list] = field(default_factory=list)
    counters: list[dict] = field(default_factory=list)
    bundle_files: int = 0
    bundle_bytes: int = 0


def run_iteration(
    index: int, traced: bool, workload: Workload, work: Path, env: dict, tally: Tally,
    first: dict | None,
) -> tuple[Iteration, dict | None]:
    """Run the workload's verbs once, then check what they wrote (untimed)."""
    procs, spans, counters = [], [], []
    spans_file = work / "spans.tmp.json"
    root = [ROOT_SPAN, 0.0, 0.0, -1, index, None]
    spans.append(root)
    for verb in workload.verbs:
        argv = traced_argv(verb, spans_file, index) if traced else chaincut_argv(verb)
        proc = run_process(argv, work, env, work / "stderr.log")
        procs.append(proc)
        if traced and spans_file.exists():
            child = json.loads(spans_file.read_text())
            spans_file.unlink()
            base = len(spans) + 1
            spans.append([PROCESS_SPAN, proc.start, proc.end, 0, index, None])
            for name, start, end, parent, iteration, n in child["spans"]:
                parent = base - 1 if parent < 0 else base + parent
                spans.append([name, start, end, parent, iteration, n])
            counters.append(child["counters"])
    root[1], root[2] = procs[0].start, procs[-1].end
    it = Iteration(
        index,
        traced,
        procs[-1].end - procs[0].start,
        {verb[0]: p.wall_s for verb, p in zip(workload.verbs, procs)},
        max(p.rss_mb for p in procs),
        spans,
        counters,
    )
    for verb, proc in zip(workload.verbs[:-1], procs[:-1]):
        tally.record(proc.code == 0, f"iteration {index}: {verb[0]} exited {proc.code}")
    problems = [] if procs[-1].code == 0 else [f"{workload.verbs[-1][0]} exited {procs[-1].code}"]
    digests = None
    if not problems:
        out = work / OUT_DIR
        try:
            problems += report_problems(out)
            digests = snapshot(out)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"reports unreadable: {exc!r}")
        if digests is not None:
            problems += snapshot_problems(first, digests) if first is not None else []
            bundle = [p for p in out.rglob("*") if p.is_file() and _in_bundle(p, out)]
            it.bundle_files = len(bundle)
            it.bundle_bytes = sum(p.stat().st_size for p in bundle)
    tally.record(not problems, f"iteration {index}: " + "; ".join(problems))
    return it, digests


def _in_bundle(path: Path, out: Path) -> bool:
    return path.relative_to(out).parts[0] not in ("reports", "direct")


# ---------------------------------------------------------------------------
# Set-up probes and the once-per-run noiseless check


def setup_probe(work: Path, env: dict, tally: Tally) -> float:
    """Wall time of a fresh process importing chaincut.cli and planning the jobs."""
    proc = run_process([sys.executable, "-c", SETUP_CODE], work, env, work / "stderr.log")
    tally.record(proc.code == 0, f"setup probe exited {proc.code}")
    return proc.wall_s


def noiseless_check(work: Path, env: dict, seed: int, tally: Tally) -> None:
    check_dir = fresh_dir(work / NOISELESS.name)
    prepare(check_dir, NOISELESS, seed)
    codes = [run_process(chaincut_argv(v), check_dir, env, work / "stderr.log").code
             for v in NOISELESS.verbs]
    for verb, code in zip(NOISELESS.verbs[:-1], codes[:-1]):
        tally.record(code == 0, f"noiseless {verb[0]} exited {code}")
    if codes[-1] != 0:
        tally.record(False, f"noiseless {NOISELESS.verbs[-1][0]} exited {codes[-1]}")
        return
    try:
        problems = noiseless_problems(check_dir / OUT_DIR, NOISELESS_N)
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"noiseless reports unreadable: {exc!r}"]
    tally.record(not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# Statistics, metadata, output


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return "-"
    return f"p{100 * k // len(xs)}={xs[k - 1]:.4f}"


def metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '') }"] = size
    src_files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": lines,
    }


def end_to_end_metrics(untraced: list[Iteration], setup: list[float]) -> dict[str, float]:
    return {
        "time_to_report_s": statistics.median(i.time_to_report_s for i in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(i.rss_mb for i in untraced),
    }


def layer_metrics(
    untraced: list[Iteration], traced: list[Iteration]
) -> tuple[dict[str, float], float, float]:
    """Per-layer metrics, plus the median self-time sum and untraced time to report.

    The self times of a traced iteration sum to its wall time by
    construction, so that sum is printed beside the untraced time, not
    reported as a metric.
    """
    samples, self_sums = [], []
    for i in traced:
        m = layer_totals(i.spans, i.counters)
        self_sums.append(sum(v for k, v in m.items() if k.endswith("self_s")))
        m["cut.bundle_files"] = i.bundle_files
        m["cut.bundle_bytes"] = i.bundle_bytes
        outputs = m["mitigation.tmem_outputs"]
        m["mitigation.projected_frac"] = m["mitigation.tmem_left_simplex"] / outputs if outputs else 0.0
        samples.append(m)
    metrics = {
        name: float(statistics.median(m.get(name, 0.0) for m in samples)) for name, _ in PER_LAYER
    }
    untraced_s = statistics.median(i.time_to_report_s for i in untraced)
    metrics["trace.overhead_s"] = statistics.median(i.time_to_report_s for i in traced) - untraced_s
    return metrics, statistics.median(self_sums), untraced_s


def print_table(title: str, rows: list[tuple[str, list[float], str]]) -> None:
    print(title)
    print(f"  {'metric':<38}{'median':>12}  {'tail':<16}{'n':>4}  unit")
    for name, samples, unit in rows:
        print(f"  {name:<38}{statistics.median(samples):>12.4f}  {tail(samples):<16}"
              f"{len(samples):>4}  {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chaincut" / "cli.py").is_file():
        print(f"error: no chaincut sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = fresh_dir(WORK / workload.name)
    env = verb_env()
    tally = Tally()

    setup_probe(work, env, tally)  # warms the page cache and the bytecode cache
    noiseless_check(work, env, args.seed, tally)
    prepare(work, workload, args.seed)

    # Set-up probes are spread over the run, one before each iteration, so
    # that a burst of load on the machine does not hit all of them at once.
    kinds = (False, True) if args.trace else (False,)
    iterations: list[Iteration] = []
    setup: list[float] = []
    loop_times: list[float] = []
    first = None
    t_start = time.perf_counter()
    while True:
        traced = kinds[len(iterations) % len(kinds)]
        t0 = time.perf_counter()
        setup.append(setup_probe(work, env, tally))
        it, digests = run_iteration(len(iterations), traced, workload, work, env, tally, first)
        first = first or digests
        prepare(work, workload, args.seed)
        iterations.append(it)
        loop_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if len(iterations) >= len(kinds) and elapsed + statistics.median(loop_times) / 2 >= args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(work, env, tally))
    untraced = [i for i in iterations if not i.traced]
    traced = [i for i in iterations if i.traced]

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(untraced)} untraced + {len(traced)} traced")
    rows = [("time_to_report_s", [i.time_to_report_s for i in untraced], "s"),
            ("setup_s", setup, "s"),
            ("peak_rss_mb", [i.rss_mb for i in untraced], "MB")]
    rows += [(f"{verb[0].replace('-', '_')}_s", [i.verbs[verb[0]] for i in untraced], "s")
             for verb in workload.verbs]
    print_table("end to end (untraced)", rows)
    print(f"failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")

    if args.trace:
        metrics, self_sum_s, untraced_s = layer_metrics(untraced, traced)
        units = dict(PER_LAYER)
        (work / "spans.json").write_text(json.dumps([i.spans for i in traced]))
        print(f"per layer (traced, median of {len(traced)} iterations; zero rows omitted)")
        for name, value in metrics.items():
            if value:
                print(f"  {name:<46}{value:>16.6f}  {units[name]}")
        print(f"blocking path: self times sum to {self_sum_s:.4f} s; untraced "
              f"time_to_report_s {untraced_s:.4f} s; "
              f"tracing overhead {metrics['trace.overhead_s']:+.4f} s")
    else:
        metrics = end_to_end_metrics(untraced, setup)
        units = dict(END_TO_END)
    meta = metadata(workload.name, args.seed, args.trace)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    samples = {"setup_s": setup, "iterations": [
        {"traced": i.traced, "time_to_report_s": i.time_to_report_s, "verbs": i.verbs,
         "rss_mb": i.rss_mb} for i in iterations]}
    (work / "result.json").write_text(
        json.dumps({"meta": meta, **result, "samples": samples}, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
