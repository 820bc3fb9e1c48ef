"""Spans and counters recorded around calls into chaincut's public functions.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each traced function under every name it is bound to in the
``chaincut`` modules (most call sites import functions by name, e.g.
``cli.execute_jobs`` or ``direct.sample_counts``), so every call passes
through one wrapper.  Spans are kept in memory and written out once.

A span is ``[name, start, end, parent, iteration, n]``: ``parent`` is the
index of the enclosing span (or -1), ``n`` the chain length for the
per-length witness spans (else None).  Times are ``time.perf_counter()``
readings, which on Linux come from CLOCK_MONOTONIC and so line up across
the benchmark process and the verb processes it starts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) of every function timed as a span.  The metric name
# is "<module>.<function>"; a dotted attribute names a method.
TRACED = (
    ("cut", "verify_decomposition"),
    ("cut", "plan_chain_jobs"),
    ("cut", "write_job_result"),
    ("cut", "read_job_result"),
    ("sim", "run_exact"),
    ("sim", "measure_distribution"),
    ("sim", "sample_counts"),
    ("runner", "execute_jobs"),
    ("runner", "write_calibration"),
    ("counts", "counts_from_dict"),
    ("counts", "counts_from_vector"),
    ("counts", "dump_json"),
    ("mitigation", "pipeline_for_rep"),
    ("mitigation", "read_calibration"),
    ("mitigation", "MitigationPipeline.physical"),
    ("mitigation", "tmem_product_inverse"),
    ("reconstruct", "scaling_sweep"),
    ("reconstruct", "witness_averages"),
    ("reconstruct", "build_block_tensors"),
    ("reconstruct", "witness_values"),
    ("reconstruct", "stitched_distribution"),
    ("reconstruct", "witness_values_from_distribution"),
    ("direct", "chain_distribution"),
    ("direct", "direct_chain_report"),
)

ROOT_SPAN = "iteration"
PROCESS_SPAN = "process"  # spawn of a verb process until it is reaped
IMPORT_SPAN = "import"  # import chaincut.cli inside the verb process


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def verb_span(verb: str) -> str:
    return "cli." + verb.replace("-", "_")


class Tracer:
    """In-memory span stack plus named counters for one process."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str, n: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration, n])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str | None, fn, after=None, length: bool = False):
        """``fn`` timed as span ``name`` (no span if None), then ``after`` called.

        ``after(tracer, args, result)`` updates counters; ``length`` records
        the call's ``n`` argument on its span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = kwargs.get("n", args[2] if len(args) > 2 else None) if length else None
            idx = None if name is None else tracer.open(name, n)
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            if n is not None:
                tracer.counters["reconstruct.witness_terms"] += _term_count(n)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _rebind(original, replacement) -> None:
    """Point every chaincut name bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "chaincut" and not mod_name.startswith("chaincut."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _count_left_simplex(tracer: Tracer, args, result) -> None:
    weights = getattr(result, "w", result)
    tracer.counters["mitigation.tmem_outputs"] += 1
    if float(weights.min()) < 0.0:
        tracer.counters["mitigation.tmem_left_simplex"] += 1


def _count_paulis(tracer: Tracer, args, result) -> None:
    tracer.counters["direct.paulis_propagated"] += 2 ** args[0].n_qubits


def _term_count(n: int) -> int:
    from chaincut.reconstruct import witness_term_count

    return witness_term_count(n, "odd") + witness_term_count(n, "even")


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function plus the counting hooks (imports chaincut)."""
    import chaincut.cli  # noqa: F401  (binds every module the verbs use)

    for module, attr in TRACED:
        mod = importlib.import_module(f"chaincut.{module}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(
            span_name(module, attr),
            original,
            after=_count_left_simplex if fn_name == "tmem_product_inverse" else None,
            length=fn_name == "witness_averages",
        )
        if owner_name:
            setattr(owner, fn_name, wrapped)
        else:
            _rebind(original, wrapped)
    # Counter-only hooks: TMEM outputs that left the simplex, Paulis propagated.
    from chaincut import direct, mitigation

    for fn, after in (
        (mitigation.apply_tmem, _count_left_simplex),
        (direct.heisenberg_distribution, _count_paulis),
    ):
        _rebind(fn, tracer.wrap(None, fn, after=after))


# ---------------------------------------------------------------------------
# Aggregation: busy time, self time and calls per span name and iteration


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans: list[list], counters: list[dict]) -> dict[str, float]:
    """Busy time, self time and calls per layer for the spans of one iteration.

    Every span's self time lands in exactly one ``*self_s`` metric, so
    those metrics add up to the iteration's wall time.
    """
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent, _it, n), self_s in zip(spans, own):
        if name == ROOT_SPAN:
            m["bench.self_s"] += self_s
        elif name == PROCESS_SPAN:
            m["proc.self_s"] += self_s
        elif name == IMPORT_SPAN:
            m["proc.import.self_s"] += self_s
        elif name.startswith("cli."):
            m[f"{name}.s"] += end - start
            m["cli.self_s"] += self_s
        else:
            m[f"{name}.s"] += end - start
            m[f"{name}.self_s"] += self_s
            m[f"{name}.calls"] += 1
            if n is not None:
                m[f"{name}.n{n}.s"] += end - start
    for counts in counters:
        for key, value in counts.items():
            m[key] += value
    return m
