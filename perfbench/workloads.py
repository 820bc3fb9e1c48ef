"""The benchmark's workloads: the config each one writes and the verbs it runs.

Every workload pins every config field, so a change of the program's
defaults cannot change what is measured.  The seed is the only input
that varies between runs; the program sees it only through the config.
"""

from __future__ import annotations

from dataclasses import dataclass

# The README default sampled experiment (noise and readout defaults as in
# chaincut.sim, full-calibration mitigation via "auto").
DEFAULT_SAMPLED = {
    "mode": "sampled",
    "shots": 1_000_000,
    "p1": 0.0014,
    "p2": 0.085,
    "f00": [0.950, 0.943, 0.969, 0.922],
    "f11": [0.909, 0.910, 0.901, 0.887],
    "mitigation": "auto",
    "k_max": 9,
    "repetitions": 25,
}

OUT_DIR = "out"  # relative to the workload's work directory
CONFIG_FILE = "config.json"


@dataclass(frozen=True)
class Workload:
    """A benchmark workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    overrides: dict
    verbs: tuple[tuple[str, ...], ...]

    def config(self, seed: int) -> dict:
        return {**DEFAULT_SAMPLED, **self.overrides, "seed": seed, "out_dir": OUT_DIR}


_BUNDLE_VERBS = (
    ("run-jobs", "--config", CONFIG_FILE),
    ("reconstruct", "--out", OUT_DIR),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_k9", {"k_max": 9}, _BUNDLE_VERBS),
        Workload("bundle_k3", {"k_max": 3}, _BUNDLE_VERBS),
        Workload(
            "direct_n15",
            {"repetitions": 5},
            (("direct", "--config", CONFIG_FILE, "--n", "15"),),
        ),
    )
}

# Noiseless exact 12-qubit run, stitched once per benchmark run as a check.
NOISELESS_N = 12
NOISELESS = Workload(
    "noiseless_n12",
    {
        "mode": "exact",
        "p1": 0.0,
        "p2": 0.0,
        "f00": None,
        "f11": None,
        "k_max": (NOISELESS_N - 6) // 3,
        "repetitions": 1,
    },
    _BUNDLE_VERBS,
)
