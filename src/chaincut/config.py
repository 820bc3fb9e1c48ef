"""Experiment configuration: validation, file round-trip, manifest hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .counts import has_json_type
from .cut import read_bundle_file
from .mitigation import CALIBRATION_MODES
from .sim import DEFAULT_P1, DEFAULT_P2, DEFAULT_READOUT, NoiseModel, RunConfig

MITIGATION_MODES = ("auto", "tensor", "full", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "exact"
    shots: int = 1_000_000
    seed: int = 0
    p1: float = DEFAULT_P1
    p2: float = DEFAULT_P2
    f00: tuple[float, ...] | None = tuple(r[0] for r in DEFAULT_READOUT)
    f11: tuple[float, ...] | None = tuple(r[1] for r in DEFAULT_READOUT)
    mitigation: str = "auto"
    k_max: int = 9
    repetitions: int = 25
    out_dir: str = "chaincut-run"

    def __post_init__(self):
        # Pair the rate lists before zipping them: zip would truncate silently.
        if (self.f00 is None) != (self.f11 is None):
            raise ValueError("f00 and f11 must both be set or both be null")
        if self.f00 is not None and len(self.f00) != len(self.f11):
            raise ValueError("f00 and f11 must have equal length")
        # RunConfig and NoiseModel own the mode, shots and rate checks.
        self.run_config()
        self.noise_model()
        if self.mitigation not in MITIGATION_MODES:
            raise ValueError(f"mitigation must be one of {MITIGATION_MODES}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def readout(self) -> tuple[tuple[float, float], ...] | None:
        """Per-qubit (f00, f11) pairs, or None for null and empty rate lists alike."""
        if not self.f00:
            return None
        return tuple(zip(self.f00, self.f11))

    @property
    def calibrated(self) -> bool:
        """Sampled with rates, mitigated from counts: the bundle holds calibration."""
        sampled_with_rates = self.mode == "sampled" and self.readout is not None
        return sampled_with_rates and self.mitigation in CALIBRATION_MODES

    def noise_model(self) -> NoiseModel:
        return NoiseModel(self.p1, self.p2, self.readout)

    def run_config(self) -> RunConfig:
        return RunConfig(self.mode, self.shots, self.seed)

    @property
    def effective_repetitions(self) -> int:
        # Exact mode is deterministic; repeating it is pure waste.
        return self.repetitions if self.mode == "sampled" else 1

    def to_dict(self) -> dict:
        d = asdict(self)
        d["f00"] = list(self.f00) if self.f00 is not None else None
        d["f11"] = list(self.f11) if self.f11 is not None else None
        return d

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


# JSON type each field takes, named by the type of its default value.
_EXPECTED = {int: "an integer", float: "a number", str: "a string", list: "null or a list of numbers"}


def config_from_dict(d: dict) -> ExperimentConfig:
    defaults = ExperimentConfig().to_dict()
    unknown = set(d) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for key, value in d.items():
        if not has_json_type(defaults[key], value):
            expected = _EXPECTED[type(defaults[key])]
            raise ValueError(f"config field {key!r} must be {expected}, got {value!r}")
    kwargs = dict(d)
    for key in ("f00", "f11"):
        if kwargs.get(key) is not None:
            try:
                kwargs[key] = tuple(float(x) for x in kwargs[key])
            except OverflowError as exc:
                raise ValueError(f"config field {key!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path: Path) -> ExperimentConfig:
    return read_bundle_file(path, config_from_dict)


def override_config(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    fields = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **fields) if fields else cfg
