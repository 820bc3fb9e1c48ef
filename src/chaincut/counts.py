"""Measured-counts containers and the counts file format.

This module is deliberately simulator-free: reconstruction and mitigation
operate on counts and distributions alone, so archived (or externally
produced) data can be processed without a quantum backend in sight.

Counts file (JSON): ``{"n": 4, "shots": 1000000, "meas": ["X","Z","X","Z"],
"counts": {"0101": 12345, ...}}`` with bitstrings qubit-0-leftmost.
Exact results use ``"dist": [p_0, ..., p_{2^n-1}]`` in place of
``shots``/``counts``, indexed by basis-state integer.  In memory, counts are
dense vectors too; only counts_to_dict and counts_from_dict see bitstrings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .qstate import (
    assert_distribution,
    assert_quasi_distribution,
    index_to_bits,
    num_qubits,
)


# Largest shot count, and so largest single count, a table holds: below the
# int64 that count vectors use and the C long a multinomial draw takes.
MAX_SHOTS = 2**62 - 1


@dataclass(frozen=True, eq=False)
class CountsTable:
    """Sampled counts for one measurement setting.

    ``counts`` is a read-only int64 vector over the 2^n outcomes, indexed
    by basis-state integer; ``n`` and ``shots`` follow from it.
    """

    meas: str
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or len(self.meas) != num_qubits(len(counts)):
            raise ValueError(f"{counts.shape} counts do not match setting {self.meas!r}")
        if np.any(counts < 0):
            raise ValueError("negative count")
        if self.shots <= 0:
            raise ValueError("shots must be positive")

    @property
    def n(self) -> int:
        return num_qubits(len(self.counts))

    @property
    def shots(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots

    def __eq__(self, other):
        if not isinstance(other, CountsTable):
            return NotImplemented
        return self.meas == other.meas and np.array_equal(self.counts, other.counts)


def counts_from_vector(vec: np.ndarray, meas: str, shots: int) -> CountsTable:
    """Counts table from a dense count vector that must sum to ``shots``."""
    t = CountsTable(meas, vec)
    if t.shots != shots:
        raise ValueError(f"counts sum to {t.shots}, shots say {shots}")
    return t


@dataclass(frozen=True)
class Distribution:
    """A physical probability vector over 2^n outcomes."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if len(self.p) != 2**self.n:
            raise ValueError("length does not match register size")
        assert_distribution(self.p)


@dataclass(frozen=True)
class QuasiDistribution:
    """A real vector summing to 1 whose entries may be negative."""

    n: int
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if len(self.w) != 2**self.n:
            raise ValueError("length does not match register size")
        assert_quasi_distribution(self.w)


# ---------------------------------------------------------------------------
# File format


def counts_to_dict(t: CountsTable) -> dict:
    """The file form: nonzero counts keyed by bitstring."""
    n = t.n
    return {
        "n": n,
        "shots": t.shots,
        "meas": list(t.meas),
        "counts": {index_to_bits(int(j), n): int(t.counts[j]) for j in np.flatnonzero(t.counts)},
    }


def has_json_type(default, value) -> bool:
    """Whether a value parsed from JSON (config or bundle file) has the JSON type of ``default``."""
    if isinstance(value, bool):  # JSON true/false are neither integers nor numbers
        return False
    if isinstance(default, list):
        return value is None or (
            isinstance(value, list) and all(has_json_type(0.0, x) for x in value)
        )
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else a ValueError naming it ``name``."""
    if not has_json_type(0, value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def setting_from_dict(d: dict) -> str:
    """The measurement setting of a file form: a list of basis letters."""
    if not isinstance(d.get("meas"), list):
        raise ValueError(f"meas must be a list of basis letters, got {d.get('meas')!r}")
    return "".join(d["meas"])


def counts_from_dict(d: dict) -> CountsTable:
    """Parse the file form; keys must be n-character 0/1 strings, numbers JSON integers."""
    n = json_int(d["n"], "n")
    vec = np.zeros(2**n, dtype=np.int64)
    for bits, c in d["counts"].items():
        if len(bits) != n or not set(bits) <= {"0", "1"}:
            raise ValueError(f"bad bitstring {bits!r} for n={n}")
        if not has_json_type(0, c):
            raise ValueError(f"count for {bits!r} must be an integer, got {c!r}")
        if not 0 <= c <= MAX_SHOTS:
            raise ValueError(f"count {c!r} for {bits!r} is negative or too large")
        vec[int(bits, 2)] = c
    return counts_from_vector(vec, setting_from_dict(d), json_int(d["shots"], "shots"))


def dist_to_dict(n: int, meas: str, p: np.ndarray) -> dict:
    return {"n": n, "meas": list(meas), "dist": [float(x) for x in p]}


def dist_from_dict(d: dict, n: int) -> Distribution:
    """The distribution of an exact file form, whose ``dist`` must hold JSON numbers."""
    p = d["dist"]
    if p is None or not has_json_type([], p):
        raise ValueError("dist must be a list of numbers")
    return Distribution(n, np.array(p, dtype=float))


# A list at least this long whose items are all floats is written by one
# C-encoder call.  If LONG_LIST items spread over it repeat a value, that
# call formats each distinct value once: the distributions of
# `direct --n 15` repeat 16-99 % of their values, while those stitched from
# a sampled bundle repeat none, where np.unique would only cost time and the
# resident memory of its sort code.  Shorter lists are written item by
# item: for 16 floats, np.unique alone costs more than their reprs.
LONG_LIST = 256


def dump_json(obj: dict) -> str:
    """Canonical JSON used for every on-disk artifact (byte-stable).

    Writes exactly what ``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``
    writes, without the stdlib's pure-Python indenting encoder.  Dict keys
    must be ``str``: any other key raises TypeError, where json.dumps would
    write it as a string.
    """
    return _encode(obj, "\n") + "\n"


def _encode(o, newline: str) -> str:
    """``o`` as json.dumps(o, indent=1, sort_keys=True) writes it; ``newline``
    is the line break and indent of the line ``o`` starts on."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is float and o - o == 0.0:  # finite; json.dumps spells NaN and infinities
        return float.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        if not all(isinstance(k, str) for k in o):
            raise TypeError(f"JSON keys must be str: {list(o)!r}")
        inner = newline + " "
        items = [encode_basestring_ascii(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + " "
        if len(o) >= LONG_LIST and set(map(type, o)) == {float}:
            sample = o[:: len(o) // LONG_LIST]
            if len(set(sample)) == len(sample):
                items = json.dumps(o)[1:-1].split(", ")
            else:
                # one repr per distinct bit pattern: -0.0 == 0.0, so the set
                # above only estimates, and equality must not merge values
                bits, inverse = np.unique(np.array(o).view(np.int64), return_inverse=True)
                reprs = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
                items = np.array(reprs, dtype=object)[inverse].tolist()
        else:
            items = [_encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(o)
