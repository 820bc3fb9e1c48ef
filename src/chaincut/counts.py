"""Measured-counts containers and the counts file format.

This module is deliberately simulator-free: reconstruction and mitigation
operate on counts and distributions alone, so archived (or externally
produced) data can be processed without a quantum backend in sight.

Counts file (JSON): ``{"n": 4, "shots": 1000000, "meas": ["X","Z","X","Z"],
"counts": {"0101": 12345, ...}}`` with bitstrings qubit-0-leftmost.
Exact results use ``"dist": [p_0, ..., p_{2^n-1}]`` in place of
``shots``/``counts``, indexed by basis-state integer.  In memory, a payload
is its dense vector alone; the setting is the job's.  payload_to_dict and
payload_from_dict are the one writer and the one checked reader of the
file form, and only they (through counts_from_dict) see bitstrings.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TextIO

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
    """Sampled counts of one result.

    ``counts`` is a read-only int64 vector over the 2^n outcomes, indexed
    by basis-state integer; ``n`` and ``shots`` follow from it.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1:
            raise ValueError(f"{counts.shape} counts are not a vector")
        num_qubits(len(counts))
        if np.any(counts < 0):
            raise ValueError("negative count")
        if self.shots <= 0:
            raise ValueError("shots must be positive")

    @property
    def n(self) -> int:
        return num_qubits(len(self.counts))

    @functools.cached_property
    def shots(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots

    def __eq__(self, other):
        if not isinstance(other, CountsTable):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)


def counts_from_vector(vec: np.ndarray, shots: int) -> CountsTable:
    """Counts table from a dense count vector that must sum to ``shots``."""
    t = CountsTable(vec)
    if t.shots != shots:
        raise ValueError(f"counts sum to {t.shots}, shots say {shots}")
    return t


@dataclass(frozen=True, eq=False)
class Distribution:
    """A physical probability vector over 2^n outcomes."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        assert_distribution(self.p)

    @property
    def n(self) -> int:
        return num_qubits(len(self.p))

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.p, other.p)


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """A real vector summing to 1 whose entries may be negative."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        assert_quasi_distribution(self.w)

    def __eq__(self, other):
        if not isinstance(other, QuasiDistribution):
            return NotImplemented
        return np.array_equal(self.w, other.w)


# A result: sampled counts or an exact distribution, over the register its setting reads.
Payload = CountsTable | Distribution


# ---------------------------------------------------------------------------
# File format


def payload_to_dict(meas: str, payload: Payload) -> dict:
    """The file form of a result measured in setting ``meas``: the one writer of result files."""
    n = payload.n
    if isinstance(payload, Distribution):
        return {"n": n, "meas": list(meas), "dist": payload.p.tolist()}
    counts = payload.counts
    return {
        "n": n,
        "shots": payload.shots,
        "meas": list(meas),
        "counts": {index_to_bits(int(j), n): int(counts[j]) for j in np.flatnonzero(counts)},
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


def payload_from_dict(d: dict, meas: str, shots: int | None) -> Payload:
    """The payload of a result file that must hold setting ``meas``: the one checked reader.

    ``shots`` is None for exact data, else the shot count the counts must
    sum to.  ``meas`` and ``n`` are checked first, so that a wrong ``n``
    never sizes an allocation.
    """
    n = json_int(d["n"], "n")
    if d["meas"] != list(meas) or n != len(meas):
        raise ValueError(f"holds meas={d['meas']!r} n={n}, needs meas={list(meas)!r} n={len(meas)}")
    if ("counts" in d) != (shots is not None):
        mode = "exact" if shots is None else "sampled"
        raise ValueError(f"does not hold {mode} data, as config.json says")
    if shots is None:
        p = d["dist"]
        if p is None or not has_json_type([], p) or len(p) != 2**n:
            raise ValueError(f"dist must be a list of {2**n} numbers")
        return Distribution(np.array(p, dtype=float))
    table = counts_from_dict(d)
    if table.shots != shots:
        raise ValueError(f"holds shots={table.shots}, but config.json says {shots}")
    return table


def counts_from_dict(d: dict) -> CountsTable:
    """The counts of a sampled file form; keys must be n-character 0/1 strings, numbers JSON integers."""
    n = json_int(d["n"], "n")
    vec = np.zeros(2**n, dtype=np.int64)
    index = _bitstring_index(n)
    for bits, c in d["counts"].items():
        j = index.get(bits)
        if j is None:
            raise ValueError(f"bad bitstring {bits!r} for n={n}")
        if type(c) is not int:  # a JSON integer: not a float, nor true/false
            raise ValueError(f"count for {bits!r} must be an integer, got {c!r}")
        if not 0 <= c <= MAX_SHOTS:
            raise ValueError(f"count {c!r} for {bits!r} is negative or too large")
        vec[j] = c
    return counts_from_vector(vec, json_int(d["shots"], "shots"))


@functools.lru_cache(maxsize=8)
def _bitstring_index(n: int) -> dict[str, int]:
    """Every n-bit key of the file form, mapped to its basis-state index.

    Bundle files hold 3- and 4-qubit registers, so each table is small and
    is built once per process.
    """
    return {index_to_bits(j, n): j for j in range(2**n)}


# A 1-D float64 array at least this long is written SLICE items at a time,
# each slice by one C-encoder call.  If LONG_LIST items spread over a slice
# repeat a value, that call formats each distinct value once: the
# distributions of `direct --n 15` repeat 16-99 % of their values, while
# those stitched from a sampled bundle repeat none, where np.unique would
# only cost time and the resident memory of its sort code.  Lists, and
# shorter arrays, are written item by item: for 16 floats, np.unique alone
# costs more than their reprs.
LONG_LIST = 256
SLICE = 2**14


def dump_json(obj: dict, stream: TextIO | None = None) -> str | None:
    """Canonical JSON used for every on-disk artifact (byte-stable).

    Writes exactly what ``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``
    writes, without the stdlib's pure-Python indenting encoder: piece by
    piece to ``stream`` if one is given, else returned as one str.  A value
    may also be an ndarray, written as its ``tolist()`` would be; a long 1-D
    float64 one is converted a slice at a time, so its text is never held
    whole.  Dict keys must be ``str``: any other key raises TypeError, where
    json.dumps would write it as a string.
    """
    if stream is not None:
        _encode(obj, "\n", stream.write)
        stream.write("\n")
        return None
    pieces: list[str] = []
    _encode(obj, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def _encode(o, newline: str, write) -> None:
    """Write ``o`` as json.dumps(o, indent=1, sort_keys=True) writes it;
    ``newline`` is the line break and indent of the line ``o`` starts on."""
    t = type(o)
    if t is str:
        write(encode_basestring_ascii(o))
    elif t is int:
        write(int.__repr__(o))
    elif t is float and o - o == 0.0:  # finite; json.dumps spells NaN and infinities
        write(float.__repr__(o))
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        if not all(isinstance(k, str) for k in o):
            raise TypeError(f"JSON keys must be str: {list(o)!r}")
        inner = newline + " "
        sep = "{" + inner
        for k in sorted(o):
            write(sep + encode_basestring_ascii(k) + ": ")
            _encode(o[k], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(o, np.ndarray):
        if o.ndim == 1 and o.dtype == np.float64 and len(o) >= LONG_LIST:
            inner = newline + " "
            sep = "[" + inner
            for start in range(0, len(o), SLICE):
                write(sep + ("," + inner).join(_float_reprs(o[start : start + SLICE].tolist())))
                sep = "," + inner
            write(newline + "]")
        else:
            _encode(o.tolist(), newline, write)
    elif isinstance(o, (list, tuple)):
        if len(o) == 0:
            write("[]")
            return
        inner = newline + " "
        sep = "[" + inner
        for x in o:
            write(sep)
            _encode(x, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        write(json.dumps(o))


def _float_reprs(o: list[float]) -> list[str]:
    """What json.dumps writes for each float of ``o``, formatting a repeated value once."""
    sample = o[:: max(1, len(o) // LONG_LIST)]
    if len(set(sample)) == len(sample):
        return json.dumps(o)[1:-1].split(", ")
    # one repr per distinct bit pattern: -0.0 == 0.0, so the set above only
    # estimates, and equality must not merge values
    bits, inverse = np.unique(np.array(o).view(np.int64), return_inverse=True)
    reprs = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(reprs, dtype=object)[inverse].tolist()
