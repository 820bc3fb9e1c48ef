"""Counts tables: dense in memory, bitstring-keyed only in the file form."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaincut.counts import (
    LONG_LIST,
    SLICE,
    CountsTable,
    Distribution,
    QuasiDistribution,
    counts_from_dict,
    counts_from_vector,
    dump_json,
    payload_from_dict,
    payload_to_dict,
)


def sampled_table(n: int, seed: int) -> tuple[str, CountsTable]:
    """A random setting and a table of 1000 shots measured in it."""
    rng = np.random.default_rng(seed)
    vec = rng.multinomial(1000, rng.dirichlet(np.full(2**n, 0.3)))
    return "".join(rng.choice(list("XYZ"), n)), counts_from_vector(vec, 1000)


class TestCountsTable:
    def test_n_and_shots_follow_from_vector(self):
        t = CountsTable([3, 0, 0, 5])
        assert t.n == 2 and t.shots == 8
        assert t.counts.dtype == np.int64
        np.testing.assert_array_equal(t.frequencies(), [3 / 8, 0, 0, 5 / 8])

    def test_vector_is_read_only_copy(self):
        vec = np.array([1, 2], dtype=np.int64)
        t = CountsTable(vec)
        vec[0] = 7
        assert t.counts[0] == 1
        with pytest.raises(ValueError):
            t.counts[0] = 5

    def test_equality_compares_vector(self):
        assert CountsTable([1, 0, 0, 1]) == CountsTable(np.array([1, 0, 0, 1]))
        assert CountsTable([1, 0, 0, 1]) != CountsTable([0, 1, 0, 1])
        assert CountsTable([1, 0, 0, 1]) != CountsTable([1, 0, 0, 1, 0, 0, 0, 0])

    @pytest.mark.parametrize("cls", [Distribution, QuasiDistribution])
    def test_distributions_compare_by_vector(self, cls):
        half = cls(np.array([0.5, 0.5]))
        assert half == cls(np.array([0.5, 0.5]))
        assert half != cls(np.array([0.25, 0.75]))
        assert half != cls(np.full(4, 0.25))
        assert half != CountsTable([1, 1])
        assert Distribution(np.array([0.5, 0.5])) != QuasiDistribution(np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "vec",
        [[1, 1, 1], [2, -1], [0, 0], [[1, 1], [1, 1]]],
        ids=["not-power-of-two", "negative", "no-shots", "matrix"],
    )
    def test_invalid_tables_rejected(self, vec):
        with pytest.raises(ValueError):
            CountsTable(vec)

    def test_from_vector_checks_shots(self):
        with pytest.raises(ValueError, match="shots say 5"):
            counts_from_vector(np.array([1, 3]), 5)


class TestFileForm:
    @pytest.mark.parametrize("n", [1, 3, 4, 7])
    def test_round_trip(self, n):
        meas, t = sampled_table(n, seed=n)
        d = payload_to_dict(meas, t)
        assert d["meas"] == list(meas)
        again = payload_from_dict(d, meas, t.shots)
        np.testing.assert_array_equal(again.counts, t.counts)
        assert again.shots == t.shots and again == t

    def test_round_trip_exact(self):
        p = np.random.default_rng(5).dirichlet(np.ones(16))
        d = payload_to_dict("XZXY", Distribution(p))
        assert d == {"n": 4, "meas": ["X", "Z", "X", "Y"], "dist": p.tolist()}
        again = payload_from_dict(json.loads(json.dumps(d)), "XZXY", None)
        np.testing.assert_array_equal(again.p, p)

    def test_round_trip_calibration(self):
        # a calibration file reads every qubit of its register in Z
        _, t = sampled_table(3, seed=11)
        d = payload_to_dict("ZZZ", t)
        assert d["meas"] == ["Z", "Z", "Z"] and d["shots"] == 1000
        assert payload_from_dict(d, "ZZZ", 1000) == t

    def test_keys_are_sorted_nonzero_bitstrings(self):
        d = payload_to_dict("XZX", CountsTable([0, 4, 0, 0, 0, 0, 1, 0]))
        assert d == {"n": 3, "shots": 5, "meas": ["X", "Z", "X"], "counts": {"001": 4, "110": 1}}

    @pytest.mark.parametrize(
        "field, value",
        [("meas", ["Z", "X"]), ("meas", ["Z"]), ("n", 3), ("n", 10**9)],
        ids=["other-setting", "setting-length", "other-n", "huge-n"],
    )
    def test_reader_checks_setting_and_n_first(self, field, value):
        # a huge n is rejected before it sizes the count vector
        d = payload_to_dict("ZZ", CountsTable([0, 1, 3, 0]))
        with pytest.raises(ValueError, match="holds meas"):
            payload_from_dict({**d, field: value}, "ZZ", 4)

    @pytest.mark.parametrize(
        "counts, shots, match",
        [
            ({"0a": 2}, 2, "bad bitstring"),
            ({"0 ": 2}, 2, "bad bitstring"),
            ({"010": 2}, 2, "bad bitstring"),
            ({"0": 2}, 2, "bad bitstring"),
            ({"01": -1, "10": 3}, 2, "negative"),
            ({"01": 2**70}, 2**70, "too large"),
            ({"01": 1, "10": 3}, 5, "shots say 5"),
        ],
        ids=["bad-char", "space", "too-long", "too-short", "negative", "huge", "wrong-sum"],
    )
    def test_invalid_files_rejected(self, counts, shots, match):
        with pytest.raises(ValueError, match=match):
            counts_from_dict({"n": 2, "shots": shots, "meas": ["Z", "Z"], "counts": counts})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.0),
            ("n", True),
            ("shots", "4"),
            ("shots", 4.0),
            ("counts", {"01": 1.9, "10": 3}),
            ("counts", {"01": True, "10": 3}),
            ("counts", {"01": "1", "10": 3}),
            ("meas", "ZZ"),
        ],
        ids=["float-n", "bool-n", "string-shots", "float-shots", "fractional-count",
             "bool-count", "string-count", "string-meas"],
    )
    def test_numbers_are_json_integers_not_coerced(self, field, value):
        # each edit would read back as the valid table below under int()/join()
        d = {"n": 2, "shots": 4, "meas": ["Z", "Z"], "counts": {"01": 1, "10": 3}}
        payload_from_dict(d, "ZZ", 4)
        with pytest.raises(ValueError, match="integer|holds meas"):
            payload_from_dict({**d, field: value}, "ZZ", 4)


FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()


def long_lists(items):
    """Lists of LONG_LIST or more entries drawn, with repeats, from a few ``items``."""

    def draw_from(pool, seed):
        picks = np.random.default_rng(seed).integers(len(pool), size=LONG_LIST + seed % 8)
        return [pool[i] for i in picks]

    return st.builds(draw_from, st.lists(items, min_size=1, max_size=6), st.integers(0, 2**16))


def spread_float_lists():
    """Float lists of LONG_LIST or more entries, nearly all distinct, with a few
    drawn floats written over random places."""

    def spread(extra, seed):
        rng = np.random.default_rng(seed)
        o = rng.standard_normal(LONG_LIST + seed % 8).tolist()
        for x in extra:
            o[rng.integers(len(o))] = x
        return o

    return st.builds(spread, st.lists(FLOATS, max_size=6), st.integers(0, 2**16))


def sliced_float_lists():
    """Float lists spanning two to three slices: mostly distinct values, with
    a stretch drawn from a few floats, so some slices repeat values and
    others do not."""

    def sliced(pool, seed):
        rng = np.random.default_rng(seed)
        o = rng.standard_normal(2 * SLICE + seed % (SLICE // 2)).tolist()
        start = int(rng.integers(len(o)))
        for i in range(start, min(len(o), start + SLICE)):
            o[i] = pool[i % len(pool)]
        return o

    return st.builds(sliced, st.lists(FLOATS, min_size=1, max_size=4), st.integers(0, 2**16))


# Values dump_json takes beyond what json.dumps does: numpy arrays, long
# 1-D float64 ones among them, each written as its tolist() would be.
ARRAYS = (
    long_lists(FLOATS).map(np.array)
    | spread_float_lists().map(np.array)
    | st.lists(FLOATS, max_size=4).map(np.array)
    | st.lists(st.integers(-(2**62), 2**62), max_size=4).map(np.array)
)

JSON_OBJECTS = st.recursive(
    SCALARS
    | long_lists(FLOATS)
    | spread_float_lists()
    | long_lists(st.integers())
    | long_lists(SCALARS),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=12,
)

OBJECTS_WITH_ARRAYS = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def plain(o):
    """``o`` with every ndarray replaced by its tolist()."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, dict):
        return {k: plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return type(o)(plain(x) for x in o)
    return o


def assert_dumps_like_json(obj):
    """Both forms of dump_json, returned and streamed, write json.dumps's text."""
    want = (json.dumps(plain(obj), sort_keys=True, indent=1) + "\n").split("\n")
    # compared as lists of lines: pytest explains two unequal long strings
    # with a full text diff, which makes shrinking a failure take minutes
    assert dump_json(obj).split("\n") == want
    stream = io.StringIO()
    assert dump_json(obj, stream) is None
    assert stream.getvalue().split("\n") == want


class TestDumpJson:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(JSON_OBJECTS)
    @example([0.0, -0.0])
    @example([1, 1.0])
    @example([True, 1])
    @example([0.0, -0.0] * LONG_LIST)
    # all distinct, once with 0.0 beside -0.0, which the sample counts as a repeat
    @example([float(i) for i in range(1, LONG_LIST)] + [-0.0, math.nan])
    @example([float(i) for i in range(LONG_LIST)] + [-0.0, math.nan])
    @example([1] * LONG_LIST + [1.0])
    @example([True] + [1] * LONG_LIST)
    def test_writes_what_json_dumps_writes(self, obj):
        assert_dumps_like_json(obj)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(OBJECTS_WITH_ARRAYS)
    @example(np.array([0.0, -0.0] * LONG_LIST))
    @example({"a": np.zeros(0), "b": np.arange(6).reshape(2, 3), "c": np.float64(0.5)})
    def test_arrays_are_written_as_their_lists(self, obj):
        assert_dumps_like_json(obj)

    @settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @given(sliced_float_lists())
    @example([0.0, -0.0] * SLICE + [math.nan])
    @example([float(i) for i in range(SLICE)] + [0.5] * SLICE)
    def test_lists_spanning_several_slices(self, o):
        assert len(o) > SLICE
        assert_dumps_like_json({"list": o, "array": np.array(o)})

    @pytest.mark.parametrize("key", [1, 1.5, True, None], ids=repr)
    def test_non_str_key_raises(self, key):
        # json.dumps would write these keys as strings
        with pytest.raises(TypeError, match="keys must be str"):
            dump_json({"a": {key: 1}})
