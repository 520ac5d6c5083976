"""The float64-buffer LatencyTracker against the list-based oracle,
and the memory it holds per observation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import LatencyTracker

from tests.observability.list_tracker import ListLatencyTracker

# Ties, both signed zeros, a value that vanishes next to 1.0, and the
# full non-negative range (subnormals, huge values, infinity).
values = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0 ** -53, 0.001, 0.25, 1.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, allow_nan=False),
)
batches = st.lists(values, max_size=12)
percentiles = st.floats(min_value=0.0, max_value=100.0)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), values),
        st.tuples(st.just("record_many_array"), batches),
        st.tuples(st.just("record_many_list"), batches),
        st.tuples(st.just("merge"), batches),
        st.tuples(st.just("merge_all"), st.lists(batches, max_size=4)),
        st.tuples(st.just("read"), percentiles),
    ),
    max_size=30,
)


def _filled(cls, batch):
    tracker = cls()
    tracker.record_many(np.array(batch, dtype=np.float64))
    return tracker


def _same(new, old):
    """Identical bits (``0.0`` and ``-0.0`` differ), and a Python
    float on the new side."""
    assert type(new) is float
    assert new.hex() == float(old).hex()


@settings(max_examples=300, deadline=None)
@given(operations, st.lists(percentiles, max_size=6))
def test_tracker_matches_the_list_tracker(ops, probes):
    new, old = LatencyTracker(), ListLatencyTracker()
    for op, arg in ops:
        if op == "record":
            new.record(arg)
            old.record(arg)
        elif op == "record_many_array":
            new.record_many(np.array(arg, dtype=np.float64))
            old.record_many(np.array(arg, dtype=np.float64))
        elif op == "record_many_list":
            new.record_many(list(arg))
            old.record_many(list(arg))
        elif op == "merge":
            new.merge(_filled(LatencyTracker, arg))
            old.merge(_filled(ListLatencyTracker, arg))
        elif op == "merge_all":
            new = LatencyTracker.merge_all(
                [new] + [_filled(LatencyTracker, b) for b in arg])
            old = ListLatencyTracker.merge_all(
                [old] + [_filled(ListLatencyTracker, b) for b in arg])
        elif len(old):  # read mid-stream: the sort cache must refresh
            _same(new.percentile(arg), old.percentile(arg))
    assert len(new) == len(old)
    assert new._values.tobytes() == \
        np.array(old._values, dtype=np.float64).tobytes()
    assert json.dumps(new.summary()) == json.dumps(old.summary())
    if len(old):
        for p in probes:
            _same(new.percentile(p), old.percentile(p))
        for stat in ("p50", "p95", "p99", "mean", "max"):
            _same(getattr(new, stat), getattr(old, stat))


@pytest.mark.parametrize("call", [
    pytest.param(lambda t: t.record(-0.5), id="record_negative"),
    pytest.param(lambda t: t.record(float("nan")), id="record_nan"),
    pytest.param(lambda t: t.record_many(np.array([0.1, -2.0])),
                 id="array_negative"),
    pytest.param(lambda t: t.record_many(np.array([np.nan, 0.1])),
                 id="array_nan"),
    pytest.param(lambda t: t.record_many([0.1, -2.0, -3.0]),
                 id="list_negative"),
    pytest.param(lambda t: t.percentile(101.0), id="percentile_range"),
    pytest.param(lambda t: t.mean, id="empty_mean"),
    pytest.param(lambda t: t.merge(t), id="merge_self"),
])
def test_errors_match_the_list_tracker(call):
    with pytest.raises(ValueError) as new_error:
        call(LatencyTracker())
    with pytest.raises(ValueError) as old_error:
        call(ListLatencyTracker())
    assert str(new_error.value) == str(old_error.value)


def test_tracker_holds_eight_bytes_an_observation():
    """100k latencies ingested 8 at a time, as the serving path records
    one batch: the list tracker held 32.9 bytes per observation (a
    boxed float plus its list slot) and peaked at 44.9 through
    ``summary()``; the float64 buffer holds 10.5 (8 plus doubling
    slack) and peaks at 18.5 with the sorted copy."""
    count = 100_000
    batch = np.linspace(0.001, 0.1, 8)
    tracemalloc.start()
    try:
        tracker = LatencyTracker()
        for _ in range(count // len(batch)):
            tracker.record_many(batch)
        held, _ = tracemalloc.get_traced_memory()
        summary = tracker.summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["count"] == count
    assert held / count < 20.0, f"held {held / count:.1f} B/observation"
    assert peak / count < 30.0, f"peak {peak / count:.1f} B/observation"
