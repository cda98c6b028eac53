"""#DI (Table 3's distinct UDF invocations) does not depend on how a
query ran: the pipeline records the probe's frame ids or key tuples in
bulk, a batch of any size counts the same inputs as one row per batch,
and server-wide metrics merge the per-video key sets of every client."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EvaConfig
from repro.metrics import UdfInvocationStats
from repro.server.stats import merged_metrics
from repro.session import EvaSession

DETECTOR = "FastRCNNObjectDetector(frame)"

#: Overlapping windows on two videos, so keys repeat within a video and
#: frame ids repeat across videos: a detector, a patch classifier and a
#: frame filter.
FIRST = [
    f"SELECT id FROM tiny CROSS APPLY {DETECTOR} "
    "WHERE id < 60 AND label = 'car';",
    f"SELECT id, bbox FROM tiny CROSS APPLY {DETECTOR} "
    "WHERE id >= 30 AND id < 90 AND label = 'car' "
    "AND CarType(frame, bbox) = 'Nissan';",
    f"SELECT id FROM sparse CROSS APPLY {DETECTOR} "
    "WHERE id < 80 AND VehicleFilter(frame) AND label = 'car';",
]
SECOND = [
    f"SELECT id, bbox FROM tiny CROSS APPLY {DETECTOR} "
    "WHERE id >= 50 AND id < 120 AND label = 'car' "
    "AND CarType(frame, bbox) = 'Nissan';",
    f"SELECT id FROM sparse CROSS APPLY {DETECTOR} "
    "WHERE id >= 40 AND id < 140 AND VehicleFilter(frame) "
    "AND label = 'car';",
    f"SELECT id FROM sparse CROSS APPLY {DETECTOR} "
    "WHERE id < 60 AND label = 'car';",
]
UDFS = ("fasterrcnn_resnet50", "car_type", "vehicle_filter")


def _session(tiny_video, sparse_video, **config) -> EvaSession:
    session = EvaSession(config=EvaConfig(**config))
    session.register_video(tiny_video)
    session.register_video(sparse_video)
    return session


def _counts(metrics) -> dict[str, tuple[int, int, int]]:
    return {name: (stats.total_invocations, stats.reused_invocations,
                   stats.distinct_invocations)
            for name, stats in metrics.udf_stats.items()}


def test_every_batch_size_counts_the_same_distinct_inputs(
        tiny_video, sparse_video):
    counts = {}
    for batch_rows in (1, 512):
        session = _session(tiny_video, sparse_video, batch_rows=batch_rows)
        for sql in FIRST + SECOND:
            session.execute(sql)
        counts[batch_rows] = _counts(session.metrics)
    assert set(UDFS) <= set(counts[1])
    assert counts[512] == counts[1]
    for name in UDFS:
        total, reused, distinct = counts[1][name]
        assert reused > 0 and distinct < total


def test_merged_metrics_union_the_keys_two_sessions_share(
        tiny_video, sparse_video):
    a = _session(tiny_video, sparse_video)
    b = _session(tiny_video, sparse_video)
    both = _session(tiny_video, sparse_video)
    for sql in FIRST:
        a.execute(sql)
        both.execute(sql)
    for sql in SECOND:
        b.execute(sql)
        both.execute(sql)
    merged = merged_metrics([a.metrics, b.metrics]).udf_stats
    alone = both.metrics.udf_stats
    for name in UDFS:
        shared = (a.metrics.udf_stats[name].distinct_invocations
                  + b.metrics.udf_stats[name].distinct_invocations
                  - merged[name].distinct_invocations)
        assert shared > 0, name  # the two sessions computed common keys
        assert merged[name].distinct_invocations == \
            alone[name].distinct_invocations
        assert merged[name].total_invocations == (
            a.metrics.udf_stats[name].total_invocations
            + b.metrics.udf_stats[name].total_invocations)


class TestUdfInvocationStatsMerge:
    def test_keys_are_distinct_per_video(self):
        stats = UdfInvocationStats("m")
        stats.record([1, 2], reused=False, video="a")
        stats.record([2, 3], reused=True, video="b")
        assert stats.distinct_invocations == 4

    def test_frame_id_arrays_count_as_their_ints(self):
        stats = UdfInvocationStats("m")
        stats.record(np.array([5, 6]), reused=False, video="a")
        stats.record([5, 6], reused=True, video="a")
        assert stats.distinct_invocations == 2

    def test_merge_unions_per_video_and_sums_counts(self):
        left, right = UdfInvocationStats("m"), UdfInvocationStats("m")
        left.record(np.array([1, 2]), reused=False, video="a")
        right.record([2, 3], reused=True, video="a")
        right.record([(2, (0, 0, 1, 1))], reused=False, video="b")
        left.merge(right)
        assert (left.total_invocations, left.reused_invocations,
                left.distinct_invocations) == (5, 2, 4)


#: Frame ids collide often; packed patch keys span int64.
_INTS = st.integers(0, 40) | st.integers(0, 2**62)
_TUPLES = st.tuples(st.integers(0, 40),
                    st.tuples(*[st.integers(0, 3)] * 4))
_RECORDS = st.tuples(
    st.sampled_from(["array", "ints", "mixed"]),
    st.sampled_from(["a", "b"]),
    st.lists(_INTS, max_size=12),
    st.lists(_TUPLES, max_size=4),
    st.booleans())


def _apply(stats: UdfInvocationStats, reference: dict, record) -> None:
    """One record into ``stats`` and into the plain-set ``reference``."""
    kind, video, ints, tuples, reused = record
    if kind == "array":
        keys = np.array(ints, dtype=np.int64)
    elif kind == "ints":
        keys = list(ints)
    else:  # a patch classifier's list: packed ints and key tuples
        keys = list(ints) + list(tuples)
    stats.record(keys, reused=reused, video=video)
    reference.setdefault(video, set()).update(
        keys.tolist() if isinstance(keys, np.ndarray) else keys)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    _RECORDS.map(lambda record: ("record", record)),
    st.lists(_RECORDS, max_size=4).map(lambda records: ("merge", records))),
    max_size=12))
def test_distinct_invocations_match_a_plain_set(steps):
    """Int arrays, Python-int lists, key tuples and merges, in any order
    over two videos, count what one set of keys per video counts."""
    stats, reference, total = UdfInvocationStats("m"), {}, 0
    for kind, payload in steps:
        if kind == "record":
            _apply(stats, reference, payload)
            total += len(payload[2]) + (len(payload[3])
                                        if payload[0] == "mixed" else 0)
        else:
            other, other_reference = UdfInvocationStats("m"), {}
            for record in payload:
                _apply(other, other_reference, record)
            stats.merge(other)
            total += other.total_invocations
            for video, keys in other_reference.items():
                reference.setdefault(video, set()).update(keys)
        assert stats.distinct_invocations == \
            sum(map(len, reference.values()))
        assert stats.total_invocations == total
