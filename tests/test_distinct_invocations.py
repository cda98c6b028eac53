"""#DI (Table 3's distinct UDF invocations) does not depend on how a
query ran: the pipeline records the probe's frame ids or key tuples in
bulk, a batch of any size counts the same inputs as one row per batch,
and server-wide metrics merge the per-video key sets of every client."""

from __future__ import annotations

import numpy as np

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
