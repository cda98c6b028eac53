"""The model seam and its counters.

Every model call goes through
:meth:`~repro.executor.context.ExecutionContext.invoke_model`, which calls
``predict_batch`` directly and counts calls and tuples in the
``model_calls`` / ``model_tuples`` counters;
:class:`~repro.server.stats.BatcherSnapshot` reads those counters back
for ``batcher_snapshot()`` and the Prometheus exposition.
"""

from __future__ import annotations

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.metrics import MetricsCollector
from repro.server.stats import BatcherSnapshot
from repro.session import EvaSession

from tests.test_session import QUERY_SEQUENCE


def _session(policy, video) -> EvaSession:
    session = EvaSession(config=EvaConfig(reuse_policy=policy))
    session.register_video(video)
    return session


def _executed(session: EvaSession) -> int:
    return sum(stats.executed_invocations
               for stats in session.metrics.udf_stats.values())


class TestInvokeModel:
    def test_returns_the_models_answer_and_counts_one_call(self,
                                                           tiny_video):
        session = _session(ReusePolicy.NONE, tiny_video)
        model = session.catalog.zoo.get("fasterrcnn_resnet50")
        frames = [0, 3, 4, 19, 399]
        answer = session.context.invoke_model(model, tiny_video, frames)
        assert answer == model.predict_batch(tiny_video, frames)
        assert session.metrics.counters["model_calls"] == 1
        assert session.metrics.counters["model_tuples"] == len(frames)

    def test_charges_no_virtual_time(self, tiny_video):
        # The calling operator charges len(inputs) * per_tuple_cost to its
        # own clock; the seam itself must not charge it a second time.
        session = _session(ReusePolicy.NONE, tiny_video)
        model = session.catalog.zoo.get("fasterrcnn_resnet50")
        before = session.clock.breakdown()
        session.context.invoke_model(model, tiny_video, list(range(40)))
        assert session.clock.breakdown() == before

    @pytest.mark.parametrize("policy", [ReusePolicy.NONE, ReusePolicy.EVA,
                                        ReusePolicy.FUNCACHE],
                             ids=lambda policy: policy.name)
    def test_model_tuples_equal_executed_invocations(self, policy,
                                                     tiny_video):
        """Every executed (non-reused) UDF invocation is one tuple handed
        to a model, whatever the reuse policy."""
        session = _session(policy, tiny_video)
        for query in QUERY_SEQUENCE:
            session.execute(query)
            assert session.metrics.counters["model_tuples"] \
                == _executed(session), query
        assert 0 < session.metrics.counters["model_calls"] \
            <= session.metrics.counters["model_tuples"]

    def test_fully_reused_query_makes_no_model_call(self, tiny_video):
        session = _session(ReusePolicy.EVA, tiny_video)
        query = QUERY_SEQUENCE[0]
        first = session.execute(query)
        calls = dict(session.metrics.counters)
        assert calls["model_calls"] > 0
        second = session.execute(query)
        assert second.rows == first.rows
        assert session.metrics.counters["model_calls"] \
            == calls["model_calls"]
        assert session.metrics.counters["model_tuples"] \
            == calls["model_tuples"]


class TestBatcherSnapshot:
    def test_of_reads_the_model_counters(self):
        metrics = MetricsCollector()
        assert BatcherSnapshot.of(metrics) == BatcherSnapshot(
            requests=0, tuples=0, dispatches=0)
        metrics.increment("model_calls", 3)
        metrics.increment("model_tuples", 41)
        metrics.increment("kernel_cache:hit")
        assert BatcherSnapshot.of(metrics) == BatcherSnapshot(
            requests=3, tuples=41, dispatches=3)

    def test_merge_sums_fields_and_skips_absent_workers(self):
        merged = BatcherSnapshot.merge([
            BatcherSnapshot(requests=2, tuples=10, dispatches=2),
            None,
            BatcherSnapshot(requests=5, tuples=7, dispatches=5),
        ])
        assert merged == BatcherSnapshot(requests=7, tuples=17,
                                         dispatches=7)
        assert BatcherSnapshot.merge([]) == BatcherSnapshot()
        assert BatcherSnapshot.merge([None]) == BatcherSnapshot()
