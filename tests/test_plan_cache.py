"""Tests for the version-keyed plan cache."""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.parser.parser import parse_predicate
from repro.session import EvaSession
from repro.symbolic.engine import SymbolicEngine


def _session(video, policy=ReusePolicy.EVA, **kwargs):
    session = EvaSession(config=EvaConfig(reuse_policy=policy, **kwargs))
    session.register_video(video)
    return session


QUERY = ("SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
         "WHERE id < 20 AND label = 'car' "
         "AND CarType(frame, bbox) = 'Nissan';")
OTHER = QUERY.replace("id < 20", "id < 40")


class TestPlanCache:
    def test_repeat_under_none_policy_hits_cache(self, tiny_video):
        """With no reuse state, nothing invalidates: the plan is reused."""
        session = _session(tiny_video, ReusePolicy.NONE)
        session.execute(QUERY)
        first_plan = session.last_optimized
        session.execute(QUERY)
        assert session.last_optimized is first_plan

    def test_eva_state_change_invalidates(self, tiny_video):
        """Under EVA, the first run materializes results, so the repeat
        must be re-optimized (the new plan reads from views)."""
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute(QUERY)
        first_plan = session.last_optimized
        session.execute(QUERY)
        assert session.last_optimized is not first_plan
        sources = session.last_optimized.detector_sources
        assert sources[0].use_view

    def test_settled_state_hits_cache(self, tiny_video):
        """Once everything is materialized, re-running stops changing
        state and the plan cache takes over."""
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute(QUERY)
        session.execute(QUERY)  # re-optimized; fully covered now
        settled_plan = session.last_optimized
        version = session.udf_manager.version
        session.execute(QUERY)
        assert session.udf_manager.version == version
        assert session.last_optimized is settled_plan

    def test_distinct_queries_cached_separately(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE)
        session.execute(QUERY)
        plan_a = session.last_optimized
        session.execute(OTHER)
        plan_b = session.last_optimized
        assert plan_a is not plan_b
        session.execute(QUERY)
        assert session.last_optimized is plan_a

    def test_reset_clears_cache(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE)
        session.execute(QUERY)
        first_plan = session.last_optimized
        session.reset_reuse_state()
        session.execute(QUERY)
        assert session.last_optimized is not first_plan

    def test_cached_plans_return_identical_results(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE)
        first = session.execute(QUERY)
        second = session.execute(QUERY)  # cached plan
        assert first.rows == second.rows


class TestNoOpUnion:
    """``UNION(p_u, q)`` with ``q`` already covered may come back with
    the conjunctives of ``p_u`` in another order; that is not a change."""

    def test_covered_guard_changes_nothing(self):
        engine = SymbolicEngine()
        manager = UdfManager(engine)
        signature = UdfSignature("CarType", ("tiny",))

        def record(text: str) -> bool:
            return manager.record_execution(
                signature, engine.analyze(parse_predicate(text)))

        assert record("id < 20 AND area > 0.05")
        assert record("id >= 30 AND id < 50 AND score > 0.5")
        history = manager.history(signature)
        settled = history.aggregated_predicate
        assert len(settled.conjunctives) == 2
        version = manager.version
        for covered in ("id < 20 AND area > 0.05",
                        "id >= 30 AND id < 50 AND score > 0.5",
                        "id < 10 AND area > 0.1"):
            assert not record(covered)
            assert history.aggregated_predicate is settled
        assert manager.version == version
        assert record("id >= 50")
        assert manager.version == version + 1

    def test_two_conjunctive_history_keeps_cached_plans(self, tiny_video):
        """Two queries whose ``CarType`` guards stay two conjunctives:
        alternating between them re-optimizes nothing once settled."""
        first = QUERY.replace("label = 'car'",
                              "label = 'car' AND area > 0.05")
        second = first.replace("id < 20", "id >= 30 AND id < 50") \
            .replace("area > 0.05", "score > 0.5")
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute(first)
        session.execute(second)
        plans = {}
        for query in (first, second):
            session.execute(query)  # re-optimized once against the views
            plans[query] = session.last_optimized
        version = session.udf_manager.version
        assert [len(h.aggregated_predicate.conjunctives)
                for h in session.udf_manager.histories()] == [1, 2]
        for query in (first, second, first, second):
            session.execute(query)
            assert session.last_optimized is plans[query]
        assert session.udf_manager.version == version


def _query(limit: int) -> str:
    return (f"SELECT id FROM tiny CROSS APPLY "
            f"FastRCNNObjectDetector(frame) WHERE id < {limit};")


class TestPlanCacheBound:
    """The cache is a bounded LRU (``EvaConfig.plan_cache_size``)."""

    def test_cache_never_exceeds_bound(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE, plan_cache_size=3)
        for limit in range(1, 9):
            session.execute(_query(limit))
        assert len(session._plan_cache) == 3
        assert session.metrics.counters["plan_cache_evictions"] == 5

    def test_eviction_is_least_recently_used(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE, plan_cache_size=2)
        session.execute(_query(1))
        plan_one = session.last_optimized
        session.execute(_query(2))
        # Touch query 1 so query 2 becomes the LRU entry...
        session.execute(_query(1))
        assert session.last_optimized is plan_one  # still cached
        # ...then overflow: query 2 is evicted, query 1 survives.
        session.execute(_query(3))
        session.execute(_query(1))
        assert session.last_optimized is plan_one
        session.execute(_query(2))  # re-optimized from scratch
        assert session.metrics.counters["plan_cache_evictions"] >= 2

    def test_zero_size_disables_cache(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE, plan_cache_size=0)
        session.execute(QUERY)
        first_plan = session.last_optimized
        session.execute(QUERY)
        assert session.last_optimized is not first_plan
        assert len(session._plan_cache) == 0
        assert session.metrics.counters["plan_cache_evictions"] == 0

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="plan_cache_size"):
            EvaConfig(plan_cache_size=-1)

    def test_eviction_counter_absent_until_first_eviction(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE)
        session.execute(QUERY)
        assert "plan_cache_evictions" not in session.metrics.counters

    def test_default_bound_is_generous(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.NONE)
        for limit in range(1, 21):
            session.execute(_query(limit))
        assert len(session._plan_cache) == 20  # nothing evicted at 128
