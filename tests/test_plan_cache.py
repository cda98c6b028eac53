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


class _Spies:
    """Counts calls to the work a plan-cache hit should skip: parsing the
    text, building the kernel-cache key, and recording ``p_u`` updates."""

    def __init__(self, monkeypatch):
        import repro.executor.engine as engine_module
        import repro.executor.fusion as fusion_module
        import repro.session as session_module

        self.calls = {"parse": 0, "fusion_key": 0, "record_execution": 0}

        def spy(name, func):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(session_module, "parse",
                            spy("parse", session_module.parse))
        for module in (engine_module, fusion_module):
            monkeypatch.setattr(module, "fusion_key",
                                spy("fusion_key", module.fusion_key))
        monkeypatch.setattr(UdfManager, "record_execution", spy(
            "record_execution", UdfManager.record_execution))


def _settled(tiny_video) -> EvaSession:
    """An EVA session in which QUERY is fully materialized and cached."""
    session = _session(tiny_video, ReusePolicy.EVA)
    for _ in range(3):
        session.execute(QUERY)
    return session


class TestHitPath:
    """A valid hit does only the query's data work."""

    def test_valid_hit_parses_keys_and_records_nothing(
            self, tiny_video, monkeypatch):
        session = _settled(tiny_video)
        plan = session.last_optimized
        expected = session.execute(QUERY).rows
        spies = _Spies(monkeypatch)
        assert session.execute(QUERY).rows == expected
        assert session.last_optimized is plan
        assert spies.calls == {"parse": 0, "fusion_key": 0,
                               "record_execution": 0}

    def test_hit_after_a_p_u_change_replans_and_records(
            self, tiny_video, monkeypatch):
        session = _settled(tiny_video)
        settled = session.last_optimized
        version = session.udf_manager.version
        session.execute(OTHER)  # widens the detector's and CarType's p_u
        assert session.udf_manager.version > version
        spies = _Spies(monkeypatch)
        session.execute(QUERY)
        replanned = session.last_optimized
        assert replanned is not settled
        # The stale entry still holds the statement: the text is not
        # parsed again, but the new plan gets its own key and records.
        assert spies.calls == {
            "parse": 0, "fusion_key": 1,
            "record_execution": len(replanned.updates)}
        assert replanned.updates

    def test_version_moved_during_the_run_records(self, tiny_video,
                                                  monkeypatch):
        """Another client's UNION lands while the hit runs: the session
        records the plan's updates as it would without the cache."""
        from repro.executor.engine import ExecutionEngine

        session = _settled(tiny_video)
        plan = session.last_optimized
        run = ExecutionEngine.run

        def run_and_bump(engine, *args, **kwargs):
            session.udf_manager.version += 1
            return run(engine, *args, **kwargs)

        monkeypatch.setattr(ExecutionEngine, "run", run_and_bump)
        spies = _Spies(monkeypatch)
        session.execute(QUERY)
        assert session.last_optimized is plan
        assert spies.calls["record_execution"] == len(plan.updates) > 0

    def test_a_failed_first_run_records_on_the_next_hit(
            self, tiny_video, monkeypatch):
        """The plan is cached before its first run; when that run fails,
        the next hit still records its updates."""
        from repro.executor.engine import ExecutionEngine

        session = _session(tiny_video, ReusePolicy.NONE)
        run = ExecutionEngine.run

        def fail(engine, *args, **kwargs):
            raise RuntimeError("lost")

        monkeypatch.setattr(ExecutionEngine, "run", fail)
        with pytest.raises(RuntimeError):
            session.execute(QUERY)
        monkeypatch.setattr(ExecutionEngine, "run", run)
        plan = session.last_optimized
        spies = _Spies(monkeypatch)
        session.execute(QUERY)
        session.execute(QUERY)
        assert session.last_optimized is plan
        assert spies.calls["record_execution"] == len(plan.updates)

    def test_text_that_fails_to_parse_is_never_cached(self, tiny_video):
        from repro.errors import EvaError

        session = _session(tiny_video)
        for _ in range(2):
            with pytest.raises(EvaError):
                session.execute("SELEC id FROM tiny;")
        assert len(session._plan_cache) == 0


#: Repeats that settle (the two two-conjunctive CarType queries of
#: ``test_two_conjunctive_history_keeps_cached_plans`` among them), an
#: EXPLAIN and SHOW UDFS in between, and wider windows that move a settled
#: ``p_u`` on again.
FIRST = QUERY.replace("label = 'car'", "label = 'car' AND area > 0.05")
SECOND = FIRST.replace("id < 20", "id >= 30 AND id < 50") \
    .replace("area > 0.05", "score > 0.5")
SCRIPT = [FIRST, SECOND, FIRST, SECOND, FIRST, SECOND,
          QUERY, QUERY, QUERY, "EXPLAIN " + QUERY, "SHOW UDFS;", QUERY,
          OTHER, QUERY, QUERY, OTHER, FIRST, SECOND,
          OTHER.replace("id < 40", "id < 80"), OTHER, QUERY]


def _state(session) -> tuple:
    from repro.symbolic.engine import predicate_key

    views = {name: sorted(map(repr, session.view_store.get(name).items()))
             for name in session.view_store.names()}
    histories = {history.signature.key():
                 predicate_key(history.aggregated_predicate)
                 for history in session.udf_manager.histories()}
    return views, histories, session.udf_manager.version


def test_cached_session_matches_a_session_without_the_cache(
        tiny_video, monkeypatch):
    from repro.optimizer.optimizer import Optimizer

    optimized: list[int] = []
    optimize = Optimizer.optimize

    def counting(optimizer, *args, **kwargs):
        optimized.append(id(optimizer))
        return optimize(optimizer, *args, **kwargs)

    monkeypatch.setattr(Optimizer, "optimize", counting)
    cached = _session(tiny_video, ReusePolicy.EVA)
    uncached = _session(tiny_video, ReusePolicy.EVA, plan_cache_size=0)
    for sql in SCRIPT:
        assert cached.execute(sql).rows == uncached.execute(sql).rows, sql
        assert _state(cached) == _state(uncached), sql
    # The cache did serve hits in this script.
    assert optimized.count(id(cached.optimizer)) \
        < optimized.count(id(uncached.optimizer))
