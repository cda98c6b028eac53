"""Tests for the reuse-decision audit trail (the "why" log).

The central scenario is the paper's Fig. 2 pair: Q1 materializes
detector results for ``id < 200``; Q2 widens the range to ``id < 300``.
EVA must answer Q2 by reusing the INTER part from views and running the
model only on the DIFF — and the audit record must *say so*.
"""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.obs.audit import (
    KIND_CLASSIFIER,
    KIND_DETECTOR,
    KIND_MODEL_SELECTION,
    KIND_RANKING,
    ReuseAuditTrail,
    ReuseDecisionRecord,
)
from repro.obs.sinks import InMemorySink
from repro.session import EvaSession

Q1 = ("SELECT id, label FROM tiny CROSS APPLY "
      "FastRCNNObjectDetector(frame) WHERE id < 200 AND label = 'car';")
Q2 = ("SELECT id, label FROM tiny CROSS APPLY "
      "FastRCNNObjectDetector(frame) WHERE id < 300 AND label = 'car';")


@pytest.fixture
def audited_session(tiny_video):
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
    session.register_video(tiny_video)
    session.tracer.sink = InMemorySink()
    return session


def audit_events(session, kind=None):
    events = session.tracer.sink.events("reuse_decision")
    if kind is None:
        return events
    return [e for e in events if e["kind"] == kind]


class TestFig2DetectorPair:
    def test_second_query_reuses_inter_and_runs_diff_only(
            self, audited_session):
        audited_session.execute(Q1)
        audited_session.execute(Q2)
        records = audit_events(audited_session, KIND_DETECTOR)
        assert len(records) == 2

        first, second = records
        # Q1: nothing materialized yet.
        assert first["reused"] is False
        assert first["missing_fraction"] == pytest.approx(1.0)

        # Q2: INTER(p_u, q) = id < 200, DIFF = the new 100 frames.
        assert second["reused"] is True
        assert second["history_predicate"] == "id < 200"
        assert second["intersection"] == "id < 200"
        assert second["difference"] == "id >= 200 AND id < 300"
        assert second["missing_fraction"] == pytest.approx(1 / 3,
                                                           rel=0.05)
        assert second["costs"]["reuse"] < second["costs"]["no-reuse"]

    def test_model_ran_only_on_the_difference(self, audited_session):
        """The audited decision matches the actual execution: 200
        invocations served from views, 100 executed."""
        audited_session.execute(Q1)
        audited_session.execute(Q2)
        stats = audited_session.metrics.udf_stats["fasterrcnn_resnet50"]
        assert stats.total_invocations == 500  # 200 + 300
        assert stats.reused_invocations == 200

    def test_signature_names_model_and_table(self, audited_session):
        audited_session.execute(Q1)
        (record,) = audit_events(audited_session, KIND_DETECTOR)
        assert record["signature"] == "fasterrcnn_resnet50@tiny"

    def test_records_stamped_with_query_trace_id(self, audited_session):
        audited_session.execute(Q1)
        audited_session.execute(Q2)
        span_traces = {e["trace_id"] for e
                       in audited_session.tracer.sink.events("span")}
        records = audit_events(audited_session, KIND_DETECTOR)
        traces = [r["trace_id"] for r in records]
        assert traces[0] != traces[1]
        assert set(traces) <= span_traces

    def test_no_reemission_on_plan_cache_hit(self, audited_session):
        audited_session.execute(Q1)
        # Second run re-optimizes (the UDF state version moved), so it
        # may emit fresh records ...
        audited_session.execute(Q1)
        settled = len(audit_events(audited_session))
        # ... but the third run is a plan-cache hit: no state change, no
        # re-optimization, and crucially no duplicated audit events.
        audited_session.execute(Q1)
        assert len(audit_events(audited_session)) == settled


class TestOtherDecisionSites:
    def test_classifier_record(self, audited_session):
        sql = "SELECT id FROM tiny WHERE id < 50 AND VehicleFilter(frame);"
        audited_session.execute(sql)
        records = audit_events(audited_session, KIND_CLASSIFIER)
        assert records, "no classifier-apply audit record"
        record = records[0]
        assert record["missing_fraction"] == pytest.approx(1.0)
        assert record["reused"] is False
        assert "reuse" in record["costs"]
        assert "no-reuse" in record["costs"]

    def test_ranking_record_lists_candidate_orders(self, audited_session):
        sql = "SELECT id FROM tiny WHERE id < 50 AND VehicleFilter(frame);"
        audited_session.execute(sql)
        records = audit_events(audited_session, KIND_RANKING)
        assert records, "no predicate-ranking audit record"
        record = records[0]
        assert record["candidates"], "ranking must list orderings"
        assert record["chosen"], "ranking must report the chosen order"
        assert "strategy" in record["costs"]

    def test_model_selection_record_with_weights(self, audited_session):
        """Algorithm 2: the audit lists candidates with W(x, q) weights
        per greedy iteration and the chosen physical sources."""
        qa = ("SELECT id, label FROM tiny CROSS APPLY "
              "ObjectDetector(frame) WHERE id < 200 AND label = 'car';")
        qb = ("SELECT id, label FROM tiny CROSS APPLY "
              "ObjectDetector(frame) WHERE id < 300 AND label = 'car';")
        audited_session.execute(qa)
        audited_session.execute(qb)
        records = audit_events(audited_session, KIND_MODEL_SELECTION)
        assert records, "no model-selection audit record"
        latest = records[-1]
        assert latest["signature"] == "ObjectDetector@tiny"
        named = [c for c in latest["candidates"] if "model" in c]
        assert named and all("per_tuple_cost" in c for c in named)
        iterations = [c for c in latest["candidates"]
                      if "iteration" in c]
        assert iterations, "greedy iterations with weights missing"
        assert any(w.get("weight") is not None
                   for w in iterations[0]["weights"])
        assert latest["chosen"]
        assert latest["reused"] is True


class TestAuditTrail:
    def test_by_kind_filters(self):
        trail = ReuseAuditTrail()
        trail.record(ReuseDecisionRecord(kind=KIND_DETECTOR, signature="a"))
        trail.record(ReuseDecisionRecord(kind=KIND_RANKING, signature="b"))
        assert len(trail) == 2
        assert [r.signature for r in trail.by_kind(KIND_RANKING)] == ["b"]
        assert [r.kind for r in trail] == [KIND_DETECTOR, KIND_RANKING]

    def test_to_event_is_json_shaped(self):
        import json

        record = ReuseDecisionRecord(
            kind=KIND_DETECTOR, signature="m@t",
            query_predicate="id < 10", history_predicate=None,
            missing_fraction=1.0, costs={"reuse": 1.0},
            reused=False)
        event = record.to_event()
        assert event["type"] == "reuse_decision"
        json.dumps(event)


class TestDurableStoreAudit:
    """A durable store's ``audit.jsonl`` holds the store's own events
    (recovery, drops), one record each; reuse decisions stay in the
    session's trail."""

    def test_drop_record_beside_the_reuse_trail(self, tmp_path,
                                                 tiny_video):
        import json

        session = EvaSession(config=EvaConfig(
            store_mode="durable", store_path=str(tmp_path / "store")))
        session.register_video(tiny_video)
        session.tracer.sink = InMemorySink()
        session.execute(Q1)
        session.execute(Q2)
        name = session.view_store.names()[0]
        session.view_store.drop(name)
        session.close()

        lines = (tmp_path / "store" / "audit.jsonl").read_text()
        records = [json.loads(line) for line in lines.splitlines()]
        assert [(record["event"], record["view"]) for record in records] \
            == [("drop", name)]
        kinds = {event["kind"] for event in audit_events(session)}
        assert kinds <= {KIND_CLASSIFIER, KIND_DETECTOR,
                         KIND_MODEL_SELECTION, KIND_RANKING,
                         "symbolic-memo"}
