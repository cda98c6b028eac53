"""View-lineage ledger suite (ISSUE 9, satellite 4).

Covers the ledger unit behaviour (create / read / drop / generation
bump, derivation edges, Eq. 3 arithmetic, 8-client thread-safety), the
durable-restart provenance-equality guarantee (recovered ledger matches
the uninterrupted run byte for byte in JSONL form), the differential
guard (the ledger changes no query results, view contents, or virtual
clocks), the wasted-materialization acceptance check, and the ``repro lineage`` / ``repro top`` CLI
surfaces.
"""

from __future__ import annotations

import io
import json
import threading
from types import SimpleNamespace

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.obs.audit import KIND_DETECTOR, ReuseDecisionRecord
from repro.obs.lineage import (
    QueryLineage,
    ViewLedger,
    install_lineage,
    parse_view_name,
    record_view_probe,
    record_view_write,
    uninstall_lineage,
)
from repro.session import EvaSession

#: Deterministic unit-test cost constants (round numbers so the Eq. 3
#: arithmetic below can be asserted exactly).
COSTS = SimpleNamespace(view_read_per_key=0.001,
                        view_read_per_row=0.0001,
                        materialize_per_row=0.0002)

MODEL_COSTS = {"det": 0.1, "cls": 0.02}


def observe(ledger: ViewLedger, qlin: QueryLineage, *, query="q",
            client_id=None, audit=(), view_bytes=None):
    return ledger.observe_query(
        qlin, query=query, trace_id="t-1", client_id=client_id,
        view_bytes=view_bytes or {}, model_costs=MODEL_COSTS,
        costs=COSTS, audit=audit)


class TestParseViewName:
    def test_model_and_video(self):
        assert parse_view_name("mv::det@tiny") == ("det", "tiny")

    def test_model_only(self):
        assert parse_view_name("mv::det") == ("det", None)

    def test_non_view(self):
        assert parse_view_name("not-a-view") == (None, None)


class TestLedgerLifecycle:
    def test_create_read_drop_and_generation_bump(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", ["id"], ["label"])
        assert ledger.current_id("mv::det@tiny") == "mv::det@tiny#g1"

        qlin = QueryLineage()
        qlin.record_create("mv::det@tiny")
        qlin.record_write("mv::det@tiny", 10, 25, 0, 9)
        summary = observe(ledger, qlin, query="SELECT ...")
        assert summary["created"] == ["mv::det@tiny#g1"]
        assert summary["written"] == ["mv::det@tiny#g1"]

        record = ledger.export_current("mv::det@tiny")
        assert record["invocations_paid"] == 10
        assert record["fresh_rows"] == 25
        assert record["frame_range"] == [0, 9]
        assert record["created"]["query"] == "SELECT ..."
        assert record["created"]["seq"] == 1
        # materialize = 10 * c_e(det) + 25 * c_mat
        assert record["materialize_vs"] == pytest.approx(
            10 * 0.1 + 25 * 0.0002)

        ledger.on_drop("mv::det@tiny")
        assert ledger.export_current("mv::det@tiny")["status"] == "dropped"
        # A recreate starts generation 2; generation 1 stays queryable.
        ledger.on_create("mv::det@tiny", ["id"], ["label"])
        assert ledger.current_id("mv::det@tiny") == "mv::det@tiny#g2"
        assert ledger.export_record("mv::det@tiny#g1") is not None
        assert len(ledger.export_records()) == 2

    def test_unknown_probed_view_is_adopted(self):
        ledger = ViewLedger()
        qlin = QueryLineage()
        qlin.record_probe("mv::det@tiny", 3, 1, 6)
        observe(ledger, qlin)
        record = ledger.export_current("mv::det@tiny")
        assert record["generation"] == 1
        assert record["created"]["query"] is None
        assert record["hits"] == 3


class TestEquation3Accounting:
    def test_saved_and_net_benefit(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        build = QueryLineage()
        build.record_create("mv::det@tiny")
        build.record_write("mv::det@tiny", 100, 200, 0, 99)
        observe(ledger, build)

        read = QueryLineage()
        read.record_probe("mv::det@tiny", 80, 20, 160)
        observe(ledger, read, client_id="c1")

        record = ledger.export_current("mv::det@tiny")
        saved = 80 * 0.1 - 100 * 0.001 - 160 * 0.0001
        cost = 100 * 0.1 + 200 * 0.0002
        assert record["saved_vs"] == pytest.approx(saved)
        assert record["materialize_vs"] == pytest.approx(cost)
        assert record["net_benefit"] == pytest.approx(saved - cost)
        assert record["readers"] == {"c1": 80}
        assert record["last_access_seq"] == 2

    def test_miss_only_probe_costs_without_saving(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        qlin = QueryLineage()
        qlin.record_probe("mv::det@tiny", 0, 50, 0)
        observe(ledger, qlin)
        record = ledger.export_current("mv::det@tiny")
        assert record["saved_vs"] == pytest.approx(-50 * 0.001)
        assert record["readers"] == {}  # misses attribute no reader

    def test_ranking_and_wasted(self):
        ledger = ViewLedger()
        for name in ("mv::det@tiny", "mv::cls@tiny"):
            ledger.on_create(name, None, None)
            build = QueryLineage()
            build.record_create(name)
            build.record_write(name, 10, 10, 0, 9)
            observe(ledger, build)
        read = QueryLineage()
        read.record_probe("mv::cls@tiny", 500, 0, 500)
        observe(ledger, read)

        ranked = ledger.ranking()
        assert [r["lineage_id"] for r in ranked] == \
            ["mv::cls@tiny#g1", "mv::det@tiny#g1"]
        wasted = ledger.wasted()
        assert [r["lineage_id"] for r in wasted] == ["mv::det@tiny#g1"]


class TestDerivationEdges:
    def test_cross_view_inter_diff_edges_from_audit(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        hits = QueryLineage()
        hits.record_probe("mv::det@tiny", 5, 0, 5)
        hits.record_create("mv::cls@tiny")
        hits.record_write("mv::cls@tiny", 3, 3, 0, 2)
        entry = ReuseDecisionRecord(
            kind=KIND_DETECTOR, signature="cls@tiny",
            query_predicate="id < 10", intersection="id < 5",
            difference="5 <= id < 10")
        observe(ledger, hits, audit=[entry])

        record = ledger.export_current("mv::cls@tiny")
        assert record["created"]["predicate"] == "id < 10"
        assert record["edges"] == [
            {"source": "mv::det@tiny#g1", "op": "DIFF"},
            {"source": "mv::det@tiny#g1", "op": "INTER"},
        ]

    def test_self_extension_is_a_union_edge(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        qlin = QueryLineage()
        qlin.record_probe("mv::det@tiny", 4, 2, 4)
        qlin.record_write("mv::det@tiny", 2, 2, 4, 5)
        observe(ledger, qlin)
        record = ledger.export_current("mv::det@tiny")
        assert record["edges"] == [
            {"source": "mv::det@tiny#g1", "op": "UNION"}]

    def test_miss_only_probe_adds_no_edge(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        qlin = QueryLineage()
        qlin.record_probe("mv::det@tiny", 0, 3, 0)
        qlin.record_create("mv::cls@tiny")
        qlin.record_write("mv::cls@tiny", 3, 3, 0, 2)
        observe(ledger, qlin)
        assert ledger.export_current("mv::cls@tiny")["edges"] == []

    def test_graph_and_dot(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        qlin = QueryLineage()
        qlin.record_probe("mv::det@tiny", 1, 0, 1)
        qlin.record_create("mv::cls@tiny")
        qlin.record_write("mv::cls@tiny", 1, 1, 0, 0)
        observe(ledger, qlin)
        graph = ledger.graph()
        assert {n["id"] for n in graph["nodes"]} == \
            {"mv::det@tiny#g1", "mv::cls@tiny#g1"}
        assert graph["edges"] == [{
            "source": "mv::det@tiny#g1", "target": "mv::cls@tiny#g1",
            "op": "UNION"}]
        dot = ledger.to_dot()
        assert dot.startswith("digraph lineage {")
        assert '"mv::det@tiny#g1" -> "mv::cls@tiny#g1" [label="UNION"]' \
            in dot


class TestHooks:
    def test_hooks_are_noops_without_context(self):
        uninstall_lineage()
        record_view_probe("mv::det@tiny", [{"label": "car"}])
        record_view_write("mv::det@tiny", [(1,)], 1)

    def test_write_hook_records_keys_rows_and_frame_range(self):
        qlin = QueryLineage()
        install_lineage(qlin)
        try:
            record_view_write("mv::det@tiny", [(7, "box"), (3,), ("x",)], 5)
            assert qlin.writes["mv::det@tiny"] == [3, 5, 3, 7]
        finally:
            uninstall_lineage()


class TestThreadSafety:
    CLIENTS = 8
    QUERIES = 40

    def test_eight_concurrent_clients_fold_exactly(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", None, None)
        barrier = threading.Barrier(self.CLIENTS)
        errors = []

        def client(idx: int) -> None:
            barrier.wait()
            try:
                for q in range(self.QUERIES):
                    qlin = QueryLineage()
                    qlin.record_probe("mv::det@tiny", 2, 1, 4)
                    qlin.record_write("mv::det@tiny", 1, 2, q, q)
                    observe(ledger, qlin, client_id=f"c{idx}")
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        record = ledger.export_current("mv::det@tiny")
        total = self.CLIENTS * self.QUERIES
        assert record["hits"] == 2 * total
        assert record["misses"] == total
        assert record["rows_served"] == 4 * total
        assert record["invocations_paid"] == total
        assert record["fresh_rows"] == 2 * total
        assert record["readers"] == {
            f"c{i}": 2 * self.QUERIES for i in range(self.CLIENTS)}
        assert record["frame_range"] == [0, self.QUERIES - 1]
        assert record["last_access_seq"] == total
        expected = (2 * total * 0.1 - 3 * total * 0.001
                    - 4 * total * 0.0001)
        assert record["saved_vs"] == pytest.approx(expected)


class TestRestore:
    def test_restore_round_trips_and_resumes_counters(self):
        ledger = ViewLedger()
        ledger.on_create("mv::det@tiny", ["id"], ["label"])
        qlin = QueryLineage()
        qlin.record_create("mv::det@tiny")
        qlin.record_write("mv::det@tiny", 5, 5, 0, 4)
        qlin.record_probe("mv::det@tiny", 2, 0, 2)
        observe(ledger, qlin, client_id="c1")
        ledger.on_drop("mv::det@tiny")
        ledger.on_create("mv::det@tiny", ["id"], ["label"])
        exported = ledger.export_records()

        restored = ViewLedger()
        restored.restore(exported)
        assert json.dumps(restored.export_records(), sort_keys=True) == \
            json.dumps(exported, sort_keys=True)
        # Generation counter resumes past the recovered maximum.
        restored.on_create("mv::det@tiny", None, None)
        assert restored.current_id("mv::det@tiny") == "mv::det@tiny#g3"
        # The logical clock resumes past the recovered maximum too.
        qlin = QueryLineage()
        qlin.record_probe("mv::det@tiny", 1, 0, 1)
        observe(restored, qlin)
        assert restored.export_current(
            "mv::det@tiny")["last_access_seq"] == 2


# -- session integration ------------------------------------------------------

QUERIES = (
    "SELECT id FROM tiny CROSS APPLY "
    "FastRCNNObjectDetector(frame) WHERE id < 120;",
    "SELECT id FROM tiny CROSS APPLY "
    "FastRCNNObjectDetector(frame) WHERE id < 200;",
)


class TestSessionLineage:
    def test_reuse_query_records_provenance(self, make_session):
        session = make_session(ReusePolicy.EVA)
        for sql in QUERIES:
            session.execute(sql.rstrip(";"))
        records = session.ledger.export_records()
        assert len(records) == 1
        record = records[0]
        assert record["view"].startswith("mv::")
        assert record["video"] == "tiny"
        assert record["status"] == "live"
        assert record["created"]["query"].startswith("SELECT id")
        assert record["created"]["trace_id"]
        assert record["created"]["flight_id"]
        assert record["created"]["client_id"] == "local"
        assert record["created"]["predicate"]
        assert record["frame_range"] == [0, 199]
        assert record["invocations_paid"] == 200
        assert record["materialize_vs"] > 0
        # Query 2 re-read frames [0, 120) from the view.
        assert record["hits"] == 120
        assert record["saved_vs"] > 0
        assert record["readers"] == {"local": 120}
        assert record["bytes"] > 0
        # The second query extended the same view: UNION self-edge.
        assert {"source": record["lineage_id"], "op": "UNION"} \
            in record["edges"]

    def test_audit_records_carry_lineage_ids(self, make_session):
        from repro.obs.sinks import InMemorySink

        session = make_session(ReusePolicy.EVA)
        session.tracer.sink = InMemorySink()
        for sql in QUERIES:
            session.execute(sql.rstrip(";"))
        events = session.tracer.sink.events("reuse_decision")
        stamped = [e for e in events
                   if e["kind"] == KIND_DETECTOR and e.get("lineage_id")]
        # The reuse decision of the second query names the (view,
        # generation) it probed; the first query's record predates the
        # view (its link is carried by the flight record instead).
        assert stamped, "detector-apply records must link the ledger"
        lineage_ids = {r["lineage_id"]
                       for r in session.ledger.export_records()}
        assert {e["lineage_id"] for e in stamped} <= lineage_ids

    def test_wasted_report_names_never_reread_view(self, make_session):
        session = make_session(ReusePolicy.EVA)
        # Plant one view and never re-read it.
        session.execute(QUERIES[0].rstrip(";"))
        wasted = session.ledger.wasted()
        assert len(wasted) == 1
        assert wasted[0]["view"].startswith("mv::")
        assert wasted[0]["hits"] == 0
        assert wasted[0]["invocations_paid"] == 120
        # A second, overlapping query redeems it.
        session.execute(QUERIES[1].rstrip(";"))
        assert session.ledger.wasted() == []

    def test_ledger_disabled_config(self, tiny_video):
        session = EvaSession(config=EvaConfig(view_ledger=False))
        session.register_video(tiny_video)
        session.execute(QUERIES[0].rstrip(";"))
        assert session.ledger is None


class TestRestartEquality:
    def test_recovered_ledger_matches_uninterrupted_run(
            self, tmp_path, tiny_video):
        def make(path):
            session = EvaSession(config=EvaConfig(
                store_mode="durable", store_path=str(path)))
            session.register_video(tiny_video)
            return session

        first = make(tmp_path)
        for sql in QUERIES:
            first.execute(sql.rstrip(";"))
        expected = "\n".join(
            json.dumps(record, sort_keys=True)
            for record in first.ledger.export_records())
        assert expected
        first.close()

        second = make(tmp_path)
        recovered = "\n".join(
            json.dumps(record, sort_keys=True)
            for record in second.ledger.export_records())
        assert recovered == expected

        # Post-restart reads keep accumulating on the recovered record.
        second.execute(QUERIES[1].rstrip(";"))
        record = second.ledger.export_records()[0]
        assert record["hits"] == 120 + 200
        second.close()

    def test_drop_status_survives_restart(self, tmp_path, tiny_video):
        session = EvaSession(config=EvaConfig(
            store_mode="durable", store_path=str(tmp_path)))
        session.register_video(tiny_video)
        session.execute(QUERIES[0].rstrip(";"))
        name = session.view_store.names()[0]
        session.view_store.drop(name)
        assert session.ledger.export_current(name)["status"] == "dropped"
        session.close()

        second = EvaSession(config=EvaConfig(
            store_mode="durable", store_path=str(tmp_path)))
        second.register_video(tiny_video)
        assert second.ledger.export_current(name)["status"] == "dropped"
        second.close()


class TestReplayIsNotQueryWork:
    """Snapshots move stored entries around; a query that happens to
    trigger one paid for none of them."""

    @staticmethod
    def _paid(path, video, **store_config):
        session = EvaSession(config=EvaConfig(
            store_mode="durable", store_path=str(path), **store_config))
        session.register_video(video)
        for start in (0, 100):
            session.execute(
                "SELECT id FROM sparse CROSS APPLY ObjectDetector(frame) "
                f"WHERE id >= {start} AND id < {start + 100}")
        paid = [(record["view"], record["invocations_paid"],
                 record["fresh_rows"])
                for record in session.ledger.export_records()]
        session.close()
        return paid

    def test_ledger_ignores_snapshots(self, tmp_path, sparse_video):
        expected = self._paid(tmp_path / "rare", sparse_video,
                              store_snapshot_interval=4096)
        [(_, invocations, rows)] = expected
        assert invocations == 200 and rows > 0
        every_put = self._paid(tmp_path / "every", sparse_video,
                               store_snapshot_interval=1)
        assert every_put == expected


class TestDifferentialGuard:
    """The ledger must be a pure observer: identical results, view
    contents, and virtual clocks with it on or off."""

    def _run(self, video, *, view_ledger: bool):
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.EVA, view_ledger=view_ledger,
            batch_rows=50))
        session.register_video(video)
        outcomes = [session.execute(sql.rstrip(";")) for sql in QUERIES]
        results = [(tuple(r.columns), tuple(r.rows)) for r in outcomes]
        views = {}
        for name in session.view_store.names():
            view = session.view_store.get(name)
            views[name] = {key: view.get(key) for key in view.keys()}
        clocks = {category: seconds for category, seconds
                  in session.clock.breakdown().items()
                  if category is not CostCategory.OPTIMIZE}
        return results, views, clocks

    def test_ledger_changes_nothing(self, tiny_video):
        on = self._run(tiny_video, view_ledger=True)
        off = self._run(tiny_video, view_ledger=False)
        assert on[0] == off[0]
        assert on[1] == off[1]
        assert set(on[2]) == set(off[2])
        for category, seconds in on[2].items():
            assert seconds == pytest.approx(off[2][category])


# -- CLI surfaces -------------------------------------------------------------


class TestLineageCli:
    SQL = ("SELECT id FROM synthetic CROSS APPLY "
           "FastRCNNObjectDetector(frame) WHERE id < 30; "
           "SELECT id FROM synthetic CROSS APPLY "
           "FastRCNNObjectDetector(frame) WHERE id < 50;")

    def _main(self, argv):
        from repro.cli import main
        stdout = io.StringIO()
        code = main(argv, stdout=stdout)
        return code, stdout.getvalue()

    def test_lineage_table_and_wasted_report(self):
        code, text = self._main(
            ["lineage", self.SQL, "--dataset", "synthetic:60"])
        assert code == 0
        assert "view lineage" in text
        assert "#g1" in text
        assert "-- no wasted materializations" in text

    def test_lineage_names_planted_wasted_view(self):
        sql = ("SELECT id FROM synthetic CROSS APPLY "
               "FastRCNNObjectDetector(frame) WHERE id < 30;")
        code, text = self._main(
            ["lineage", sql, "--dataset", "synthetic:60"])
        assert code == 0
        assert "-- wasted materializations (never re-read):" in text
        assert "#g1: paid 30 invocations" in text

    def test_lineage_view_drilldown(self):
        code, text = self._main(
            ["lineage", self.SQL, "--dataset", "synthetic:60",
             "--view", "mv::fasterrcnn_resnet50@synthetic"])
        assert code == 0
        assert "created by" in text
        assert "net benefit" in text
        assert "frame range   [0, 49]" in text

    def test_lineage_unknown_view_errors(self):
        code, text = self._main(
            ["lineage", self.SQL, "--dataset", "synthetic:60",
             "--view", "mv::nothing@nowhere"])
        assert code == 2
        assert "no lineage" in text

    def test_lineage_graph_dot(self):
        code, text = self._main(
            ["lineage", self.SQL, "--dataset", "synthetic:60",
             "--graph", "dot"])
        assert code == 0
        assert text.startswith("digraph lineage {")
        assert "UNION" in text

    def test_lineage_graph_json(self):
        code, text = self._main(
            ["lineage", self.SQL, "--dataset", "synthetic:60",
             "--graph", "json"])
        assert code == 0
        graph = json.loads(text)
        assert graph["nodes"] and "edges" in graph

    def test_lineage_jsonl_validates_schema(self, tmp_path):
        from repro.obs.schema import load_schema, validate_jsonl

        jsonl = tmp_path / "lineage.jsonl"
        code, text = self._main(
            ["lineage", self.SQL, "--dataset", "synthetic:60",
             "--jsonl", str(jsonl)])
        assert code == 0
        schema = load_schema("tests/schemas/lineage.schema.json")
        assert validate_jsonl(jsonl, schema) > 0

    def test_top_once_renders_view_panel(self):
        code, text = self._main(
            ["top", "--dataset", "synthetic:80", "--clients", "2",
             "--workers", "2", "--duration", "6", "--once"])
        assert code == 0
        assert "top views" in text
        assert "mv::" in text
