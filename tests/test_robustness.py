"""Failure injection and edge-case robustness tests.

A credible release degrades predictably: corrupted persisted state raises
typed storage errors, malformed queries raise parser errors (never crash),
and degenerate inputs (single-frame videos, empty ranges, zero-object
frames) flow through every layer.
"""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EvaConfig, ReusePolicy
from repro.errors import EvaError, ParserError, StorageError
from repro.parser.lexer import Lexer
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.storage.columnar import ColumnBatch
from repro.storage.view_store import MaterializedView
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo


class TestParserRobustness:
    """The parser must reject garbage with ParserError, never crash."""

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse(text)
        except (ParserError, ValueError):
            pass  # ValueError only from int()/Accuracy conversions

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(
        ["SELECT", "FROM", "WHERE", "id", "<", "10", "(", ")", "AND",
         "'car'", ",", ";", "*", "CROSS", "APPLY"]), max_size=12))
    def test_shuffled_tokens_never_crash(self, tokens):
        try:
            parse(" ".join(tokens))
        except ParserError:
            pass

    def test_error_positions_point_into_query(self):
        with pytest.raises(ParserError) as err:
            parse("SELECT id FROM v WHERE id << 3;")
        assert err.value.position is not None
        assert 0 <= err.value.position < len("SELECT id FROM v WHERE id << 3;")

    @settings(max_examples=100)
    @given(st.text(max_size=60))
    def test_lexer_total(self, text):
        try:
            Lexer(text).tokens()
        except ParserError:
            pass


class TestStorageCorruption:
    def test_truncated_view_payload(self):
        view = MaterializedView("v", ["id"], ["x"])
        view.put((1,), [{"x": 1}])
        payload = view.serialize()[:20]
        with pytest.raises(StorageError):
            ColumnBatch.decode(payload, compressed=True)


class TestDegenerateInputs:
    def _session(self, frames=1, density=8.3):
        video = SyntheticVideo(
            VideoMetadata(name="edge", num_frames=frames, width=960,
                          height=540, fps=25.0,
                          vehicles_per_frame=density),
            seed=1)
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(video)
        return session

    def test_single_frame_video(self):
        session = self._session(frames=1)
        result = session.execute(
            "SELECT id FROM edge CROSS APPLY "
            "FastRCNNObjectDetector(frame);")
        assert set(result.column("id")) <= {0}

    def test_video_with_no_vehicles(self):
        session = self._session(frames=50, density=0.0)
        result = session.execute(
            "SELECT id FROM edge CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE label = 'car';")
        # Only spurious false positives can appear.
        assert len(result) < 20
        # Re-running reuses the (mostly empty) materialized results.
        session.execute(
            "SELECT id FROM edge CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE label = 'car';")
        stats = session.metrics.udf_stats["fasterrcnn_resnet50"]
        assert stats.reused_invocations == 50

    def test_contradictory_predicate_scans_nothing(self):
        session = self._session(frames=50)
        result = session.execute(
            "SELECT id FROM edge CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 AND id > 20;")
        assert len(result) == 0
        assert session.metrics.udf_stats == {}  # no UDF ever ran

    def test_unregistered_table_is_typed_error(self):
        session = self._session()
        with pytest.raises(EvaError):
            session.execute("SELECT id FROM ghosts;")

    def test_zero_limit(self):
        session = self._session(frames=20)
        result = session.execute(
            "SELECT id FROM edge CROSS APPLY "
            "FastRCNNObjectDetector(frame) LIMIT 0;")
        assert len(result) == 0


class TestSymbolicTimeBudget:
    """Algorithm 1's TimeOut is a budget of pair comparisons, not of
    seconds: what a reduction returns cannot depend on the machine."""

    @staticmethod
    def _wide_dnf():
        from repro.parser.parser import parse as parse_stmt
        from repro.symbolic.dnf import dnf_from_expression

        clauses = " OR ".join(
            f"(x >= {i} AND x < {i + 15} AND y > {i % 7})"
            for i in range(0, 200, 10))
        predicate = parse_stmt(
            f"SELECT id FROM v WHERE {clauses};").where
        return dnf_from_expression(predicate)

    def test_reduce_respects_time_budget(self):
        """A spent budget still returns a correct (just less-reduced)
        predicate, and says so in the exhaustion count."""
        from repro.symbolic.reduce import (budget_exhaustions,
                                           reduce_predicate)

        dnf = self._wide_dnf()
        before = budget_exhaustions()
        fast = reduce_predicate(dnf, max_steps=0)
        assert budget_exhaustions() == before + 1
        slow = reduce_predicate(dnf)
        assert budget_exhaustions() == before + 1
        assert len(slow.conjunctives) <= len(fast.conjunctives)
        for x in range(-5, 220, 13):
            for y in range(-2, 10, 3):
                values = {"x": x, "y": y}
                assert fast.satisfied_by(values) == \
                    dnf.satisfied_by(values)
                assert slow.satisfied_by(values) == \
                    dnf.satisfied_by(values)

    @pytest.mark.parametrize("max_steps", [7, 60, None])
    def test_two_runs_give_identical_conjunctives(self, max_steps):
        from repro.symbolic.reduce import reduce_predicate

        first = reduce_predicate(self._wide_dnf(), max_steps=max_steps)
        second = reduce_predicate(self._wide_dnf(), max_steps=max_steps)
        assert first.conjunctives == second.conjunctives

    def test_session_counts_exhausted_reductions(self, monkeypatch):
        import repro.symbolic.reduce as reduce_module

        monkeypatch.setattr(reduce_module, "MAX_REDUCTION_STEPS", 0)
        video = SyntheticVideo(
            VideoMetadata(name="budget", num_frames=40, width=960,
                          height=540, fps=25.0, vehicles_per_frame=5.0),
            seed=3)
        session = EvaSession(config=EvaConfig())
        session.register_video(video)
        session.execute("SELECT id FROM budget WHERE id < 5 OR id > 30 "
                        "OR (id > 10 AND id < 20);")
        assert session.metrics.counters["symbolic_budget_exhausted"] >= 1


class TestNumpyInteraction:
    def test_view_payload_is_a_flat_column_batch(self):
        """A serialized view is one deflated header line and the raw
        little buffers it sizes: int64 keys, int64 counts, float64."""
        view = MaterializedView("v", ["id"], ["x"])
        view.put((1,), [{"x": 0.5}])
        line, _, body = zlib.decompress(view.serialize()).partition(b"\n")
        header = json.loads(line)
        assert header == {"n": 1, "keys": "frames",
                          "columns": [["x", "float"]], "sizes": [8, 8, 8]}
        # The view's size is counted from those buffers.
        assert view.serialized_bytes() == 512 + int(0.80 * 24)
        assert np.frombuffer(body[:16], dtype=np.int64).tolist() == [1, 1]
        assert np.frombuffer(body[16:], dtype=np.float64).tolist() == [0.5]


class TestUnanalyzablePredicates:
    """Column-to-column comparisons execute correctly even though the
    symbolic engine cannot analyze them (the section 6 limitation)."""

    def _session(self):
        video = SyntheticVideo(
            VideoMetadata(name="joins", num_frames=60, width=960,
                          height=540, fps=25.0, vehicles_per_frame=5.0),
            seed=3)
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(video)
        return session

    def test_tautological_self_comparison(self):
        session = self._session()
        assert len(session.execute(
            "SELECT id FROM joins WHERE id = id;")) == 60
        assert len(session.execute(
            "SELECT id FROM joins WHERE id != id;")) == 0

    def test_udf_to_column_comparison_executes(self):
        session = self._session()
        query = ("SELECT id FROM joins CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 10 "
                 "AND CarType(frame, bbox) = label;")
        eva_rows = session.execute(query).rows
        baseline = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.NONE))
        baseline.register_video(SyntheticVideo(
            VideoMetadata(name="joins", num_frames=60, width=960,
                          height=540, fps=25.0, vehicles_per_frame=5.0),
            seed=3))
        assert sorted(eva_rows) == sorted(baseline.execute(query).rows)

    def test_reuse_stays_sound_around_unanalyzable_filters(self):
        """Dropping an unanalyzable conjunct from the guard must never
        produce wrong rows on a later overlapping query."""
        session = self._session()
        session.execute(
            "SELECT id FROM joins CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 30 AND id = id;")
        follow_up = ("SELECT id, label FROM joins CROSS APPLY "
                     "FastRCNNObjectDetector(frame) WHERE id < 40;")
        baseline = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.NONE))
        baseline.register_video(SyntheticVideo(
            VideoMetadata(name="joins", num_frames=60, width=960,
                          height=540, fps=25.0, vehicles_per_frame=5.0),
            seed=3))
        assert sorted(session.execute(follow_up).rows, key=repr) == \
            sorted(baseline.execute(follow_up).rows, key=repr)


class TestRenamedBuiltins:
    def test_builtin_area_under_custom_name(self, tiny_video):
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        session.execute("CREATE UDF BoxSize IMPL = 'builtin:area';")
        result = session.execute(
            "SELECT id, BoxSize(bbox) FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 5 "
            "AND BoxSize(bbox) > 0.1;")
        assert all(v > 0.1 for v in result.column("boxsize(bbox)"))

    def test_unknown_builtin_rejected_at_create(self, tiny_video):
        from repro.errors import CatalogError

        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        with pytest.raises(CatalogError):
            session.execute("CREATE UDF Sharpen IMPL = 'builtin:sharpen';")
