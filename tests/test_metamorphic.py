"""Metamorphic property tests over randomly generated workloads.

The strongest correctness property of the whole system: for *any*
exploratory workload, every reuse policy must return exactly the rows the
no-reuse configuration returns, query by query.  Workloads come from the
parameterized generator, so hypothesis explores the zoom/shift space the
paper's analysts inhabit.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.parser.parser import parse
from repro.server import EvaServer, PoolServer
from repro.server.stats import merged_metrics
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.vbench.generator import WorkloadSpec, generate_workload
from repro.video.synthetic import (
    VEHICLE_COLORS,
    VEHICLE_LABELS,
    VEHICLE_TYPES,
    SyntheticVideo,
)
from tests.test_vectorized_differential import MemoizedReference

_VIDEO = SyntheticVideo(
    VideoMetadata(name="meta", num_frames=160, width=960, height=540,
                  fps=25.0, vehicles_per_frame=6.0),
    seed=21)


def _run(queries, config: EvaConfig):
    session = EvaSession(config=config)
    session.register_video(_VIDEO)
    outputs = []
    for query in queries:
        result = session.execute(query)
        outputs.append(sorted(result.rows, key=repr))
    return outputs


workload_specs = st.builds(
    WorkloadSpec,
    num_queries=st.integers(2, 4),
    target_overlap=st.floats(0.0, 1.0),
    window_fraction=st.floats(0.2, 0.8),
    zoom_probability=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)


class TestPolicyEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload_specs)
    def test_eva_matches_noreuse_on_random_workloads(self, spec):
        queries = generate_workload("meta", 160, spec)
        baseline = _run(queries, EvaConfig(reuse_policy=ReusePolicy.NONE))
        eva = _run(queries, EvaConfig(reuse_policy=ReusePolicy.EVA))
        assert eva == baseline

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload_specs)
    def test_all_policies_agree(self, spec):
        queries = generate_workload("meta", 160, spec)
        reference = None
        for policy in (ReusePolicy.NONE, ReusePolicy.HASHSTASH,
                       ReusePolicy.FUNCACHE, ReusePolicy.EVA):
            outputs = _run(queries, EvaConfig(reuse_policy=policy))
            if reference is None:
                reference = outputs
            else:
                assert outputs == reference, policy

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload_specs)
    def test_eva_never_slower_than_noreuse_overall(self, spec):
        """Reuse may cost a little on a single query (materialization),
        but never on a whole workload of two or more queries with any
        overlap at all — and never by more than the small write overhead."""
        queries = generate_workload("meta", 160, spec)
        none_session = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.NONE))
        none_session.register_video(_VIDEO)
        eva_session = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        eva_session.register_video(_VIDEO)
        for query in queries:
            none_session.execute(query)
            eva_session.execute(query)
        assert eva_session.workload_time() <= \
            none_session.workload_time() * 1.10


# ---------------------------------------------------------------------------
# the cross-configuration fuzzer
# ---------------------------------------------------------------------------
#
# Generated query sequences run on every configuration of the engine and
# are held to the reference (``repro.reference``), which shares no code
# with it.  Sequences repeat and permute their queries, so the reuse
# paths — view hits, segment cuts, FunCache and recycler hits — are
# always exercised.

FUZZ_FRAMES = 48
_FUZZ_VIDEO = SyntheticVideo(
    VideoMetadata(name="fuzz", num_frames=FUZZ_FRAMES, width=960,
                  height=540, fps=25.0, vehicles_per_frame=5.0),
    seed=5)
_DETECTOR = "FastRCNNObjectDetector"
_DEEP = settings.get_current_profile_name() == "deep"

_atoms = st.one_of(
    st.sampled_from(VEHICLE_LABELS).map(lambda v: f"label = '{v}'"),
    st.sampled_from(VEHICLE_LABELS).map(lambda v: f"label != '{v}'"),
    st.sampled_from([0.01, 0.03, 0.08]).map(lambda v: f"area > {v}"),
    st.sampled_from([0.3, 0.6, 0.8]).map(lambda v: f"score > {v}"),
    st.sampled_from(VEHICLE_TYPES[:3]).map(
        lambda v: f"CarType(frame, bbox) = '{v}'"),
    st.sampled_from(VEHICLE_COLORS[:3]).map(
        lambda v: f"ColorDet(frame, bbox) = '{v}'"),
    st.just("VehicleFilter(frame)"),
)
_predicates = st.recursive(_atoms, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda pair: f"({pair[0]} OR {pair[1]})"),
    inner.map(lambda predicate: f"NOT ({predicate})"),
), max_leaves=3)
_shapes = st.sampled_from([
    ("id, label", ""),
    ("id, bbox, score", ""),
    ("label, COUNT(*)", " GROUP BY label"),
    ("id, area", " ORDER BY area DESC"),
])


@st.composite
def _queries(draw) -> str:
    low = draw(st.integers(0, FUZZ_FRAMES - 1))
    high = draw(st.integers(low + 1, FUZZ_FRAMES))
    clauses = [f"id >= {low}", f"id < {high}"]
    clauses += draw(st.lists(_predicates, max_size=2))
    select, suffix = draw(_shapes)
    return (f"SELECT {select} FROM fuzz CROSS APPLY {_DETECTOR}(frame) "
            f"WHERE {' AND '.join(clauses)}{suffix};")


@st.composite
def query_sequences(draw) -> list[str]:
    """A few queries, then some of them again in another order."""
    queries = draw(st.lists(_queries(), min_size=1, max_size=3))
    again = draw(st.permutations(queries))
    return queries + again[:draw(st.integers(1, len(again)))]


def _outcome(result) -> tuple:
    return tuple(result.columns), tuple(result.rows)


def _views(store) -> dict:
    return {name: sorted(map(repr, store.get(name).items()))
            for name in store.names()}


def _invocation_counts(metrics) -> dict:
    return {name: (stats.total_invocations, stats.reused_invocations,
                   stats.distinct_invocations)
            for name, stats in metrics.udf_stats.items()}


def _charges(breakdowns) -> dict:
    """Clock seconds per category over ``breakdowns``; OPTIMIZE (real
    seconds) left out, APPLY as a count of batches."""
    total: dict = {}
    for breakdown in breakdowns:
        for category, seconds in breakdown.items():
            if category is not CostCategory.OPTIMIZE:
                total[category] = total.get(category, 0.0) + seconds
    if CostCategory.APPLY in total:
        total[CostCategory.APPLY] /= EvaConfig().costs.apply_per_batch
    return total


def _session(**config) -> EvaSession:
    session = EvaSession(config=EvaConfig(**config))
    session.register_video(_FUZZ_VIDEO)
    return session


class _Expected:
    """The reference's answers for one sequence, and its accounting."""

    def __init__(self, queries: list[str]):
        self.engine = _session(reuse_policy=ReusePolicy.NONE)
        self.reference = MemoizedReference(self.engine.context.storage,
                                           self.engine.catalog)
        self.rows, self.engine_rows = [], []
        for sql in queries:
            self.engine_rows.append(_outcome(self.engine.execute(sql)))
            batch = self.reference.run(
                self.engine.optimizer.optimize(parse(sql)).plan)
            self.rows.append((tuple(batch.column_names),
                              tuple(batch.to_tuples())))

    def entry(self, view_name: str, key: tuple):
        """The rows a view named ``view_name`` must hold at ``key``."""
        model_name, video, *detector = view_name[len("mv::"):].split("@")
        answer = self.reference.answer
        if detector:  # a classifier's view: the key names a patch
            if len(key) == 1:
                return ({"value": answer(model_name, video, key[0])},)
            frame_id, rounded = key
            boxes = [detection.bbox for detection in answer(
                self.engine.catalog.udfs.get(detector[0]).model_name,
                video, frame_id) if detection.bbox.rounded() == rounded]
            assert boxes, f"{view_name}: no detection rounds to {key}"
            return ({"value": answer(model_name, video, frame_id,
                                     boxes[0])},)
        return tuple({"label": d.label, "bbox": d.bbox, "score": d.score}
                     for d in answer(model_name, video, key[0]))

    def check_views(self, items_by_view: dict) -> None:
        """Every stored entry is the reference's answer for its key."""
        for name, items in items_by_view.items():
            for key, rows in items:
                assert tuple(map(dict, rows)) == self.entry(name, key), \
                    (name, key)


def _run_server(queries, expected: _Expected) -> list:
    with EvaServer(EvaConfig(), max_workers=2) as server:
        server.register_video(_FUZZ_VIDEO)
        clients = [server.connect(f"client-{i}") for i in range(2)]
        rows = [_outcome(clients[index % 2].execute(sql))
                for index, sql in enumerate(queries)]
        base = server.state.view_store.base
        expected.check_views({name: base.get(name).items()
                              for name in base.names()})
    return rows


def _run_pool(queries, workers: int, expected: _Expected) -> list:
    with tempfile.TemporaryDirectory() as path:
        with PoolServer(EvaConfig(workers=workers, shards=2,
                                  store_mode="durable", store_path=path),
                        worker_threads=1) as pool:
            pool.register_video(_FUZZ_VIDEO)
            clients = [pool.connect(f"client-{i}") for i in range(2)]
            rows = [_outcome(clients[index % 2].execute(sql))
                    for index, sql in enumerate(queries)]
            expected.check_views({name: items for name, (_, _, items)
                                  in pool.dump_views().items()})
    return rows


def check_sequence(queries: list[str], split: int) -> None:
    """Every configuration against the reference, for one sequence."""
    expected = _Expected(queries)
    # NONE: the engine's rows, and exactly the inputs the reference
    # evaluated.
    assert expected.engine_rows == expected.rows
    inputs = expected.reference.inputs
    assert _invocation_counts(expected.engine.metrics) == {
        name: (len(keys), 0, len(set(keys)))
        for name, keys in inputs.items()}
    costs = expected.engine.config.costs
    none_clock = expected.engine.clock.breakdown()
    assert none_clock.get(CostCategory.READ_VIDEO, 0.0) == pytest.approx(
        expected.reference.frames_read * costs.read_video_per_frame)
    assert none_clock.get(CostCategory.UDF, 0.0) == pytest.approx(sum(
        len(keys) * expected.engine.catalog.zoo.get(name).per_tuple_cost
        for name, keys in inputs.items()))

    # EVA at three batch sizes and across a durable restart: the same
    # rows, views, counts and charges.
    runs = {}
    for label, config in (("512", {}), ("7", {"batch_rows": 7}),
                          ("1", {"batch_rows": 1})):
        session = _session(**config)
        runs[label] = ([_outcome(session.execute(sql)) for sql in queries],
                       _views(session.view_store),
                       _invocation_counts(session.metrics),
                       _charges([session.clock.breakdown()]))
        expected.check_views({name: session.view_store.get(name).items()
                              for name in session.view_store.names()})
    with tempfile.TemporaryDirectory() as path:
        durable = [_session(store_mode="durable", store_path=path)]
        rows = [_outcome(durable[0].execute(sql)) for sql in queries[:split]]
        durable[0].close()
        durable.append(_session(store_mode="durable", store_path=path))
        rows += [_outcome(durable[1].execute(sql))
                 for sql in queries[split:]]
        runs["durable"] = (rows, _views(durable[1].view_store),
                           _invocation_counts(merged_metrics(
                               [s.metrics for s in durable])),
                           _charges([s.clock.breakdown() for s in durable]))
        durable[1].close()
    _, whole_views, whole_counts, whole_charges = runs["512"]
    for label, (rows, views, counts, charges) in runs.items():
        assert rows == expected.rows, label
        assert views == whole_views, label
        assert counts == whole_counts, label
        assert set(charges) == set(whole_charges), label
        for category, seconds in charges.items():
            if category is CostCategory.APPLY:  # batches: fewer rows, more
                assert seconds == pytest.approx(round(seconds)), label
                assert round(seconds) >= round(whole_charges[category]), \
                    label
            else:
                assert seconds == pytest.approx(
                    whole_charges[category], rel=1e-9, abs=1e-12), \
                    (label, category)

    # The baselines, the server and the pool: rows, and views when any.
    for policy in (ReusePolicy.FUNCACHE, ReusePolicy.HASHSTASH):
        session = _session(reuse_policy=policy)
        assert [_outcome(session.execute(sql)) for sql in queries] == \
            expected.rows, policy
        assert not list(session.view_store.names())
    assert _run_server(queries, expected) == expected.rows
    if _DEEP:
        for workers in (1, 2):
            assert _run_pool(queries, workers, expected) == expected.rows


#: Shrunk sequences of past failures.
_WINDOW = (f"SELECT id, label FROM fuzz CROSS APPLY {_DETECTOR}(frame) "
           "WHERE id >= 0 AND id < 1")
_FILTERED = f"{_WINDOW} AND VehicleFilter(frame) AND VehicleFilter(frame);"


class TestCrossConfigurationFuzzer:
    @settings(deadline=None, suppress_health_check=list(HealthCheck),
              **({} if _DEEP else {"max_examples": 6,
                                   "derandomize": True}))
    @given(query_sequences(), st.integers(1, 5))
    # A restart splits APPLY over two sessions' clocks: summed as floats
    # it can read a hair under the uninterrupted run's, so batches are
    # compared as whole numbers.
    @example([f"{_WINDOW};", f"{_WINDOW};", _FILTERED] * 2, 2)
    def test_every_configuration_answers_as_the_reference(self, queries,
                                                          split):
        check_sequence(queries, min(split, len(queries) - 1))
