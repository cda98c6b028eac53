"""The baselines on the pipeline answer as they did on the row tree.

FunCache, HashStash and fuzzy reuse have no row-tree twin: the pipeline
is their only engine.  These goldens were recorded with the row-at-a-time
implementation they replaced, on the same workload: the first three
VBENCH-high queries, the first again, then the cross-detector pair of
``tests/test_fuzzy_reuse.py``.  Each configuration must reproduce, per
query, the result rows; and at the end, the view contents, the virtual
clock per category (OPTIMIZE, measured in real seconds, excluded), #TI,
#DI and reused invocations per UDF, the FunCache entries and evictions,
and the recycler's row count.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession
from repro.vbench.queries import vbench_high
from tests.test_fuzzy_reuse import FIRST, SECOND


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def observe(video, **config) -> dict:
    """Run the workload in a fresh session; what the goldens pin."""
    session = EvaSession(config=EvaConfig(**config))
    session.register_video(video)
    queries = vbench_high(video.name, video.num_frames)[:3]
    rows = []
    for sql in queries + queries[:1] + [FIRST, SECOND]:
        result = session.execute(sql)
        rows.append(_digest((tuple(result.columns), tuple(result.rows))))
    views = {name: _digest(sorted(map(repr,
                                      session.view_store.get(name).items())))
             for name in sorted(session.view_store.names())}
    cache = session.context.function_cache
    recycler = session.context.recycler
    return {
        "rows": rows,
        "views": views,
        "clock": {category.name: seconds for category, seconds
                  in sorted(session.clock.breakdown().items(),
                            key=lambda item: item[0].name)
                  if category is not CostCategory.OPTIMIZE},
        "udfs": {name: [stats.total_invocations,
                        stats.distinct_invocations,
                        stats.reused_invocations]
                 for name, stats in sorted(session.metrics.udf_stats.items())},
        "funcache": (None if cache is None
                     else [cache.total_entries(), cache.evictions]),
        "recycler_rows": None if recycler is None else recycler.total_rows(),
    }


CONFIGS = {
    "funcache": {"reuse_policy": ReusePolicy.FUNCACHE},
    "funcache-7": {"reuse_policy": ReusePolicy.FUNCACHE,
                   "funcache_max_entries": 7},
    # Binds with reuse: storing a key can evict a later row's hit.
    "funcache-1000": {"reuse_policy": ReusePolicy.FUNCACHE,
                      "funcache_max_entries": 1000},
    "hashstash": {"reuse_policy": ReusePolicy.HASHSTASH},
    "fuzzy-0.6": {"reuse_policy": ReusePolicy.EVA, "fuzzy_reuse": True,
                  "fuzzy_iou_threshold": 0.6},
    "fuzzy-0.75": {"reuse_policy": ReusePolicy.EVA, "fuzzy_reuse": True,
                   "fuzzy_iou_threshold": 0.75},
}

#: ``observe`` per configuration, recorded with the row-tree
#: implementation of the baselines (the parent of the change that moved
#: them onto the pipeline).
GOLDENS: dict = {
    'funcache':
    {'clock': {'APPLY': 0.006500000000000002,
               'HASH': 16.552661010999852,
               'READ_VIDEO': 2.7808000000000006,
               'UDF': 50.23000000000195},
     'funcache': [2904, 0],
     'recycler_rows': None,
     'rows': ['23a1b8f74a6d9b67',
              '99cbcaa900fd752e',
              'a9c76eacad461af5',
              '23a1b8f74a6d9b67',
              'fd9b6ceeb6af9f22',
              'd29a464aa86557c5'],
     'udfs': {'car_type': [3241, 1926, 1315],
              'color_det': [632, 632, 0],
              'fasterrcnn_resnet101': [60, 60, 0],
              'fasterrcnn_resnet50': [1204, 286, 918]},
     'views': {}},
    'funcache-1000':
    {'clock': {'APPLY': 0.006500000000000002,
               'HASH': 16.552661010999852,
               'READ_VIDEO': 2.7808000000000006,
               'UDF': 113.06199999999862},
     'funcache': [1000, 3510],
     'recycler_rows': None,
     'rows': ['23a1b8f74a6d9b67',
              '99cbcaa900fd752e',
              'a9c76eacad461af5',
              '23a1b8f74a6d9b67',
              'fd9b6ceeb6af9f22',
              'd29a464aa86557c5'],
     'udfs': {'car_type': [3241, 1926, 281],
              'color_det': [632, 632, 0],
              'fasterrcnn_resnet101': [60, 60, 0],
              'fasterrcnn_resnet50': [1204, 286, 346]},
     'views': {}},
    'funcache-7':
    {'clock': {'APPLY': 0.006500000000000002,
               'HASH': 16.552661010999852,
               'READ_VIDEO': 2.7808000000000006,
               'UDF': 149.00199999999836},
     'funcache': [7, 5130],
     'recycler_rows': None,
     'rows': ['23a1b8f74a6d9b67',
              '99cbcaa900fd752e',
              'a9c76eacad461af5',
              '23a1b8f74a6d9b67',
              'fd9b6ceeb6af9f22',
              'd29a464aa86557c5'],
     'udfs': {'car_type': [3241, 1926, 0],
              'color_det': [632, 632, 0],
              'fasterrcnn_resnet101': [60, 60, 0],
              'fasterrcnn_resnet50': [1204, 286, 0]},
     'views': {}},
    'fuzzy-0.6':
    {'clock': {'APPLY': 0.006500000000000002,
               'JOIN': 0.5499999999999999,
               'MATERIALIZE': 0.07858000000000209,
               'READ_VIDEO': 2.7808000000000006,
               'READ_VIEW': 1.0205200000000538,
               'UDF': 45.19100000000028},
     'funcache': None,
     'recycler_rows': None,
     'rows': ['5d6429ef0386ee7e',
              '241fad1c56683f4f',
              '97cef5851b94ef37',
              '5d6429ef0386ee7e',
              '4e62d892c3d2818f',
              '864cd887971565f9'],
     'udfs': {'car_type': [3578, 1926, 1971],
              'color_det': [8, 8, 1],
              'fasterrcnn_resnet101': [60, 60, 0],
              'fasterrcnn_resnet50': [1204, 286, 918]},
     'views': {'mv::car_type@tiny@fasterrcnnresnet101': '8c10f29490fdb76d',
               'mv::car_type@tiny@fastrcnnobjectdetector': '6f11e480b2d0c849',
               'mv::color_det@tiny@fastrcnnobjectdetector': 'b03ffacf84ffae11',
               'mv::fasterrcnn_resnet101@tiny': '48359b3e5bea94e3',
               'mv::fasterrcnn_resnet50@tiny': 'd8f4a9c5a13bee05'}},
    'fuzzy-0.75':
    {'clock': {'APPLY': 0.006500000000000002,
               'JOIN': 0.5499999999999999,
               'MATERIALIZE': 0.08410000000000378,
               'READ_VIDEO': 2.7808000000000006,
               'READ_VIEW': 0.9970400000000676,
               'UDF': 46.846000000000345},
     'funcache': None,
     'recycler_rows': None,
     'rows': ['23a1b8f74a6d9b67',
              '90e9653e7b397614',
              'a9c76eacad461af5',
              '23a1b8f74a6d9b67',
              'fd9b6ceeb6af9f22',
              'd29a464aa86557c5'],
     'udfs': {'car_type': [3578, 1926, 1696],
              'color_det': [8, 8, 0],
              'fasterrcnn_resnet101': [60, 60, 0],
              'fasterrcnn_resnet50': [1204, 286, 918]},
     'views': {'mv::car_type@tiny@fasterrcnnresnet101': '12ff16baaae9f63c',
               'mv::car_type@tiny@fastrcnnobjectdetector': '00e889df9d828168',
               'mv::color_det@tiny@fastrcnnobjectdetector': '533c71d7b73347be',
               'mv::fasterrcnn_resnet101@tiny': '48359b3e5bea94e3',
               'mv::fasterrcnn_resnet50@tiny': 'd8f4a9c5a13bee05'}},
    'hashstash':
    {'clock': {'APPLY': 0.006500000000000002,
               'HASH': 10.05,
               'JOIN': 0.2,
               'READ_VIDEO': 2.7808000000000006,
               'READ_VIEW': 2.814,
               'UDF': 58.12000000000225},
     'funcache': None,
     'recycler_rows': 8635,
     'rows': ['23a1b8f74a6d9b67',
              '99cbcaa900fd752e',
              'a9c76eacad461af5',
              '23a1b8f74a6d9b67',
              'fd9b6ceeb6af9f22',
              'd29a464aa86557c5'],
     'udfs': {'car_type': [3241, 1926, 0],
              'color_det': [632, 632, 0],
              'fasterrcnn_resnet101': [60, 60, 0],
              'fasterrcnn_resnet50': [1204, 286, 918]},
     'views': {}},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_the_row_tree_golden(tiny_video, name):
    golden = GOLDENS[name]
    actual = observe(tiny_video, **CONFIGS[name])
    for index, (got, want) in enumerate(zip(actual["rows"],
                                            golden["rows"])):
        assert got == want, f"query {index} diverged"
    assert actual["views"] == golden["views"]
    assert set(actual["clock"]) == set(golden["clock"])
    for category, seconds in golden["clock"].items():
        assert actual["clock"][category] == pytest.approx(
            seconds, rel=1e-9, abs=1e-12), category
    for key in ("udfs", "funcache", "recycler_rows"):
        assert actual[key] == golden[key], key


def test_the_row_tree_refuses_what_it_no_longer_runs():
    for config in ({"reuse_policy": ReusePolicy.EVA},
                   {"reuse_policy": ReusePolicy.FUNCACHE},
                   {"reuse_policy": ReusePolicy.HASHSTASH},
                   {"fuzzy_reuse": True}):
        with pytest.raises(ValueError, match="pipeline only"):
            EvaConfig(execution_mode="row", **config)
        EvaConfig(**config)  # the pipeline runs it
