"""Microbenchmarks (real wall time): symbolic analysis and optimization.

The paper's overhead claim (Fig. 6b) rests on the optimizer — including
all symbolic predicate analysis — being orders of magnitude cheaper than
UDF evaluation.  These benchmarks measure the *real* latency of the
reduction algorithm, the derived-predicate operations, and a full
optimizer pass, and assert they stay in the low-millisecond range.
"""

from repro.config import EvaConfig, ReusePolicy
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.symbolic.dnf import dnf_from_expression
from repro.symbolic.operations import difference, union
from repro.symbolic.reduce import reduce_predicate

from conftest import make_ua_video


def _predicate(sql: str):
    return parse(f"SELECT id FROM v WHERE {sql};").where


AGGREGATE = _predicate(
    "(id < 10000 AND label = 'car' AND area > 0.3) OR "
    "(id >= 2500 AND id < 12500 AND label = 'car' AND area > 0.25 AND "
    "CarType(frame,bbox) = 'Nissan') OR "
    "(id > 7500 AND label = 'car' AND ColorDet(frame,bbox) = 'Gray')")
INCOMING = _predicate(
    "id >= 4000 AND id < 14000 AND label = 'car' AND area > 0.15")


def test_microbench_reduce_predicate(benchmark):
    raw = dnf_from_expression(AGGREGATE)
    result = benchmark(lambda: reduce_predicate(raw))
    assert not result.is_false()


def test_microbench_union_and_difference(benchmark):
    p_u = dnf_from_expression(AGGREGATE)
    q = dnf_from_expression(INCOMING)

    def derive():
        return union(p_u, q), difference(p_u, q)

    merged, missing = benchmark(derive)
    assert not merged.is_false()
    assert not missing.is_false()

    # The optimizer runs this on every query; it must be milliseconds
    # (measured mean 2.4 ms with DIFF by subtraction; the gate is ~3x
    # that).  Under --benchmark-disable nothing is timed.
    if not benchmark.disabled:
        assert benchmark.stats.stats.mean < 0.0075


def test_microbench_full_optimizer_pass(benchmark):
    video = make_ua_video("micro", 1000)
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
    session.register_video(video)
    # Populate history so the pass includes reuse analysis.
    session.execute(
        "SELECT id FROM micro CROSS APPLY FastRCNNObjectDetector(frame) "
        "WHERE id < 300 AND label = 'car' "
        "AND CarType(frame, bbox) = 'Nissan';")
    statement = parse(
        "SELECT id, bbox FROM micro CROSS APPLY "
        "FastRCNNObjectDetector(frame) WHERE id >= 100 AND id < 600 "
        "AND label = 'car' AND area > 0.2 "
        "AND CarType(frame, bbox) = 'Nissan' "
        "AND ColorDet(frame, bbox) = 'Gray';")

    optimized = benchmark(lambda: session.optimizer.optimize(statement))
    assert optimized.detector_sources
    # A full materialization-aware optimizer pass stays well under the
    # cost of a single detector invocation batch (measured mean 2.0 ms;
    # the gate is ~3x that).  Under --benchmark-disable nothing is timed.
    if not benchmark.disabled:
        assert benchmark.stats.stats.mean < 0.006
