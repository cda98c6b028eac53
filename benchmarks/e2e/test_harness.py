"""Smoke-scale checks of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by tier-1 (``testpaths = ["tests"]``).  Each workload runs
once untraced (two timed repetitions) and once traced (two pairs) on
short videos; the assertions are about the harness — names, units,
exact counts, span arithmetic, the correctness check — not about speed.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS, oracle_digests  # noqa: E402

#: Video lengths for the smoke runs: a third of the benchmark's or so.
FRAMES = {"explore_cold": 300, "refine_long": 200, "scan_hot": 1200,
          "serve_shared": 200}
SEED = 1

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def measured(request):
    """(name, end-to-end outcome, per-layer outcome, trace file content)."""
    name = request.param
    end_to_end = run.measure_end_to_end(name, SEED, repetitions=2,
                                        child_setups=0, frames=FRAMES[name])
    per_layer = run.measure_per_layer(name, SEED, pairs=2,
                                      frames=FRAMES[name])
    with open(os.path.join(ROOT, per_layer["detail"]["trace_file"])) as f:
        trace = json.load(f)
    return name, end_to_end, per_layer, trace


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_every_metric_is_emitted_with_its_unit(measured):
    _, end_to_end, per_layer, _ = measured
    for section, outcome in (("end_to_end", end_to_end),
                             ("per_layer", per_layer)):
        emitted = {key: metric["unit"]
                   for key, metric in outcome["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert emitted == declared
    for metric in end_to_end["metrics"].values():
        assert metric["value"] > 0


def test_results_match_the_oracle(measured):
    _, end_to_end, per_layer, _ = measured
    expected = oracle_digests(end_to_end["workload"])
    for outcome in (end_to_end, per_layer):
        attempted, failed, notes = outcome["checker"].verdict(expected)
        assert attempted >= 3 * len(expected)
        assert failed == 0, notes


def test_a_corrupted_digest_is_a_failed_operation(measured):
    _, end_to_end, _, _ = measured
    expected = oracle_digests(end_to_end["workload"])
    count, _, sha = expected[0].partition(":")
    expected[0] = f"{count}:{'0' * len(sha)}"
    _, failed, notes = end_to_end["checker"].verdict(expected)
    # Position 0 is wrong in the warm-up and in every timed repetition.
    assert failed == len(end_to_end["checker"].observed)
    assert "position 0" in notes[0]


def test_exact_counts_repeat_across_repetitions_and_runs(measured):
    _, end_to_end, per_layer, _ = measured
    counters = end_to_end["detail"]["counters"]
    for key in ("udf_invocations", "udf_reused", "virtual_s",
                "view_store_bytes", "hit_ratio"):
        assert len(set(counters[key])) == 1, (key, counters[key])
    # The traced run is a second, separate run of the same workload.
    layer = per_layer["metrics"]
    assert layer["metrics.udf_invocations"]["value"] == \
        counters["udf_invocations"][0]
    assert layer["metrics.udf_reused"]["value"] == counters["udf_reused"][0]
    assert layer["clock.virtual_s"]["value"] == counters["virtual_s"][0]
    assert layer["storage.hit_ratio"]["value"] == counters["hit_ratio"][0]


def test_serve_shared_hit_rates_repeat(measured):
    name, end_to_end, _, _ = measured
    if name != "serve_shared":
        pytest.skip("server workload only")
    counters = end_to_end["detail"]["counters"]
    for key in ("hit_ratio_before_restart", "hit_ratio_after_restart",
                "keys_recovered"):
        assert len(set(counters[key])) == 1, (key, counters[key])
    assert 0 < counters["hit_ratio_after_restart"][0] < 1


def test_span_self_times_partition_the_repetition(measured):
    name, _, _, trace = measured
    spans = trace["spans"]
    assert spans
    assert all(span["self_s"] >= 0 for span in spans)
    assert all(span["end"] >= span["start"] for span in spans)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    threads = 2 if name == "serve_shared" else 1
    assert sum(span["self_s"] for span in spans) <= \
        trace["repetition_wall_s"] * threads
    queries = [span for span in spans if span["layer"] == "session"]
    assert len(queries) == len(WORKLOADS[name](SEED, FRAMES[name]).positions)
    assert all(span["position"] is not None for span in queries)


def test_tracer_restores_the_program():
    from repro.symbolic.engine import SymbolicEngine

    original = SymbolicEngine.__dict__["reduce"]
    tracer = LayerTracer("none")
    tracer.install()
    assert SymbolicEngine.__dict__["reduce"] is not original
    tracer.uninstall()
    assert SymbolicEngine.__dict__["reduce"] is original


def test_an_estimate_is_taken_from_the_quiet_samples():
    from calibration import estimate, is_quiet, quiet_level

    level = 0.002
    quiet = [(1.0, 0.002, 0.0021), (1.2, 0.0021, 0.002)]
    disturbed = [(1.7, 0.0033, 0.0033), (1.5, 0.002, 0.0033)]
    assert all(is_quiet(sample, level) for sample in quiet)
    assert not any(is_quiet(sample, level) for sample in disturbed)
    # The slow sample between quiet probes stays; the disturbed ones go.
    assert estimate(quiet + disturbed, level) == pytest.approx(1.1)
    # With no quiet sample, every sample is scaled down by its probes.
    scaled = estimate(disturbed[:1], level)
    assert 1.0 < scaled < 1.7
    assert quiet_level(quiet * 10 + disturbed) == pytest.approx(0.002)


def test_the_repetition_wall_is_the_sum_of_its_pieces(measured):
    name, end_to_end, _, _ = measured
    detail = end_to_end["detail"]
    for repetition, wall in enumerate(detail["repetition_walls_s"]):
        assert wall == pytest.approx(sum(
            group[repetition][0] for group in detail["pieces"].values()))
    positions = len(end_to_end["workload"].positions)
    assert len(detail["queries"]) == positions
    if name != "serve_shared":
        # One piece per query, plus the session starts.
        assert len(detail["pieces"]) >= positions
