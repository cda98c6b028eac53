#!/usr/bin/env python
"""Benchmark regression tracking: re-run bench_exec and diff the baseline.

CI calls this with ``--quick``: it re-runs
``benchmarks/bench_exec.py`` into a temporary report, compares it
against the committed baseline (``BENCH_vectorized.json``), and appends
a one-line summary to ``BENCH_history.jsonl`` so benchmark drift is
visible over time.

Comparison rules:

* **correctness is absolute** — each scenario names its two
  configurations in a ``pair`` field (``row``/``vectorized``,
  ``serial``/``parallel``, ``unbatched``/``batched``);
  ``rows_match`` / ``virtual_match`` false in the fresh run fails the
  job regardless of configuration (both halves of every pair must agree
  on results and virtual cost; see ``docs/execution.md``), as do a
  ``parallel_filter`` run that silently fell back to serial execution
  or a ``batched_miss_heavy`` run that never coalesced (mean batch
  size <= 1 request), or a ``cold_start_hit_heavy`` run whose
  restarted session answered below the warm session's hit rate
  (``hit_rate_match`` false — durable-store recovery lost state), or a
  ``stress_concurrent`` run whose concurrent-pass p50/p99 latencies
  blew the checked-in SLO targets (``slo_ok`` false) or that failed to
  emit exactly one flight record per completed query (``flight_ok``
  false), or a ``pool_stress`` run whose worker pool changed observable
  semantics (``views_match`` / ``hits_match`` / ``clocks_match`` false)
  or never coalesced misses across processes (``pool_coalesced``
  false);
* **wall clock is configuration-relative** — raw wall seconds are only
  compared when the fresh run used the same ``frames`` / ``repetitions``
  / ``quick`` flag as the baseline, with a ``--tolerance`` band
  (default +/-25%).  A ``--quick`` CI run against the committed
  full-size baseline skips raw-wall checks and instead applies
  scale-free checks: the hot-path speedup must stay >= ``--min-speedup``
  (default 2.0 — the vectorized hot path earns >=2x over row
  mode even at CI smoke sizes, and regressing below that loses the
  tentpole win the committed baseline records),
  the morsel-parallel speedup must stay >= ``--min-parallel-speedup``
  (default 1.0), the miss-dominated APPLY path must stay >=
  ``--min-miss-speedup`` over row mode (default 1.0 — the pipeline
  must not cost cold model evaluation anything), the multi-process worker pool must stay >=
  ``--min-pool-speedup`` over single-process serving (default 1.0; CI
  passes 2.0 on the sleep-bound stress workload), and per-scenario
  speedup regressions beyond the tolerance are reported as warnings.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py --quick
    PYTHONPATH=src python benchmarks/compare_bench.py \
        --baseline BENCH_vectorized.json --history BENCH_history.jsonl
    PYTHONPATH=src python benchmarks/compare_bench.py \
        --report fresh.json          # compare an existing report, no re-run
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SCRIPT = Path(__file__).resolve().parent / "bench_exec.py"


def run_bench(quick: bool, output: Path) -> int:
    """Re-run bench_exec.py into ``output``; returns its exit code."""
    command = [sys.executable, str(BENCH_SCRIPT), "-o", str(output)]
    if quick:
        command.append("--quick")
    completed = subprocess.run(command, cwd=str(REPO_ROOT))
    return completed.returncode


def same_configuration(baseline: dict, fresh: dict) -> bool:
    """Raw wall times are only comparable on identical workload size."""
    return all(baseline.get(key) == fresh.get(key)
               for key in ("quick", "frames", "repetitions"))


def scenario_pair(scenario: dict) -> tuple[str, str]:
    """The scenario's two configuration names (legacy reports lack the
    ``pair`` field and always compared row vs vectorized)."""
    pair = scenario.get("pair", ["row", "vectorized"])
    return tuple(pair)


def compare(baseline: dict, fresh: dict, *, tolerance: float,
            min_speedup: float, min_parallel_speedup: float,
            min_miss_speedup: float = 1.0,
            min_pool_speedup: float = 1.0) -> tuple[list[str], list[str]]:
    """Diff ``fresh`` against ``baseline``.

    Returns ``(failures, warnings)``; any failure fails the job.
    """
    failures: list[str] = []
    warnings: list[str] = []

    # 1. Correctness gates: absolute, configuration-independent.
    for name, scenario in sorted(fresh.get("scenarios", {}).items()):
        first, second = scenario_pair(scenario)
        if not scenario.get("rows_match", False):
            failures.append(
                f"{name}: rows_match is false ({first} and {second} "
                f"returned different results)")
        if not scenario.get("virtual_match", False):
            failures.append(
                f"{name}: virtual_match is false ({first} and {second} "
                f"charged different virtual cost)")
        if "parallel_engaged" in scenario \
                and not scenario["parallel_engaged"]:
            failures.append(
                f"{name}: parallel run silently fell back to serial "
                f"execution (parallel_engaged is false)")
        if "coalesced" in scenario and not scenario["coalesced"]:
            failures.append(
                f"{name}: inference batcher never coalesced concurrent "
                f"requests (mean batch size <= 1)")
        if "hit_rate_match" in scenario \
                and not scenario["hit_rate_match"]:
            failures.append(
                f"{name}: restarted session lost hit rate vs the warm "
                f"session (durable-store recovery is incomplete)")
        if "slo_ok" in scenario and not scenario["slo_ok"]:
            slo = scenario.get("slo", {})
            failures.append(
                f"{name}: concurrent latency SLOs violated "
                f"(p50 {slo.get('p50_s')}s vs target "
                f"{slo.get('p50_target_s')}s, p99 {slo.get('p99_s')}s "
                f"vs target {slo.get('p99_target_s')}s)")
        if "flight_ok" in scenario and not scenario["flight_ok"]:
            failures.append(
                f"{name}: flight recorder did not emit exactly one "
                f"record per completed query")
        for gate, message in (
                ("views_match", "materialized view contents diverged "
                                "between the pair"),
                ("hits_match", "per-client hit rates diverged between "
                               "the pair"),
                ("clocks_match", "per-client virtual clocks diverged "
                                 "between the pair")):
            if gate in scenario and not scenario[gate]:
                failures.append(f"{name}: {gate} is false ({message})")
        if "pool_coalesced" in scenario \
                and not scenario["pool_coalesced"]:
            coalesce = scenario.get("coalesce", {})
            failures.append(
                f"{name}: cross-process coalescing never engaged "
                f"(remote_requests="
                f"{coalesce.get('remote_requests')}, mean batch "
                f"{coalesce.get('mean_batch_requests')} request(s))")
        if "net_benefit_positive" in scenario:
            if not scenario["net_benefit_positive"]:
                failures.append(
                    f"{name}: view-pool net benefit is not positive on "
                    f"a hit-heavy workload (the ledger's Eq. 3 "
                    f"accounting regressed)")
            # The ledger is observability: its wall overhead over the
            # unledgered half must stay inside the tolerance band.
            first_wall = scenario[first]["wall_seconds"]
            second_wall = scenario[second]["wall_seconds"]
            if first_wall > 0 \
                    and second_wall > first_wall * (1.0 + tolerance):
                failures.append(
                    f"{name}: ledgered wall {second_wall:.3f}s exceeds "
                    f"unledgered {first_wall:.3f}s by more than "
                    f"{tolerance:.0%} (ledger overhead regression)")

    # 2. Scenario coverage: the fresh run must keep every baseline
    #    scenario (a silently dropped scenario hides regressions).
    missing = sorted(set(baseline.get("scenarios", {}))
                     - set(fresh.get("scenarios", {})))
    for name in missing:
        failures.append(f"{name}: scenario missing from fresh run")

    # 3. Speedup floors: scale-free, apply to every configuration.
    hot = fresh.get("hot_path_speedup")
    if hot is not None and hot < min_speedup:
        failures.append(
            f"hot_path_speedup {hot:.2f}x < required {min_speedup:.2f}x "
            f"(the vectorized hot path must keep its >=2x win "
            f"over row mode)")
    par = fresh.get("parallel_speedup")
    if par is not None and par < min_parallel_speedup:
        failures.append(
            f"parallel_speedup {par:.2f}x < required "
            f"{min_parallel_speedup:.2f}x (morsel-driven execution must "
            f"not regress below serial)")
    miss = fresh.get("miss_path_speedup")
    if miss is None:
        scenario = fresh.get("scenarios", {}).get("apply_miss_heavy")
        miss = scenario.get("real_speedup") if scenario else None
    if miss is not None and miss < min_miss_speedup:
        failures.append(
            f"apply_miss_heavy speedup {miss:.2f}x < required "
            f"{min_miss_speedup:.2f}x (the miss-dominated path must not "
            f"regress below row mode)")
    pool = fresh.get("pool_speedup")
    if pool is None:
        scenario = fresh.get("scenarios", {}).get("pool_stress")
        pool = scenario.get("real_speedup") if scenario else None
    if pool is not None and pool < min_pool_speedup:
        failures.append(
            f"pool_speedup {pool:.2f}x < required "
            f"{min_pool_speedup:.2f}x (the multi-process worker pool "
            f"must keep its win over single-process serving on the "
            f"sleep-bound stress workload)")

    comparable = same_configuration(baseline, fresh)
    for name in sorted(set(baseline.get("scenarios", {}))
                       & set(fresh.get("scenarios", {}))):
        base = baseline["scenarios"][name]
        new = fresh["scenarios"][name]
        if scenario_pair(base) != scenario_pair(new):
            failures.append(
                f"{name}: configuration pair changed from "
                f"{scenario_pair(base)} to {scenario_pair(new)}")
            continue
        if comparable:
            # 4a. Same workload size: raw wall seconds within tolerance.
            for mode in scenario_pair(new):
                old_wall = base[mode]["wall_seconds"]
                new_wall = new[mode]["wall_seconds"]
                if old_wall <= 0:
                    continue
                ratio = new_wall / old_wall
                if ratio > 1.0 + tolerance:
                    failures.append(
                        f"{name}/{mode}: wall {new_wall:.3f}s is "
                        f"{ratio:.2f}x baseline {old_wall:.3f}s "
                        f"(> +{tolerance:.0%})")
                elif ratio < 1.0 - tolerance:
                    warnings.append(
                        f"{name}/{mode}: wall {new_wall:.3f}s is "
                        f"{ratio:.2f}x baseline {old_wall:.3f}s "
                        f"(faster than the tolerance band; consider "
                        f"refreshing the baseline)")
        else:
            # 4b. Different size (CI --quick vs full baseline): compare
            # the scale-free per-scenario speedup, warnings only —
            # quick runs are noisy.
            old_speedup = base.get("real_speedup")
            new_speedup = new.get("real_speedup")
            if old_speedup and new_speedup \
                    and new_speedup < old_speedup * (1.0 - tolerance):
                warnings.append(
                    f"{name}: speedup {new_speedup:.2f}x below "
                    f"baseline {old_speedup:.2f}x by more than "
                    f"{tolerance:.0%} (configurations differ: "
                    f"informational)")
    return failures, warnings


def history_entry(baseline: dict, fresh: dict, failures: list[str],
                  warnings: list[str]) -> dict:
    """One JSONL line summarizing this comparison."""
    return {
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"),
        "quick": fresh.get("quick"),
        "frames": fresh.get("frames"),
        "repetitions": fresh.get("repetitions"),
        "comparable_to_baseline": same_configuration(baseline, fresh),
        "hot_path_speedup": fresh.get("hot_path_speedup"),
        "miss_path_speedup": fresh.get("miss_path_speedup"),
        "parallel_speedup": fresh.get("parallel_speedup"),
        "batcher_mean_batch_requests":
            fresh.get("batcher_mean_batch_requests"),
        "post_restart_hit_rate": fresh.get("post_restart_hit_rate"),
        "stress_p50_seconds": fresh.get("stress_p50_seconds"),
        "stress_p99_seconds": fresh.get("stress_p99_seconds"),
        "pool_speedup": fresh.get("pool_speedup"),
        "pool_remote_requests": fresh.get("pool_remote_requests"),
        "reuse_net_benefit_virtual_seconds":
            fresh.get("reuse_net_benefit_virtual_seconds"),
        "scenarios": {
            name: {
                "pair": list(scenario_pair(s)),
                "wall_seconds": {mode: s[mode]["wall_seconds"]
                                 for mode in scenario_pair(s)},
                "real_speedup": s["real_speedup"],
                "rows_match": s["rows_match"],
                "virtual_match": s["virtual_match"],
            }
            for name, s in sorted(fresh.get("scenarios", {}).items())
        },
        "failures": failures,
        "warnings": warnings,
        "ok": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        default=REPO_ROOT / "BENCH_vectorized.json",
                        help="committed baseline report")
    parser.add_argument("--report", type=Path, default=None,
                        help="compare an existing fresh report instead "
                             "of re-running bench_exec.py")
    parser.add_argument("--quick", action="store_true",
                        help="re-run bench_exec.py with --quick "
                             "(CI smoke size)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative wall-clock tolerance "
                             "(default 0.25 = +/-25%%)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="hard floor for hot_path_speedup")
    parser.add_argument("--min-parallel-speedup", type=float, default=1.0,
                        help="hard floor for parallel_speedup "
                             "(serial vs --parallelism 4)")
    parser.add_argument("--min-miss-speedup", type=float, default=1.0,
                        help="hard floor for the apply_miss_heavy "
                             "real_speedup (vectorized vs row on the "
                             "miss-dominated path)")
    parser.add_argument("--min-pool-speedup", type=float, default=1.0,
                        help="hard floor for the pool_stress "
                             "real_speedup (multi-process worker pool "
                             "vs single-process serving)")
    parser.add_argument("--history", type=Path,
                        default=REPO_ROOT / "BENCH_history.jsonl",
                        help="JSONL file the summary is appended to "
                             "('-' disables)")
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found",
              file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())

    if args.report is not None:
        fresh = json.loads(args.report.read_text())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            output = Path(tmp) / "bench_fresh.json"
            code = run_bench(args.quick, output)
            if code != 0:
                # bench_exec exits non-zero on its own rows/virtual
                # mismatch; its report still has the details when it
                # got far enough to write one.
                if not output.exists():
                    print("error: bench_exec.py failed before writing "
                          "a report", file=sys.stderr)
                    return code
            fresh = json.loads(output.read_text())

    failures, warnings = compare(
        baseline, fresh, tolerance=args.tolerance,
        min_speedup=args.min_speedup,
        min_parallel_speedup=args.min_parallel_speedup,
        min_miss_speedup=args.min_miss_speedup,
        min_pool_speedup=args.min_pool_speedup)
    for line in warnings:
        print(f"warning: {line}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)

    if str(args.history) != "-":
        entry = history_entry(baseline, fresh, failures, warnings)
        with open(args.history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended summary to {args.history}")

    if failures:
        print(f"benchmark regression check FAILED "
              f"({len(failures)} failure(s))", file=sys.stderr)
        return 1
    comparable = same_configuration(baseline, fresh)
    mode = ("raw-wall +/-{:.0%}".format(args.tolerance) if comparable
            else "scale-free (configurations differ)")
    print(f"benchmark regression check passed [{mode}], "
          f"hot path {fresh.get('hot_path_speedup')}x, "
          f"parallel {fresh.get('parallel_speedup')}x, "
          f"pool {fresh.get('pool_speedup')}x, "
          f"mean coalesced batch "
          f"{fresh.get('batcher_mean_batch_requests')} request(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
