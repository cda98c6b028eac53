"""End-to-end benchmark: four CPU-bound workloads, rep-median metrics.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--record-expected]

One process measures one workload (``all`` runs them one after another,
each in its own subprocess).  The run prints every metric by name with its
unit, the seed and the full ``EvaConfig``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

How a number is made (see README.md for why):

* the query list is pinned by ``--seed`` and the number of timed
  repetitions by the workload (``REPETITIONS``, scaled by ``--seconds``
  over the default 10) — never by a clock;
* one untimed warm-up repetition, ``gc.collect()`` before every repetition;
* every timed piece of work — a query, a session or server start, a
  shutdown — sits between two probes of the box (``calibration.py``); a
  piece's seconds are taken from the repetitions in which both its probes
  were quiet;
* a latency percentile is taken over positions of the per-position median
  over those repetitions; throughput is the positions over the sum of the
  pieces' means over those repetitions;
* ``setup_s`` is put together the same way from the pieces of two cold
  set-ups (this process and a short-lived child that only sets up, run
  between timed repetitions), each from interpreter start to "ready for
  the first timed repetition".
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected")

DEFAULT_SECONDS = 10
#: Timed repetitions of a run at the default ``--seconds``: 7 to 18 seconds
#: of timed work on the 2-core box this was sized on, as many as the
#: driver's budget for all its runs leaves after the set-ups.
REPETITIONS = {"explore_cold": 5, "refine_long": 6, "scan_hot": 12,
               "serve_shared": 8}
#: Cold set-ups measured in child processes, besides the run's own.
CHILD_SETUPS = 1

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "view_store_mb": "MB",
}


def _bootstrap() -> None:
    """Pin the hash seed and import the program from *this* checkout."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order feeds sympy's term ordering; pin it so a
        # repetition does the same work in every process.  exec replaces
        # this process, it does not start another.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"benchmarks/e2e: no program to measure: {source}/repro "
                 "is missing (run from a full checkout)")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)


if __name__ == "__main__":
    _bootstrap()

from calibration import (estimate, is_quiet, probe, quiet_level,  # noqa: E402
                         timed)
from layers import per_layer_metrics  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS, digest, oracle_digests  # noqa: E402

_IMPORTED = time.perf_counter()
_IMPORT_PROBE = probe()


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    below = int(rank)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (rank - below)


def repetitions_for(name: str, seconds: float) -> int:
    """``--seconds`` scales the repetition count; it never times it."""
    return max(3, round(REPETITIONS[name] * seconds / DEFAULT_SECONDS))


# -- correctness --------------------------------------------------------------


def _input_fingerprint(workload) -> str:
    """SHA-1 over everything the program is given: videos and SQL."""
    lines = [f"{video.name}:{video.num_frames}:{video.seed}"
             for video in workload.videos]
    lines.extend(sql for _, sql in workload.positions)
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def _expected_path(name: str, seed: int) -> str:
    return os.path.join(EXPECTED, f"{name}.seed{seed}.json")


def load_expected(workload, seed: int) -> list[str] | None:
    """Recorded oracle digests, if they were recorded for exactly these
    videos and this query list."""
    try:
        with open(_expected_path(workload.name, seed)) as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        return None
    if recorded.get("input_sha1") != _input_fingerprint(workload):
        return None
    return recorded["digests"]


def record_expected(name: str, seed: int) -> str:
    workload = WORKLOADS[name](seed)
    os.makedirs(EXPECTED, exist_ok=True)
    path = _expected_path(name, seed)
    with open(path, "w") as handle:
        json.dump({"workload": name, "seed": seed,
                   "input_sha1": _input_fingerprint(workload),
                   "oracle": "ReusePolicy.NONE, execution_mode='row'",
                   "digests": oracle_digests(workload)}, handle, indent=1)
        handle.write("\n")
    return path


class Checker:
    """Digests every repetition's results without re-hashing identical
    row lists: a result equal to the first one seen at its position
    shares that one's digest."""

    def __init__(self, positions: int):
        self._reference: list = [None] * positions
        #: One list of digests (or exceptions) per checked repetition.
        self.observed: list[list] = []

    def add(self, results: list) -> None:
        digests = []
        for position, rows in enumerate(results):
            if isinstance(rows, Exception):
                digests.append(rows)
                continue
            reference = self._reference[position]
            if reference is None:
                reference = self._reference[position] = (rows, digest(rows))
            digests.append(reference[1] if rows == reference[0]
                           else digest(rows))
        self.observed.append(digests)

    def verdict(self, expected: list[str]) -> tuple[int, int, list[str]]:
        """(attempted, failed, first few failure descriptions)."""
        attempted = failed = 0
        notes: list[str] = []
        for repetition, digests in enumerate(self.observed):
            for position, observed in enumerate(digests):
                attempted += 1
                if observed == expected[position]:
                    continue
                failed += 1
                if len(notes) < 5:
                    notes.append(
                        f"repetition {repetition} position {position}: "
                        f"got {observed!r}, oracle {expected[position]}")
        return attempted, failed, notes


# -- measuring ----------------------------------------------------------------


def _repetition(workload, tracer=None):
    gc.collect()
    return workload.repetition(tracer)


def set_up(name: str, seed: int, frames: int | None = None):
    """Everything before the first timed repetition.  Returns the
    workload, the warm-up repetition and the set-up: its seconds since
    interpreter start and its timed pieces by name (imports, building the
    inputs, the workload's own set-up, the warm-up repetition's pieces).
    ``frames`` shortens the videos (harness tests)."""
    pieces = {"import": (_IMPORTED - _STARTED, _IMPORT_PROBE, _IMPORT_PROBE)}
    workload, pieces["inputs"] = timed(
        lambda: (WORKLOADS[name](seed) if frames is None
                 else WORKLOADS[name](seed, frames)), _IMPORT_PROBE)
    pieces.update(workload.setup())
    warm_up = _repetition(workload)
    pieces.update((f"warm-up:{key}", piece)
                  for key, piece in warm_up.pieces.items())
    return workload, warm_up, {"total_s": time.perf_counter() - _STARTED,
                               "pieces": pieces}


def _child_setup(name: str, seed: int) -> dict:
    finished = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        check=True, capture_output=True, text=True)
    return json.loads(finished.stdout.strip().splitlines()[-1])


def setup_seconds(setups: list[dict], level: float) -> float:
    """One cold set-up on the undisturbed box: every piece's estimate over
    the set-ups, plus the median of what the pieces do not cover
    (collections, the probes themselves)."""
    covered = sum(estimate([setup["pieces"][key] for setup in setups], level)
                  for key in setups[0]["pieces"])
    return covered + statistics.median(
        setup["total_s"] - sum(sample[0]
                               for sample in setup["pieces"].values())
        for setup in setups)


def measure_end_to_end(name: str, seed: int, repetitions: int,
                       child_setups: int, frames: int | None = None) -> dict:
    workload, warm_up, own_setup = set_up(name, seed, frames)
    checker = Checker(len(workload.positions))
    setups = [own_setup]
    # The other cold set-ups run *between* timed repetitions, evenly
    # spaced: the repetitions are stretched over more wall time, so a
    # disturbance of ten seconds covers fewer of them.
    due = [round(repetitions * k / (child_setups + 1))
           for k in range(1, child_setups + 1)]
    try:
        checker.add(warm_up.results)
        timed_reps = []
        for _ in range(repetitions):
            rep = _repetition(workload)
            checker.add(rep.results)
            rep.results = None
            timed_reps.append(rep)
            setups.extend(_child_setup(name, seed)
                          for at in due if at == len(timed_reps))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()
    #: name or position -> its sample in every timed repetition
    pieces = {name: [rep.pieces[name] for rep in timed_reps]
              for name in timed_reps[0].pieces}
    queries = [[rep.samples[position] for rep in timed_reps]
               for position in range(len(workload.positions))]
    every = [sample for group in pieces.values() for sample in group]
    every += [sample for setup in setups
              for sample in setup["pieces"].values()]
    level = quiet_level(every)
    latencies = [estimate(group, level) for group in queries]
    # The mean, not the median, of a piece's quiet samples: a cost that
    # lands on another piece every repetition (a full collection, a WAL
    # group commit) stays in the wall.
    wall = sum(estimate(group, level, statistics.fmean)
               for group in pieces.values())
    last = timed_reps[-1].counters
    values = {
        "queries_per_s": len(latencies) / wall,
        "query_p50_s": percentile(latencies, 50),
        "query_p90_s": percentile(latencies, 90),
        "setup_s": setup_seconds(setups, level),
        "peak_rss_mb": peak_rss_mb,
        "view_store_mb": last["view_store_bytes"] / 1e6,
    }
    return {
        "workload": workload,
        "checker": checker,
        "metrics": {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                    for key, value in values.items()},
        "detail": {
            "repetitions": repetitions,
            "positions": len(latencies),
            "latency_samples": len(latencies) * repetitions,
            "quiet_probe_s": level,
            "quiet_share": (sum(is_quiet(sample, level) for sample in every)
                            / len(every)),
            "pieces_without_quiet_sample": sum(
                not any(is_quiet(sample, level) for sample in group)
                for group in pieces.values()),
            "timed_s": sum(rep.wall_s for rep in timed_reps),
            "repetition_walls_s": [rep.wall_s for rep in timed_reps],
            "setup_totals_s": [setup["total_s"] for setup in setups],
            "pieces": pieces,
            "queries": queries,
            "setups": setups,
            "counters": {key: [rep.counters[key] for rep in timed_reps]
                         for key in sorted(last)},
        },
    }


def measure_per_layer(name: str, seed: int, pairs: int,
                      frames: int | None = None) -> dict:
    """Alternate ``pairs`` untraced and traced repetitions in one process.
    The traced repetition with the median wall gives every per-layer
    number, so the layer seconds add up to ``trace.repetition_s``; the
    median traced wall over the median untraced wall is the overhead."""
    workload, warm_up, _ = set_up(name, seed, frames)
    checker = Checker(len(workload.positions))
    tracer = LayerTracer(name)
    untraced, traced = [], []
    try:
        checker.add(warm_up.results)
        for _ in range(pairs):
            plain = _repetition(workload)
            tracer.install()
            try:
                rep = _repetition(workload, tracer)
            finally:
                tracer.uninstall()
            for done in (plain, rep):
                checker.add(done.results)
                done.results = None
            untraced.append(plain.wall_s)
            traced.append((rep, tracer.take()))
    finally:
        workload.close()
    traced_walls = [pair[0].wall_s for pair in traced]
    rep, spans = sorted(traced, key=lambda pair: pair[0].wall_s)[pairs // 2]
    metrics = per_layer_metrics(rep, spans, len(workload.positions))
    metrics["trace.overhead_ratio"] = {
        "value": (statistics.median(traced_walls)
                  / statistics.median(untraced) - 1.0),
        "unit": "ratio"}
    os.makedirs(RESULTS, exist_ok=True)
    trace_path = os.path.join(RESULTS, f"trace-{name}.json")
    with open(trace_path, "w") as handle:
        json.dump({"workload": name, "seed": seed,
                   "repetition_wall_s": rep.wall_s, "spans": spans},
                  handle)
    return {
        "workload": workload,
        "checker": checker,
        "metrics": metrics,
        "detail": {
            "traced_repetitions": pairs,
            "traced_walls_s": traced_walls,
            "untraced_walls_s": untraced,
            "trace_file": os.path.relpath(trace_path, ROOT),
        },
    }


# -- reporting ----------------------------------------------------------------


def _config_echo(config) -> dict:
    return {key: (value.value if hasattr(value, "value") else
                  value if isinstance(value, (int, float, str, bool,
                                              type(None)))
                  else str(value))
            for key, value in dataclasses.asdict(config).items()}


def _filesystem_of(path: str) -> str:
    """Filesystem type of ``path`` from /proc/mounts (longest prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def run_one(args) -> int:
    name, seed = args.workload, args.seed
    repetitions = repetitions_for(name, args.seconds)
    if args.trace:
        # A pair is two repetitions and a traced run measures no set-up:
        # half the pairs fill the same wall as an end-to-end run.
        outcome = measure_per_layer(name, seed, max(3, repetitions // 2))
    else:
        outcome = measure_end_to_end(name, seed, repetitions, CHILD_SETUPS)
    workload, checker = outcome["workload"], outcome["checker"]
    expected = load_expected(workload, seed)
    oracle = "recorded"
    if expected is None:
        oracle = "inline"
        expected = oracle_digests(workload)
    attempted, failed, notes = checker.verdict(expected)

    config = workload.config()
    print(f"workload {name}: {workload.why}")
    print(f"seed {seed}  trace {args.trace}  seconds {args.seconds} "
          f"({repetitions} repetitions)  oracle {oracle}")
    print("config " + json.dumps(_config_echo(config), sort_keys=True))
    if config.store_mode == "durable":
        print(f"store: flush policy store_fsync_every="
              f"{config.store_fsync_every} (default), filesystem "
              f"{_filesystem_of(RESULTS)}")
    for key, value in outcome["detail"].items():
        if key not in ("pieces", "queries", "setups", "counters"):
            print(f"  {key} = {value}")
    for key, metric in outcome["metrics"].items():
        print(f"{key:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"operations attempted {attempted} failed {failed}")
    for note in notes:
        print(f"  FAILED {note}")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": outcome["metrics"]}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": seed, "trace": args.trace,
                       "workloads": {name: dict(
                           result, detail=outcome["detail"],
                           config=_config_echo(config))}},
                      handle, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, one subprocess each, one after another."""
    os.makedirs(RESULTS, exist_ok=True)
    combined = {"seed": args.seed, "trace": args.trace, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        part = os.path.join(RESULTS, f"part-{name}.json")
        finished = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", part])
        status = status or finished.returncode
        if os.path.exists(part):
            with open(part) as handle:
                combined["workloads"].update(json.load(handle)["workloads"])
            os.remove(part)
    out = args.out or os.path.join(
        RESULTS, "per-layer.json" if args.trace else "end-to-end.json")
    with open(out, "w") as handle:
        json.dump(combined, handle, indent=1)
    print(f"wrote {os.path.relpath(out)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="scales the repetition count (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="also write the result as JSON")
    parser.add_argument("--record-expected", action="store_true",
                        help="record the oracle digests and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    if args.record_expected:
        for name in names:
            print("recorded", record_expected(name, args.seed))
        return 0
    if args.setup_only:
        workload, _, setup = set_up(args.workload, args.seed)
        workload.close()
        print(json.dumps(setup))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
