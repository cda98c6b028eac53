"""The four end-to-end workloads: seeded SQL generation and load drivers.

Every workload is a closed loop: a client issues its next query only after
the previous one returned (``serve_shared``'s two clients also wait for
each other after every query).  The program under test receives nothing
but the generated SQL.

What ``--seed`` decides.  The driver judges a metric's spread over runs
with *different* seeds, so a seed must change the inputs without changing
how much work they are.  Measured at HEAD, every structural choice breaks
that: a different video content seed moves detections, model time and view
bytes by 6-10 % (the object count is a sum of a few hundred exponentially
distributed track lengths); permuting the order of VBENCH-high or -low, or
rotating the sweep of ``serve_shared``, moves the repetition wall by
30-90 % (symbolic cost depends on the order predicates are unioned in);
generated refinement scripts of one length differ 10x (``GENERATOR_SEED``).
So structure is pinned — video content (``VIDEO_SEED``), windows, order,
predicate shape — and the seed perturbs the *literals* (``_perturb``): one
common shift of every frame-id bound and one common offset of every area
and score threshold.  Every statement, plan key and memo key differs
between seeds; the relations between the literals, and so the work, do not.
``scan_hot`` additionally shuffles the order its (independent, all-hit)
queries are issued in.

A workload object exposes ``positions`` (the flat list of (client, sql) the
latency percentiles are taken over), ``setup()`` (part of ``setup_s``),
``repetition(tracer)`` and ``close()``.  A repetition is a sequence of
timed *pieces* with a probe of the box between them (:mod:`calibration`).
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import repro
from calibration import timed
from repro.clock import CostCategory, SimulationClock
from repro.config import EvaConfig, ReusePolicy
from repro.server import EvaServer
from repro.server.stats import merged_metrics
from repro.types import VideoMetadata
from repro.vbench import vbench_high, vbench_low, vbench_permutation
from repro.vbench.generator import WorkloadSpec, generate_workload
from repro.video.synthetic import SyntheticVideo

VIDEO_SEED = 7
DETECTOR = "FastRCNNObjectDetector(frame)"
CAR_TYPES = ("Nissan", "Toyota", "Ford", "Honda")
COLORS = ("Gray", "White", "Black", "Red")

#: Frames per video.  Sized so that one cold set-up plus the
#: warm-up repetition is seconds of CPU-bound work and three set-ups plus
#: the timed region fit the driver's per-run budget on a 2-core box.
FRAMES = {
    "explore_cold": 1000,
    "refine_long": 500,
    "scan_hot": 4000,
    "serve_shared": 400,
}


def make_video(name: str, frames: int) -> SyntheticVideo:
    """A UA-DETRAC-statistics video (960x540, 8.3 vehicles/frame) of
    ``frames`` addressable frames plus the shift margin."""
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames + _margin(frames),
                      width=960, height=540, fps=25.0,
                      vehicles_per_frame=8.3),
        seed=VIDEO_SEED)


def digest(rows) -> str:
    """Order-independent digest of a result set: row count + SHA-1."""
    sha = hashlib.sha1()
    for line in sorted(repr(row) for row in rows):
        sha.update(line.encode("utf-8"))
    return f"{len(rows)}:{sha.hexdigest()}"


@dataclass
class Repetition:
    """What one repetition observed."""

    #: Per position, ``(client-observed execute() wall, probe before, probe
    #: after)``: see :mod:`calibration`.
    samples: list[tuple]
    #: The pieces the wall is made of, by name and in order, each ``(wall,
    #: probe before, probe after)``: session or server starts, shutdowns,
    #: and the queries — one by one, or for ``serve_shared`` in the groups
    #: its two clients run side by side.
    pieces: dict[str, tuple]
    #: Result rows per position, or the exception a query raised; digested
    #: after the wall is taken so hashing is not part of any timing.
    results: list
    #: Exact counts and end-of-repetition figures (see ``_session_counters``).
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Wall of the whole repetition — session or server construction,
        the queries, and for ``serve_shared`` shutdown, restart and
        recovery — without the probes between its pieces."""
        return sum(seconds for seconds, _, _ in self.pieces.values())


def _select(table: str, columns: str, conjuncts: list[str],
            apply: bool = True) -> str:
    source = f"{table} CROSS APPLY {DETECTOR}" if apply else table
    return f"SELECT {columns} FROM {source} WHERE {' AND '.join(conjuncts)};"


def _cover(frames: int, count: int, fraction: float
           ) -> list[tuple[int, int]]:
    """``count`` windows of ``fraction`` of the video at evenly spaced
    offsets, covering it end to end, in video order."""
    width = round(frames * fraction)
    last = frames - width
    return [(round(i * last / (count - 1)),
             round(i * last / (count - 1)) + width) for i in range(count)]


#: Videos are this fraction longer than the frame range the unperturbed
#: queries address, so shifted windows stay inside.  Small, because the
#: objects in the frames a shift uncovers and covers differ: ``view_store_mb``
#: moves about 0.2 % per frame of shift on ``refine_long``'s 200-frame
#: windows, against a bound of 1 %.
SHIFT_MARGIN = 0.004

_ID_BOUND = re.compile(r"\bid (>=|<=|<|>) (\d+)")
_THRESHOLD = re.compile(r"\b(area|score) > (\d*\.\d+)")


def _perturb(queries: list[str], workload: str, seed: int,
             frames: int) -> list[str]:
    """The seed's literals: every id bound shifted by one amount (up to
    ``SHIFT_MARGIN`` of the video), every area threshold and every score
    threshold moved by one offset each (up to 0.0025, about half a percent
    of selectivity)."""
    rng = random.Random(f"{workload}:{seed}")
    shift = rng.randrange(_margin(frames) + 1)
    offsets = {"area": rng.uniform(-0.0025, 0.0025),
               "score": rng.uniform(-0.0025, 0.0025)}

    def one(sql: str) -> str:
        sql = _ID_BOUND.sub(
            lambda m: f"id {m.group(1)} {int(m.group(2)) + shift}", sql)
        return _THRESHOLD.sub(
            lambda m: f"{m.group(1)} > "
                      f"{round(float(m.group(2)) + offsets[m.group(1)], 4)}",
            sql)
    return [one(sql) for sql in queries]


def _margin(frames: int) -> int:
    return max(1, round(frames * SHIFT_MARGIN))


def _execute(session_or_handle, client: str, position: int, sql: str,
             tracer):
    """The rows of one query, or the exception it raised."""
    if tracer is not None:
        tracer.next_position(client, position)
    try:
        return session_or_handle.execute(sql).rows
    except Exception as error:  # noqa: BLE001 - a failed operation
        return error


def _piece(pieces: dict, name: str, action):
    """Run ``action()`` as the timed piece ``name`` (see :mod:`calibration`)
    and return its result.  The probe that ended the piece before it is
    this one's first."""
    before = next(reversed(pieces.values()))[2] if pieces else None
    result, pieces[name] = timed(action, before)
    return result


def _run_queries(session, client: str, queries: list[str],
                 first_position: int, tracer, samples: list, results: list,
                 pieces: dict) -> None:
    """Closed loop over ``queries``, each a piece of its own; fills the
    slots from ``first_position`` on."""
    for position, sql in enumerate(queries, first_position):
        results[position] = _piece(
            pieces, f"query:{position}",
            lambda: _execute(session, client, position, sql, tracer))
        samples[position] = pieces[f"query:{position}"]


def _session_counters(metrics, clock, memo_stats: list,
                      kernel_stats: list) -> dict[str, float]:
    """The exact-count figures every workload reports."""
    total = sum(s.total_invocations for s in metrics.udf_stats.values())
    reused = sum(s.reused_invocations for s in metrics.udf_stats.values())
    breakdown = clock.breakdown()
    return {
        "udf_invocations": total,
        "udf_reused": reused,
        "virtual_s": sum(seconds for category, seconds in breakdown.items()
                         if category is not CostCategory.OPTIMIZE),
        "memo_hits": sum(m.hits for m in memo_stats),
        "memo_misses": sum(m.misses for m in memo_stats),
        "kernel_hits": sum(k["hits"] for k in kernel_stats),
        "kernel_misses": sum(k["misses"] for k in kernel_stats),
    }


def _merge_sessions(sessions) -> dict[str, float]:
    """Counters over several independent single-user sessions."""
    clock = SimulationClock()
    for session in sessions:
        for category, seconds in session.clock.breakdown().items():
            if seconds > 0:
                clock.charge(category, seconds)
    return _session_counters(
        merged_metrics([s.metrics for s in sessions]), clock,
        [s.symbolic.memo_stats() for s in sessions],
        [s.state.kernel_cache.stats() for s in sessions])


def _hit_ratio(counters: dict) -> float:
    return counters["udf_reused"] / max(1, counters["udf_invocations"])


def _add_store_figures(counters: dict, view_store) -> None:
    counters["view_store_bytes"] = view_store.total_serialized_bytes()
    counters["hit_ratio"] = _hit_ratio(counters)


class _SessionWorkload:
    """Shared driver for workloads made of single-user sessions: one
    repetition runs each query list in ``self.sessions`` on a fresh
    :class:`~repro.session.EvaSession`."""

    name = ""
    why = ""
    #: Query lists, one per fresh session of a repetition.
    sessions: list[list[str]]
    videos: list[SyntheticVideo]

    @property
    def positions(self) -> list[tuple[str, str]]:
        return [(f"s{index}", sql)
                for index, queries in enumerate(self.sessions)
                for sql in queries]

    def config(self) -> EvaConfig:
        return EvaConfig()

    def setup(self) -> dict[str, tuple]:
        """Nothing beyond the warm-up repetition.  Returns the timed
        pieces of the set-up, by name."""
        return {}

    def close(self) -> None:
        """Nothing to release."""

    def _connect(self, config: EvaConfig):
        session = repro.connect(config)
        for video in self.videos:
            session.register_video(video)
        return session

    def repetition(self, tracer=None) -> Repetition:
        count = len(self.positions)
        samples, results = [None] * count, [None] * count
        pieces, sessions = {}, []
        position = 0
        for index, queries in enumerate(self.sessions):
            session = _piece(pieces, f"connect:{index}",
                             lambda: self._connect(self.config()))
            sessions.append(session)
            if tracer is not None:
                tracer.name_session(session, f"s{index}")
            _run_queries(session, f"s{index}", queries, position, tracer,
                         samples, results, pieces)
            position += len(queries)
        counters = _merge_sessions(sessions)
        _add_store_figures(counters, sessions[-1].view_store)
        return Repetition(samples, pieces, results, counters)


class ExploreCold(_SessionWorkload):
    name = "explore_cold"
    why = ("the paper's scenario: three fresh sessions run VBENCH high, "
           "low and a permutation of high; view misses, model calls and "
           "view writes dominate")

    def __init__(self, seed: int, frames: int = FRAMES["explore_cold"]):
        self.videos = [make_video("detrac", frames)]
        high = vbench_high("detrac", frames)
        # The third session is the paper's permutation #1 of VBENCH-high
        # (Fig. 8), not a seeded one: see the module docstring.
        self.sessions = [
            _perturb(queries, self.name, seed, frames)
            for queries in (high, vbench_low("detrac", frames),
                            vbench_permutation(high, 1))]


#: ``refine_long``'s query list comes from the repo's own exploratory
#: workload generator at this one seed (the generator's ``seed``, not
#: ``--seed``).  Symbolic cost is chaotic in the script: at 500 frames
#: generator seeds 0-15 give repetitions of 1.4 s to more than 17 s, the
#: slow ones because reductions run into the 0.5 s
#: ``symbolic_time_budget`` and return early, which makes the *work*
#: depend on the box's speed.  Seed 1 (2.7 s, longest reduction 0.11 s) is
#: not picked for its cost: it is the default seed of the issue that
#: defined this workload.
GENERATOR_SEED = 1


class RefineLong(_SessionWorkload):
    name = "refine_long"
    why = ("one analyst refining 40 generated queries in one session: "
           "aggregated predicates grow, data work is tiny, symbolic "
           "analysis and the optimizer are the wall")

    def __init__(self, seed: int, frames: int = FRAMES["refine_long"]):
        self.videos = [make_video("detrac", frames)]
        script = generate_workload("detrac", frames, WorkloadSpec(
            num_queries=40, target_overlap=0.8, zoom_probability=0.7,
            seed=GENERATOR_SEED))
        self.sessions = [_perturb(script, self.name, seed, frames)]


class ScanHot(_SessionWorkload):
    name = "scan_hot"
    why = ("read-only use of a filled view store on the largest video: "
           "every UDF result is materialized and no model runs, so scan, "
           "probe and decode are the wall, plus today's re-optimizing of "
           "every query")

    #: Passes over the 12 queries in one repetition.  A pass is 0.2 s at
    #: this video length; three of them make a repetition long enough that
    #: the (untimed) collection before it, 0.1 s on this heap, does not
    #: take as long as the repetition itself.
    PASSES = 3

    def __init__(self, seed: int, frames: int = FRAMES["scan_hot"]):
        self.videos = [make_video("detrac", frames)]
        self.queries = self._queries("detrac", frames, seed)
        self.sessions = [self.queries * self.PASSES]
        self._session = None

    @staticmethod
    def _queries(table: str, frames: int, seed: int) -> list[str]:
        detector_only = [
            ("id, bbox", ["label = 'car'"]),
            ("id, bbox", ["label = 'bus'"]),
            ("id, bbox", ["area > 0.2"]),
            ("id, label, score", ["score > 0.4"]),
            ("id, bbox", ["label = 'car'", "area > 0.15"]),
            ("id, bbox", ["label = 'car'", "score > 0.5"]),
            ("id, label, bbox", ["area > 0.25", "score > 0.35"]),
            ("id, bbox", ["label = 'truck'"]),
        ]
        windows = _cover(frames, len(detector_only), 0.25)
        queries = [_select(table, "id", [
            f"id >= {frames // 10}", f"id < {frames - frames // 10}"],
            apply=False)]
        for (columns, predicates), (start, stop) in zip(detector_only,
                                                        windows):
            queries.append(_select(
                table, columns,
                [f"id >= {start}", f"id < {stop}"] + predicates))
        # Three classifier queries over the thirds of the video.  The two
        # CarType queries differ in window *and* in direct predicates, so
        # no reduction merges their guards and CarType's aggregated
        # predicate keeps two conjunctives.  At HEAD every UNION re-orders
        # such a predicate, which bumps the UdfManager version and voids
        # every cached plan: each query of a pass is optimized again
        # (plan-cache hit ratio 0, a quarter of the pass inside optimizer
        # + symbolic).  That is what a read-only pass costs today, so it
        # is measured, not steered around.
        third = frames // 3
        classifiers = [
            ((0, third), ["area > 0.15", "CarType(frame, bbox) = 'Nissan'"]),
            ((third, 2 * third), ["ColorDet(frame, bbox) = 'Gray'"]),
            ((2 * third, frames),
             ["score > 0.5", "CarType(frame, bbox) = 'Toyota'"]),
        ]
        for (start, stop), predicates in classifiers:
            queries.append(_select(
                table, "id, bbox",
                [f"id >= {start}", f"id < {stop}", "label = 'car'"]
                + predicates))
        queries = _perturb(queries, ScanHot.name, seed, frames)
        # Every query is a pure hit, so the order they are issued in does
        # not change the work of a pass.
        random.Random(f"scan_hot-order:{seed}").shuffle(queries)
        return queries

    def setup(self) -> dict[str, tuple]:
        """Fill the store: the 12 queries cold, then once warm."""
        pieces = {}
        self._session = _piece(pieces, "connect",
                               lambda: self._connect(self.config()))
        fill = self.queries * 2
        _run_queries(self._session, "s0", fill, 0, None, [None] * len(fill),
                     [None] * len(fill), pieces)
        return {f"fill:{name}": piece for name, piece in pieces.items()}

    def repetition(self, tracer=None) -> Repetition:
        queries = self.sessions[0]
        samples, results = [None] * len(queries), [None] * len(queries)
        session = self._session
        if tracer is not None:
            tracer.name_session(session, "s0")
        before = _merge_sessions([session])
        pieces = {}
        _run_queries(session, "s0", queries, 0, tracer, samples, results,
                     pieces)
        after = _merge_sessions([session])
        # The clock is cumulative; rounding to the microsecond keeps the
        # per-repetition difference of two float sums an exact count.
        counters = {key: round(after[key] - before[key], 6)
                    for key in after}
        _add_store_figures(counters, session.view_store)
        return Repetition(samples, pieces, results, counters)


class ServeShared:
    name = "serve_shared"
    why = ("server plus durable store: two analysts fill, share each "
           "other's views, the server snapshots, restarts and recovers, "
           "and both resume; WAL, snapshot and recovery are in the wall")

    CLIENTS = ("c0", "c1")
    PER_PHASE = 12

    def __init__(self, seed: int, frames: int = FRAMES["serve_shared"]):
        self.videos = [make_video("cam_x", frames),
                       make_video("cam_y", frames)]
        fill = {table: _perturb(self._explore(table, frames), self.name,
                                seed, frames)
                for table in ("cam_x", "cam_y")}
        #: phase -> per-client query lists.  fill: each client explores
        #: its own video.  share: lists swapped, pure cross-client hits.
        #: resume (after the restart): each client alternates a query on
        #: its own video that adds the *other* classifier (a miss on a
        #: view only this client writes) with one of the peer's fill
        #: queries (a hit).  The two clients never miss on the same video
        #: at the same time, so hit rates and invocation counts repeat.
        self.phases = {
            "fill": [fill["cam_x"], fill["cam_y"]],
            "share": [fill["cam_y"], fill["cam_x"]],
            "resume": [self._resume(fill["cam_x"], fill["cam_y"]),
                       self._resume(fill["cam_y"], fill["cam_x"])],
        }
        self._root = None

    def _explore(self, table: str, frames: int) -> list[str]:
        """One ascending sweep over 12 overlapping 25 % windows; every 4th
        query adds a CarType predicate."""
        queries = []
        for index, (start, stop) in enumerate(
                _cover(frames, self.PER_PHASE, 0.25)):
            conjuncts = [f"id >= {start}", f"id < {stop}", "label = 'car'"]
            if index % 4 == 3:
                conjuncts.append(
                    f"CarType(frame, bbox) = '{CAR_TYPES[index // 4]}'")
            queries.append(_select(table, "id, bbox", conjuncts))
        return queries

    @staticmethod
    def _resume(own: list[str], peer: list[str]) -> list[str]:
        """Every other query of the own sweep plus ColorDet (misses),
        interleaved with every other query of the peer's (hits)."""
        queries = []
        for index, (mine, theirs) in enumerate(zip(own[::2], peer[1::2])):
            queries.append(f"{mine[:-1]} AND ColorDet(frame, bbox) = "
                           f"'{COLORS[index % len(COLORS)]}';")
            queries.append(theirs)
        return queries

    @property
    def positions(self) -> list[tuple[str, str]]:
        return [(client, sql)
                for lists in self.phases.values()
                for client, queries in zip(self.CLIENTS, lists)
                for sql in queries]

    def config(self, path: str = "results/store-*/rep-*") -> EvaConfig:
        """Default flush policy; every repetition gets a fresh ``path``."""
        return EvaConfig(store_mode="durable", store_path=path)

    def setup(self) -> dict[str, tuple]:
        # Inside the checkout, never the system temp directory.
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "results")
        os.makedirs(root, exist_ok=True)
        self._root = tempfile.mkdtemp(prefix="store-", dir=root)
        return {}

    def close(self) -> None:
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None

    def _serve(self, path: str, tracer):
        """A started server on ``path`` and its two connected clients."""
        server = EvaServer(self.config(path),
                           max_workers=len(self.CLIENTS))
        for video in self.videos:
            server.register_video(video)
        server.start()
        handles = [server.connect(client) for client in self.CLIENTS]
        if tracer is not None:
            for handle in handles:
                with handle.checkout() as session:
                    tracer.name_session(session, handle.client_id)
        return server, handles

    def _phase(self, handles, phase: str, first_position: int, tracer,
               samples: list, results: list, pieces: dict) -> int:
        """Both clients run their list of ``phase``, each its own closed
        loop, in step: query i of one side by side with query i of the
        other, then a barrier (joining the two threads).  A pair is one
        piece.  Its probes are taken at the barriers, by this thread,
        while no client runs — inside a client thread a probe would
        measure the other client's use of the core's caches, not the box
        — and both queries of the pair get them.  In step, a query always
        shares the interpreter with the same query of the other client,
        so its latency repeats; free-running clients drift apart, and the
        per-position latencies with them.  Returns the next free position.
        """
        lists = self.phases[phase]
        firsts = [first_position + lane * self.PER_PHASE
                  for lane in range(len(lists))]
        latencies = {}

        def client(handle, position, sql):
            started = time.perf_counter()
            results[position] = _execute(handle, handle.client_id, position,
                                         sql, tracer)
            latencies[position] = time.perf_counter() - started

        for index in range(self.PER_PHASE):
            threads = [threading.Thread(
                target=client, args=(handle, first + index, queries[index]))
                for handle, first, queries in zip(handles, firsts, lists)]

            def pair():
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            _piece(pieces, f"{phase}:{index}", pair)
            for first in firsts:
                samples[first + index] = (
                    (latencies[first + index],)
                    + pieces[f"{phase}:{index}"][1:])
        return first_position + len(lists) * self.PER_PHASE

    def repetition(self, tracer=None) -> Repetition:
        count = len(self.positions)
        samples, results, pieces = [None] * count, [None] * count, {}
        path = tempfile.mkdtemp(prefix="rep-", dir=self._root)
        first, handles = _piece(pieces, "start",
                                lambda: self._serve(path, tracer))
        position = self._phase(handles, "fill", 0, tracer, samples, results,
                               pieces)
        position = self._phase(handles, "share", position, tracer, samples,
                               results, pieces)
        _piece(pieces, "snapshot", first.shutdown)  # snapshot + close
        second, handles = _piece(pieces, "restart",  # recovery
                                 lambda: self._serve(path, tracer))
        self._phase(handles, "resume", position, tracer, samples, results,
                    pieces)
        view_bytes = second.state.view_store.total_serialized_bytes()
        _piece(pieces, "shutdown", second.shutdown)
        counters = self._counters(first, second)
        counters["view_store_bytes"] = view_bytes
        counters["disk_bytes"] = _directory_bytes(path)
        shutil.rmtree(path, ignore_errors=True)
        return Repetition(samples, pieces, results, counters)

    @staticmethod
    def _counters(first: EvaServer, second: EvaServer) -> dict[str, float]:
        counters: dict[str, float] = {}
        for server in (first, second):
            part = _session_counters(
                server.aggregate_metrics(), server.aggregate_clock(),
                [server.state.symbolic.memo_stats()],
                [server.state.kernel_cache.stats()])
            stats = server.stats()
            batcher = server.batcher_snapshot()
            part["admission_wait_s"] = stats.admission_wait.get("sum_s", 0.0)
            part["lock_wait_s"] = sum(
                waits["read_s"] + waits["write_s"]
                for waits in stats.lock_waits.values())
            part["batcher_requests"] = batcher.requests
            part["batcher_dispatches"] = batcher.dispatches
            for key, value in part.items():
                counters[key] = counters.get(key, 0) + value
        # Phase hit rates: the first server saw fill+share, the second
        # resume; both must repeat exactly.
        counters["hit_ratio_before_restart"] = first.hit_percentage() / 100
        counters["hit_ratio_after_restart"] = second.hit_percentage() / 100
        counters["hit_ratio"] = _hit_ratio(counters)
        counters["keys_recovered"] = \
            second.state.view_store.base.recovery_report.keys_recovered
        return counters


def oracle_digests(workload) -> list[str]:
    """Per-position digests from a fresh ``ReusePolicy.NONE``,
    ``execution_mode="row"`` session.  Models are deterministic and
    nothing is reused, so a query's rows do not depend on what ran before
    it: each distinct statement is evaluated once."""
    session = repro.connect(EvaConfig(
        reuse_policy=ReusePolicy.NONE, execution_mode="row"))
    for video in workload.videos:
        session.register_video(video)
    by_sql: dict[str, str] = {}
    for _, sql in workload.positions:
        if sql not in by_sql:
            by_sql[sql] = digest(session.execute(sql).rows)
    return [by_sql[sql] for _, sql in workload.positions]


def _directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


WORKLOADS = {cls.name: cls
             for cls in (ExploreCold, RefineLong, ScanHot, ServeShared)}
