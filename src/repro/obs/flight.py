"""Per-query flight recorder: one wide event per finished query.

Spans (:mod:`repro.obs.trace`) answer *what a query computed*; the
flight record answers *where its wall time went under concurrency*.
Each finished SELECT produces exactly one ``{"type": "flight"}`` event —
schema-validated against ``tests/schemas/flight.schema.json`` — that
assembles, from spans, counters, and the wait-time instrumentation this
module anchors:

* **admission wait** — submit-to-worker-start gap, deposited by
  :class:`~repro.server.server.EvaServer` before the query runs;
* **per-lock-class RW-lock wait** — the contention listener installed on
  :class:`~repro.server.locks.RWLock` forwards wait seconds here;
* **inference** — seconds inside ``predict_batch``
  (:meth:`~repro.executor.context.ExecutionContext.invoke_model`);
* **store I/O** — WAL append/fsync and snapshot seconds
  (:mod:`repro.store.wal` / :mod:`repro.store.durable`);
* plus the #TI/#DI hit/miss breakdown, and the summed
  Eq. 3/4 costs of the plan's reuse decisions.

Instrumented components never hold a reference to a recorder: they call
the module-level hooks (:func:`record_lock_wait`, :func:`record_store_io`)
or :func:`current_flight`, which resolve the **thread-local**
:class:`FlightContext` installed by the session for the duration of the
query.  With no context installed every hook is a dictionary miss — no
``perf_counter`` calls, no allocation — so library code paths that never
asked for flight data pay nothing.

Stage accounting: ``queueing + contention + inference + store-io +
compute == total_s`` by construction (compute is the residual), where
``total_s = queue_wait_s + wall_s``.  The identity is what the 8-client
concurrency test asserts, and what makes :func:`repro.obs.slo.attribute`
a partition of real time rather than a guess.

Ids are deterministic per-recorder counters (``f000001``), following the
tracer's hash-free convention, so flight streams are stable under
``PYTHONHASHSEED=random``.
"""

from __future__ import annotations

import threading

from repro.obs.slo import STAGES, SloTracker, attribute

__all__ = [
    "FlightContext", "FlightRecorder", "FlightStats", "STAGES",
    "current_flight", "record_lock_wait", "record_store_io",
]

#: Store I/O kinds a context accumulates (fixed so the record — and its
#: schema — stay wide-but-closed).
STORE_IO_KINDS = ("wal_append", "fsync", "snapshot")


class FlightContext:
    """Mutable per-query accumulator, installed thread-locally.

    Not thread-safe by design: exactly one thread executes a query
    between ``begin`` and ``finish``.
    """

    __slots__ = ("queue_wait_s", "lock_waits", "store_io", "inference_s")

    def __init__(self, queue_wait_s: float = 0.0):
        self.queue_wait_s = max(0.0, queue_wait_s)
        #: lock class -> {"read_s", "write_s", "waits"}
        self.lock_waits: dict[str, dict] = {}
        self.store_io = {kind: 0.0 for kind in STORE_IO_KINDS}
        self.inference_s = 0.0

    # -- hook targets --------------------------------------------------------

    def add_lock_wait(self, lock_class: str, kind: str,
                      seconds: float) -> None:
        entry = self.lock_waits.get(lock_class)
        if entry is None:
            entry = {"read_s": 0.0, "write_s": 0.0, "waits": 0}
            self.lock_waits[lock_class] = entry
        entry["read_s" if kind == "read" else "write_s"] += seconds
        entry["waits"] += 1

    def add_store_io(self, kind: str, seconds: float) -> None:
        self.store_io[kind] = self.store_io.get(kind, 0.0) + seconds

    def add_inference(self, seconds: float) -> None:
        self.inference_s += seconds

    # -- derived -------------------------------------------------------------

    @property
    def contention_s(self) -> float:
        return sum(entry["read_s"] + entry["write_s"]
                   for entry in self.lock_waits.values())

    @property
    def store_io_s(self) -> float:
        return sum(self.store_io.values())


# One slot per thread; hooks are no-ops when it is empty.
_ACTIVE = threading.local()


def current_flight() -> FlightContext | None:
    """The query flight context of the calling thread, if any."""
    return getattr(_ACTIVE, "ctx", None)


def record_lock_wait(lock_class: str, kind: str, seconds: float) -> None:
    ctx = current_flight()
    if ctx is not None:
        ctx.add_lock_wait(lock_class, kind, seconds)


def record_store_io(kind: str, seconds: float) -> None:
    ctx = current_flight()
    if ctx is not None:
        ctx.add_store_io(kind, seconds)


class FlightStats:
    """Thread-safe aggregate over finished flight records.

    One instance is shared server-wide (every client's recorder feeds
    it); it backs the ``eva_flight_*`` Prometheus family and the
    ``repro top`` stage columns without re-reading the event stream.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records = 0
        self._over_slo = 0
        self._stage_seconds = {stage: 0.0 for stage in STAGES}
        self._dominant = {stage: 0 for stage in STAGES}
        self._over_slo_by_stage = {stage: 0 for stage in STAGES}

    def observe(self, record: dict) -> None:
        stages = record.get("stages", {})
        with self._lock:
            self._records += 1
            for stage in STAGES:
                self._stage_seconds[stage] += stages.get(stage, 0.0)
            self._dominant[record["dominant_stage"]] += 1
            if record.get("over_slo"):
                self._over_slo += 1
                self._over_slo_by_stage[record["dominant_stage"]] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "records": self._records,
                "over_slo": self._over_slo,
                "stage_seconds": dict(self._stage_seconds),
                "dominant": dict(self._dominant),
                "over_slo_by_stage": dict(self._over_slo_by_stage),
            }

    @staticmethod
    def merge_snapshots(snapshots: list) -> dict:
        """Field-wise sum of per-process :meth:`snapshot` dicts.

        Every field is a count or a seconds total, so the fleet rollup
        is a plain associative sum — no windows or quantiles involved.
        """
        merged = {"records": 0, "over_slo": 0, "stage_seconds": {},
                  "dominant": {}, "over_slo_by_stage": {}}
        for snap in snapshots:
            if not snap:
                continue
            merged["records"] += snap.get("records", 0)
            merged["over_slo"] += snap.get("over_slo", 0)
            for key in ("stage_seconds", "dominant", "over_slo_by_stage"):
                for stage, value in snap.get(key, {}).items():
                    merged[key][stage] = merged[key].get(stage, 0) + value
        return merged


class FlightRecorder:
    """Assembles and emits one flight record per finished query.

    One recorder per session; under the server every client's recorder
    shares the :class:`~repro.obs.slo.SloTracker` and
    :class:`FlightStats` so SLO burn and stage rollups are fleet-wide
    while flight ids stay per-client deterministic.
    """

    def __init__(self, tracer, *, slo: SloTracker | None = None,
                 stats: FlightStats | None = None):
        self._tracer = tracer
        self.slo = slo if slo is not None else SloTracker()
        self.stats = stats if stats is not None else FlightStats()
        self._lock = threading.Lock()
        self._next_id = 1
        self._pending_queue_wait = 0.0
        self.emitted = 0

    # -- server seam ---------------------------------------------------------

    def deposit_queue_wait(self, seconds: float) -> None:
        """Stage the admission wait of the query about to run.

        Called by the server worker (same thread, before ``execute``);
        consumed by the next :meth:`begin` and cleared on statements
        that produce no flight record (DDL), so a wait can never leak
        onto a later query.
        """
        self._pending_queue_wait = max(0.0, seconds)

    def take_queue_wait(self) -> float:
        wait = self._pending_queue_wait
        self._pending_queue_wait = 0.0
        return wait

    # -- lifecycle -----------------------------------------------------------

    def begin(self, queue_wait_s: float = 0.0) -> FlightContext:
        """Install a fresh context as the thread's active flight."""
        ctx = FlightContext(queue_wait_s)
        _ACTIVE.ctx = ctx
        return ctx

    def abort(self) -> None:
        """Drop the active context (query raised; no record)."""
        _ACTIVE.ctx = None

    def _new_flight_id(self) -> str:
        with self._lock:
            flight_id = f"f{self._next_id:06d}"
            self._next_id += 1
        return flight_id

    def finish(self, ctx: FlightContext, *, query: str,
               trace_id: str | None, wall_seconds: float,
               virtual_seconds: float, virtual_breakdown: dict,
               rows_returned: int, cache_hit: bool, reused: bool,
               invocations: dict, reuse: dict,
               views: dict | None = None) -> dict:
        """Assemble, classify, and emit the record; returns it.

        Also uninstalls the thread's active context, feeds the shared
        SLO tracker (total latency = queueing + wall) and the aggregate
        stats.
        """
        _ACTIVE.ctx = None
        wall = max(0.0, wall_seconds)
        contention = ctx.contention_s
        inference = ctx.inference_s
        store_io = ctx.store_io_s
        compute = max(0.0, wall - contention - inference - store_io)
        total = ctx.queue_wait_s + wall
        stages = {
            "queueing": round(ctx.queue_wait_s, 9),
            "contention": round(contention, 9),
            "inference": round(inference, 9),
            "store-io": round(store_io, 9),
            "compute": round(compute, 9),
        }
        over_slo = self.slo.observe(total)
        dominant = attribute(stages)
        record = {
            "type": "flight",
            "flight_id": self._new_flight_id(),
            "trace_id": trace_id,
            "client_id": getattr(self._tracer, "client_id", None),
            "query": query,
            "status": "ok",
            "queue_wait_s": round(ctx.queue_wait_s, 9),
            "wall_s": round(wall, 9),
            "total_s": round(total, 9),
            "virtual_s": round(virtual_seconds, 9),
            "virtual_breakdown": {k: round(v, 9)
                                  for k, v in virtual_breakdown.items()},
            "rows_returned": rows_returned,
            "cache_hit": bool(cache_hit),
            "reused": bool(reused),
            "stages": stages,
            "dominant_stage": dominant,
            "over_slo": over_slo,
            "lock_waits": {
                name: {"read_s": round(entry["read_s"], 9),
                       "write_s": round(entry["write_s"], 9),
                       "waits": entry["waits"]}
                for name, entry in sorted(ctx.lock_waits.items())
            },
            "store_io": {
                **{kind: round(ctx.store_io.get(kind, 0.0), 9)
                   for kind in STORE_IO_KINDS},
            },
            "invocations": dict(invocations),
            "reuse": dict(reuse),
            "views": {
                "probed": list((views or {}).get("probed", ())),
                "created": list((views or {}).get("created", ())),
                "written": list((views or {}).get("written", ())),
            },
        }
        self.stats.observe(record)
        with self._lock:
            self.emitted += 1
        self._tracer.emit_event(record)
        return record
