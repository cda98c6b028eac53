"""View lineage & reuse-provenance ledger.

EVA's value proposition is the accumulated pool of materialized views,
yet the observability stack so far watches queries (spans, flight
records) and models (profiler) — not the views themselves.  This module
closes that gap with a thread-safe :class:`ViewLedger` keeping one
provenance record per ``(view, generation)``:

* **creation side** — creating query / trace / flight ids, client id,
  the defining predicate in canonical DNF, source model + video, frame
  range, model invocations paid, virtual seconds spent materializing,
  and bytes;
* **read side** — per-reader hit counts, rows served, cumulative
  virtual seconds saved (the Eq. 3 economics: a hit costs
  ``c_r + rows * c_row`` instead of the model's ``c_e``), last-access
  logical clock, and the cross-client reader set;
* **derivation edges** — when Rule I / Algorithm 1 builds a plan from
  symbolic INTER / DIFF / UNION over existing view content, an edge
  links the probed source view to the view the query extends, forming
  a queryable lineage DAG.

Instrumentation follows the flight-recorder seam: the session installs
a per-query :class:`QueryLineage` accumulator into a thread-local;
:mod:`repro.storage.view_store` calls the module-level ``record_*``
hooks, which are dict-miss no-ops when no query is active (so recovery,
deserialization, and direct store manipulation never pollute
attribution).

Every quantity exported by :meth:`ViewLedger.export_records` is
restart-stable — logical sequence numbers instead of wall timestamps —
so a ledger rebuilt from the durable store's control log matches the
uninterrupted run byte for byte.  Wall-clock age/idle (for the
Prometheus gauges) live in :meth:`ViewLedger.snapshot` only.
"""

from __future__ import annotations

import threading
import time

import numpy as np

#: Materialized-view names are ``mv::<model>[@<source>...]`` (the UDF
#: signature key); the first two ``@`` segments name model and video.
VIEW_PREFIX = "mv::"

#: Reader key used when no client id is known (embedded sessions).
LOCAL_CLIENT = "local"


def parse_view_name(name: str) -> tuple[str | None, str | None]:
    """``(model, video)`` encoded in a view name, or ``(None, None)``."""
    if not name.startswith(VIEW_PREFIX):
        return None, None
    parts = name[len(VIEW_PREFIX):].split("@")
    model = parts[0] or None
    video = parts[1] if len(parts) > 1 and parts[1] else None
    return model, video


# -- per-query accumulator ----------------------------------------------------


class QueryLineage:
    """Per-query view-touch counts.

    Not thread-safe by design: a query runs on the thread that issued
    it, and the session installs one instance per query on that thread.
    """

    __slots__ = ("probes", "writes", "creates")

    def __init__(self) -> None:
        #: name -> [hits, misses, rows_served]
        self.probes: dict[str, list[int]] = {}
        #: name -> [fresh_keys, fresh_rows, frame_lo, frame_hi]
        self.writes: dict[str, list] = {}
        #: names created by this query, in creation order.
        self.creates: list[str] = []

    def record_probe(self, name: str, hits: int, misses: int,
                     rows: int) -> None:
        slot = self.probes.get(name)
        if slot is None:
            self.probes[name] = [hits, misses, rows]
        else:
            slot[0] += hits
            slot[1] += misses
            slot[2] += rows

    def record_write(self, name: str, keys: int, rows: int,
                     frame_lo, frame_hi) -> None:
        slot = self.writes.get(name)
        if slot is None:
            self.writes[name] = [keys, rows, frame_lo, frame_hi]
        else:
            slot[0] += keys
            slot[1] += rows
            if frame_lo is not None:
                slot[2] = (frame_lo if slot[2] is None
                           else min(slot[2], frame_lo))
                slot[3] = (frame_hi if slot[3] is None
                           else max(slot[3], frame_hi))

    def record_create(self, name: str) -> None:
        if name not in self.creates:
            self.creates.append(name)

    @property
    def touched(self) -> bool:
        return bool(self.probes or self.writes or self.creates)


# -- thread-local hook seam ---------------------------------------------------

_ACTIVE = threading.local()


def current_lineage() -> QueryLineage | None:
    """The query-lineage accumulator installed on this thread, if any."""
    return getattr(_ACTIVE, "ctx", None)


def install_lineage(ctx: QueryLineage | None) -> None:
    _ACTIVE.ctx = ctx


def uninstall_lineage() -> None:
    _ACTIVE.ctx = None


def record_view_probe(name: str, rows) -> None:
    """One single-key probe: ``rows`` is the stored tuple or None."""
    ctx = current_lineage()
    if ctx is not None:
        if rows is None:
            ctx.record_probe(name, 0, 1, 0)
        else:
            ctx.record_probe(name, 1, 0, len(rows))


def record_view_probe_many(name: str, hits) -> None:
    """One bulk probe: ``hits`` is the ``get_many`` result
    (:class:`~repro.storage.view_store.ViewHits`)."""
    ctx = current_lineage()
    if ctx is not None:
        found = hits.num_hits
        ctx.record_probe(name, found, len(hits) - found, hits.num_rows)


def record_view_write(name: str, keys, rows: int) -> None:
    """The freshly inserted keys of one put batch and their row total:
    ``keys`` is their frame ids as an int array
    (:func:`~repro.storage.view_store.key_frame_ids`), or their key
    tuples when they have no array form.  The ledger keeps a count and a
    frame range."""
    ctx = current_lineage()
    if ctx is None or not len(keys):
        return
    if isinstance(keys, np.ndarray):
        low, high = int(keys.min()), int(keys.max())
    else:
        frames = [key[0] for key in keys if key and isinstance(key[0], int)]
        low, high = min(frames, default=None), max(frames, default=None)
    ctx.record_write(name, len(keys), rows, low, high)


def record_view_create(name: str) -> None:
    ctx = current_lineage()
    if ctx is not None:
        ctx.record_create(name)


# -- ledger records -----------------------------------------------------------

#: Record lifecycle states.  ``live`` views are readable; ``dropped``
#: ones were removed.
STATUS_LIVE = "live"
STATUS_DROPPED = "dropped"


class _Record:
    """Mutable provenance state of one (view, generation)."""

    __slots__ = (
        "name", "generation", "status",
        "model", "video", "key_columns", "output_columns",
        "query", "trace_id", "flight_id", "client_id", "predicate",
        "frame_lo", "frame_hi",
        "invocations_paid", "fresh_rows", "materialize_vs", "bytes",
        "hits", "misses", "rows_served", "saved_vs",
        "readers", "edges",
        "created_seq", "last_access_seq",
        "created_wall", "last_access_wall",
    )

    def __init__(self, name: str, generation: int,
                 key_columns=None, output_columns=None):
        self.name = name
        self.generation = generation
        self.status = STATUS_LIVE
        self.model, self.video = parse_view_name(name)
        self.key_columns = list(key_columns or [])
        self.output_columns = list(output_columns or [])
        self.query = None
        self.trace_id = None
        self.flight_id = None
        self.client_id = None
        self.predicate = None
        self.frame_lo = None
        self.frame_hi = None
        self.invocations_paid = 0
        self.fresh_rows = 0
        self.materialize_vs = 0.0
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.rows_served = 0
        self.saved_vs = 0.0
        self.readers: dict[str, int] = {}
        #: (source_lineage_id, op) pairs; op in INTER | DIFF | UNION.
        self.edges: set[tuple[str, str]] = set()
        self.created_seq = None
        self.last_access_seq = None
        self.created_wall = time.perf_counter()
        self.last_access_wall = self.created_wall

    @property
    def lineage_id(self) -> str:
        return f"{self.name}#g{self.generation}"

    @property
    def net_benefit(self) -> float:
        return self.saved_vs - self.materialize_vs

    def export(self) -> dict:
        """Restart-stable JSON record (the ``lineage.schema.json`` shape)."""
        return {
            "type": "lineage",
            "lineage_id": self.lineage_id,
            "view": self.name,
            "generation": self.generation,
            "status": self.status,
            "model": self.model,
            "video": self.video,
            "key_columns": list(self.key_columns),
            "output_columns": list(self.output_columns),
            "created": {
                "query": self.query,
                "trace_id": self.trace_id,
                "flight_id": self.flight_id,
                "client_id": self.client_id,
                "predicate": self.predicate,
                "seq": self.created_seq,
            },
            "frame_range": (None if self.frame_lo is None
                            else [self.frame_lo, self.frame_hi]),
            "invocations_paid": self.invocations_paid,
            "fresh_rows": self.fresh_rows,
            "materialize_vs": self.materialize_vs,
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "rows_served": self.rows_served,
            "saved_vs": self.saved_vs,
            "net_benefit": self.net_benefit,
            "readers": {k: self.readers[k] for k in sorted(self.readers)},
            "last_access_seq": self.last_access_seq,
            "edges": [
                {"source": source, "op": op}
                for source, op in sorted(self.edges)
            ],
        }

    @classmethod
    def restore(cls, payload: dict) -> "_Record":
        record = cls(payload["view"], payload["generation"],
                     payload.get("key_columns"),
                     payload.get("output_columns"))
        record.status = payload.get("status", STATUS_LIVE)
        created = payload.get("created") or {}
        record.query = created.get("query")
        record.trace_id = created.get("trace_id")
        record.flight_id = created.get("flight_id")
        record.client_id = created.get("client_id")
        record.predicate = created.get("predicate")
        record.created_seq = created.get("seq")
        frame_range = payload.get("frame_range")
        if frame_range:
            record.frame_lo, record.frame_hi = frame_range
        record.invocations_paid = payload.get("invocations_paid", 0)
        record.fresh_rows = payload.get("fresh_rows", 0)
        record.materialize_vs = payload.get("materialize_vs", 0.0)
        record.bytes = payload.get("bytes", 0)
        record.hits = payload.get("hits", 0)
        record.misses = payload.get("misses", 0)
        record.rows_served = payload.get("rows_served", 0)
        record.saved_vs = payload.get("saved_vs", 0.0)
        record.readers = dict(payload.get("readers") or {})
        record.last_access_seq = payload.get("last_access_seq")
        record.edges = {
            (edge["source"], edge["op"])
            for edge in payload.get("edges") or ()
        }
        return record


class ViewLedger:
    """Thread-safe provenance ledger over all (view, generation) pairs."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._records: dict[str, _Record] = {}
        #: name -> current generation (bumped on every create).
        self._gen: dict[str, int] = {}
        #: Logical event clock: one tick per observed query.
        self._seq = 0

    # -- lifecycle events (store seam) ------------------------------------

    def on_create(self, name: str, key_columns, output_columns) -> None:
        """A view was registered in the store (new generation)."""
        with self._lock:
            generation = self._gen.get(name, 0) + 1
            self._gen[name] = generation
            record = _Record(name, generation, key_columns, output_columns)
            self._records[record.lineage_id] = record

    def on_drop(self, name: str) -> None:
        """The current generation of ``name`` left the store."""
        with self._lock:
            record = self._current(name)
            if record is not None:
                record.status = STATUS_DROPPED

    def _current(self, name: str) -> _Record | None:
        generation = self._gen.get(name)
        if generation is None:
            return None
        return self._records.get(f"{name}#g{generation}")

    def current_id(self, name: str) -> str | None:
        """Lineage id of the live generation of ``name``, if any."""
        with self._lock:
            record = self._current(name)
            return record.lineage_id if record is not None else None

    # -- per-query fold ----------------------------------------------------

    def observe_query(self, qlin: QueryLineage, *, query: str,
                      trace_id: str | None, client_id: str | None,
                      view_bytes: dict[str, int],
                      model_costs: dict[str, float],
                      costs, audit=()) -> dict | None:
        """Fold one query's accumulated view touches into the ledger.

        ``costs`` duck-types :class:`repro.costs.CostConstants`
        (``view_read_per_key`` / ``view_read_per_row`` /
        ``materialize_per_row``); ``model_costs`` maps the model segment
        of a view name to its believed per-tuple cost ``c_e``.  Savings
        follow Eq. 3: every probed key pays ``c_r``, every served row
        pays ``c_row``, and every hit avoids one ``c_e`` — so
        ``saved = hits*c_e - (probes*c_r + rows*c_row)``.  The
        materialization investment is
        ``fresh_keys*c_e + fresh_rows*c_mat``.

        Returns a summary for the flight record / slow-query log, or
        None when the query touched no views.
        """
        if not qlin.touched:
            return None
        reader = client_id or LOCAL_CLIENT
        with self._lock:
            self._seq += 1
            seq = self._seq
            now = time.perf_counter()
            touched: dict[str, _Record] = {}

            def resolve(name: str) -> _Record:
                record = self._current(name)
                if record is None:
                    # A view that predates the ledger (e.g. a store
                    # loaded from disk without lineage records): adopt
                    # it as generation 1 with unknown creation.
                    self.on_create(name, None, None)
                    record = self._current(name)
                touched[name] = record
                return record

            created = []
            for name in qlin.creates:
                record = resolve(name)
                if record.created_seq is None:
                    record.created_seq = seq
                    record.query = query
                    record.trace_id = trace_id
                    record.client_id = reader
                created.append(record.lineage_id)

            audit_by_view = {}
            for entry in audit:
                if getattr(entry, "signature", None) and \
                        getattr(entry, "kind", "") in (
                            "classifier-apply", "detector-apply"):
                    audit_by_view.setdefault(
                        VIEW_PREFIX + str(entry.signature), entry)

            probed = []
            for name in sorted(qlin.probes):
                hits, misses, rows = qlin.probes[name]
                record = resolve(name)
                record.hits += hits
                record.misses += misses
                record.rows_served += rows
                if hits:
                    record.readers[reader] = \
                        record.readers.get(reader, 0) + hits
                per_tuple = model_costs.get(record.model or "", 0.0)
                record.saved_vs += (
                    hits * per_tuple
                    - (hits + misses) * costs.view_read_per_key
                    - rows * costs.view_read_per_row)
                probed.append({
                    "id": record.lineage_id, "view": name,
                    "hits": hits, "misses": misses, "rows": rows,
                })

            written = []
            for name in sorted(qlin.writes):
                keys, rows, lo, hi = qlin.writes[name]
                record = resolve(name)
                record.invocations_paid += keys
                record.fresh_rows += rows
                per_tuple = model_costs.get(record.model or "", 0.0)
                record.materialize_vs += (
                    keys * per_tuple + rows * costs.materialize_per_row)
                if lo is not None:
                    record.frame_lo = (lo if record.frame_lo is None
                                       else min(record.frame_lo, lo))
                    record.frame_hi = (hi if record.frame_hi is None
                                       else max(record.frame_hi, hi))
                written.append(record.lineage_id)

            # Derivation edges: the plan decomposed each extended view's
            # predicate as UNION(INTER(p, h), p - h) over probed content
            # (Rule I / Algorithm 1); the ops recorded on the edge come
            # from the target's own reuse-decision audit record.
            for name in sorted(set(qlin.writes) | set(qlin.creates)):
                target = touched[name]
                entry = audit_by_view.get(name)
                if target.predicate is None and entry is not None:
                    target.predicate = getattr(entry, "query_predicate",
                                               None)
                ops = []
                if entry is not None:
                    if getattr(entry, "intersection", None):
                        ops.append("INTER")
                    if getattr(entry, "difference", None):
                        ops.append("DIFF")
                for source_name, (hits, _m, _r) in qlin.probes.items():
                    if not hits:
                        continue
                    source = touched[source_name]
                    if source_name == name:
                        target.edges.add((source.lineage_id, "UNION"))
                    else:
                        for op in ops or ("UNION",):
                            target.edges.add((source.lineage_id, op))

            for name, record in touched.items():
                if name in view_bytes:
                    record.bytes = view_bytes[name]
                record.last_access_seq = seq
                record.last_access_wall = now

            return {
                "touched": sorted(r.lineage_id for r in touched.values()),
                "created": created,
                "written": written,
                "probed": probed,
            }

    def attach_flight(self, lineage_ids, flight_id: str | None) -> None:
        """Stamp the creating flight id (assigned at flight finish)."""
        if not flight_id:
            return
        with self._lock:
            for lineage_id in lineage_ids:
                record = self._records.get(lineage_id)
                if record is not None and record.flight_id is None:
                    record.flight_id = flight_id

    # -- queries ----------------------------------------------------------

    def export_record(self, lineage_id: str) -> dict | None:
        with self._lock:
            record = self._records.get(lineage_id)
            return record.export() if record is not None else None

    def export_current(self, name: str) -> dict | None:
        with self._lock:
            record = self._current(name)
            return record.export() if record is not None else None

    def export_records(self) -> list[dict]:
        """All records, sorted by lineage id (the JSONL export order)."""
        with self._lock:
            return [self._records[k].export()
                    for k in sorted(self._records)]

    def ranking(self) -> list[dict]:
        """Records ranked by ``net_benefit`` (descending, id tiebreak)."""
        records = self.export_records()
        records.sort(key=lambda r: (-r["net_benefit"], r["lineage_id"]))
        return records

    def wasted(self) -> list[dict]:
        """Materialized but never re-read: pure sunk cost so far."""
        return [r for r in self.export_records()
                if r["hits"] == 0 and r["invocations_paid"] > 0]

    def graph(self) -> dict:
        """The derivation DAG as ``{"nodes": [...], "edges": [...]}``."""
        records = self.export_records()
        edges = []
        for record in records:
            for edge in record["edges"]:
                edges.append({
                    "source": edge["source"],
                    "target": record["lineage_id"],
                    "op": edge["op"],
                })
        edges.sort(key=lambda e: (e["source"], e["target"], e["op"]))
        nodes = [{
            "id": r["lineage_id"], "view": r["view"],
            "status": r["status"], "net_benefit": r["net_benefit"],
        } for r in records]
        return {"nodes": nodes, "edges": edges}

    def to_dot(self) -> str:
        """Graphviz rendering of :meth:`graph`."""
        graph = self.graph()
        lines = ["digraph lineage {", "  rankdir=LR;"]
        for node in graph["nodes"]:
            label = (f"{node['id']}\\n{node['status']} "
                     f"net={node['net_benefit']:+.4f}s")
            lines.append(f'  "{node["id"]}" [label="{label}"];')
        for edge in graph["edges"]:
            lines.append(
                f'  "{edge["source"]}" -> "{edge["target"]}" '
                f'[label="{edge["op"]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> list[dict]:
        """Volatile per-view gauges for Prometheus / the dashboard.

        Wall-clock age and idle time are measured from this process's
        monotonic clock (restored records restart their age at
        recovery); everything else mirrors the stable export.
        """
        now = time.perf_counter()
        with self._lock:
            rows = []
            for key in sorted(self._records):
                record = self._records[key]
                rows.append({
                    "id": record.lineage_id,
                    "view": record.name,
                    "status": record.status,
                    "bytes": record.bytes,
                    "hits": record.hits,
                    "rows_served": record.rows_served,
                    "net_benefit": record.net_benefit,
                    "age_s": max(0.0, now - record.created_wall),
                    "idle_s": max(0.0, now - record.last_access_wall),
                })
            return rows

    # -- persistence -------------------------------------------------------

    def restore(self, payloads) -> None:
        """Rebuild ledger state from persisted export records.

        Later records for the same lineage id win (the control log is
        append-only with upsert semantics); generation counters and the
        logical clock resume at the maxima seen.
        """
        with self._lock:
            for payload in payloads:
                record = _Record.restore(payload)
                self._records[record.lineage_id] = record
            for record in self._records.values():
                if record.generation > self._gen.get(record.name, 0):
                    self._gen[record.name] = record.generation
                for seq in (record.created_seq, record.last_access_seq):
                    if seq is not None and seq > self._seq:
                        self._seq = seq
