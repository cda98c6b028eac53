"""Consistent-hash sharding of the reuse state across worker processes.

The worker pool (:mod:`repro.server.pool`) runs N spawned processes,
each owning a subset of *shards*.  A shard is the unit of placement for
everything keyed by ``(model, video)``:

* the **materialized view** ``mv::<model>@<video>[@...]`` and its
  durable partition directory (``<store_path>/shard-<k>``), so WAL
  replay stays per-shard and restart parallelism scales with
  worker count;
* the **UDF history** (aggregated predicate ``p_u``) of the matching
  signature — the view and the predicate that describes it must never
  be owned by different processes, so both route through the *same*
  canonical key (:func:`shard_key_for_view` strips the ``mv::`` prefix,
  :meth:`UdfSignature.key` is the key).

Model calls are not placed: each worker runs its own models, which are
deterministic, so a miss evaluated on any worker yields the same rows.

Keys map to shards on a hash ring with virtual nodes
(:class:`HashRing`); hashing is SHA-1-based (:func:`stable_hash`) so
placement survives ``PYTHONHASHSEED`` randomization and process
restarts.  Shards map to workers modularly (``shard % workers``) —
with ``shards >= workers`` every worker owns at least one shard and
ownership is trivially recomputable after a respawn.

Cross-process access follows one rule: a request is ``(target, method,
args)`` pickled over an authkey'd ``multiprocessing.connection`` socket,
and ``method`` names a method of the object the connection's owner
already holds.  The owner resolves ``target`` (a view's
``for_client(prober)`` handle, a signature's :class:`LockedUdfManager`,
a local-shards facade), checks ``method`` against that kind's
allow-list (:data:`PEER_METHODS`), calls it, and replies
``("ok", payload)`` or ``("err", class_name, message, extra)``
(:func:`dispatch`, :func:`serve`; :func:`round_trip` is the caller's
half).  The remote proxies (:class:`RemoteViewHandle`,
:class:`ShardedUdfManager`) are forwarders that preserve the
single-process semantics *exactly*:

* every view probe executes on the owner through
  ``for_client(prober)``, so hit attribution (prober, owner) and lock
  accounting are identical to the single-process server — remote rows
  are never cached on the prober (a cache would swallow the owner-side
  hit record);
* lineage hooks fire on the *prober* (the query's thread-local
  :class:`~repro.obs.lineage.QueryLineage` lives there), mirroring
  what :class:`~repro.storage.view_store.MaterializedView` does
  locally;
* virtual clocks are untouched: operators charge their own clocks
  before calling any of this, so sharding changes real seconds only.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
from dataclasses import replace
from itertools import compress
from multiprocessing.connection import Client as _ConnClient
from typing import Callable, Container, Hashable, Iterable, Mapping

import numpy as np

import repro.errors as _errors
from repro.config import EvaConfig
from repro.errors import ServerError, WorkerCrashedError
from repro.obs.lineage import (
    record_view_create,
    record_view_probe,
    record_view_probe_many,
    record_view_write,
)
from repro.optimizer.udf_manager import UdfHistory, UdfSignature
from repro.server.state import (
    LockedUdfManager,
    SharedReuseState,
    SharedViewStore,
)
from repro.storage.view_store import (
    Key,
    ViewHits,
    key_frame_ids,
    one_entry,
)
from repro.store import attach_reuse_state, open_reuse_state

#: Materialized-view name prefix (see ``UdfHistory.view_name``).
VIEW_PREFIX = "mv::"

#: Virtual nodes per shard on the hash ring.  32 points per shard keeps
#: the key imbalance across shards under ~20% while the ring stays tiny
#: (shards * 32 sorted ints).
RING_REPLICAS = 32


def stable_hash(text: str) -> int:
    """A process- and run-stable 64-bit hash of ``text``.

    ``hash()`` is salted by ``PYTHONHASHSEED``; routing with it would
    scatter a view's keys across different shards on every run and
    orphan durable partitions.  SHA-1 is stable everywhere.
    """
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_key_for_view(view_name: str) -> str:
    """Canonical routing key of a view name.

    Strips the ``mv::`` prefix so a view routes with the *signature*
    key it was derived from — ``mv::<sig>`` and ``<sig>`` must land on
    the same shard or the view and its aggregated predicate would live
    in different processes.
    """
    if view_name.startswith(VIEW_PREFIX):
        return view_name[len(VIEW_PREFIX):]
    return view_name


class HashRing:
    """Consistent-hash ring: key -> shard, with virtual nodes."""

    def __init__(self, num_shards: int, replicas: int = RING_REPLICAS):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        points: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(replicas):
                points.append((stable_hash(f"shard-{shard}#{replica}"),
                               shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_of(self, key: str) -> int:
        """The first virtual node clockwise of ``key``'s hash."""
        index = bisect.bisect(self._hashes, stable_hash(key))
        if index == len(self._hashes):
            index = 0
        return self._shards[index]


class ShardRouter:
    """Key -> shard -> worker placement, identical in every process."""

    def __init__(self, num_shards: int, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_shards < num_workers:
            raise ValueError("num_shards must be >= num_workers")
        self.num_shards = num_shards
        self.num_workers = num_workers
        self._ring = HashRing(num_shards)

    def shard_of(self, key: str) -> int:
        return self._ring.shard_of(key)

    def worker_of_shard(self, shard: int) -> int:
        # Modular placement (not a second ring): with shards >= workers
        # it guarantees every worker owns >= 1 shard, stays balanced,
        # and is recomputable with no state after a worker respawn.
        return shard % self.num_workers

    def worker_of(self, key: str) -> int:
        return self.worker_of_shard(self.shard_of(key))

    def shards_owned_by(self, worker: int) -> list[int]:
        return [s for s in range(self.num_shards)
                if self.worker_of_shard(s) == worker]


# -- the one RPC rule ----------------------------------------------------------

#: How a lost connection surfaces in transit: end of stream, or a socket
#: error (``BrokenPipeError`` and ``ConnectionResetError`` included).
TRANSPORT_ERRORS = (EOFError, OSError)

#: Peer target kind -> what another worker may call on it: exactly what
#: the proxies below call through that kind, nothing else.
#:
#: * ``("view", name, prober)`` -- the owning shard's
#:   ``for_client(prober)`` handle of the view (a ``ClientViewHandle``);
#: * ``("udf", signature_key)`` -- the owning shard's
#:   :class:`LockedUdfManager`;
#: * ``("views",)`` / ``("udfs",)`` -- this worker's local-shards facades
#:   (:class:`ShardedViewStore`, :class:`ShardedUdfManager`), which also
#:   answer a remote ``create_or_get`` / ``get`` with view metadata.
PEER_METHODS = {
    "view": frozenset({"get", "get_many", "put_many", "keys_with_prefix",
                       "serialized_bytes"}),
    "udf": frozenset({"history", "known", "intersection_with_history",
                      "difference_with_history", "record_execution"}),
    "views": frozenset({"create_or_get_meta", "get_meta",
                        "total_serialized_bytes", "view_bytes",
                        "log_lineage"}),
    "udfs": frozenset({"owned_histories"}),
}

VIEWS = ("views",)


def encode_error(error: BaseException) -> tuple:
    """``("err", class_name, message, extra)`` for one raised error.

    Exceptions are encoded structurally rather than pickled: custom
    ``__init__`` signatures (``ServerOverloadedError.retry_after``,
    ``ParserError.position``) do not round-trip through the default
    exception reduce, and silently losing ``retry_after`` would break
    every client back-off loop.
    """
    extra: dict = {}
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        extra["retry_after"] = retry_after
    position = getattr(error, "position", None)
    if position is not None:
        extra["position"] = position
    return ("err", type(error).__name__, str(error), extra)


def decode_error(class_name: str, message: str,
                 extra: dict) -> BaseException:
    """Rebuild the closest local exception for a remote ``err`` reply."""
    cls = getattr(_errors, class_name, None)
    if cls is None or not (isinstance(cls, type)
                           and issubclass(cls, BaseException)):
        return ServerError(f"{class_name}: {message}")
    if issubclass(cls, _errors.ServerOverloadedError):
        return cls(message, retry_after=extra.get("retry_after", 0.1))
    if issubclass(cls, _errors.ParserError):
        return cls(message, position=extra.get("position"))
    return cls(message)


def close_quietly(conn) -> None:
    """Close a connection (or listener) whose other end may be gone."""
    if conn is not None:
        try:
            conn.close()
        except OSError:
            pass


def dispatch(targets: Mapping[str, tuple], target: tuple, method: str,
             args: tuple):
    """The owner side of the rule: call ``method`` on what ``target`` names.

    ``targets`` maps a target kind to ``(allow-list, resolver)``; the
    resolver finds the object from the rest of the ``target`` tuple.
    ``method`` is checked against the allow-list *before* the target is
    resolved or any attribute looked up, so an unlisted, private or
    dunder name is refused with :class:`ServerError` and touches nothing.
    """
    kind, *where = target
    allowed, resolve = targets.get(kind, (frozenset(), None))
    if method not in allowed:
        raise ServerError(f"{method!r} is not served on {kind!r} targets")
    return getattr(resolve(*where), method)(*args)


def serve(conn, handle: Callable, *, final: Container[str] = ()) -> bool:
    """The one service loop: answer ``(target, method, args)`` requests.

    Replies ``("ok", handle(target, method, args))`` or
    :func:`encode_error` of what it raised, until the connection closes
    (returns False) or a ``final`` method succeeds (returns True, after
    its reply went out).  Closes ``conn`` either way.
    """
    try:
        while True:
            try:
                target, method, args = conn.recv()
            except TRANSPORT_ERRORS:
                return False
            try:
                reply = ("ok", handle(target, method, args))
            except BaseException as error:  # noqa: BLE001 - ship to caller
                reply = encode_error(error)
            try:
                conn.send(reply)
            except (OSError, ValueError):
                return False
            if reply[0] == "ok" and method in final:
                return True
    finally:
        close_quietly(conn)


def round_trip(connect: Callable, request: tuple, lost: Callable):
    """The caller side of the rule: one request, its payload back.

    ``connect()`` returns the connection to send on; a transport failure
    there or in transit raises ``lost(error)`` (each caller drops its
    own connection and names its own :class:`WorkerCrashedError`).  An
    ``err`` reply re-raises the owner's error locally.
    """
    try:
        conn = connect()
        conn.send(request)
        reply = conn.recv()
    except TRANSPORT_ERRORS as error:
        raise lost(error) from error
    if reply[0] == "ok":
        return reply[1]
    raise decode_error(*reply[1:])


class ShardClient:
    """Thread-safe RPC stub to one peer worker's listener.

    Connections are *per calling thread* (``threading.local``): a
    remote view write can hold its connection while it waits on the
    owner's view lock, and serializing every cross-process call of a
    worker behind one socket would erase the pool's concurrency.  The
    peer's accept loop starts one service thread per connection, so
    per-thread connections cost one descriptor each and nothing more.
    """

    def __init__(self, address, authkey: bytes):
        self.address = address
        self._authkey = authkey
        self._local = threading.local()
        self._closed = False

    def _connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _ConnClient(self.address, authkey=self._authkey)
            conn.send(("peer",))
            self._local.conn = conn
        return conn

    def call(self, target: tuple, method: str, *args):
        if self._closed:
            raise WorkerCrashedError(
                f"peer at {self.address!r} is gone (worker respawned "
                f"or pool shutting down)")

        def lost(error):
            self._drop_connection()
            return WorkerCrashedError(
                f"peer at {self.address!r} died mid-call "
                f"({method}): {error}")

        return round_trip(self._connection, (target, method, args), lost)

    def _drop_connection(self) -> None:
        close_quietly(getattr(self._local, "conn", None))
        self._local.conn = None

    def close(self) -> None:
        self._closed = True
        self._drop_connection()


class PeerTable:
    """worker id -> :class:`ShardClient`, swappable on respawn.

    The parent rebroadcasts the full address map whenever a worker is
    respawned; :meth:`update` swaps in fresh clients and closes the
    stale ones, so threads retrying after a
    :class:`~repro.errors.WorkerCrashedError` transparently reach the
    replacement process.
    """

    def __init__(self, self_id: int, authkey: bytes = b""):
        self.self_id = self_id
        self._authkey = authkey
        self._lock = threading.Lock()
        self._clients: dict[int, ShardClient] = {}

    def update(self, addresses: dict) -> None:
        with self._lock:
            stale = []
            for worker_id, address in addresses.items():
                if worker_id == self.self_id:
                    continue
                current = self._clients.get(worker_id)
                if current is not None and current.address == address:
                    continue
                if current is not None:
                    stale.append(current)
                self._clients[worker_id] = ShardClient(address,
                                                       self._authkey)
            for client in stale:
                client.close()

    def client(self, worker_id: int) -> ShardClient:
        with self._lock:
            client = self._clients.get(worker_id)
        if client is None:
            raise WorkerCrashedError(
                f"no live connection to worker {worker_id} "
                f"(respawn in progress)")
        return client

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()


# -- remote view proxies -------------------------------------------------------


class RemoteViewHandle:
    """Duck-types :class:`~repro.server.state.ClientViewHandle` for a
    view owned by another worker process.

    Each method forwards to the same method of the owner's
    ``for_client(<prober>)`` handle (target ``("view", name, prober)``),
    so lock accounting, hit attribution, and materialization ownership
    are recorded exactly as if the prober ran in the owner's process.
    Rows are **never** cached here — each probe must reach the owner or
    the owner's stats would undercount hits relative to the
    single-process server.

    Lineage hooks fire locally (the prober's thread-local query
    lineage), mirroring the calls ``MaterializedView`` makes; the
    owner-side execution runs in a service thread with no lineage
    context, so nothing double-counts.
    """

    __slots__ = ("_peer", "_target", "name", "key_columns",
                 "output_columns")

    def __init__(self, peer: ShardClient, name: str, client_id: str,
                 key_columns: list[str], output_columns: list[str]):
        self._peer = peer
        self._target = ("view", name, client_id)
        self.name = name
        self.key_columns = key_columns
        self.output_columns = output_columns

    def _call(self, method: str, *args):
        return self._peer.call(self._target, method, *args)

    def get(self, key: Key) -> tuple[dict, ...] | None:
        rows = self._call("get", key)
        record_view_probe(self.name, rows)
        return rows

    def get_many(self, keys: Iterable[Key] | np.ndarray) -> ViewHits:
        # A frame-id array travels as an array: as a list of numpy
        # scalars it would reach the owner as key-less probes.
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        hits = self._call("get_many", keys)
        record_view_probe_many(self.name, hits)
        return hits

    def keys_with_prefix(self, first_component: Hashable) -> list[Key]:
        return self._call("keys_with_prefix", first_component)

    def serialized_bytes(self) -> int:
        return self._call("serialized_bytes")

    def put(self, key: Key, rows: Iterable[Mapping]) -> bool:
        return self.put_many(*one_entry(key, rows, self.output_columns))[0]

    def put_many(self, keys: list[Key] | np.ndarray, counts: list[int],
                 columns: Mapping[str, list],
                 patch_keys: bool = False) -> list[bool]:
        # An array of keys travels as an array, as in ``get_many``.
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        inserted = self._call(
            "put_many", keys, list(counts),
            {col: list(columns[col]) for col in self.output_columns},
            patch_keys)
        if isinstance(keys, np.ndarray):
            fresh = key_frame_ids(keys[np.array(inserted, dtype=bool)],
                                  patch_keys)
        else:
            fresh = list(compress(keys, inserted))
        record_view_write(self.name, fresh, sum(compress(counts, inserted)))
        return inserted


class ShardedClientViewStore:
    """One client's fleet-wide view store window (session facade).

    Duck-types :class:`~repro.server.state.ClientViewStore`: names are
    routed by shard key — locally-owned views resolve through the
    local shard's attributed facade, remote ones through
    :class:`RemoteViewHandle` RPC proxies.  Aggregates span every
    worker, matching what a single-process client would see.
    """

    def __init__(self, state: "ShardedWorkerState", client_id: str):
        self.state = state
        self.client_id = client_id

    def _remote(self, name: str, meta: tuple | None):
        if meta is None:
            return None
        return RemoteViewHandle(self.state.peer_of_view(name), name,
                                self.client_id, *meta)

    def create_or_get(self, name: str, key_columns: list[str],
                      output_columns: list[str]):
        store = self.state.local_store(name)
        if store is not None:
            return store.for_client(self.client_id).create_or_get(
                name, key_columns, output_columns)
        created, *meta = self.state.peer_of_view(name).call(
            VIEWS, "create_or_get_meta", name, list(key_columns),
            list(output_columns))
        if created:
            record_view_create(name)
        return self._remote(name, meta)

    def get(self, name: str):
        store = self.state.local_store(name)
        if store is not None:
            return store.for_client(self.client_id).get(name)
        return self._remote(name, self.state.peer_of_view(name).call(
            VIEWS, "get_meta", name))

    def total_serialized_bytes(self) -> int:
        return sum(self.state.on_each_worker(VIEWS,
                                             "total_serialized_bytes"))

    def view_bytes(self, names) -> dict:
        result: dict[str, int] = {}
        groups = self.state.by_worker(names, lambda name: name)
        for worker, group in groups.items():
            result.update(self.state.on_worker(worker, VIEWS, "view_bytes",
                                               group))
        return result

    @property
    def is_durable(self) -> bool:
        return True

    def log_lineage(self, records) -> None:
        """Route lineage records to the shard store owning each view."""
        records = [record for record in records
                   if record is not None and record.get("view") is not None]
        for worker, group in self.state.by_worker(
                records, lambda record: record["view"]).items():
            self.state.on_worker(worker, VIEWS, "log_lineage", group)

    def commit(self) -> None:
        self.state.view_store.commit()  # peers commit before replying


class ShardedViewStore:
    """Worker-level facade over this process's *owned* shard stores.

    Duck-types the :class:`~repro.server.state.SharedViewStore` surface
    the embedded :class:`~repro.server.server.EvaServer` consumes, and
    is the ``("views",)`` peer target.  Everything here is
    local-shards-only — callers merge per-worker figures into fleet
    totals, and summing pre-merged fleet numbers would double-count.
    """

    def __init__(self, state: "ShardedWorkerState"):
        self.state = state

    def attach_stats(self, stats) -> None:
        for store in self.state.shard_stores.values():
            store.attach_stats(stats)

    def for_client(self, client_id: str) -> ShardedClientViewStore:
        return ShardedClientViewStore(self.state, client_id)

    def create_or_get_meta(self, name: str, key_columns: list[str],
                           output_columns: list[str]) -> tuple:
        """A peer's ``create_or_get``, answered with the view's metadata
        ``(created, key_columns, output_columns)``: a handle holds locks
        and cannot travel, so the prober wraps this in a
        :class:`RemoteViewHandle`."""
        store = self.state.owned_store(name)
        existed = name in store
        view = store.base.create_or_get(name, key_columns, output_columns)
        return (not existed, list(view.key_columns),
                list(view.output_columns))

    def get_meta(self, name: str) -> tuple | None:
        """A peer's ``get``: ``(key_columns, output_columns)``, or None."""
        view = self.state.owned_store(name).base.get(name)
        if view is None:
            return None
        return (list(view.key_columns), list(view.output_columns))

    def names(self) -> list[str]:
        names: list[str] = []
        for store in self.state.shard_stores.values():
            names.extend(store.names())
        return sorted(names)

    def total_serialized_bytes(self) -> int:
        return sum(store.total_serialized_bytes()
                   for store in self.state.shard_stores.values())

    def view_bytes(self, names) -> dict:
        """Sizes of the named views this worker owns (others skipped)."""
        result: dict[str, int] = {}
        for name in names:
            store = self.state.local_store(name)
            if store is not None:
                result.update(store.base.view_bytes([name]))
        return result

    def log_lineage(self, records) -> None:
        """Log each record to the owned shard of its view (others
        skipped)."""
        for record in records:
            store = self.state.local_store(record["view"])
            if store is not None:
                store.base.log_lineage([record])

    def commit(self) -> None:
        for store in self.state.shard_stores.values():
            store.base.commit()

    def close(self) -> None:
        for store in self.state.shard_stores.values():
            store.close()

    def store_snapshot(self):
        """One merged health snapshot over this worker's owned shards."""
        return merge_store_snapshots(
            [store.store_snapshot()
             for _, store in sorted(self.state.shard_stores.items())],
            path=str(self.state.config.store_path))


def merge_store_snapshots(snapshots, path: str = ""):
    """Fold per-shard :class:`~repro.store.durable.StoreSnapshot`\\ s.

    View counts, bytes, WAL bytes, file counts and counters add (partitions are
    disjoint directories); ``snapshot_age_seconds`` takes the *oldest*
    non-None age (the staleness bound across the fleet); recovery
    figures sum per key.  Used once per worker (owned shards) and again
    by the pool front-end (per-worker rollups), so it must be
    associative — and is, being sums and maxima.
    """
    from repro.store.durable import StoreSnapshot

    snapshots = [s for s in snapshots if s is not None]
    if not snapshots:
        return None
    counters: dict[str, int] = {}
    recovery: dict = {}
    any_recovery = False
    for snap in snapshots:
        for key, value in snap.counters.items():
            counters[key] = counters.get(key, 0) + value
        if snap.recovery:
            any_recovery = True
            for key, value in snap.recovery.items():
                if isinstance(value, (int, float)):
                    recovery[key] = recovery.get(key, 0) + value
                else:
                    recovery.setdefault(key, value)
    ages = [s.snapshot_age_seconds for s in snapshots
            if s.snapshot_age_seconds is not None]
    return StoreSnapshot(
        path=path or snapshots[0].path,
        views=sum(s.views for s in snapshots),
        bytes=sum(s.bytes for s in snapshots),
        wal_bytes=sum(s.wal_bytes for s in snapshots),
        snapshot_files=sum(s.snapshot_files for s in snapshots),
        snapshot_age_seconds=max(ages) if ages else None,
        counters=counters,
        recovery=recovery if any_recovery else None,
    )


# -- sharded UDF manager -------------------------------------------------------


class ShardedUdfManager:
    """Routes the :class:`LockedUdfManager` contract by signature shard.

    Each operation runs on the owning shard's locked manager — here, or
    on the owner over the peer connection (target ``("udf", key)``) —
    so every predicate union is atomic at exactly one process, exactly
    as the single-process server serializes unions behind one mutex.
    Predicates travel pickled (:class:`~repro.symbolic.dnf.DnfPredicate`
    is a frozen dataclass tree), and a remote :class:`UdfHistory` is a
    pickled, detached copy — mutation always routes back through
    :meth:`record_execution`.

    There is no fleet ``version``: worker sessions run with the plan
    cache off, its only reader.
    """

    def __init__(self, state: "ShardedWorkerState"):
        self.state = state

    def set_listener(self, listener) -> None:
        for manager in self.state.shard_managers.values():
            manager.set_listener(listener)

    def _on_owner(self, method: str, signature: UdfSignature, *args):
        key = signature.key()
        return self.state.on_worker(self.state.router.worker_of(key),
                                    ("udf", key), method, signature, *args)

    def history(self, signature: UdfSignature,
                per_tuple_cost: float = 0.0) -> UdfHistory:
        return self._on_owner("history", signature, per_tuple_cost)

    def known(self, signature: UdfSignature) -> bool:
        return self._on_owner("known", signature)

    def intersection_with_history(self, signature: UdfSignature, guard):
        return self._on_owner("intersection_with_history", signature, guard)

    def difference_with_history(self, signature: UdfSignature, guard):
        return self._on_owner("difference_with_history", signature, guard)

    def record_execution(self, signature: UdfSignature, guard,
                         per_tuple_cost: float = 0.0) -> bool:
        return self._on_owner("record_execution", signature, guard,
                              per_tuple_cost)

    def histories(self) -> list[UdfHistory]:
        per_worker = self.state.on_each_worker(("udfs",), "owned_histories")
        return [entry for entries in per_worker for entry in entries]

    def owned_histories(self) -> list[UdfHistory]:
        """The histories of this worker's owned shards."""
        return [entry for manager in self.state.shard_managers.values()
                for entry in manager.histories()]


# -- the per-worker state ------------------------------------------------------


class ShardedWorkerState(SharedReuseState):
    """One worker process's :class:`SharedReuseState` over owned shards.

    Overrides ``_init_reuse_state`` to open one durable partition
    directory per *owned* shard (``<store_path>/shard-<k>``) — each
    with its own :class:`SharedViewStore` (per-shard view locks) and
    :class:`LockedUdfManager` over a
    :class:`~repro.store.integration.PersistentUdfManager` — and to
    install the routing facades that make every session see the whole
    fleet.  Recovery is per-shard: a respawned worker replays only its
    own shards' WALs, in parallel with nothing (the other shards'
    owners never stopped serving).

    It is also the owner side of every peer connection:
    :meth:`serve_peer` resolves a request's target through
    :data:`PEER_METHODS` and the resolvers built here.
    """

    def __init__(self, config: EvaConfig, zoo=None, *, worker_id: int,
                 peers: PeerTable | None = None):
        self.worker_id = worker_id
        self.router = ShardRouter(config.shards, config.workers)
        self.peers = peers if peers is not None else PeerTable(worker_id)
        super().__init__(config, zoo)
        resolvers = {
            "view": self._view_handle,
            "udf": self._owned_manager,
            "views": lambda: self.view_store,
            "udfs": lambda: self.udf_manager,
        }
        #: Peer target kind -> ``(allow-list, resolver)`` for
        #: :func:`dispatch`.
        self.peer_targets = {kind: (PEER_METHODS[kind], resolve)
                             for kind, resolve in resolvers.items()}

    def _init_reuse_state(self) -> None:
        self.shard_stores: dict[int, SharedViewStore] = {}
        self.shard_managers: dict[int, LockedUdfManager] = {}
        for shard in self.router.shards_owned_by(self.worker_id):
            base_store, base_manager = open_reuse_state(replace(
                self.config,
                store_path=os.path.join(str(self.config.store_path),
                                        f"shard-{shard}"),
                workers=1), self.symbolic)
            attach_reuse_state(base_store, self.ledger)
            self.shard_stores[shard] = SharedViewStore(base_store)
            self.shard_managers[shard] = LockedUdfManager(base_manager)
        if not self.shard_stores:
            raise ServerError(
                f"worker {self.worker_id} owns no shards "
                f"(shards={self.router.num_shards}, "
                f"workers={self.router.num_workers})")
        self.view_store = ShardedViewStore(self)
        self.udf_manager = ShardedUdfManager(self)

    # -- routing ---------------------------------------------------------------

    def local_store(self, view_name: str) -> SharedViewStore | None:
        """The owned shard store of ``view_name``; None if not owned."""
        return self.shard_stores.get(
            self.router.shard_of(shard_key_for_view(view_name)))

    def owned_store(self, view_name: str) -> SharedViewStore:
        shard = self.router.shard_of(shard_key_for_view(view_name))
        store = self.shard_stores.get(shard)
        if store is None:
            raise ServerError(
                f"shard {shard} for view {view_name!r} is not owned by "
                f"worker {self.worker_id} (stale routing table?)")
        return store

    def _owned_manager(self, key: str) -> LockedUdfManager:
        manager = self.shard_managers.get(self.router.shard_of(key))
        if manager is None:
            raise ServerError(
                f"signature {key!r} is not owned by worker "
                f"{self.worker_id} (stale routing table?)")
        return manager

    def _view_handle(self, name: str, prober: str):
        handle = self.owned_store(name).for_client(prober).get(name)
        if handle is None:
            raise ServerError(f"view {name!r} does not exist")
        return handle

    def peer_of_view(self, view_name: str) -> ShardClient:
        return self.peers.client(
            self.router.worker_of(shard_key_for_view(view_name)))

    def by_worker(self, items: Iterable, view_name_of) -> dict[int, list]:
        """``items`` grouped by the worker owning each one's view."""
        groups: dict[int, list] = {}
        for item in items:
            worker = self.router.worker_of(
                shard_key_for_view(view_name_of(item)))
            groups.setdefault(worker, []).append(item)
        return groups

    # -- the one rule, both sides ----------------------------------------------

    def on_worker(self, worker: int, target: tuple, method: str, *args):
        """``method`` of ``target`` on ``worker``: resolved and called
        here when that is this worker, over its peer connection
        otherwise — the local and remote paths of one call."""
        if worker == self.worker_id:
            kind, *where = target
            return getattr(self.peer_targets[kind][1](*where), method)(*args)
        return self.peers.client(worker).call(target, method, *args)

    def on_each_worker(self, target: tuple, method: str, *args) -> list:
        return [self.on_worker(worker, target, method, *args)
                for worker in range(self.router.num_workers)]

    def serve_peer(self, target: tuple, method: str, args: tuple):
        """Answer one peer request (:func:`dispatch`), then commit what
        it logged: a write is durable before its reply leaves."""
        payload = dispatch(self.peer_targets, target, method, args)
        self.view_store.commit()
        return payload
