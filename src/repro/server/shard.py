"""Consistent-hash sharding of the reuse state across worker processes.

The worker pool (:mod:`repro.server.pool`) runs N spawned processes,
each owning a subset of *shards*.  A shard is the unit of placement for
everything keyed by ``(model, video)``:

* the **materialized view** ``mv::<model>@<video>[@...]`` and its
  durable partition directory (``<store_path>/shard-<k>``), so WAL
  replay and tiering stay per-shard and restart parallelism scales with
  worker count;
* the **UDF history** (aggregated predicate ``p_u``) of the matching
  signature — the view and the predicate that describes it must never
  be owned by different processes, so both route through the *same*
  canonical key (:func:`shard_key_for_view` strips the ``mv::`` prefix,
  :meth:`UdfSignature.key` is the key);
* the **inference dispatch** for the pair — one process owns each
  ``(model, video)`` queue, so concurrent miss sub-batches from
  *different* worker processes coalesce into single ``predict_batch``
  calls exactly as threads coalesce inside one process.

Keys map to shards on a hash ring with virtual nodes
(:class:`HashRing`); hashing is SHA-1-based (:func:`stable_hash`) so
placement survives ``PYTHONHASHSEED`` randomization and process
restarts.  Shards map to workers modularly (``shard % workers``) —
with ``shards >= workers`` every worker owns at least one shard and
ownership is trivially recomputable after a respawn.

Cross-process access goes over a lightweight message protocol
(:func:`encode_error` / :func:`decode_error`, :class:`ShardClient`)
speaking pickled tuples on ``multiprocessing.connection`` sockets:
requests are ``(method, args)``; replies are ``("ok", payload)`` or
``("err", class_name, message, extra)``.  The remote proxies
(:class:`RemoteViewHandle`, :class:`ShardedUdfManager`,
:class:`ShardedInference`) preserve the single-process semantics
*exactly*:

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
import time
from dataclasses import replace
from itertools import compress
from multiprocessing.connection import Client as _ConnClient
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

import repro.errors as _errors
from repro.config import EvaConfig
from repro.errors import ServerError, WorkerCrashedError
from repro.obs.flight import current_flight, record_batcher_wait
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
    array_key_tuples,
    one_entry,
)

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


def inference_key(model_name: str, video_name: str) -> str:
    """Canonical routing key of one ``(model, video)`` dispatch queue.

    Matches the detector view key (``<model>@<video>``), so a detector's
    inference owner is also its view owner; classifier views carry the
    upstream detector in their key and may route elsewhere — ownership
    only needs to be *unique*, not colocated, for coalescing to work.
    """
    return f"{model_name.lower()}@{video_name}"


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


# -- message protocol ----------------------------------------------------------


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


class ShardClient:
    """Thread-safe RPC stub to one peer worker's listener.

    Connections are *per calling thread* (``threading.local``): a
    remote inference dispatch can hold its connection for a full
    service round-trip, and serializing every cross-process call of a
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

    def call(self, method: str, *args):
        if self._closed:
            raise WorkerCrashedError(
                f"peer at {self.address!r} is gone (worker respawned "
                f"or pool shutting down)")
        try:
            conn = self._connection()
            conn.send((method, args))
            reply = conn.recv()
        except (EOFError, OSError, BrokenPipeError) as error:
            self._drop_connection()
            raise WorkerCrashedError(
                f"peer at {self.address!r} died mid-call "
                f"({method}): {error}") from error
        if reply[0] == "ok":
            return reply[1]
        raise decode_error(reply[1], reply[2], reply[3])

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass

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

    def __init__(self, self_id: int):
        self.self_id = self_id
        self._lock = threading.Lock()
        self._clients: dict[int, ShardClient] = {}

    def update(self, addresses: dict, authkey: bytes) -> None:
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
                self._clients[worker_id] = ShardClient(address, authkey)
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

    Every data operation is one RPC executed on the owner through the
    owner's ``for_client(<prober>)`` facade, so lock accounting, hit
    attribution, and materialization ownership are recorded exactly as
    if the prober ran in the owner's process.  Rows are **never**
    cached here — each probe must reach the owner or the owner's stats
    would undercount hits relative to the single-process server.

    Lineage hooks fire locally (the prober's thread-local query
    lineage), mirroring the calls ``MaterializedView`` makes; the
    owner-side execution runs in a service thread with no lineage
    context, so nothing double-counts.
    """

    __slots__ = ("_peer", "_name", "_client_id", "_key_columns",
                 "_output_columns")

    def __init__(self, peer: ShardClient, name: str, client_id: str,
                 key_columns: list[str], output_columns: list[str]):
        self._peer = peer
        self._name = name
        self._client_id = client_id
        self._key_columns = key_columns
        self._output_columns = output_columns

    @property
    def name(self) -> str:
        return self._name

    @property
    def key_columns(self) -> list[str]:
        return self._key_columns

    @property
    def output_columns(self) -> list[str]:
        return self._output_columns

    @property
    def num_keys(self) -> int:
        return self._peer.call("view_counts", self._name)[0]

    @property
    def num_output_rows(self) -> int:
        return self._peer.call("view_counts", self._name)[1]

    def __contains__(self, key: Key) -> bool:
        return self._peer.call("view_contains_key", self._name, key)

    def get(self, key: Key) -> tuple[dict, ...] | None:
        rows = self._peer.call("view_get", self._name, self._client_id,
                               key)
        record_view_probe(self._name, rows)
        return rows

    def get_many(self, keys: Iterable[Key] | np.ndarray) -> ViewHits:
        # A frame-id array travels as an array: as a list of numpy
        # scalars it would reach the owner as key-less probes.
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        hits = self._peer.call("view_get_many", self._name,
                               self._client_id, keys)
        record_view_probe_many(self._name, hits)
        return hits

    def keys(self) -> list[Key]:
        return self._peer.call("view_keys", self._name)

    def keys_with_prefix(self, first_component: Hashable) -> list[Key]:
        return self._peer.call("view_keys_with_prefix", self._name,
                               first_component)

    def serialized_bytes(self) -> int:
        return self._peer.call("store_view_bytes",
                               [self._name]).get(self._name, 0)

    def put(self, key: Key, rows: Iterable[Mapping]) -> bool:
        return self.put_many(*one_entry(key, rows, self._output_columns))[0]

    def put_many(self, keys: list[Key] | np.ndarray, counts: list[int],
                 columns: Mapping[str, list],
                 patch_keys: bool = False) -> list[bool]:
        # An array of keys travels as an array, as in ``get_many``.
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        inserted = self._peer.call(
            "view_put_many", self._name, self._client_id, keys,
            list(counts), {col: list(columns[col])
                           for col in self._output_columns}, patch_keys)
        if isinstance(keys, np.ndarray):
            fresh = array_key_tuples(
                keys[np.array(inserted, dtype=bool)], patch_keys)
        else:
            fresh = list(compress(keys, inserted))
        record_view_write(self._name, fresh, sum(compress(counts, inserted)))
        return inserted


class ShardedClientViewStore:
    """One client's fleet-wide view store window (session facade).

    Duck-types :class:`~repro.server.state.ClientViewStore`: names are
    routed by shard key — locally-owned views resolve through the
    local shard's attributed facade, remote ones through
    :class:`RemoteViewHandle` RPC proxies.  Aggregates (``names``,
    ``total_serialized_bytes``) span every worker, matching what a
    single-process client would see.
    """

    def __init__(self, state: "ShardedWorkerState", client_id: str):
        self.state = state
        self.client_id = client_id

    def _local_store(self, name: str) -> SharedViewStore | None:
        shard = self.state.router.shard_of(shard_key_for_view(name))
        return self.state.shard_stores.get(shard)

    def _peer_for(self, name: str) -> ShardClient:
        worker = self.state.router.worker_of(shard_key_for_view(name))
        return self.state.peers.client(worker)

    def create_or_get(self, name: str, key_columns: list[str],
                      output_columns: list[str]):
        store = self._local_store(name)
        if store is not None:
            return store.for_client(self.client_id).create_or_get(
                name, key_columns, output_columns)
        created, key_columns, output_columns = self._peer_for(name).call(
            "view_create_or_get", name, list(key_columns),
            list(output_columns))
        if created:
            record_view_create(name)
        return RemoteViewHandle(self._peer_for(name), name,
                                self.client_id, key_columns,
                                output_columns)

    def get(self, name: str):
        store = self._local_store(name)
        if store is not None:
            return store.for_client(self.client_id).get(name)
        meta = self._peer_for(name).call("view_meta", name)
        if meta is None:
            return None
        key_columns, output_columns = meta
        return RemoteViewHandle(self._peer_for(name), name,
                                self.client_id, key_columns,
                                output_columns)

    def __contains__(self, name: str) -> bool:
        store = self._local_store(name)
        if store is not None:
            return name in store
        return self._peer_for(name).call("store_contains", name)

    def names(self) -> list[str]:
        return self.state.all_view_names()

    def total_serialized_bytes(self) -> int:
        total = self.state.view_store.total_serialized_bytes()
        for worker_id in self.state.other_workers():
            total += self.state.peers.client(worker_id).call(
                "store_total_bytes")
        return total

    def view_bytes(self, names) -> dict:
        result: dict[str, int] = {}
        remote: dict[int, list[str]] = {}
        for name in names:
            store = self._local_store(name)
            if store is not None:
                result.update(store.base.view_bytes([name]))
            else:
                worker = self.state.router.worker_of(
                    shard_key_for_view(name))
                remote.setdefault(worker, []).append(name)
        for worker, group in remote.items():
            result.update(self.state.peers.client(worker).call(
                "store_view_bytes", group))
        return result

    def drop(self, name: str, *, reason: str = "drop") -> int:
        store = self._local_store(name)
        if store is not None:
            return store.drop(name, reason=reason)
        return self._peer_for(name).call("store_drop", name, reason)

    def drop_all(self) -> int:
        return sum(self.drop(name) for name in self.names())

    def save_to(self, directory) -> int:
        # Administrative export of the *local* shards only; the pool
        # front-end exports every worker for a full fleet snapshot.
        return self.state.view_store.save_to(directory)

    @property
    def is_durable(self) -> bool:
        return True

    def log_lineage(self, records) -> None:
        """Route lineage records to the shard store owning each view."""
        remote: dict[int, list] = {}
        for record in records:
            if record is None:
                continue
            name = record.get("view")
            if name is None:
                continue
            store = self._local_store(name)
            if store is not None:
                store.base.log_lineage([record])
            else:
                worker = self.state.router.worker_of(
                    shard_key_for_view(name))
                remote.setdefault(worker, []).append(record)
        for worker, group in remote.items():
            self.state.peers.client(worker).call("store_log_lineage",
                                                 group)

    def commit(self) -> None:
        self.state.view_store.commit()  # peers commit before replying


class ShardedViewStore:
    """Worker-level facade over this process's *owned* shard stores.

    Duck-types the :class:`~repro.server.state.SharedViewStore` surface
    the embedded :class:`~repro.server.server.EvaServer` consumes.
    Everything here is local-shards-only — the pool front-end merges
    per-worker figures into fleet totals, and summing pre-merged fleet
    numbers would double-count.
    """

    def __init__(self, state: "ShardedWorkerState"):
        self.state = state

    def attach_stats(self, stats) -> None:
        for store in self.state.shard_stores.values():
            store.attach_stats(stats)

    def for_client(self, client_id: str) -> ShardedClientViewStore:
        return ShardedClientViewStore(self.state, client_id)

    def owner_of(self, view_name: str, key: Key) -> str | None:
        store = self.state.shard_stores.get(
            self.state.router.shard_of(shard_key_for_view(view_name)))
        if store is None:
            return None
        return store.owner_of(view_name, key)

    def names(self) -> list[str]:
        names: list[str] = []
        for store in self.state.shard_stores.values():
            names.extend(store.names())
        return sorted(names)

    def __contains__(self, name: str) -> bool:
        store = self.state.shard_stores.get(
            self.state.router.shard_of(shard_key_for_view(name)))
        return store is not None and name in store

    def total_serialized_bytes(self) -> int:
        return sum(store.total_serialized_bytes()
                   for store in self.state.shard_stores.values())

    def drop(self, name: str, *, reason: str = "drop") -> int:
        store = self.state.shard_stores.get(
            self.state.router.shard_of(shard_key_for_view(name)))
        if store is None:
            return 0
        return store.drop(name, reason=reason)

    def drop_all(self) -> int:
        return sum(store.drop_all()
                   for store in self.state.shard_stores.values())

    def save_to(self, directory) -> int:
        import pathlib

        total = 0
        for shard, store in sorted(self.state.shard_stores.items()):
            total += store.save_to(
                pathlib.Path(directory) / f"shard-{shard}")
        return total

    def flush(self) -> None:
        for store in self.state.shard_stores.values():
            store.flush()

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

    Tier sizes, WAL bytes, file counts and counters add (partitions are
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
        hot_views=sum(s.hot_views for s in snapshots),
        warm_views=sum(s.warm_views for s in snapshots),
        hot_bytes=sum(s.hot_bytes for s in snapshots),
        warm_bytes=sum(s.warm_bytes for s in snapshots),
        wal_bytes=sum(s.wal_bytes for s in snapshots),
        snapshot_files=sum(s.snapshot_files for s in snapshots),
        snapshot_age_seconds=max(ages) if ages else None,
        counters=counters,
        recovery=recovery if any_recovery else None,
    )


# -- sharded UDF manager -------------------------------------------------------


class ShardedUdfManager:
    """Routes the :class:`LockedUdfManager` contract by signature shard.

    Locally-owned signatures go straight to the owning shard's locked
    manager; remote ones RPC to the owner, which executes the same
    operation under its own lock — so every predicate union is atomic
    at exactly one process, exactly as the single-process server
    serializes unions behind one mutex.  Predicates travel pickled
    (:class:`~repro.symbolic.dnf.DnfPredicate` is a frozen dataclass
    tree), and remote :class:`UdfHistory` values are detached copies —
    mutation always routes back through :meth:`record_execution`.
    """

    def __init__(self, state: "ShardedWorkerState"):
        self.state = state

    def set_listener(self, listener) -> None:
        for manager in self.state.shard_managers.values():
            manager.set_listener(listener)

    def _local(self, signature: UdfSignature) -> LockedUdfManager | None:
        return self.state.shard_managers.get(
            self.state.router.shard_of(signature.key()))

    def _peer(self, signature: UdfSignature) -> ShardClient:
        return self.state.peers.client(
            self.state.router.worker_of(signature.key()))

    @property
    def version(self) -> int:
        """Fleet-wide monotone version: the sum of every shard's.

        Any shard's predicate change bumps its own counter, so the sum
        changes iff any aggregated predicate changed anywhere — the
        exact invalidation contract plan caches rely on.  (Worker
        sessions run with the plan cache disabled, so this crosses the
        wire only for introspection and state export.)
        """
        total = sum(manager.version
                    for manager in self.state.shard_managers.values())
        for worker_id in self.state.other_workers():
            total += self.state.peers.client(worker_id).call(
                "udf_version")
        return total

    def history(self, signature: UdfSignature,
                per_tuple_cost: float = 0.0) -> UdfHistory:
        local = self._local(signature)
        if local is not None:
            return local.history(signature, per_tuple_cost)
        cost, predicate, view_name = self._peer(signature).call(
            "udf_history", signature.udf_name, signature.sources,
            per_tuple_cost)
        entry = UdfHistory(signature, cost, view_name=view_name)
        entry.aggregated_predicate = predicate
        return entry

    def known(self, signature: UdfSignature) -> bool:
        local = self._local(signature)
        if local is not None:
            return local.known(signature)
        return self._peer(signature).call(
            "udf_known", signature.udf_name, signature.sources)

    def histories(self) -> list[UdfHistory]:
        entries: list[UdfHistory] = []
        for manager in self.state.shard_managers.values():
            entries.extend(manager.histories())
        for worker_id in self.state.other_workers():
            for udf_name, sources, cost, predicate, view_name in \
                    self.state.peers.client(worker_id).call(
                        "udf_histories"):
                entry = UdfHistory(UdfSignature(udf_name, tuple(sources)),
                                   cost, view_name=view_name)
                entry.aggregated_predicate = predicate
                entries.append(entry)
        return entries

    def intersection_with_history(self, signature: UdfSignature, guard):
        local = self._local(signature)
        if local is not None:
            return local.intersection_with_history(signature, guard)
        return self._peer(signature).call(
            "udf_intersection", signature.udf_name, signature.sources,
            guard)

    def difference_with_history(self, signature: UdfSignature, guard):
        local = self._local(signature)
        if local is not None:
            return local.difference_with_history(signature, guard)
        return self._peer(signature).call(
            "udf_difference", signature.udf_name, signature.sources,
            guard)

    def record_execution(self, signature: UdfSignature, guard,
                         per_tuple_cost: float = 0.0) -> bool:
        local = self._local(signature)
        if local is not None:
            return local.record_execution(signature, guard, per_tuple_cost)
        return self._peer(signature).call(
            "udf_record", signature.udf_name, signature.sources, guard,
            per_tuple_cost)

    def reset(self) -> None:
        for manager in self.state.shard_managers.values():
            manager.reset()
        for worker_id in self.state.other_workers():
            self.state.peers.client(worker_id).call("udf_reset")


# -- sharded inference ---------------------------------------------------------


class ShardedInference:
    """The cross-process micro-batching seam.

    Duck-types the executor's ``inference.submit`` contract: each
    ``(model, video)`` pair is owned by exactly one dispatcher process;
    locally-owned pairs ride the local
    :class:`~repro.server.batcher.InferenceBatcher` window, remote
    pairs RPC to the owner's batcher via ``submit_remote`` — the
    request joins whatever coalescing window is open there, so miss
    sub-batches from different *processes* share physical
    ``predict_batch`` dispatches.  The requester records its own
    flight-record batcher wait with the window occupancy the owner
    reports back.
    """

    def __init__(self, state: "ShardedWorkerState"):
        self.state = state

    def submit(self, model, video, inputs: Sequence) -> list:
        owner = self.state.router.worker_of(
            inference_key(model.name, video.name))
        if owner == self.state.worker_id:
            return self.state.batcher.submit(model, video, inputs)
        inputs = list(inputs)
        if not inputs:
            return []
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        outputs, window_requests = self.state.peers.client(owner).call(
            "infer", model.name, video.name, inputs)
        if flight is not None:
            record_batcher_wait("follower",
                                time.perf_counter() - started,
                                window_requests)
        return outputs


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
    """

    def __init__(self, config: EvaConfig, zoo=None, *, worker_id: int,
                 peers: PeerTable | None = None):
        self.worker_id = worker_id
        self.router = ShardRouter(config.shards, config.workers)
        self.peers = peers if peers is not None else PeerTable(worker_id)
        super().__init__(config, zoo)
        # Replace the inference seam *after* the base constructor built
        # the local batcher: sessions route every (model, video) to its
        # owning dispatcher process; the local batcher keeps serving
        # owned pairs and incoming ``infer`` RPCs.
        self.inference = ShardedInference(self)

    def _init_reuse_state(self) -> None:
        from repro.store import (PersistentUdfManager, open_view_store,
                                 restore_udf_histories)

        self.shard_stores: dict[int, SharedViewStore] = {}
        self.shard_managers: dict[int, LockedUdfManager] = {}
        self._base_stores = []
        for shard in self.router.shards_owned_by(self.worker_id):
            shard_config = replace(
                self.config,
                store_path=os.path.join(str(self.config.store_path),
                                        f"shard-{shard}"),
                workers=1)
            base_store = open_view_store(shard_config)
            base_manager = PersistentUdfManager(self.symbolic, base_store)
            restore_udf_histories(base_store, base_manager, self.symbolic)
            self.shard_stores[shard] = SharedViewStore(base_store)
            self.shard_managers[shard] = LockedUdfManager(base_manager)
            self._base_stores.append(base_store)
        if not self.shard_stores:
            raise ServerError(
                f"worker {self.worker_id} owns no shards "
                f"(shards={self.router.num_shards}, "
                f"workers={self.router.num_workers})")
        self.view_store = ShardedViewStore(self)
        self.udf_manager = ShardedUdfManager(self)

    def other_workers(self) -> list[int]:
        return [w for w in range(self.router.num_workers)
                if w != self.worker_id]

    def all_view_names(self) -> list[str]:
        names = list(self.view_store.names())
        for worker_id in self.other_workers():
            names.extend(self.peers.client(worker_id).call("store_names"))
        return sorted(names)


# -- owner-side request dispatch ----------------------------------------------


def handle_shard_request(state: ShardedWorkerState, method: str,
                         args: tuple):
    """Execute one peer RPC against this worker's owned state.

    Runs on a service thread of the owning worker; called by the pool
    worker's connection loop.  Raises whatever the underlying
    operation raises — the loop encodes it with :func:`encode_error`.
    """
    if method == "infer":
        model_name, video_name, inputs = args
        model = state.zoo.get(model_name)
        video = state.storage.table(video_name).video
        return state.batcher.submit_remote(model, video, inputs)

    if method.startswith("view_"):
        name = args[0]
        shard = state.router.shard_of(shard_key_for_view(name))
        store = state.shard_stores.get(shard)
        if store is None:
            raise ServerError(
                f"shard {shard} for view {name!r} is not owned by "
                f"worker {state.worker_id} (stale routing table?)")
        if method == "view_create_or_get":
            _, key_columns, output_columns = args
            existed = name in store
            view = store.base.create_or_get(name, key_columns,
                                            output_columns)
            return (not existed, list(view.key_columns),
                    list(view.output_columns))
        if method == "view_meta":
            view = store.base.get(name)
            if view is None:
                return None
            return (list(view.key_columns), list(view.output_columns))
        if method == "view_counts":
            view = store.base.get(name)
            if view is None:
                return (0, 0)
            return (view.num_keys, view.num_output_rows)
        if method == "view_contains_key":
            view = store.base.get(name)
            return view is not None and args[1] in view
        if method == "view_get":
            _, client_id, key = args
            handle = store.for_client(client_id).get(name)
            return None if handle is None else handle.get(key)
        if method == "view_get_many":
            _, client_id, keys = args
            handle = store.for_client(client_id).get(name)
            if handle is None:
                return ViewHits([None] * len(keys), {})
            return handle.get_many(keys)
        if method == "view_put_many":
            _, client_id, keys, counts, columns, patch_keys = args
            handle = store.for_client(client_id).get(name)
            if handle is None:
                raise ServerError(f"view {name!r} does not exist")
            return handle.put_many(keys, counts, columns,
                                   patch_keys=patch_keys)
        if method == "view_keys":
            view = store.base.get(name)
            return [] if view is None else list(view.keys())
        if method == "view_keys_with_prefix":
            view = store.base.get(name)
            return ([] if view is None
                    else view.keys_with_prefix(args[1]))
        raise ServerError(f"unknown view method {method!r}")

    if method.startswith("store_"):
        if method == "store_names":
            return state.view_store.names()
        if method == "store_total_bytes":
            return state.view_store.total_serialized_bytes()
        if method == "store_contains":
            return args[0] in state.view_store
        if method == "store_view_bytes":
            result: dict[str, int] = {}
            for name in args[0]:
                shard = state.router.shard_of(shard_key_for_view(name))
                store = state.shard_stores.get(shard)
                if store is not None:
                    result.update(store.base.view_bytes([name]))
            return result
        if method == "store_drop":
            return state.view_store.drop(args[0], reason=args[1])
        if method == "store_log_lineage":
            for record in args[0]:
                name = record.get("view")
                if name is None:
                    continue
                shard = state.router.shard_of(shard_key_for_view(name))
                store = state.shard_stores.get(shard)
                if store is not None:
                    store.base.log_lineage([record])
            return None
        raise ServerError(f"unknown store method {method!r}")

    if method.startswith("udf_"):
        if method == "udf_version":
            return sum(manager.version
                       for manager in state.shard_managers.values())
        if method == "udf_reset":
            for manager in state.shard_managers.values():
                manager.reset()
            return None
        if method == "udf_histories":
            rows = []
            for manager in state.shard_managers.values():
                for entry in manager.histories():
                    rows.append((entry.signature.udf_name,
                                 entry.signature.sources,
                                 entry.per_tuple_cost,
                                 entry.aggregated_predicate,
                                 entry.view_name))
            return rows
        signature = UdfSignature(args[0], tuple(args[1]))
        manager = state.shard_managers.get(
            state.router.shard_of(signature.key()))
        if manager is None:
            raise ServerError(
                f"signature {signature.key()!r} is not owned by "
                f"worker {state.worker_id} (stale routing table?)")
        if method == "udf_known":
            return manager.known(signature)
        if method == "udf_history":
            entry = manager.history(signature, args[2])
            return (entry.per_tuple_cost, entry.aggregated_predicate,
                    entry.view_name)
        if method == "udf_intersection":
            return manager.intersection_with_history(signature, args[2])
        if method == "udf_difference":
            return manager.difference_with_history(signature, args[2])
        if method == "udf_record":
            return manager.record_execution(signature, args[2], args[3])
        raise ServerError(f"unknown udf method {method!r}")

    raise ServerError(f"unknown shard method {method!r}")
