"""Multi-process worker-pool serving over the sharded view store.

The single-process :class:`~repro.server.server.EvaServer` multiplexes
clients over threads; with simulated (or real) model-serving latency
the GIL is released during every dispatch, but admission, planning and
row assembly still serialize on one interpreter.  The
:class:`PoolServer` runs N *spawned* worker processes, each embedding a
full ``EvaServer`` stack over a
:class:`~repro.server.shard.ShardedWorkerState` — one durable
view-store partition per owned shard — and fronts them with:

* **queue-based load leveling** — clients are assigned to workers
  round-robin; each worker bounds its own in-flight work
  (``worker_threads`` running + ``worker_queue_depth`` queued) and
  rejects beyond that with
  :class:`~repro.errors.ServerOverloadedError`, exactly like the
  single-process server;
* **per-client-class bulkheads** — each class (e.g. ``interactive`` /
  ``batch``) gets its own in-flight permit pool at the front door, so
  one greedy class saturates its own bulkhead and never starves the
  others;
* **a circuit breaker per class** — ``breaker_threshold`` consecutive
  overload rejections open the circuit for ``breaker_cooldown_s``
  (fail-fast :class:`~repro.errors.CircuitOpenError`, no worker
  round-trip), then a single half-open probe decides re-close vs
  re-open;
* **crash supervision** — a monitor thread watches process sentinels;
  a dead worker is respawned, its shard partitions recover from their
  WALs, the peer table is rebroadcast, and in-flight queries to it
  fail with :class:`~repro.errors.WorkerCrashedError` (never silently
  retried);
* **fleet-wide observability** — per-worker ``ServerStats`` /
  model-call / SLO / flight / ledger snapshots merge through
  the associative ``merge`` helpers into one view, so ``repro top``,
  the Prometheus exposition and the provenance ledger describe the
  whole fleet.

Semantics are preserved exactly (the differential suite pins this):
rows, view contents, hit attribution, and per-client virtual clocks
are identical at any worker count, because sharding only *moves*
operations to their single owner — it never changes what they do.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import Client as _ConnClient
from multiprocessing.connection import Listener as _ConnListener
from multiprocessing.connection import wait as _conn_wait

from repro.config import EvaConfig
from repro.errors import (
    CatalogError,
    CircuitOpenError,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.server.client import ClientHandle
from repro.server.server import EvaServer
from repro.server.shard import (
    PeerTable,
    ShardRouter,
    ShardedWorkerState,
    close_quietly,
    dispatch,
    merge_store_snapshots,
    round_trip,
    serve,
)
from repro.server.stats import BatcherSnapshot, ServerStats, \
    ServerStatsSnapshot, merged_clock, merged_metrics
from repro.types import QueryResult
from repro.video.synthetic import SyntheticVideo

#: Sentinel: "use the pool's default timeout" (mirrors server.py).
_DEFAULT = object()

#: Default client class when the caller does not segment its clients.
DEFAULT_CLASS = "default"


# -- worker process ------------------------------------------------------------


@dataclass
class WorkerSpec:
    """Everything one spawned worker needs (must stay picklable)."""

    worker_id: int
    config: EvaConfig
    address: str
    authkey: bytes
    #: Zero-arg callable building the worker's model zoo (``None`` =
    #: :func:`~repro.models.zoo.default_zoo`).  A *factory*, not a zoo:
    #: model instances carry locks/state that must be per-process, and
    #: benchmark knobs (service latency) applied in the parent's zoo
    #: would be invisible to spawned children otherwise.
    zoo_factory: object = None
    worker_threads: int = 4
    default_timeout: float | None = None


#: What the parent may call, over its control connection, on a worker's
#: embedded :class:`WorkerServer` (target ``("server",)``).
SERVER_METHODS = frozenset({
    "set_peers", "register_video", "shutdown", "dump_views", "stats",
    "aggregate_metrics", "clock_breakdown", "queue_depth", "clients",
    "batcher_snapshot", "slo_snapshot", "flight_stats", "store_snapshot",
    "ledger_snapshot", "trace_events",
})

#: What a client may call, over its connection, on its worker-side
#: :class:`~repro.server.client.ClientHandle` (target ``("client",)``).
CLIENT_METHODS = frozenset({
    "execute", "clock_breakdown", "hit_percentage", "last_query_metrics",
    "workload_time", "close",
})

SERVER = ("server",)
CLIENT = ("client",)


class WorkerServer(EvaServer):
    """The :class:`EvaServer` embedded in one worker process, over its
    :class:`~repro.server.shard.ShardedWorkerState`: the target of the
    parent's control connection, adding what only a worker does."""

    def set_peers(self, addresses: dict) -> None:
        """Swap in the current ``worker id -> address`` map."""
        self.state.peers.update(addresses)

    def dump_views(self) -> dict:
        """``{name: (key_columns, output_columns, sorted items)}`` for
        every view in this worker's owned shards (content equality)."""
        dump = {}
        for store in self.state.shard_stores.values():
            for name in store.names():
                view = store.base.get(name)
                if view is not None:
                    dump[name] = (list(view.key_columns),
                                  list(view.output_columns),
                                  sorted(view.items()))
        return dump

    def handle_for(self, client_id: str) -> ClientHandle:
        """The handle a client connection serves.  A reconnect after a
        transient socket failure (or a parent-side retry) finds the
        session alive: re-issue a handle instead of refusing the known
        client id."""
        try:
            return self.connect(client_id)
        except ServerError:
            client = self._clients.get(client_id)
            if client is None:
                raise
            client.closed = False
            return ClientHandle(self, client)


def worker_main(spec: WorkerSpec) -> None:
    """Entry point of one spawned worker process.

    Builds the sharded state (recovering owned shard partitions from
    their WALs), embeds a :class:`WorkerServer` over it, then serves
    connections: the first message on every connection is a hello tuple
    naming its role — ``("client", id)``, ``("peer",)`` or
    ``("control",)`` — and each connection gets its own service thread
    running :func:`~repro.server.shard.serve` against the one object
    that role may call (the client's handle, this worker's shards, the
    embedded server).
    """
    # Workers run with the plan cache off: cache validity keys on the
    # *fleet-wide* UDF-manager version, which would cost one RPC per
    # worker per lookup — more than replanning these millisecond plans
    # (so the sharded manager keeps no version at all).  Plans are
    # deterministic, so this cannot change results, only real seconds.
    config = dataclasses.replace(spec.config, plan_cache_size=0)
    zoo = spec.zoo_factory() if spec.zoo_factory is not None else None
    state = ShardedWorkerState(config, zoo, worker_id=spec.worker_id,
                               peers=PeerTable(spec.worker_id, spec.authkey))
    internal = WorkerServer(
        config, state=state, max_workers=spec.worker_threads,
        max_queue=config.worker_queue_depth,
        default_timeout=spec.default_timeout)
    internal.start()
    stop = threading.Event()

    def serve_peer(conn) -> None:
        serve(conn, state.serve_peer)

    def serve_control(conn) -> None:
        targets = {"server": (SERVER_METHODS, lambda: internal)}
        if serve(conn, partial(dispatch, targets), final={"shutdown"}):
            stop.set()

    def serve_client(conn, client_id: str) -> None:
        try:
            handle = internal.handle_for(client_id)
        except ServerError:
            close_quietly(conn)
            raise
        targets = {"client": (CLIENT_METHODS, lambda: handle)}
        serve(conn, partial(dispatch, targets), final={"close"})

    roles = {"peer": serve_peer, "control": serve_control,
             "client": serve_client}
    try:
        os.unlink(spec.address)
    except OSError:
        pass
    listener = _ConnListener(spec.address, family="AF_UNIX",
                             authkey=spec.authkey)

    def accept_loop() -> None:
        while not stop.is_set():
            try:
                conn = listener.accept()
            except (OSError, EOFError, AttributeError):
                if stop.is_set():
                    return
                continue
            try:
                role, *hello = conn.recv()
                serve_role = roles[role]
            except (EOFError, OSError, KeyError, ValueError):
                conn.close()
                continue
            threading.Thread(target=serve_role, args=(conn, *hello),
                             daemon=True).start()

    acceptor = threading.Thread(target=accept_loop, daemon=True,
                                name="eva-worker-accept")
    acceptor.start()
    # Park until the control connection's shutdown request, then break
    # the (blocking) accept by closing the listener and poking it.
    stop.wait()
    close_quietly(listener)
    try:
        poke = _ConnClient(spec.address, authkey=spec.authkey)
        poke.close()
    except (OSError, EOFError, FileNotFoundError,
            multiprocessing.AuthenticationError):
        pass
    acceptor.join(timeout=1)


# -- admission front-end -------------------------------------------------------


class _Breaker:
    """Per-client-class circuit breaker (closed / open / half-open).

    ``threshold`` consecutive overload rejections — bulkhead *or*
    worker admission — open the circuit for ``cooldown`` seconds; while
    open, admission fails fast with :class:`CircuitOpenError` carrying
    the remaining cooldown as ``retry_after``.  After the cooldown one
    probe query passes (half-open): success closes the circuit,
    another overload re-opens it.  ``threshold == 0`` disables the
    breaker entirely.
    """

    def __init__(self, name: str, threshold: int, cooldown: float):
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_until = 0.0
        self._probing = False
        #: Telemetry: how many times this breaker transitioned to open.
        self.trips = 0

    def check(self) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            if not self._opened_until:
                return
            now = time.monotonic()
            remaining = self._opened_until - now
            if remaining > 0:
                raise CircuitOpenError(
                    f"circuit open for class {self.name!r}; "
                    f"retry in {remaining:.2f}s",
                    retry_after=max(0.01, remaining))
            if self._probing:
                # Half-open and the probe slot is taken: shed until the
                # probe's verdict is in.
                raise CircuitOpenError(
                    f"circuit half-open for class {self.name!r} "
                    f"(probe in flight)", retry_after=self.cooldown / 2)
            self._probing = True

    def record_overload(self) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            if self._opened_until:
                # Half-open probe failed: re-open a full cooldown.
                self._opened_until = time.monotonic() + self.cooldown
                self._probing = False
                self.trips += 1
                return
            self._failures += 1
            if self._failures >= self.threshold:
                self._opened_until = time.monotonic() + self.cooldown
                self._probing = False
                self.trips += 1

    def record_success(self) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            self._failures = 0
            self._opened_until = 0.0
            self._probing = False

    @property
    def is_open(self) -> bool:
        with self._lock:
            return bool(self._opened_until) and \
                self._opened_until > time.monotonic()


@dataclass
class _Worker:
    """Parent-side record of one worker process."""

    worker_id: int
    generation: int
    process: object
    address: str
    control: object
    control_lock: threading.Lock = field(default_factory=threading.Lock)


class PoolServer:
    """Admission front-end over N spawned worker processes.

    Mirrors the :class:`~repro.server.server.EvaServer` surface —
    ``connect`` / ``register_video`` / telemetry — so drivers, the CLI
    (``repro top``) and the benchmarks treat a pool and a
    single-process server interchangeably.

    Args:
        config: must have ``store_mode="durable"`` with a ``store_path``
            (each shard gets a partition directory under it); sizing
            comes from ``config.workers`` / ``config.shards`` /
            ``config.worker_queue_depth`` / ``config.breaker_*``.
        zoo_factory: picklable zero-arg callable building each worker's
            model zoo.  ``None`` uses the default zoo.
        worker_threads: thread count of each worker's embedded server.
        bulkhead_capacity: in-flight permits per client class at the
            front door; defaults to the whole pool's nominal capacity,
            ``workers * (worker_threads + worker_queue_depth)``, so a
            single class can use the full pool when alone but is
            capped at what the pool can actually absorb.
    """

    def __init__(self, config: EvaConfig,
                 zoo_factory: object = None, *,
                 worker_threads: int = 4,
                 default_timeout: float | None = None,
                 bulkhead_capacity: int | None = None):
        if config.store_mode != "durable" or not config.store_path:
            raise ServerError(
                "PoolServer requires store_mode='durable' with a "
                "store_path: each view-store shard keeps a durable "
                "partition directory (WAL + snapshots) under it")
        if worker_threads < 1:
            raise ServerError("worker_threads must be >= 1")
        self.config = config
        self.zoo_factory = zoo_factory
        self.worker_threads = worker_threads
        self.default_timeout = default_timeout
        self.num_workers = config.workers
        self.router = ShardRouter(config.shards, config.workers)
        capacity = config.workers * (worker_threads
                                     + config.worker_queue_depth)
        self.bulkhead_capacity = (bulkhead_capacity
                                  if bulkhead_capacity is not None
                                  else capacity)
        if self.bulkhead_capacity < 1:
            raise ServerError("bulkhead_capacity must be >= 1")
        #: Parent-side stats hub: front-door rejections (bulkhead,
        #: breaker) land here and merge into the fleet snapshot.
        self.stats_hub = ServerStats()
        self._authkey = os.urandom(16)
        self._socket_dir = tempfile.mkdtemp(prefix="eva-pool-")
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        #: Notified once a respawned worker is installed and set up.
        self._respawned = threading.Condition(self._lock)
        self._workers: dict[int, _Worker] = {}
        self._clients: dict[int, int] = {}
        self._handles: dict[str, "PoolClientHandle"] = {}
        self._client_classes: dict[str, str] = {}
        self._videos: list[SyntheticVideo] = []
        self._bulkheads: dict[str, threading.Semaphore] = {}
        self._breakers: dict[str, _Breaker] = {}
        self._next_client = 1
        self._next_worker_rr = 0
        self._closed = False
        self._started = False
        self._monitor: threading.Thread | None = None
        #: Dispatch pool for the blocking client RPC round-trips; sized
        #: to the front door so admission, not thread exhaustion, is
        #: the limiter.
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, 2 * self.bulkhead_capacity),
            thread_name_prefix="eva-pool-dispatch")
        #: worker_id -> respawn count (crash supervision telemetry).
        self.respawns: dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "PoolServer":
        """Spawn the workers, connect control, broadcast the peer map."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("pool already shut down")
            if self._started:
                return self
            self._started = True
        for worker_id in range(self.num_workers):
            self._workers[worker_id] = self._spawn(worker_id,
                                                   generation=0)
        peers = self._peer_map()
        for worker in self._workers.values():
            self._setup(worker, peers, list(self._videos))
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         daemon=True,
                                         name="eva-pool-monitor")
        self._monitor.start()
        return self

    def __enter__(self) -> "PoolServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def _address_for(self, worker_id: int, generation: int) -> str:
        # AF_UNIX sun_path caps at ~107 chars; the tempdir under /tmp
        # plus this short basename stays well inside it.
        return os.path.join(self._socket_dir,
                            f"w{worker_id}g{generation}.sock")

    def _spawn(self, worker_id: int, generation: int) -> _Worker:
        address = self._address_for(worker_id, generation)
        spec = WorkerSpec(
            worker_id=worker_id,
            config=self.config,
            address=address,
            authkey=self._authkey,
            zoo_factory=self.zoo_factory,
            worker_threads=self.worker_threads,
            default_timeout=self.default_timeout,
        )
        process = self._ctx.Process(target=worker_main, args=(spec,),
                                    daemon=True,
                                    name=f"eva-pool-worker-{worker_id}")
        process.start()
        control = self._connect_with_retry(address, process,
                                           role=("control",))
        return _Worker(worker_id=worker_id, generation=generation,
                       process=process, address=address, control=control)

    def _connect_with_retry(self, address: str, process, *, role: tuple,
                            timeout: float = 30.0):
        """Connect to a worker's listener, waiting out its startup
        (state build + WAL recovery happen before the listener opens)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                conn = _ConnClient(address, authkey=self._authkey)
                conn.send(role)
                return conn
            except (FileNotFoundError, ConnectionRefusedError, OSError):
                if not process.is_alive():
                    raise ServerError(
                        f"worker process died during startup "
                        f"(exit code {process.exitcode})")
                if time.monotonic() > deadline:
                    raise ServerError(
                        f"worker at {address} did not come up within "
                        f"{timeout}s")
                time.sleep(0.02)

    def _peer_map(self) -> dict[int, str]:
        return {w.worker_id: w.address for w in self._workers.values()}

    def _control(self, worker: _Worker, method: str, *args):
        """One control round-trip to ``worker`` (serialized per worker)."""

        def lost(error):
            return WorkerCrashedError(
                f"worker {worker.worker_id} control channel died: "
                f"{error}")

        with worker.control_lock:
            return round_trip(lambda: worker.control,
                              (SERVER, method, args), lost)

    def _setup(self, worker: _Worker, peers: dict, videos: list) -> None:
        """Hand a (re)spawned worker the peer map and every video."""
        self._control(worker, "set_peers", peers)
        for video in videos:
            self._control(worker, "register_video", video)

    def _each_worker(self, method: str, *args) -> list:
        """The control call fanned out to every live worker."""
        with self._lock:
            workers = list(self._workers.values())
        return [self._control(worker, method, *args)
                for worker in workers]

    # -- crash supervision -----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._closed:
            # A worker that died *between* sentinel snapshots is already
            # reaped (is_alive's internal poll), so its sentinel never
            # turns ready — sweep for corpses before waiting.
            with self._lock:
                dead = [w.worker_id for w in self._workers.values()
                        if not w.process.is_alive()]
            for worker_id in dead:
                if self._closed:
                    return
                self._respawn_guarded(worker_id)
            with self._lock:
                sentinels = {w.process.sentinel: w.worker_id
                             for w in self._workers.values()
                             if w.process.is_alive()}
            if not sentinels:
                time.sleep(0.05)
                continue
            ready = _conn_wait(list(sentinels), timeout=0.2)
            for sentinel in ready:
                if self._closed:
                    return
                self._respawn_guarded(sentinels[sentinel])

    def _respawn_guarded(self, worker_id: int) -> None:
        """One respawn attempt that cannot kill the monitor thread; a
        failed attempt leaves the worker dead, so the next sweep
        retries it."""
        try:
            self._respawn(worker_id)
        except Exception:
            if not self._closed:
                time.sleep(0.2)

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead worker: fresh process, WAL recovery of its
        shards, peer-map rebroadcast, video re-registration."""
        with self._lock:
            if self._closed:
                return
            old = self._workers.get(worker_id)
            if old is None or old.process.is_alive():
                return
            generation = old.generation + 1
        close_quietly(old.control)
        old.process.join(timeout=5)
        replacement = self._spawn(worker_id, generation)
        with self._lock:
            self._workers[worker_id] = replacement
            peers = self._peer_map()
            others = [w for w in self._workers.values()
                      if w.worker_id != worker_id]
            videos = list(self._videos)
        # The replacement recovers its shard partitions from their WALs
        # inside _spawn (state build precedes the listener); _setup hands
        # it the current peer map and the video registry.
        self._setup(replacement, peers, videos)
        for worker in others:
            try:
                self._control(worker, "set_peers", peers)
            except WorkerCrashedError:
                continue  # the monitor will pick that one up too
        with self._respawned:
            self.respawns[worker_id] = self.respawns.get(worker_id, 0) + 1
            self._respawned.notify_all()

    def kill_worker(self, worker_id: int, *, wait: bool = True,
                    timeout: float = 60.0) -> None:
        """SIGKILL one worker (crash-recovery testing); with ``wait``,
        block until its replacement is set up and the peers know it."""
        with self._lock:
            worker = self._workers[worker_id]
            respawned = self.respawns.get(worker_id, 0)
        worker.process.kill()
        if not wait:
            return
        with self._respawned:
            if self._respawned.wait_for(
                    lambda: self.respawns.get(worker_id, 0) > respawned,
                    timeout):
                return
        raise ServerError(
            f"worker {worker_id} was not respawned within {timeout}s")

    # -- setup -----------------------------------------------------------------

    def register_video(self, video: SyntheticVideo) -> None:
        """Register a video on every worker (and for respawn replay)."""
        with self._lock:
            if any(v.name.lower() == video.name.lower()
                   for v in self._videos):
                raise CatalogError(
                    f"table {video.name!r} already in catalog")
            self._videos.append(video)
        self._each_worker("register_video", video)

    # -- clients ---------------------------------------------------------------

    def connect(self, client_id: str | None = None, *,
                client_class: str = DEFAULT_CLASS
                ) -> "PoolClientHandle":
        """Connect one client; assigned to a worker round-robin."""
        with self._lock:
            if self._closed or not self._started:
                raise ServerClosedError(
                    "pool is not accepting clients (closed or not "
                    "started)")
            if client_id is None:
                client_id = f"client-{self._next_client}"
                self._next_client += 1
            if client_id in self._handles:
                raise ServerError(
                    f"client id {client_id!r} already connected")
            worker_id = self._next_worker_rr % self.num_workers
            self._next_worker_rr += 1
            self._client_classes[client_id] = client_class
        handle = PoolClientHandle(self, client_id, worker_id)
        with self._lock:
            self._handles[client_id] = handle
        return handle

    def disconnect(self, client_id: str) -> None:
        with self._lock:
            self._handles.pop(client_id, None)

    def _worker_address(self, worker_id: int) -> tuple[str, int]:
        with self._lock:
            worker = self._workers[worker_id]
            return worker.address, worker.generation

    # -- admission: bulkheads + breaker ---------------------------------------

    def _bulkhead(self, client_class: str) -> threading.Semaphore:
        with self._lock:
            sem = self._bulkheads.get(client_class)
            if sem is None:
                sem = threading.Semaphore(self.bulkhead_capacity)
                self._bulkheads[client_class] = sem
            return sem

    def breaker(self, client_class: str = DEFAULT_CLASS) -> _Breaker:
        with self._lock:
            breaker = self._breakers.get(client_class)
            if breaker is None:
                breaker = _Breaker(client_class,
                                   self.config.breaker_threshold,
                                   self.config.breaker_cooldown_s)
                self._breakers[client_class] = breaker
            return breaker

    def _admit(self, client_id: str, client_class: str):
        """Front-door admission; returns the release callback.

        Order matters: the breaker check precedes the bulkhead so an
        open circuit sheds load without even touching the permit pool,
        and a bulkhead rejection feeds the breaker's failure streak.
        """
        breaker = self.breaker(client_class)
        breaker.check()
        bulkhead = self._bulkhead(client_class)
        if not bulkhead.acquire(blocking=False):
            self.stats_hub.record_rejected(client_id)
            breaker.record_overload()
            raise ServerOverloadedError(
                f"bulkhead for class {client_class!r} full "
                f"({self.bulkhead_capacity} in flight)",
                retry_after=max(0.05, 2 * self.worker_threads * 0.01))
        return bulkhead.release

    def _query_outcome(self, client_class: str, error) -> None:
        """Feed the breaker from a finished worker round-trip.

        Any outcome that is not an overload counts as success: even a
        failed query proves the worker *accepted* it, which is what the
        breaker guards.  (A front-door :class:`CircuitOpenError` never
        reaches this path — it raises before dispatch.)
        """
        breaker = self.breaker(client_class)
        if isinstance(error, ServerOverloadedError):
            breaker.record_overload()
        else:
            breaker.record_success()

    # -- fleet telemetry -------------------------------------------------------

    def clients(self) -> list[str]:
        with self._lock:
            return sorted(self._handles)

    def queue_depth(self) -> int:
        return sum(self._each_worker("queue_depth"))

    def stats(self) -> ServerStatsSnapshot:
        """One fleet-wide stats snapshot (associative per-worker merge).

        The merged ``hit_percentage`` is recomputed *exactly* from the
        merged metrics (the snapshot-level merge can only estimate it
        from per-worker rates).
        """
        snapshots = self._each_worker("stats")
        snapshots.append(self.stats_hub.snapshot(
            workers=0, hit_percentage=0.0, num_views=0,
            view_storage_bytes=0))
        merged = ServerStatsSnapshot.merge(snapshots)
        return dataclasses.replace(
            merged, hit_percentage=self.hit_percentage())

    def aggregate_metrics(self):
        """One MetricsCollector over every client on every worker."""
        return merged_metrics(self._each_worker("aggregate_metrics"))

    def hit_percentage(self) -> float:
        return self.aggregate_metrics().hit_percentage()

    def aggregate_clock(self):
        """One clock totalling virtual time across the whole fleet."""
        return merged_clock(self._each_worker("clock_breakdown"))

    def batcher_snapshot(self) -> BatcherSnapshot:
        return BatcherSnapshot.merge(self._each_worker("batcher_snapshot"))

    def slo_snapshot(self):
        from repro.obs.slo import SloSnapshot

        return SloSnapshot.merge(self._each_worker("slo_snapshot"))

    def flight_stats(self) -> dict:
        from repro.obs.flight import FlightStats

        return FlightStats.merge_snapshots(self._each_worker("flight_stats"))

    def store_snapshot(self):
        return merge_store_snapshots(self._each_worker("store_snapshot"),
                                     path=str(self.config.store_path))

    def ledger_snapshot(self) -> list[dict]:
        return merge_ledger_snapshots(self._each_worker("ledger_snapshot"))

    def trace_events(self, type: str | None = None) -> list[dict]:
        return [event for chunk in self._each_worker("trace_events", type)
                for event in chunk]

    def dump_views(self) -> dict:
        """Fleet-wide ``{view: (key_cols, out_cols, sorted items)}``
        (shards are disjoint, so per-worker dumps union cleanly)."""
        return {name: view for chunk in self._each_worker("dump_views")
                for name, view in chunk.items()}

    def prometheus_text(self) -> str:
        """The Prometheus exposition for the whole fleet, assembled
        from the per-worker parts through the associative merges."""
        from repro.obs.prometheus import prometheus_text

        return prometheus_text(
            metrics=self.aggregate_metrics(),
            clock=self.aggregate_clock(),
            server=self.stats(),
            batcher=self.batcher_snapshot(),
            store=self.store_snapshot(),
            flight=self.flight_stats(),
            slo=self.slo_snapshot(),
            views=self.ledger_snapshot(),
        )

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
        for worker in workers:
            try:
                self._control(worker, "shutdown", drain)
            except WorkerCrashedError:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        join_timeout = 10.0 if timeout is None else timeout
        for worker in workers:
            worker.process.join(timeout=join_timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            close_quietly(worker.control)
        if self._monitor is not None:
            self._monitor.join(timeout=2)
        shutil.rmtree(self._socket_dir, ignore_errors=True)


# -- client handle -------------------------------------------------------------


class PoolClientHandle:
    """One client's connection to a :class:`PoolServer` worker.

    Mirrors :class:`~repro.server.client.ClientHandle` (submit /
    execute / introspection / close); ``checkout`` is necessarily
    absent — the session lives in the worker process — so the
    introspection a driver actually needs (clock breakdown, hit rate,
    last metrics, workload time) forwards to the same-named methods of
    the worker-side handle instead.  On a worker crash the next call
    reconnects to the respawned replacement.
    """

    def __init__(self, server: PoolServer, client_id: str,
                 worker_id: int):
        self._server = server
        self.client_id = client_id
        self.worker_id = worker_id
        self._lock = threading.Lock()
        self._conn = None
        self._generation = -1
        self.closed = False

    # -- connection management -------------------------------------------------

    def _ensure_conn(self):
        address, generation = self._server._worker_address(self.worker_id)
        if self._conn is None or generation != self._generation:
            self._drop_conn()
            conn = _ConnClient(address, authkey=self._server._authkey)
            conn.send(("client", self.client_id))
            self._conn = conn
            self._generation = generation
        return self._conn

    def _drop_conn(self) -> None:
        close_quietly(self._conn)
        self._conn = None

    def _rpc(self, method: str, *args):
        def lost(error):
            self._drop_conn()
            return WorkerCrashedError(
                f"worker {self.worker_id} died serving "
                f"{self.client_id!r} ({method}); it will be respawned "
                f"and its shards recovered")

        with self._lock:
            return round_trip(self._ensure_conn, (CLIENT, method, args),
                              lost)

    # -- query paths -----------------------------------------------------------

    def submit(self, sql: str,
               timeout: float | None = _DEFAULT
               ) -> "Future[QueryResult]":
        """Admit ``sql``; returns a Future resolving to its result.

        Front-door admission (breaker, bulkhead) happens synchronously
        — overload errors raise *here*, matching ``EvaServer.submit``;
        worker-side errors (including the worker's own admission
        control) surface through the future.
        """
        if self.closed:
            raise ServerError(f"client {self.client_id!r} is closed")
        client_class = self._server._client_classes.get(
            self.client_id, DEFAULT_CLASS)
        release = self._server._admit(self.client_id, client_class)
        args = (sql,) if timeout is _DEFAULT else (sql, timeout)

        def run() -> QueryResult:
            error: BaseException | None = None
            try:
                return self._rpc("execute", *args)
            except BaseException as exc:  # noqa: BLE001 - classified below
                error = exc
                raise
            finally:
                release()
                self._server._query_outcome(client_class, error)

        try:
            return self._server._executor.submit(run)
        except BaseException:
            release()
            raise

    def execute(self, sql: str,
                timeout: float | None = _DEFAULT) -> QueryResult:
        return self.submit(sql, timeout=timeout).result()

    # -- introspection ---------------------------------------------------------

    def clock_breakdown(self) -> dict:
        """This client's virtual-clock breakdown (category -> seconds)."""
        return self._rpc("clock_breakdown")

    def hit_percentage(self) -> float:
        return self._rpc("hit_percentage")

    def last_query_metrics(self):
        return self._rpc("last_query_metrics")

    def workload_time(self) -> float:
        return self._rpc("workload_time")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._rpc("close")
        except (WorkerCrashedError, ServerError):
            pass
        with self._lock:
            self._drop_conn()
        self._server.disconnect(self.client_id)

    def __enter__(self) -> "PoolClientHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PoolClientHandle({self.client_id!r}, "
                f"worker={self.worker_id})")


# -- ledger merges -------------------------------------------------------------

def merge_ledger_snapshots(snapshot_lists) -> list[dict]:
    """Fold per-worker ``ViewLedger.snapshot()`` gauge rows by id."""
    merged: dict[str, dict] = {}
    for rows in snapshot_lists:
        for row in rows or []:
            into = merged.get(row["id"])
            if into is None:
                merged[row["id"]] = dict(row)
                continue
            for fieldname in ("hits", "rows_served", "net_benefit",
                              "bytes"):
                into[fieldname] = (into[fieldname] + row[fieldname]
                                   if fieldname != "bytes"
                                   else max(into[fieldname],
                                            row[fieldname]))
            into["age_s"] = max(into["age_s"], row["age_s"])
            into["idle_s"] = min(into["idle_s"], row["idle_s"])
            if row["status"] != "live":
                into["status"] = row["status"]
    return [merged[k] for k in sorted(merged)]
