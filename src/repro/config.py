"""Session configuration: reuse policy and optimizer modes.

The evaluation compares several system configurations; each is a value of
these enums so benchmarks can switch behavior without code changes:

* :class:`ReusePolicy` — EVA's semantic reuse, the HashStash and FunCache
  baselines, or no reuse at all (section 5.1).
* :class:`RankingMode` — canonical (Eq. 2) vs materialization-aware (Eq. 4)
  predicate reordering (Fig. 9).
* :class:`ModelSelectionMode` — Algorithm 2's greedy set cover vs the
  MIN-COST baseline that always picks the cheapest adequate model (Fig. 10).

The optimizer reads these selectors from the session's :class:`EvaConfig`
itself.  Rule I always orders UDF predicates by ascending rank, which
Theorem 4.1 proves optimal under the cost model's independence assumption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.costs import CostConstants


class ReusePolicy(enum.Enum):
    NONE = "none"
    EVA = "eva"
    HASHSTASH = "hashstash"
    FUNCACHE = "funcache"


class RankingMode(enum.Enum):
    CANONICAL = "canonical"
    MATERIALIZATION_AWARE = "materialization-aware"


class ModelSelectionMode(enum.Enum):
    SET_COVER = "set-cover"
    MIN_COST = "min-cost"


@dataclass
class EvaConfig:
    """Everything a session needs to know about how to run queries."""

    reuse_policy: ReusePolicy = ReusePolicy.EVA
    ranking: RankingMode | None = None
    model_selection: ModelSelectionMode = ModelSelectionMode.SET_COVER
    #: Virtual-cost calibration.
    costs: CostConstants = field(default_factory=CostConstants)
    #: Rows per execution batch.
    batch_rows: int = 512
    #: Maximum entries in the per-session cache of optimized plans per
    #: query text (LRU eviction; ``0`` disables it).  Entries are
    #: invalidated whenever the UdfManager's reuse state changes.
    #: Exploratory analysts re-run queries; a repeat skips
    #: parsing-to-plan work entirely.  An unbounded cache keyed by raw
    #: SQL is a slow leak under ad-hoc exploratory workloads where
    #: nearly every statement is distinct.
    plan_cache_size: int = 128
    #: Maximum entries in the process-wide plan→kernel cache (LRU).
    #: Keyed structurally (scan ranges stripped) so repeat queries share
    #: compiled plans; invalidated by a reuse-state reset.
    kernel_cache_size: int = 64
    #: Slow-query log threshold in *virtual* seconds: queries whose
    #: virtual time meets it land in the session's
    #: :class:`~repro.obs.slowlog.SlowQueryLog`.  ``None`` disables.
    slow_query_threshold: float | None = None
    #: Fuzzy bounding-box reuse (the paper's section 6 future work): on an
    #: exact view miss, a patch classifier may reuse the stored result of a
    #: spatially close box in the same frame.  Results become approximate.
    fuzzy_reuse: bool = False
    #: IoU a stored box must exceed to be fuzzily reused for the query
    #: box, in ``[0, 1)``.
    fuzzy_iou_threshold: float = 0.80
    #: Execution engine: ``"vectorized"`` runs each plan's streaming
    #: suffix (scan → filter → project → APPLY) as one pipeline of
    #: compiled column-at-a-time kernels, bulk view probes and batched
    #: model invocation, under every reuse policy; ``"row"`` hands plans
    #: to :mod:`repro.reference`, the row-at-a-time oracle, which runs
    #: ``ReusePolicy.NONE`` only and charges, records and stores nothing.
    execution_mode: str = "vectorized"
    #: Maximum entries in the FunCache baseline's function cache (LRU
    #: eviction, ``funcache_evictions`` counter).  ``0`` disables the cap;
    #: an unbounded cache is a slow leak across long exploratory sessions.
    funcache_max_entries: int = 65536
    #: Maximum memoized Algorithm 1 reduction results
    #: (``INTER``/``DIFF``/``REDUCE`` keyed by canonical DNF forms) kept by
    #: the symbolic engine.  ``0`` disables memoization entirely.
    symbolic_memo_size: int = 4096
    #: View-store durability (``repro.store``, see docs/storage.md).
    #: ``"memory"`` keeps today's in-process store with zero behavior
    #: change; ``"durable"`` persists views, drop tombstones and UDF
    #: aggregated predicates under ``store_path`` so a restarted
    #: session/server resumes at its pre-restart hit-rate.
    store_mode: str = "memory"
    #: Directory backing the durable store (required when durable).
    store_path: str | None = None
    #: WAL group-commit interval: fsync after this many appended records.
    store_fsync_every: int = 32
    #: Snapshot a partition after this many WAL records, folding its log
    #: into an npz snapshot and truncating the WAL.
    store_snapshot_interval: int = 4096
    #: Frames per partition bucket: a view's keys are segmented into
    #: independent (view, generation, frame-range) WAL+snapshot pairs.
    store_partition_frames: int = 2048
    #: Threads replaying partitions at recovery.
    store_recovery_parallelism: int = 4
    #: Latency SLO targets in *wall* seconds of total latency (admission
    #: wait + execution), consumed by the flight recorder's
    #: :class:`~repro.obs.slo.SloTracker`: half the queries should finish
    #: within ``slo_latency_p50`` and 99% within ``slo_latency_p99``.
    #: A query over the p99 target counts as an SLO violation and gets a
    #: dominant-stage attribution (queueing | contention | inference |
    #: store-io | compute).  ``None`` disables the respective objective;
    #: latency quantiles are tracked regardless.
    slo_latency_p50: float | None = None
    slo_latency_p99: float | None = None
    #: Multi-process worker pool (``repro.server.pool``): number of
    #: worker *processes* the :class:`~repro.server.pool.PoolServer`
    #: spawns, each running a full session stack over its slice of the
    #: sharded view store.  ``1`` still runs the pool machinery (useful
    #: for differential testing); plain single-process serving is
    #: :class:`~repro.server.EvaServer`.  ``workers > 1`` requires a
    #: durable store (``store_mode="durable"`` + ``store_path``): each
    #: shard persists under its own partition directory, which is the
    #: shared medium that makes worker crash/respawn lossless.
    workers: int = 1
    #: Number of view-store shards consistent-hashed over the workers.
    #: Views and UDF histories for a given (model, video) signature
    #: land on the shard of that signature's key, so the owning worker
    #: serves probes, appends and predicate unions for it; model calls
    #: run in whichever worker executes the query.  Must be >=
    #: ``workers`` (each worker owns >= 1 shard).
    shards: int = 8
    #: Per-worker admission queue depth (queue-based load leveling):
    #: each worker process admits at most ``worker threads +
    #: worker_queue_depth`` queries; beyond that the worker pushes back
    #: with :class:`~repro.errors.ServerOverloadedError` and the
    #: front-end's circuit breaker starts counting.
    worker_queue_depth: int = 16
    #: Circuit breaker: consecutive overload rejections (per client
    #: class) before the breaker opens and the front-end fails fast
    #: without touching the workers.  ``0`` disables the breaker.
    breaker_threshold: int = 8
    #: How long (seconds) an open breaker stays open before letting a
    #: half-open probe through.
    breaker_cooldown_s: float = 1.0
    #: Maintain the per-view lineage / reuse-provenance ledger
    #: (:mod:`repro.obs.lineage`): creation provenance, Eq. 3 net-benefit
    #: accounting, derivation edges, and the ``repro lineage`` surfaces.
    #: Pure observation — results, view contents, and virtual clocks are
    #: bit-identical with the ledger on or off (the differential guard in
    #: ``tests/test_lineage.py`` enforces this); disable to shave the
    #: per-probe accounting off hot paths.
    view_ledger: bool = True

    def __post_init__(self):
        if self.execution_mode not in ("vectorized", "row"):
            raise ValueError(
                f"execution_mode must be 'vectorized' or 'row', "
                f"got {self.execution_mode!r}")
        if self.execution_mode == "row" and (
                self.reuse_policy is not ReusePolicy.NONE
                or self.fuzzy_reuse):
            raise ValueError(
                "execution_mode='row' is the reference for ReusePolicy.NONE; "
                "EVA, FunCache, HashStash and fuzzy_reuse run on the "
                "pipeline only")
        if self.kernel_cache_size < 1:
            raise ValueError(
                f"kernel_cache_size must be >= 1, "
                f"got {self.kernel_cache_size!r}")
        if self.plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, "
                f"got {self.plan_cache_size!r}")
        if not 0.0 <= self.fuzzy_iou_threshold < 1.0:
            # At >= 1 no box's IoU exceeds it; below 0 a disjoint box
            # (IoU 0) would answer for another vehicle.
            raise ValueError(
                f"fuzzy_iou_threshold must be in [0, 1), "
                f"got {self.fuzzy_iou_threshold!r}")
        if self.batch_rows < 1:
            raise ValueError(
                f"batch_rows must be >= 1, got {self.batch_rows!r}")
        if self.funcache_max_entries < 0:
            raise ValueError(
                f"funcache_max_entries must be >= 0, "
                f"got {self.funcache_max_entries!r}")
        if self.symbolic_memo_size < 0:
            raise ValueError(
                f"symbolic_memo_size must be >= 0, "
                f"got {self.symbolic_memo_size!r}")
        if self.store_mode not in ("memory", "durable"):
            raise ValueError(
                f"store_mode must be 'memory' or 'durable', "
                f"got {self.store_mode!r}")
        if self.store_mode == "durable" and not self.store_path:
            raise ValueError(
                "store_mode='durable' requires store_path")
        for name in ("store_fsync_every", "store_snapshot_interval",
                     "store_partition_frames",
                     "store_recovery_parallelism"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("slo_latency_p50", "slo_latency_p99"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(
                    f"{name} must be positive when set, got {value!r}")
        if self.slo_latency_p50 is not None \
                and self.slo_latency_p99 is not None \
                and self.slo_latency_p50 > self.slo_latency_p99:
            raise ValueError(
                f"slo_latency_p50 ({self.slo_latency_p50!r}) must not "
                f"exceed slo_latency_p99 ({self.slo_latency_p99!r})")
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers!r}")
        if self.shards < 1:
            raise ValueError(
                f"shards must be >= 1, got {self.shards!r}")
        if self.shards < self.workers:
            raise ValueError(
                f"shards ({self.shards!r}) must be >= workers "
                f"({self.workers!r}): every worker process owns at "
                f"least one view-store shard")
        if self.worker_queue_depth < 0:
            raise ValueError(
                f"worker_queue_depth must be >= 0, "
                f"got {self.worker_queue_depth!r}")
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0 (0 disables the "
                f"breaker), got {self.breaker_threshold!r}")
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be positive, "
                f"got {self.breaker_cooldown_s!r}")
        if self.workers > 1 and self.store_mode != "durable":
            raise ValueError(
                f"workers={self.workers!r} requires "
                f"store_mode='durable' with a store_path: worker "
                f"processes share state through per-shard durable "
                f"partition directories, and store_mode="
                f"{self.store_mode!r} gives them no shared path "
                f"(crash recovery and cross-process view reuse would "
                f"silently lose views)")
        if self.ranking is None:
            # Materialization-aware ranking is EVA's contribution; the
            # baselines use the canonical ranking function.
            self.ranking = (RankingMode.MATERIALIZATION_AWARE
                            if self.reuse_policy is ReusePolicy.EVA
                            else RankingMode.CANONICAL)

    @property
    def uses_views(self) -> bool:
        """Do plans consult materialized views (EVA and HashStash)?"""
        return self.reuse_policy in (ReusePolicy.EVA, ReusePolicy.HASHSTASH)
