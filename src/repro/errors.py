"""Exception hierarchy for the EVA reproduction.

Every error raised by the library derives from :class:`EvaError`, so client
code can catch a single base class.  Subsystems raise the most specific
subclass that applies.
"""

from __future__ import annotations


class EvaError(Exception):
    """Base class for all errors raised by this library."""


class ParserError(EvaError):
    """The EVAQL parser could not understand the input query.

    Attributes:
        position: character offset in the query text where parsing failed,
            or ``None`` when the failure is not tied to a location.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BindingError(EvaError):
    """A name in the query (table, column, or UDF) could not be resolved."""


class CatalogError(EvaError):
    """Catalog inconsistency: duplicate or missing catalog entries."""


class StorageError(EvaError):
    """The storage engine could not read or write data."""


class StoreCorruptionError(StorageError):
    """The durable view store's on-disk state failed an integrity check
    that recovery cannot repair (bad file header, unreadable manifest)."""


class OptimizerError(EvaError):
    """The optimizer could not produce a physical plan."""


class ExecutorError(EvaError):
    """A physical operator failed while executing a plan."""


class UnsupportedPredicateError(EvaError):
    """The symbolic engine does not support this predicate form.

    Mirrors the paper's stated limitation (section 6): join predicates and
    other non-axis-aligned expressions are not symbolically analyzable.
    """


class ServerError(EvaError):
    """Base class for errors raised by the multi-client query server."""


class ServerClosedError(ServerError):
    """The server is shut down (or shutting down) and rejects new work."""


class ServerOverloadedError(ServerError):
    """Admission control rejected a query because the queue is full.

    Attributes:
        retry_after: suggested client back-off in seconds, estimated from
            the current queue depth and recent query latency.
    """

    def __init__(self, message: str, retry_after: float = 0.1):
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ServerOverloadedError):
    """The pool's circuit breaker is open for this client class.

    Raised *without* dispatching to a worker: after
    ``breaker_threshold`` consecutive overload rejections the breaker
    fails fast for ``breaker_cooldown_s`` (then half-opens on one probe
    query), shedding load instead of hammering saturated workers.
    Subclasses :class:`ServerOverloadedError` so retry loops written
    against the single-process server back off identically.
    """


class WorkerCrashedError(ServerError):
    """A pool worker process died while serving this query.

    The pool respawns the worker and replays its shard partitions from
    their WALs; the query itself is *not* transparently retried (it may
    have had side effects), so the client decides whether to resubmit.
    """


class QueryCancelledError(ServerError):
    """The query was cancelled before or during execution."""


class QueryTimeoutError(QueryCancelledError):
    """The query exceeded its deadline and was cancelled cooperatively."""
