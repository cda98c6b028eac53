"""The client-facing handle onto an :class:`~repro.server.server.EvaServer`.

A :class:`ClientHandle` is what an analyst (or driver thread) holds:

* :meth:`submit` — asynchronous: admit one query, get a
  ``Future[QueryResult]`` back immediately (or an admission error);
* :meth:`execute` — synchronous sugar: submit and block on the result;
* :meth:`checkout` — borrow the underlying private
  :class:`~repro.session.EvaSession` under the client's lock for
  introspection (``explain``, metrics) without racing in-flight
  queries;
* :meth:`close` — check the client back in; its accumulated metrics
  remain on the server for attribution.

Handles are cheap and thread-safe; the server serializes each client's
queries, so two threads sharing one handle simply take turns.
"""

from __future__ import annotations

from concurrent.futures import Future
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.metrics import QueryMetrics
from repro.session import EvaSession
from repro.types import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.server import EvaServer, _Client

#: Sentinel: "use the server's default timeout" (mirrors server.py).
_DEFAULT = object()


class ClientHandle:
    """One client's connection to a running server."""

    def __init__(self, server: "EvaServer", client: "_Client"):
        self._server = server
        self._client = client

    @property
    def client_id(self) -> str:
        return self._client.client_id

    @property
    def closed(self) -> bool:
        return self._client.closed

    # -- query paths -----------------------------------------------------------

    def submit(self, sql: str,
               timeout: float | None = _DEFAULT
               ) -> "Future[QueryResult]":
        """Admit ``sql`` asynchronously.

        Raises admission errors (:class:`~repro.errors.ServerOverloadedError`,
        :class:`~repro.errors.ServerClosedError`) synchronously; query
        errors surface through the returned future.
        """
        if timeout is _DEFAULT:
            return self._server.submit(self.client_id, sql)
        return self._server.submit(self.client_id, sql, timeout=timeout)

    def execute(self, sql: str,
                timeout: float | None = _DEFAULT) -> QueryResult:
        """Submit ``sql`` and block until its result is available."""
        return self.submit(sql, timeout=timeout).result()

    # -- session checkout ------------------------------------------------------

    @contextmanager
    def checkout(self) -> Iterator[EvaSession]:
        """Borrow the client's private session (exclusive).

        Holding the checkout blocks this client's queued queries at the
        worker (they wait on the same lock), so keep the critical
        section short — it exists for introspection like ``explain`` or
        reading metrics consistently, not for bulk work.
        """
        with self._client.lock:
            yield self._client.session

    # -- introspection ---------------------------------------------------------

    def clock_breakdown(self) -> dict:
        """This client's virtual-clock breakdown (category -> seconds)."""
        with self.checkout() as session:
            return dict(session.clock.breakdown())

    def hit_percentage(self) -> float:
        """This client's own hit rate (its private metrics)."""
        return self._client.session.metrics.hit_percentage()

    def last_query_metrics(self) -> QueryMetrics | None:
        return self._client.session.last_query_metrics()

    def workload_time(self) -> float:
        """Total virtual seconds across this client's queries."""
        return self._client.session.workload_time()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._server.disconnect(self.client_id)

    def __enter__(self) -> "ClientHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientHandle({self.client_id!r})"
