"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces each layer's public entry points (a class attribute or a
``repro.*`` module global) with a wrapper that records one span per call:
name, layer, start, end, parent span and the ``(client, position)`` of the
query that caused it.  Stacks are thread-local, spans stay in memory, and
:meth:`LayerTracer.uninstall` restores every original so untraced
repetitions in the same process run the unmodified program.

A span's **self time** is its duration minus the part covered by its child
spans; a layer's ``*_s`` metric is the sum of its spans' self times, so a
nested call (``SymbolicEngine.analyze`` -> ``reduce``, a client view handle
-> the view it guards, a view ``put_many`` -> the WAL append its listener
issues) is charged once, to the innermost layer that did the work.  Counts
(``calls``, keys, tuples) are taken only from spans that *enter* a layer
from outside it, so the same nesting never counts a key twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

#: (owner import path, attribute, layer, span name, sized).  A sized call
#: carries ``len(result)`` units of work — keys probed or written, tuples
#: predicted — instead of one.
_RESULT_LEN, _ONE = True, False

CLASS_TARGETS = (
    ("repro.optimizer.optimizer.Optimizer", "optimize",
     "optimizer", "optimize", _ONE),
    ("repro.optimizer.udf_manager.UdfManager", "record_execution",
     "optimizer", "record", _ONE),
    ("repro.store.integration.PersistentUdfManager", "record_execution",
     "optimizer", "record", _ONE),
    ("repro.server.state.LockedUdfManager", "record_execution",
     "optimizer", "record", _ONE),
    ("repro.executor.engine.ExecutionEngine", "run",
     "executor", "run", _ONE),
    ("repro.storage.view_store.MaterializedView", "get",
     "storage", "probe", _ONE),
    ("repro.storage.view_store.MaterializedView", "get_many",
     "storage", "probe", _RESULT_LEN),
    ("repro.storage.view_store.MaterializedView", "put",
     "storage", "write", _ONE),
    ("repro.storage.view_store.MaterializedView", "put_many",
     "storage", "write", _RESULT_LEN),
    ("repro.server.state.ClientViewHandle", "get",
     "storage", "probe", _ONE),
    ("repro.server.state.ClientViewHandle", "get_many",
     "storage", "probe", _RESULT_LEN),
    ("repro.server.state.ClientViewHandle", "put",
     "storage", "write", _ONE),
    ("repro.server.state.ClientViewHandle", "put_many",
     "storage", "write", _RESULT_LEN),
    ("repro.store.wal.WalWriter", "append", "store", "wal_append", _ONE),
    ("repro.store.wal.WalWriter", "flush", "store", "flush", _ONE),
    ("repro.store.durable.DurableViewStore", "__init__",
     "store", "open", _ONE),
    ("repro.store.durable.DurableViewStore", "close",
     "store", "close", _ONE),
) + tuple(
    ("repro.symbolic.engine.SymbolicEngine", op, "symbolic", op, _ONE)
    for op in ("analyze", "reduce", "intersection", "difference", "union",
               "negation"))

#: Functions other modules import by name: every ``repro.*`` module global
#: bound to the original is rebound (``repro.session.parse`` is the parse
#: the session calls).
FUNCTION_TARGETS = (
    ("repro.parser.parser", "parse", "parser", "parse"),
    ("repro.expressions.compiler", "compile_expression",
     "expressions", "compile"),
)

#: The root span of a query; its self time is ``session.other_s``.
ROOT_TARGET = ("repro.session.EvaSession", "execute", "session", "query")


def _resolve(path: str):
    module_name, _, attr = path.rpartition(".")
    __import__(module_name)
    return getattr(sys.modules[module_name], attr)


class LayerTracer:
    """Installs span wrappers and aggregates them per layer."""

    def __init__(self, workload: str):
        self.workload = workload
        #: Finished spans, as dicts ready for the trace file.
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: id(session) -> client name; position the client's load
        #: generator announced for its next query.
        self._clients: dict[int, str] = {}
        self._positions: dict[str, int] = {}

    # -- request identity ---------------------------------------------------

    def name_session(self, session, client: str) -> None:
        self._clients[id(session)] = client

    def next_position(self, client: str, position: int) -> None:
        """Called by ``client``'s generator right before it issues a query
        (closed loop: one outstanding query per client)."""
        self._positions[client] = position

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for path, attr, layer, name, sized in CLASS_TARGETS:
            owner = _resolve(path)
            self._patch(owner, attr,
                        self._wrap(owner.__dict__[attr], layer, name, sized))
        for model_class in _model_classes():
            self._patch(model_class, "predict_batch", self._wrap(
                model_class.__dict__["predict_batch"], "models", "predict",
                _RESULT_LEN))
        for module_name, attr, layer, name in FUNCTION_TARGETS:
            original = _resolve(f"{module_name}.{attr}")
            wrapper = self._wrap(original, layer, name, _ONE)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        path, attr, layer, name = ROOT_TARGET
        owner = _resolve(path)
        self._patch(owner, attr,
                    self._wrap_root(owner.__dict__[attr], layer, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.ident = (None, None)
            return self._local.stack

    def _wrap(self, func, layer: str, name: str, sized: bool):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # frame: [span id, layer, seconds covered by child spans]
            frame = [next(self._ids), layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self._finish(frame, parent, name, start, end,
                             len(result) if sized and result is not None
                             else 1)
        wrapper.__wrapped__ = func
        return wrapper

    def _wrap_root(self, func, layer: str, name: str):
        inner = self._wrap(func, layer, name, _ONE)

        def root(session, *args, **kwargs):
            self._stack()
            client = self._clients.get(id(session))
            self._local.ident = (client, self._positions.get(client))
            try:
                return inner(session, *args, **kwargs)
            finally:
                self._local.ident = (None, None)
        root.__wrapped__ = func
        return root

    def _finish(self, frame, parent, name, start, end, units) -> None:
        span_id, layer, child_s = frame
        duration = end - start
        if parent is not None:
            parent[2] += duration
        client, position = self._local.ident
        self.spans.append({
            "id": span_id,
            "parent": parent[0] if parent is not None else None,
            "layer": layer,
            "name": name,
            "start": start,
            "end": end,
            "self_s": max(0.0, duration - child_s),
            # Only a span entering its layer from outside carries work
            # counts (see the module docstring).
            "units": units if parent is None or parent[1] != layer else 0,
            "entered": parent is None or parent[1] != layer,
            "workload": self.workload,
            "client": client,
            "position": position,
        })

    # -- aggregation --------------------------------------------------------

    def take(self) -> list[dict]:
        """Hand over (and forget) the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _model_classes() -> list[type]:
    """The classes whose ``predict_batch`` the default zoo's models run."""
    from repro.models.zoo import default_zoo

    zoo = default_zoo()
    owners: list[type] = []
    for model_name in zoo.names():
        for klass in type(zoo.get(model_name)).__mro__:
            if "predict_batch" in klass.__dict__:
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """``{"layer.name": {"self_s", "calls", "units"}}`` over ``spans``."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(f"{span['layer']}.{span['name']}",
                                  {"self_s": 0.0, "calls": 0, "units": 0})
        entry["self_s"] += span["self_s"]
        entry["calls"] += 1 if span["entered"] else 0
        entry["units"] += span["units"]
    return totals
