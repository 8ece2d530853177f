"""Spans recorded from outside the system, around its public layer boundaries.

The benchmark never edits the program: for a traced run it replaces a
fixed list of public functions (``PlanCache.get_or_plan``,
``Executor.execute``, the query-context model bridges, the scatter pool,
the frame codec, ``Session.commit``, ``WriteAheadLog.append`` ...) with
wrappers that record one :class:`Span` per call, and restores the
originals afterwards.

Spans are kept in memory.  Each records its name, start, end, parent
span, the id of the benchmark operation that caused it, and the thread
it ran on.  Self time is a span's busy time minus the busy time of its
children *on the same thread*: children on one thread never overlap, so
that sum is the time they cover.  Spans that a scatter pool runs on its
helper threads hang below the scatter span (their parent) but run
concurrently with each other; they are reported as busy time of their
layer and are not subtracted from the waiting scatter span.

Generator bridges (``iter_collection``, ``traverse``, ``kv_prefix``)
are timed while drained: every ``next()`` adds to the span's busy time,
so the pipeline work done between two rows is not charged to the scan.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("sid", "parent", "op", "name", "client", "start", "end", "busy", "rows")

    def __init__(self, sid: int, parent: "Span | None", op: int | None,
                 name: str, client: bool) -> None:
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.client = client
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0
        self.rows = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.sid,
            "parent": self.parent.sid if self.parent is not None else None,
            "op": self.op,
            "name": self.name,
            "thread": "client" if self.client else "helper",
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "rows": self.rows,
        }


class Tracer:
    """In-memory span recorder for one single-client benchmark process.

    The client thread keeps a stack of open spans.  A helper thread (a
    scatter pool thread) starts with an empty stack and parents its
    spans to the client's innermost open span, which is the scatter
    call waiting for it.  A worker process forked while the wrappers
    are installed (a restart) records nothing.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._client_id = threading.get_ident()
        self._client_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client_id:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, stack: list[Span]) -> Span:
        client = stack is self._client_stack
        if stack:
            parent = stack[-1]
        elif not client and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), parent, self.op, name, client)
        self.spans.append(span)
        return span

    def begin(self, name: str) -> Span | None:
        if os.getpid() != self._pid:
            return None
        stack = self._stack()
        span = self._new(name, stack)
        stack.append(span)
        span.start = perf_counter()
        return span

    def finish(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = perf_counter()
        span.busy = span.end - span.start
        self._stack().pop()

    def drained(self, name: str, iterable: Iterable[Any]) -> Iterator[Any]:
        """Wrap an iterator so its span is busy only inside ``next()``."""
        if os.getpid() != self._pid:
            yield from iterable
            return
        stack = self._stack()
        span = self._new(name, stack)
        iterator = iter(iterable)
        while True:
            stack.append(span)
            started = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                ended = perf_counter()
                stack.pop()
                if span.start == 0.0:
                    span.start = started
                span.end = ended
                span.busy += ended - started
            span.rows += 1
            yield item

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(span)

    @staticmethod
    def write_jsonl(path: str, spans: Iterable[Span]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> busy time minus the busy time of same-thread children."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span.parent
        if parent is not None and parent.client == span.client:
            covered[parent.sid] += span.busy
    return {span.sid: span.busy - covered[span.sid] for span in spans}


# ---------------------------------------------------------------------------
# The layer boundaries, wrapped from outside
# ---------------------------------------------------------------------------


def _boundaries() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every wrapped public function."""
    from repro.cluster import remote
    from repro.cluster.sharded import ShardedDatabase, ShardedQueryContext
    from repro.datagen.generator import DatasetGenerator
    from repro.drivers.unified import UnifiedDriver, UnifiedQueryContext
    from repro.engine.database import Session
    from repro.engine.wal import WriteAheadLog
    from repro.models.xml.xpath import XPath
    from repro.query import plancache
    from repro.query.executor import Executor
    from repro.replication.replicaset import ReplicaSet
    from repro.txn.coordinator import CoordinatorLog, TwoPhaseCoordinator
    from repro.txn.replicated_log import ReplicatedCoordinatorLog

    return [
        (plancache.PlanCache, "get_or_plan", "query.plan"),
        (plancache, "parse", "query.parse"),
        (Executor, "execute", "query.execute"),
        (UnifiedQueryContext, "iter_collection", "models.scan"),
        (UnifiedQueryContext, "index_lookup", "models.index_lookup"),
        (UnifiedQueryContext, "range_lookup", "models.index_lookup"),
        (UnifiedQueryContext, "traverse", "models.graph"),
        (UnifiedQueryContext, "shortest_path", "models.graph"),
        (UnifiedQueryContext, "kv_get", "models.kv"),
        (UnifiedQueryContext, "kv_prefix", "models.kv"),
        (UnifiedQueryContext, "xml_get", "models.xml"),
        (XPath, "find", "models.xpath"),
        (ShardedQueryContext, "run_parallel", "cluster.scatter"),
        (remote.ProcessShardPool, "run_subplan", "cluster.subplan"),
        (remote, "encode_frame", "cluster.serialize"),
        (remote, "decode_frame", "cluster.serialize"),
        (Session, "commit", "engine.commit"),
        (Session, "commit_prepared", "engine.commit"),
        (Session, "prepare", "txn.prepare"),
        (WriteAheadLog, "append", "engine.wal"),
        (WriteAheadLog, "sync", "engine.wal"),
        (TwoPhaseCoordinator, "commit", "txn.coordinator"),
        (CoordinatorLog, "append", "txn.coord_log"),
        (ReplicatedCoordinatorLog, "append", "txn.coord_log"),
        (ReplicaSet, "replicate", "replication.replicate"),
        (DatasetGenerator, "generate", "datagen.generate"),
        (UnifiedDriver, "create_index", "datagen.index_build"),
        (ShardedDatabase, "create_index", "datagen.index_build"),
    ]


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return tracer.drained(name, fn(*args, **kwargs))

        return traced_gen

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(span)

    return traced


class Instrumentation:
    """Context manager: the wrappers are installed inside the block only."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for owner, attr, name in _boundaries():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, name, original))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
