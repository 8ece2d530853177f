"""Per-layer metrics of a traced window: span self times and counter deltas.

Times come from the spans the benchmark recorded around each layer's
public functions (see :mod:`perfbench.tracing`); counts are deltas of
``Driver.metrics()`` taken just before and just after each traced round,
summed over the run.
Times and counts are divided by the operations that use the layer:
queries for the query, model and cluster layers, transactions for the
engine, 2PC and replication layers.  A layer the workload never enters
reports 0.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from typing import Any

from perfbench.tracing import Span, self_times

# name -> unit, in the order they are printed.
PER_LAYER: dict[str, str] = {
    "drivers.query_self_ms": "ms/query",
    "drivers.txn_self_ms": "ms/txn",
    "query.plan_ms": "ms/query",
    "query.parse_calls": "calls/query",
    "query.plan_cache_hit_ratio": "ratio",
    "query.execute_self_ms": "ms/query",
    "query.rows_scanned_per_row_returned": "ratio",
    "query.scans_per_query": "scans/query",
    "query.index_lookups_per_query": "lookups/query",
    "models.scan_ms": "ms/query",
    "models.scan_rows_per_query": "rows/query",
    "models.index_lookup_ms": "ms/query",
    "models.graph_ms": "ms/query",
    "models.kv_ms": "ms/query",
    "models.xml_ms": "ms/query",
    "models.xpath_ms": "ms/query",
    "cluster.scatter_ms": "ms/query",
    "cluster.shard_fanout": "shards/query",
    "cluster.shard_queue_ms": "ms/query",
    "cluster.serialize_ms": "ms/query",
    "cluster.frames_per_query": "frames/query",
    "cluster.bytes_per_query": "bytes/query",
    "cluster.plans_shipped_ratio": "ratio",
    "cluster.sync_rounds_per_query": "rounds/query",
    "cluster.synced_writes_per_round": "writes/round",
    "cluster.worker_failures": "count",
    "engine.commit_ms": "ms/txn",
    "engine.wal_append_ms": "ms/txn",
    "engine.wal_appends_per_txn": "appends/txn",
    "engine.wal_bytes_per_txn": "bytes/txn",
    "engine.wal_syncs_per_txn": "syncs/txn",
    "engine.txn_commit_ratio": "ratio",
    "engine.lock_waits": "count",
    "txn.coordinator_ms": "ms/txn",
    "txn.prepare_ms": "ms/txn",
    "txn.two_phase_ratio": "ratio",
    "txn.coord_log_appends_per_txn": "appends/txn",
    "replication.replicate_ms": "ms/txn",
    "replication.quorum_wait_ms": "ms/txn",
    "replication.records_shipped_per_txn": "records/txn",
    "replication.follower_read_ratio": "ratio",
    "replication.max_lag_records": "records",
    "datagen.generate_s": "s",
    "datagen.load_s": "s",
    "datagen.index_build_s": "s",
    "cluster.pool_spawn_s": "s",
    "obs.trace_overhead_ratio": "ratio",
}

# Count-type metrics: a pure function of the operation sequence, so the
# same seed and the same number of operations reproduce them exactly.
COUNTS = (
    "query.parse_calls",
    "query.plan_cache_hit_ratio",
    "query.rows_scanned_per_row_returned",
    "query.scans_per_query",
    "query.index_lookups_per_query",
    "models.scan_rows_per_query",
    "cluster.shard_fanout",
    "cluster.frames_per_query",
    "cluster.bytes_per_query",
    "cluster.plans_shipped_ratio",
    "cluster.sync_rounds_per_query",
    "cluster.synced_writes_per_round",
    "engine.wal_appends_per_txn",
    "engine.wal_bytes_per_txn",
    "engine.wal_syncs_per_txn",
    "engine.txn_commit_ratio",
    "txn.two_phase_ratio",
    "txn.coord_log_appends_per_txn",
    "replication.records_shipped_per_txn",
)


def flatten(snapshot: dict[str, Any]) -> dict[str, float]:
    """``Driver.metrics()`` as one flat name -> number mapping."""
    out: dict[str, float] = dict(snapshot.get("counters", {}))
    for name, hist in snapshot.get("histograms", {}).items():
        out[f"{name}.sum"] = hist["sum"]
        out[f"{name}.count"] = hist["count"]
    for group, values in snapshot.get("collected", {}).items():
        for key, value in values.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{group}.{key}"] = value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_matching(values: dict[str, float], pattern: str) -> float:
    rx = re.compile(pattern)
    return sum(v for k, v in values.items() if rx.fullmatch(k))


def setup_metrics(spans: list[Span], ranges: list[tuple[int, int]]) -> dict[str, float]:
    """Median over the run's set-ups of each set-up step's wall time."""
    per_setup: dict[str, list[float]] = defaultdict(list)
    for first, last in ranges:
        totals: dict[str, float] = defaultdict(float)
        for span in spans[first:last]:
            totals[span.name] += span.busy
        per_setup["datagen.generate_s"].append(totals["datagen.generate"])
        per_setup["datagen.load_s"].append(totals["datagen.load"])
        per_setup["datagen.index_build_s"].append(totals["datagen.index_build"])
        per_setup["cluster.pool_spawn_s"].append(totals["cluster.pool_spawn"])
    return {name: statistics.median(v) for name, v in per_setup.items()}


def window_metrics(
    spans: list[Span],
    n_queries: int,
    n_txns: int,
    deltas: dict[str, float],
    snapshot: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of a run's traced rounds: the spans of their
    operations, their summed counter *deltas*, and the *snapshot* after
    the last one (gauges)."""
    selfs = self_times(spans)
    self_ms: dict[str, float] = defaultdict(float)
    busy_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    scan_rows = 0
    for span in spans:
        self_ms[span.name] += selfs[span.sid] * 1000.0
        busy_ms[span.name] += span.busy * 1000.0
        calls[span.name] += 1
        if span.name == "models.scan":
            scan_rows += span.rows

    def d(key: str) -> float:
        return deltas.get(key, 0.0)

    def dm(pattern: str) -> float:
        return _sum_matching(deltas, pattern)

    per_q = lambda x: _ratio(x, n_queries)
    per_t = lambda x: _ratio(x, n_txns)
    m: dict[str, float] = {
        "drivers.query_self_ms": per_q(self_ms["drivers.query"]),
        "drivers.txn_self_ms": per_t(self_ms["drivers.txn"]),
        "query.plan_ms": per_q(self_ms["query.plan"] + self_ms["query.parse"]),
        "query.parse_calls": per_q(calls["query.parse"]),
        "query.plan_cache_hit_ratio": _ratio(
            d("plan_cache.hits"), d("plan_cache.hits") + d("plan_cache.misses")),
        "query.execute_self_ms": per_q(self_ms["query.execute"]),
        "query.rows_scanned_per_row_returned": _ratio(
            d("repro_exec_rows_scanned_total"), d("repro_query_rows_returned_total")),
        "query.scans_per_query": per_q(d("repro_exec_scans_total")),
        "query.index_lookups_per_query": per_q(
            d("repro_exec_index_lookups_total") + d("repro_exec_range_lookups_total")),
        "models.scan_ms": per_q(self_ms["models.scan"]),
        "models.scan_rows_per_query": per_q(scan_rows),
        "models.index_lookup_ms": per_q(self_ms["models.index_lookup"]),
        "models.graph_ms": per_q(self_ms["models.graph"]),
        "models.kv_ms": per_q(self_ms["models.kv"]),
        "models.xml_ms": per_q(self_ms["models.xml"]),
        "models.xpath_ms": per_q(self_ms["models.xpath"]),
        "cluster.scatter_ms": per_q(self_ms["cluster.scatter"]),
        "cluster.shard_fanout": per_q(d("repro_exec_shard_fanout_total")),
        "cluster.shard_queue_ms": per_q(d("repro_shard_queue_seconds.sum") * 1000.0),
        # Frame coding runs on the scatter threads: busy time, not self.
        "cluster.serialize_ms": per_q(busy_ms["cluster.serialize"]),
        "cluster.frames_per_query": per_q(d("procpool.frames_sent") + d("procpool.frames_received")),
        "cluster.bytes_per_query": per_q(d("procpool.bytes_sent") + d("procpool.bytes_received")),
        "cluster.plans_shipped_ratio": _ratio(d("procpool.plans_shipped"), calls["cluster.subplan"]),
        "cluster.sync_rounds_per_query": per_q(d("procpool.sync_rounds")),
        "cluster.synced_writes_per_round": _ratio(d("procpool.synced_writes"), d("procpool.sync_rounds")),
        "cluster.worker_failures": (
            d("procpool.restarts") + d("procpool.request_timeouts_total") + d("procpool.retries_total")),
        "engine.commit_ms": per_t(self_ms["engine.commit"]),
        "engine.wal_append_ms": per_t(self_ms["engine.wal"]),
        "engine.wal_appends_per_txn": per_t(d("wal.appends")),
        "engine.wal_bytes_per_txn": per_t(d("wal.appended_bytes")),
        "engine.wal_syncs_per_txn": per_t(d("wal.syncs")),
        # Read-only query snapshots end by abort, so they are not commit
        # attempts; a write-write conflict is a failed one.
        "engine.txn_commit_ratio": _ratio(d("txn.commits"), d("txn.commits") + d("txn.conflicts")),
        "engine.lock_waits": d("locks.lock_waits"),
        "txn.coordinator_ms": per_t(self_ms["txn.coordinator"]),
        "txn.prepare_ms": per_t(self_ms["txn.prepare"]),
        "txn.two_phase_ratio": per_t(d("txn.two_phase_commits")),
        "txn.coord_log_appends_per_txn": per_t(d("txn.coordinator_log_appends")),
        "replication.replicate_ms": per_t(self_ms["replication.replicate"]),
        "replication.quorum_wait_ms": per_t(d("repro_replication_quorum_wait_seconds.sum") * 1000.0),
        "replication.records_shipped_per_txn": per_t(
            dm(r"replication\.shard\d+_records_shipped_total")),
        "replication.follower_read_ratio": _ratio(
            dm(r"replication\.shard\d+_follower_reads_total"),
            dm(r"replication\.shard\d+_(follower|leader)_reads_total")),
        "replication.max_lag_records": max(
            (v for k, v in snapshot.items()
             if re.fullmatch(r"replication\.shard\d+_lag_records_replica\d+", k)),
            default=0.0),
    }
    return m
