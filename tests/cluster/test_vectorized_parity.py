"""The 1-vs-4-shard half of the execution-mode differential matrix.

``tests/query/test_compile_parity.py`` proves the mode matrix
{interpreted, compiled, batched, fused} identical on a single node; this
file proves the same queries stay identical when the plan gains a
ShardExec gather — on a degenerate 1-shard cluster and a 4-shard
cluster — so batch shipping through the scatter/gather cannot reorder,
drop, or duplicate rows.  The hash-join column runs Q7 and the
mixed-type key joins of ``tests/query/test_hash_join.py`` on 1, 2 and 4
shards over both pools and on 3-replica shards read with a session
token, against the unified store.
"""

from __future__ import annotations

import pytest

from repro.core.workloads import QUERIES

from tests.query.test_compile_parity import _VARIANT_MODES, EXECUTION_MODES

# Queries whose results are deterministically ordered (explicit SORT or
# single-row lookups) compare by value+order; the rest compare as
# multisets because scatter order across shards is topology-dependent.
_ORDERED = {"Q3", "Q5", "Q7"}


def _canon(query, rows):
    if query.query_id in _ORDERED:
        return repr(rows)
    return repr(sorted(rows, key=repr))


@pytest.mark.parametrize("mode", _VARIANT_MODES)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
class TestShardModeMatrix:
    def test_modes_match_interpreter_on_each_topology(
        self, query, mode, sharded1, sharded4, small_dataset
    ):
        params = query.params(small_dataset)
        for cluster in (sharded1, sharded4):
            oracle = cluster.query(
                query.text, params, **EXECUTION_MODES["interpreted"]
            )
            candidate = cluster.query(query.text, params, **EXECUTION_MODES[mode])
            assert _canon(query, candidate) == _canon(query, oracle), (
                f"{mode} diverged on {cluster.n_shards}-shard cluster"
            )

    def test_topologies_agree_with_the_unified_store(
        self, query, mode, sharded1, sharded4, loaded_unified, small_dataset
    ):
        params = query.params(small_dataset)
        flags = EXECUTION_MODES[mode]
        single = loaded_unified.query(query.text, params, **flags)
        one = sharded1.query(query.text, params, **flags)
        four = sharded4.query(query.text, params, **flags)
        assert _canon(query, one) == _canon(query, four) == _canon(query, single)


@pytest.mark.parametrize("mode", _VARIANT_MODES)
def test_tiny_batches_cross_the_gather(sharded4, small_dataset, mode):
    """batch_size=1 forces a flush at every gather boundary."""
    text = "FOR o IN orders SORT o.total_price DESC LIMIT 7 RETURN o._id"
    oracle = sharded4.query(text, **EXECUTION_MODES["interpreted"])
    got = sharded4.query(text, batch_size=1, **EXECUTION_MODES[mode])
    assert got == oracle


# -- process-pool column of the matrix ----------------------------------------


@pytest.fixture(scope="session")
def sharded4p(small_dataset):
    """The 4-shard cluster again, scattering onto worker processes."""
    from repro.cluster.sharded import ShardedDatabase
    from repro.datagen.load import load_dataset

    driver = ShardedDatabase(n_shards=4, pool="processes")
    load_dataset(driver, small_dataset)
    yield driver
    driver.close()


@pytest.mark.parametrize("mode", _VARIANT_MODES)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
def test_process_pool_matches_thread_pool(
    query, mode, sharded4, sharded4p, small_dataset
):
    """pool="processes" is a drop-in: same rows, every query, every mode.

    Shard subplans run in forked worker processes against synced
    replicas here (with in-process fallback only for subplans that
    cannot serialize), so this column proves the wire protocol —
    subplan shipping, batch/AggPartial result frames, replica sync —
    preserves the exact results of the in-process thread scatter.
    """
    params = query.params(small_dataset)
    flags = EXECUTION_MODES[mode]
    threaded = sharded4.query(query.text, params, **flags)
    processed = sharded4p.query(query.text, params, **flags)
    assert _canon(query, processed) == _canon(query, threaded)


def test_routed_single_shard_forwards_batches_untouched():
    """fanout == 1 skips the gather: batches cross by reference.

    The routed path must add zero batch copies — the exact list objects
    the shard subplan yields are the ones ShardExec yields upward.
    """
    from dataclasses import fields

    from repro.cluster.operators import ShardExec
    from repro.cluster.sharded import ShardedDatabase
    from repro.query.executor import Executor
    from repro.query.parser import parse
    from repro.query.planner import plan as plan_query

    db = ShardedDatabase(n_shards=4)
    db.create_collection("orders")

    def body(s):
        for i in range(40):
            s.doc_insert("orders", {"_id": i, "total_price": i * 3})

    db.run_transaction(body)

    def find_shard_exec(node):
        if isinstance(node, ShardExec):
            return node
        for f in fields(node):
            value = getattr(node, f.name)
            if hasattr(value, "run_batches"):
                found = find_shard_exec(value)
                if found is not None:
                    return found
        return None

    planned = plan_query(
        parse("FOR o IN orders FILTER o._id == @id RETURN o.total_price"),
        catalog=db.router,
    )
    gather = find_shard_exec(planned.root)
    assert gather is not None and gather.route_expr is not None

    produced = []
    subplan = gather.subplan
    inner = type(subplan).run_batches

    def spy(rt, params, seed=None):
        for batch in inner(subplan, rt, params, seed):
            produced.append(id(batch))
            yield batch

    object.__setattr__(subplan, "run_batches", spy)
    rt = Executor(db.query_context())
    forwarded = [
        id(batch) for batch in gather.run_batches(rt, {"id": 7})
    ]
    assert forwarded == produced and len(produced) >= 1
    db.close()


# -- hash equi-join column: Q7 and mixed-type keys on every topology ----------

# The join shapes of tests/query/test_hash_join.py, sorted so that shard
# order cannot matter: the Q7-style HashJoin over an unnested block and
# the IndexEqLookup whose missing index falls back to a hash build.
_MIXED_JOINS = (
    "FOR l IN lhs FOR r IN rhs FOR it IN r.items FILTER it.k == l.k "
    "SORT l._id, r._id RETURN [l._id, r._id, it.k]",
    "FOR l IN lhs FOR r IN rhs FILTER r.k == l.k "
    "SORT l._id, r._id RETURN [l._id, r._id, r.k]",
)

_TOPOLOGIES = [
    (1, "threads", False), (2, "threads", False), (4, "threads", False),
    (1, "processes", False), (2, "processes", False), (4, "processes", False),
    (2, "threads", True),
]


def _load_mixed_keys(driver):
    from tests.query.test_hash_join import KEYS, _doc

    driver.create_collection("lhs")
    driver.create_collection("rhs")

    def body(s):
        for i, key in enumerate(KEYS):
            s.doc_insert("lhs", _doc(i, key))
            s.doc_insert("rhs", _doc(i, key, with_items=True))

    driver.run_transaction(body)


@pytest.fixture(scope="module")
def joined_unified(small_dataset):
    from repro.datagen.load import load_dataset
    from repro.drivers.unified import UnifiedDriver

    driver = UnifiedDriver()
    load_dataset(driver, small_dataset)
    _load_mixed_keys(driver)
    return driver


@pytest.fixture(
    scope="module", params=_TOPOLOGIES,
    ids=lambda t: f"{t[0]}shard-{t[1]}" + ("-3replicas-session" if t[2] else ""),
)
def joined_cluster(request, small_dataset):
    """A cluster holding the dataset plus the mixed-key collections;
    replicated topologies read through a session token (follower reads)."""
    from repro.cluster.sharded import ShardedDatabase
    from repro.datagen.load import load_dataset
    from repro.replication.replicaset import ReplicaSetConfig

    n_shards, pool, replicated = request.param
    replication = (
        ReplicaSetConfig(3, write_acks="majority", read_preference="session")
        if replicated else None
    )
    driver = ShardedDatabase(n_shards=n_shards, pool=pool, replication=replication)
    load_dataset(driver, small_dataset)
    _load_mixed_keys(driver)
    token = driver.session_token() if replicated else None
    yield driver, token
    driver.close()


# The one key whose equality rests on object identity: a list holding
# the very NaN object the other side's list holds (Python's list ==
# short-cuts on identity).  Rows a worker process pickles back carry a
# fresh NaN, so this pair cannot survive a multi-shard process scatter —
# pinned separately below as a known divergence.
_IDENTITY_KEY_ID = 18


def _crosses_processes(driver) -> bool:
    return driver.pool_mode == "processes" and driver.n_shards > 1


@pytest.mark.parametrize("case", ["Q7", "join-unnest", "join-fallback"])
def test_hash_joins_match_the_unified_store(
    joined_cluster, joined_unified, small_dataset, case
):
    driver, token = joined_cluster
    if case == "Q7":
        from repro.core.workloads import QUERY_BY_ID

        text, params = QUERY_BY_ID["Q7"].text, QUERY_BY_ID["Q7"].params(small_dataset)
    else:
        text, params = _MIXED_JOINS[case == "join-fallback"], None
    expected = joined_unified.query(text, params)
    extra = {"session": token} if token is not None else {}
    batched = driver.query(text, params, **extra)
    per_row = driver.query(text, params, use_batches=False, **extra)
    if case != "Q7" and _crosses_processes(driver):
        expected = [row for row in expected if row[0] != _IDENTITY_KEY_ID]
        batched = [row for row in batched if row[0] != _IDENTITY_KEY_ID]
        per_row = [row for row in per_row if row[0] != _IDENTITY_KEY_ID]
    assert repr(batched) == repr(expected)
    # The per-row nested loop agrees on the cluster too.
    assert repr(per_row) == repr(expected)


@pytest.mark.xfail(
    strict=True,
    reason="NaN object identity is lost when rows are pickled back from "
    "worker processes, so [nan] == [nan] differs from the unified store",
)
def test_shared_nan_list_survives_the_process_boundary(joined_unified):
    from repro.cluster.sharded import ShardedDatabase

    driver = ShardedDatabase(n_shards=2, pool="processes")
    try:
        _load_mixed_keys(driver)
        text = _MIXED_JOINS[1]
        assert repr(driver.query(text)) == repr(joined_unified.query(text))
    finally:
        driver.close()
