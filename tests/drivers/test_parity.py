"""Driver parity: the unified engine and the polyglot baseline must give
the *same answers* to the shared workload — the benchmark compares
performance and guarantees, never correctness.
"""

import pytest

from repro.baselines.polyglot import CrashDuringCommit
from repro.core.workloads import QUERIES
from repro.drivers.polyglot import PolyglotDriver
from repro.drivers.unified import UnifiedDriver
from repro.engine.transactions import IsolationLevel


def _round_floats(value):
    """Round floats recursively: summation order may differ between a
    scan plan and an index plan, so ULP-level drift is expected."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def _canonical(value):
    """Order-insensitive comparable form of a query result set."""
    return sorted(repr(_round_floats(v)) for v in value)


class TestQueryParity:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
    def test_same_results_on_both_drivers(
        self, query, small_dataset, loaded_unified, loaded_polyglot
    ):
        params = query.params(small_dataset)
        unified = loaded_unified.query(query.text, params)
        polyglot = loaded_polyglot.query(query.text, params)
        assert _canonical(unified) == _canonical(polyglot)

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
    def test_indexes_do_not_change_answers(
        self, query, small_dataset, loaded_unified
    ):
        params = query.params(small_dataset)
        with_idx = loaded_unified.query(query.text, params, use_indexes=True)
        without = loaded_unified.query(query.text, params, use_indexes=False)
        assert _canonical(with_idx) == _canonical(without)

    def test_all_queries_return_rows(self, small_dataset, loaded_unified):
        """Every benchmark query must be non-vacuous at SF=0.05."""
        for query in QUERIES:
            out = loaded_unified.query(query.text, query.params(small_dataset))
            assert out, f"{query.query_id} returned nothing"


class TestResultOwnership:
    """Query snapshots read the engine's committed values without copying;
    the rows a query returns must still be the caller's own copies."""

    @pytest.mark.parametrize("shards", [None, 2], ids=["unified", "sharded"])
    def test_mutating_results_leaves_the_store_intact(self, small_dataset, shards):
        from repro.cluster.sharded import ShardedDatabase
        from repro.datagen.load import load_dataset

        driver = UnifiedDriver() if shards is None else ShardedDatabase(n_shards=shards)
        load_dataset(driver, small_dataset)
        order_id = small_dataset.orders[0]["_id"]
        text = (
            "FOR o IN orders FILTER o._id == @id "
            "RETURN {o, doc: DOCUMENT('orders', o._id)}"
        )
        before = driver.query(text, {"id": order_id})
        for row in driver.query(text, {"id": order_id}):
            for doc in (row["o"], row["doc"]):
                doc["status"] = "mutated"
                doc["items"][0]["amount"] = -1
        scanned = driver.query("FOR o IN orders RETURN o")
        for doc in scanned:
            doc["items"].clear()
        assert driver.query(text, {"id": order_id}) == before
        assert all(o["items"] for o in driver.query("FOR o IN orders RETURN o"))
        if shards is not None:
            driver.close()

    @pytest.mark.parametrize("shards", [None, 2], ids=["unified", "sharded"])
    def test_mutating_xml_results_leaves_the_store_and_wal_intact(
        self, small_dataset, shards
    ):
        """XML trees nested in result rows are copies too: the committed
        tree is also the WAL record's value, so mutating it would change
        every snapshot and fail the record's checksum."""
        from repro.cluster.sharded import ShardedDatabase
        from repro.datagen.load import load_dataset

        driver = UnifiedDriver() if shards is None else ShardedDatabase(n_shards=shards)
        load_dataset(driver, small_dataset)
        order_id = small_dataset.orders[0]["_id"]
        scan = "FOR d IN invoices SORT d._id RETURN d"
        lines = (
            "FOR d IN invoices SORT d._id "
            "RETURN {id: d._id, lines: XPATH(d.root, '/invoice/lines/line')}"
        )
        get = "RETURN {inv: XMLGET('invoices', @id)}"
        before = [repr(driver.query(scan)), repr(driver.query(lines)),
                  repr(driver.query(get, {"id": order_id}))]
        assert all(row["lines"] for row in driver.query(lines))
        for row in driver.query(scan):
            row["root"].attributes["id"] = "mutated"
            row["root"].children.clear()
        for row in driver.query(lines):
            for line in row["lines"]:
                line.children.clear()
        driver.query(get, {"id": order_id})[0]["inv"].children.clear()
        assert [repr(driver.query(scan)), repr(driver.query(lines)),
                repr(driver.query(get, {"id": order_id}))] == before
        dbs = [driver.db] if shards is None else driver.shards
        assert all(db.wal.first_corrupt() is None for db in dbs)
        if shards is not None:
            driver.close()


class TestTransactionParity:
    def body(self, order_id: str):
        def run(s):
            s.doc_insert("orders", {"_id": order_id, "customer_id": 1,
                                    "total_price": 5.0, "items": []})
            s.kv_put("feedback", f"px/{order_id}", {"rating": 4})
            return order_id

        return run

    def test_both_drivers_apply_cross_model_txn(self, small_dataset):
        from repro.datagen.load import load_dataset

        for driver in (UnifiedDriver(), PolyglotDriver()):
            load_dataset(driver, small_dataset, with_indexes=False)
            result = driver.run_transaction(self.body("tx1"))
            assert result == "tx1"
            ctx = driver.query_context()
            assert ctx.kv_get("feedback", "px/tx1") == {"rating": 4}
            close = getattr(ctx, "close", None)
            if close:
                close()

    def test_unified_retries_conflicts(self, fresh_unified):
        # A snapshot conflict is retried internally by run_transaction.
        driver = fresh_unified
        order_id = driver.db  # unused marker

        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] == 1:
                # Simulate a conflicting concurrent commit between this
                # transaction's snapshot and its commit.
                s.doc_update("orders", "o1", {"status": "racing"})
                with driver.db.transaction() as other:
                    other.doc_update("orders", "o1", {"status": "winner"})
            else:
                s.doc_update("orders", "o1", {"status": "retry_ok"})

        driver.run_transaction(flaky)
        assert calls["n"] == 2
        with driver.db.transaction() as tx:
            assert tx.doc_get("orders", "o1")["status"] == "retry_ok"


class TestPolyglotFracture:
    def test_crash_between_stores_fractures(self, small_dataset):
        from repro.datagen.load import load_dataset

        driver = PolyglotDriver()
        load_dataset(driver, small_dataset, with_indexes=False)
        driver.db.crash_after_stores = 1

        def two_store_txn(s):
            s.doc_update("orders", small_dataset.orders[0]["_id"], {"status": "x"})
            s.kv_put("feedback", "zz/1", {"rating": 1})

        with pytest.raises(CrashDuringCommit):
            driver.run_transaction(two_store_txn)
        driver.db.crash_after_stores = None
        ctx = driver.query_context()
        # Document store committed; KV store did not: fractured.
        order = next(
            o for o in ctx.iter_collection("orders")
            if o["_id"] == small_dataset.orders[0]["_id"]
        )
        assert order["status"] == "x"
        assert ctx.kv_get("feedback", "zz/1") is None

    def test_unified_cannot_fracture(self, small_dataset):
        from repro.datagen.load import load_dataset
        from repro.errors import SimulatedCrash

        driver = UnifiedDriver()
        load_dataset(driver, small_dataset, with_indexes=False)
        driver.db.manager.crash_before_next_commit_record = True
        order_id = small_dataset.orders[0]["_id"]

        def two_store_txn(s):
            s.doc_update("orders", order_id, {"status": "x"})
            s.kv_put("feedback", "zz/1", {"rating": 1})

        with pytest.raises(SimulatedCrash):
            driver.run_transaction(two_store_txn)
        recovered = driver.db.crash()
        with recovered.transaction() as tx:
            assert tx.doc_get("orders", order_id)["status"] != "x"
            assert tx.kv_get("feedback", "zz/1") is None


class TestIsolationConfiguration:
    def test_driver_isolation_respected(self, small_dataset):
        from repro.datagen.load import load_dataset

        driver = UnifiedDriver(isolation=IsolationLevel.SERIALIZABLE)
        load_dataset(driver, small_dataset, with_indexes=False)

        seen = {}

        def reader(s):
            seen["v"] = s.doc_get("orders", small_dataset.orders[0]["_id"])

        driver.run_transaction(reader)
        assert seen["v"] is not None
