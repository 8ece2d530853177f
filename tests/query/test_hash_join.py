"""Hash equi-join: MMQL ``==`` semantics, plan shape, and one scan per collection.

Batch mode runs ``FOR…FILTER inner == outer`` joins as build/probe hash
joins (:class:`~repro.query.physical.HashJoin`, and the no-index
fallback of :class:`~repro.query.physical.IndexEqLookup`), while the
per-row ``use_batches=False`` engine keeps the nested loop.  MMQL ``==``
is Python ``==``, so a hash table keyed carelessly would drop or invent
matches: ``1``, ``1.0`` and ``true`` equal each other, ``"1"`` equals
none of them, a missing field equals ``null``, NaN equals nothing (not
even the same NaN object, which a dict lookup matches by identity), and
lists/objects compare by value.  Every case here must be byte-identical
(``repr``) between the hash join and the nested loop.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workloads import QUERIES
from repro.datagen.config import GeneratorConfig
from repro.datagen.generator import DatasetGenerator
from repro.datagen.load import load_dataset
from repro.drivers.unified import UnifiedDriver
from repro.errors import ExecutionError
from repro.query.executor import Executor
from repro.query.parser import parse
from repro.query.physical import UNKEYED, JoinTable
from repro.query.planner import plan

from tests.query.test_compile_parity import EXECUTION_MODES

SHARED_NAN = float("nan")
MISSING = object()  # the document has no join field at all

# Every awkward key at once; the shared NaN appears twice so two
# documents hold the very same NaN object.
KEYS = [
    1, 1.0, True, "1", None, MISSING, SHARED_NAN, SHARED_NAN,
    float("nan"), float("nan"), 0, False, -0.0, "", 2,
    [1, 2], [1, 2.0], [True, 2], [SHARED_NAN], {"a": 1}, {"a": True},
    {"a": [1]},
]

# The join shapes: an IndexEqLookup (field path, no usable index ->
# hash fallback), the Q7 shape (unnested block -> HashJoin) and the
# same with the operands swapped.
JOINS = {
    "index_fallback": "FOR l IN lhs FOR r IN rhs FILTER r.k == l.k "
                      "RETURN [l._id, r._id]",
    "unnest": "FOR l IN lhs FOR r IN rhs FOR it IN r.items FILTER it.k == l.k "
              "RETURN [l._id, r._id, it.k]",
    "unnest_swapped": "FOR l IN lhs FOR r IN rhs FOR it IN r.items "
                      "FILTER l.k == it.k RETURN [l._id, r._id]",
}


def _doc(i: int, key, with_items: bool = False) -> dict:
    doc = {"_id": i}
    if key is not MISSING:
        doc["k"] = key
    if with_items:
        doc["items"] = [{"k": key} if key is not MISSING else {}, {"k": "pad"}]
    return doc


class _Tables:
    """A minimal query context over in-memory collections, no indexes."""

    def __init__(self, **collections):
        self.collections = collections

    def iter_collection(self, name):
        return iter(self.collections[name])

    def index_lookup(self, collection, field, value):
        return None


def _assert_modes_agree(ctx, text, params=None, use_indexes=True) -> str:
    """The repr of the result, identical in every execution mode."""
    outcomes = {
        mode: repr(Executor(ctx, use_indexes=use_indexes, **flags).execute(text, params))
        for mode, flags in EXECUTION_MODES.items()
    }
    oracle = outcomes.pop("interpreted")
    for mode, got in outcomes.items():
        assert got == oracle, f"{mode} diverged on {text!r}:\n{got}\n!=\n{oracle}"
    return oracle


@pytest.fixture(scope="module")
def tables():
    return _Tables(
        lhs=[_doc(i, key) for i, key in enumerate(KEYS)],
        rhs=[_doc(i, key, with_items=True) for i, key in enumerate(KEYS)],
    )


class TestEqualitySemantics:
    def test_join_table_buckets_follow_python_equality(self):
        """The table itself, without the residual FILTER that would mask
        a spurious candidate: a dict lookup matches the same NaN object
        by identity, so the table must drop NaN keys on both sides."""
        table = JoinTable()
        keys = [1, 1.0, True, "1", None, SHARED_NAN, SHARED_NAN, [1], {"a": 1}]
        for i, key in enumerate(keys):
            table.add(key, i)
        assert table.probe(1) == table.probe(True) == [0, 1, 2]
        assert table.probe("1") == [3]
        assert table.probe(None) == [4]
        assert table.probe(SHARED_NAN) == []
        assert table.probe([1.0]) == table.probe([True]) == [7]
        assert table.probe({"a": True}) == [8]
        assert table.probe(2) == [] and table.probe([2]) == []
        assert table.probe(UNKEYED) == list(range(len(keys)))
        table.add_unkeyed(len(keys))
        assert table.probe("1") == list(range(len(keys) + 1))

    def test_mixed_literal_join_matches_python_equality(self):
        text = (
            'FOR a IN [1, 1.0, true, "1", null] FOR b IN [1, true, null] '
            "FILTER a == b RETURN [a, b]"
        )
        assert "HashJoin b [build: ExpressionSource([3 items])" in (
            plan(parse(text)).describe()
        )
        got = _assert_modes_agree(None, text)
        assert got == repr([
            [1, 1], [1, True], [1.0, 1], [1.0, True],
            [True, 1], [True, True], [None, None],
        ])

    @pytest.mark.parametrize("shape", sorted(JOINS))
    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_mixed_keys_agree_with_nested_loop(self, tables, shape, use_indexes):
        _assert_modes_agree(tables, JOINS[shape], use_indexes=use_indexes)
        rows = Executor(tables, use_indexes=use_indexes).execute(JOINS[shape])
        ids = {(row[0], row[1]) for row in rows}
        # 1 / 1.0 / true all match each other; "1" only itself.
        assert {(0, 1), (1, 2), (2, 0)} <= ids
        assert (3, 3) in ids and (3, 0) not in ids
        # A missing field reads as null, so it joins with null.
        assert {(4, 5), (5, 4)} <= ids
        # NaN never matches: not the shared object, not a distinct one.
        assert not any(i in (6, 7, 8, 9) for pair in ids for i in pair)
        # Lists and objects compare by value, like Python ==.
        assert {(15, 16), (15, 17), (19, 20)} <= ids
        # A list holding the *same* NaN object equals itself, as in Python.
        assert (18, 18) in ids

    def test_shapes_plan_as_hash_joins(self):
        unnest = plan(parse(JOINS["unnest"])).describe()
        assert (
            "HashJoin r, it [build: CollectionScan(rhs) [scan] → "
            "ExpressionSource(r.items) on it.k; probe: l.k]"
        ) in unnest
        assert "HashJoin" in plan(parse(JOINS["unnest_swapped"])).describe()
        fallback = plan(parse(JOINS["index_fallback"])).describe()
        assert "IndexEqLookup [index: rhs.k == l.k]" in fallback
        assert "HashJoin" not in fallback

    def test_fallback_and_join_scan_each_collection_once(self, tables):
        for shape, text in JOINS.items():
            executor = Executor(tables)
            executor.execute(text)
            assert executor.stats["scans"] == 2, shape
            per_row = Executor(tables, use_batches=False)
            per_row.execute(text)
            # The nested loop re-scans rhs per lhs row: the oracle.
            assert per_row.stats["scans"] == 1 + len(KEYS), shape

    def test_unkeyable_rows_fall_back_to_the_residual_filter(self):
        """A join key that errors (field access on a string) makes every
        row a candidate, so the residual FILTER raises exactly where the
        nested loop would — or keeps the clean rows when it never errs."""
        ctx = _Tables(
            lhs=[{"_id": 1, "k": 1}, {"_id": 2, "k": "x"}],
            rhs=[{"_id": 1, "items": [{"k": 1}, "bare", {"k": 2}]}],
        )
        erroring = (
            "FOR l IN lhs FOR r IN rhs FOR it IN r.items FILTER it.k == l.k "
            "RETURN [l._id, r._id]"
        )
        probe_errs = (
            "FOR l IN lhs FOR r IN rhs FOR it IN r.items FILTER it.k == l.k.z "
            "RETURN [l._id, r._id]"
        )
        for text in (erroring, probe_errs):
            assert "HashJoin" in plan(parse(text)).describe()
            errors = set()
            for flags in EXECUTION_MODES.values():
                with pytest.raises(ExecutionError) as info:
                    Executor(ctx, **flags).execute(text)
                errors.add(str(info.value))
            assert len(errors) == 1, errors

    def test_collection_name_shadowed_by_seed_binding(self, tables):
        """In a subquery, a seed variable named like the build side's
        collection shadows it for the hash build, as for the nested loop."""
        text = (
            "FOR rhs IN [[{id: 7, items: [{k: 1}]}, {id: 8, items: [{k: 2}]}]] "
            "LET hits = (FOR l IN lhs FOR r IN rhs FOR it IN r.items "
            "FILTER it.k == l.k RETURN [l._id, r.id]) RETURN hits"
        )
        got = _assert_modes_agree(tables, text)
        assert got == repr([[[0, 7], [1, 7], [2, 7], [14, 8]]])


class _IndexedTables(_Tables):
    """_Tables with a working equality index on every field."""

    def index_lookup(self, collection, field, value):
        return [d for d in self.collections[collection] if d.get(field) == value]


# rhs row 2 matches no lhs key, and `.z` on its string name raises.
FILTER_ORDER = _Tables(
    lhs=[{"_id": 1, "k": 1}],
    rhs=[
        {"_id": 1, "k": 1, "name": {"z": 1},
         "items": [{"k": 1, "name": {"z": 1}}, {"k": 2, "name": "bare"}]},
        {"_id": 2, "k": 2, "name": "bare", "items": []},
    ],
)


class TestFilterOrder:
    def test_join_equality_after_another_filter_stays_a_nested_loop(self):
        """The loop runs an earlier FILTER on every (outer, block) pair; a
        hash join would run it only on matched pairs, so an earlier FILTER
        that raises on an unmatched pair would raise only per-row."""
        text = (
            "FOR l IN lhs FOR r IN rhs FOR it IN r.items "
            "FILTER it.name.z == 1 FILTER it.k == l.k RETURN [l._id, r._id]"
        )
        assert "HashJoin" not in plan(parse(text)).describe()
        for flags in EXECUTION_MODES.values():
            with pytest.raises(ExecutionError, match=r"\.z on str"):
                Executor(FILTER_ORDER, **flags).execute(text)
        first = (
            "FOR l IN lhs FOR r IN rhs FOR it IN r.items "
            "FILTER it.k == l.k FILTER it.name.z == 1 RETURN [l._id, r._id]"
        )
        assert "HashJoin r, it" in plan(parse(first)).describe()
        assert _assert_modes_agree(FILTER_ORDER, first) == repr([[1, 1]])

    def test_index_fallback_binds_what_an_index_would(self):
        """The documented caveat: without a usable index the batch prober
        binds only matching rows, like a real index does in every mode,
        while the per-row engine re-scans and runs the earlier FILTER on
        every row."""
        text = (
            "FOR l IN lhs FOR r IN rhs FILTER r.name.z > 0 "
            "FILTER r.k == l.k RETURN [l._id, r._id]"
        )
        assert "IndexEqLookup [index: rhs.k == l.k]" in plan(parse(text)).describe()
        indexed = _IndexedTables(**FILTER_ORDER.collections)
        assert _assert_modes_agree(indexed, text) == repr([[1, 1]])
        for mode, flags in EXECUTION_MODES.items():
            executor = Executor(FILTER_ORDER, **flags)
            if flags.get("use_batches", True):
                assert executor.execute(text) == [[1, 1]], mode
            else:
                with pytest.raises(ExecutionError, match=r"\.z on str"):
                    executor.execute(text)


@pytest.fixture(scope="module")
def stores():
    """Every key in a real store, with and without an index on rhs.k."""
    drivers = {}
    for indexed in (False, True):
        driver = UnifiedDriver()
        driver.create_collection("lhs")
        driver.create_collection("rhs")

        def body(s):
            for i, key in enumerate(KEYS):
                s.doc_insert("lhs", _doc(i, key))
                s.doc_insert("rhs", _doc(i, key, with_items=True))

        driver.run_transaction(body)
        if indexed:
            driver.create_index("collection", "rhs", "k")
        drivers[indexed] = driver
    return drivers


@pytest.mark.parametrize("shape", sorted(JOINS))
@pytest.mark.parametrize("indexed", [False, True], ids=["no-index", "index"])
@pytest.mark.parametrize("use_indexes", [True, False])
def test_real_store_agrees_with_nested_loop(stores, shape, indexed, use_indexes):
    """Byte-identical across execution modes on each store; the same rows
    (in access-path order) with an index probe, a hash build or none.

    The index stores no null or container values, so a probe with one
    must fall back rather than answer from the index (it used to return
    nothing for null and raise for a list)."""
    driver = stores[indexed]
    by_mode = {
        mode: driver.query(JOINS[shape], use_indexes=use_indexes, **flags)
        for mode, flags in EXECUTION_MODES.items()
    }
    assert len({repr(rows) for rows in by_mode.values()}) == 1, by_mode
    oracle = stores[False].query(JOINS[shape], use_indexes=False)
    assert sorted(map(repr, by_mode["fused"])) == sorted(map(repr, oracle))


def test_index_probe_with_null_or_container_key_falls_back(stores):
    driver = stores[True]
    text = "FOR r IN rhs FILTER r.k == @v RETURN r._id"
    for value, expected in ((None, [4, 5]), ([1, 2], [15, 16, 17]), ({"a": 1}, [19, 20])):
        assert driver.query(text, {"v": value}) == expected
        assert driver.query(text, {"v": value}, use_indexes=False) == expected


# A small pool of awkward values for generated key lists.
_POOL = st.sampled_from([
    0, 1, 1.0, True, False, -0.0, 2, "1", "", None, SHARED_NAN,
    [1], [1.0], [True], [SHARED_NAN], {"a": 1}, {"a": 1.0}, {},
])
_KEYS = st.lists(st.one_of(_POOL, st.just(MISSING)), max_size=7)


@settings(max_examples=60, deadline=None)
@given(left=_KEYS, right=_KEYS)
def test_generated_keys_agree_with_nested_loop(left, right):
    ctx = _Tables(
        lhs=[_doc(i, key) for i, key in enumerate(left)],
        rhs=[_doc(i, key, with_items=True) for i, key in enumerate(right)],
    )
    for text in JOINS.values():
        _assert_modes_agree(ctx, text, use_indexes=False)
    literal = "FOR a IN @left FOR b IN @right FILTER a == b RETURN [a, b]"
    params = {
        "left": [k for k in left if k is not MISSING],
        "right": [k for k in right if k is not MISSING],
    }
    _assert_modes_agree(None, literal, params)


# ---------------------------------------------------------------------------
# One scan per collection per execution for the paper's workload
# ---------------------------------------------------------------------------


class _CountingContext:
    """Delegates to a real query context, counting scans per collection."""

    def __init__(self, inner):
        self._inner = inner
        self.scans: dict[str, int] = {}

    def iter_collection(self, name):
        self.scans[name] = self.scans.get(name, 0) + 1
        return self._inner.iter_collection(name)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def sf001():
    """The SF 0.01 workload data in a store with its indexes and one without."""
    dataset = DatasetGenerator(GeneratorConfig(seed=42, scale_factor=0.01)).generate()
    stores = {}
    for indexed in (True, False):
        driver = UnifiedDriver()
        load_dataset(driver, dataset, with_indexes=indexed)
        stores[indexed] = driver
    return stores, dataset


@pytest.mark.parametrize("indexed", [True, False], ids=["indexes", "no-indexes"])
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
def test_each_collection_scanned_at_most_once(sf001, query, indexed):
    stores, dataset = sf001
    ctx = stores[indexed].query_context()
    try:
        counting = _CountingContext(ctx)
        executor = Executor(counting)
        executor.execute(query.text, query.params(dataset))
    finally:
        ctx.close()
    assert all(n == 1 for n in counting.scans.values()), counting.scans
    assert executor.stats["scans"] == sum(counting.scans.values())
    if query.query_id in ("Q2", "Q4"):
        if indexed:
            assert executor.stats["index_fallbacks"] == 0
        else:
            # Their IndexEqLookup finds no index and builds a hash table.
            assert executor.stats["index_fallbacks"] > 0
            assert counting.scans.get("orders") == 1


def test_index_ablation_still_scans_per_probe(sf001):
    """``use_indexes=False`` is the E1 ablation baseline: index access
    paths scan per probe instead of hash-building, and count no fallback."""
    stores, dataset = sf001
    q2 = next(q for q in QUERIES if q.query_id == "Q2")
    ctx = stores[True].query_context()
    try:
        executor = Executor(ctx, use_indexes=False)
        executor.execute(q2.text, q2.params(dataset))
    finally:
        ctx.close()
    assert executor.stats["index_fallbacks"] == 0
    assert executor.stats["scans"] > 2


def test_workload_plans_keep_their_index_lookups():
    """Only Q7 gains a HashJoin; Q2 and Q4 keep their IndexEqLookup."""
    by_id = {q.query_id: plan(parse(q.text)) for q in QUERIES}
    joined = {qid for qid, p in by_id.items() if "HashJoin" in p.describe()}
    assert joined == {"Q7"}
    for qid in ("Q2", "Q4"):
        assert "IndexEqLookup [index: orders.customer_id" in by_id[qid].describe()


# ---------------------------------------------------------------------------
# ANALYZE shows fallbacks and the join's build side
# ---------------------------------------------------------------------------


def test_analyze_shows_index_fallback_and_build_rows(loaded_unified, small_dataset):
    q7 = next(q for q in QUERIES if q.query_id == "Q7")
    report = loaded_unified.explain_analyze(q7.text, q7.params(small_dataset))
    stats = next(line for line in report.splitlines() if line.startswith("stats:"))
    # products.vendor_id has no index: one fallback per vendor probe.
    assert f"index_fallbacks={len(small_dataset.vendors)}" in stats
    assert "index_lookups=0" in stats
    join = next(line for line in report.splitlines() if "HashJoin" in line)
    items = sum(len(o["items"]) for o in small_dataset.orders)
    assert re.search(r"\(rows=\d+, batches=\d+, build_rows=(\d+), probes=(\d+)\)", join)
    assert f"build_rows={items}" in join
    assert f"probes={len(small_dataset.products)}" in join


def test_indexed_probe_reports_no_fallback(loaded_unified):
    report = loaded_unified.explain_analyze(
        "FOR o IN orders FILTER o.status == 'shipped' RETURN o._id"
    )
    assert "index_fallbacks=0" in report


def test_fallback_metric_is_exported(small_dataset):
    driver = UnifiedDriver()
    load_dataset(driver, small_dataset)
    q7 = next(q for q in QUERIES if q.query_id == "Q7")
    driver.query(q7.text, q7.params(small_dataset))
    flat = repr(driver.metrics())
    assert "repro_exec_index_fallbacks_total" in flat
    assert "scan_cache" not in flat


def test_per_row_fallback_is_counted_too(tables):
    executor = Executor(tables, use_batches=False)
    executor.execute(JOINS["index_fallback"])
    assert executor.stats["index_fallbacks"] == len(KEYS)
