"""The benchmark's own tests: seeded determinism, the answer check and span
self times.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.harness import (  # noqa: E402
    answer_digest,
    compare,
    generate_dataset,
    run_benchmark,
)
from perfbench.hostspeed import REFERENCE_S, WINDOW_S, HostSpeed  # noqa: E402
from perfbench.layers import COUNTS, PER_LAYER  # noqa: E402
from perfbench.tracing import Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Deck, Op, Streams  # noqa: E402
from repro.util.rng import DeterministicRng  # noqa: E402


def _schedule(name: str, seed: int, rounds: int = 3) -> list:
    streams = Streams(generate_dataset(), seed)
    ops = streams.warm()
    for phase in WORKLOADS[name].phases:
        ops += [op for chunk in itertools.islice(phase.rounds(streams), rounds) for op in chunk]
    return ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_operations_and_parameters(name):
    first = _schedule(name, 5)
    assert first == _schedule(name, 5)
    assert first != _schedule(name, 6)


def test_deck_deals_every_value_once_before_repeating():
    deck = Deck(list(range(10)), DeterministicRng(1))
    first, second = [deck.deal() for _ in range(10)], [deck.deal() for _ in range(10)]
    assert sorted(first) == sorted(second) == list(range(10))
    assert first != second


def test_host_speed_scales_by_the_median_sample_near_the_call():
    speed = HostSpeed()
    speed.at = [0.0, 0.1, 0.2, 10.0, 10.1]
    speed.took = [REFERENCE_S * 2, REFERENCE_S * 2, REFERENCE_S * 8, REFERENCE_S, REFERENCE_S]
    assert speed.scale(0.1, 0.15) == pytest.approx(0.5)
    assert speed.scale(10.05, 10.06) == pytest.approx(1.0)
    assert speed.scale(5.0, 5.0 + WINDOW_S) == pytest.approx(1.0)  # none near: the nearest


def test_sort_answers_may_reorder_only_rows_tied_on_the_key():
    q2 = Op("query", "Q2", {"country": "x"})
    oracle = [{"cid": 1, "revenue": 10.0}, {"cid": 2, "revenue": 10.0}, {"cid": 3, "revenue": 5.0}]
    expected = answer_digest(q2, oracle)
    assert compare(answer_digest(q2, list(oracle)), expected) == "match"
    tie_swapped = [oracle[1], oracle[0], oracle[2]]
    assert compare(answer_digest(q2, tie_swapped), expected) == "tie_reordered"
    ascending = [oracle[2], oracle[0], oracle[1]]
    assert compare(answer_digest(q2, ascending), expected) == "differs"
    assert compare(answer_digest(q2, oracle[:2]), expected) == "differs"


def test_answers_without_sort_compare_as_multisets():
    q4 = Op("query", "Q4", {"customer_id": 1})
    expected = answer_digest(q4, ["p1", "p2", "p3"])
    assert compare(answer_digest(q4, ["p3", "p1", "p2"]), expected) == "match"
    assert compare(answer_digest(q4, ["p3", "p1"]), expected) == "differs"


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs of the same seed and the same number of rounds
    (one unwrapped, one wrapped)."""
    return [
        run_benchmark(WORKLOADS["sharded-mixed"], 3, rounds=2, trace=True, setups=1)
        for _ in range(2)
    ]


def test_traced_runs_are_correct_and_report_every_layer_metric(traced_pair):
    for outcome in traced_pair:
        assert outcome.correct, outcome.checks
        assert set(outcome.metrics) == set(PER_LAYER)


def test_same_seed_same_count_metrics(traced_pair):
    first, second = traced_pair
    assert first.metrics["cluster.frames_per_query"] > 0
    assert first.metrics["engine.wal_bytes_per_txn"] > 0
    assert first.metrics["query.rows_scanned_per_row_returned"] > 0
    assert {k: first.metrics[k] for k in COUNTS} == {k: second.metrics[k] for k in COUNTS}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _span(sid: int, parent: Span | None, start: float, end: float, client: bool = True) -> Span:
    span = Span(sid, parent, 0, f"s{sid}", client)
    span.start, span.end, span.busy = start, end, end - start
    return span


def test_self_time_is_duration_minus_child_coverage():
    root = _span(1, None, 0.0, 10.0)
    a = _span(2, root, 1.0, 4.0)
    b = _span(3, root, 5.0, 6.5)
    leaf = _span(4, a, 2.0, 3.0)
    helper = _span(5, b, 5.0, 9.0, client=False)  # concurrent, another thread
    selfs = self_times([root, a, b, leaf, helper])
    assert selfs[1] == pytest.approx(10.0 - _union([(1.0, 4.0), (5.0, 6.5)]))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.5)  # the helper thread's span is not subtracted
    assert selfs[5] == pytest.approx(4.0)


def test_traced_span_tree_self_times_sum_to_no_more_than_the_root(traced_pair):
    tracer = traced_pair[0].tracer
    spans = [s for s in tracer.spans if s.op is not None]
    selfs = self_times(spans)
    by_op: dict[int, list[Span]] = {}
    for span in spans:
        by_op.setdefault(span.op, []).append(span)
    assert by_op
    for ops_spans in by_op.values():
        roots = [s for s in ops_spans if s.parent is None]
        assert len(roots) == 1 and roots[0].name.startswith("drivers.")
        client = [s for s in ops_spans if s.client]
        assert sum(selfs[s.sid] for s in client) <= roots[0].busy + 1e-9
        for span in client:
            assert selfs[span.sid] >= -1e-9
            children = [c for c in client if c.parent is span]
            if all(c.rows == 0 for c in children):
                covered = _union([(c.start, c.end) for c in children])
                assert selfs[span.sid] == pytest.approx(span.busy - covered, abs=1e-9)


def test_drained_iterator_is_busy_only_inside_next():
    tracer = Tracer()
    root = tracer.begin("root")
    rows = tracer.drained("scan", iter(range(3)))
    assert list(rows) == [0, 1, 2]
    tracer.finish(root)
    scan = next(s for s in tracer.spans if s.name == "scan")
    assert scan.parent is root and scan.rows == 3
    assert 0.0 <= scan.busy <= scan.end - scan.start + 1e-9
