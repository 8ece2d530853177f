"""The three named workloads: system set-up and seeded operation streams.

Every workload runs the paper's shared workload (queries Q1-Q10 and
transactions T1-T4 of :mod:`repro.core.workloads`) against one system
set-up, with its own operation mix.  The dataset is fixed (SF 0.1,
generator seed 7); the workload seed chooses the order of operations
and draws the parameters of every call, so the same seed always yields
the same operation sequence.  Parameters are drawn without replacement
(:class:`Deck`): a run of a hundred rounds uses each of the 100
customers about once as Q4's customer, where independent draws would
leave a third of them out and repeat others, and Q4's and Q9's cost
depends much on which customers they get.

A workload is a list of phases, each a share of the timed window filled
with whole rounds (at least one) of an endless stream; how far into a
stream a run gets depends on the speed of the system, which operations
come in what order does not.  T1 inserts orders and T4 adds friendships,
so the data grows by a few rows per round that holds transactions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.datagen.generator import Dataset
from repro.util.rng import DeterministicRng, derive_seed

SCALE_FACTOR = 0.1
DATASET_SEED = 7
QUERY_IDS = tuple(f"Q{i}" for i in range(1, 11))
TXN_IDS = ("T1", "T2", "T3", "T4")
POINT_QUERY_IDS = ("Q1", "Q9", "Q10")
ANALYTIC_QUERY_IDS = tuple(f"Q{i}" for i in range(2, 9))


@dataclass(frozen=True)
class Op:
    """One call the benchmark makes: a query or a transaction."""

    kind: str  # "query" | "txn"
    template: str  # Q1..Q10 | T1..T4
    params: dict[str, Any] = field(default_factory=dict)
    seq: int = 0  # transaction sequence number (T1's order id, body rng)
    session: bool = False  # read with the client's session token


def _order_ids(ds: Dataset) -> list[Any]:
    return [o["_id"] for o in ds.orders]


def _customer_ids(ds: Dataset) -> list[Any]:
    return [c["id"] for c in ds.customers]


# template -> parameter -> the values it is drawn from (Q5 and Q7 take none).
PARAM_DOMAINS: dict[str, dict[str, Callable[[Dataset], list[Any]]]] = {
    "Q1": {"order_id": _order_ids},
    "Q2": {"country": lambda ds: [c["country"] for c in ds.customers]},
    "Q3": {"product_id": lambda ds: [i["product_id"] for o in ds.orders for i in o["items"]]},
    "Q4": {"customer_id": _customer_ids},
    "Q6": {"threshold": lambda ds: [o["total_price"] for o in ds.orders]},
    "Q8": {"category": lambda ds: [p["category"] for p in ds.products]},
    "Q9": {"src": _customer_ids, "dst": _customer_ids},
    "Q10": {"order_id": _order_ids},
}


class Deck:
    """Values dealt without replacement in a seeded order and reshuffled
    once all are dealt, so a run covers a parameter's values evenly."""

    def __init__(self, values: list[Any], rng: DeterministicRng) -> None:
        self.values = values
        self.rng = rng
        self._left: list[Any] = []

    def deal(self) -> Any:
        if not self._left:
            self._left = self.rng.shuffle(list(self.values))
        return self._left.pop()


class QueryParams:
    """Parameters of query calls: each (template, parameter) deals from
    its own deck, all shuffled by one seeded generator."""

    def __init__(self, ds: Dataset, rng: DeterministicRng) -> None:
        self.ds = ds
        self.rng = rng
        self._decks: dict[tuple[str, str], Deck] = {}

    def __call__(self, template: str) -> dict[str, Any]:
        params = {}
        for name, domain in PARAM_DOMAINS.get(template, {}).items():
            deck = self._decks.get((template, name))
            if deck is None:
                deck = self._decks[(template, name)] = Deck(domain(self.ds), self.rng)
            params[name] = deck.deal()
        return params


class Streams:
    """Seeded operation streams over one dataset.

    Each stream draws the parameters of every query call from its own
    seeded decks; transactions are numbered in call order, warm calls
    first.
    """

    def __init__(self, ds: Dataset, seed: int) -> None:
        self.ds = ds
        self.seed = seed
        self._seq = itertools.count(1)

    def rng(self, label: str) -> DeterministicRng:
        return DeterministicRng(derive_seed(self.seed, label))

    def _queries(self, label: str, session: bool = False) -> Callable[[str], Op]:
        """A factory of query calls whose parameters come from *label*'s rng."""
        params = QueryParams(self.ds, self.rng(label))
        return lambda template: Op("query", template, params(template), session=session)

    def txn(self, template: str) -> Op:
        return Op("txn", template, seq=next(self._seq))

    def warm(self) -> list[Op]:
        """One call of every template, run untimed at the end of set-up."""
        query = self._queries("warm")
        return [query(q) for q in QUERY_IDS] + [self.txn(t) for t in TXN_IDS]

    def analytics(self) -> Iterator[list[Op]]:
        """Q1-Q10 once each in a seeded order."""
        rng, query = self.rng("rounds"), self._queries("params")
        while True:
            yield [query(q) for q in rng.shuffle(list(QUERY_IDS))]

    def transactions(self) -> Iterator[list[Op]]:
        """T1-T4 once each in a seeded order."""
        rng = self.rng("transactions")
        while True:
            yield [self.txn(t) for t in rng.shuffle(list(TXN_IDS))]

    def sharded_mixed(self) -> Iterator[list[Op]]:
        """Q1-Q10 once each in a seeded order, each query right after one
        transaction cycling through T1-T4."""
        rng, query = self.rng("rounds"), self._queries("params")
        txns = itertools.cycle(TXN_IDS)
        while True:
            yield [op for q in rng.shuffle(list(QUERY_IDS))
                   for op in (self.txn(next(txns)), query(q))]

    def replicated_oltp(self) -> Iterator[list[Op]]:
        """Three blocks of four transactions (T1-T4 three times each, in a
        seeded order) and one session point read (Q1, Q9, Q10), with
        session reads of Q2-Q8 between the blocks."""
        rng, query = self.rng("rounds"), self._queries("params", session=True)
        while True:
            txns = [self.txn(t) for t in rng.shuffle(list(TXN_IDS * 3))]
            points = [query(q) for q in rng.shuffle(list(POINT_QUERY_IDS))]
            analytic = [query(q) for q in rng.shuffle(list(ANALYTIC_QUERY_IDS))]
            blocks = [txns[4 * i:4 * i + 4] + [points[i]] for i in range(3)]
            yield (blocks[0] + analytic[:2] + blocks[1] + analytic[2:5]
                   + blocks[2] + analytic[5:])


@dataclass(frozen=True)
class Phase:
    """A share of the timed window, filled with whole rounds of a stream."""

    share: float
    rounds: Callable[[Streams], Iterator[list[Op]]]


@dataclass(frozen=True)
class Workload:
    """One system set-up, its oracle driver and its phases.

    Why each workload was chosen, and which layer metrics should move
    which end-to-end metrics on it, is recorded in ``perfbench/README.md``.
    """

    name: str
    make_driver: Callable[[], Any]
    oracle: str  # "polyglot" | "unified"
    phases: tuple[Phase, ...]


def _unified() -> Any:
    from repro.drivers.unified import UnifiedDriver

    return UnifiedDriver()


def _sharded_processes() -> Any:
    from repro.cluster.sharded import ShardedDatabase

    return ShardedDatabase(n_shards=4, pool="processes")


def _replicated() -> Any:
    from repro.cluster.sharded import ShardedDatabase
    from repro.replication.replicaset import ReplicaSetConfig

    return ShardedDatabase(
        n_shards=4,
        pool="threads",
        replication=ReplicaSetConfig(3, write_acks="majority", read_preference="session"),
    )


# unified-analytics is read only, but every workload must report the
# transaction metrics too, so it closes with back-to-back T1-T4 rounds.
# The two cluster workloads hold transactions in every round.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("unified-analytics", _unified, "polyglot",
                 (Phase(0.8, Streams.analytics), Phase(0.2, Streams.transactions))),
        Workload("sharded-mixed", _sharded_processes, "unified",
                 (Phase(1.0, Streams.sharded_mixed),)),
        Workload("replicated-oltp", _replicated, "unified",
                 (Phase(1.0, Streams.replicated_oltp),)),
    )
}
