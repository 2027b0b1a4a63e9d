"""The five workloads: what each one sets up, sends and checks.

All of them serve satisfiable covered queries over one TFACC instance (scale
200, the same data under every seed; the seed draws the queries' keys, the
request sequence and the write stream) in a closed loop, and each puts the
time somewhere else:

============  ==========================================================
``hot_hits``    64 queries that fit every cache: a read is fingerprint,
                plan-store probe, clock snapshot and result-cache probe.
``plan_churn``  14 point queries replayed cyclically through a 12-entry
                LRU plan store: every read misses and pays C2-C4 in full.
``exec_miss``   the ``hot_hits`` traffic with the result cache off: the
                plan store always hits, so kernels are all that is left.
``served_mix``  64 point queries behind ``BoundedServer``, two clients,
                10 % write batches that hit rows the queries read.
``federated``   64 point queries scattered over three shards, caches off.
============  ==========================================================
"""

from __future__ import annotations

import asyncio
import copy
import random
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

from repro.core.engine import BoundedEngine
from repro.discovery.maintenance import Update
from repro.evaluator.algebra import evaluate
from repro.serving.server import BoundedServer, ReadRequest, WriteRequest
from repro.sharding.router import build_topology
from repro.sharding.shards import SQLiteShard

from .queries import POINT, BenchQuery, ShapeCatalog, WitnessQueryGenerator

SCALE = 200
#: The seed of the data, whatever the seed of the run.  The paper measures
#: generated queries over fixed datasets, and so does this: what a wide query
#: costs follows the group sizes of the instance, and with one instance per
#: seed p95 and the rate of ``exec_miss`` differed by 13-18 % between seeds
#: (interquartile range over median) on an otherwise quiet machine.
DATA_SEED = 7

#: the hot set: 64 distinct plans is also the size of the executor's
#: compiled-kernel memo, so no read of it ever recompiles
HOT_POINT, HOT_WIDE = 51, 13
#: share of reads drawn from the point queries ("80/20")
POINT_SHARE = 0.8
#: A plan store of 12 entries and a cycle of 14 queries.  A read takes 35 ms,
#: too long to fall between two disturbances of the machine, so what steadies
#: it is how often each request is replayed: with the default store of 128
#: and 136 queries a replay took 7 s and a run held two or three, with 32 and
#: 40 it held ten (times spread by 0.04-0.22 between runs), with 12 and 14 it
#: holds twenty-five.  What a read does is the same: probe, miss, prepare,
#: put, evict.
CHURN_STORE, CHURN_QUERIES = 12, 14
#: the cycle takes every third point query, which keeps plans of no, one and
#: two joins in it (the first fourteen would all be single-relation queries)
CHURN_STRIDE = 3
#: One read in nine then queues behind a write, which puts p95 well inside
#: the queued reads.  At 5 % it sat on the edge between queued and unqueued
#: reads and jumped between 1 and 13 ms from run to run.
WRITE_SHARE = 0.10
#: updates per write batch, half of them on rows a hot query reads
WRITE_BATCH = 6
CLIENTS = 2
#: served operations replayed under the reference audit after the timed replays
AUDITED_OPS = 150


@dataclass
class Budget:
    """How long one measured stretch lasts: a duration, an op count, or both."""

    seconds: float | None = None
    ops: int | None = None

    def limits(self, cursor: int) -> tuple[int, int]:
        """``(last op index + 1, deadline in perf_counter_ns)``."""
        stop = cursor + self.ops if self.ops is not None else sys.maxsize
        deadline = (
            perf_counter_ns() + int(self.seconds * 1e9)
            if self.seconds is not None
            else sys.maxsize
        )
        return stop, deadline


@dataclass
class Stretch:
    """What one measured stretch of a workload produced."""

    #: latencies as compact arrays: a list of 400 000 int objects would add
    #: 15 MB to the peak RSS this benchmark reports
    read_ns: array = field(default_factory=lambda: array("q"))
    write_ns: array = field(default_factory=lambda: array("q"))
    #: where in the request sequence each of those operations stands
    read_at: array = field(default_factory=lambda: array("i"))
    write_at: array = field(default_factory=lambda: array("i"))
    wall_ns: int = 0
    failed: int = 0
    #: the first failure, for the report
    error: str | None = None

    @property
    def ops(self) -> int:
        return len(self.read_ns) + len(self.write_ns) + self.failed

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.error is None:
            self.error = reason


class Workload:
    """One traffic mix against one freshly built system."""

    name = ""
    #: Requests before the sequence repeats.  An untraced run replays the
    #: sequence whole, as often as its time allows; sized so that one replay
    #: takes about 0.4 s and holds enough reads for a p95.
    period = 0
    #: Untimed replays before the timed ones, to reach the state the system
    #: stays in: the latency windows of ``RouterMetrics`` and
    #: ``ServingMetrics`` trim on every observation once they hold 8192
    #: samples, and a minimum over replays would report the state before.
    settle = 1
    #: callers that each wait for a reply before they send their next request
    clients = 1

    def __init__(self, catalog: ShapeCatalog, seed: int):
        self.catalog = catalog
        self.spec = catalog.spec
        self.seed = seed
        self.queries: list[BenchQuery] = []
        #: index of the next request of the (cyclic) sequence
        self.cursor = 0

    def set_up(self) -> None:
        """Everything up to the first timed operation."""
        raise NotImplementedError

    def run(self, budget: Budget, tracer=None) -> Stretch:
        """Send requests in a closed loop until ``budget`` is spent."""
        raise NotImplementedError

    def verify(self) -> tuple[int, str | None]:
        """Compare what was served with the reference evaluator: ``(wrong, first)``."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """The program's own monotone counters that per-layer metrics diff."""
        return {}

    def close(self) -> None:
        pass


class DirectReads(Workload):
    """Read-only traffic, one caller, straight into ``execute`` of an engine or router."""

    warm_up = True

    def build(self, database):
        """The system under test: an engine or a router."""
        raise NotImplementedError

    def draw(self, generator: WitnessQueryGenerator) -> list[BenchQuery]:
        return generator.tagged(HOT_POINT, HOT_WIDE)

    def order(self, rng: random.Random) -> list[int]:
        """Query ids of one period of the request sequence.

        Every query of a class is asked for as often as the others, and the
        seed shuffles the order.  Drawn independently, a wide query came up
        between 20 and 44 times in 2048 requests, and p95, which lies among
        the wide queries, moved from one query's latency to the next one's.
        """
        point = [i for i, q in enumerate(self.queries) if q.tag == POINT]
        wide = [i for i, q in enumerate(self.queries) if q.tag != POINT]
        to_point = round(self.period * POINT_SHARE) if wide else self.period
        drawn = evenly(point, to_point) + evenly(wide, self.period - to_point)
        rng.shuffle(drawn)
        return drawn

    def set_up(self) -> None:
        self.database = self.spec.database(SCALE, DATA_SEED)
        self.system = self.build(self.database)
        self.queries = self.draw(
            WitnessQueryGenerator(self.catalog, self.database, self.seed)
        )
        self.requests = [
            (qid, self.queries[qid].query) for qid in self.order(random.Random(self.seed))
        ]
        if self.warm_up:
            for bench in self.queries:
                self.system.execute(bench.query)
        #: qid -> the last result served for it, and the most tuples it ever fetched
        self.last: dict[int, object] = {}
        self.most_fetched: dict[int, int] = {}

    def run(self, budget: Budget, tracer=None) -> Stretch:
        stretch = Stretch()
        # looked up per stretch: a traced stretch must get the wrapped method
        requests, execute = self.requests, self.system.execute
        last, most_fetched = self.last, self.most_fetched
        period = len(requests)
        index = self.cursor
        stop, deadline = budget.limits(index)
        began = perf_counter_ns()
        while index < stop:
            at = index % period
            qid, query = requests[at]
            if tracer is not None:
                tracer.op = index
            index += 1
            started = perf_counter_ns()
            try:
                result = execute(query)
            except Exception as error:  # a failed read must not end the run
                stretch.fail(f"read raised {error!r}")
                if perf_counter_ns() >= deadline:
                    break
                continue
            ended = perf_counter_ns()
            stretch.read_ns.append(ended - started)
            stretch.read_at.append(at)
            last[qid] = result
            fetched = result.counter.total
            if fetched > most_fetched.get(qid, -1):
                most_fetched[qid] = fetched
            if ended >= deadline:
                break
        stretch.wall_ns = perf_counter_ns() - began
        self.cursor = index
        return stretch

    def verify(self) -> tuple[int, str | None]:
        wrong, first = 0, None
        for qid, result in sorted(self.last.items()):
            problem = audit(
                self.queries[qid].query, result, self.database, self.most_fetched[qid]
            )
            if problem is not None:
                wrong += 1
                first = first or problem
        return wrong, first


def evenly(ids: list[int], count: int) -> list[int]:
    """``count`` requests for ``ids``, each asked for as often as the others."""
    if not ids:
        return []
    each, extra = divmod(count, len(ids))
    return [i for i in ids for _ in range(each)] + ids[:extra]


def audit(query, result, database, fetched: int, *, may_be_empty: bool = False) -> str | None:
    """What is wrong with ``result`` as an answer to ``query`` on ``database``, if anything.

    The answer must equal the reference evaluator's, must not be empty (the
    generator promised a witness) unless a write may have deleted the
    witness, and must have been computed within the plan's ``access_bound()``.
    """
    reference = evaluate(query, database).rows
    if not reference and not may_be_empty:
        return f"reference answer is empty: {query}"
    if result.rows != reference:
        return (
            f"served {len(result.rows)} rows, reference has {len(reference)}: {query}"
        )
    bound = result.plan.access_bound()
    if fetched > bound:
        return f"fetched {fetched} tuples, access_bound() is {bound}: {query}"
    return None


class HotHits(DirectReads):
    name = "hot_hits"
    period = 16384

    def build(self, database):
        return BoundedEngine(database, self.spec.access_schema)


class ExecMiss(DirectReads):
    name = "exec_miss"
    period = 2048

    def build(self, database):
        return BoundedEngine(database, self.spec.access_schema, result_cache_size=0)


class PlanChurn(DirectReads):
    name = "plan_churn"
    #: one replay of the cycle takes 0.5 s
    period = CHURN_QUERIES
    #: a warm-up would only fill the plan store with entries the replay evicts
    warm_up = False
    settle = 0

    def build(self, database):
        return BoundedEngine(
            database, self.spec.access_schema, plan_cache_size=CHURN_STORE
        )

    def draw(self, generator):
        # point queries: executing one takes 50 us, so a read is its prepare
        return generator.tagged(CHURN_QUERIES * CHURN_STRIDE, 0)[::CHURN_STRIDE]

    def order(self, rng):
        # one fixed cycle, so the LRU store has always evicted the next query
        return rng.sample(range(len(self.queries)), len(self.queries))


class Federated(DirectReads):
    """Point queries only: the row-only ``FederatedExecutor`` took 7-10 s and
    680 MB for one wide read, which would make this a one-query benchmark."""

    name = "federated"
    period = 2048
    #: 5.4 shard fetches per read fill three windows of 8192 in 2.2 replays
    settle = 3

    def build(self, database):
        return build_topology(
            database, self.spec.access_schema, shards=3, result_cache_size=0
        )

    def draw(self, generator):
        return generator.tagged(HOT_POINT + HOT_WIDE, 0)

    def counters(self):
        metrics = self.system.metrics
        return {
            "router.shard_fetches": metrics.shard_fetches,
            "router.scatters": metrics.scatters,
            "router.broadcasts": metrics.broadcasts,
            "router.merge_rows": metrics.merge_rows,
            "router.snapshot_retries": metrics.snapshot_retries,
            "shard_memory.partial_hits": metrics.shard_cache_hits,
            "shard_memory.partial_misses": metrics.shard_cache_misses,
        }

    def close(self):
        for shard in self.system.shards:
            if isinstance(shard, SQLiteShard):
                shard.close()


def _write(kind: Callable, rows: list[tuple[str, tuple]]) -> WriteRequest:
    return WriteRequest(tuple(kind(relation, row) for relation, row in rows))


class ServedMix(Workload):
    """Reads and hot-key writes through ``BoundedServer``, two closed-loop clients.

    Writes come in pairs: one batch deletes six stored rows, the next one
    inserts them again.  Any subset of a database that satisfies the access
    schema satisfies it too, so no interleaving of these batches can violate
    a constraint, and each batch changes what is stored — a delete and its
    re-insert in *one* batch would leave every index group as it was, and the
    repair path would re-stamp entries instead of patching them.  Three rows
    of every pair are witness rows of hot queries, so some cached result
    provably loses and regains a row.

    The queries are point queries only.  Repairs always run row kernels, and
    re-executing one dirty wide entry that way takes 110-260 ms: with the
    ``hot_hits`` set, write latency was a draw of which wide entry a batch
    dirtied (p50 30-290 ms from seed to seed).
    """

    name = "served_mix"
    period = 1024
    clients = CLIENTS

    def set_up(self) -> None:
        self.database = self.spec.database(SCALE, DATA_SEED)
        self.engine = BoundedEngine(self.database, self.spec.access_schema)
        self.server = BoundedServer(self.engine)
        rng = random.Random(self.seed)
        self.queries = WitnessQueryGenerator(
            self.catalog, self.database, self.seed
        ).tagged(HOT_POINT + HOT_WIDE, 0)
        hot_rows = sorted(
            {
                (relation, row)
                for bench in self.queries
                for relation, row in zip(bench.shape.relations, bench.witness)
            }
        )
        hot = set(hot_rows)
        cold_rows = [
            (relation.schema.name, row)
            for relation in self.database
            for row in relation.rows
            if (relation.schema.name, row) not in hot
        ]
        #: (qid or None for a write, request); every slot has its own payload
        #: object, which is how a traced run tells two requests apart
        self.ops: list[tuple[int | None, object]] = []
        # as many write batches as the share asks for, an even number of them
        # (the sequence is cyclic: it ends with every row stored), at places
        # the seed picks; the reads between them ask for every query equally often
        writes = 2 * round(self.period * WRITE_SHARE / 2)
        write_at = set(rng.sample(range(self.period), writes))
        reads = evenly(list(range(len(self.queries))), self.period - writes)
        rng.shuffle(reads)
        deleted: list[tuple[str, tuple]] = []
        for at in range(self.period):
            if at not in write_at:
                qid = reads.pop()
                self.ops.append((qid, ReadRequest(copy.copy(self.queries[qid].query))))
            elif deleted:
                self.ops.append((None, _write(Update.insert, deleted)))
                deleted = []
            else:
                deleted = rng.sample(hot_rows, WRITE_BATCH // 2) + rng.sample(
                    cold_rows, WRITE_BATCH - WRITE_BATCH // 2
                )
                self.ops.append((None, _write(Update.delete, deleted)))
        for bench in self.queries:
            self.engine.execute(bench.query)
        self.wrong = 0
        self.first_wrong: str | None = None

    def run(self, budget: Budget, tracer=None) -> Stretch:
        # a traced submit numbers its own operations: the tracer is not needed
        return asyncio.run(self._serve(budget, self.ops))

    async def _serve(self, budget: Budget, ops: list) -> Stretch:
        stretch = Stretch()
        server = self.server
        period = len(ops)
        stop, deadline = budget.limits(self.cursor)

        async def client() -> None:
            while self.cursor < stop:
                at = self.cursor % period
                qid, request = ops[at]
                self.cursor += 1
                started = perf_counter_ns()
                try:
                    response = await server.submit(request)
                except Exception as error:  # shed, expired or broken: a failed op
                    stretch.fail(f"request raised {error!r}")
                    if perf_counter_ns() >= deadline:
                        break
                    continue
                ended = perf_counter_ns()
                if not (response.ok and response.snapshot_valid):
                    stretch.fail(f"request not served cleanly: {response.ladder}")
                elif qid is None:
                    stretch.write_ns.append(ended - started)
                    stretch.write_at.append(at)
                else:
                    stretch.read_ns.append(ended - started)
                    stretch.read_at.append(at)
                if ended >= deadline:
                    break

        async with server:
            began = perf_counter_ns()
            await asyncio.gather(*(client() for _ in range(CLIENTS)))
            stretch.wall_ns = perf_counter_ns() - began
        return stretch

    def _audit(self, query, result) -> None:
        """``post_check`` hook: runs in the state the rows were computed from."""
        problem = audit(
            query, result, self.database, result.counter.total, may_be_empty=True
        )
        if problem is not None:
            self.wrong += 1
            self.first_wrong = self.first_wrong or problem

    def verify(self) -> tuple[int, str | None]:
        """Replay the head of the sequence under the audit, then sweep every query.

        The sweep reads each distinct query once more through the server
        after the last write: whatever the repairs of the run left in the
        result cache has to equal the reference at the final state.
        """
        sweep = [(qid, ReadRequest(q.query)) for qid, q in enumerate(self.queries)]
        self.server.post_check = self._audit
        try:
            self.cursor = 0
            replay = asyncio.run(self._serve(Budget(ops=AUDITED_OPS), self.ops))
            self.cursor = 0
            swept = asyncio.run(self._serve(Budget(ops=len(sweep)), sweep))
        finally:
            self.server.post_check = None
        wrong = self.wrong + replay.failed + swept.failed
        return wrong, self.first_wrong or replay.error or swept.error

    def counters(self):
        metrics = self.server.metrics
        return {
            "server.submitted": metrics.submitted,
            "server.sheds": metrics.total_sheds,
            "server.queue_depth_peak": metrics.queue_depth_peak,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HotHits, PlanChurn, ExecMiss, ServedMix, Federated)
}
