"""One oracle over every serving path: the reference's rows, within the bound.

A covered query's answer is exactly ``Q(D)`` and its plan fetches at most
``access_bound()`` tuples.  This module states both once, for every serving
path (:data:`CELLS`), against two independent references: ``evaluate`` over
the path's reference database, and SQLite running ``query_to_sql(Q)`` over a
mirror kept in step through ``maintenance.apply_updates`` (Raszyk et al.'s
style: random queries, independent implementations, compared).  One
generator draws a case and a schedule; one runner (:class:`Oracle`) plays it
down one cell and checks everything after every step; the deterministic pins
are named schedules (:data:`NAMED`) on every cell.  A cached cell's every
write is judged entry by entry against the definition of settlement — *a
fetch is dirty iff a written row's LHS projection is a key it probed*; a
dirty entry of a monotone plan is patched by re-running its dirty fetches and
every step downstream, anything else reached is dropped — read off the plan
without ``core/deltas.py``.  docs/ARCHITECTURE.md, "How correctness is
checked", lists every check and how to add a path.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, defaultdict, namedtuple
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path
from unittest.mock import patch

import pytest
from analytic_queries import ANALYTIC_SCALE, analytic_queries
from hypothesis import HealthCheck, given, settings, strategies as st
from substrates import Substrate

from repro.backends.sqlite import SQLiteBackend
from repro.bench.experiments import select_covered_queries
from repro.core.deltas import EVERY_WRITE
from repro.core.engine import prepare_query
from repro.core.errors import ConstraintViolation
from repro.core.plan import DifferenceOp, FetchOp, ProjectOp
from repro.core.query import Relation, eq
from repro.discovery.maintenance import Update, apply_updates
from repro.evaluator.algebra import evaluate
from repro.evaluator.baseline import evaluate_conventional
from repro.evaluator.executor import PlanExecutor
from repro.serving.faults import FaultInjector, FaultSpec
from repro.sharding.replica import PROBE_AFTER
from repro.storage.counters import AccessCounter
from repro.storage.database import Database
from repro.storage.index import ConstraintIndex, IndexSet
from repro.workloads import WORKLOADS, RandomQueryGenerator, facebook

# the layered benchmark's packages live beside ``benchmarks/conftest.py``
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from layered.queries import POINT, ShapeCatalog, WitnessQueryGenerator  # noqa: E402
from layered.workloads import DATA_SEED, HOT_POINT, HOT_WIDE  # noqa: E402

# -- cases: a workload's data and the queries served over it ----------------------

#: Example 1's q1 and Q0' with constants that have an answer at scale 200, seed 0
GRAPH_SEARCH = ("p0", "may", 2013, "austin")


def _cafe_city():
    cafe = Relation.from_schema(facebook.schema(), "cafe")
    return cafe.select(eq(cafe["cid"], "c0")).project([cafe["city"]])


#: the facebook query sources: Example 1's queries and the pins' subsets of them
GRAPH = {
    "graph": lambda: [q() for q in (facebook.query_q1, facebook.query_q0,
                                    facebook.query_friends_of_friends, facebook.query_q0_prime)],
    "reads": lambda: [facebook.query_q1(), facebook.query_q0_prime(), facebook.query_q0()],
    "q1": lambda: [facebook.query_q1()],
    "friends_of_friends": lambda: [facebook.query_friends_of_friends()],
    "graph_search": lambda: [facebook.query_q1(*GRAPH_SEARCH),
                             facebook.query_q0_prime(*GRAPH_SEARCH), facebook.query_q0()],
    "lockstep": lambda: [facebook.query_q1(), facebook.query_q0_prime(),
                         facebook.query_friends_of_friends()],
    "cafe_city": lambda: [_cafe_city()],
}
#: the layered benchmark's witness queries: (point, wide) drawn per source
HARNESS = {"harness": (3, 1), "harness_point": (HOT_POINT, 0), "harness_wide": (0, HOT_WIDE)}


#: a workload at ``scale`` with data seed ``seed``, and one query source over it;
#: the ``random`` source draws its queries with ``query_seed``, apart from the data
Case = namedtuple("Case", "workload scale seed source query_seed", defaults=(0,))


@cache
def _catalog(workload: str) -> ShapeCatalog:
    return ShapeCatalog(WORKLOADS[workload])


@lru_cache(maxsize=64)
def _database(workload: str, scale: int, seed: int) -> Database:
    """A workload's data, built once per (workload, scale, data seed) whatever
    queries are served over it; never written: every run copies it."""
    if workload == "facebook":
        return facebook.generate(scale=scale, seed=seed)
    return WORKLOADS[workload].database(scale, seed)


@lru_cache(maxsize=64)
def _built(case: Case):
    """``(template database, access schema, queries, their prepared plans)``."""
    database = _database(case.workload, case.scale, case.seed)
    if case.workload == "facebook":
        spec, access = None, facebook.access_schema(database.schema)
    else:
        spec = WORKLOADS[case.workload]
        access = spec.access_schema
    return database, access, *_queries(case, spec, database, access)


def _queries(case: Case, spec, database, access):
    if case.source in GRAPH:
        queries = GRAPH[case.source]()
    elif case.source == "covered":
        queries = select_covered_queries(
            spec, 5, seed=case.seed, database=database, n_sel=(1, 4), n_join=(0, 2)
        )
    elif case.source == "random":
        generator = RandomQueryGenerator(spec, database=database, seed=case.query_seed)
        shape = random.Random(case.query_seed).randint
        queries = [generator.generate(shape(2, 7), shape(0, 3), shape(0, 2)) for _ in range(4)]
    elif case.source == "analytic":
        queries = analytic_queries(spec)
    else:
        generator = WitnessQueryGenerator(_catalog(case.workload), database, seed=7)
        queries = [bench.query for bench in generator.tagged(*HARNESS[case.source])]
    return tuple(queries), tuple(prepare_query(query, access) for query in queries)


#: reference 1's answers, by case, query and the rows of the relations it reads
_EVALUATED: dict[tuple, frozenset] = {}


def _evaluate(case: Case, i: int, relations, database: Database) -> frozenset:
    """``evaluate`` of query ``i`` of ``case`` over ``database``, which it reads only
    at ``relations``: the key holds their rows, compared by value, so the cells that
    reach the same rows share one evaluation."""
    key = (case, i, tuple(frozenset(database.relation(r).rows) for r in relations))
    if key not in _EVALUATED:
        if len(_EVALUATED) >= 1024:
            _EVALUATED.clear()
        _EVALUATED[key] = evaluate(_built(case)[2][i], database).rows
    return _EVALUATED[key]


def _copy(database: Database, relations=None) -> Database:
    copy = Database(database.schema)
    for name in database.relation_names() if relations is None else relations:
        copy.insert_many(name, database.relation(name).rows)
    return copy


# -- the definition of settlement, from the plan's declared step columns ---------


def _project(schema, relation, attributes, row):
    return tuple(row[p] for p in schema[relation].positions(attributes))


#: one fetch of a plan: its step, its source step, the relation and key it reads,
#: the keys it probed, whether a difference is downstream of it
_Fetch = namedtuple("_Fetch", "id source base lhs probed reaches_difference")


def _rows(plan, env, sid):
    """Step ``sid``'s rows in ``env``: its slot, or, where a run fused the step into
    the fetch it keys (its slot is ``None``), its input's rows projected onto its
    declared columns."""
    if env[sid] is not None:
        return env[sid]
    step = plan.steps[sid]
    assert isinstance(step.op, ProjectOp), f"T{sid} has no slot and is no projection"
    source = plan.steps[step.op.inputs[0]]
    at = [source.columns.index(column) for column in step.op.columns]
    return {tuple(row[i] for i in at) for row in _rows(plan, env, source.id)}


def _fetches_of(plan, env) -> list[_Fetch]:
    fetches = []
    for step in plan.fetch_steps():
        constraint, source = step.op.constraint, step.op.inputs[0]
        at = [plan.steps[source].columns.index(column) for column in step.op.key_columns]
        base = plan.occurrences.get(constraint.relation, constraint.relation)
        probed = {tuple(row[i] for i in at) for row in _rows(plan, env, source)}
        downstream = [plan.steps[sid].op for sid in _closure(plan, {step.id})]
        difference = any(isinstance(op, DifferenceOp) for op in downstream)
        fetches.append(_Fetch(step.id, source, base, sorted(constraint.lhs), probed, difference))
    return fetches


def _constant(plan) -> set[int]:
    """The steps computed from constants alone: no fetch at or below them."""
    constant: set[int] = set()
    for step in plan.steps:
        if not isinstance(step.op, FetchOp) and constant.issuperset(step.op.inputs):
            constant.add(step.id)
    return constant


def _dirty(fetches, applied, schema) -> set[int]:
    """The fetches ``applied`` dirties: a written row projects onto a key it probed."""
    return {
        fetch.id
        for fetch in fetches
        for update in applied
        if update.relation == fetch.base
        and _project(schema, fetch.base, fetch.lhs, update.row) in fetch.probed
    }


def _closure(plan, dirty: set[int]) -> list[int]:
    """``dirty`` and every step downstream of it, ascending (a step's inputs precede it)."""
    closure = set(dirty)
    for step in plan.steps:
        if closure.intersection(step.op.inputs):
            closure.add(step.id)
    return sorted(closure)


def _predict(entry, env, applied, touched, schema) -> str | None:
    """The definition's verdict for ``entry``, whose environment was ``env`` before the batch."""
    if not set(entry.dependencies).intersection(touched):
        return None  # the batch never reached the entry
    if env is None or entry.plan is None:
        return "no_env"
    written = {update.relation for update in applied}
    affected = [fetch for fetch in _fetches_of(entry.plan, env) if fetch.base in written]
    if any(fetch.reaches_difference for fetch in affected):
        return "fallback:difference"
    # every substrate stops at the key hit: a batch that leaves a hit key's
    # group as it was still patches (with the same rows)
    return "patched" if _dirty(affected, applied, schema) else "clean"


# -- the path matrix ----------------------------------------------------------------

READ, REFILL, HOT_INSERT, HOT_DELETE, DELETE_REINSERT, COLD, MIXED, BREAK = range(8)
SWEEP, REBALANCE, ARM_LOST, KILL, HEAL = range(8, 13)

#: what every cell runs: reads, the settlement writes and a batch that breaks a bound
PATH_OPS = (READ, REFILL, HOT_INSERT, HOT_DELETE, DELETE_REINSERT, COLD, MIXED, BREAK)
#: what a serving core adds: its plan store swept
CORE_OPS = PATH_OPS + (SWEEP,)


#: one serving path: a serving core (a ``substrates.py`` topology) or a bare ``reader``
Cell = namedtuple(
    "Cell", "substrate result_cache reader ops", defaults=(None, True, None, CORE_OPS)
)


CELLS = {
    # the engine with its result cache: reads, hits and delta repair
    "engine": Cell("engine"),
    # the recompute twin: every read runs its plan
    "engine-recompute": Cell("engine", result_cache=False),
    # the canonical plan beside the executable one, on one PlanExecutor
    "plans": Cell(reader="plans", ops=PATH_OPS),
    # a 1-shard federation served wholly from SQLite, with repair
    "router-1-sqlite": Cell("router-1-sqlite"),
    # a 3-shard memory / SQLite / memory federation with repair
    "router-3": Cell("router-3-mixed"),
    # the same federation, key ranges rebalanced between writes
    "router-3-rebalance": Cell("router-3-mixed", ops=CORE_OPS + (REBALANCE,)),
    # a 1 x 2 replicated federation, one member losing its writes or killed
    "replicated": Cell("replicated-1x2", ops=CORE_OPS + (ARM_LOST, KILL, HEAL)),
    # Plan2SQL of the canonical and the executable plan over the SQLite mirror
    "plan2sql": Cell(reader="plan2sql", ops=PATH_OPS),
    # the conventional fallback over the whole database
    "conventional": Cell(reader="conventional", ops=PATH_OPS),
}


def _plans_agree(executor: PlanExecutor, prepared) -> frozenset:
    """Both plans of ``prepared`` on ``executor``: equal rows, equal access, within the bound."""
    counters = AccessCounter(), AccessCounter()
    canonical, executable = (
        executor.execute(plan, counter).rows
        for plan, counter in zip((prepared.plan, prepared.executable), counters)
    )
    assert canonical == executable
    assert counters[0].per_relation == counters[1].per_relation and counters[1].scanned == 0
    bound = prepared.executable.access_bound()
    assert bound == prepared.plan.access_bound() and counters[1].total <= bound
    return executable


def _fetch_steps(plan):
    return [(step.op.constraint, step.op.key_columns) for step in plan.fetch_steps()]


@dataclass(frozen=True)
class Write:
    """One batch of a named schedule (updates, or a function of the oracle
    returning them) and what a cached cell must say of the entries it reached:
    their verdicts in any order, a predicate on them, or ``None``."""

    batch: object
    expect: object = None

    def __call__(self, oracle: "Oracle") -> None:
        verdicts = oracle.write(list(self.batch(oracle) if callable(self.batch) else self.batch))
        if verdicts is not None and callable(self.expect):
            assert self.expect(verdicts), verdicts
        elif verdicts is not None and self.expect is not None:
            assert sorted(verdicts) == sorted(self.expect)


class Oracle:
    """One cell, its references, and every check, after every step of a schedule."""

    def __init__(self, case: Case, cell: str, stack: ExitStack, *, victim=1):
        template, self.access, self.queries, self.prepared = _built(case)
        self.case, self.cell, self.schema = case, CELLS[cell], template.schema
        self.reads = self.nonempty = self.fresh = 0
        self._answers: dict[int, frozenset] = {}
        self._reads = [sorted({r.base for r in query.relations()}) for query in self.queries]
        self._probes = None
        # reference 2: SQLite over a mirror the write loop keeps in step
        self.mirror_db = _copy(template)
        self.mirror = stack.enter_context(SQLiteBackend(self.mirror_db))
        self.mirror.create_index_tables(self.access)
        self.core = None
        if self.cell.substrate is None:
            self.reference = _copy(template)
            self.indexes = IndexSet.build(self.reference, self.access)
            self.executor = PlanExecutor(self.indexes)
        else:
            self.substrate = Substrate(
                self.cell.substrate, _copy(template), self.access,
                result_cache_size=256 if self.cell.result_cache else 0,
            )
            stack.callback(self.substrate.close)
            self.core, self.reference = self.substrate.core, self.substrate.reference
            # how often the core lowers each plan object, on this core only
            self.lowered, lower = Counter(), self.core._executor._compile

            def lowering(plan):
                self.lowered[id(plan)] += 1
                return lower(plan)

            self.core._executor._compile = lowering
            # the federated executor: both plans, fetched through the router
            self.executor = PlanExecutor(self.core) if self.substrate.federated else None
        self.cached = self.core is not None and self.cell.result_cache
        if self.cached:
            self._instrument(stack)
        if self.cell.substrate == "replicated-1x2":
            (self.replica_set,) = self.core.shards
            self.victim = self.replica_set.replicas[victim]
            self.injector = FaultInjector(seed=11)
            stack.callback(self.injector.uninstall)
        # column pruning changes what a plan carries, never what it fetches
        for plan, executable in ((p.plan, p.executable) for p in self.prepared if p.covered):
            assert _fetch_steps(executable) == _fetch_steps(plan)
            assert executable.dependency_relations() == plan.dependency_relations()
        self.refill()

    def _instrument(self, stack: ExitStack) -> None:
        """Record what a cached core settles, derives and re-runs, and any live group it reads."""
        core = self.core
        # result-cache entries are filed under their prepared entry's key
        self.keys = [core.prepare(query).result_key for query in self.queries]
        self.by_key = dict(zip(self.keys, range(len(self.queries))))
        self.settled, self.derived, self.group_reads, self.deriving = {}, {}, [], False
        settle, derive = core._settle, core._deriver.derive

        def settling(*args):
            self.settled = settle(*args)
            return self.settled

        def watched(slot, kernel, ran):
            return lambda env, counter: ran.append(slot) or kernel(env, counter)

        def recording(plan, *args, **kwargs):
            compiled = core._executor.compile(plan)
            schedule, ran = compiled.schedule, []
            compiled.schedule = tuple((slot, watched(slot, k, ran)) for slot, k in schedule)
            self.deriving = True
            try:
                outcome = derive(plan, *args, **kwargs)
            finally:
                compiled.schedule, self.deriving = schedule, False
            assert id(plan) not in self.derived, "an entry was derived twice in one batch"
            status = outcome.status + (f":{outcome.reason}" if outcome.reason else "")
            self.derived[id(plan)] = (status, ran)
            return outcome

        core._settle, core._deriver.derive = settling, recording  # this core only

        def counted(function):
            def wrapper(*args, **kwargs):
                if self.deriving:
                    self.group_reads.append(function)
                return function(*args, **kwargs)

            return wrapper

        for owner, method in ((ConstraintIndex, "lookup"), (IndexSet, "group_of")):
            stack.enter_context(patch.object(owner, method, counted(getattr(owner, method))))
        for shard in getattr(core, "shards", ()):
            stack.enter_context(patch.object(shard, "group_of", counted(shard.group_of)))

    def entries(self) -> dict:
        return dict(self.core.result_cache.entries_for(self.schema.relation_names()))

    # -- reads ------------------------------------------------------------------------
    def answer(self, i: int) -> frozenset:
        """Both references' rows for query ``i``, kept until a write changes a relation it
        reads: ``evaluate`` over the reference, and SQLite over this cell's mirror."""
        if i not in self._answers:
            query = self.queries[i]
            self._answers[i] = _evaluate(self.case, i, self._reads[i], self.reference)
            assert self.mirror.run_query(query).rows == self._answers[i], query
        return self._answers[i]

    def read(self, i: int) -> None:
        query, prepared, expected = self.queries[i], self.prepared[i], self.answer(i)
        if self.core is not None:
            hit = self.cached and self.keys[i] in self.entries()
            result = self.core.execute(query)
            assert result.result_cached is hit  # every entry the cache holds is served
            assert (result.strategy == "bounded") is prepared.covered
            if hit:
                assert result.counter.total == 0  # no data accessed at all
            elif prepared.covered:  # only through indexes, within the bound
                assert result.counter.scanned == 0
                assert result.counter.total <= result.plan.access_bound()
            rows = result.rows
            if self.executor is not None and prepared.covered:
                assert _plans_agree(self.executor, prepared) == rows, query
        elif self.cell.reader == "conventional":
            rows = evaluate_conventional(query, self.reference, self.access, self.indexes).rows
        elif not prepared.covered:
            return  # a plan-only path has nothing to run
        elif self.cell.reader == "plans":
            rows = _plans_agree(self.executor, prepared)
        else:
            rows = self.mirror.run_bounded_plan(prepared.executable).rows
            assert self.mirror.run_bounded_plan(prepared.plan).rows == rows, query
        assert rows == expected, query
        self.reads += 1
        self.nonempty += bool(expected)

    def refill(self) -> None:
        for i in range(len(self.queries)):
            self.read(i)

    # -- writes -----------------------------------------------------------------------
    def write(self, updates) -> list[str] | None:
        """``updates`` through the cell and the mirror; the verdicts of the entries
        it reached (``None`` on a cell without a result cache)."""
        # the relations it changes on a copy, and whether it breaks a bound there:
        # a full scan that shares no code with the core's read-back
        written = {update.relation for update in updates}
        copy = _copy(self.reference, written)
        touched = {
            u.relation
            for u in updates
            if (copy.insert if u.kind == "insert" else copy.delete)(u.relation, u.row)
        }
        if copy.violations([c for c in self.access if c.relation in written]):
            return self.rejected(updates, touched)
        reached = None
        if self.cached:
            reached = self.settle(updates)
        elif self.core is not None:
            self.core.apply_updates(updates)
        else:
            apply_updates(self.reference, self.indexes, self.access, updates)
        apply_updates(self.mirror_db, self.mirror, self.access, updates)
        for i in [i for i in self._answers if touched.intersection(self._reads[i])]:
            del self._answers[i]
        self._probes = None
        self.check_mirror(touched)
        if self.cached:
            self.check_entries()
        return reached

    def settle(self, updates) -> list[str]:
        """``updates`` through the cached core, every reached entry held to the definition."""
        core, before = self.core, self.entries()
        held = {key: (e.rows, e.env, dict(e.keyed or {})) for key, e in before.items()}
        stats = core.cache_stats()
        self.settled, self.derived = {}, {}
        report = core.apply_updates(updates)
        applied, after = report.applied_updates, self.entries()
        reached, moved = [], defaultdict(int)
        for key, entry in before.items():
            rows, env, keyed = held[key]
            expected = _predict(entry, env, applied, report.touched_relations, self.schema)
            derived, ran = self.derived.get(id(entry.plan), (None, None))
            rekeyed = set()
            if expected is None:
                # not a candidate at all, or one the effective writes missed
                assert key not in self.settled and derived is None and after.get(key) is entry
            elif expected == "clean":
                # no verdict unless a key hit sent it to the deriver; either
                # way kept as it was, and served at the new marks
                assert self.settled.get(key) in (None, "clean") and derived in (None, "clean")
                assert after.get(key) is entry and entry.rows is rows and entry.env is env
                snapshot = core._snapshot(entry.dependencies)
                assert core.result_cache.get(key, snapshot, record=False) is entry
            else:
                assert self.settled.get(key) == expected, "settled against the definition"
                assert derived == (None if expected == "no_env" else expected)
                assert (key in after) == (expected == "patched")
                if expected == "patched":
                    # the dirty fetches and every step downstream of them that
                    # runs a kernel of its own, nothing else (a step fused into
                    # its consumer re-runs inside it; one computed from
                    # constants ran once, when the plan was lowered)
                    fetches = _fetches_of(entry.plan, env)
                    closure = _closure(entry.plan, _dirty(fetches, applied, self.schema))
                    scheduled = {slot for slot, _ in core._executor.compile(entry.plan).schedule}
                    filled = {sid for sid, rows in enumerate(env) if rows is not None}
                    assert scheduled == filled - _constant(entry.plan)
                    assert ran == [sid for sid in closure if sid in scheduled]
                    rekeyed = {fetch.id for fetch in fetches if fetch.source in closure}
                    moved["repaired"] += 1
                    moved["repaired_clean"] += entry.rows == rows
                    moved["rows_patched"] += len(entry.rows ^ rows)
                else:
                    moved["repair_fallbacks"] += 1
            if expected is not None:
                reached.append(expected)
            if key in after and keyed:
                # a patch re-reads the key sets of the fetches its closure feeds, and only those
                assert {site for site in keyed if entry.keyed[site] is not keyed[site]} == rekeyed
        assert self.group_reads == [], "a derivation read a live index group"
        now = core.cache_stats()
        assert now["plan_store"] == stats["plan_store"]  # no write touches the plan store
        counts = ("repaired", "repaired_clean", "rows_patched", "repair_fallbacks")
        was, now = stats["result_cache"], now["result_cache"]
        assert {c: now[c] - was[c] for c in counts} == {c: moved[c] for c in counts}
        return reached

    def rejected(self, updates, touched: set[str]) -> list[str] | None:
        """A batch that breaks a bound: rejected, nothing changed, what it reached swept."""
        if self.core is None:
            return None  # no admission on a bare path: the batch is not served there
        before, data = self.entries() if self.cached else {}, self.substrate.data()
        self.settled, self.derived = {}, {}
        with pytest.raises(ConstraintViolation):
            self.core.apply_updates(updates)
        assert self.substrate.data() == data
        if not self.cached:
            return None
        # both epochs moved (the batch, its undo): every dependent is swept as
        # no_delta, with no derivation
        swept = [key for key, entry in before.items() if touched.intersection(entry.dependencies)]
        assert (self.settled, self.derived) == (dict.fromkeys(swept, "no_delta"), {})
        after = self.entries()
        for key, entry in before.items():
            assert (key not in after) if key in swept else (after.get(key) is entry)
        self.check_entries()
        return ["rejected"] * len(swept)

    # -- what every step leaves behind ------------------------------------------------
    def check_mirror(self, relations=None) -> None:
        """The mirror's base and index tables of ``relations`` (default: all) hold
        the reference's rows and projections, each once."""
        run = self.mirror.run_sql
        relations = self.schema.relation_names() if relations is None else relations

        def holds(table, rows):
            assert run(f'SELECT * FROM "{table}"').rows == rows, f"table {table} drifted"
            counted = run(f'SELECT COUNT(*) FROM "{table}"').rows
            assert counted == {(len(rows),)}, f"table {table} holds a duplicate"

        for name in relations:
            rows = frozenset(self.reference.relation(name).rows)
            assert frozenset(self.mirror_db.relation(name).rows) == rows, name
            holds(name, rows)
        for table, constraint in self.mirror._index_constraints.items():
            if constraint.relation in relations:
                name = constraint.relation
                at = self.schema[name].positions(sorted(constraint.lhs | constraint.rhs))
                holds(table, {tuple(r[p] for p in at) for r in self.reference.relation(name).rows})

    def check_entries(self) -> None:
        """Every cached entry equals a fresh execution, and its key sets the definition."""
        for key, entry in self.entries().items():
            assert entry.rows == self.answer(self.by_key[key])
            if entry.env is None:
                continue
            fresh = self.core._executor.execute(entry.plan, capture_env=True)
            assert entry.env == fresh.env and entry.rows == fresh.rows
            if not entry.keyed:
                continue
            fetches = _fetches_of(entry.plan, entry.env)
            assert all(entry.keyed[f.id] == f.probed for f in fetches if f.id in entry.keyed)
            if not any(fetch.reaches_difference for fetch in fetches):
                assert sorted(entry.keyed) == [fetch.id for fetch in fetches]
            # what the reach index holds of the entry: one (positions, keys) per site
            for base, reach in entry.reach.items():
                at = self.schema[base].positions
                assert reach == EVERY_WRITE or reach == tuple(
                    (at(f.lhs), entry.keyed[f.id]) for f in fetches if f.base == base
                )

    # -- schedule building blocks -----------------------------------------------------
    def hot(self, pick: int):
        """A fetch some query makes now: ``(base, a probed key's positions and value,
        the stored rows under it, every stored row)``, or ``None``."""
        if self._probes is None:
            run = PlanExecutor(IndexSet.build(self.reference, self.access, check=False)).execute
            self._probes = [
                fetch
                for p in self.prepared
                if p.covered
                for fetch in _fetches_of(p.executable, run(p.executable, capture_env=True).env)
                if fetch.probed
            ]
        if not self._probes:
            return None
        fetch = self._probes[pick % len(self._probes)]
        key = sorted(fetch.probed, key=repr)[(pick // 7) % len(fetch.probed)]
        stored = sorted(self.reference.relation(fetch.base).rows)
        at = self.schema[fetch.base].positions(fetch.lhs)
        under = [row for row in stored if tuple(row[p] for p in at) == key]
        return fetch.base, at, key, under, stored

    def hot_insert(self, pick: int) -> list[Update]:
        """A stored row of another group moved under a probed key."""
        hot = self.hot(pick)
        if not hot or not hot[4]:
            return []
        base, at, key, _, stored = hot
        row = list(stored[(pick // 3) % len(stored)])
        for position, value in zip(at, key):
            row[position] = value
        return [Update.insert(base, tuple(row))]

    def hot_delete(self, pick: int) -> list[Update]:
        """A stored row under a probed key (an insert there if it has none)."""
        hot = self.hot(pick)
        if not hot or not hot[3]:
            return self.hot_insert(pick)
        return [Update.delete(hot[0], hot[3][(pick // 3) % len(hot[3])])]

    def delete_reinsert(self, pick: int) -> list[Update]:
        delete = self.hot_delete(pick)
        return delete + [delete[0].inverse()] if delete and delete[0].kind == "delete" else []

    def cold(self, pick: int) -> list[Update]:
        """A row deleted, or one stitched from two stored rows inserted, wherever it lands."""
        relation = self.schema.relation_names()[pick % len(self.schema.relation_names())]
        stored = sorted(self.reference.relation(relation).rows)
        if not stored:
            return []
        victim = stored[(pick // 5) % len(stored)]
        if pick % 2:
            return [Update.delete(relation, victim)]
        return [Update.insert(relation, victim[:1] + stored[(pick // 11) % len(stored)][1:])]

    def breaking(self, pick: int) -> list[Update]:
        """Inserts that overfill the fullest group of the constraint with the least headroom."""
        fullest = []
        for constraint in sorted(self.access, key=lambda c: c.name):
            positions = self.schema[constraint.relation].positions
            lhs = positions(sorted(constraint.lhs))
            both = positions(sorted(constraint.lhs | constraint.rhs))
            groups = defaultdict(set)
            for row in sorted(self.reference.relation(constraint.relation).rows):
                groups[tuple(row[p] for p in lhs)].add((tuple(row[p] for p in both), row))
            if groups and constraint.rhs - constraint.lhs:
                group = max(groups.values(), key=lambda g: (len(g), min(g)))
                headroom = constraint.bound - len(group)
                fullest.append((headroom, constraint.name, min(group)[1], lhs, constraint))
        if not fullest or min(fullest)[0] >= 4:
            return []
        headroom, _, member, lhs, constraint = min(fullest)

        def fresh(value):
            self.fresh += 1
            return 10**7 + self.fresh if isinstance(value, int) else f"{value}~{self.fresh}"

        def row():
            return tuple(v if p in lhs else fresh(v) for p, v in enumerate(member))

        return [Update.insert(constraint.relation, row()) for _ in range(headroom + 1 + pick % 2)]

    def sweep_and_reprepare(self) -> None:
        """Evict every plan from the store, as LRU displacement would, and
        prepare every query again: equal plans, new objects."""
        old = [self.core.prepare(query).executable for query in self.queries]
        store = self.core.plan_cache
        for filler in range(store.capacity):
            store.put(("filler", filler), None)
        new = [self.core.prepare(query).executable for query in self.queries]
        assert all(a is not b for a, b in zip(old, new) if a is not None)
        self.refill()

    def rebalance(self, pick: int) -> None:
        """Move a key range of one relation off the shard owning its low end."""
        router, names = self.core, self.schema.relation_names()
        relation = names[pick % len(names)]
        key = router.partitioner.key
        values = sorted({key(relation, row) for row in self.reference.relation(relation)})
        if len(values) < 2:
            return
        low = (pick // 3) % (len(values) - 1)
        high = min(len(values) - 1, low + 1 + (pick // 5) % 4)
        src = router.partitioner.shard_for_value(relation, values[low])
        dst = (src + 1 + pick % 2) % len(router.shards)
        assert router.rebalance(relation, (values[low], values[high]), src, dst).completed
        self.check_entries()

    def fault(self, op: int) -> None:
        """Lost writes on, the member killed, or both healed: one member only."""
        name = self.victim.name
        if op == ARM_LOST:
            self.injector.install_shard(self.victim)
            self.injector.configure(f"{name}.write", FaultSpec(lost_write_every=1))
        elif op == KILL:
            self.injector.kill(self.victim)
        else:
            self.injector.configure(f"{name}.write", FaultSpec())
            self.injector.configure(f"{name}.fetch", FaultSpec())

    def heal(self) -> None:
        """Clear the faults and drive fetches through the set: the member converges."""
        self.injector.uninstall()
        constraints = {c.relation: c for c in sorted(self.access, key=lambda c: c.name) if c.lhs}
        for constraint in [*constraints.values()] * PROBE_AFTER:
            name, lhs = constraint.relation, sorted(constraint.lhs)
            rows = sorted(self.reference.relation(name).rows)
            key = _project(self.schema, name, lhs, rows[0]) if rows else (None,) * len(lhs)
            self.replica_set.fetch(constraint, constraint.relation, [key])
        self.refill()
        assert all(breaker.state == "closed" for breaker in self.replica_set.breakers.values())
        primary, member = self.replica_set.replicas
        for name in self.schema.relation_names():
            assert set(member.relation_rows(name)) == set(primary.relation_rows(name))

    # -- the runner ---------------------------------------------------------------------
    def run(self, schedule) -> None:
        """Play ``schedule``: ``(op, pick)`` pairs, and :class:`Write` steps and
        checks (functions of the oracle)."""
        batches = {
            HOT_INSERT: self.hot_insert,
            HOT_DELETE: self.hot_delete,
            DELETE_REINSERT: self.delete_reinsert,
            COLD: self.cold,
            MIXED: lambda n: self.hot_insert(n) + self.cold(n // 13) + self.hot_delete(n // 17),
            BREAK: self.breaking,
        }
        for step in schedule:
            op, pick = (None, None) if callable(step) else step
            if op is None:
                step(self)
            elif op not in self.cell.ops:
                continue  # (a named schedule's step for another path)
            elif op in batches:
                updates = batches[op](pick)
                if updates:
                    self.write(updates)
            elif op == READ:
                self.read(pick % len(self.queries))
            elif op == REFILL:
                self.refill()
            elif op in (ARM_LOST, KILL, HEAL):
                self.fault(op)
            elif op == SWEEP:
                self.sweep_and_reprepare()
            else:
                self.rebalance(pick)
        if self.cell.substrate == "replicated-1x2":
            self.heal()
        else:
            self.refill()
        self.check_mirror()


# -- the generator ------------------------------------------------------------------

#: every drawn source: a workload, the scale its data is drawn at, a query source
SOURCES = [
    ("facebook", 15, "graph"),
    *((name, 20, source) for name in ("AIRCA", "MCBM")
      for source in ("covered", "random", "analytic")),
    *(("TFACC", 20, source) for source in ("covered", "random", "analytic", "harness")),
]


def schedules(ops):
    return st.lists(st.tuples(st.sampled_from(ops), st.integers(0, 10**6)), min_size=4, max_size=12)


#: hypothesis examples per (cell, workload, source) at the committed budget.  One
#: example makes every check of each harness this module replaced, so a pair
#: one of them drew gets at least that harness's examples.  Every other pair
#: gets 1, which is hypothesis's simplest draw (data seed 0, reads only): a
#: fixed check of each query of the source on the cell, at no search cost.
EXAMPLES = {
    # the engine's repair property drew 40 facebook examples, its settlement
    # property about 10 of each workload
    ("engine", "facebook", "graph"): 40,
    **{("engine", name, "covered"): 10 for name in ("AIRCA", "MCBM", "TFACC")},
    ("engine-recompute", "facebook", "graph"): 20,  # repaired equals recomputed
    # the router's repair property drew 15 facebook examples, its settlement
    # property about 6 of facebook and of TFACC
    ("router-3", "facebook", "graph"): 15,
    ("router-3", "TFACC", "covered"): 6,
    ("replicated", "facebook", "graph"): 12,  # the lost-write chaos property
    # plan equivalence drew 60 + 30 one-query examples; four queries an example here
    ("plans", "TFACC", "random"): 23,
}


@pytest.mark.parametrize("cell", list(CELLS))
@pytest.mark.parametrize("workload,scale,source", SOURCES)
def test_every_path_returns_the_references_rows(workload, scale, source, cell):
    @given(seed=st.integers(0, 30), data=st.data())
    @settings(
        max_examples=EXAMPLES.get((cell, workload, source), 1),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def check(seed, data):
        # generated queries are drawn apart from the data they are served over
        query_seed = data.draw(st.integers(0, 500), label="query_seed") if source == "random" else 0
        schedule = data.draw(schedules(CELLS[cell].ops), label="schedule")
        victim = data.draw(st.integers(0, 1), label="victim") if cell == "replicated" else 1
        with ExitStack() as stack:
            case = Case(workload, scale, seed, source, query_seed)
            Oracle(case, cell, stack, victim=victim).run(schedule)

    check()


# -- named schedules: the deterministic pins, fed to the same runner ---------------


def _every_entry_patched(verdicts) -> bool:
    return bool(verdicts) and set(verdicts) == {"patched"}


def _answers_have_rows(oracle: Oracle) -> None:
    assert all(map(oracle.answer, range(len(oracle.queries)))), "an empty answer compares nothing"


def reads_hit_after_a_miss(oracle: Oracle):
    """q1, Q0' and Q0 (uncovered as written, covered by its rewriting): a miss,
    then a hit, each plan lowered once."""
    yield (REFILL, 0)

    def lowered_once(oracle: Oracle) -> None:
        n = len(oracle.queries)
        assert oracle.core is None or sorted(oracle.lowered.values()) == [1] * n
        stats = oracle.core.cache_stats()["result_cache"] if oracle.cached else {}
        assert not stats or (stats["hits"], stats["misses"], stats["entries"]) == (n, n, n)

    yield lowered_once


def the_named_schedule(oracle: Oracle):
    """Every transition settlement must survive, over q1 where it answers."""
    friend = Update.insert("friend", ("p0", "p_new"))
    dine = Update.insert("dine", ("p_new", "c_new", "may", 2015))
    # patched, then patched again: the second derivation must read the keys
    # of the *patched* environment (p_new is probed only there)
    yield Write([friend], ["patched"])
    yield Write([dine], ["patched"])
    # a delete and its re-insert leave the group as it was: patched all the same
    yield Write([dine.inverse(), dine], ["patched"])
    yield Write([friend.inverse()], ["patched"])
    # a plan evicted from the store is re-prepared as an equal plan, a new
    # object; the entry keeps the old one and still settles
    yield (SWEEP, 0)
    yield Write([friend], ["patched"])
    # writes the entry never probed leave it as it is, unvisited
    yield Write([Update.insert("friend", ("p_else", "p0"))], ["clean"])
    yield Write([Update.insert("cafe", ("c_else", "nowhere"))], ["clean"])


def two_sites_over_one_index_register_their_union(oracle: Oracle):
    """``friend ⋈ friend`` fetches ψ1 at two sites, under ``p0`` and under each
    of its friends: an index that kept one site's keys per (relation, key
    positions) would re-stamp the entry over a write only the other read."""
    friend_of_p0 = min(fid for pid, fid in oracle.reference.relation("friend") if pid == "p0")
    (plan,) = [prepared.executable for prepared in oracle.prepared]
    run = PlanExecutor(IndexSet.build(oracle.reference, oracle.access)).execute
    fetches = _fetches_of(plan, run(plan, capture_env=True).env)
    # the sites share one index and not their keys
    assert {(fetch.base, tuple(fetch.lhs)) for fetch in fetches} == {("friend", ("pid",))}
    near = {fetch.id for fetch in fetches if ("p0",) in fetch.probed}
    far = {fetch.id for fetch in fetches if (friend_of_p0,) in fetch.probed}
    assert near and far and not near & far
    for pid, fid, verdict in (
        ("p_nobody", "p_x", "clean"),  # the first settlement indexes both sites
        (friend_of_p0, "p_far", "patched"),  # a key only the far site probed
        ("p_nobody", "p_y", "clean"),
        ("p0", "p_near", "patched"),  # a key only the near site probed
        ("p_near", "p_z", "patched"),  # ... which the far site now probes
    ):
        yield Write([Update.insert("friend", (pid, fid))], [verdict])


def one_settlement_on_every_substrate(oracle: Oracle):
    """q1 where it answers: a reached entry re-runs its closure, on any substrate."""
    answering = [row for row in oracle.reference.relation("cafe") if (row[0],) in oracle.answer(0)]
    cafe = Update.delete("cafe", min(answering))
    yield Write([Update.insert("friend", ("p0", "p_new"))], ["patched"])  # everything below friend
    yield Write([cafe], ["patched"])  # the cafe fetch and what it feeds
    yield Write([cafe.inverse()], ["patched"])
    yield Write([cafe, cafe.inverse()], ["patched"])  # a clean patch: the rows it had


def a_fetch_keyed_through_a_fused_projection(oracle: Oracle):
    """q1's cafe fetch is keyed by ``π[dine.cid as cafe.cid]`` of the dine fetch,
    which a run fuses into the fetch's key extraction (no slot of its own): a
    write under one of those keys dirties it, and one under the dine fetch's
    keys re-runs it, with keys re-read through the dine rows."""
    (plan,) = [prepared.executable for prepared in oracle.prepared]
    run = PlanExecutor(IndexSet.build(oracle.reference, oracle.access)).execute
    env = run(plan, capture_env=True).env
    fetches = {fetch.base: fetch for fetch in _fetches_of(plan, env)}
    cafe, dine = fetches["cafe"], fetches["dine"]
    assert env[cafe.source] is None and isinstance(plan.steps[cafe.source].op, ProjectOp)
    assert plan.steps[cafe.source].op.inputs == (dine.id,)
    probed = min(row for row in oracle.reference.relation("cafe") if (row[0],) in cafe.probed)
    yield Write([Update.delete("cafe", probed)], ["patched"])  # the fused-source fetch, dirty
    yield Write([Update.insert("cafe", probed)], ["patched"])
    month, pid, year = min(dine.probed)  # sorted(lhs): month, pid, year
    yield Write([Update.insert("dine", (pid, "c_fused", month, year))], ["patched"])
    # c_fused is probed only in the patched environment, read through the dine rows
    yield Write([Update.insert("cafe", ("c_fused", probed[1]))], ["patched"])
    yield (REFILL, 0)


@cache
def answer_witness(name: str) -> Update:
    """The delete of a dependency row that changes an analytic answer of workload
    ``name``: found on a scratch copy, smallest relation first."""
    workload = WORKLOADS[name]
    scratch, queries = workload.database(ANALYTIC_SCALE, 7), analytic_queries(workload)
    answers = [evaluate(query, scratch).rows for query in queries]
    relations = {relation for query in queries for relation in query.relation_names()}
    for relation in sorted(relations, key=lambda r: (len(scratch.relation(r)), r)):
        instance = scratch.relation(relation)
        for row in sorted(instance.rows):
            instance.delete(row)
            if [evaluate(query, scratch).rows for query in queries] != answers:
                return Update.delete(relation, row)
            instance.insert(row)
    pytest.fail(f"{name}: no single delete changes an analytic answer")


def bundled_workload(oracle: Oracle):
    """The analytic queries: answers that exist, read and written."""
    yield _answers_have_rows
    # writes outside every dependency set reach no entry: every re-read hits
    dependencies = {r for prepared in oracle.prepared for r in prepared.dependencies}
    unrelated = min(set(oracle.schema.relation_names()) - dependencies)
    row = Update.delete(unrelated, min(oracle.reference.relation(unrelated).rows))
    yield Write([row], [])
    yield Write([row.inverse()], [])
    yield (REFILL, 0)
    # a write that changes an answer is patched, and so is taking it back
    witness = answer_witness(oracle.case.workload)
    yield Write([witness], _every_entry_patched)
    yield (REFILL, 0)
    yield Write([witness.inverse()], _every_entry_patched)


def harness_plans(oracle: Oracle):
    """The layered benchmark's TFACC plans: the row each witness chain ends in,
    taken away and put back, patches the entries it reaches."""
    # the witness queries again, with the row chains they answer
    generator = WitnessQueryGenerator(_catalog("TFACC"), _built(oracle.case)[0], seed=7)
    drawn = generator.tagged(*HARNESS[oracle.case.source])
    wide = oracle.case.source == "harness_wide"
    assert all((bench.tag == POINT) is not wide for bench in drawn)
    assert all((p.executable.access_bound() >= 4000) is wide for p in oracle.prepared)
    pruned = [any(s.comment.startswith("pruned") for s in p.executable) for p in oracle.prepared]
    assert not wide or sum(pruned) >= HOT_WIDE // 2  # the wide joins are what pruning is for
    yield _answers_have_rows
    rows = sorted({(bench.shape.relations[-1], bench.witness[-1]) for bench in drawn})

    def most_reached(verdicts) -> bool:
        return _every_entry_patched(verdicts) and len(verdicts) >= len(drawn) // 2

    yield Write([Update.delete(relation, row) for relation, row in rows], most_reached)
    yield (REFILL, 0)
    yield Write([Update.insert(relation, row) for relation, row in rows], most_reached)


#: single-update batches in the mirror's lockstep schedule
LOCKSTEP_STEPS = 24


def mirror_lockstep(oracle: Oracle):
    """Single updates in a seeded order — deletes, re-inserts, duplicates and
    absent rows — the mirror compared table by table after each."""
    # two dine rows differing only in month share one ψ3 index row: deleting
    # one must keep it, deleting the other drops it
    shared = [Update.insert("dine", ("p_share", "c_share", m, 2015)) for m in ("may", "jun")]
    for update in shared + [update.inverse() for update in shared]:
        yield Write([update])
    rng = random.Random(97)
    ghosts = {"friend": ("g", "g"), "dine": ("g", "gc", "jan", 1999), "cafe": ("gc", "nowhere")}
    removed = defaultdict(list)
    for step in range(LOCKSTEP_STEPS):
        relation = rng.choice(oracle.schema.relation_names())
        stored, roll = sorted(oracle.reference.relation(relation).rows), rng.random()
        if roll < 0.35 and stored:
            removed[relation].append(rng.choice(stored))
            update = Update.delete(relation, removed[relation][-1])
        elif roll < 0.60 and removed[relation]:
            update = Update.insert(relation, removed[relation].pop())
        elif roll < 0.80 and stored:
            update = Update.insert(relation, rng.choice(stored))  # a duplicate
        else:
            update = Update.delete(relation, ghosts[relation])  # absent
        yield Write([update])
        if step % 4 == 3:
            yield (REFILL, 0)


def replica_heals(oracle: Oracle):
    """Writes one member loses: the next fetch of the relation quarantines it and
    catches it up from its sibling, and the runner's heal finds it converged."""
    friends = sorted(oracle.reference.relation("friend").rows)
    yield (ARM_LOST, 0)
    yield Write([Update.delete("friend", friends[0]), Update.insert("friend", ("p0", "p_lost"))])
    yield (HEAL, 0)
    yield Write([Update.delete("friend", friends[1])])
    yield (REFILL, 0)


def admission(oracle: Oracle):
    """c0's city under ψ4 (N = 1): a batch that overfills the group is rejected;
    a replace inside the full group is accepted."""
    ((city,),) = oracle.answer(0)
    yield Write([Update.insert("cafe", ("c0", c)) for c in ("atlantis", "mu")], ["rejected"])
    yield (READ, 0)
    replace = [Update.delete("cafe", ("c0", city)), Update.insert("cafe", ("c0", "x"))]
    yield Write(replace, ["patched"])


#: every named schedule: its case and its steps
NAMED = {
    "reads_hit_after_a_miss": (Case("facebook", 30, 5, "reads"), reads_hit_after_a_miss),
    "graph_search": (Case("facebook", 200, 0, "graph_search"), lambda oracle: [_answers_have_rows]),
    "the_named_schedule": (Case("facebook", 15, 5, "q1"), the_named_schedule),
    "two_sites_over_one_index_register_their_union": (
        Case("facebook", 15, 3, "friends_of_friends"), two_sites_over_one_index_register_their_union
    ),
    "one_settlement_on_every_substrate": (
        Case("facebook", 15, 5, "q1"), one_settlement_on_every_substrate
    ),
    "a_fetch_keyed_through_a_fused_projection": (
        Case("facebook", 15, 5, "q1"), a_fetch_keyed_through_a_fused_projection
    ),
    **{
        f"bundled_{name}": (Case(name, ANALYTIC_SCALE, 7, "analytic"), bundled_workload)
        for name in sorted(WORKLOADS)
    },
    "harness_point": (Case("TFACC", 60, DATA_SEED, "harness_point"), harness_plans),
    "harness_wide": (Case("TFACC", 60, DATA_SEED, "harness_wide"), harness_plans),
    "mirror_lockstep": (Case("facebook", 20, 3, "lockstep"), mirror_lockstep),
    # generated queries whose plans carry join residuals
    "covered_queries": (Case("TFACC", 20, 0, "covered"), lambda oracle: [(HOT_INSERT, 0)]),
    "random_queries": (Case("TFACC", 20, 8, "random", 8), lambda oracle: [(COLD, 1)]),
    "admission": (Case("facebook", 40, 7, "cafe_city"), admission),
    "replica_heals": (Case("facebook", 30, 5, "reads"), replica_heals),
}


@pytest.mark.parametrize("cell", list(CELLS))
@pytest.mark.parametrize("name", list(NAMED))
def test_named_schedule(name, cell):
    case, steps = NAMED[name]
    with ExitStack() as stack:
        oracle = Oracle(case, cell, stack)
        oracle.run(steps(oracle))
    assert oracle.nonempty > 0, f"{name} compared only empty answers on {cell}"
