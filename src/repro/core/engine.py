"""The end-to-end bounded evaluation framework of Section 7 (Fig. 4).

:class:`BoundedEngine` wires together every component of the paper on top of
the in-memory substrate:

* **C1** — discover an access schema (optional) and build / maintain its
  constraint indexes ``I_A``;
* **C2** — check coverage of incoming queries (``CovChk``);
* **C3** — pick a minimal covering subset ``A_m`` (``minA`` and friends);
* **C4** — generate a canonical bounded plan (``QPlan``);
* **C5** — optionally translate the plan to SQL (``Plan2SQL``);
* **C6** — execute the plan, accessing only the bounded fraction ``D_Q``;
  queries that are not covered (and cannot be rewritten into a covered
  equivalent) fall back to conventional evaluation.

Caching architecture
--------------------

On top of the paper's pipeline sits one **versioned serving core**,
:class:`ServingCore`, shared by :class:`BoundedEngine` (one database) and
the federated :class:`~repro.sharding.router.ShardRouter` (a partition of
shards).  A covered plan touches data only through fetch steps, so the two
differ in how a fetch is answered and in what "the data has not moved"
means — nothing else.  The core owns (see :mod:`repro.core.planstore`):

* **Plan store** — C2–C4 (plus the peephole optimization of
  :mod:`repro.core.optimizer`) depend only on the query syntax and the
  access schema, so their output is cached under the query's canonical
  form (:func:`repro.core.fingerprint.prepared_cache_key`) in the core's
  own :class:`~repro.core.planstore.PlanStore`.  No write touches it: an
  entry leaves only by LRU displacement.  The executable plan of an entry
  carries its compiled kernels (:meth:`PlanExecutor.compile
  <repro.evaluator.executor.PlanExecutor.compile>`), so they live as long
  as the plan-store or result-cache entry that holds the plan.

* **Result cache** — covered results are bounded by the access schema
  (≤ ``access_bound()`` tuples), so the core keeps a
  :class:`~repro.core.planstore.ResultCache` keyed by the query's SHA-256
  fingerprint (:func:`repro.core.fingerprint.result_cache_key`).
  That key is computed once per prepare, on the plan-store miss, and read
  off the prepared entry (:attr:`PreparedQuery.result_key`): a read builds
  the canonical form once and hashes no digest.  Repeated covered queries
  on unchanged data are served without executing at all.  Validity is kept
  per relation, not per entry: the cache holds each relation's settlement
  mark, an entry is served while the snapshot of its dependencies puts
  each of them at its mark, and a write this core did not settle moves a
  relation past its mark, so its dependents miss.

* **Snapshots** — every data-changing write stamps the written relations
  on a :class:`~repro.storage.counters.VersionClock`.  The substrate says
  which clocks make up a snapshot (the database's; every shard's) and how
  a snapshot splits into one epoch token per relation.

* **One write path** — :meth:`ServingCore.apply_updates` (the batch's
  relations' tokens → :meth:`~ServingCore._write` → the read-back →
  :meth:`~ServingCore._settle`): the substrate hook runs the
  Proposition-12 loop of :func:`repro.discovery.maintenance.apply_updates`
  over its (storage, index) pairs and bumps their clocks; the read-back
  undoes and rejects a batch that broke ``D ⊨ A``; then, for a cleanly
  applied batch, the result cache's reach index names the dependent entries
  some written key hit: those are patched through the
  :class:`~repro.core.deltas.DeltaDeriver` (and stay indexed) or — when
  their delta is not provable — dropped; then the touched relations' marks
  move, which settles every dependent the batch did not reach without
  visiting it.  Without a usable delta — a batch that failed part-way or
  was undone, a rebalance that moved rows between shards — the result
  cache's dependents are swept.  The data-independent plan store is left
  alone either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Hashable, Iterable, Mapping, Sequence

from ..evaluator.baseline import evaluate_conventional
from ..evaluator.executor import ExecutionResult, PlanExecutor
from ..storage.counters import AccessCounter
from ..storage.database import Database
from ..storage.index import IndexSet
from .access import AccessSchema
from .coverage import CoverageChecker, CoverageResult, check_coverage
from .deltas import EVERY_WRITE, FALLBACK, PATCHED, DeltaDeriver, WriteDelta
from .errors import (
    CircuitOpenError,
    ConstraintViolation,
    MaintenanceError,
    NotCoveredError,
    TransientFault,
)
from .fingerprint import prepared_cache_key, result_cache_key
from .minimize import MinimizationResult, minimize_auto
from .optimizer import optimize_plan
from .plan import BoundedPlan
from .planner import generate_plan
from .planstore import CachedResult, PlanStore, ResultCache
from .query import Query
from .rewrite import find_covered_rewrite

# ``discovery`` imports ``core``: bind the module only (whichever side is
# imported first, its names resolve at call time — which is also where the
# benchmark tracer expects ``maintenance.apply_updates`` to be looked up).
from ..discovery import maintenance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..discovery.maintenance import MaintenanceReport, Update
    from .access import AccessConstraint
    from .schema import DatabaseSchema

#: the most rows, summed over a plan's steps, an execution captures for delta
#: repair: above it the result is cached without an environment, and a write
#: that reaches it drops it (``no_env``) instead of patching it
ENV_ROWS_BUDGET = 200_000


@dataclass
class EngineResult:
    """The outcome of :meth:`ServingCore.execute`.

    ``strategy`` is ``"bounded"`` when a bounded plan was executed (possibly
    for a rewritten equivalent of the input query), and ``"conventional"``
    when the engine fell back to full evaluation.  ``cached`` reports whether
    the coverage/minimization/planning work was served from the plan store;
    ``result_cached`` reports whether even execution was skipped because the
    result cache held a version-valid materialized answer.
    """

    rows: frozenset[tuple]
    columns: tuple[str, ...]
    strategy: str
    elapsed: float
    counter: AccessCounter
    plan: BoundedPlan | None = None
    coverage: CoverageResult | None = None
    minimization: MinimizationResult | None = None
    rewrite: str = "identity"
    cached: bool = False
    result_cached: bool = False

    def access_ratio(self, database_size: int) -> float:
        """``P(D_Q)`` for this execution."""
        return self.counter.ratio(database_size)


@dataclass
class PreparedQuery:
    """Everything C2–C4 produce for one query.

    For covered (or rewritable) queries ``plan`` holds the canonical bounded
    plan and ``executable`` the optimized plan actually run; for uncovered
    queries both are ``None`` and only ``coverage`` is kept, so the fallback
    decision itself is also cached.  ``dependencies`` names the base
    relations the executable plan fetches from — what its cached *result*
    depends on (the prepared entry itself depends on no data).
    ``result_key`` is the key the result cache files the query's answer
    under (:func:`~repro.core.fingerprint.result_cache_key`): the entry
    carries it so that no read hashes a digest.
    """

    coverage: CoverageResult
    plan: BoundedPlan | None = None
    executable: BoundedPlan | None = None
    minimization: MinimizationResult | None = None
    rewrite: str = "identity"
    target: Query | None = None
    dependencies: tuple[str, ...] = ()
    result_key: Hashable | None = None

    @property
    def covered(self) -> bool:
        return self.plan is not None


def _plan_covered(
    coverage: CoverageResult,
    checker: CoverageChecker,
    access_schema: AccessSchema,
    minimize: bool,
) -> tuple[BoundedPlan, CoverageResult, MinimizationResult | None]:
    """C3 + C4 for a covered query: choose ``A_m``, re-check against it, generate the plan.

    The one place where ``A_m`` is chosen.  ``checker`` is the one
    ``coverage`` came from, so the query is normalized and analysed once per
    prepare however many checks follow.
    """
    minimization: MinimizationResult | None = None
    if minimize:
        minimization = minimize_auto(coverage.query, access_schema, checker=checker)
        coverage = check_coverage(coverage.query, minimization.selected, checker=checker)
    return generate_plan(coverage), coverage, minimization


def prepare_query(
    query: Query,
    access_schema: AccessSchema,
    *,
    minimize: bool = True,
) -> PreparedQuery:
    """The C2–C4 pipeline as a pure function of (query, access schema).

    Runs coverage checking, covered rewriting, access minimization, plan
    generation and peephole optimization — everything a
    :class:`PreparedQuery` holds, the result-cache key included.
    :class:`ServingCore` caches the output in a
    :class:`~repro.core.planstore.PlanStore` under
    :func:`~repro.core.fingerprint.prepared_cache_key`, always minimized;
    ``minimize=False`` plans against the whole access schema, which no
    serving path asks for.
    """
    result_key = result_cache_key(query)
    target = query
    rewrite_name = "identity"
    checker = CoverageChecker(query)
    coverage = check_coverage(query, access_schema, checker=checker)
    if not coverage.is_covered:
        verdict = find_covered_rewrite(query, access_schema)
        if verdict.bounded and verdict.witness is not None:
            target = verdict.witness
            rewrite_name = verdict.rewrite
            checker = CoverageChecker(target)
            coverage = check_coverage(target, access_schema, checker=checker)

    if not coverage.is_covered:
        return PreparedQuery(coverage=coverage, result_key=result_key)

    plan, effective_coverage, minimization = _plan_covered(
        coverage, checker, access_schema, minimize
    )
    executable = optimize_plan(plan)
    return PreparedQuery(
        coverage=effective_coverage,
        plan=plan,
        executable=executable,
        minimization=minimization,
        rewrite=rewrite_name,
        target=target,
        dependencies=executable.dependency_relations(),
        result_key=result_key,
    )


class ServingCore:
    """The serving pipeline every substrate shares: prepare → probe → execute → validate → settle.

    Owns the plan store, the result cache, :meth:`prepare`, :meth:`execute`
    (and :meth:`probe`, its hit-only first half), :meth:`apply_updates` with
    its settlement (:meth:`_settle`), :meth:`cache_stats`, and the one
    :class:`~repro.evaluator.executor.PlanExecutor` that reads run on and
    write settlement re-runs kernels of.  A subclass supplies only its
    substrate: the fetch ``source`` that answers fetch steps (``schema``
    being the data's), :meth:`_snapshot` / :meth:`_validate` (what "the data
    has not moved" means) and :meth:`_tokens` (a snapshot as one epoch token
    per relation), :meth:`_evaluate_conventionally` (the unbounded
    fallback), :meth:`_write` (the batch onto its data and clocks), and
    :meth:`_group_of` (a group over all its data, read back after a write).
    Settlement is the same on every substrate: a reached entry re-runs the
    kernels of its dirty fetches and of the steps downstream of them, which
    read the substrate through its fetch ``source`` like any execution.

    The caches are all a core is configured by, and both are its own:
    ``plan_cache_size`` bounds the plan store and ``result_cache_size`` the
    result cache (0 disables result caching).  Every plan is optimized
    (:func:`~repro.core.optimizer.optimize_plan`) and runs on the executor's
    row kernels.

    **Snapshot contract.**  :meth:`execute` reads the dependency snapshot
    *before* probing the result cache, re-validates it *after* executing,
    and admits a filled entry at that same snapshot — so a served or
    admitted result never mixes two epochs of its dependencies; an execution
    a write raced is re-run, up to ``max_snapshot_retries`` times, then
    abandoned with a typed :class:`~repro.core.errors.TransientFault`.  What
    "still valid" means for a cached entry lives in the result cache's
    per-relation settlement marks, not on the entry: a hit is served only
    when the snapshot puts every dependency at its mark, and admission
    settles a relation written behind the core's back first (sweeping its
    dependents).  A write moves the marks of the relations it touched only
    after deriving every entry its keys reached, so the entries it did not
    reach stay valid without being visited; a relation written behind the
    core's back, or moved while the derivations ran, has its dependents
    swept instead — never patched.  A write reads the touched relations'
    tokens three times (before the write, after it, after the derivations),
    whatever the number of entries or dependency tuples.

    Dependent writes *repair* result-cache entries instead of sweeping them:
    covered executions capture their per-step row environment (up to
    :data:`ENV_ROWS_BUDGET` rows, summed over all steps of one entry) and
    :meth:`_settle` derives row-level patches from it for the entries the
    write's keys reached.  No write sweeps the plan store — prepared plans
    depend only on (query, access schema), and keeping them is what makes a
    read after any write hit without re-planning.

    ``fallback_breaker`` (``None`` until the serving tier mounts one;
    duck-typed: ``allow()`` / ``record_success()`` / ``record_failure()``,
    e.g. a :class:`~repro.serving.policy.CircuitBreaker`) guards the
    *unbounded* conventional fallback: unlike bounded plans, whose cost is
    capped by ``access_bound()``, a fallback execution can touch all the
    data — so under load a stampede of uncovered queries could starve the
    covered hot path.  When the breaker refuses, :meth:`execute` raises
    :class:`~repro.core.errors.CircuitOpenError` instead of evaluating; every
    fallback outcome is reported back to the breaker.
    """

    #: executions re-run after a racing write before the read is abandoned
    max_snapshot_retries = 2

    def __init__(
        self,
        access_schema: AccessSchema,
        *,
        source: object,
        schema: "DatabaseSchema",
        plan_cache_size: int,
        result_cache_size: int,
    ):
        self.access_schema = access_schema
        self.schema = schema
        self.plan_cache = PlanStore(plan_cache_size)
        self.result_cache = ResultCache(result_cache_size, tokens=self._tokens)
        self.fallback_breaker = None
        #: the conventional-evaluation seam: the fault injector (and tests)
        #: wrap this attribute rather than the module function, so faults
        #: hit only this instance.
        self._fallback_evaluator = evaluate_conventional
        self._executor = PlanExecutor(source)
        self._deriver = DeltaDeriver(self._executor, schema)

    # -- the substrate ------------------------------------------------------------------
    def _snapshot(self, relations: tuple[str, ...]) -> tuple:
        """The current epoch token of ``relations``, compared only by equality."""
        raise NotImplementedError

    def _validate(self, relations: tuple[str, ...], snapshot: tuple) -> bool:
        """Whether ``relations`` still stand at ``snapshot``."""
        raise NotImplementedError

    def _tokens(self, relations: tuple[str, ...], snapshot: tuple) -> Iterable:
        """``snapshot`` of ``relations`` as one epoch token per relation, in order.

        A relation's token changes with every write to it, and only then.
        One database's snapshot is already that.
        """
        return snapshot

    def _evaluate_conventionally(self, query: Query):
        """``query`` through ``_fallback_evaluator`` over all of the substrate's data."""
        raise NotImplementedError

    def _snapshot_retried(self, *, abandoned: bool) -> None:
        """An execution was invalidated by a racing write (a counting hook)."""

    def _group_of(self, constraint: "AccessConstraint", row: tuple) -> Collection[tuple]:
        """``row``'s live ``X``-group under ``constraint``, over all the data."""
        raise NotImplementedError

    # -- query preparation (C2-C4, cached) --------------------------------------------
    # ``prepare``, ``probe`` and ``execute`` each build the plan-store key
    # exactly once and address the result cache with the ``result_key`` the
    # entry they found carries: keying is most of the work left on a
    # result-cache hit, so the hot path must not compute it twice, must not
    # hash a digest (that happens once, on the plan-store miss) — nor spend
    # a call frame on sharing these two lines.
    def prepare(self, query: Query) -> PreparedQuery:
        """The cached C2-C4 pipeline: ``query``'s plan-store entry, prepared on a miss."""
        key = prepared_cache_key(query)
        entry = self.plan_cache.get(key)
        if entry is None:
            entry = self._prepare_miss(key, query)
        return entry

    def _prepare_miss(self, key: Hashable, query: Query) -> PreparedQuery:
        """Run C2–C4 for a query the plan store does not hold, and store it under ``key``."""
        entry = prepare_query(query, self.access_schema)
        self.plan_cache.put(key, entry)
        return entry

    # -- the hit path ----------------------------------------------------------------------
    @staticmethod
    def _hit_result(prepared: PreparedQuery, hit: CachedResult, cached: bool) -> EngineResult:
        """What a hit returns: THE hit branch, of :meth:`execute` and of :meth:`probe`."""
        return EngineResult(
            rows=hit.rows,
            columns=hit.columns,
            strategy="bounded",
            elapsed=0.0,
            counter=AccessCounter(),
            plan=prepared.plan,
            coverage=prepared.coverage,
            minimization=prepared.minimization,
            rewrite=prepared.rewrite,
            cached=cached,
            result_cached=True,
        )

    def probe(self, query: Query) -> EngineResult | None:
        """The result-cache hit :meth:`execute` would return for ``query``, or ``None``.

        The first half of :meth:`execute` and nothing else: plan-store key
        once → plan-store lookup → dependency snapshot → result-cache lookup
        under the entry's ``result_key`` against that snapshot.  ``None``
        means the answer costs something — the plan store does not hold the
        query (C2–C4 are **not** run), the query is not covered, there is no
        entry, or the snapshot does not put the entry's dependencies at their
        settlement marks — and the caller should :meth:`execute`.  Both
        lookups are uncounted until the read is served (see
        :meth:`PlanStore.get <repro.core.planstore.PlanStore.get>`): on
        ``None`` the :meth:`execute` that follows counts it, so one read is
        one count in each cache however it was served.  The serving tier
        answers hits with this on the caller's turn and queues only what is
        left.
        """
        key = prepared_cache_key(query)
        prepared = self.plan_cache.get(key, record=False)
        if prepared is None or not prepared.covered:
            return None
        snapshot = self._snapshot(prepared.dependencies)
        hit = self.result_cache.get(prepared.result_key, snapshot, record=False)
        if hit is None:
            return None
        self.plan_cache.record_hit()
        self.result_cache.record_hit()
        return self._hit_result(prepared, hit, True)

    # -- C6: execution -------------------------------------------------------------------
    def execute(self, query: Query, *, fallback: bool = True) -> EngineResult:
        """Answer ``query``: bounded plan when possible, otherwise fall back.

        The A-equivalent rewrites of :mod:`repro.core.rewrite` (difference
        guarding, branch pruning) are tried before giving up on bounded
        evaluation.  Repeated queries hit the plan store and skip coverage
        checking, minimization and planning entirely; repeated covered
        queries over unchanged dependent relations are served straight from
        the result cache without executing.  Executions are epoch-guarded (the class docstring's
        snapshot contract).  Uncovered queries fall back to conventional
        evaluation, gated by ``fallback_breaker``.
        """
        key = prepared_cache_key(query)
        prepared = self.plan_cache.get(key)
        cached = prepared is not None
        if not cached:
            prepared = self._prepare_miss(key, query)

        if prepared.covered:
            dependencies = prepared.dependencies
            result_key = prepared.result_key
            for _attempt in range(self.max_snapshot_retries + 1):
                snapshot = self._snapshot(dependencies)
                hit = self.result_cache.get(result_key, snapshot)
                if hit is not None:
                    return self._hit_result(prepared, hit, cached)
                execution: ExecutionResult = self._executor.execute(
                    prepared.executable,
                    capture_env=self.result_cache.capacity > 0,
                    env_rows_budget=ENV_ROWS_BUDGET,
                )
                if self._validate(dependencies, snapshot):
                    self.result_cache.put(
                        result_key,
                        rows=execution.rows,
                        columns=execution.columns,
                        dependencies=dependencies,
                        snapshot=snapshot,
                        env=execution.env,
                        plan=prepared.executable,
                    )
                    return EngineResult(
                        rows=execution.rows,
                        columns=execution.columns,
                        strategy="bounded",
                        elapsed=execution.elapsed,
                        counter=execution.counter,
                        plan=prepared.plan,
                        coverage=prepared.coverage,
                        minimization=prepared.minimization,
                        rewrite=prepared.rewrite,
                        cached=cached,
                    )
                self._snapshot_retried(abandoned=False)
            self._snapshot_retried(abandoned=True)
            raise TransientFault(
                f"execution abandoned after {self.max_snapshot_retries + 1} attempts: "
                "dependency epochs kept moving under the read; retry later"
            )

        if not fallback:
            raise NotCoveredError(prepared.coverage.explain())

        breaker = self.fallback_breaker
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                "conventional fallback refused: circuit breaker is open "
                "(recent fallback failures); retry after the cooldown or "
                "rewrite the query into a covered form"
            )
        try:
            baseline = self._evaluate_conventionally(query)
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return EngineResult(
            rows=baseline.rows,
            columns=baseline.result.columns,
            strategy="conventional",
            elapsed=baseline.elapsed,
            counter=baseline.counter,
            coverage=prepared.coverage,
            cached=cached,
        )

    # -- write settlement ---------------------------------------------------------------
    def _settle(
        self,
        touched: Sequence[str],
        before: Mapping[str, Hashable] | None,
        delta: WriteDelta | None,
    ) -> dict[Hashable, str]:
        """Settle the result cache after a write changed ``touched`` (clocks already bumped).

        The plan store is never touched: a prepared plan is a function of the
        query and the access schema, and compiled kernels read the data at
        call time.  Without a usable ``delta`` — the batch failed part-way
        and what it left behind is suspect, it was rejected and undone, or a
        rebalance moved rows — every result-cache dependent of ``touched`` is
        swept, ``no_delta``.

        Otherwise the result cache is settled by relation, from three reads
        of the touched relations' epoch tokens: ``before`` (by relation, read
        before the write), one now and one after the last derivation —
        whatever the number of entries or dependency tuples.  A
        touched relation whose ``before`` token is not its settlement mark
        was written without this core settling it (an out-of-band write,
        another core over the same data, an earlier failed batch): its
        dependents are swept, ``stale``, never patched.  Entries filled since
        the last settlement are entered in the reach index, which is then
        intersected once with the keys the batch wrote; only the entries it
        returns are looked at, and each gets what the deriver says:
        ``patched`` (its dirty closure re-run, re-indexed under each relation
        the patch re-keyed, with the reach the derivation read off the new
        environment — a patch that leaves the rows as they were counts as a
        clean repair), ``clean`` (no fetch of it probed a written key), or
        ``no_env`` / ``fallback:<reason>`` (not derivable: dropped).  A
        touched relation whose token moved between the write and the end of
        the derivations (a write raced them, so a patch could mix epochs) has
        its dependents swept, ``race``, and keeps no mark.  Every other
        touched relation's mark moves to its post-write token: that settles
        every entry the write did not reach without visiting it.  A relation
        the derivations only read and that moved under them keeps its old
        mark, so its dependents are not served and go at its next
        settlement.  Returns the verdicts by cache key; an entry the write
        did not reach has none.
        """
        cache, deriver = self.result_cache, self._deriver
        if not delta:
            return dict.fromkeys(cache.sweep(touched, "no_delta"), "no_delta")
        touched = tuple(touched)
        verdicts: dict[Hashable, str] = {}
        marks = cache.marks
        unsettled = [r for r in touched if marks.get(r, before[r]) != before[r]]
        if unsettled:
            verdicts.update(dict.fromkeys(cache.sweep(unsettled, "stale"), "stale"))
        after = tuple(self._tokens(touched, self._snapshot(touched)))

        for key, entry in list(cache.unindexed.items()):
            if all(r not in touched for r in entry.dependencies):
                continue  # the write cannot reach it: indexed by one that can
            entry.keyed, entry.reach = {}, {}
            for base in entry.dependencies:
                cache.index(
                    key,
                    base,
                    EVERY_WRITE
                    if entry.env is None
                    else deriver.reach(entry.plan, entry.env, entry.keyed, base),
                )

        derived = []
        for key, entry in cache.reached(delta).items():
            if entry.env is None:
                reason = verdict = "no_env"
            else:
                outcome = deriver.derive(entry.plan, entry.env, entry.rows, delta, entry.keyed)
                if outcome.status != FALLBACK:
                    derived.append((key, entry, outcome))
                    continue
                reason, verdict = outcome.reason, f"{FALLBACK}:{outcome.reason}"
            cache.drop(key, reason=reason, relations=[r for r in entry.dependencies if r in touched])
            verdicts[key] = verdict

        final = self._tokens(touched, self._snapshot(touched))
        raced = [r for r, a, f in zip(touched, after, final) if a != f]
        if raced:
            verdicts.update(dict.fromkeys(cache.sweep(raced, "race"), "race"))
        for key, entry, outcome in derived:
            if cache.repair(
                key,
                rows=outcome.rows if outcome.status == PATCHED else entry.rows,
                env=outcome.env,
                rows_added=outcome.rows_added,
                rows_removed=outcome.rows_removed,
            ):
                for base, reach in outcome.reach:
                    cache.index(key, base, reach)
                verdicts[key] = outcome.status
        cache.mark({r: token for r, token in zip(touched, after) if r not in raced})
        return verdicts

    def _write(self, updates: list["Update"]) -> "MaintenanceReport":
        """Apply ``updates`` to the substrate's data, clocks included.

        Every (storage, index) pair is written by :func:`repro.discovery.
        maintenance.apply_updates` — here over one database, on a federation
        once per owning shard; a batch that aborts part-way raises
        :class:`~repro.core.errors.MaintenanceError` carrying the partial.
        """
        raise NotImplementedError

    def apply_updates(self, updates: Iterable["Update"]) -> "MaintenanceReport":
        """Apply a batch of updates, then settle the result cache once for all of it.

        THE write path of every substrate: read the batch's relations' epoch
        tokens before any clock moves, :meth:`_write`, :meth:`_admit` (the
        read-back that holds ``D ⊨ A``), then one :meth:`_settle` with those
        tokens and the delta of the updates that *effectively* changed data
        (skipped duplicates and missing deletes excluded).

        If the batch aborts part-way, what the partial did mutate is read
        back and settled before the :class:`~repro.core.errors.
        MaintenanceError` propagates — always by sweeping, never by repair:
        a mid-batch fault makes the state left behind suspect — so the result
        cache can never keep serving rows from before the aborted batch.
        """
        updates = list(updates)
        relations = tuple(sorted({update.relation for update in updates}))
        before = dict(zip(relations, self._tokens(relations, self._snapshot(relations))))
        try:
            report = self._write(updates)
        except MaintenanceError as error:
            partial = error.report
            if partial is not None and partial.touched_relations:
                self._admit(partial)
                self._settle(sorted(partial.touched_relations), None, None)
            raise
        if report.touched_relations:
            self._admit(report)
            self._settle(
                sorted(report.touched_relations),
                before,
                WriteDelta.from_updates(report.applied_updates),
            )
        return report

    def _admit(self, report: "MaintenanceReport") -> None:
        """Keep an applied batch only while ``D ⊨ A``; else undo it, sweep, raise.

        Judged after the whole batch, by the group each effective insert
        landed in; the undo writes the effective updates back inverted, in
        reverse order (exact under set semantics).
        """
        for update in report.applied_updates:
            if update.kind != "insert":
                continue
            for constraint in self.access_schema.for_relation(update.relation):
                size = len(self._group_of(constraint, update.row))
                if size > constraint.bound:
                    try:
                        self._write([done.inverse() for done in reversed(report.applied_updates)])
                    finally:
                        self._settle(sorted(report.touched_relations), None, None)
                    at = self.schema[update.relation].positions(sorted(constraint.lhs))
                    raise ConstraintViolation(constraint, tuple(update.row[p] for p in at), size)

    # -- reporting ----------------------------------------------------------------------------
    def cache_stats(self) -> dict[str, dict[str, int | float]]:
        """Plan-store and result-cache statistics, reported separately."""
        return {
            "plan_store": self.plan_cache.stats(),
            "result_cache": self.result_cache.stats(),
        }


class BoundedEngine(ServingCore):
    """Bounded evaluation of RA queries over one in-memory database.

    The :class:`ServingCore` over a single :class:`~repro.storage.database.
    Database`: fetch steps are constraint-index lookups, a snapshot is the
    database's version clock, and writes go through the incremental index
    maintenance of Proposition 12.  The engine is single-threaded per write
    (the serving tier serializes writes); concurrent *readers* are safe
    because they only compare snapshots.

    The constraint indexes ``I_A`` are built on construction, refusing data
    that breaks a bound with :class:`~repro.core.errors.ConstraintViolation`
    (as :meth:`apply_updates` refuses a batch).  Every plan, point lookup
    or wide join, runs on the executor's row kernels.
    """

    def __init__(
        self,
        database: Database,
        access_schema: AccessSchema,
        *,
        plan_cache_size: int = 128,
        result_cache_size: int = 256,
    ):
        self.database = database
        started = time.perf_counter()
        self.indexes = IndexSet.build(database, access_schema)
        self.index_build_seconds = time.perf_counter() - started
        super().__init__(
            access_schema,
            source=self.indexes,
            schema=database.schema,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
        )

    # -- the substrate: one database ----------------------------------------------------
    def _snapshot(self, relations: tuple[str, ...]) -> tuple[int, ...]:
        return self.database.clock.snapshot(relations)

    def _validate(self, relations: tuple[str, ...], snapshot: tuple[int, ...]) -> bool:
        return self.database.clock.snapshot(relations) == snapshot

    def _evaluate_conventionally(self, query: Query):
        return self._fallback_evaluator(
            query, self.database, self.access_schema, self.indexes
        )

    def _group_of(self, constraint, row: tuple) -> tuple[tuple, ...]:
        return self.indexes.group_of(constraint, row)

    # -- C2: coverage -----------------------------------------------------------
    def check(self, query: Query) -> CoverageResult:
        """Run ``CovChk`` on ``query`` against the engine's access schema."""
        return check_coverage(query, self.access_schema)

    def is_covered(self, query: Query) -> bool:
        """Shorthand: whether ``CovChk`` passes for ``query``."""
        return self.check(query).is_covered

    # -- C3 + C4: minimization and planning -----------------------------------------
    def plan(
        self, query: Query, *, minimize: bool = True
    ) -> tuple[BoundedPlan, CoverageResult, MinimizationResult | None]:
        """Generate a bounded plan for a covered query.

        When ``minimize`` is true, the plan is generated against the minimized
        subset ``A_m`` returned by the access-minimization heuristics.
        Raises :class:`NotCoveredError` if the query is not covered.
        """
        checker = CoverageChecker(query)
        coverage = check_coverage(query, self.access_schema, checker=checker)
        if not coverage.is_covered:
            raise NotCoveredError(coverage.explain())
        return _plan_covered(coverage, checker, self.access_schema, minimize)

    # -- C1: maintenance -------------------------------------------------------------------
    def _write(self, updates: list["Update"]) -> "MaintenanceReport":
        # Through the module, at call time: the benchmark tracer wraps
        # ``maintenance.apply_updates`` from outside.
        return maintenance.apply_updates(
            self.database, self.indexes, self.access_schema, updates
        )

    def apply_insert(self, relation: str, row: Sequence | Mapping[str, object]) -> None:
        """Insert a tuple: a one-update :meth:`apply_updates` batch.

        The row is validated (arity, unknown attributes) *before* anything is
        mutated: a malformed row raises a typed
        :class:`~repro.core.errors.StorageError` while storage, the constraint
        indexes, and the version clock are all still untouched.
        """
        prepared = self.database.relation(relation).prepare(row)
        self.apply_updates([maintenance.Update.insert(relation, prepared)])

    def apply_delete(self, relation: str, row: Sequence | Mapping[str, object]) -> None:
        """Delete a tuple, validated before mutating exactly as :meth:`apply_insert`."""
        prepared = self.database.relation(relation).prepare(row)
        self.apply_updates([maintenance.Update.delete(relation, prepared)])

    # -- reporting ----------------------------------------------------------------------------
    def index_footprint(self) -> dict[str, object]:
        """Size statistics of the materialized indexes (Exp-1(IV))."""
        database_size = self.database.size
        total = self.indexes.total_size
        return {
            "database_tuples": database_size,
            "index_tuples": total,
            "index_fraction": (total / database_size) if database_size else 0.0,
            "build_seconds": self.index_build_seconds,
            "constraints": len(self.access_schema),
        }
