"""Delta maintenance of cached bounded results (incremental view repair).

A covered query's result is computed *only* through the fetch steps of its
bounded plan, and each fetch reads exactly one constraint-index group per
probed key.  That gives writes a small, statically-known blast radius: a
tuple written to relation ``R`` can change a cached result only through the
fetch steps over ``R``'s constraints, and only when the written tuple's key
(its projection onto ``sorted(lhs)``) is one of the keys that fetch actually
probed.  :class:`DeltaDeriver` exploits this to **repair** a cached result
in place instead of invalidating it:

1. **Dirty-fetch detection** — for every fetch over a written relation,
   project each written row onto the fetch's constraint key and test
   membership in the key set the fetch probed at fill time.  A miss means
   the write landed in an index group the result never read; when *no*
   fetch is dirty the entry is kept as it is — zero execution — and stays
   valid when the write moves its relations' settlement marks.  Like the
   executor, detection is split into
   compile-once and run-per-write: the plan's fetch sites (positions,
   downstream closures, derivability) are a :class:`RepairProgram` compiled
   once per plan; the probed keys of an entry are read off its captured
   environment once (:class:`FetchKeys`, kept with the cache entry for as
   long as it lives) and entered, inverted, in the result cache's reach
   index (:meth:`DeltaDeriver.reach`, :meth:`ResultCache.index
   <repro.core.planstore.ResultCache.index>`); the written keys are
   projected once per batch (:meth:`WriteDelta.keys_for`).  What is left
   per write is one look-up per written key — the ``O(N_A·|ΔD|)`` of
   Proposition 12, not a function of what is cached — and only the entries
   those look-ups find are derived at all; a key hit can still come back
   clean, when the live index group equals the cached one.
2. **Δfetch** — a dirty fetch's new output is its old output minus the
   cached group of each written key whose group changed, plus that key's
   live group, which detection has just read: the delta rule of the fetch
   operator, exact because a fetch's rows under one key *are* that key's
   index group.  So a dirty fetch is patched, not re-fetched, and its
   :class:`FetchKeys` is updated in place.  Where the substrate cannot read
   a live group (``group_lookup`` is ``None``: the federation) or the
   fetch's own keys were recomputed, it runs its kernel instead.
3. **Selective re-execution** — the steps downstream of the dirty fetches
   are re-run through the plan's own compiled row kernels (the serving
   executor's; nothing is lowered twice) over the memoized intermediates of
   the untouched steps.  Because the repair runs the *same kernels* over
   the *same upstream inputs*, the patched result is exactly what a full
   recomputation would produce (a property pinned by the randomized repair
   tests).  The key sets of the fetches whose keys were recomputed are
   dropped, for the caller to read again off the patched environment and
   re-register (:attr:`RepairOutcome.rekeyed`); every other one stays valid
   for it.

**Why not delta rules downstream too.**  Δσ, Δπ by support count and
ΔR ⋈ S would replace step 3 with rules over the changed rows.  Measured on
``served_mix``'s write sequence (seed 7, 510 engine writes), a write re-runs
56.4 steps over 10.7 derived entries; a re-run step reads 2.4 rows on
average, and 50.5 of the 56.4 do change their output.  What a kernel costs
there is its call, which a rule would pay as well, so the rules were not
built.

**Fallback.** Repair refuses — and the caller must invalidate — whenever
the delta is not derivable through the plan:

* an affected fetch feeds a :class:`~repro.core.plan.DifferenceOp`
  (classical delta rules are non-monotone there: an inserted tuple can
  *remove* result rows through the subtrahend, so the conservative contract
  is to recompute from scratch rather than patch);
* the entry carries no captured environment (its execution ran over the
  engine's budget);
* the entry is dirty and its plan runs columnar kernels, which exchange
  batches rather than the captured row sets (``executor_mode``): the next
  read re-executes it on those kernels, which is cheaper than re-running a
  wide plan's closure on row kernels.  Clean detection needs no kernels,
  so a clean columnar entry is kept like any other;
* derivation itself raises (schema drift, unknown operators).

Monotone fragments (fetch/select/project/join/union/intersect chains) are
always derivable, for inserts and deletes alike, because selective
re-execution is exact rather than delta-rule based.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..storage.counters import AccessCounter
from .plan import BoundedPlan, DifferenceOp, FetchOp, column_positions

Row = tuple
_NO_ROWS: frozenset[Row] = frozenset()
_log = logging.getLogger(__name__)

#: outcome statuses of :meth:`DeltaDeriver.derive`
CLEAN = "clean"        # no probed key's group changed: rows kept as they are
PATCHED = "patched"    # dirty closure re-executed, rows possibly changed
FALLBACK = "fallback"  # not derivable: the caller must invalidate

#: the reach of an entry every write to a relation must be derived for: the
#: empty key at no positions, which every written row projects onto
EVERY_WRITE: tuple[tuple[tuple[int, ...], frozenset[Row]], ...] = (((), frozenset([()])),)


class WriteDelta:
    """A batch of applied inserts/deletes, grouped by relation.

    The deriver only needs the written *rows* per relation (dirty-key
    detection is direction-agnostic: both an insert and a delete can only
    change the index group of the written row's key), but inserts and
    deletes are kept separate for observability.  Skipped (no-op) updates
    may be included — they can only mark extra keys dirty, never miss one,
    so including them costs work but never correctness.
    """

    __slots__ = ("inserts", "deletes", "_touched", "_keys")

    def __init__(
        self,
        inserts: Mapping[str, Sequence[Row]] | None = None,
        deletes: Mapping[str, Sequence[Row]] | None = None,
    ):
        self.inserts: dict[str, tuple[Row, ...]] = {
            relation: tuple(rows) for relation, rows in (inserts or {}).items() if rows
        }
        self.deletes: dict[str, tuple[Row, ...]] = {
            relation: tuple(rows) for relation, rows in (deletes or {}).items() if rows
        }
        self._touched = frozenset(self.inserts) | frozenset(self.deletes)
        self._keys: dict[tuple, frozenset[Row]] = {}

    @classmethod
    def from_updates(cls, updates: Iterable) -> "WriteDelta":
        """Group :class:`~repro.discovery.maintenance.Update`-shaped objects
        (duck-typed: ``.relation`` / ``.row`` / ``.kind``) by relation."""
        inserts: dict[str, list[Row]] = {}
        deletes: dict[str, list[Row]] = {}
        for update in updates:
            bucket = inserts if update.kind == "insert" else deletes
            bucket.setdefault(update.relation, []).append(tuple(update.row))
        return cls(inserts, deletes)

    @property
    def touched(self) -> frozenset[str]:
        """Relations this delta wrote at least one row to."""
        return self._touched

    def rows_for(self, relation: str) -> tuple[Row, ...]:
        """Every written row of ``relation``, inserts and deletes together."""
        return self.inserts.get(relation, ()) + self.deletes.get(relation, ())

    def keys_for(self, relation: str, positions: tuple[int, ...]) -> frozenset[Row]:
        """The written rows of ``relation`` projected onto ``positions``.

        Projected once per batch and shared by every entry settled against it.
        """
        keys = self._keys.get((relation, positions))
        if keys is None:
            keys = self._keys[relation, positions] = frozenset(
                tuple(row[p] for p in positions) for row in self.rows_for(relation)
            )
        return keys

    def __bool__(self) -> bool:
        return bool(self._touched)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WriteDelta(inserts={ {r: len(v) for r, v in self.inserts.items()} }, "
            f"deletes={ {r: len(v) for r, v in self.deletes.items()} })"
        )


@dataclass
class RepairOutcome:
    """What :meth:`DeltaDeriver.derive` decided for one cache entry.

    ``status`` is :data:`CLEAN` (no probed key was written: the entry's rows
    are already correct at the post-write data),
    :data:`PATCHED` (``rows`` / ``env`` hold the repaired state), or
    :data:`FALLBACK` (``reason`` says why the delta was not derivable and
    the entry must be invalidated instead).
    """

    status: str
    rows: frozenset[Row] | None = None
    env: tuple[frozenset[Row], ...] | None = None
    #: rows the patch added / removed relative to the cached result
    rows_added: int = 0
    rows_removed: int = 0
    #: fallback reason ("difference", "no_env", "error", ...)
    reason: str | None = None
    #: fetch steps found dirty (empty for CLEAN)
    dirty_steps: tuple[int, ...] = ()
    #: steps re-executed (the downstream closure of the dirty fetches)
    steps_recomputed: int = 0
    #: base relations of the fetches whose probed keys the patch recomputed:
    #: their :class:`FetchKeys` left ``keyed``, for the caller to re-read
    #: (:meth:`DeltaDeriver.reach`) and re-register
    rekeyed: tuple[str, ...] = ()
    counter: AccessCounter = field(default_factory=AccessCounter)

    @classmethod
    def clean(cls) -> "RepairOutcome":
        """The write is invisible through the plan: keep the rows, no execution."""
        return cls(status=CLEAN)

    @classmethod
    def fallback(cls, reason: str) -> "RepairOutcome":
        """Repair refused for ``reason``: the caller must invalidate instead."""
        return cls(status=FALLBACK, reason=reason)


@dataclass(frozen=True)
class FetchSite:
    """What settlement needs to know about one fetch step, fixed by the plan."""

    id: int
    constraint: object
    #: the physical relation behind the (possibly actualized) constraint
    base: str
    #: key positions in a written row of ``base`` (``sorted(lhs)`` order)
    row_positions: tuple[int, ...]
    #: the step whose rows supply the probed keys, and the key positions there
    source: int
    probe_positions: tuple[int, ...]
    #: key positions in the fetch's own rows (aligned with ``sorted(lhs | rhs)``;
    #: resolved positionally: step columns are qualified, ``lhs`` names are bare)
    group_positions: tuple[int, ...]
    #: the fetch and every step downstream of it, ascending
    closure: tuple[int, ...]
    #: no :class:`~repro.core.plan.DifferenceOp` in ``closure``
    monotone: bool
    #: ``(id, base)`` of the fetches whose source is in ``closure``: their
    #: probed keys are recomputed whenever this fetch's output is
    rekeys: tuple[tuple[int, str], ...]


class RepairProgram:
    """The plan-static half of settlement: a plan's fetch sites by base relation.

    Compiled once per plan from the step columns its kernels were lowered
    against, and kept on the :class:`~repro.evaluator.executor.CompiledPlan`
    — evicted and discarded with the kernels.
    """

    __slots__ = ("sites", "ordered")

    def __init__(self, plan: BoundedPlan, columns: Sequence[Sequence[str]], schema):
        self.sites: dict[str, tuple[FetchSite, ...]] = {}
        #: every site in plan order (``fetch_steps`` ascends): nothing sorts per call
        self.ordered: tuple[FetchSite, ...] = ()
        fetches = plan.fetch_steps()
        for step in fetches:
            op: FetchOp = step.op
            constraint = op.constraint
            base = plan.base_relation(constraint)
            lhs = sorted(constraint.lhs)
            combined = sorted(set(lhs) | set(constraint.rhs))
            source_positions = column_positions(columns[op.inputs[0]])
            # Steps are densely numbered with inputs < id: one ascending pass.
            closure = {step.id}
            for later in plan.steps[step.id + 1 :]:
                if closure.intersection(later.op.inputs):
                    closure.add(later.id)
            site = FetchSite(
                id=step.id,
                constraint=constraint,
                base=base,
                row_positions=schema[base].positions(lhs),
                source=op.inputs[0],
                probe_positions=tuple(source_positions[c] for c in op.key_columns),
                group_positions=tuple(combined.index(a) for a in lhs),
                closure=tuple(sorted(closure)),
                monotone=not any(
                    isinstance(plan.steps[sid].op, DifferenceOp) for sid in closure
                ),
                rekeys=tuple(
                    (other.id, plan.base_relation(other.op.constraint))
                    for other in fetches
                    if other.op.inputs[0] in closure
                ),
            )
            self.sites[base] = self.sites.get(base, ()) + (site,)
            self.ordered += (site,)

    def affected(self, touched: Iterable[str]) -> list[FetchSite]:
        """The fetch sites over any relation in ``touched``, in plan order."""
        touched = frozenset(touched)
        return [site for site in self.ordered if site.base in touched]


class FetchKeys:
    """One cached entry's view of one fetch: the keys it probed, its rows by key.

    Read off the entry's captured environment by the first settlement that
    meets the entry and kept *with the entry* (``CachedResult.keyed``), so it
    dies with the entry.  A patch that recomputes the fetch's source drops it
    (the probed keys may have moved), and the settlement reads a new one off
    the patched environment; one that patches the fetch itself
    (:meth:`patch`) keeps it, its groups updated in place.
    """

    __slots__ = ("probed", "_groups")

    def __init__(self, site: FetchSite, env: Sequence[Iterable[Row]]):
        positions = site.probe_positions
        self.probed = frozenset(
            tuple(row[p] for p in positions) for row in env[site.source]
        )
        self._groups: dict[Row, Iterable[Row]] | None = None

    def group(
        self, site: FetchSite, env: Sequence[Iterable[Row]], key: Row
    ) -> set[Row] | frozenset[Row]:
        """The fetch's cached rows under ``key`` (rows are grouped on first use).

        A fetch's output restricted to one key *is* that key's index group
        at fill time (fetch rows carry their key columns), which is what
        makes comparing it with the live group sound.
        """
        if self._groups is None:
            self._groups = {}
            positions = site.group_positions
            for row in env[site.id]:
                self._groups.setdefault(tuple(row[p] for p in positions), set()).add(row)
        return self._groups.get(key, _NO_ROWS)

    def patch(
        self,
        site: FetchSite,
        env: Sequence[Iterable[Row]],
        live: Mapping[Row, frozenset[Row]],
        counter: AccessCounter,
    ) -> set[Row]:
        """The fetch's output once each key of ``live`` reads its live group (Δfetch).

        The cached output minus the cached group of every such key, plus its
        live group — what re-fetching every probed key would return, since
        the other keys' groups did not change.  The live groups become the
        cached ones, and their tuples are charged to ``counter`` as the
        fetch's look-ups would be.
        """
        rows = set(env[site.id])
        for key, group in live.items():
            rows.difference_update(self.group(site, env, key))
            rows.update(group)
            self._groups[key] = group
            counter.record_fetch(site.base, len(group))
        return rows


class DeltaDeriver:
    """Derives per-entry repairs for a write batch through a plan's fetches.

    Split like the executor: what depends only on the plan is compiled once
    into a :class:`RepairProgram` on the executor's memoized
    ``CompiledPlan``; what depends on an entry's environment is a
    :class:`FetchKeys` per fetch in the ``keyed`` dict the caller keeps with
    the entry (:meth:`reach` reads them, for the caller to index; :meth:`derive`
    uses them); what depends on the batch is projected once on the
    :class:`WriteDelta`.  The deriver itself holds no per-plan or per-entry
    state.

    ``executor`` is the serving core's own
    :class:`~repro.evaluator.executor.PlanExecutor`: settlement reads the
    plan's memoized ``CompiledPlan`` and re-runs its kernels when they are
    row kernels (the captured environment's convention).  ``schema``
    resolves written rows' attribute positions for key projection.
    ``group_lookup(constraint, base, key)``, when provided, refines dirty
    detection by comparing the cached fetch group against the live index
    group — equal groups (e.g. a duplicate insert, or a delete re-inserted
    in the same batch) downgrade a key hit back to clean.  It must read
    **post-write** index state and return ``None`` when the group cannot be
    resolved.
    """

    def __init__(
        self,
        executor,
        schema,
        *,
        group_lookup: Callable[[object, str, Row], frozenset[Row] | None] | None = None,
    ):
        self.executor = executor
        self.schema = schema
        self.group_lookup = group_lookup

    def _compiled(self, plan: BoundedPlan):
        """``plan``'s memoized ``CompiledPlan``, its repair program attached."""
        compiled = self.executor.compile(plan)
        if compiled.repair is None:
            compiled.repair = RepairProgram(plan, compiled.columns, self.schema)
        return compiled

    # -- structural derivability ------------------------------------------------
    def affected_fetches(self, plan: BoundedPlan, touched: frozenset[str]) -> tuple[int, ...]:
        """Step ids of fetches whose base relation is in ``touched``."""
        return tuple(site.id for site in self._compiled(plan).repair.affected(touched))

    def derivable(self, plan: BoundedPlan, touched: frozenset[str]) -> bool:
        """Whether a write to ``touched`` is repairable through ``plan``.

        False exactly when some affected fetch reaches a
        :class:`~repro.core.plan.DifferenceOp` — the non-monotone operator
        where delta rules invert sign through the subtrahend, so the
        conservative contract (satellite of the repair design: *never* serve
        a stale repaired entry) is to fall back to invalidation.
        """
        return all(site.monotone for site in self._compiled(plan).repair.affected(touched))

    # -- reach ------------------------------------------------------------------
    def reach(
        self,
        plan: BoundedPlan,
        env: tuple[frozenset[Row], ...],
        keyed: dict[int, FetchKeys],
        base: str,
    ) -> tuple[tuple[tuple[int, ...], frozenset[Row]], ...]:
        """What a write to ``base`` must hit for :meth:`derive` to say anything but clean.

        One ``(key positions in a written row, probed keys)`` per fetch site
        over ``base`` — from its :class:`FetchKeys` in ``keyed``, read off
        ``env`` for the sites that have none there yet, where :meth:`derive`
        finds them again.  A written row that projects onto none of them
        leaves every such fetch as it was.  Where the verdict does not hang
        on a key — a site that feeds a difference, an environment that does
        not fit the plan, a program that does not compile — the reach is
        :data:`EVERY_WRITE`, and :meth:`derive` gives the reason.
        """
        try:
            sites = self._compiled(plan).repair.sites.get(base, ())
            if len(env) != len(plan.steps) or not all(site.monotone for site in sites):
                return EVERY_WRITE
            found = []
            for site in sites:
                keys = keyed.get(site.id)
                if keys is None:
                    keys = keyed[site.id] = FetchKeys(site, env)
                found.append((site.row_positions, keys.probed))
            return tuple(found)
        except Exception:
            # Not swallowed: reached by every write, the entry goes to
            # ``derive``, which meets the same error, logs it and drops it.
            return EVERY_WRITE

    # -- derivation -------------------------------------------------------------
    def derive(
        self,
        plan: BoundedPlan,
        env: tuple[frozenset[Row], ...],
        rows: frozenset[Row],
        delta: WriteDelta,
        keyed: dict[int, FetchKeys] | None = None,
    ) -> RepairOutcome:
        """Decide clean / patch / fallback for one cached result.

        ``env`` is the per-step environment captured when the entry was
        filled (``ExecutionResult.env``); ``rows`` the cached output rows;
        ``keyed`` the entry's :class:`FetchKeys` by fetch step, filled here
        as fetches are reached and valid only for this ``env`` (omitted:
        nothing is kept).  A :data:`PATCHED` outcome leaves ``keyed`` valid
        for the new ``env`` instead: the key sets of the fetches whose keys
        were recomputed are removed (their relations are ``rekeyed``), those
        of the fetches Δfetch patched hold their live groups, and all others
        are kept as they were.  Must be called
        **after** the write has been
        applied to storage and indexes — re-execution and ``group_lookup``
        read live state.  Exceptions never escape: any derivation error is
        logged and degrades to a :data:`FALLBACK` outcome (reason
        ``"error:<Exc>"``), because serving a wrong repaired row is the one
        failure mode this module must not have.
        """
        try:
            return self._derive(plan, env, rows, delta, {} if keyed is None else keyed)
        except Exception as error:
            _log.warning(
                "repair derivation raised %s (plan of %d steps, touched %s): entry dropped",
                type(error).__name__, len(plan.steps), sorted(delta.touched),
                exc_info=True,
            )
            return RepairOutcome.fallback(f"error:{type(error).__name__}")

    def _derive(
        self,
        plan: BoundedPlan,
        env: tuple[frozenset[Row], ...],
        rows: frozenset[Row],
        delta: WriteDelta,
        keyed: dict[int, FetchKeys],
    ) -> RepairOutcome:
        compiled = self._compiled(plan)
        affected = compiled.repair.affected(delta.touched)
        if not affected:
            # The write never reaches this plan's fetches (the caller's
            # dependency filter should already have skipped it).
            return RepairOutcome.clean()
        if not all(site.monotone for site in affected):
            return RepairOutcome.fallback("difference")
        if env is None or len(env) != len(plan.steps):
            return RepairOutcome.fallback("no_env")

        dirty: dict[int, tuple[FetchSite, dict]] = {}
        for site in affected:
            changed = self._changed(site, env, delta, keyed)
            if changed:
                dirty[site.id] = (site, changed)
        if not dirty:
            return RepairOutcome.clean()
        if compiled.mode != "row":
            # Columnar kernels exchange batches, not the captured row sets:
            # drop the entry and let the next read run it on its own kernels.
            return RepairOutcome.fallback("executor_mode")

        # Re-execute the downstream closure of the dirty fetches: first each
        # dirty fetch whose keys are as cached by Δfetch, from the live groups
        # read above (it reads nothing recomputed), then every other step of
        # the closure by its kernel, ascending.
        counter = AccessCounter()
        scratch: list = list(env)
        recompute = {sid for site, _ in dirty.values() for sid in site.closure}
        patched = set()
        for sid, (site, changed) in dirty.items():
            if site.source not in recompute and None not in changed.values():
                scratch[sid] = frozenset(keyed[sid].patch(site, env, changed, counter))
                patched.add(sid)
        for sid in sorted(recompute.difference(patched)):
            scratch[sid] = frozenset(compiled.kernels[sid](scratch, counter))
        new_env = tuple(scratch)
        new_rows = new_env[plan.output]

        # Bring ``keyed`` in step with ``new_env``: a fetch's key sets hang on
        # its source (probed keys) and on its own rows (groups).  Dirty sites
        # come in plan order, so only an earlier one can re-key a later one.
        rekeyed: list[str] = []
        for sid, (site, _) in dirty.items():
            for fid, base in site.rekeys:
                if keyed.pop(fid, None) is not None and base not in rekeyed:
                    rekeyed.append(base)
            if sid not in patched and sid in keyed:
                keyed[sid]._groups = None  # re-fetched whole: regroup on use
        return RepairOutcome(
            status=PATCHED,
            rows=new_rows,
            env=new_env,
            rows_added=len(new_rows - rows),
            rows_removed=len(rows - new_rows),
            dirty_steps=tuple(dirty),
            steps_recomputed=len(recompute),
            rekeyed=tuple(rekeyed),
            counter=counter,
        )

    def _changed(
        self,
        site: FetchSite,
        env: tuple[frozenset[Row], ...],
        delta: WriteDelta,
        keyed: dict[int, FetchKeys],
    ) -> dict[Row, frozenset[Row] | None]:
        """The probed keys whose group under the fetch at ``site`` the write may have changed.

        Each with its live index group, or ``None`` where there is no
        ``group_lookup`` or it cannot resolve one; empty when the fetch's
        output is as cached.  A key is in it iff some written row of the
        base relation projects (on ``sorted(constraint.lhs)``) onto it, it
        was probed at fill time, and — with ``group_lookup`` — its live
        group differs from the rows the entry cached under it.
        """
        keys = keyed.get(site.id)
        if keys is None:
            keys = keyed[site.id] = FetchKeys(site, env)
        written = delta.keys_for(site.base, site.row_positions)
        if written.isdisjoint(keys.probed):
            return {}
        changed = {}
        for key in written & keys.probed:
            live = None
            if self.group_lookup is not None:
                live = self.group_lookup(site.constraint, site.base, key)
                if live is not None and live == keys.group(site, env, key):
                    continue
            changed[key] = live
        return changed
