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
   executor, detection is split into compile-once and run-per-write: the
   plan's fetch sites (positions, downstream closures, derivability) are a
   :class:`RepairProgram` compiled once per plan, which also memoizes what
   a write makes of them (the sites a set of written relations affects; the
   steps a set of dirty sites re-runs and the sites it re-keys); the probed
   keys of an entry are read off its captured environment once (one
   ``frozenset`` per fetch, kept with the cache entry for as long as it
   lives) and entered, inverted, in the result cache's reach index
   (:meth:`DeltaDeriver.reach`, :meth:`ResultCache.index
   <repro.core.planstore.ResultCache.index>`); the written keys are
   projected once per batch (:meth:`WriteDelta.keys_for`).  What is left
   per write is one look-up per written key — the ``O(N_A·|ΔD|)`` of
   Proposition 12, not a function of what is cached — and only the entries
   those look-ups find are derived at all.
2. **Selective re-execution** — the dirty fetches and every scheduled
   kernel downstream of them are re-run through the plan's own run schedule
   (the serving executor's; nothing is lowered twice, and a step fused into
   its consumer re-runs inside it) over the memoized intermediates of the
   untouched steps: a dirty fetch re-runs its kernel
   over its unchanged source, so it reads the live groups of every key it
   probed through the substrate's own fetch source — one engine's indexes
   or a federation's shards alike.  Because the repair runs the *same
   kernels* over the *same upstream inputs*, the patched result is exactly
   what a full recomputation would produce (a property pinned by the
   randomized repair tests).  The fetches whose source was re-run have
   their probed keys read off the patched environment, and the derivation
   hands their relations' new reach to the caller to re-register
   (:attr:`RepairOutcome.reach`); every other key set stays valid.

A key hit is not checked against the live group first: a batch that leaves
the group as it was (a delete and its re-insert) is patched all the same,
with the rows it had — a clean repair.  Nor is a dirty fetch patched from
its written keys' live groups (Δfetch): it is re-run.  Both were measured
and removed, with the per-entry framework they needed: on
``served_mix``'s write sequence (seed 7, 102 engine writes a replay,
``PYTHONHASHSEED=1``, the replay after the one that builds the repair
programs) a write ran 23 721 opcodes with them and runs 16 460 now, every
entry ending where it did.  On the layered benchmark's 13 wide TFACC plans
(bounds 12 465–1 644 087; per plan, 30 writes that delete or re-insert the
row its answer's witness chain ends in; medians, summed over the plans) a
write runs 91 034 opcodes against 123 340, every plan's fewer, and the hit
read after it 11 017 on both sides; timed on a 2-core VM, three
interleaved runs put the writes at 1.8–2.4 ms against 2.2–3.2 ms.

**Why not delta rules downstream too.**  Δσ, Δπ by support count and
ΔR ⋈ S would replace step 2 with rules over the changed rows.  Measured on
``served_mix``'s write sequence (seed 7, 510 engine writes after one
set-up replay), a write re-runs 56.4 steps over 10.7 derived entries (5.3
of a plan's 9.3 steps); a re-run step reads 2.4 rows on average, and 50.5
of the 56.4 do change their output.  What a kernel costs there is its
call, which a rule would pay as well, so the rules were not built.

**Fallback.** Repair refuses — and the caller must invalidate — whenever
the delta is not derivable through the plan:

* an affected fetch feeds a :class:`~repro.core.plan.DifferenceOp`
  (classical delta rules are non-monotone there: an inserted tuple can
  *remove* result rows through the subtrahend, so the conservative contract
  is to recompute from scratch rather than patch);
* the entry carries no captured environment (its execution ran over the
  engine's budget);
* derivation itself raises (schema drift, unknown operators).

A dirty entry of a wide plan is patched like a point plan's: on the 13 wide
plans above, patching costs the write about what dropping the entry does
(1.8–2.4 ms against 2.2 ms, summed) and saves the next read its
re-execution (0.3 ms of hit reads against 2.7 ms of miss reads).

Monotone fragments (fetch/select/project/join/union/intersect chains) are
always derivable, for inserts and deletes alike, because selective
re-execution is exact rather than delta-rule based.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..storage.counters import AccessCounter
from ..storage.relation import projector
from .plan import BoundedPlan, DifferenceOp

Row = tuple
_log = logging.getLogger(__name__)

#: outcome statuses of :meth:`DeltaDeriver.derive`
CLEAN = "clean"        # no probed key was written: rows kept as they are
PATCHED = "patched"    # dirty closure re-executed, rows possibly changed
FALLBACK = "fallback"  # not derivable: the caller must invalidate

#: one relation's reach: ``(key positions in a written row, probed keys)`` per site
Reach = tuple[tuple[tuple[int, ...], frozenset[Row]], ...]

#: the reach of an entry every write to a relation must be derived for: the
#: empty key at no positions, which every written row projects onto
EVERY_WRITE: Reach = (((), frozenset([()])),)


class WriteDelta:
    """A batch of applied inserts/deletes, grouped by relation.

    The deriver only needs the written *rows* per relation (dirty-key
    detection is direction-agnostic: both an insert and a delete can only
    change the index group of the written row's key), but inserts and
    deletes are kept separate for observability.  Skipped (no-op) updates
    may be included — they can only mark extra keys dirty, never miss one,
    so including them costs work but never correctness.
    """

    __slots__ = ("inserts", "deletes", "_touched", "_rows", "_keys")

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
        self._rows: dict[str, tuple[Row, ...]] = {
            relation: self.inserts.get(relation, ()) + self.deletes.get(relation, ())
            for relation in self._touched
        }
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

    def keys_for(self, relation: str, positions: tuple[int, ...]) -> frozenset[Row]:
        """The written rows of ``relation`` projected onto ``positions``.

        Projected once per batch and shared by every entry settled against it.
        """
        keys = self._keys.get((relation, positions))
        if keys is None:
            keys = self._keys[relation, positions] = frozenset(
                map(projector(positions), self._rows.get(relation, ()))
            )
        return keys

    def __bool__(self) -> bool:
        return bool(self._touched)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WriteDelta(inserts={ {r: len(v) for r, v in self.inserts.items()} }, "
            f"deletes={ {r: len(v) for r, v in self.deletes.items()} })"
        )


@dataclass(slots=True)
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
    #: scheduled kernels re-executed (the downstream closure of the dirty fetches)
    steps_recomputed: int = 0
    #: ``(base relation, its new reach)`` for every relation the patch re-keyed
    #: a fetch over, read off the new environment: what the caller re-registers
    #: (:meth:`ResultCache.index <repro.core.planstore.ResultCache.index>`)
    reach: tuple[tuple[str, Reach], ...] = ()

    @classmethod
    def clean(cls) -> "RepairOutcome":
        """The write is invisible through the plan: keep the rows, no execution."""
        return cls(status=CLEAN)

    @classmethod
    def fallback(cls, reason: str) -> "RepairOutcome":
        """Repair refused for ``reason``: the caller must invalidate instead."""
        return cls(status=FALLBACK, reason=reason)


class FetchSite:
    """What settlement needs to know about one fetch step, fixed by the plan."""

    __slots__ = (
        "id", "bit", "base", "row_positions", "written", "source", "_probe", "closure", "monotone",
    )

    def __init__(self, id, bit, base, row_positions, source, probe_positions, closure, monotone):
        self.id: int = id
        #: this site's bit in a :meth:`RepairProgram.closure` mask
        self.bit: int = bit
        #: the physical relation behind the (possibly actualized) constraint
        self.base: str = base
        #: key positions in a written row of ``base`` (``sorted(lhs)`` order)
        self.row_positions: tuple[int, ...] = row_positions
        #: the :meth:`WriteDelta.keys_for` arguments of this site, as its memo key
        self.written: tuple[str, tuple[int, ...]] = (base, row_positions)
        #: the slot whose rows supply the probed keys: the fetch's input, or
        #: the input of the projection fused into the fetch's key extraction
        self.source: int = source
        #: a source row's probed key, compiled once
        self._probe = projector(probe_positions)
        #: the fetch's kernel and every scheduled kernel downstream of it, as
        #: ascending indices into the ``CompiledPlan``'s schedule
        self.closure: tuple[int, ...] = closure
        #: no :class:`~repro.core.plan.DifferenceOp` in ``closure``
        self.monotone: bool = monotone

    def keys(self, env: Sequence[Iterable[Row]]) -> frozenset[Row]:
        """The keys this fetch probed in ``env``: its source rows' key columns."""
        return frozenset(map(self._probe, env[self.source]))


class RepairProgram:
    """The plan-static half of settlement: a plan's fetch sites, and what a write makes of them.

    Compiled once per plan from its :class:`~repro.evaluator.executor.CompiledPlan`'s
    run schedule, and kept on it: it lives as long as the plan and its kernels.
    A site's keys are read where the schedule reads them (off the producer
    of a projection fused into the fetch, through the composed positions),
    and its closure is the scheduled kernels downstream of it, so a patch
    re-runs no more kernels than a run has.  What a settlement asks of it
    is memoized on it: per set of written relations the sites they affect
    (:meth:`affected`), per set of dirty sites the kernels to re-run and the
    sites whose probed keys those kernels recompute (:meth:`closure`).  The
    second memo is keyed by an int, one bit per site: nothing hashes a site.
    """

    __slots__ = ("sites", "ordered", "slots", "by_touched", "by_dirty")

    def __init__(self, compiled, schema):
        plan = compiled.plan
        self.sites: dict[str, tuple[FetchSite, ...]] = {}
        #: every site in plan order (``fetch_steps`` ascends): nothing sorts per call
        self.ordered: tuple[FetchSite, ...] = ()
        #: the slot each scheduled kernel fills, by its index in the schedule
        self.slots: tuple[int, ...] = tuple(slot for slot, _ in compiled.schedule)
        #: :meth:`affected`'s memo, by written relations
        self.by_touched: dict[frozenset[str], tuple[tuple[FetchSite, ...], bool]] = {}
        #: :meth:`closure`'s memo, by dirty-site mask
        self.by_dirty: dict[int, tuple] = {}
        at = {slot: index for index, slot in enumerate(self.slots)}
        for bit, step in enumerate(plan.fetch_steps()):
            constraint = step.op.constraint
            base = plan.base_relation(constraint)
            source, probe_positions = compiled.keys[step.id]
            # The schedule ascends by slot and a kernel reads only earlier
            # slots (a fused step's inputs included): one ascending pass.
            closure, filled = [at[step.id]], {step.id}
            for index in range(at[step.id] + 1, len(self.slots)):
                if filled.intersection(compiled.reads[index]):
                    closure.append(index)
                    filled.add(self.slots[index])
            site = FetchSite(
                id=step.id,
                bit=1 << bit,
                base=base,
                row_positions=schema[base].positions(sorted(constraint.lhs)),
                source=source,
                probe_positions=probe_positions,
                closure=tuple(closure),
                monotone=not any(isinstance(plan.steps[sid].op, DifferenceOp) for sid in filled),
            )
            self.sites[base] = self.sites.get(base, ()) + (site,)
            self.ordered += (site,)

    def affected(self, touched: frozenset[str]) -> tuple[tuple[FetchSite, ...], bool]:
        """The fetch sites over any relation in ``touched``, in plan order, and
        whether none of them feeds a difference."""
        found = self.by_touched.get(touched)
        if found is None:
            sites = tuple(site for site in self.ordered if site.base in touched)
            found = self.by_touched[touched] = (sites, all(site.monotone for site in sites))
        return found

    def closure(
        self, dirty: int
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[FetchSite, ...], tuple[str, ...]]:
        """What a patch of the sites in the ``dirty`` mask does.

        ``(dirty site ids, the scheduled kernels to re-run as ascending
        schedule indices, the sites whose source slot they fill — their
        probed keys are recomputed —, those sites' base relations)``.
        """
        found = self.by_dirty.get(dirty)
        if found is None:
            chosen = [site for site in self.ordered if dirty & site.bit]
            steps = sorted({index for site in chosen for index in site.closure})
            filled = {self.slots[index] for index in steps}
            rekeyed = tuple(site for site in self.ordered if site.source in filled)
            found = self.by_dirty[dirty] = (
                tuple(site.id for site in chosen),
                tuple(steps),
                rekeyed,
                tuple(dict.fromkeys(site.base for site in rekeyed)),
            )
        return found

    def reach(self, base: str, env: Sequence[Iterable[Row]], keyed: dict[int, frozenset[Row]]) -> Reach:
        """One ``(row positions, probed keys)`` per site over ``base``, each key
        set from ``keyed`` or, where it has none yet, read off ``env`` into it."""
        found = []
        for site in self.sites.get(base, ()):
            probed = keyed.get(site.id)
            if probed is None:
                probed = keyed[site.id] = site.keys(env)
            found.append((site.row_positions, probed))
        return tuple(found)


class DeltaDeriver:
    """Derives per-entry repairs for a write batch through a plan's fetches.

    Split like the executor: what depends only on the plan is compiled once
    into a :class:`RepairProgram` on the plan's ``CompiledPlan``; what
    depends on an entry's environment is the probed key set of each fetch,
    in the ``keyed`` dict the caller keeps with the entry (:meth:`reach`
    reads them, for the caller to index; :meth:`derive` uses them); what
    depends on the batch is projected once on the :class:`WriteDelta`.  The
    deriver itself holds no per-plan or per-entry state.

    ``executor`` is the serving core's own
    :class:`~repro.evaluator.executor.PlanExecutor`: settlement reads the
    ``CompiledPlan`` kept on the plan and re-runs its kernels over the
    captured environment, on every substrate alike.  ``schema`` resolves
    written rows' attribute positions for key projection.
    """

    def __init__(self, executor, schema):
        self.executor = executor
        self.schema = schema

    def _compiled(self, plan: BoundedPlan):
        """``plan``'s ``CompiledPlan``, its repair program attached."""
        compiled = self.executor.compile(plan)
        if compiled.repair is None:
            compiled.repair = RepairProgram(compiled, self.schema)
        return compiled

    # -- reach ------------------------------------------------------------------
    def reach(
        self,
        plan: BoundedPlan,
        env: tuple[frozenset[Row], ...],
        keyed: dict[int, frozenset[Row]],
        base: str,
    ) -> Reach:
        """What a write to ``base`` must hit for :meth:`derive` to say anything but clean.

        One ``(key positions in a written row, probed keys)`` per fetch site
        over ``base`` — from ``keyed``, read off ``env`` into it for the sites
        that have none there yet, where :meth:`derive` finds them again.  A
        written row that projects onto none of them leaves every such fetch
        as it was.  Where the verdict does not hang on a key — a site that
        feeds a difference, an environment that does not fit the plan, a
        program that does not compile — the reach is :data:`EVERY_WRITE`,
        and :meth:`derive` gives the reason.
        """
        try:
            program = self._compiled(plan).repair
            sites = program.sites.get(base, ())
            if len(env) != len(plan.steps) or not all(site.monotone for site in sites):
                return EVERY_WRITE
            return program.reach(base, env, keyed)
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
        keyed: dict[int, frozenset[Row]] | None = None,
    ) -> RepairOutcome:
        """Decide clean / patch / fallback for one cached result.

        ``env`` is the per-step environment captured when the entry was
        filled (``ExecutionResult.env``); ``rows`` the cached output rows;
        ``keyed`` the entry's probed key sets by fetch step, filled here as
        fetches are reached and valid only for this ``env`` (omitted:
        nothing is kept).  A fetch is dirty when some written row of its
        base relation projects onto a key it probed; a :data:`PATCHED`
        outcome re-runs the dirty fetches and every scheduled kernel
        downstream of them, over the untouched slots of ``env``,
        and leaves ``keyed`` valid for the new ``env``: the key sets of the
        fetches whose source it re-ran are read off it, and their relations'
        new reach is :attr:`RepairOutcome.reach`.  Must be called **after**
        the write has been applied to storage and indexes — the kernels read
        live state.  Exceptions never escape: any derivation error is
        logged and degrades to a :data:`FALLBACK` outcome (reason
        ``"error:<Exc>"``), because serving a wrong repaired row is the one
        failure mode this module must not have.
        """
        try:
            compiled = self._compiled(plan)
            program = compiled.repair
            # (the memos are read inline: a write derives ~10 entries)
            touched = delta._touched
            affected, monotone = program.by_touched.get(touched) or program.affected(touched)
            if not affected:
                # The write never reaches this plan's fetches (the caller's
                # dependency filter should already have skipped it).
                return RepairOutcome.clean()
            if not monotone:
                return RepairOutcome.fallback("difference")
            if env is None or len(env) != len(compiled.template):
                return RepairOutcome.fallback("no_env")
            if keyed is None:
                keyed = {}
            dirty = 0
            written = delta._keys
            for site in affected:
                probed = keyed.get(site.id)
                if probed is None:
                    probed = keyed[site.id] = site.keys(env)
                keys = written.get(site.written)
                if keys is None:
                    keys = delta.keys_for(site.base, site.row_positions)
                if not probed.isdisjoint(keys):
                    dirty |= site.bit
            if not dirty:
                return RepairOutcome.clean()
            dirty_steps, steps, rekeyed, bases = (
                program.by_dirty.get(dirty) or program.closure(dirty)
            )
            counter = AccessCounter()  # what the re-run fetches read: not kept
            scratch = list(env)
            schedule = compiled.schedule
            for index in steps:
                slot, kernel = schedule[index]
                scratch[slot] = frozenset(kernel(scratch, counter))
            new_env = tuple(scratch)
            for site in rekeyed:
                keyed[site.id] = site.keys(new_env)
            new_rows = new_env[plan.output]
            added = len(new_rows - rows)
            return RepairOutcome(
                PATCHED,
                new_rows,
                new_env,
                added,
                len(rows) - len(new_rows) + added,
                None,
                dirty_steps,
                len(steps),
                tuple([(base, program.reach(base, new_env, keyed)) for base in bases]),
            )
        except Exception as error:
            _log.warning(
                "repair derivation raised %s (plan of %d steps, touched %s): entry dropped",
                type(error).__name__, len(plan.steps), sorted(delta.touched),
                exc_info=True,
            )
            return RepairOutcome.fallback(f"error:{type(error).__name__}")
