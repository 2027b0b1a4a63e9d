"""Plan store and versioned result cache (the serving-core substrate).

Two caches, both private to one :class:`~repro.core.engine.ServingCore`,
back its hot path:

* :class:`PlanStore` — an LRU map from canonical query forms
  (:func:`~repro.core.fingerprint.prepared_cache_key`, a nested tuple of
  strings) to prepared-query entries.  Everything a prepared entry holds
  (coverage verdict, minimized schema, bounded plan, optimized plan, the
  result-cache key) depends only on the query syntax and the access schema,
  so no write touches it: an entry leaves only by LRU displacement.  The
  optimized plan carries the kernels its core compiled for it, which leave
  with it.

* :class:`ResultCache` — an LRU map from query fingerprints to
  materialized result rows.  The key is the ``result_key`` a prepared entry
  carries (:func:`~repro.core.fingerprint.result_cache_key`), computed once
  per prepare so that no read hashes a digest.  Covered results are bounded
  by the access schema (≤ ``access_bound()`` tuples), which makes them cheap
  to keep; per-relation **settlement marks** make them precise to
  invalidate: the cache remembers, for every relation, the epoch token
  (:class:`~repro.storage.counters.VersionClock` versions) at which its
  owner last settled that relation, and an entry is served only while every
  relation it depends on still stands at its mark.

  Entries optionally carry the per-step execution environment captured at
  fill time (``ExecutionResult.env``) plus the executable plan; those are
  what the delta-maintenance path (:mod:`repro.core.deltas`) needs to
  **repair** an entry after a dependent write — patch its rows in place —
  instead of dropping it.  :meth:`ResultCache.repair` applies a derived
  patch; :meth:`ResultCache.drop` is the per-entry fallback invalidation
  used when a delta is not derivable.

Both caches keep hit/miss/eviction counts for
:meth:`~repro.core.engine.BoundedEngine.cache_stats`; the result cache also
attributes its drops per relation (``invalidated_by``) so soak reports can
tell *which* relations keep knocking entries out.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

#: the most rows a result may have to be admitted to a :class:`ResultCache`
MAX_ROWS = 100_000


class PlanStore:
    """An LRU store of prepared queries.

    A ``capacity`` of zero (or less) disables caching: every lookup misses
    and nothing is stored.  Nothing else removes an entry: a prepared query
    is a function of the query and the access schema alone, so no write can
    make one stale.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries displaced by a put() overwriting their key
        self.replaced = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, record: bool = True) -> object | None:
        """The cached plan for ``key`` (LRU-refreshed), or ``None`` on a miss.

        One served read is one counted lookup.  A hit-only probe
        (:meth:`ServingCore.probe <repro.core.engine.ServingCore.probe>`)
        cannot know at this point whether it will serve the read, so it looks
        up with ``record=False`` — nothing is counted — and calls
        :meth:`record_hit` once it has; when it has not, the ``execute`` that
        follows counts the read with its own ``get``.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += record
            return None
        self._entries.move_to_end(key)
        self.hits += record
        return entry

    def record_hit(self) -> None:
        """Count the hit of a ``get(key, record=False)`` whose read was served."""
        self.hits += 1

    def put(self, key: Hashable, entry: object) -> list[object]:
        """Store ``entry``; returns the entries displaced to make room.

        Displaced entries are both LRU evictions *and* the previous entry of
        ``key`` when one existed (unless it is the very object being re-put):
        a replaced entry is just as dead as an evicted one.
        """
        if self.capacity <= 0:
            return []
        displaced: list[object] = []
        previous = self._entries.pop(key, None)
        if previous is not None and previous is not entry:
            displaced.append(previous)
            self.replaced += 1
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            displaced.append(self._entries.popitem(last=False)[1])
            self.evictions += 1
        return displaced

    def stats(self) -> dict[str, int | float]:
        """Monotone hit/miss/eviction counters plus capacity and occupancy."""
        requests = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / requests) if requests else 0.0,
            "evictions": self.evictions,
            "replaced": self.replaced,
        }


@dataclass
class CachedResult:
    """A materialized covered result, valid while its dependencies stand at their marks.

    The entry holds no version snapshot of its own: it is the answer at the
    data where every relation of ``dependencies`` stands at the cache's
    settlement mark (:attr:`ResultCache.marks`), and a write moves a mark
    only after settling every entry it reached under that relation.

    ``env`` and ``plan`` are the repair handles: the per-step row
    environment captured when the entry was filled and the executable plan
    that produced it.  Both are ``None`` when the execution captured no
    environment (it ran over the engine's budget,
    :data:`~repro.core.engine.ENV_ROWS_BUDGET`) — such entries can only be
    invalidated, never repaired.  ``keyed`` is what write settlement has read
    off ``env`` (per fetch step, the keys it probed) and ``reach`` what of
    it the cache's reach index holds (per dependency relation, see
    :meth:`ResultCache.index`); both are created by the first settlement
    after the entry was filled, for every relation it depends on, and live
    as long as the entry.  A patch keeps them in step with the ``env`` it
    installs: the derivation keeps the key sets the patch could not have
    moved and reads the others off the new environment, and the settlement
    re-registers only the relations of those.
    """

    rows: frozenset[tuple]
    columns: tuple[str, ...]
    dependencies: tuple[str, ...]
    env: tuple[frozenset[tuple], ...] | None = None
    plan: object | None = None
    keyed: dict | None = None
    reach: dict | None = None


#: the mark of a relation the cache has never settled: equal to no token
_UNMARKED = object()


def _own_tokens(relations: tuple[str, ...], snapshot: tuple) -> Iterable:
    """One database's snapshot of ``relations`` is already one token per relation."""
    return snapshot


class ResultCache:
    """An LRU cache of bounded results, validated by per-relation settlement marks.

    Keys are the prepared entries' ``result_key`` (the query's fingerprint).
    The cache keeps one **settlement mark** per relation (:attr:`marks`): the
    epoch token that relation stood at when the owning core last settled it.
    An entry carries no snapshot; a lookup hits only when the caller's
    current snapshot puts every relation the entry depends on at its mark.
    An entry met under a relation that moved past its mark — written
    without a settlement: an out-of-band write, another core over the same
    data, an earlier failed batch — is dropped on probe (counted ``stale``).

    ``tokens(relations, snapshot)`` splits a substrate's snapshot of
    ``relations`` into one epoch token per relation, in order.  The default
    is the snapshot itself (one database's clock); a federation transposes
    its per-shard snapshot.

    :data:`MAX_ROWS` is the admission threshold: results with more rows are
    not cached.  Fetched inputs are bounded by ``access_bound()``, but a
    plan's *output* can exceed that (e.g. a product of two fetched sets), so
    the LRU alone would bound entry count, not memory.  Captured repair
    environments are admitted as given: the executor already left out the
    ones over the engine's budget.

    **Snapshot contract.**  :meth:`put` takes the dependency snapshot read
    *before* the execution that produced the rows and validated after it; a
    relation that stands elsewhere than its mark there was written without a
    settlement, so :meth:`settle` sweeps its dependents and moves its mark
    first — an entry is only ever admitted at the marks.  A write path keeps
    the marks: it sweeps the relations written behind its back
    (:meth:`sweep`), derives the entries its keys reached (:meth:`reached`,
    :meth:`repair`), and only then moves the touched relations' marks
    (:meth:`mark`) — so every entry it did not reach is valid at the new
    marks without being looked at.  A hit compares one snapshot: the one at
    which its dependency tuple last stood at the marks, memoized until a
    mark of the tuple moves.

    **Dependency tuples.**  Entries are also filed by their dependency tuple
    (:meth:`dependency_tuples`, :meth:`entries_under`): what a sweep walks,
    and what the memo of settled snapshots is keyed by.

    **Reach index.**  Beside the entries the cache keeps, inverted, the keys
    their fetches probed: ``base relation → key positions in a written row →
    probed key → cache keys`` (:meth:`index`).  :meth:`reached` intersects it
    with a batch's written keys, so a settlement looks at what the batch
    wrote, not at what is cached, to find the entries it has to derive.  The
    index is filled by settlements only — never when an entry is filled or
    read: a filled entry waits in :attr:`unindexed` until the next
    settlement enters it, before that settlement intersects the index.  An
    entry's part of it leaves with the entry; a patch re-registers only the
    fetch sites whose probed keys it may have moved (:meth:`index` replaces
    a relation's part site by site).
    """

    def __init__(
        self,
        capacity: int = 256,
        tokens: Callable[[tuple[str, ...], tuple], Iterable] = _own_tokens,
    ):
        self.capacity = capacity
        self._tokens = tokens
        #: results refused admission for exceeding :data:`MAX_ROWS`
        self.oversized = 0
        self._entries: OrderedDict[Hashable, CachedResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0
        self.invalidated = 0
        #: clear-alls (:meth:`invalidate`)
        self.sweeps = 0
        #: triggering relation -> entries it invalidated ("*" for clear-alls)
        self.invalidated_by: dict[str, int] = {}
        #: entries repaired in place after a dependent write (delta path)
        self.repaired = 0
        #: repairs whose rows the write left as they were
        self.repaired_clean = 0
        #: rows added + removed across all patches
        self.rows_patched = 0
        #: entries invalidated because their delta was not derivable
        self.repair_fallbacks = 0
        #: fallback reason -> count ("difference", "no_env", "stale", ...)
        self.repair_fallback_reasons: dict[str, int] = {}
        #: relation -> the epoch token it stood at when it was last settled;
        #: a relation no entry depends on may have none
        self.marks: dict[str, Hashable] = {}
        #: dependency tuple -> a snapshot at which it stands at the marks
        #: (the hit path's one comparison; dropped when one of its marks moves)
        self._settled: dict[tuple[str, ...], tuple] = {}
        #: entries filled since the last settlement, by key: not indexed yet
        self.unindexed: dict[Hashable, CachedResult] = {}
        #: base relation -> row positions -> probed key -> keys of the entries
        #: that probed it: the union over an entry's fetch sites of one index
        self._reach: dict[str, dict[tuple[int, ...], dict[tuple, set[Hashable]]]] = {}
        #: dependency tuple -> the entries filed under it (every entry is in one)
        self._by_dependencies: dict[tuple[str, ...], dict[Hashable, CachedResult]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: Hashable, snapshot: tuple, record: bool = True
    ) -> CachedResult | None:
        """The entry for ``key`` iff ``snapshot`` puts its dependencies at their marks.

        Otherwise ``None``.  An entry a dependency of which moved past its
        mark counts as a miss and as ``stale``, and is dropped: the data moved
        on without a settlement (an out-of-band write), so no later
        :meth:`repair` could soundly patch it.  ``record=False`` counts no hit
        and no miss, as on :meth:`PlanStore.get` — the prober calls
        :meth:`record_hit` once the read is served — but a stale entry is
        still dropped and counted ``stale``, once.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += record
            return None
        if self._settled.get(entry.dependencies) != snapshot and not self._stands(
            entry.dependencies, snapshot
        ):
            # The data moved on under this entry; drop it eagerly.
            del self._entries[key]
            self._forget(key, entry)
            self.stale += 1
            self.misses += record
            return None
        self._entries.move_to_end(key)
        self.hits += record
        return entry

    def _stands(self, dependencies: tuple[str, ...], snapshot: tuple) -> bool:
        """Whether ``snapshot`` puts every relation of ``dependencies`` at its
        mark; if so it is memoized as the tuple's settled snapshot."""
        marks = self.marks
        for relation, token in zip(dependencies, self._tokens(dependencies, snapshot)):
            if marks.get(relation, _UNMARKED) != token:
                return False
        self._settled[dependencies] = snapshot
        return True

    def record_hit(self) -> None:
        """Count the hit of a ``get(..., record=False)`` whose read was served."""
        self.hits += 1

    def put(
        self,
        key: Hashable,
        rows: frozenset[tuple],
        columns: tuple[str, ...],
        dependencies: Iterable[str],
        snapshot: tuple,
        env: tuple[frozenset[tuple], ...] | None = None,
        plan: object | None = None,
    ) -> None:
        """Admit a result at ``snapshot``; ``env``/``plan`` make the entry repairable.

        ``snapshot`` must be the dependency snapshot read *before* the
        execution that produced ``rows`` (the caller validated it after, or
        executed under a single-writer regime).  A dependency that stands
        elsewhere than its mark there is settled first (:meth:`settle`), so
        the entry is admitted at the marks.  It waits in :attr:`unindexed`
        for the next settlement to enter it in the reach index.
        """
        if self.capacity <= 0:
            return
        if len(rows) > MAX_ROWS:
            self.oversized += 1
            return
        dependencies = tuple(dependencies)
        if self._settled.get(dependencies) != snapshot:
            self.settle(dependencies, self._tokens(dependencies, snapshot))
            self._settled[dependencies] = snapshot
        previous = self._entries.get(key)
        if previous is not None:
            self._forget(key, previous)
        entry = self._entries[key] = CachedResult(
            rows=rows,
            columns=columns,
            dependencies=dependencies,
            env=env,
            plan=plan if env is not None else None,
        )
        self._by_dependencies.setdefault(dependencies, {})[key] = entry
        self.unindexed[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._forget(*self._entries.popitem(last=False))
            self.evictions += 1

    def _forget(self, key: Hashable, entry: CachedResult) -> None:
        """Take ``entry``, which just left ``_entries``, out of its tuple and the reach index."""
        filed = self._by_dependencies[entry.dependencies]
        del filed[key]
        if not filed:
            del self._by_dependencies[entry.dependencies]
            self._settled.pop(entry.dependencies, None)
        self.unindexed.pop(key, None)
        self._unindex(key, entry)

    def entries_for(self, relations: Iterable[str]) -> list[tuple[Hashable, CachedResult]]:
        """The live entries depending on any of ``relations`` (LRU order).

        Returns a materialized list so the write path can iterate while
        repairing/dropping entries without mutating-during-iteration issues.
        """
        touched = frozenset(relations)
        return [
            (key, entry)
            for key, entry in self._entries.items()
            if touched.intersection(entry.dependencies)
        ]

    # -- settlement marks -------------------------------------------------------------
    def settle(self, relations: Iterable[str], tokens: Iterable) -> None:
        """Bring each of ``relations`` that stands elsewhere than its mark to its token.

        Such a relation was written without a settlement of this cache, so
        every entry depending on it is swept (``stale``, see :meth:`sweep`)
        before its mark moves.
        """
        marks = self.marks
        moved = {
            relation: token
            for relation, token in zip(relations, tokens)
            if marks.get(relation, _UNMARKED) != token
        }
        if moved:
            self.sweep(moved, "stale")
            marks.update(moved)

    def mark(self, tokens: Mapping[str, Hashable]) -> None:
        """Record that each relation of ``tokens`` now stands settled at its token.

        The caller has derived every entry its write reached under them, so
        every other dependent is valid at the new marks as it is.  The memo of
        settled snapshots forgets the dependency tuples whose marks moved.
        """
        self.marks.update(tokens)
        settled = self._settled
        if settled and tokens:
            moved = tokens.keys()
            for dependencies in [d for d in settled if not moved.isdisjoint(d)]:
                del settled[dependencies]

    def sweep(self, relations: Iterable[str], reason: str) -> list[Hashable]:
        """Drop every entry that depends on one of ``relations``, and their marks.

        What a relation that cannot be settled by derivation gets — one
        written behind the cache's back (``stale``), one that moved while a
        settlement derived (``race``), or one a write left with no usable
        delta (``no_delta``: a batch failed part-way or undone, a
        rebalance).  Each drop is counted like :meth:`drop`'s, for
        ``reason``.  Returns the dropped keys.
        """
        relations = frozenset(relations)
        dropped = []
        for dependencies in self.dependency_tuples(relations):
            scope = sorted(relations.intersection(dependencies))
            for key in list(self._by_dependencies[dependencies]):
                self.drop(key, reason=reason, relations=scope)
                dropped.append(key)
        for relation in relations:
            self.marks.pop(relation, None)
        return dropped

    # -- dependency tuples ------------------------------------------------------------
    def dependency_tuples(self, relations: Iterable[str]) -> list[tuple[str, ...]]:
        """The dependency tuples of the live entries that depend on any of ``relations``."""
        touched = frozenset(relations)
        return [
            dependencies
            for dependencies in self._by_dependencies
            if not touched.isdisjoint(dependencies)
        ]

    def entries_under(self, dependencies: tuple[str, ...]) -> dict[Hashable, CachedResult]:
        """The live entries filed under ``dependencies``, by key (read-only; empty if none)."""
        return self._by_dependencies.get(dependencies) or {}

    # -- the reach index ----------------------------------------------------------
    def index(
        self,
        key: Hashable,
        base: str,
        reach: tuple[tuple[tuple[int, ...], frozenset[tuple]], ...],
    ) -> None:
        """Register what a write to ``base`` must hit to reach the entry at ``key``.

        ``reach`` is one ``(row positions, probed keys)`` per fetch site of
        the entry's plan over ``base`` (:meth:`DeltaDeriver.reach
        <repro.core.deltas.DeltaDeriver.reach>`).  Two sites may fetch one
        physical index, and what is registered is their union.  Kept on the
        entry as ``reach[base]``: an empty tuple still says the entry is
        indexed for ``base``.  The entry leaves :attr:`unindexed`.

        Called again for a ``base`` the entry is indexed for, it replaces the
        registration site by site (the sites of one plan and relation come in
        one order): only what a site's new keys add to its old ones is
        entered, and only what they drop leaves — unless another site at the
        same positions still probes it.
        """
        entry = self._entries[key]
        self.unindexed.pop(key, None)
        old = entry.reach.get(base, ())
        if len(old) != len(reach):  # one of them is EVERY_WRITE: no site is kept
            self._unregister(key, base, old)
            old = ((None, frozenset()),) * len(reach)
        gone = []
        for (positions, probed), (was, before) in zip(reach, old):
            if probed is before:
                continue
            if was == positions:
                gone.append((was, before - probed))
                added = probed - before
            else:
                gone.append((was, before))
                added = probed
            if added:
                slots = self._reach.get(base)
                if slots is None:
                    slots = self._reach[base] = {}
                by_key = slots.get(positions)
                if by_key is None:
                    by_key = slots[positions] = {}
                for probe in added:
                    holders = by_key.get(probe)
                    if holders is None:
                        by_key[probe] = {key}
                    else:
                        holders.add(key)
        if gone:
            self._unregister(key, base, gone, reach)
        entry.reach[base] = reach

    def _unregister(self, key: Hashable, base: str, parts, remaining=()) -> None:
        """Take ``key`` off the probed keys of ``parts`` under ``base``, except
        those a part of ``remaining`` at the same positions still probes."""
        slots = self._reach.get(base)
        if slots is None:
            return
        for positions, probed in parts:
            by_key = slots.get(positions)
            if by_key is None or not probed:
                continue  # nothing probed, or emptied by another site of this index
            kept = frozenset()  # what a remaining site at these positions probes
            for at, other in remaining:
                if at == positions:
                    kept = other if not kept else kept | other
            for probe in probed:
                holders = by_key.get(probe)
                if holders is not None and probe not in kept:
                    holders.discard(key)
                    if not holders:
                        del by_key[probe]
            if not by_key:
                del slots[positions]
        if not slots:
            del self._reach[base]

    def _unindex(self, key: Hashable, entry: CachedResult) -> None:
        """Take everything ``entry`` registered out of the index; forget its key sets."""
        if entry.reach is None:
            return
        for base, reach in entry.reach.items():
            self._unregister(key, base, reach)
        entry.reach = entry.keyed = None

    def reached(self, delta) -> dict[Hashable, CachedResult]:
        """The indexed entries some written row of ``delta`` hits, by key.

        ``delta`` is a :class:`~repro.core.deltas.WriteDelta`; the work is one
        look-up per written key and indexed position tuple of its relations,
        whatever the number of entries.
        """
        hit: set[Hashable] = set()
        for base in delta.touched:
            for positions, by_key in self._reach.get(base, {}).items():
                for written in delta.keys_for(base, positions):
                    holders = by_key.get(written)
                    if holders is not None:
                        hit.update(holders)
        return {key: self._entries[key] for key in hit}

    def repair(
        self,
        key: Hashable,
        *,
        rows: frozenset[tuple],
        env: tuple[frozenset[tuple], ...] | None,
        rows_added: int = 0,
        rows_removed: int = 0,
    ) -> bool:
        """Patch an entry in place after a write that reached it.

        The caller (the delta-maintenance write path) derived ``rows``/``env``
        from the applied delta, and moves the touched relations' marks only
        afterwards (:meth:`mark`).  A patch with ``rows_added == rows_removed
        == 0`` is counted as a *clean* repair — the write reached a key the
        entry probed and left its rows as they were.  Returns ``False`` when
        the entry vanished (LRU eviction, a sweep between derivation and
        patch).

        Installing ``env`` leaves ``keyed`` and the entry's part of the reach
        index alone: the derivation already brought ``keyed`` in step with
        ``env``, and the caller re-registers the relations whose key sets it
        read again (:meth:`index`).
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.rows = rows
        if env is not None:
            entry.env = env
        self.repaired += 1
        if rows_added or rows_removed:
            self.rows_patched += rows_added + rows_removed
        else:
            self.repaired_clean += 1
        return True

    def drop(
        self,
        key: Hashable,
        *,
        reason: str,
        relations: Iterable[str] = (),
    ) -> bool:
        """Invalidate one entry whose delta was not derivable (the fallback).

        ``reason`` lands in ``repair_fallback_reasons`` and the drop is
        attributed to ``relations`` like a targeted sweep, so observability
        can distinguish "repaired", "fell back" and "never tried".  Returns
        ``False``, counting nothing, when the entry is already gone.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._forget(key, entry)
        self.repair_fallbacks += 1
        self.repair_fallback_reasons[reason] = (
            self.repair_fallback_reasons.get(reason, 0) + 1
        )
        self.invalidated += 1
        for relation in relations:
            self.invalidated_by[relation] = self.invalidated_by.get(relation, 0) + 1
        return True

    def invalidate(self) -> int:
        """Drop every entry (counted as one sweep); returns how many there were.

        A clear-all for operators and tests (the soak empties the cache to
        turn its hits into misses).  A write never calls it: what a write
        cannot settle by derivation it drops with :meth:`sweep`.
        """
        self.sweeps += 1
        dropped = len(self._entries)
        self._entries.clear()
        self._reach.clear()
        self._by_dependencies.clear()
        self._settled.clear()
        self.unindexed.clear()
        if dropped:
            self.invalidated_by["*"] = self.invalidated_by.get("*", 0) + dropped
        self.invalidated += dropped
        return dropped

    def stats(self) -> dict[str, int | float | dict]:
        """Monotone counters: traffic, invalidation, and repair activity.

        Includes the delta-maintenance counters (``repaired``,
        ``repaired_clean``, ``rows_patched``, ``repair_fallbacks``,
        ``repair_fallback_reasons``), ``invalidated_by`` — drops keyed by
        the relation whose write triggered them — and the size of the reach
        index: the probed keys it holds (``reach_keys``) and the entries
        registered under them (``reach_entries``).
        """
        requests = self.hits + self.misses
        reach = [
            by_key for slots in self._reach.values() for by_key in slots.values()
        ]
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / requests) if requests else 0.0,
            "stale": self.stale,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "sweeps": self.sweeps,
            "oversized": self.oversized,
            "repaired": self.repaired,
            "repaired_clean": self.repaired_clean,
            "rows_patched": self.rows_patched,
            "repair_fallbacks": self.repair_fallbacks,
            "repair_fallback_reasons": dict(self.repair_fallback_reasons),
            "invalidated_by": dict(self.invalidated_by),
            "reach_keys": sum(len(by_key) for by_key in reach),
            "reach_entries": len(
                {key for by_key in reach for holders in by_key.values() for key in holders}
            ),
        }
