"""Shared plan store and versioned result cache (the serving-core substrate).

Two caches back the hot path of :class:`~repro.core.engine.BoundedEngine`:

* :class:`PlanStore` — an LRU map from canonical query forms plus
  preparation flags (:func:`~repro.core.fingerprint.prepared_cache_key`, a
  nested tuple of strings and bools) to prepared-query entries.  Everything
  a prepared entry holds (coverage verdict, minimized schema, bounded plan,
  optimized plan, the result-cache key) depends only on the query syntax and
  the access schema, so one store can be **shared across engine instances**
  (or shards) that serve the same access schema, even over divergent data.
  Each entry is tagged with the base relations its plan fetches from
  (:meth:`~repro.core.plan.BoundedPlan.dependency_relations`), so writes
  invalidate only the dependent entries instead of clearing the store.

* :class:`ResultCache` — a per-engine LRU map from ``(query fingerprint,
  dependency version snapshot)`` to materialized result rows.  The key is
  the ``result_key`` a prepared entry carries
  (:func:`~repro.core.fingerprint.result_cache_key`), computed once per
  prepare so that no read hashes a digest.  Covered results are
  bounded by the access schema (≤ ``access_bound()`` tuples), which makes
  them cheap to keep; the snapshot of per-relation data versions
  (:class:`~repro.storage.counters.VersionClock`) makes them precise to
  invalidate: an entry is served only while none of its dependent relations
  has been written since it was filled.

  Entries optionally carry the per-step execution environment captured at
  fill time (``ExecutionResult.env``) plus the executable plan; those are
  what the delta-maintenance path (:mod:`repro.core.deltas`) needs to
  **repair** an entry after a dependent write — patch its rows and re-stamp
  its snapshot — instead of dropping it.  :meth:`ResultCache.repair` applies
  a derived patch; :meth:`ResultCache.drop` is the per-entry fallback
  invalidation used when a delta is not derivable.

Both caches keep hit/miss/eviction/invalidation counts for
:meth:`~repro.core.engine.BoundedEngine.cache_stats`, including per-relation
invalidation attribution (``invalidated_by``) so soak reports can tell
*which* relations keep knocking entries out.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable


@dataclass
class _StoreSlot:
    """One plan-store entry plus the relations whose data its plan reads."""

    entry: object
    dependencies: frozenset[str]


class PlanStore:
    """An LRU store of prepared queries, shareable across engine instances.

    A ``capacity`` of zero (or less) disables caching: every lookup misses
    and nothing is stored.  ``invalidate()`` with no argument drops every
    entry (the conservative legacy behaviour); ``invalidate(relations)``
    drops only entries whose dependency set intersects ``relations`` and
    returns the dropped entries so callers can release derived artifacts
    (e.g. compiled kernels).

    Entries must be data-independent: a store may only be shared by engines
    configured with an **identical access schema**, since plans embed the
    schema's constraints.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._slots: OrderedDict[Hashable, _StoreSlot] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries displaced by a put() overwriting their key
        self.replaced = 0
        #: entries dropped by invalidation (targeted or clear-all)
        self.invalidated = 0
        #: invalidation sweeps performed (one per write or batch)
        self.sweeps = 0
        #: triggering relation -> entries it invalidated ("*" for clear-alls)
        self.invalidated_by: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def get(self, key: Hashable, record: bool = True) -> object | None:
        """The cached plan for ``key`` (LRU-refreshed), or ``None`` on a miss.

        One served read is one counted lookup.  A hit-only probe
        (:meth:`ServingCore.probe <repro.core.engine.ServingCore.probe>`)
        cannot know at this point whether it will serve the read, so it looks
        up with ``record=False`` — nothing is counted — and calls
        :meth:`record_hit` once it has; when it has not, the ``execute`` that
        follows counts the read with its own ``get``.
        """
        slot = self._slots.get(key)
        if slot is None:
            self.misses += record
            return None
        self._slots.move_to_end(key)
        self.hits += record
        return slot.entry

    def record_hit(self) -> None:
        """Count the hit of a ``get(key, record=False)`` whose read was served."""
        self.hits += 1

    def put(
        self, key: Hashable, entry: object, dependencies: Iterable[str] = ()
    ) -> list[object]:
        """Store ``entry``; returns the entries displaced to make room.

        Displaced entries are both LRU evictions *and* the previous entry of
        ``key`` when one existed (unless it is the very object being re-put):
        a replaced entry is just as dead as an evicted one, and silently
        dropping it would leak the artifacts derived from it.  Callers
        holding such artifacts (compiled kernels in the executor) should
        release them for every returned entry, exactly as they do for
        :meth:`invalidate`'s drops.
        """
        if self.capacity <= 0:
            return []
        displaced: list[object] = []
        previous = self._slots.pop(key, None)
        if previous is not None and previous.entry is not entry:
            displaced.append(previous.entry)
            self.replaced += 1
        self._slots[key] = _StoreSlot(entry=entry, dependencies=frozenset(dependencies))
        while len(self._slots) > self.capacity:
            _, slot = self._slots.popitem(last=False)
            displaced.append(slot.entry)
            self.evictions += 1
        return displaced

    def invalidate(self, relations: Iterable[str] | None = None) -> list[object]:
        """Drop dependent entries after a write; returns the dropped entries.

        With ``relations=None`` every entry is dropped (clear-all).  Otherwise
        only entries whose dependency set intersects ``relations`` are
        dropped — entries prepared for queries that never fetch from the
        written relations stay valid, which is sound because prepared plans
        depend on data *only* through the constraint indexes of the relations
        they fetch from.

        Each drop is attributed to the triggering relations in
        ``invalidated_by`` (clear-alls are attributed to ``"*"``), so soak
        and bench reports can name the write traffic that churns the store.
        """
        self.sweeps += 1
        if relations is None:
            dropped = [slot.entry for slot in self._slots.values()]
            self._slots.clear()
            if dropped:
                self.invalidated_by["*"] = self.invalidated_by.get("*", 0) + len(dropped)
        else:
            touched = frozenset(relations)
            stale = [
                key for key, slot in self._slots.items() if slot.dependencies & touched
            ]
            dropped = []
            for key in stale:
                slot = self._slots.pop(key)
                dropped.append(slot.entry)
                for relation in sorted(slot.dependencies & touched):
                    self.invalidated_by[relation] = (
                        self.invalidated_by.get(relation, 0) + 1
                    )
        self.invalidated += len(dropped)
        return dropped

    def stats(self) -> dict[str, int | float]:
        """Monotone hit/miss/eviction counters plus capacity and occupancy."""
        requests = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._slots),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / requests) if requests else 0.0,
            "evictions": self.evictions,
            "replaced": self.replaced,
            "invalidated": self.invalidated,
            "sweeps": self.sweeps,
            "invalidated_by": dict(self.invalidated_by),
        }


@dataclass
class CachedResult:
    """A materialized covered result plus the version snapshot it is valid for.

    ``env`` and ``plan`` are the repair handles: the per-step row
    environment captured when the entry was filled and the executable plan
    that produced it.  Both are ``None`` when the execution captured no
    environment (it ran over the engine's budget,
    :data:`~repro.core.engine.ENV_ROWS_BUDGET`) — such entries can only be
    invalidated, never repaired.  ``keyed`` is what write settlement has read
    off ``env`` (per fetch step: probed keys, rows by key —
    :class:`~repro.core.deltas.FetchKeys`) and ``reach`` what of it the
    cache's reach index holds (per dependency relation, see
    :meth:`ResultCache.index`); both are created by the first settlement that
    meets the entry, for every relation it depends on, and live as long as
    the entry.  A patch keeps them in step with the ``env`` it installs: the
    deriver keeps the key sets the patch could not have moved, updates in
    place those whose fetch it patched and drops the others, and the
    settlement reads and re-registers only those again.
    """

    rows: frozenset[tuple]
    columns: tuple[str, ...]
    dependencies: tuple[str, ...]
    snapshot: tuple[int, ...]
    env: tuple[frozenset[tuple], ...] | None = None
    plan: object | None = None
    keyed: dict | None = None
    reach: dict | None = None


class ResultCache:
    """An LRU cache of bounded results, validated by data-version snapshots.

    Keys are the prepared entries' ``result_key`` (the query's fingerprint
    and the plan-store key's flags); each entry remembers the ``(relation,
    version)`` snapshot of its plan's dependent relations at fill time.  A
    lookup hits only when the caller's current snapshot matches — entries
    outlived by a write to a dependent relation are dropped on probe
    (counted as ``stale``) or by an explicit targeted ``invalidate`` sweep.

    The cache is **per engine** (per database): results are data-dependent,
    unlike the shareable :class:`PlanStore`.

    ``max_rows`` is the admission threshold: results with more rows are not
    cached.  Fetched inputs are bounded by ``access_bound()``, but a plan's
    *output* can exceed that (e.g. a product of two fetched sets), so the
    LRU alone would bound entry count, not memory.  Captured repair
    environments are admitted as given: the executor already left out the
    ones over the engine's budget.

    **Snapshot contract.** :meth:`get` serves an entry only when the
    caller's current dependency-version snapshot equals the entry's;
    :meth:`repair` may only be called by a write path that has verified the
    entry's snapshot matches the *pre-write* versions of every dependency
    (otherwise the patch would be derived against a state the entry was
    never valid for) and must pass the post-write snapshot to re-stamp.

    **Dependency tuples.**  Entries are also filed by their dependency tuple
    (:meth:`dependency_tuples`, :meth:`entries_under`): entries that share
    one share every snapshot a write takes, so a settlement snapshots,
    validates and re-stamps (:meth:`restamp`) per tuple, not per entry.

    **Reach index.**  Beside the entries the cache keeps, inverted, the keys
    their fetches probed: ``base relation → key positions in a written row →
    probed key → cache keys`` (:meth:`index`).  :meth:`reached` intersects it
    with a batch's written keys, so a settlement looks at what the batch
    wrote, not at what is cached, to find the entries it has to derive; all
    others it re-stamps in bulk.  The index is filled by settlements only —
    never when an entry is filled or read.  An entry's part of it leaves with
    the entry; a patch re-registers only the fetch sites whose probed keys it
    may have moved (:meth:`index` replaces a relation's part site by site).
    """

    def __init__(self, capacity: int = 256, max_rows: int = 100_000):
        self.capacity = capacity
        self.max_rows = max_rows
        #: results refused admission for exceeding ``max_rows``
        self.oversized = 0
        self._entries: OrderedDict[Hashable, CachedResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0
        self.invalidated = 0
        self.sweeps = 0
        #: triggering relation -> entries it invalidated ("*" for clear-alls)
        self.invalidated_by: dict[str, int] = {}
        #: entries repaired in place after a dependent write (delta path)
        self.repaired = 0
        #: repairs that were pure snapshot re-stamps (no probed key written)
        self.repaired_clean = 0
        #: rows added + removed across all patches
        self.rows_patched = 0
        #: entries invalidated because their delta was not derivable
        self.repair_fallbacks = 0
        #: fallback reason -> count ("difference", "no_env", "stale", ...)
        self.repair_fallback_reasons: dict[str, int] = {}
        #: base relation -> row positions -> probed key -> keys of the entries
        #: that probed it: the union over an entry's fetch sites of one index
        self._reach: dict[str, dict[tuple[int, ...], dict[tuple, set[Hashable]]]] = {}
        #: dependency tuple -> the entries filed under it (every entry is in one)
        self._by_dependencies: dict[tuple[str, ...], dict[Hashable, CachedResult]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: Hashable, snapshot: tuple[int, ...], record: bool = True
    ) -> CachedResult | None:
        """The entry for ``key`` iff its stamp equals ``snapshot``, else ``None``.

        A snapshot mismatch counts as a miss and as ``stale``, and drops the
        entry: the data moved on without a settlement (an out-of-band
        write), so no later :meth:`repair` could soundly patch it.
        ``record=False`` counts no hit and no miss, as on
        :meth:`PlanStore.get` — the prober calls :meth:`record_hit` once the
        read is served — but a stale entry is still dropped and counted
        ``stale``, once.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += record
            return None
        if entry.snapshot != snapshot:
            # The data moved on under this entry; drop it eagerly.
            del self._entries[key]
            self._forget(key, entry)
            self.stale += 1
            self.misses += record
            return None
        self._entries.move_to_end(key)
        self.hits += record
        return entry

    def record_hit(self) -> None:
        """Count the hit of a ``get(..., record=False)`` whose read was served."""
        self.hits += 1

    def put(
        self,
        key: Hashable,
        rows: frozenset[tuple],
        columns: tuple[str, ...],
        dependencies: Iterable[str],
        snapshot: tuple[int, ...],
        env: tuple[frozenset[tuple], ...] | None = None,
        plan: object | None = None,
    ) -> None:
        """Admit a result; ``env``/``plan`` make the entry repairable.

        ``snapshot`` must be the dependency versions read *before* the
        execution that produced ``rows`` (the caller validated them after,
        or executed under a single-writer regime) — it is what :meth:`get`
        and the repair path compare against.
        """
        if self.capacity <= 0:
            return
        if len(rows) > self.max_rows:
            self.oversized += 1
            return
        previous = self._entries.get(key)
        if previous is not None:
            self._forget(key, previous)
        entry = self._entries[key] = CachedResult(
            rows=rows,
            columns=columns,
            dependencies=tuple(dependencies),
            snapshot=snapshot,
            env=env,
            plan=plan if env is not None else None,
        )
        self._by_dependencies.setdefault(entry.dependencies, {})[key] = entry
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

    def restamp(
        self, dependencies: tuple[str, ...], snapshot: tuple, repaired: int = 0
    ) -> int:
        """Stamp every entry filed under ``dependencies`` with ``snapshot``: clean repairs, in bulk.

        Under the snapshot contract of :meth:`repair`, for a settlement that
        has passed ``repaired`` of these entries through :meth:`repair` (with
        this same ``snapshot``; they are counted there) and provably did not
        reach the others (:meth:`reached`): each of those counts as
        ``repaired`` and ``repaired_clean``.  Returns how many that was.
        """
        entries = self.entries_under(dependencies)
        for entry in entries.values():
            entry.snapshot = snapshot
        stamped = len(entries) - repaired
        self.repaired += stamped
        self.repaired_clean += stamped
        return stamped

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
        indexed for ``base``.

        Called again for a ``base`` the entry is indexed for, it replaces the
        registration site by site (the sites of one plan and relation come in
        one order): only what a site's new keys add to its old ones is
        entered, and only what they drop leaves — unless another site at the
        same positions still probes it.
        """
        entry = self._entries[key]
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
                by_key = self._reach.setdefault(base, {}).setdefault(positions, {})
                for probe in added:
                    holders = by_key.get(probe)
                    if holders is None:
                        by_key[probe] = {key}
                    else:
                        holders.add(key)
        self._unregister(key, base, gone, reach)
        entry.reach[base] = reach

    def _unregister(self, key: Hashable, base: str, parts, remaining=()) -> None:
        """Take ``key`` off the probed keys of ``parts`` under ``base``, except
        those a part of ``remaining`` at the same positions still probes."""
        slots = self._reach.get(base, {})
        for positions, probed in parts:
            by_key = slots.get(positions)
            if by_key is None or not probed:
                continue  # nothing probed, or emptied by another site of this index
            still = [other for at, other in remaining if at == positions]
            for probe in probed:
                holders = by_key.get(probe)
                if holders is not None and not any(probe in other for other in still):
                    holders.discard(key)
                    if not holders:
                        del by_key[probe]
            if not by_key:
                del slots[positions]
        if not slots:
            self._reach.pop(base, None)

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
        snapshot: tuple[int, ...],
        rows_added: int = 0,
        rows_removed: int = 0,
    ) -> bool:
        """Patch an entry in place and re-stamp its dependency snapshot.

        The caller (the delta-maintenance write path) is responsible for the
        snapshot contract: it verified the entry was valid for the pre-write
        versions, derived ``rows``/``env`` from the applied delta, and
        passes the **post-write** snapshot here.  A patch with
        ``rows_added == rows_removed == 0`` is counted as a *clean* repair —
        the write provably missed every index group the entry read, so only
        the stamp moves.  Returns ``False`` when the entry vanished (LRU
        eviction between derivation and patch).

        Installing ``env`` leaves ``keyed`` and the entry's part of the reach
        index alone: the derivation already brought ``keyed`` in step with
        ``env`` but for the key sets it dropped, which the caller reads again
        and re-registers (:meth:`index`).
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.rows = rows
        entry.snapshot = snapshot
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

    def invalidate(self, relations: Iterable[str] | None = None) -> int:
        """Purge entries depending on ``relations`` (all entries when ``None``).

        Version snapshots already guarantee stale entries are never *served*;
        the sweep exists to bound memory and to surface invalidation counts
        in the stats.  Returns the number of entries dropped.
        """
        self.sweeps += 1
        if relations is None:
            dropped = len(self._entries)
            self._entries.clear()
            self._reach.clear()
            self._by_dependencies.clear()
            if dropped:
                self.invalidated_by["*"] = self.invalidated_by.get("*", 0) + dropped
        else:
            touched = frozenset(relations)
            dropped = 0
            for dependencies in self.dependency_tuples(touched):
                filed = self._by_dependencies.pop(dependencies)
                for key, entry in filed.items():
                    del self._entries[key]
                    self._unindex(key, entry)
                for relation in touched.intersection(dependencies):
                    self.invalidated_by[relation] = (
                        self.invalidated_by.get(relation, 0) + len(filed)
                    )
                dropped += len(filed)
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
