"""Data-access accounting and data-version counters.

The central claim of bounded evaluability is about *how much data is
accessed*, so every component that touches tuples (index lookups, relation
scans, fetch execution) reports to an :class:`AccessCounter`.  The counters
feed the ``P(D_Q) = |D_Q| / |D|`` ratios reported by the experiments.

:class:`VersionClock` is the complementary *write-side* counter: a
monotonically increasing global data version plus per-key (relation /
constraint) counters, bumped by the maintenance path.  It is the primitive
behind constraint-granular cache invalidation and versioned result serving
in :mod:`repro.core.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable


@dataclass
class AccessCounter:
    """Counts tuples accessed, broken down by mechanism.

    ``fetched`` counts tuples retrieved through constraint indexes (the only
    access mechanism a bounded plan may use); ``scanned`` counts tuples read
    by full relation scans (used by the conventional baseline); ``index_probes``
    counts the number of index lookups issued.
    """

    fetched: int = 0
    scanned: int = 0
    index_probes: int = 0
    per_relation: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Total tuples accessed by any mechanism (the ``|D_Q|`` of the paper)."""
        return self.fetched + self.scanned

    def record_fetch(self, relation: str, count: int) -> None:
        self.fetched += count
        self.index_probes += 1
        self.per_relation[relation] = self.per_relation.get(relation, 0) + count

    def record_fetch_many(self, relation: str, probes: int, count: int) -> None:
        """Aggregate form of :meth:`record_fetch` for bulk index lookups."""
        self.fetched += count
        self.index_probes += probes
        self.per_relation[relation] = self.per_relation.get(relation, 0) + count

    def record_scan(self, relation: str, count: int) -> None:
        self.scanned += count
        self.per_relation[relation] = self.per_relation.get(relation, 0) + count

    def reset(self) -> None:
        self.fetched = 0
        self.scanned = 0
        self.index_probes = 0
        self.per_relation.clear()

    def merge(self, other: "AccessCounter") -> None:
        """Fold another counter into this one (used when combining sub-runs)."""
        self.fetched += other.fetched
        self.scanned += other.scanned
        self.index_probes += other.index_probes
        for relation, count in other.per_relation.items():
            self.per_relation[relation] = self.per_relation.get(relation, 0) + count

    def ratio(self, database_size: int) -> float:
        """``P(D_Q)``: the fraction of the database accessed."""
        if database_size <= 0:
            return 0.0
        return self.total / database_size


@dataclass
class VersionClock:
    """Monotonic data-version counters: one global tick plus per-key counters.

    ``bump(keys)`` advances the global version by one and stamps every given
    key with the new version, so a batch of updates costs a single tick no
    matter how many keys it touches.  ``version_of(key)`` returns the global
    version at which ``key`` was last written (0 for never-written keys).

    Keys are arbitrary hashables; the storage layer keys by relation name
    (every access constraint on a relation shares its relation's counter,
    which is exactly the granularity at which a write can change fetch
    results), while callers may also stamp individual constraints.
    """

    global_version: int = 0
    _per_key: dict[Hashable, int] = field(default_factory=dict)

    def bump(self, keys: Iterable[Hashable] = ()) -> int:
        """Advance the global version once and stamp ``keys`` with it."""
        self.global_version += 1
        for key in keys:
            self._per_key[key] = self.global_version
        return self.global_version

    def version_of(self, key: Hashable) -> int:
        """The global version at which ``key`` was last bumped (0 if never)."""
        return self._per_key.get(key, 0)

    def snapshot(self, keys: Iterable[Hashable]) -> tuple[int, ...]:
        """The versions of ``keys``, in order — a cache-validity token.

        Two snapshots of the same keys are equal iff none of the keys was
        written in between, which is what makes ``(fingerprint, snapshot)``
        a sound result-cache key.
        """
        # A plain loop: a comprehension would cost a frame per call.
        per_key = self._per_key
        token = []
        for key in keys:
            token.append(per_key.get(key, 0))
        return tuple(token)

    def validate(self, keys: Iterable[Hashable], snapshot: tuple[int, ...]) -> bool:
        """Whether ``keys`` still stand at ``snapshot`` — a lock-free read check.

        Readers (the serving core's epoch guard) validate optimistically instead
        of locking: capture a snapshot, do the read, then ``validate`` that no
        dependent key was written meanwhile.  A ``False`` answer means the
        read may have observed a torn state and must be retried or dropped.
        """
        return self.snapshot(keys) == snapshot
