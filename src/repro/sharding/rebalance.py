"""Epoch-guarded online migration of a key range between shards.

Rebalancing must serve correct reads *throughout* — the reason it is
affordable at all is the paper's boundedness: the rows in a key range of
one relation are a bounded, enumerable set, not a table scan.  The
protocol mirrors a routed write batch's epoch discipline:

1. **Copy** — the source shard's rows of the relation whose partition-key
   value falls in ``[lo, hi)`` are inserted into the destination through
   its own write path (indexes maintained).  During this window the rows
   exist on both shards; that is safe because fetch merges are set unions
   (broadcast fetches dedup the double presence) and routed fetches still
   consult the *pre-flip* map, which sends the range's keys to the source.
2. **Verify** — the source's epoch is re-validated against the snapshot
   taken before the copy.  If a routed write landed on the source
   mid-copy, the copied rows may be a torn mixture, so the copy is undone
   on the destination and the whole step retries; after
   ``max_snapshot_retries`` failures a
   :class:`~repro.core.errors.TransientFault` propagates (never a torn
   layout) — exactly the merge contract.
3. **Flip** — one :meth:`~repro.sharding.partition.PartitionOverlay.
   add_override` entry atomically (single-threaded serving loop; the flip
   is one Python operation between requests) redirects the range's keys to
   the destination for fetch routing *and* write routing.
4. **Drop** — the source deletes its now-foreign copies.  Broadcast
   fetches during this tail window still union both fragments, which is
   again dedup-safe.

The router's caches are swept over the relation afterwards: contents did
not change, but a layout change is settled conservatively, like a routed
batch with no derivable delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ReproError, StorageError, TransientFault
from ..discovery.maintenance import Update


@dataclass
class RebalanceReport:
    """Outcome of one key-range migration."""

    relation: str
    lo: object
    hi: object
    src: str
    dst: str
    rows_moved: int = 0
    retries: int = 0
    #: destination-side inserts undone because the source epoch moved mid-copy
    rows_undone: int = 0
    completed: bool = False
    notes: list[str] = field(default_factory=list)

    def snapshot(self) -> dict[str, object]:
        return {
            "relation": self.relation,
            "range": [repr(self.lo), repr(self.hi)],
            "src": self.src,
            "dst": self.dst,
            "rows_moved": self.rows_moved,
            "retries": self.retries,
            "rows_undone": self.rows_undone,
            "completed": self.completed,
        }


def rebalance_key_range(
    router,
    relation: str,
    key_range: tuple,
    src: int,
    dst: int,
) -> RebalanceReport:
    """Migrate ``relation``'s keys in ``[lo, hi)`` from shard ``src`` to ``dst``.

    ``router`` is a :class:`~repro.sharding.router.ShardRouter` whose
    partitioner is (or has been wrapped into) a
    :class:`~repro.sharding.partition.PartitionOverlay`.  Reads stay correct
    at every intermediate state; the partition map flips only after the copy
    is verified against an unmoved source epoch.
    """
    lo, hi = key_range
    if src == dst:
        raise StorageError("rebalance source and destination must differ")
    for index in (src, dst):
        if not (0 <= index < len(router.shards)):
            raise StorageError(
                f"rebalance shard index {index} out of range for "
                f"{len(router.shards)} shards"
            )
    overlay = router.partitioner
    if not hasattr(overlay, "add_override"):
        raise StorageError(
            "rebalance needs a PartitionOverlay partitioner (the router "
            "installs one at construction)"
        )
    src_shard, dst_shard = router.shards[src], router.shards[dst]
    position = overlay._positions[relation]
    report = RebalanceReport(
        relation=relation, lo=lo, hi=hi, src=src_shard.name, dst=dst_shard.name
    )

    for _attempt in range(router.max_snapshot_retries + 1):
        epoch = src_shard.snapshot((relation,))
        moving: list[tuple] = []
        for row in src_shard.relation_rows(relation):
            value = row[position]
            try:
                in_range = lo <= value < hi
            except TypeError:
                continue
            if in_range:
                moving.append(row)
        if not moving:
            # Nothing to copy: flip immediately (still guarded — an empty
            # range is trivially epoch-consistent) so future writes route
            # to the destination.
            overlay.add_override(relation, lo, hi, src, dst)
            report.completed = True
            break
        try:
            dst_shard.apply_updates([Update.insert(relation, row) for row in moving])
        except ReproError as error:
            # A faulting destination may have applied a prefix; undo it
            # (deleting a never-copied row is a harmless skip) so no stale
            # copy can leak into a later broadcast merge, then surface the
            # fault — the flip never happened, reads stay on the source.
            try:
                dst_shard.apply_updates(
                    [Update.delete(relation, row) for row in moving]
                )
            except ReproError:
                pass
            router.metrics.rebalance_aborts += 1
            raise TransientFault(
                f"rebalance of {relation!r} aborted: destination "
                f"{dst_shard.name!r} failed the copy ({error})"
            ) from error
        if src_shard.validate((relation,), epoch):
            overlay.add_override(relation, lo, hi, src, dst)
            src_shard.apply_updates([Update.delete(relation, row) for row in moving])
            report.rows_moved = len(moving)
            report.completed = True
            break
        # A write raced the copy; the copied rows may span epochs.  Undo on
        # the destination (fragments are disjoint, so every copied row is
        # ours to remove) and retry against the new epoch.
        dst_shard.apply_updates([Update.delete(relation, row) for row in moving])
        report.rows_undone += len(moving)
        report.retries += 1
        router.metrics.snapshot_retries += 1

    if not report.completed:
        router.metrics.rebalance_aborts += 1
        raise TransientFault(
            f"rebalance of {relation!r} {lo!r}..{hi!r} abandoned after "
            f"{report.retries} retries: source epoch kept moving; retry later"
        )

    router.metrics.rebalances += 1
    router.metrics.rebalance_rows_moved += report.rows_moved
    # Layout changed: settle the router's caches like a routed batch with
    # no derivable delta would.  Result-cache entries keyed by per-shard
    # snapshots are already unservable (the copy/drop bumped shard clocks);
    # the sweep keeps memory honest and the counters visible.
    router._settle((relation,), (), None)
    return report
