"""Spans around the layers' public callables, recorded from outside the program.

A traced run installs a timing wrapper on every callable in :data:`TARGETS`
— class attributes, and module functions under the names the engine and the
router bound them to at import — replays part of the workload, and removes
the wrappers again.  Nothing under ``src/`` knows about it; spans inside the
program are a later issue.

Each span records its layer, start, end, the span that caused it and the id
of the end-to-end operation it belongs to.  A layer's *self time* is its
spans' duration minus the part their child spans cover, so the self times of
all layers add up to the traced latency.

Parents come from the call stack.  Behind :class:`BoundedServer` the stack
is cut by the request queue: ``submit`` returns to the event loop and a
worker task picks the request up later.  The cut is bridged by identity:
``submit``'s span is registered under ``id()`` of the request's payload (the
query, or the update batch), every slot of a served sequence carries its own
payload object, and a span that starts with an empty stack and is handed a
registered payload adopts that ``submit`` span — as do the stack-less spans
after it, until the next adoption.  One request is handled without an
``await`` in between, which makes this exact.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

#: layer key -> callables it wraps, as (module, "Class.method" or "function")
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "fingerprint": (
        ("repro.core.engine", "prepared_cache_key"),
        ("repro.sharding.router", "prepared_cache_key"),
    ),
    "plan_store": (
        ("repro.core.planstore", "PlanStore.get"),
        ("repro.core.planstore", "PlanStore.put"),
    ),
    "clock": (
        ("repro.storage.counters", "VersionClock.snapshot"),
        ("repro.storage.counters", "VersionClock.validate"),
    ),
    "result_cache": (
        ("repro.core.planstore", "ResultCache.get"),
        ("repro.core.planstore", "ResultCache.put"),
        ("repro.core.planstore", "ResultCache.entries_for"),
        ("repro.core.planstore", "ResultCache.repair"),
        ("repro.core.planstore", "ResultCache.drop"),
    ),
    "coverage": (("repro.core.engine", "check_coverage"),),
    "minimize": (("repro.core.engine", "minimize_auto"),),
    "planner": (("repro.core.engine", "generate_plan"),),
    "optimizer": (("repro.core.engine", "optimize_plan"),),
    "executor_compile": (("repro.evaluator.executor", "PlanExecutor.compile"),),
    # one wrapper; the span is filed under executor_row or executor_columnar
    # once the result says which kernel family ran
    "executor": (("repro.evaluator.executor", "PlanExecutor.execute"),),
    "deltas": (("repro.core.deltas", "DeltaDeriver.derive"),),
    "maintenance": (("repro.discovery.maintenance", "apply_updates"),),
    "engine": (
        ("repro.core.engine", "BoundedEngine.execute"),
        ("repro.core.engine", "BoundedEngine.apply_updates"),
    ),
    "server": (("repro.serving.server", "BoundedServer.submit"),),
    "router": (("repro.sharding.router", "ShardRouter.execute"),),
    "shard_memory": (
        ("repro.sharding.shards", "EngineShard.fetch"),
        ("repro.sharding.shards", "EngineShard.snapshot"),
        ("repro.sharding.shards", "EngineShard.validate"),
    ),
    "shard_sqlite": (
        ("repro.sharding.shards", "SQLiteShard.fetch"),
        ("repro.sharding.shards", "SQLiteShard.snapshot"),
        ("repro.sharding.shards", "SQLiteShard.validate"),
    ),
}

#: the layers metrics are reported for (``executor`` splits in two)
LAYERS: tuple[str, ...] = tuple(
    layer
    for key in TARGETS
    for layer in (("executor_row", "executor_columnar") if key == "executor" else (key,))
)

NO_SPAN = -1


@dataclass
class Tracer:
    """Spans and boundary counts of one traced run, kept in memory."""

    #: (layer, start_ns, end_ns, parent span index, op id), by span index
    spans: list = field(default_factory=list)
    #: counts taken where the work happens, e.g. ``plan_store.hits``
    counts: dict[str, float] = field(default_factory=dict)
    #: per-call samples, e.g. ``shard_memory.fetch_ns``
    samples: dict[str, list[int]] = field(default_factory=dict)
    #: innermost open span of the running call stack
    current: int = NO_SPAN
    #: op id the direct-call loop is executing; served ops get theirs in submit
    op: int = NO_SPAN
    #: id(payload) -> span index of the ``submit`` waiting for it
    waiting: dict[int, int] = field(default_factory=dict)
    #: the ``submit`` span stack-less spans currently belong to
    adopted: int = NO_SPAN
    #: op ids of the served operations that were write batches
    write_ops: set[int] = field(default_factory=set)
    _access_bounds: dict[int, tuple[object, int]] = field(default_factory=dict)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: int) -> None:
        self.samples.setdefault(name, []).append(value)

    def access_bound(self, plan) -> int:
        """``plan.access_bound()``, computed once per plan object."""
        cached = self._access_bounds.get(id(plan))
        if cached is None or cached[0] is not plan:
            cached = self._access_bounds[id(plan)] = (plan, plan.access_bound())
        return cached[1]

    def adopt(self, args: tuple) -> int:
        """The ``submit`` span a stack-less call belongs to (none when not serving)."""
        if self.waiting:
            for argument in args[:2]:
                span = self.waiting.get(id(argument))
                if span is not None:
                    self.adopted = span
                    self.op = self.spans[span][4]
                    break
        return self.adopted

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: id, layer, start/end (ns), parent id, op id."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (layer, start, end, parent, op) in enumerate(self.spans):
                record = {
                    "span": index,
                    "layer": layer,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": None if parent == NO_SPAN else parent,
                    "op": None if op == NO_SPAN else op,
                }
                out.write(json.dumps(record) + "\n")


# -- what each boundary counts ---------------------------------------------------
# Observers run after the span's end has been read: their cost lands in the
# caller's self time, as part of what ``trace.overhead_ratio`` reports.

def _observe_store_get(tracer, args, result, elapsed):
    tracer.count("plan_store.hits" if result is not None else "plan_store.misses")


def _observe_store_put(tracer, args, result, elapsed):
    tracer.count("plan_store.displaced", len(result))


def _observe_cache_get(tracer, args, result, elapsed):
    tracer.count("result_cache.hits" if result is not None else "result_cache.misses")


def _observe_cache_repair(tracer, args, result, elapsed):
    tracer.count("result_cache.repairs")


def _observe_cache_drop(tracer, args, result, elapsed):
    tracer.count("result_cache.drops")


def _observe_execute(tracer, args, result, elapsed):
    mode = result.executor_mode
    tracer.count(f"executor.{mode}_reads")
    tracer.count("executor.tuples_fetched", result.counter.total)
    tracer.count("executor.access_bound", tracer.access_bound(args[1]))
    tracer.count("executor.rows", len(result.rows))
    if mode == "columnar":
        tracer.count("executor.columnar_rows_processed", result.rows_processed)


def _observe_derive(tracer, args, result, elapsed):
    tracer.count(f"deltas.{result.status}")
    tracer.count("deltas.rows_patched", result.rows_added + result.rows_removed)


def _observe_maintenance(tracer, args, result, elapsed):
    tracer.count("maintenance.batches")
    tracer.count("maintenance.work_units", result.work_units)


def _observe_fetch(layer):
    def observe(tracer, args, result, elapsed):
        tracer.sample(f"{layer}.fetch_ns", elapsed)

    return observe


_OBSERVERS: dict[str, Callable] = {
    "PlanStore.get": _observe_store_get,
    "PlanStore.put": _observe_store_put,
    "ResultCache.get": _observe_cache_get,
    "ResultCache.repair": _observe_cache_repair,
    "ResultCache.drop": _observe_cache_drop,
    "PlanExecutor.execute": _observe_execute,
    "DeltaDeriver.derive": _observe_derive,
    "apply_updates": _observe_maintenance,
    "EngineShard.fetch": _observe_fetch("shard_memory"),
    "SQLiteShard.fetch": _observe_fetch("shard_sqlite"),
}


def _wrap(tracer: Tracer, layer: str, name: str, function: Callable) -> Callable:
    """``function`` with a span of ``layer`` around every call."""
    observe = _OBSERVERS.get(name)
    spans = tracer.spans
    split_by_mode = layer == "executor"
    if split_by_mode:
        layer = "executor_row"

    def traced(*args, **kwargs):
        entered = perf_counter_ns()
        caller = tracer.current
        parent = caller if caller != NO_SPAN else tracer.adopt(args)
        index = len(spans)
        spans.append(None)
        tracer.current = index
        # A span with no parent is an end-to-end operation.  It is stretched
        # over this wrapper's own bookkeeping, so that what the caller waits
        # for is accounted for however fast the program becomes.
        start = perf_counter_ns() if parent != NO_SPAN else entered
        try:
            result = function(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            tracer.current = caller
            spans[index] = (layer, start, end, parent, tracer.op)
        filed = layer
        if split_by_mode and result.executor_mode == "columnar":
            filed = "executor_columnar"
        tracer.count(f"{filed}.calls")
        if observe is not None:
            observe(tracer, args, result, end - start)
        if parent == NO_SPAN:
            end = perf_counter_ns()
        if parent == NO_SPAN or filed is not layer:
            spans[index] = (filed, start, end, parent, tracer.op)
        return result

    traced.__wrapped__ = function
    return traced


def _wrap_submit(tracer: Tracer, function: Callable) -> Callable:
    """The span of ``BoundedServer.submit``: open across awaits, adopted by payload."""
    spans = tracer.spans

    async def traced(server, request):
        start = perf_counter_ns()
        index = len(spans)
        op = index
        payload = getattr(request, "query", None)
        if payload is None:
            payload = request.updates
            tracer.write_ops.add(op)
        spans.append(("server", start, start, NO_SPAN, op))  # children read the op id
        tracer.waiting[id(payload)] = index
        try:
            result = await function(server, request)
        finally:
            del tracer.waiting[id(payload)]
            spans[index] = ("server", start, perf_counter_ns(), NO_SPAN, op)
        tracer.count("server.calls")
        tracer.sample(
            "server.overhead_ns", perf_counter_ns() - start - int(result.elapsed * 1e9)
        )
        spans[index] = ("server", start, perf_counter_ns(), NO_SPAN, op)
        return result

    traced.__wrapped__ = function
    return traced


def _locate(module_name: str, path: str) -> tuple[object, str]:
    """The module or class that holds the callable ``path``, and its attribute name."""
    owner = import_module(module_name)
    *holders, attribute = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attribute


class Installation:
    """The wrappers of one tracer, installed on construction and removable."""

    def __init__(self, tracer: Tracer):
        self._undo: list[Callable[[], None]] = []
        try:
            for layer, callables in TARGETS.items():
                for module_name, path in callables:
                    self._install(tracer, layer, module_name, path)
        except BaseException:
            self.remove()
            raise

    def _install(self, tracer: Tracer, layer: str, module_name: str, path: str) -> None:
        owner, attribute = _locate(module_name, path)
        original = getattr(owner, attribute)
        # snapshot/validate are inherited from Shard: the wrapper becomes the
        # subclass's own attribute and is deleted, not restored, afterwards
        own = attribute in vars(owner)
        if path == "BoundedServer.submit":
            wrapper = _wrap_submit(tracer, original)
        else:
            wrapper = _wrap(tracer, layer, path, original)
        setattr(owner, attribute, wrapper)
        if own:
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def installed() -> list[str]:
    """The targets that currently carry a wrapper (empty outside a traced run)."""
    found = []
    for callables in TARGETS.values():
        for module_name, path in callables:
            owner, attribute = _locate(module_name, path)
            if hasattr(getattr(owner, attribute), "__wrapped__"):
                found.append(f"{module_name}.{path}")
    return found


# -- aggregation -----------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_us(samples: list[int] | None) -> float:
    return statistics.median(samples) / 1000 if samples else 0.0


def self_time_ns(tracer: Tracer, ops: set[int] | None = None) -> dict[str, int]:
    """Summed self time per layer: span durations minus what child spans cover.

    With ``ops``, only the spans of those operations are summed — how the
    reads and the writes of a mixed run are told apart.
    """
    own = [end - start for _, start, end, _, _ in tracer.spans]
    for _, start, end, parent, _ in tracer.spans:
        if parent != NO_SPAN:
            own[parent] -= end - start
    self_ns = dict.fromkeys(LAYERS, 0)
    for (layer, _, _, _, op), own_ns in zip(tracer.spans, own):
        if ops is None or op in ops:
            self_ns[layer] += own_ns
    return self_ns


def layer_metrics(
    tracer: Tracer, ops: int, writes: int, traced_mean_us: float
) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` end-to-end operations.

    ``<layer>.self_us_per_op`` is the layer's summed self time divided by the
    operations of the run, so over all layers it should add up to
    ``traced_mean_us``, the mean latency the caller saw during the same run;
    ``trace.coverage_ratio`` says how close it comes.
    """
    self_ns = self_time_ns(tracer)
    count = tracer.counts.get
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = _ratio(self_ns[layer] / 1000, ops)
        metrics[f"{layer}.calls_per_op"] = _ratio(count(f"{layer}.calls", 0), ops)

    store_gets = count("plan_store.hits", 0) + count("plan_store.misses", 0)
    metrics["plan_store.hit_ratio"] = _ratio(count("plan_store.hits", 0), store_gets)
    metrics["plan_store.evictions_per_op"] = _ratio(count("plan_store.displaced", 0), ops)
    cache_gets = count("result_cache.hits", 0) + count("result_cache.misses", 0)
    metrics["result_cache.hit_ratio"] = _ratio(count("result_cache.hits", 0), cache_gets)
    metrics["result_cache.repairs_per_write"] = _ratio(count("result_cache.repairs", 0), writes)
    metrics["result_cache.drops_per_write"] = _ratio(count("result_cache.drops", 0), writes)
    executed = count("executor.row_reads", 0) + count("executor.columnar_reads", 0)
    metrics["executor.row_share"] = _ratio(count("executor.row_reads", 0), executed)
    metrics["executor.tuples_fetched_per_read"] = _ratio(
        count("executor.tuples_fetched", 0), executed
    )
    metrics["executor.bound_tightness"] = _ratio(
        count("executor.tuples_fetched", 0), count("executor.access_bound", 0)
    )
    metrics["executor.rows_per_read"] = _ratio(count("executor.rows", 0), executed)
    metrics["executor.rows_processed_per_read"] = _ratio(
        count("executor.columnar_rows_processed", 0), count("executor.columnar_reads", 0)
    )
    derived = sum(count(f"deltas.{status}", 0) for status in ("patched", "clean", "fallback"))
    for status in ("patched", "clean", "fallback"):
        metrics[f"deltas.{status}_ratio"] = _ratio(count(f"deltas.{status}", 0), derived)
    metrics["deltas.rows_patched_per_write"] = _ratio(count("deltas.rows_patched", 0), writes)
    metrics["maintenance.work_units_per_write"] = _ratio(
        count("maintenance.work_units", 0), count("maintenance.batches", 0)
    )
    metrics["server.overhead_us_p50"] = _median_us(tracer.samples.get("server.overhead_ns"))
    metrics["shard_memory.fetch_us_p50"] = _median_us(tracer.samples.get("shard_memory.fetch_ns"))
    metrics["shard_sqlite.fetch_us_p50"] = _median_us(tracer.samples.get("shard_sqlite.fetch_ns"))
    metrics["trace.coverage_ratio"] = _ratio(
        sum(self_ns.values()) / 1000, traced_mean_us * ops
    )
    return metrics
