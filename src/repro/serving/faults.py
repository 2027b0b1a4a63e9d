"""Deterministic, seedable fault injection at the serving stack's seams.

Robustness code that is never exercised is decoration.  One
:class:`FaultInjector` wraps the seams a request crosses, on one engine or
across a federation —

* **executor** — bounded-plan execution
  (:meth:`repro.evaluator.executor.PlanExecutor.execute`, wrapped per
  instance);
* **fallback** — the unbounded conventional evaluation
  (``ServingCore._fallback_evaluator``, an attribute precisely so it can be
  wrapped without monkey-patching the module);
* **storage writes** — :meth:`repro.storage.relation.RelationInstance.insert`
  / ``delete`` on chosen relation instances, which is where a mid-batch
  write failure leaves :func:`~repro.discovery.maintenance.apply_updates`
  partially applied;
* **shard calls** — the two calls a router makes into a shard: ``fetch``
  (a read's scatter) and ``apply_updates`` (a routed write's portion).  A
  read's epoch is the shards' one shared clock, which the router reads
  itself, so no shard call stands between a cached result and its reader.
  The federation has no replicas, so a fault here reaches the caller: a
  read fails with the typed fault, a write batch with the partial report.

— and perturbs calls through them according to a :class:`FaultSpec`.
Wrappers replace attributes on concrete *instances* (never classes or
modules) and ``uninstall()`` restores every original, so an injector mounts
inside a test or soak run and tears down without trace.  All randomness
comes from per-site ``random.Random`` streams derived from one seed, so a
run is exactly reproducible and the schedule at one site never shifts when
another site is installed, configured or called.

Failure semantics, chosen to match the contracts the stack already
promises:

* **errors** (``error_rate`` / ``fail_every``) raise the typed, retryable
  :class:`~repro.core.errors.TransientFault` *before* the underlying call
  runs.  A failed fetch therefore counts no accessed tuples, and a faulted
  write is "this row (and the rest of the batch) did not happen" — storage
  and the constraint indexes can never diverge.
* **torn writes** apply a strict prefix of a shard batch through the real
  write path, then raise :class:`~repro.core.errors.MaintenanceError`
  carrying the partial report — the mid-batch abort contract of
  :func:`~repro.discovery.maintenance.apply_updates`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.errors import MaintenanceError, TransientFault


@dataclass(frozen=True)
class FaultSpec:
    """What to inject at one site.

    ``latency`` (+ uniform ``latency_jitter``) is slept before the call;
    ``fail_every`` deterministically fails every Nth call through the site
    (counted from 1, so ``fail_every=3`` fails calls 3, 6, 9, …);
    ``error_rate`` raises a :class:`TransientFault` with that probability.
    Checks run in that order; an injected failure still pays the injected
    latency, like a real slow-then-dead dependency.  ``torn_write_every``
    only affects shard write sites.
    """

    latency: float = 0.0
    latency_jitter: float = 0.0
    error_rate: float = 0.0
    fail_every: int | None = None
    #: every Nth write batch applies a strict prefix, then aborts
    torn_write_every: int | None = None

    @property
    def active(self) -> bool:
        return self != FaultSpec()


class FaultInjector:
    """Wraps callables at named sites and perturbs calls deterministically.

    One injector owns every site of one serving stack.  ``configure(site,
    spec)`` arms a site (before or after installation); the ``install_*``
    helpers wrap the concrete seams.  Engine sites are named ``executor`` /
    ``fallback`` / ``storage.write``; :meth:`install_shard` names its sites
    ``{shard.name}.fetch`` / ``.write``.
    """

    def __init__(self, seed: int = 0, sleeper: Callable[[float], None] = time.sleep):
        self.seed = seed
        self.sleeper = sleeper
        self._specs: dict[str, FaultSpec] = {}
        self._rngs: dict[str, random.Random] = {}
        self._calls: dict[str, int] = {}
        #: per-site count of faults actually injected (errors, torn writes)
        self.injected: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._wrapped_shards: set[str] = set()

    # -- configuration ---------------------------------------------------------
    def configure(self, site: str, spec: FaultSpec) -> None:
        """Arm ``site`` with ``spec`` (a default/empty spec disarms it)."""
        if spec.active:
            self._specs[site] = spec
            # Seed per site name: schedules are independent across sites and
            # stable under reconfiguration of other sites.
            self._rngs.setdefault(site, random.Random((self.seed, site).__repr__()))
        else:
            self._specs.pop(site, None)

    def calls(self, site: str) -> int:
        return self._calls.get(site, 0)

    # -- the perturbations -----------------------------------------------------
    def _tick(self, site: str) -> tuple[FaultSpec | None, int, random.Random | None]:
        """Count a call through ``site`` and pay its latency; ``None`` if unarmed."""
        spec = self._specs.get(site)
        if spec is None:
            return None, 0, None
        count = self._calls.get(site, 0) + 1
        self._calls[site] = count
        rng = self._rngs[site]
        delay = spec.latency
        if spec.latency_jitter > 0.0:
            delay += rng.uniform(0.0, spec.latency_jitter)
        if delay > 0.0:
            self.sleeper(delay)
        return spec, count, rng

    def _count_injection(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1

    def _raise_errors(
        self, site: str, spec: FaultSpec, count: int, rng: random.Random
    ) -> None:
        if spec.fail_every is not None and count % spec.fail_every == 0:
            self._count_injection(site)
            raise TransientFault(f"injected at {site!r}: deterministic fault (call #{count})")
        if spec.error_rate > 0.0 and rng.random() < spec.error_rate:
            self._count_injection(site)
            raise TransientFault(f"injected at {site!r}: random transient fault (call #{count})")

    def perturb(self, site: str) -> None:
        """Apply ``site``'s spec to the current call (sleep and/or raise)."""
        spec, count, rng = self._tick(site)
        if spec is not None:
            self._raise_errors(site, spec, count, rng)

    def wrap(self, site: str, fn: Callable) -> Callable:
        """A callable that perturbs ``site`` and then runs ``fn``."""

        def faulty(*args, **kwargs):
            self.perturb(site)
            return fn(*args, **kwargs)

        return faulty

    # -- seam installers -------------------------------------------------------
    def _install_attr(self, obj: object, attr: str, wrapper: Callable) -> None:
        original = getattr(obj, attr)
        # Remember whether the attribute lived on the instance itself (e.g.
        # ``_fallback_evaluator``) or was a method found on the class: the
        # latter is restored by deleting the shadowing instance attribute.
        was_instance_attr = attr in getattr(obj, "__dict__", {})
        self._installed.append((obj, attr, original if was_instance_attr else None))
        wrapper.__wrapped__ = original  # lets uninstall/debugging find the original
        setattr(obj, attr, wrapper)

    def _install_site(self, obj: object, attr: str, site: str) -> None:
        self._install_attr(obj, attr, self.wrap(site, getattr(obj, attr)))

    def install_engine(self, engine) -> None:
        """Wrap one serving core's bounded-execution and conventional-fallback seams.

        Sites: ``"executor"`` (compiled-plan execution; result-cache hits
        never reach it, mirroring a storage-side fault) and ``"fallback"``
        (the unbounded conventional evaluation guarded by the breaker).
        """
        self._install_site(engine._executor, "execute", "executor")
        self._install_site(engine, "_fallback_evaluator", "fallback")

    def install_writes(self, database, relations: Iterable[str] | None = None) -> None:
        """Wrap the storage write seam of ``relations`` (default: all).

        Site ``"storage.write"``.  Faults fire *before* the row is applied,
        so an aborted batch is always a clean prefix: rows up to the fault
        are stored and indexed, the faulting row and everything after it are
        not.
        """
        names = tuple(relations) if relations is not None else database.relation_names()
        for name in names:
            instance = database.relation(name)
            self._install_site(instance, "insert", "storage.write")
            self._install_site(instance, "delete", "storage.write")

    def install_shard(self, shard) -> None:
        """Wrap ``shard``'s fetch and write seams (idempotent).

        Installation arms nothing by itself — sites fire only once
        ``configure`` gives them an active spec, so a test can wrap a shard
        up front and arm a site later.
        """
        if shard.name in self._wrapped_shards:
            return
        self._wrapped_shards.add(shard.name)
        write_site = f"{shard.name}.write"

        self._install_site(shard, "fetch", f"{shard.name}.fetch")

        original_apply = shard.apply_updates

        def faulty_apply(updates):
            updates = list(updates)
            spec, count, rng = self._tick(write_site)
            if spec is not None:
                self._raise_errors(write_site, spec, count, rng)
                if (
                    spec.torn_write_every is not None
                    and count % spec.torn_write_every == 0
                    and len(updates) > 1
                ):
                    self._count_injection(write_site)
                    prefix = updates[: len(updates) // 2]
                    report = original_apply(prefix)
                    report.failed = True
                    report.failed_update = updates[len(prefix)]
                    report.error = f"injected at {write_site!r}: torn write"
                    raise MaintenanceError(
                        f"injected at {write_site!r}: batch torn after "
                        f"{len(prefix)} of {len(updates)} updates",
                        report=report,
                    )
            return original_apply(updates)

        self._install_attr(shard, "apply_updates", faulty_apply)

    def uninstall(self) -> None:
        """Restore every wrapped seam to its original callable."""
        while self._installed:
            obj, attr, original = self._installed.pop()
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._wrapped_shards.clear()

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        return {
            site: {
                "calls": self._calls.get(site, 0),
                "injected": self.injected.get(site, 0),
            }
            for site in sorted(self._specs)
        }
