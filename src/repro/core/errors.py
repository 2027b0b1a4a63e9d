"""Exception hierarchy for the bounded-evaluation library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of the library with a single ``except``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """A relational schema is malformed or referenced inconsistently.

    Raised, e.g., when a relation is declared twice, when an attribute is
    referenced that does not belong to its relation, or when a constraint
    mentions an unknown relation.
    """


class QueryError(ReproError):
    """A relational-algebra query is structurally invalid.

    Examples: projecting an attribute that does not exist in the input,
    taking the union of expressions with different arities, or referencing
    a relation that is not part of the schema.
    """


class AccessConstraintError(ReproError):
    """An access constraint is malformed (e.g. attributes outside its relation)."""


class NotCoveredError(ReproError):
    """An operation that requires a covered query received one that is not.

    ``QPlan`` and the access-minimization algorithms are only defined for
    queries covered by the access schema; calling them on an uncovered query
    raises this error rather than silently producing an unbounded plan.
    """


class PlanError(ReproError):
    """A bounded query plan is invalid or cannot be executed.

    Raised when a plan references an undefined intermediate result, when a
    ``fetch`` uses an access constraint that is not part of the access
    schema, or when plan execution encounters incompatible arities.
    """


class ParseError(ReproError):
    """The SQL parser could not parse the input text."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class StorageError(ReproError):
    """The storage layer was used inconsistently.

    Examples: inserting a tuple with the wrong arity, loading a relation that
    does not exist, or building an index over attributes the relation lacks.
    """


class ConstraintViolation(ReproError):
    """A dataset does not satisfy an access constraint it was declared to satisfy.

    Raised when an engine builds its indexes over such data, and by
    :meth:`~repro.core.engine.ServingCore.apply_updates` for a batch that
    would make it so — after undoing the batch: nothing it wrote is left.
    """

    def __init__(self, constraint, value, count: int):
        self.constraint = constraint
        self.value = value
        self.count = count
        super().__init__(
            f"constraint {constraint} violated: X-value {value!r} has {count} "
            f"distinct Y-values (limit {constraint.bound})"
        )


class DiscoveryError(ReproError):
    """Access-constraint discovery was configured or used incorrectly."""


class MaintenanceError(ReproError):
    """A batch of updates failed part-way through being applied.

    The rows applied before the failure are *kept*, and storage and indexes
    stay mutually consistent: a row counts as applied once storage and the
    index maintainer both took it; one the maintainer refuses is taken back
    out of storage (the row's validation runs inside the storage write, so a
    malformed row reaches neither).  The rest of the batch was not attempted,
    and whatever stopped it — a ``ReproError`` or not — is this error's
    ``__cause__``.  ``report`` is the partial
    :class:`~repro.discovery.maintenance.MaintenanceReport` up to the failing
    update: its ``touched_relations`` names every relation the partial batch
    modified.  The version clock is already settled over them when this
    propagates; :meth:`~repro.core.engine.ServingCore.apply_updates` sweeps
    the result cache over them too — otherwise it would keep serving rows
    from before the partial batch.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class ServingError(ReproError):
    """Base class for the serving tier's request-level failures.

    These are *per-request* verdicts, not library bugs: the query itself may
    be fine, but the serving tier declined or failed to answer it right now.
    Callers distinguish retryable conditions (:class:`TransientFault`) from
    terminal ones (:class:`OverloadedError`, :class:`DeadlineExceededError`).
    """


class OverloadedError(ServingError):
    """The request was shed by admission control.

    Raised when the bounded request queue is full, or when the query's
    ``access_bound()`` cost estimate exceeds the server's per-request budget.
    Shedding at admission keeps queueing bounded: the alternative — accepting
    every request — turns overload into unbounded latency for everyone.
    """


class DeadlineExceededError(ServingError):
    """The request's deadline expired before (or while) it was served."""


class CircuitOpenError(OverloadedError):
    """A circuit breaker rejected the call without attempting it.

    Subclasses :class:`OverloadedError` because the caller-visible meaning is
    the same — the request was refused to protect the system, not because it
    was invalid.  The serving tier wraps the *unbounded* conventional
    fallback in a breaker so a stampede of uncovered queries cannot starve
    the covered (bounded-cost) hot path.
    """


class TransientFault(ServingError):
    """A retryable infrastructure fault (injected or real).

    The operation may succeed if retried: the fault is in the environment
    (slow storage, a flaky dependency, an injected test fault), not in the
    query.  :class:`~repro.serving.server.BoundedServer` retries these, up
    to its attempt cap and the request's deadline; anything else propagates
    immediately.
    """
