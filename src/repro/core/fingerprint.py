"""Canonical query keys for the plan store and the result cache.

Coverage checking, access minimization and plan generation depend only on the
*syntax* of a query (plus the access schema), never on the data.  Two
executions of syntactically identical queries can therefore share one bounded
plan.  This module turns a :class:`~repro.core.query.Query` into two keys:

* :func:`canonical_form` is an unambiguous nested-tuple serialization of the
  query tree whose leaves are strings (constants are tagged with their Python
  type and carried as their ``repr``).  Tuple equality is therefore
  syntactic identity.  :func:`prepared_cache_key` — the form itself — is
  what :class:`~repro.core.planstore.PlanStore` is keyed by; every read
  builds it once, and nothing else is computed from the query on a hit.
* :func:`query_fingerprint` is the SHA-256 digest of the form's ``repr``: a
  short name that does not depend on ``PYTHONHASHSEED``.
  :func:`result_cache_key` is that digest, and it is what the result cache,
  its reach index and write settlement address entries by:
  a ``str`` caches its hash and a nested tuple does not, and a settlement
  hashes its keys hundreds of times a batch.  It is computed once per
  prepare, on the plan-store miss, and kept on the prepared entry
  (``PreparedQuery.result_key`` in :mod:`repro.core.engine`).

Both keys tell apart what the syntax tells apart, so that

* structurally identical queries built independently collide (cache hits),
* queries differing in *any* syntactic detail — an occurrence name, a rename
  target, the type of a constant (``1`` vs ``"1"`` vs ``True``), the order of
  conjuncts — get distinct keys.

Keys are deliberately syntactic: semantically equivalent but syntactically
different queries miss the cache, which costs a re-plan but can never serve a
wrong plan.
"""

from __future__ import annotations

import hashlib

from .errors import QueryError
from .query import (
    Comparison,
    Constant,
    Difference,
    Join,
    Predicate,
    Product,
    Projection,
    Query,
    Relation,
    Rename,
    Selection,
    Union,
)
from .schema import Attribute


def _term_form(term: object) -> tuple:
    if isinstance(term, Attribute):
        return ("attr", term.relation, term.name)
    if isinstance(term, Constant):
        return ("const", type(term.value).__name__, repr(term.value))
    # Bare values should not appear in well-formed predicates, but serialize
    # them the same way constants are rather than failing.
    return ("const", type(term).__name__, repr(term))


def _predicate_form(condition: Predicate) -> tuple:
    parts = []
    for atom in condition.atoms():
        if not isinstance(atom, Comparison):  # pragma: no cover - defensive
            raise QueryError(f"cannot fingerprint predicate {atom}")
        parts.append((_term_form(atom.left), atom.op, _term_form(atom.right)))
    return ("pred", tuple(parts))


def canonical_form(query: Query) -> tuple:
    """A nested-tuple serialization of the query tree, unique per syntax."""
    if isinstance(query, Relation):
        return ("rel", query.name, query.base, query.attribute_names)
    if isinstance(query, Selection):
        return ("sel", _predicate_form(query.condition), canonical_form(query.child))
    if isinstance(query, Projection):
        attrs = tuple((a.relation, a.name) for a in query.attributes)
        return ("proj", attrs, canonical_form(query.child))
    if isinstance(query, Product):
        return ("prod", canonical_form(query.left), canonical_form(query.right))
    if isinstance(query, Join):
        return (
            "join",
            _predicate_form(query.condition),
            canonical_form(query.left),
            canonical_form(query.right),
        )
    if isinstance(query, Union):
        return ("union", canonical_form(query.left), canonical_form(query.right))
    if isinstance(query, Difference):
        return ("diff", canonical_form(query.left), canonical_form(query.right))
    if isinstance(query, Rename):
        return ("ren", query.name, canonical_form(query.child))
    raise QueryError(f"cannot fingerprint query node {type(query).__name__}")


def query_fingerprint(query: Query) -> str:
    """The canonical fingerprint of ``query`` as a hex SHA-256 digest."""
    serialized = repr(canonical_form(query)).encode("utf-8")
    return hashlib.sha256(serialized).hexdigest()


#: the plan-store key of a query: its canonical form
prepared_cache_key = canonical_form


def result_cache_key(query: Query) -> str:
    """The result-cache key of the entry :func:`prepared_cache_key` names: the form's digest."""
    return query_fingerprint(query)
