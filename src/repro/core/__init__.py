"""Core algorithms of the bounded-evaluation library.

The sub-modules mirror the sections of the paper:

* :mod:`repro.core.access` — access constraints and access schemas (Section 2)
* :mod:`repro.core.query` — the RA query AST
* :mod:`repro.core.coverage` — covered queries and algorithm ``CovChk`` (Sections 3–4)
* :mod:`repro.core.planner` — canonical bounded plans, algorithm ``QPlan`` (Section 5)
* :mod:`repro.core.minimize` — access minimization ``minA`` / ``minADAG`` / ``minAE`` (Section 6)
* :mod:`repro.core.plan2sql` — translation of bounded plans to SQL (Section 7)
* :mod:`repro.core.engine` — the end-to-end framework of Section 7

Three modules go beyond the paper, toward a serving engine: :mod:`repro.core.
fingerprint` computes the canonical query keys of the engine's caches,
:mod:`repro.core.planstore` holds the shareable plan store and the versioned
result cache, and :mod:`repro.core.optimizer` peephole-optimizes canonical
plans (hash-join fusion, column pruning, common-subplan elimination).
"""

from .access import AccessConstraint, AccessSchema
from .coverage import CoverageResult, check_coverage, is_covered
from .engine import BoundedEngine, EngineResult, PreparedQuery, ServingCore
from .fingerprint import (
    canonical_form,
    prepared_cache_key,
    query_fingerprint,
    result_cache_key,
)
from .planstore import CachedResult, PlanStore, ResultCache
from .optimizer import optimize_plan
from .minimize import (
    MinimizationResult,
    minimize_access,
    minimize_access_acyclic,
    minimize_access_elementary,
    minimize_auto,
)
from .plan2sql import plan_to_sql, query_to_sql
from .rewrite import find_covered_rewrite, is_boundedly_evaluable
from .errors import (
    AccessConstraintError,
    ConstraintViolation,
    NotCoveredError,
    ParseError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
    StorageError,
)
from .plan import BoundedPlan
from .planner import generate_plan, plan_query
from .query import (
    Comparison,
    Constant,
    Difference,
    Join,
    Product,
    Projection,
    Query,
    Relation,
    Rename,
    Selection,
    Union,
    eq,
)
from .schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "AccessConstraint",
    "AccessSchema",
    "AccessConstraintError",
    "Attribute",
    "BoundedEngine",
    "BoundedPlan",
    "EngineResult",
    "MinimizationResult",
    "Comparison",
    "Constant",
    "ConstraintViolation",
    "CoverageResult",
    "DatabaseSchema",
    "Difference",
    "Join",
    "NotCoveredError",
    "ParseError",
    "PlanError",
    "PlanStore",
    "CachedResult",
    "ResultCache",
    "PreparedQuery",
    "Product",
    "Projection",
    "Query",
    "QueryError",
    "Relation",
    "RelationSchema",
    "Rename",
    "ReproError",
    "SchemaError",
    "Selection",
    "ServingCore",
    "StorageError",
    "Union",
    "canonical_form",
    "check_coverage",
    "eq",
    "find_covered_rewrite",
    "generate_plan",
    "is_boundedly_evaluable",
    "is_covered",
    "minimize_access",
    "minimize_access_acyclic",
    "minimize_access_elementary",
    "minimize_auto",
    "optimize_plan",
    "plan_query",
    "plan_to_sql",
    "prepared_cache_key",
    "query_fingerprint",
    "query_to_sql",
    "result_cache_key",
]
