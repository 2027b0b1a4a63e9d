"""Query evaluation: reference RA semantics, the DBMS baseline, and the plan executor.

Execution pipeline
------------------

A query answered by :class:`~repro.core.engine.BoundedEngine` flows through
three evaluation-layer stages:

1. **optimizer** — the canonical plan from ``QPlan`` is peephole-optimized
   (:func:`repro.core.optimizer.optimize_plan`): select-over-product pairs
   fuse into hash joins, stacked projections/selections collapse, columns
   nothing downstream reads are dropped below the joins, common subplans
   are deduplicated and dead steps dropped;
2. **cache** — the optimized plan is stored in the engine's
   :class:`~repro.core.planstore.PlanStore` under the query's canonical
   form, so repeated queries skip coverage checking, minimization,
   planning and optimization entirely; repeated covered queries on
   unchanged data skip execution too, served from the engine's versioned
   :class:`~repro.core.planstore.ResultCache`;
3. **executor** — :class:`~repro.evaluator.executor.PlanExecutor` lowers the
   plan once into per-step kernels (positions, predicates and index handles
   resolved up front).  Two kernel families share the compiled-plan seam:
   the row kernels pipeline mutable-set intermediates, and the columnar
   kernels (:mod:`repro.evaluator.columnar`) run batch-at-a-time over
   :class:`~repro.evaluator.columnar.ColumnBatch` intermediates with
   dictionary-encoded strings and virtual candidate products
   (:class:`~repro.evaluator.columnar.ProductView`).  The engine's executor
   picks the family per plan from its static bound
   (:func:`repro.core.optimizer.choose_executor_mode`); either way only the
   output is frozen back to the row-set contract.

The reference evaluator (:mod:`repro.evaluator.algebra`) and the conventional
baseline (:mod:`repro.evaluator.baseline`) stay interpreter-style on purpose:
they are the ground truth the optimized path is tested against.
"""

from .algebra import AlgebraEvaluator, ResultSet, evaluate
from .baseline import BaselineResult, ConventionalEvaluator, evaluate_conventional
from .columnar import ColumnBatch, ColumnarCompiler, Dictionary, FetchEncoder, ProductView
from .executor import (
    EXECUTOR_MODES,
    CompiledPlan,
    ExecutionResult,
    PlanExecutor,
    execute_plan,
)

__all__ = [
    "AlgebraEvaluator",
    "BaselineResult",
    "ColumnBatch",
    "ColumnarCompiler",
    "CompiledPlan",
    "ConventionalEvaluator",
    "Dictionary",
    "EXECUTOR_MODES",
    "ExecutionResult",
    "FetchEncoder",
    "PlanExecutor",
    "ProductView",
    "ResultSet",
    "evaluate",
    "evaluate_conventional",
    "execute_plan",
]
