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
   plan once into a run schedule of row kernels (positions, predicates and
   index handles resolved up front; constants prefilled, projections folded
   into the fetches they key and into the joins they read) that pipeline
   set intermediates; only the output is frozen back to the row-set
   contract.

The reference evaluator (:mod:`repro.evaluator.algebra`) and the conventional
baseline (:mod:`repro.evaluator.baseline`) stay interpreter-style on purpose:
they are the ground truth the optimized path is tested against.
"""

from .algebra import AlgebraEvaluator, ResultSet, evaluate
from .baseline import BaselineResult, ConventionalEvaluator, evaluate_conventional
from .executor import CompiledPlan, ExecutionResult, PlanExecutor, execute_plan

__all__ = [
    "AlgebraEvaluator",
    "BaselineResult",
    "CompiledPlan",
    "ConventionalEvaluator",
    "ExecutionResult",
    "PlanExecutor",
    "ResultSet",
    "evaluate",
    "evaluate_conventional",
    "execute_plan",
]
