"""Experiment drivers reproducing the evaluation of Section 8.

Each function regenerates one table/figure of the paper on the synthetic
workloads and returns an :class:`~repro.bench.metrics.ExperimentTable` whose
rows are the series the corresponding figure plots.  The pytest-benchmark
suites under ``benchmarks/`` are thin wrappers over these drivers.

The experiments intentionally reuse the exact production code paths:
``CovChk`` for coverage, ``QPlan`` + the plan executor for ``evalQP``,
``minA``/``minADAG``/``minAE`` for minimization, and the conventional
evaluator for ``evalDBMS``.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from ..core.access import AccessSchema
from ..core.coverage import CoverageChecker, check_coverage
from ..core.rewrite import rewrite_candidates
from ..core.minimize import (
    minimize_access,
    minimize_access_acyclic,
    minimize_access_elementary,
)
from ..core.planner import generate_plan
from ..core.query import Query
from ..core.rewrite import is_boundedly_evaluable
from ..discovery.maintenance import Update, apply_updates
from ..evaluator.baseline import evaluate_conventional
from ..evaluator.executor import PlanExecutor
from ..storage.database import Database
from ..storage.index import IndexSet
from ..workloads.base import WorkloadSpec
from ..workloads.generator import RandomQueryGenerator
from .metrics import ExperimentTable

#: default scale factors for the |D|-varying experiment, mirroring 2^-5 .. 1
DEFAULT_SCALE_FACTORS = (2 ** -5, 2 ** -4, 2 ** -3, 2 ** -2, 2 ** -1, 1.0)


# ---------------------------------------------------------------------------
# Query selection helpers
# ---------------------------------------------------------------------------

def select_covered_queries(
    workload: WorkloadSpec,
    count: int = 5,
    *,
    seed: int = 7,
    n_sel: tuple[int, int] = (4, 9),
    n_join: tuple[int, int] = (1, 3),
    n_unidiff: tuple[int, int] = (0, 1),
    max_attempts: int = 400,
    database: Database | None = None,
) -> list[Query]:
    """Randomly generate queries and keep the first ``count`` covered ones.

    Mirrors the paper's "5 covered queries randomly chosen" used throughout
    Figure 5.
    """
    generator = RandomQueryGenerator(workload, database=database, seed=seed)
    covered: list[Query] = []
    attempts = 0
    while len(covered) < count and attempts < max_attempts:
        attempts += 1
        query = generator.generate(
            n_sel=generator.rng.randint(*n_sel),
            n_join=generator.rng.randint(*n_join),
            n_unidiff=generator.rng.randint(*n_unidiff),
        )
        if check_coverage(query, workload.access_schema).is_covered:
            covered.append(query)
    return covered


def _run_bounded(
    query: Query,
    access_schema: AccessSchema,
    database: Database,
    indexes: IndexSet,
) -> tuple[float, int]:
    """Plan + execute a covered query; returns (seconds, tuples accessed)."""
    coverage = check_coverage(query, access_schema)
    plan = generate_plan(coverage)
    execution = PlanExecutor(indexes).execute(plan)
    return execution.elapsed, execution.counter.total


def _run_baseline(
    query: Query, access_schema: AccessSchema, database: Database, indexes: IndexSet
) -> tuple[float, int]:
    result = evaluate_conventional(query, database, access_schema, indexes)
    return result.elapsed, result.counter.total


# ---------------------------------------------------------------------------
# Figure 6 — percentage of covered / boundedly evaluable queries
# ---------------------------------------------------------------------------

def coverage_experiment(
    workload: WorkloadSpec,
    *,
    n_queries: int = 100,
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    seed: int = 11,
) -> ExperimentTable:
    """Reproduce Figure 6: % covered and % bounded vs. fraction of ``A`` used.

    For each fraction a random (seed-deterministic) subset of the access
    constraints is used, and for every generated query both coverage (CovChk)
    and bounded evaluability (the rewrite oracle standing in for the paper's
    manual examination) are measured.
    """
    generator = RandomQueryGenerator(workload, seed=seed)
    batch = [query for _, query in generator.generate_batch(n_queries)]
    # Pre-compute the query-side analysis of every query and of its rewrite
    # candidates once; only the schema side changes across fractions.
    checkers = [CoverageChecker(query) for query in batch]
    candidate_checkers = [
        [CoverageChecker(candidate) for _, candidate in rewrite_candidates(query)]
        for query in batch
    ]
    table = ExperimentTable(
        title=f"Figure 6 ({workload.name}): covered / bounded queries vs ‖A‖ fraction",
        columns=["fraction", "constraints", "covered_pct", "bounded_pct"],
    )
    for fraction in fractions:
        subset = (
            workload.access_schema
            if fraction >= 1.0
            else workload.access_schema.sample_fraction(fraction, seed=seed)
        )
        covered = sum(1 for checker in checkers if checker.is_covered(subset))
        bounded = sum(
            1
            for candidates in candidate_checkers
            if any(checker.is_covered(subset) for checker in candidates)
        )
        table.add_row(
            fraction=fraction,
            constraints=len(subset),
            covered_pct=100.0 * covered / len(batch),
            bounded_pct=100.0 * bounded / len(batch),
        )
    return table


# ---------------------------------------------------------------------------
# Figure 5(a,e,i) — varying |D|
# ---------------------------------------------------------------------------

def scale_experiment(
    workload: WorkloadSpec,
    *,
    base_scale: int | None = None,
    scale_factors: Sequence[float] = DEFAULT_SCALE_FACTORS,
    n_queries: int = 5,
    seed: int = 7,
    include_baseline: bool = True,
    include_unminimized: bool = True,
) -> ExperimentTable:
    """Reproduce Figure 5(a,e,i): evalQP / evalQP⁻ / evalDBMS time and P(D_Q) vs |D|."""
    base_scale = base_scale if base_scale is not None else workload.default_scale
    full_database = workload.database(scale=base_scale, seed=seed)
    queries = select_covered_queries(workload, n_queries, seed=seed, database=full_database)
    minimized = [
        minimize_access(query, workload.access_schema).selected for query in queries
    ]
    table = ExperimentTable(
        title=f"Figure 5 |D| sweep ({workload.name})",
        columns=[
            "scale", "db_tuples", "evalQP_s", "evalQPminus_s", "evalDBMS_s",
            "P_DQ", "P_DQ_minus",
        ],
    )
    for factor in scale_factors:
        database = full_database.scaled(factor, seed=seed) if factor < 1.0 else full_database
        indexes = IndexSet.build(database, workload.access_schema, check=False)
        qp_time = qp_access = 0.0
        qpm_time = qpm_access = 0.0
        dbms_time = 0.0
        for query, schema_min in zip(queries, minimized):
            elapsed, accessed = _run_bounded(query, schema_min, database, indexes)
            qp_time += elapsed
            qp_access += accessed
            if include_unminimized:
                elapsed, accessed = _run_bounded(
                    query, workload.access_schema, database, indexes
                )
                qpm_time += elapsed
                qpm_access += accessed
            if include_baseline:
                elapsed, _ = _run_baseline(query, workload.access_schema, database, indexes)
                dbms_time += elapsed
        denominator = max(1, database.size * len(queries))
        table.add_row(
            scale=factor,
            db_tuples=database.size,
            evalQP_s=qp_time / len(queries),
            evalQPminus_s=(qpm_time / len(queries)) if include_unminimized else float("nan"),
            evalDBMS_s=(dbms_time / len(queries)) if include_baseline else float("nan"),
            P_DQ=qp_access / denominator,
            P_DQ_minus=(qpm_access / denominator) if include_unminimized else float("nan"),
        )
    return table


# ---------------------------------------------------------------------------
# Figure 5(b,f,j) and (c,g,k) — varying #-sel and #-join
# ---------------------------------------------------------------------------

def _parameter_sweep(
    workload: WorkloadSpec,
    parameter: str,
    values: Sequence[int],
    *,
    seed: int,
    scale: int | None,
    queries_per_value: int,
    include_baseline: bool,
) -> ExperimentTable:
    scale = scale if scale is not None else workload.default_scale
    database = workload.database(scale=scale, seed=seed)
    indexes = IndexSet.build(database, workload.access_schema, check=False)
    generator = RandomQueryGenerator(workload, database=database, seed=seed)
    table = ExperimentTable(
        title=f"Figure 5 #-{parameter} sweep ({workload.name})",
        columns=[parameter, "queries", "evalQP_s", "evalDBMS_s", "P_DQ"],
    )
    for value in values:
        chosen: list[Query] = []
        attempts = 0
        while len(chosen) < queries_per_value and attempts < 300:
            attempts += 1
            kwargs = {"n_sel": 5, "n_join": 1, "n_unidiff": 0, parameter: value}
            query = generator.generate(**kwargs)
            if check_coverage(query, workload.access_schema).is_covered:
                chosen.append(query)
        if not chosen:
            table.add_row(**{parameter: value}, queries=0, evalQP_s=float("nan"),
                          evalDBMS_s=float("nan"), P_DQ=float("nan"))
            continue
        qp_time = qp_access = dbms_time = 0.0
        for query in chosen:
            elapsed, accessed = _run_bounded(query, workload.access_schema, database, indexes)
            qp_time += elapsed
            qp_access += accessed
            if include_baseline:
                elapsed, _ = _run_baseline(query, workload.access_schema, database, indexes)
                dbms_time += elapsed
        table.add_row(
            **{parameter: value},
            queries=len(chosen),
            evalQP_s=qp_time / len(chosen),
            evalDBMS_s=(dbms_time / len(chosen)) if include_baseline else float("nan"),
            P_DQ=qp_access / max(1, database.size * len(chosen)),
        )
    return table


def selection_experiment(
    workload: WorkloadSpec,
    *,
    values: Sequence[int] = (4, 5, 6, 7, 8, 9),
    seed: int = 13,
    scale: int | None = None,
    queries_per_value: int = 3,
    include_baseline: bool = True,
) -> ExperimentTable:
    """Reproduce Figure 5(b,f,j): vary the number of selection atoms ``#-sel``."""
    return _parameter_sweep(
        workload, "n_sel", values, seed=seed, scale=scale,
        queries_per_value=queries_per_value, include_baseline=include_baseline,
    )


def join_experiment(
    workload: WorkloadSpec,
    *,
    values: Sequence[int] = (0, 1, 2, 3, 4, 5),
    seed: int = 17,
    scale: int | None = None,
    queries_per_value: int = 3,
    include_baseline: bool = True,
) -> ExperimentTable:
    """Reproduce Figure 5(c,g,k): vary the number of joins ``#-join``."""
    return _parameter_sweep(
        workload, "n_join", values, seed=seed, scale=scale,
        queries_per_value=queries_per_value, include_baseline=include_baseline,
    )


def unidiff_experiment(
    workload: WorkloadSpec,
    *,
    values: Sequence[int] = (0, 1, 2, 3, 4, 5),
    seed: int = 19,
    scale: int | None = None,
    queries_per_value: int = 3,
) -> ExperimentTable:
    """Reproduce the #-unidiff observation: bounded plans are insensitive to set operators."""
    return _parameter_sweep(
        workload, "n_unidiff", values, seed=seed, scale=scale,
        queries_per_value=queries_per_value, include_baseline=False,
    )


# ---------------------------------------------------------------------------
# Figure 5(d,h,l) — varying ‖A‖
# ---------------------------------------------------------------------------

def constraints_experiment(
    workload: WorkloadSpec,
    *,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int = 23,
    scale: int | None = None,
    n_queries: int = 5,
) -> ExperimentTable:
    """Reproduce Figure 5(d,h,l): evalQP time and P(D_Q) vs the fraction of ``A`` used."""
    scale = scale if scale is not None else workload.default_scale
    database = workload.database(scale=scale, seed=seed)
    queries = select_covered_queries(workload, n_queries, seed=seed, database=database)
    table = ExperimentTable(
        title=f"Figure 5 ‖A‖ sweep ({workload.name})",
        columns=["fraction", "constraints", "covered_queries", "evalQP_s", "P_DQ"],
    )
    for fraction in fractions:
        subset = (
            workload.access_schema
            if fraction >= 1.0
            else workload.access_schema.sample_fraction(fraction, seed=seed)
        )
        indexes = IndexSet.build(database, subset, check=False)
        usable = [q for q in queries if check_coverage(q, subset).is_covered]
        if not usable:
            table.add_row(fraction=fraction, constraints=len(subset), covered_queries=0,
                          evalQP_s=float("nan"), P_DQ=float("nan"))
            continue
        qp_time = qp_access = 0.0
        for query in usable:
            elapsed, accessed = _run_bounded(query, subset, database, indexes)
            qp_time += elapsed
            qp_access += accessed
        table.add_row(
            fraction=fraction,
            constraints=len(subset),
            covered_queries=len(usable),
            evalQP_s=qp_time / len(usable),
            P_DQ=qp_access / max(1, database.size * len(usable)),
        )
    return table


# ---------------------------------------------------------------------------
# Exp-1(III) — effectiveness of minA
# ---------------------------------------------------------------------------

def mina_effect_experiment(
    workload: WorkloadSpec,
    *,
    seed: int = 29,
    scale: int | None = None,
    n_queries: int = 5,
    include_random_baseline: bool = True,
) -> ExperimentTable:
    """Reproduce Exp-1(III): data accessed and index footprint with vs. without minA.

    Also includes an ablation: a "random minimal subset" strategy that removes
    removable constraints in arbitrary order instead of by the weight
    ``w(φ)``, to show what the greedy weighting buys.
    """
    scale = scale if scale is not None else workload.default_scale
    database = workload.database(scale=scale, seed=seed)
    indexes = IndexSet.build(database, workload.access_schema, check=False)
    queries = select_covered_queries(workload, n_queries, seed=seed, database=database)
    table = ExperimentTable(
        title=f"Exp-1(III) minA effectiveness ({workload.name})",
        columns=[
            "strategy", "avg_constraints", "avg_cost", "P_DQ", "index_tuples",
        ],
    )

    def run(strategy: str, chooser: Callable[[Query], AccessSchema]) -> None:
        access_total = 0.0
        cost_total = 0
        constraints_total = 0
        index_tuples = 0
        for query in queries:
            subset = chooser(query)
            accessed = _run_bounded(query, subset, database, indexes)[1]
            access_total += accessed
            cost_total += sum(c.bound for c in subset)
            constraints_total += len(subset)
            index_tuples += sum(
                index.size for index in IndexSet.build(database, subset, check=False)
            )
        count = max(1, len(queries))
        table.add_row(
            strategy=strategy,
            avg_constraints=constraints_total / count,
            avg_cost=cost_total / count,
            P_DQ=access_total / max(1, database.size * count),
            index_tuples=index_tuples // count,
        )

    run("evalQP- (full A)", lambda q: workload.access_schema)
    run("evalQP (minA)", lambda q: minimize_access(q, workload.access_schema).selected)
    if include_random_baseline:
        run(
            "ablation: unweighted greedy",
            lambda q: minimize_access(q, workload.access_schema, c1=0.0, c2=1.0).selected,
        )
    return table


# ---------------------------------------------------------------------------
# Exp-1(IV) — index size and creation time
# ---------------------------------------------------------------------------

def index_size_experiment(
    workload: WorkloadSpec, *, seed: int = 31, scale: int | None = None
) -> ExperimentTable:
    """Reproduce Exp-1(IV): index footprint as a fraction of |D| and build time."""
    scale = scale if scale is not None else workload.default_scale
    database = workload.database(scale=scale, seed=seed)
    started = time.perf_counter()
    indexes = IndexSet.build(database, workload.access_schema, check=False)
    build_seconds = time.perf_counter() - started
    table = ExperimentTable(
        title=f"Exp-1(IV) index size ({workload.name})",
        columns=[
            "db_tuples", "db_cells", "index_tuples", "index_cells",
            "cell_fraction", "build_s", "constraints",
        ],
    )
    table.add_row(
        db_tuples=database.size,
        db_cells=database.cell_size,
        index_tuples=indexes.total_size,
        index_cells=indexes.total_cell_size,
        cell_fraction=indexes.total_cell_size / max(1, database.cell_size),
        build_s=build_seconds,
        constraints=len(workload.access_schema),
    )
    return table


# ---------------------------------------------------------------------------
# Exp-2 — efficiency of the analysis algorithms
# ---------------------------------------------------------------------------

def efficiency_experiment(
    workload: WorkloadSpec,
    *,
    n_queries: int = 20,
    seed: int = 37,
) -> ExperimentTable:
    """Reproduce Exp-2: wall-clock of ChkCov, QPlan, minA, minADAG and minAE."""
    generator = RandomQueryGenerator(workload, seed=seed)
    batch = [query for _, query in generator.generate_batch(n_queries)]
    covered = [
        query for query in batch
        if check_coverage(query, workload.access_schema).is_covered
    ]
    timings: dict[str, list[float]] = {
        "ChkCov": [], "QPlan": [], "minA": [], "minADAG": [], "minAE": [],
    }
    for query in batch:
        started = time.perf_counter()
        check_coverage(query, workload.access_schema)
        timings["ChkCov"].append(time.perf_counter() - started)
    for query in covered:
        coverage = check_coverage(query, workload.access_schema)
        started = time.perf_counter()
        generate_plan(coverage)
        timings["QPlan"].append(time.perf_counter() - started)
        started = time.perf_counter()
        minimize_access(query, workload.access_schema)
        timings["minA"].append(time.perf_counter() - started)
        started = time.perf_counter()
        minimize_access_acyclic(query, workload.access_schema)
        timings["minADAG"].append(time.perf_counter() - started)
        started = time.perf_counter()
        minimize_access_elementary(query, workload.access_schema)
        timings["minAE"].append(time.perf_counter() - started)
    table = ExperimentTable(
        title=f"Exp-2 algorithm efficiency ({workload.name})",
        columns=["algorithm", "runs", "avg_ms", "max_ms"],
    )
    for name, values in timings.items():
        if not values:
            table.add_row(algorithm=name, runs=0, avg_ms=float("nan"), max_ms=float("nan"))
            continue
        table.add_row(
            algorithm=name,
            runs=len(values),
            avg_ms=1000.0 * sum(values) / len(values),
            max_ms=1000.0 * max(values),
        )
    return table


# ---------------------------------------------------------------------------
# Proposition 12 — bounded incremental maintenance
# ---------------------------------------------------------------------------

def maintenance_experiment(
    workload: WorkloadSpec,
    *,
    scales: Sequence[int] = (50, 100, 200, 400),
    delta_size: int = 50,
    seed: int = 41,
) -> ExperimentTable:
    """Show that maintaining ⟨A, I_A⟩ under ΔD costs the same at every |D|."""
    table = ExperimentTable(
        title=f"Proposition 12 maintenance ({workload.name})",
        columns=["scale", "db_tuples", "delta", "maintain_s", "work_units"],
    )
    # Use the same relation and the same ΔD at every scale so the runs are
    # directly comparable; the donor instance is generated at a fixed scale.
    reference = workload.database(scale=scales[0], seed=seed)
    relation_name = max(reference.relation_names(), key=lambda n: len(reference.relation(n)))
    donor = workload.database(scale=max(scales), seed=seed + 1)
    donor_rows = [row for row in donor.relation(relation_name)][:delta_size]
    for scale in scales:
        database = workload.database(scale=scale, seed=seed)
        indexes = IndexSet.build(database, workload.access_schema, check=False)
        updates = [Update.insert(relation_name, row) for row in donor_rows]
        started = time.perf_counter()
        report = apply_updates(database, indexes, workload.access_schema, updates)
        elapsed = time.perf_counter() - started
        table.add_row(
            scale=scale,
            db_tuples=database.size,
            delta=len(updates),
            maintain_s=elapsed,
            work_units=report.work_units,
        )
    return table
