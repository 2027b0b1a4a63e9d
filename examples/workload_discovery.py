"""Discovering access constraints from data and keeping them maintained.

The framework of Section 7 starts from component C1: *discover* an access
schema from (samples of) the data, build its indexes, and maintain them under
updates with cost independent of |D| (Proposition 12).  This example runs
that loop on the TFACC (UK traffic accidents) workload:

1. mine constraints from a sample,
2. check which analyst queries they cover,
3. apply a batch of updates and watch the indexes stay consistent,
4. show a write that would outgrow a mined constraint being rejected, so
   every covered query keeps the bound it was planned with.

Run with:  python examples/workload_discovery.py
"""

from repro.core.coverage import check_coverage
from repro.core.engine import BoundedEngine
from repro.core.errors import ConstraintViolation
from repro.discovery import (
    DiscoveryConfig,
    Update,
    apply_updates,
    discover_access_schema,
)
from repro.evaluator.algebra import evaluate
from repro.sqlparser import parse_sql
from repro.storage.index import IndexSet
from repro.workloads import tfacc


def analyst_queries(sample) -> dict[str, str]:
    """Analyst SQL parameterized with values that actually occur in the sample."""
    accident = sample.relation("accidents").rows[0]
    accident_id, acc_date, _, police_force = accident[0], accident[1], accident[2], accident[3]
    return {
        "accidents handled by one force on a day": f"""
            SELECT a.accident_id, a.severity
            FROM accidents a
            WHERE a.police_force = '{police_force}' AND a.acc_date = '{acc_date}'
        """,
        "vehicles involved in one accident": f"""
            SELECT v.vehicle_id, v.vehicle_type
            FROM accidents a JOIN vehicles v ON a.accident_id = v.accident_id
            WHERE a.accident_id = '{accident_id}'
        """,
        "stops in the district of one accident": f"""
            SELECT s.stop_id, s.stop_type
            FROM accidents a JOIN stops s ON a.district = s.district
            WHERE a.accident_id = '{accident_id}'
        """,
    }


def main() -> None:
    schema = tfacc.schema()
    print("generating a TFACC sample and mining access constraints ...")
    sample = tfacc.generate(scale=150, seed=3)
    mined = discover_access_schema(
        sample, DiscoveryConfig(max_lhs_size=2, max_bound=500, domain_threshold=40)
    )
    print(f"mined {len(mined)} constraints from a sample of {sample.size} tuples; e.g.:")
    for constraint in list(mined)[:6]:
        print("   ", constraint)

    # How do the mined constraints compare to the hand-curated schema?
    curated = tfacc.access_schema()
    print(f"\ncurated schema has {len(curated)} constraints "
          f"(incl. the paper's (date, police_force) -> accident_id, 304)")

    # Which analyst queries are covered under each schema?
    queries = analyst_queries(sample)
    print("\ncoverage of analyst queries:")
    for title, sql in queries.items():
        query = parse_sql(sql, schema)
        mined_cov = check_coverage(query, mined).is_covered
        curated_cov = check_coverage(query, curated).is_covered
        print(f"   {title:45s} mined: {mined_cov!s:5}  curated: {curated_cov!s:5}")

    # Run one covered query boundedly under the mined constraints.
    engine = BoundedEngine(sample, mined)
    query = parse_sql(queries["accidents handled by one force on a day"], schema)
    result = engine.execute(query)
    assert result.rows == evaluate(query, sample).rows
    print(f"\nbounded run under mined constraints: {result.counter.total} tuples accessed "
          f"of {sample.size} (strategy: {result.strategy})")

    # Incremental maintenance (Proposition 12): apply a day's worth of updates.
    indexes = IndexSet.build(sample, curated, check=False)
    donor = tfacc.generate(scale=150, seed=99)
    updates = [
        Update.insert("accidents", row) for row in list(donor.relation("accidents"))[:40]
    ]
    report = apply_updates(sample, indexes, curated, updates)
    print(f"\napplied {report.applied} updates; maintenance work units: {report.work_units} "
          "(depends only on A and |ΔD|, not on |D|)")

    # A burst that would outgrow a mined bound is refused, and nothing of it stays.
    tight = discover_access_schema(
        sample, DiscoveryConfig(max_lhs_size=1, max_bound=500, domain_threshold=5)
    )
    guarded = BoundedEngine(sample, tight)
    burst = [
        Update.insert("vehicles", (f"Vburst{i}", "A0000010", "car", 3)) for i in range(25)
    ]
    vehicles = len(sample.relation("vehicles"))
    try:
        guarded.apply_updates(burst)
    except ConstraintViolation as rejected:
        print(f"\nburst rejected: {rejected}")
    assert len(sample.relation("vehicles")) == vehicles and sample.satisfies_schema(tight)
    print(f"the sample still satisfies all {len(tight)} mined constraints")

if __name__ == "__main__":
    main()
