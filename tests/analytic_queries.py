"""Hand-authored analytic queries over the bundled workloads: test data.

The random generator of :mod:`repro.bench.experiments` produces *point*
queries: every relation occurrence is pinned by constant selections, the
covered plans fetch a handful of tuples, and the conjunction is almost always
contradictory — the answer is empty, and comparing two empty answers compares
nothing.

The queries below are covered, bounded queries too, but they traverse the
high-fan-out access constraints (districts → accidents, airports → flights →
planes, …): their plans carry access bounds from the thousands to the hundreds
of thousands, and on generated data of :data:`ANALYTIC_SCALE` or more every one
of them has rows.  Tests that
need a bundled workload with an answer take them as input and assert the
answers non-empty, so a generator change cannot make them vacuous unnoticed.
"""

from __future__ import annotations

from repro.core.query import Comparison, Constant, Query, eq, relation
from repro.core.schema import DatabaseSchema
from repro.workloads.base import WorkloadSpec

#: the smallest scale (at seed 7) at which all five answers are non-empty:
#: below it TFACC's ``east`` region has no district
ANALYTIC_SCALE = 80


def _airca(schema: DatabaseSchema) -> list[Query]:
    airports = relation(schema, "airports")
    flights = relation(schema, "flights")
    carriers = relation(schema, "carriers")
    planes = relation(schema, "planes")
    # Aircraft models operated out of one state's airports: airports(state)
    # -> flights(origin -> airline_id) -> planes(airline_id -> tail_num),
    # filtered on build year.  Bound ≈ 40 airports × 28 airlines × 60 tails.
    fleet = (
        airports.join(flights, eq(airports["airport_id"], flights["origin"]))
        .join(planes, eq(flights["airline_id"], planes["airline_id"]))
        .select(eq(airports["state"], "AK"))
        .select(Comparison(planes["year_built"], ">=", Constant(1990)))
        .project([planes["model"], planes["year_built"]])
    )
    # Carriers serving one state, with their country: the same origin chain
    # ending at the carriers dimension.
    serving = (
        airports.join(flights, eq(airports["airport_id"], flights["origin"]))
        .join(carriers, eq(flights["airline_id"], carriers["airline_id"]))
        .select(eq(airports["state"], "AK"))
        .project([carriers["carrier_name"], carriers["country"]])
    )
    return [fleet, serving]


def _mcbm(schema: DatabaseSchema) -> list[Query]:
    cells = relation(schema, "cells")
    # Cell capacity audit for one region: cells(region -> cell_id) then the
    # per-cell detail fetch.  MCBM's access schema keys all its large
    # relations on subscriber/caller ids that no constraint fans out to, so
    # this is the largest covered scan the schema admits (a row-kernel plan).
    capacity = (
        cells.select(eq(cells["region"], "region_1"))
        .select(Comparison(cells["capacity_class"], ">=", Constant(2)))
        .project([cells["cell_id"], cells["capacity_class"]])
    )
    return [capacity]


def _tfacc(schema: DatabaseSchema) -> list[Query]:
    districts = relation(schema, "districts")
    accidents = relation(schema, "accidents")
    roads = relation(schema, "roads")
    # Severe accidents of one region: districts(region -> district) crossed
    # with the year domain feeds accidents((district, year) -> accident_id),
    # then the per-accident detail fetch and a non-fetchable casualty filter.
    severe = (
        districts.join(accidents, eq(districts["district"], accidents["district"]))
        .select(eq(districts["region"], "east"))
        .select(eq(accidents["year"], 2003))
        .select(Comparison(accidents["num_casualties"], ">=", Constant(2)))
        .project(
            [
                accidents["accident_id"],
                accidents["severity"],
                accidents["num_casualties"],
            ]
        )
    )
    # Fast roads of one region: districts(region) -> roads(district ->
    # road_id) -> road details, filtered on speed limit.
    fast_roads = (
        districts.join(roads, eq(districts["district"], roads["district"]))
        .select(eq(districts["region"], "east"))
        .select(Comparison(roads["speed_limit"], ">=", Constant(40)))
        .project([roads["road_id"], roads["road_class"], roads["speed_limit"]])
    )
    return [severe, fast_roads]


_BUILDERS = {
    "AIRCA": _airca,
    "MCBM": _mcbm,
    "TFACC": _tfacc,
}


def analytic_queries(workload: WorkloadSpec) -> list[Query]:
    """The analytic (execution-heavy) covered queries of one bundled workload."""
    return _BUILDERS[workload.name](DatabaseSchema(workload.schema))
