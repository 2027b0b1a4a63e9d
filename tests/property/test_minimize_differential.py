"""Differential tests of access minimization against an independent implementation.

The production path answers every candidate subset from the query-scoped
tables of :class:`~repro.core.coverage.CoverageChecker` and only searches the
constraints on the query's relations.  The oracle below is the straightforward
reading of Sections 4 and 6: rebuild the access schema for every candidate,
actualize it, induce the FDs, close them with :class:`~repro.core.fd.FDSet`,
and run the greedy ``minA`` over *all* of ``A``.  It shares no table with the
production path, so any disagreement is a bug in one of the two (the style of
validation of Raszyk et al., "Efficient Evaluation of Arbitrary Relational
Calculus Queries").
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.access import AccessConstraint, AccessSchema
from repro.core.coverage import CoverageChecker, check_coverage
from repro.core.engine import prepare_query
from repro.core.minimize import minimize_access, minimize_access_exact
from repro.core.normalize import normalize
from repro.core.query import Relation, eq
from repro.core.schema import Attribute
from repro.core.spc import SPCAnalysis, is_normal_form, max_spc_subqueries
from repro.workloads import WORKLOADS, RandomQueryGenerator, facebook

# the layered benchmark's packages live beside ``benchmarks/conftest.py``
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from layered.queries import ShapeCatalog, WitnessQueryGenerator  # noqa: E402
from layered.workloads import DATA_SEED, HOT_POINT, HOT_WIDE, SCALE  # noqa: E402


# ---------------------------------------------------------------------------
# The oracle: CovChk and minA with nothing shared with the production tables
# ---------------------------------------------------------------------------

def oracle_check(query, access_schema: AccessSchema) -> list[dict]:
    """``CovChk`` per max SPC sub-query, from the definitions."""
    normalized = normalize(query)
    actualized = access_schema.actualize(normalized.occurrences)
    verdict = []
    for subquery in max_spc_subqueries(normalized.query):
        analysis = SPCAnalysis(subquery)
        tokens = analysis.induced_fds(actualized).closure(analysis.unified_constant)
        unindexed, choices = [], {}
        for relation in analysis.relations:
            span = {a.name for a in analysis.relation_needed_attributes(relation)}
            best = None
            for constraint in actualized.for_relation(relation.name):
                lhs = analysis.unify_all(Attribute(relation.name, a) for a in constraint.lhs)
                if lhs <= tokens and span <= constraint.attributes():
                    if best is None or constraint.bound < best.bound:
                        best = constraint
            if best is None:
                unindexed.append(relation.name)
            else:
                choices[relation.name] = best
        verdict.append(
            {
                "covered_tokens": tokens,
                "fetchable": analysis.unified_needed <= tokens,
                "unindexed_relations": tuple(unindexed),
                "index_choices": choices,
            }
        )
    return [{"normal_form": is_normal_form(normalized.query)}, *verdict]


def oracle_is_covered(verdict: list[dict]) -> bool:
    return verdict[0]["normal_form"] and all(
        sub["fetchable"] and not sub["unindexed_relations"] for sub in verdict[1:]
    )


def oracle_tokens(verdict: list[dict]) -> frozenset[str]:
    return frozenset().union(*(sub["covered_tokens"] for sub in verdict[1:]))


def oracle_min_a(query, access_schema: AccessSchema, c1: float, c2: float):
    """Greedy ``minA`` over every constraint of ``A``: ``(selected, cost, iterations)``."""
    selected = list(access_schema)
    iterations = 0
    while True:
        iterations += 1
        current = oracle_tokens(oracle_check(query, AccessSchema(selected)))
        best, best_weight = None, float("-inf")
        for constraint in selected:
            reduced = oracle_check(
                query, AccessSchema(c for c in selected if c != constraint)
            )
            if not oracle_is_covered(reduced):
                continue
            lost = len(current - oracle_tokens(reduced))
            weight = (c1 * constraint.bound) / (c2 * (lost + 1))
            if weight > best_weight:
                best, best_weight = constraint, weight
        if best is None:
            return selected, sum(c.bound for c in selected), iterations
        selected.remove(best)


def assert_same_verdict(verdict, oracle: list[dict]) -> None:
    assert len(verdict) == len(oracle) - 1
    for sub, expected in zip(verdict, oracle[1:]):
        assert sub.covered_tokens == expected["covered_tokens"]
        assert sub.fetchable == expected["fetchable"]
        assert sub.unindexed_relations == expected["unindexed_relations"]
        assert dict(sub.index_choices) == expected["index_choices"]


# ---------------------------------------------------------------------------
# Generated queries × random sub-schemas × (c1, c2)
# ---------------------------------------------------------------------------

_GENERATORS: dict[tuple[str, int], RandomQueryGenerator] = {}


def generated_query(workload: str, seed: int, n_sel: int, n_join: int, n_unidiff: int):
    """A query whose occurrences are all renamed; chains revisit a base, so self-joins occur."""
    generator = _GENERATORS.get((workload, seed))
    if generator is None:
        generator = _GENERATORS[workload, seed] = RandomQueryGenerator(
            WORKLOADS[workload], seed=seed, sample_scale=30
        )
    return generator.generate(n_sel=n_sel, n_join=n_join, n_unidiff=n_unidiff)


queries = st.tuples(
    st.sampled_from(sorted(WORKLOADS)),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
sub_schemas = st.tuples(st.sampled_from([0.5, 0.7, 0.85, 1.0]), st.integers(0, 50))
coefficients = st.sampled_from([(1.0, 1.0), (0.0, 1.0), (2.0, 0.5), (1.0, 1000.0)])
relaxed = settings(
    max_examples=60, deadline=None, suppress_health_check=list(HealthCheck)
)


class TestAgainstOracle:
    @given(queries, sub_schemas, st.integers(0, 1000))
    @relaxed
    def test_kernel_equals_covchk_of_the_restricted_schema(self, parameters, schema, pick):
        query = generated_query(*parameters)
        access_schema = WORKLOADS[parameters[0]].access_schema.sample_fraction(*schema)
        rng = random.Random(pick)
        subset = [c for c in access_schema if rng.random() < 0.7]
        restricted = access_schema.restrict(subset)
        oracle = oracle_check(query, restricted)

        checker = CoverageChecker(query)
        checker.evaluate(access_schema)  # tables filled by a different set first
        assert_same_verdict(checker.evaluate(subset), oracle)
        assert checker.is_covered(subset) == oracle_is_covered(oracle)

        full = check_coverage(query, restricted)
        assert_same_verdict(full.subqueries, oracle)
        assert full.is_covered == oracle_is_covered(oracle)
        assert list(full.actualized) == list(
            restricted.actualize(normalize(query).occurrences)
        )

    @given(queries, sub_schemas, coefficients)
    @relaxed
    def test_min_a_equals_the_unpruned_greedy(self, parameters, schema, weights):
        query = generated_query(*parameters)
        access_schema = WORKLOADS[parameters[0]].access_schema.sample_fraction(*schema)
        assume(oracle_is_covered(oracle_check(query, access_schema)))
        c1, c2 = weights
        selected, cost, iterations = oracle_min_a(query, access_schema, c1, c2)
        result = minimize_access(query, access_schema, c1=c1, c2=c2)
        assert list(result.selected) == selected
        assert result.cost == cost
        assert result.iterations == iterations


# ---------------------------------------------------------------------------
# Hand-built shapes the generator does not reach
# ---------------------------------------------------------------------------

def friends_of_friends():
    """A two-hop self-join of ``friend``, and a one-hop query that reuses its occurrence name."""
    schema = facebook.schema()
    first = Relation.from_schema(schema, "friend")
    second = Relation("f2", schema["friend"].attributes, base="friend")
    plain = Relation.from_schema(schema, "friend")
    two_hops = (
        first.join(second, eq(first["fid"], second["pid"]))
        .select(eq(first["pid"], "p0"))
        .project([second["fid"]])
    )
    one_hop = plain.select(eq(plain["pid"], "p1")).project([plain["fid"]])
    return two_hops, one_hop


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.0, 1.0)])
def test_self_join_union_and_difference(weights):
    two_hops, one_hop = friends_of_friends()
    access_schema = facebook.access_schema()
    access_schema.add(AccessConstraint.of("friend", "pid", ["pid", "fid"], 6000, name="wide"))
    assert normalize(two_hops.union(one_hop)).renamed  # the colliding occurrence is renamed apart
    for query in (two_hops, two_hops.union(one_hop), two_hops.difference(one_hop)):
        selected, cost, iterations = oracle_min_a(query, access_schema, *weights)
        result = minimize_access(query, access_schema, c1=weights[0], c2=weights[1])
        assert (list(result.selected), result.cost, result.iterations) == (
            selected, cost, iterations
        )
        exact = minimize_access_exact(query, access_schema)
        assert exact.cost <= result.cost
        assert oracle_is_covered(oracle_check(query, exact.selected))


# ---------------------------------------------------------------------------
# Work budget: a count, not a timing
# ---------------------------------------------------------------------------

def test_coverage_checks_on_the_benchmark_hot_set():
    """Preparing the layered benchmark's 64 TFACC queries stays within 2 700 checks.

    The unpruned greedy ran 41 447 full ``CovChk`` passes on this set; pruning
    to the query's relations alone predicts 2 604.
    """
    spec = WORKLOADS["TFACC"]
    generator = WitnessQueryGenerator(
        ShapeCatalog(spec), spec.database(SCALE, DATA_SEED), seed=7
    )
    hot_set = generator.tagged(HOT_POINT, HOT_WIDE)
    assert len(hot_set) == HOT_POINT + HOT_WIDE
    checks = 0
    for bench in hot_set:
        prepared = prepare_query(bench.query, spec.access_schema)
        assert prepared.covered
        checks += prepared.minimization.details["coverage_checks"]
    assert 0 < checks <= 2700
