"""Unit tests for directed hypergraphs and the ⟨Q,A⟩-hypergraph (Section 5.2)."""

import pytest

from repro.core.coverage import check_coverage
from repro.core.errors import PlanError
from repro.core.hypergraph import (
    DirectedHypergraph,
    Hyperedge,
    ROOT,
    build_qa_hypergraph,
)
from repro.core.normalize import normalize
from repro.core.schema import Attribute
from repro.workloads import facebook


def edge(head, tail, weight=0):
    return Hyperedge(head=frozenset(head), tail=tail, weight=weight)


def reach(hypergraph, attribute):
    """``findHP`` from ``r`` to the node of ``attribute`` (Lemma 7's witness)."""
    return hypergraph.graph.find_hyperpath({ROOT}, hypergraph.node_for(attribute))


@pytest.fixture
def diamond() -> DirectedHypergraph:
    """r -> a, r -> b, {a, b} -> c, c -> d."""
    graph = DirectedHypergraph()
    graph.add_edge(edge({"r"}, "a", 1))
    graph.add_edge(edge({"r"}, "b", 2))
    graph.add_edge(edge({"a", "b"}, "c", 5))
    graph.add_edge(edge({"c"}, "d", 0))
    return graph


class TestHyperedge:
    def test_rejects_empty_head(self):
        with pytest.raises(PlanError):
            Hyperedge(head=frozenset(), tail="x")

    def test_rejects_tail_in_head(self):
        with pytest.raises(PlanError):
            Hyperedge(head=frozenset({"x"}), tail="x")

    def test_size(self):
        assert edge({"a", "b"}, "c").size == 2

    def test_renders_its_sorted_head_then_its_tail(self):
        assert str(edge({"b", "a"}, "c")) == "{a, b} → c"

    def test_a_graph_knows_every_node_an_edge_names(self, diamond):
        assert diamond.nodes == {"r", "a", "b", "c", "d"}


class TestReachabilityAndHyperpaths:
    def test_reachable(self, diamond):
        assert diamond.reachable({"r"}) == frozenset({"r", "a", "b", "c", "d"})
        assert diamond.reachable({"a"}) == frozenset({"a"})
        assert diamond.reachable({"a", "b"}) == frozenset({"a", "b", "c", "d"})

    def test_hyperedge_needs_whole_head(self):
        graph = DirectedHypergraph()
        graph.add_edge(edge({"a", "b"}, "c"))
        assert "c" not in graph.reachable({"a"})
        assert "c" in graph.reachable({"a", "b"})

    def test_find_hyperpath_orders_edges(self, diamond):
        path = diamond.find_hyperpath({"r"}, "d")
        assert path is not None
        derived = set(path.source)
        for hyperedge in path.edges:
            assert hyperedge.head <= derived
            derived.add(hyperedge.tail)
        assert path.target == "d"
        assert path.edges[-1].tail == "d"

    def test_find_hyperpath_to_source_is_empty(self, diamond):
        path = diamond.find_hyperpath({"r"}, "r")
        assert path is not None and path.edges == ()

    def test_find_hyperpath_unreachable(self, diamond):
        assert diamond.find_hyperpath({"a"}, "b") is None

    def test_hyperpath_nodes_and_weight(self, diamond):
        path = diamond.find_hyperpath({"r"}, "c")
        assert path.weight == 1 + 2 + 5
        assert {"r", "a", "b", "c"} <= path.nodes()

    def test_shortest_hyperpath_prefers_cheap_route(self):
        graph = DirectedHypergraph()
        graph.add_edge(edge({"r"}, "a", 100))
        graph.add_edge(edge({"r"}, "b", 1))
        graph.add_edge(edge({"a"}, "t", 0))
        graph.add_edge(edge({"b"}, "t", 0))
        path = graph.shortest_hyperpath({"r"}, "t")
        assert path is not None
        assert path.weight == 1

    def test_shortest_hyperpaths_distances(self, diamond):
        dist, _ = diamond.shortest_hyperpaths({"r"})
        assert dist["a"] == 1
        assert dist["b"] == 2
        assert dist["c"] == 8  # 5 + dist(a) + dist(b)
        assert dist["d"] == 8

    def test_derivations_map(self, diamond):
        derivations = diamond.derivations({"r"})
        assert derivations["r"] is None
        assert derivations["c"].tail == "c"

    def test_size_and_len(self, diamond):
        assert len(diamond) == 5
        assert diamond.size == 5  # 1 + 1 + 2 + 1


class TestAcyclicity:
    def test_acyclic_graph(self, diamond):
        assert diamond.is_acyclic()

    def test_cycle_detected(self):
        graph = DirectedHypergraph()
        graph.add_edge(edge({"a"}, "b"))
        graph.add_edge(edge({"b"}, "a"))
        assert not graph.is_acyclic()

    def test_to_simple_graph(self, diamond):
        simple = diamond.to_simple_graph()
        assert simple["a"] == {"c"}
        assert simple["b"] == {"c"}
        assert simple["c"] == {"d"}


class TestQAHypergraph:
    def test_q0_prime_hypergraph_reaches_all_needed(self, fb_q0_prime, fb_access):
        """Lemma 7 / Example 7: every attribute of X_Q is reachable from r."""
        coverage = check_coverage(fb_q0_prime, fb_access)
        hypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            coverage.actualized,
            analyses=[s.analysis for s in coverage.subqueries],
        )
        for sub in coverage.subqueries:
            for attribute in sub.analysis.needed_attributes:
                assert reach(hypergraph, attribute) is not None

    def test_uncovered_attribute_unreachable(self, fb_q2, fb_access):
        coverage = check_coverage(fb_q2, fb_access)
        hypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            coverage.actualized,
            analyses=[s.analysis for s in coverage.subqueries],
        )
        analysis = coverage.subqueries[0].analysis
        cid = next(a for a in analysis.needed_attributes if a.name == "cid")
        assert reach(hypergraph, cid) is None

    def test_weighted_hypergraph_edge_weights(self, fb_q1, fb_access):
        coverage = check_coverage(fb_q1, fb_access)
        hypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            coverage.actualized,
            weighted=True,
            analyses=[s.analysis for s in coverage.subqueries],
        )
        weights = {e.weight for e in hypergraph.graph.edges if e.constraint is not None}
        assert 5000 in weights  # ψ1
        assert 31 in weights  # ψ2

    def test_example1_hypergraph_is_acyclic(self, fb_q0_prime, fb_access):
        """Section 6.1 notes that (Q0', A0) is an acyclic case."""
        coverage = check_coverage(fb_q0_prime, fb_access)
        hypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            coverage.actualized,
            analyses=[s.analysis for s in coverage.subqueries],
        )
        assert hypergraph.is_acyclic()

    def test_analysis_for_unknown_relation_raises(self, fb_q1, fb_access):
        coverage = check_coverage(fb_q1, fb_access)
        hypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            coverage.actualized,
            analyses=[s.analysis for s in coverage.subqueries],
        )
        with pytest.raises(PlanError):
            hypergraph.analysis_for_relation("nonexistent")
        with pytest.raises(PlanError):
            hypergraph.node_for(Attribute("nonexistent", "x"))

    def test_constant_edges_from_root(self, fb_q1, fb_access):
        coverage = check_coverage(fb_q1, fb_access)
        hypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            coverage.actualized,
            analyses=[s.analysis for s in coverage.subqueries],
        )
        constant_edges = [
            e for e in hypergraph.graph.edges if e.head == frozenset({ROOT}) and e.constraint is None
        ]
        assert constant_edges  # p0, may, 2015, nyc
        assert {e.constant for e in constant_edges} >= {"p0", "may", 2015, "nyc"}
