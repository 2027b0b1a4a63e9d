"""Directed hypergraphs and the ⟨Q,A⟩-hypergraph (Section 5.2, Appendix A).

Algorithm ``QPlan`` encodes the induced FDs of a query and an access schema
as a directed hypergraph ``G_{Q,A}``: there is a hyperpath from the dummy
source ``r`` to the node of an attribute ``A`` iff ``A`` has a unit fetching
plan (Lemma 7), and the hyperpath itself encodes that plan.

The weighted variant (each FD-edge carries the constraint's bound ``N``) is
used by the access-minimization heuristics ``minADAG`` and ``minAE``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .access import AccessConstraint, AccessSchema
from .errors import PlanError
from .query import Query, Relation
from .schema import Attribute
from .spc import SPCAnalysis, max_spc_subqueries

Node = Hashable

#: The dummy source node ``r`` of every ⟨Q,A⟩-hypergraph.
ROOT: str = "⟨r⟩"


@dataclass(frozen=True)
class Hyperedge:
    """A directed hyperedge ``(head, tail)`` with ``head ⊆ V`` and ``tail ∈ V``.

    ``weight`` is used by the weighted ⟨Q,A⟩-hypergraph; ``constraint`` links
    FD-edges back to the access constraint that induced them; ``constant``
    carries the literal for edges from ``r`` to a constant attribute.
    """

    head: frozenset[Node]
    tail: Node
    weight: int = 0
    constraint: AccessConstraint | None = None
    constant: object | None = None

    def __post_init__(self) -> None:
        if not self.head:
            raise PlanError("hyperedge head must be non-empty")
        if self.tail in self.head:
            raise PlanError(f"hyperedge tail {self.tail!r} may not appear in its head")

    @property
    def size(self) -> int:
        return len(self.head)

    def __str__(self) -> str:
        head = "{" + ", ".join(sorted(map(str, self.head))) + "}"
        return f"{head} → {self.tail}"


@dataclass
class Hyperpath:
    """A hyperpath: an ordered sequence of hyperedges deriving ``target`` from ``source``.

    The ordering satisfies the paper's condition (a): the head of each edge is
    contained in the source plus the tails of earlier edges.
    """

    source: frozenset[Node]
    target: Node
    edges: tuple[Hyperedge, ...]

    @property
    def weight(self) -> int:
        return sum(edge.weight for edge in self.edges)

    def nodes(self) -> frozenset[Node]:
        """Every node the path touches: sources, tails, and heads."""
        covered: set[Node] = set(self.source)
        for edge in self.edges:
            covered.add(edge.tail)
            covered |= edge.head
        return frozenset(covered)

    def constraints(self) -> tuple[AccessConstraint, ...]:
        """The access constraints used along the path (deduplicated, in order)."""
        seen: list[AccessConstraint] = []
        for edge in self.edges:
            if edge.constraint is not None and edge.constraint not in seen:
                seen.append(edge.constraint)
        return tuple(seen)


class DirectedHypergraph:
    """A directed hypergraph with forward-chaining reachability and hyperpaths."""

    def __init__(self) -> None:
        self._nodes: set[Node] = set()
        self._edges: list[Hyperedge] = []
        self._edges_by_head_member: dict[Node, list[int]] = {}

    # -- construction -----------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Register a node (edges register their endpoints automatically)."""
        self._nodes.add(node)

    def add_edge(self, edge: Hyperedge) -> None:
        """Add a hyperedge, registering its tail and head nodes."""
        self._nodes.add(edge.tail)
        self._nodes.update(edge.head)
        index = len(self._edges)
        self._edges.append(edge)
        for node in edge.head:
            self._edges_by_head_member.setdefault(node, []).append(index)

    # -- protocol -----------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(self._nodes)

    @property
    def edges(self) -> tuple[Hyperedge, ...]:
        return tuple(self._edges)

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def size(self) -> int:
        """``|H|`` — the sum of head cardinalities over all hyperedges."""
        return sum(edge.size for edge in self._edges)

    # -- reachability and hyperpaths ------------------------------------------------
    def reachable(self, source: Iterable[Node]) -> frozenset[Node]:
        """All nodes reachable from ``source`` by forward chaining."""
        derivations = self._forward_chain(frozenset(source))
        return frozenset(derivations)

    def _forward_chain(self, source: frozenset[Node]) -> dict[Node, Hyperedge | None]:
        """Map each reachable node to the edge that first derived it (None for sources).

        Linear in the size of the hypergraph: each edge keeps a counter of head
        nodes not yet reached, mirroring the FD-closure counting algorithm.
        """
        derived: dict[Node, Hyperedge | None] = {node: None for node in source}
        # Counters start at the full head size; every head node that becomes
        # derivable is drained exactly once through the queue (heads are
        # non-empty, so no edge fires before the loop).
        counters = [len(edge.head) for edge in self._edges]
        queue: list[Node] = list(source)
        while queue:
            node = queue.pop()
            for index in self._edges_by_head_member.get(node, ()):
                counters[index] -= 1
                if counters[index] == 0:
                    edge = self._edges[index]
                    if edge.tail not in derived:
                        derived[edge.tail] = edge
                        queue.append(edge.tail)
        return derived

    def derivations(self, source: Iterable[Node]) -> dict[Node, Hyperedge | None]:
        """For each reachable node, the hyperedge that first derived it (None for sources)."""
        return self._forward_chain(frozenset(source))

    def find_hyperpath(self, source: Iterable[Node], target: Node) -> Hyperpath | None:
        """``findHP``: a hyperpath from ``source`` to ``target``, or ``None``.

        Uses forward chaining to record a derivation edge per node, then walks
        the derivation of ``target`` backwards, emitting each used edge once.
        The result contains no redundant edges (every edge derives a node that
        is needed, directly or transitively, for ``target``).
        """
        source_set = frozenset(source)
        derivations = self._forward_chain(source_set)
        if target not in derivations:
            return None
        if target in source_set:
            return Hyperpath(source_set, target, ())

        ordered: list[Hyperedge] = []
        emitted: set[Node] = set()

        def emit(node: Node) -> None:
            if node in source_set or node in emitted:
                return
            edge = derivations.get(node)
            if edge is None:
                raise PlanError(f"node {node!r} has no derivation")  # pragma: no cover
            for head_node in edge.head:
                emit(head_node)
            emitted.add(node)
            ordered.append(edge)

        emit(target)
        return Hyperpath(source_set, target, tuple(ordered))

    def shortest_hyperpaths(
        self, source: Iterable[Node]
    ) -> tuple[dict[Node, int], dict[Node, Hyperedge]]:
        """Shortest B-hyperpath distances from ``source`` (additive cost model).

        The cost of deriving a node via edge ``e`` is ``weight(e)`` plus the
        sum of the costs of the nodes in ``head(e)``; source nodes cost 0.
        Returns the distance map and, for each reached non-source node, the
        edge used in its cheapest derivation.  This is the classical SBT
        (shortest B-tree) procedure for directed hypergraphs.
        """
        source_set = frozenset(source)
        dist: dict[Node, int] = {node: 0 for node in source_set}
        best_edge: dict[Node, Hyperedge] = {}
        remaining = [len(edge.head) for edge in self._edges]
        head_cost = [0 for _ in self._edges]
        heap: list[tuple[int, int, Node]] = []
        counter = itertools.count()
        for node in source_set:
            heapq.heappush(heap, (0, next(counter), node))
        settled: set[Node] = set()

        while heap:
            cost, _, node = heapq.heappop(heap)
            if node in settled or cost > dist.get(node, float("inf")):
                continue
            settled.add(node)
            for index in self._edges_by_head_member.get(node, ()):
                remaining[index] -= 1
                head_cost[index] += cost
                if remaining[index] == 0:
                    edge = self._edges[index]
                    candidate = edge.weight + head_cost[index]
                    if candidate < dist.get(edge.tail, float("inf")):
                        dist[edge.tail] = candidate
                        best_edge[edge.tail] = edge
                        heapq.heappush(heap, (candidate, next(counter), edge.tail))
        return dist, best_edge

    def shortest_hyperpath(self, source: Iterable[Node], target: Node) -> Hyperpath | None:
        """A cheapest-found hyperpath from ``source`` to ``target``.

        Minimum-weight B-hyperpaths are NP-hard in general; the SBT model is
        a heuristic whose additive node costs can double-charge an edge that
        derives several needed nodes at once.  The extracted SBT path is
        therefore clamped against the plain forward-chaining path of
        :meth:`find_hyperpath`: the lighter of the two is returned, so the
        result is never worse than the unweighted baseline.
        """
        source_set = frozenset(source)
        dist, best_edge = self.shortest_hyperpaths(source_set)
        if target not in dist:
            return None
        if target in source_set:
            return Hyperpath(source_set, target, ())
        ordered: list[Hyperedge] = []
        emitted: set[Node] = set()

        def emit(node: Node) -> None:
            if node in source_set or node in emitted:
                return
            edge = best_edge[node]
            for head_node in edge.head:
                emit(head_node)
            emitted.add(node)
            ordered.append(edge)

        emit(target)
        candidate = Hyperpath(source_set, target, tuple(ordered))
        baseline = self.find_hyperpath(source_set, target)
        if baseline is not None and baseline.weight < candidate.weight:
            return baseline
        return candidate

    # -- derived simple graph ----------------------------------------------------
    def to_simple_graph(self) -> dict[Node, set[Node]]:
        """``Ḡ_{Q,A}``: replace each hyperedge ``({u1..up}, v)`` by edges ``ui → v``."""
        graph: dict[Node, set[Node]] = {node: set() for node in self._nodes}
        for edge in self._edges:
            for node in edge.head:
                graph[node].add(edge.tail)
        return graph

    def is_acyclic(self) -> bool:
        """Whether the derived simple graph ``Ḡ_{Q,A}`` is acyclic (Section 6.1)."""
        graph = self.to_simple_graph()
        state: dict[Node, int] = {}

        def visit(node: Node) -> bool:
            state[node] = 1
            for successor in graph[node]:
                mark = state.get(successor, 0)
                if mark == 1:
                    return False
                if mark == 0 and not visit(successor):
                    return False
            state[node] = 2
            return True

        return all(visit(node) for node in graph if state.get(node, 0) == 0)


# ---------------------------------------------------------------------------
# ⟨Q,A⟩-hypergraph construction
# ---------------------------------------------------------------------------

@dataclass
class QAHypergraph:
    """The ⟨Q,A⟩-hypergraph of a (normalized) query and an actualized access schema.

    ``graph`` is the underlying directed hypergraph; attribute nodes are the
    unified attribute names (``ρ_U`` tokens) of the max SPC sub-queries,
    plus the dummy source :data:`ROOT` and one set-node per induced FD.
    ``analyses`` holds the per-sub-query :class:`SPCAnalysis` used to map
    query attributes to node names.
    """

    graph: DirectedHypergraph
    analyses: list[SPCAnalysis]
    weighted: bool = False
    _analysis_by_relation: dict[str, SPCAnalysis] = field(default_factory=dict)

    def analysis_for_relation(self, relation: str) -> SPCAnalysis:
        """The :class:`SPCAnalysis` of the max SPC sub-query containing ``relation``."""
        try:
            return self._analysis_by_relation[relation]
        except KeyError:
            raise PlanError(
                f"relation {relation!r} does not belong to any max SPC sub-query"
            ) from None

    def analysis_for_attribute(self, attribute: Attribute) -> SPCAnalysis:
        """The SPC analysis of the sub-query owning ``attribute``'s relation."""
        return self.analysis_for_relation(attribute.relation)

    def node_for(self, attribute: Attribute) -> Node:
        """The node encoding ``ρ_U(attribute)``."""
        return self.analysis_for_attribute(attribute).unify(attribute)

    def is_acyclic(self) -> bool:
        """Whether the underlying hypergraph has no directed cycle."""
        return self.graph.is_acyclic()


def _set_node(index: int, tokens: frozenset[str]) -> Node:
    return ("set", index, tuple(sorted(tokens)))


def build_qa_hypergraph(
    query: Query,
    actualized: AccessSchema,
    *,
    weighted: bool = False,
    analyses: Sequence[SPCAnalysis] | None = None,
) -> QAHypergraph:
    """Build the (optionally weighted) ⟨Q,A⟩-hypergraph for ``query`` and ``actualized``.

    ``query`` must be normalized and ``actualized`` must be the actualized
    access schema on it.  Construction follows Appendix A:

    * for each induced FD ``X → Y`` there is a set-node ``u_Y``, a hyperedge
      from the ``X``-nodes to ``u_Y`` (weight ``N`` in the weighted variant)
      and zero-weight edges from ``u_Y`` to each ``Y``-attribute node;
    * induced FDs with empty left-hand side hang off the dummy source ``r``;
    * every constant attribute of a sub-query gets a zero-weight edge from ``r``.
    """
    graph = DirectedHypergraph()
    graph.add_node(ROOT)
    if analyses is None:
        analyses = [SPCAnalysis(sub) for sub in max_spc_subqueries(query)]
    else:
        analyses = list(analyses)

    by_relation: dict[str, SPCAnalysis] = {}
    for analysis in analyses:
        for rel in analysis.relations:
            by_relation[rel.name] = analysis

    edge_counter = itertools.count()
    for analysis in analyses:
        # Edges from r to constant attributes (case 3 of the construction).
        for attribute in analysis.constant_attributes:
            token = analysis.unify(attribute)
            graph.add_edge(
                Hyperedge(
                    head=frozenset({ROOT}),
                    tail=token,
                    weight=0,
                    constant=analysis.constant_for(attribute),
                )
            )
        # Edges for induced FDs (cases 1 and 2).
        for constraint in analysis.relevant_constraints(actualized):
            lhs_tokens = analysis.unify_all(
                Attribute(constraint.relation, a) for a in constraint.lhs
            )
            rhs_tokens = analysis.unify_all(
                Attribute(constraint.relation, a) for a in constraint.rhs
            )
            new_tokens = rhs_tokens - lhs_tokens
            if not new_tokens:
                # The FD adds nothing (Y ⊆ X after unification); skip the edge
                # but keep the nodes so the relation's attributes exist.
                for token in lhs_tokens | rhs_tokens:
                    graph.add_node(token)
                continue
            set_node = _set_node(next(edge_counter), rhs_tokens)
            head = lhs_tokens if lhs_tokens else frozenset({ROOT})
            weight = constraint.bound if weighted else 0
            graph.add_edge(
                Hyperedge(
                    head=frozenset(head),
                    tail=set_node,
                    weight=weight,
                    constraint=constraint,
                )
            )
            for token in new_tokens:
                graph.add_edge(
                    Hyperedge(
                        head=frozenset({set_node}),
                        tail=token,
                        weight=0,
                        constraint=constraint,
                    )
                )

    return QAHypergraph(
        graph=graph,
        analyses=list(analyses),
        weighted=weighted,
        _analysis_by_relation=by_relation,
    )
