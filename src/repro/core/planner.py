"""Algorithm ``QPlan``: canonical bounded query plans for covered queries (Section 5).

A canonical bounded plan has three parts:

1. a **fetching plan** — one unit fetching plan per attribute in ``X_Q``,
   obtained by translating hyperpaths of the ⟨Q,A⟩-hypergraph (``transQP``);
2. an **indexing plan** — for every relation occurrence ``S``, the tuples
   fetched under the constraint that indexes ``S`` whose attribute values
   are among the fetched candidates, so that attribute values come from the
   same tuples.  It shares part 1's fetch of that constraint instead of
   fetching a second time, and tests only the candidates that fetch does not
   already satisfy (:meth:`_QPlanBuilder.indexing_plan`), so a plan fetches
   each ``(constraint, key)`` once;
3. an **evaluation plan** — the original RA expression with each relation
   occurrence replaced by its indexed surrogate.

``generate_plan`` takes a :class:`~repro.core.coverage.CoverageResult`
(i.e. the output of ``CovChk``) and produces a validated
:class:`~repro.core.plan.BoundedPlan` of length ``O(|Q||A|)``.
"""

from __future__ import annotations

from .access import AccessConstraint, AccessSchema
from .coverage import CoverageResult, check_coverage
from .errors import NotCoveredError, PlanError
from .hypergraph import QAHypergraph, ROOT, build_qa_hypergraph
from .plan import (
    BoundedPlan,
    ColumnPredicate,
    ColumnRef,
    ConstOp,
    DifferenceOp,
    FetchOp,
    PlanBuilder,
    ProductOp,
    ProjectOp,
    RenameOp,
    SelectOp,
    UnionOp,
    UnitOp,
)
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
from .spc import SPCAnalysis


class _QPlanBuilder:
    """Stateful helper that assembles the three phases of a canonical plan."""

    def __init__(self, coverage: CoverageResult):
        if not coverage.is_covered:
            raise NotCoveredError(
                "QPlan requires a covered query:\n" + coverage.explain()
            )
        self.coverage = coverage
        self.actualized: AccessSchema = coverage.actualized
        self.builder = PlanBuilder(self.actualized, occurrences=coverage.normalized.occurrences)
        self.hypergraph: QAHypergraph = build_qa_hypergraph(
            coverage.normalized.query,
            self.actualized,
            analyses=[sub.analysis for sub in coverage.subqueries],
        )
        self.derivations = self.hypergraph.graph.derivations({ROOT})
        #: unified attribute token -> plan step id of its unit fetching plan
        self.unit_steps: dict[str, int] = {}
        #: constraint -> its one fetch step: the unit plans it feeds project
        #: from it and the relation it indexes takes it as its surrogate
        self._constraint_fetches: dict[AccessConstraint, int] = {}
        #: constraint -> the attributes some unit plan projects from its fetch
        self._projected: dict[AccessConstraint, set[str]] = {}
        #: relation occurrence -> plan step id of its indexed surrogate
        self.surrogate_steps: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Phase 1: unit fetching plans (transQP over hyperpaths)
    # ------------------------------------------------------------------
    def unit_fetching_plan(self, analysis: SPCAnalysis, attribute: Attribute) -> int:
        """The step id of the unit fetching plan ``ξ_F^c(attribute)`` (memoized per token)."""
        token = analysis.unify(attribute)
        return self._unit_plan_for_token(token)

    def _unit_plan_for_token(self, token: str) -> int:
        if token in self.unit_steps:
            return self.unit_steps[token]
        edge = self.derivations.get(token)
        if edge is None:
            raise PlanError(
                f"attribute token {token!r} is not reachable from r in the ⟨Q,A⟩-hypergraph; "
                "the query is not fetchable"
            )
        if edge.constraint is None:
            # Case (3): an edge from r carrying a constant.
            step = self.builder.add(
                ConstOp(value=edge.constant, column=token),
                columns=[token],
                comment=f"ξF({token}) — constant",
            )
            self.unit_steps[token] = step
            return step

        # The token is derived by a set-node edge ({u_Y}, token); the FD edge
        # deriving u_Y carries the access constraint and its head.
        set_node = next(iter(edge.head))
        fd_edge = self.derivations.get(set_node)
        if fd_edge is None or fd_edge.constraint is None:
            raise PlanError(f"malformed derivation for token {token!r}")  # pragma: no cover
        constraint = fd_edge.constraint
        fetch_step = self._fetch_step_for_constraint(constraint)

        analysis = self.hypergraph.analysis_for_relation(constraint.relation)
        source_attr = self._attribute_for_token(constraint, analysis, token)
        qualified = f"{constraint.relation}.{source_attr}"
        step = self.builder.add(
            ProjectOp(columns=(qualified,), inputs=(fetch_step,), output_names=(token,)),
            columns=[token],
            comment=f"ξF({token}) via {constraint}",
        )
        self.unit_steps[token] = step
        self._projected.setdefault(constraint, set()).add(source_attr)
        return step

    def _fetch_step_for_constraint(self, constraint: AccessConstraint) -> int:
        """A fetch step retrieving ``X ∪ Y`` of ``constraint`` for all candidate LHS values."""
        if constraint in self._constraint_fetches:
            return self._constraint_fetches[constraint]
        analysis = self.hypergraph.analysis_for_relation(constraint.relation)
        lhs = sorted(constraint.lhs)
        if lhs:
            key_tokens = [
                analysis.unify(Attribute(constraint.relation, attr)) for attr in lhs
            ]
            input_step = self._product_of_tokens(key_tokens)
            key_columns = tuple(key_tokens)
        else:
            input_step = self.builder.add(UnitOp(), columns=[], comment="empty-LHS driver")
            key_columns = ()
        out_columns = [
            f"{constraint.relation}.{attr}"
            for attr in sorted(constraint.lhs | constraint.rhs)
        ]
        step = self.builder.add(
            FetchOp(constraint=constraint, key_columns=key_columns, inputs=(input_step,)),
            columns=out_columns,
            comment=f"fetch via {constraint}",
        )
        self._constraint_fetches[constraint] = step
        return step

    def _product_of_tokens(self, tokens: list[str]) -> int:
        """The Cartesian product of the unit plans of distinct tokens, in order."""
        distinct: list[str] = []
        for token in tokens:
            if token not in distinct:
                distinct.append(token)
        step = self._unit_plan_for_token(distinct[0])
        for token in distinct[1:]:
            other = self._unit_plan_for_token(token)
            columns = list(self.builder.columns(step)) + list(self.builder.columns(other))
            step = self.builder.add(
                ProductOp(inputs=(step, other)), columns=columns, comment="combine candidates"
            )
        return step

    @staticmethod
    def _attribute_for_token(
        constraint: AccessConstraint, analysis: SPCAnalysis, token: str
    ) -> str:
        for attr in sorted(constraint.rhs | constraint.lhs):
            if analysis.unify(Attribute(constraint.relation, attr)) == token:
                return attr
        raise PlanError(
            f"constraint {constraint} does not produce token {token!r}"
        )  # pragma: no cover

    # ------------------------------------------------------------------
    # Phase 2: indexing plans
    # ------------------------------------------------------------------
    def indexing_plan(
        self, analysis: SPCAnalysis, relation: Relation, constraint: AccessConstraint
    ) -> int:
        """The step id of the indexed surrogate for ``relation`` (``ξ_I^c``).

        The surrogate is ``{r ∈ fetch(constraint, ·) : r.a ∈ U(t(a))}`` over the
        needed and key attributes ``a`` of ``S`` (``U(t)``: the unit plan of
        ``a``'s token), with ``r.a = r.b`` where two of them share a token.  It
        is the fetch the unit plans of ``constraint = S(X → Y, N)`` share, not
        a second one keyed by combinations of candidates:

        * that fetch probes ``K = ∏ U(t(x))``, ``x ∈ X``; any combination of
          candidates projects into ``K`` and ``fetch(K') = {r ∈ fetch(K) :
          r.X ∈ K'}`` for ``K' ⊆ K``, so a second fetch adds no tuple;
        * ``r.a ∈ U(t(a))`` holds by construction for ``a ∈ X`` (a tuple's key
          is one it was fetched by) and where ``U(t(a))`` is ``π_a`` of this
          very fetch; an attribute sharing such a token needs ``r.b = r.a``;
        * any other token is *foreign* — a constant on a non-key attribute, a
          value unified from another relation's fetch — and is tested by one
          semijoin ``σ(T × U(t))``, which the optimizer fuses to a hash join;
        * with nothing to test the surrogate is the fetch step itself.

        When a foreign ``U(t)`` is empty the fetch has still probed ``K``
        (within its bound) before the semijoin returns nothing: the rows of a
        fetch keyed by the empty candidate product, more tuples touched.
        """
        fetch = self._fetch_step_for_constraint(constraint)
        fetch_columns = self.builder.columns(fetch)
        needed = {a.name for a in analysis.relation_needed_attributes(relation)}
        by_token: dict[str, list[str]] = {}
        for name in sorted(needed | constraint.lhs):
            by_token.setdefault(analysis.unify(Attribute(relation.name, name)), []).append(name)
        # attributes whose candidates this fetch satisfies by construction
        at_home = constraint.lhs | self._projected.get(constraint, set())

        surrogate, columns = fetch, fetch_columns
        for token, names in by_token.items():
            home = next((name for name in names if name in at_home), None)
            if home is not None:  # r.b = r.a for the other attributes under the token
                tested = [name for name in names if name != home]
                against, comment = f"{relation.name}.{home}", f"attributes unified as {token}"
            else:  # foreign: pair the fetched tuples with the token's candidates
                tested = names
                against, comment = f"cand::{token}", f"keep tuples whose {token} is a candidate"
                candidates = self.builder.add(
                    ProjectOp(
                        columns=(token,),
                        inputs=(self._unit_plan_for_token(token),),
                        output_names=(against,),
                    ),
                    columns=[against],
                    comment=f"candidates for {token}",
                )
                columns = (*columns, against)
                surrogate = self.builder.add(
                    ProductOp(inputs=(surrogate, candidates)),
                    columns=columns,
                    comment="pair fetched tuples with candidates",
                )
            if tested:
                predicates = tuple(
                    ColumnPredicate(f"{relation.name}.{name}", "=", ColumnRef(against))
                    for name in tested
                )
                surrogate = self.builder.add(
                    SelectOp(predicates=predicates, inputs=(surrogate,)),
                    columns=columns,
                    comment=comment,
                )
        if columns != fetch_columns:
            surrogate = self.builder.add(
                ProjectOp(columns=fetch_columns, inputs=(surrogate,)), columns=fetch_columns
            )
        step = self.builder.steps[surrogate]
        role = f"indexed surrogate for {relation.name}"
        step.comment = f"{step.comment}; {role}" if step.comment else role
        self.surrogate_steps[relation.name] = surrogate
        return surrogate

    # ------------------------------------------------------------------
    # Phase 3: evaluation plan
    # ------------------------------------------------------------------
    def evaluation_plan(self) -> int:
        """Compile the normalized query over the surrogates into plan steps."""
        return self._compile(self.coverage.normalized.query)

    def _compile(self, node: Query) -> int:
        if isinstance(node, Relation):
            try:
                return self.surrogate_steps[node.name]
            except KeyError:  # pragma: no cover - guarded by coverage check
                raise PlanError(f"no surrogate for relation occurrence {node.name!r}")
        if isinstance(node, Selection):
            child = self._compile(node.child)
            predicates = tuple(self._compile_predicate(node.condition))
            return self.builder.add(
                SelectOp(predicates=predicates, inputs=(child,)),
                columns=self.builder.columns(child),
                comment="evaluation σ",
            )
        if isinstance(node, Projection):
            child = self._compile(node.child)
            columns = tuple(str(a) for a in node.attributes)
            return self.builder.add(
                ProjectOp(columns=columns, inputs=(child,)),
                columns=columns,
                comment="evaluation π",
            )
        if isinstance(node, Product):
            left = self._compile(node.left)
            right = self._compile(node.right)
            columns = list(self.builder.columns(left)) + list(self.builder.columns(right))
            return self.builder.add(
                ProductOp(inputs=(left, right)), columns=columns, comment="evaluation ×"
            )
        if isinstance(node, Join):
            left = self._compile(node.left)
            right = self._compile(node.right)
            columns = list(self.builder.columns(left)) + list(self.builder.columns(right))
            product = self.builder.add(
                ProductOp(inputs=(left, right)), columns=columns, comment="evaluation ⋈ (×)"
            )
            predicates = tuple(self._compile_predicate(node.condition))
            return self.builder.add(
                SelectOp(predicates=predicates, inputs=(product,)),
                columns=columns,
                comment="evaluation ⋈ (σ)",
            )
        if isinstance(node, Union):
            left = self._compile(node.left)
            right = self._compile(node.right)
            return self.builder.add(
                UnionOp(inputs=(left, right)),
                columns=self.builder.columns(left),
                comment="evaluation ∪",
            )
        if isinstance(node, Difference):
            left = self._compile(node.left)
            right = self._compile(node.right)
            return self.builder.add(
                DifferenceOp(inputs=(left, right)),
                columns=self.builder.columns(left),
                comment="evaluation −",
            )
        if isinstance(node, Rename):
            child = self._compile(node.child)
            old_columns = self.builder.columns(child)
            new_columns = tuple(
                f"{node.name}.{a.name}" for a in node.child.output_attributes()
            )
            mapping = dict(zip(old_columns, new_columns))
            return self.builder.add(
                RenameOp(mapping=mapping, inputs=(child,)),
                columns=new_columns,
                comment="evaluation ρ",
            )
        raise PlanError(f"cannot compile query node {type(node).__name__}")

    @staticmethod
    def _compile_predicate(condition: Predicate) -> list[ColumnPredicate]:
        predicates: list[ColumnPredicate] = []
        for atom in condition.atoms():
            if not isinstance(atom, Comparison):  # pragma: no cover - defensive
                raise PlanError(f"unsupported predicate {atom}")
            left = atom.left
            right = atom.right
            if isinstance(left, Constant) and isinstance(right, Attribute):
                # Normalize "c = A" to "A = c" (and flip inequalities).
                flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(atom.op, atom.op)
                left, right, op = right, left, flipped
            else:
                op = atom.op
            if not isinstance(left, Attribute):
                raise PlanError(f"cannot compile predicate {atom}: no column on either side")
            right_value = ColumnRef(str(right)) if isinstance(right, Attribute) else right.value
            predicates.append(ColumnPredicate(str(left), op, right_value))
        return predicates

    # ------------------------------------------------------------------
    def build(self) -> BoundedPlan:
        for sub in self.coverage.subqueries:
            analysis = sub.analysis
            for attribute in sorted(
                analysis.needed_attributes, key=lambda a: (a.relation, a.name)
            ):
                self.unit_fetching_plan(analysis, attribute)
            for relation in analysis.relations:
                constraint = sub.index_choices[relation.name]
                self.indexing_plan(analysis, relation, constraint)
        output = self.evaluation_plan()
        self.builder.fetch_plans = dict(self.unit_steps)
        self.builder.surrogates = dict(self.surrogate_steps)
        return self.builder.build(output)


def generate_plan(coverage: CoverageResult) -> BoundedPlan:
    """Generate a canonical bounded query plan from a ``CovChk`` result.

    Raises :class:`~repro.core.errors.NotCoveredError` when the result says
    the query is not covered.
    """
    return _QPlanBuilder(coverage).build()


def plan_query(query: Query, access_schema: AccessSchema) -> BoundedPlan:
    """Convenience wrapper: run ``CovChk`` then ``QPlan`` on ``query``."""
    coverage = check_coverage(query, access_schema)
    return generate_plan(coverage)
