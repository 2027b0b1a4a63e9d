"""Unit tests for the RA query AST."""

import pytest

from repro.core.errors import QueryError
from repro.core.query import (
    And,
    Comparison,
    Constant,
    Difference,
    Join,
    Product,
    Projection,
    Relation,
    Rename,
    Selection,
    Union,
    conjunction,
    eq,
    format_query,
    queries_equal,
)
from repro.core.schema import Attribute


@pytest.fixture
def friend():
    return Relation("friend", ["pid", "fid"])


@pytest.fixture
def dine():
    return Relation("dine", ["pid", "cid", "month", "year"])


class TestPredicates:
    def test_eq_coerces_constants(self, friend):
        atom = eq(friend["pid"], "p0")
        assert isinstance(atom.right, Constant)
        assert atom.is_equality

    def test_comparison_rejects_bad_operator(self, friend):
        with pytest.raises(QueryError):
            Comparison(friend["pid"], "~", Constant(1))

    def test_comparison_evaluate(self):
        assert Comparison(Constant(1), "<", Constant(2)).evaluate(1, 2)
        assert Comparison(Constant(1), "!=", Constant(2)).evaluate(1, 2)
        assert not Comparison(Constant(1), ">=", Constant(2)).evaluate(1, 2)

    @pytest.mark.parametrize(
        "op, holds",
        [("=", (False, True, False)), ("!=", (True, False, True)), ("<", (True, False, False)),
         ("<=", (True, True, False)), (">", (False, False, True)), (">=", (False, True, True))],
    )
    def test_each_operator_orders_values_as_python_does(self, op, holds):
        comparison = Comparison(Constant(0), op, Constant(0))
        assert tuple(comparison.evaluate(left, 2) for left in (1, 2, 3)) == holds

    def test_a_conjunction_prints_its_parts_joined_by_and(self, friend, dine):
        condition = And([eq(friend["pid"], "p0"), eq(dine["month"], "may")])
        assert str(condition) == f"{condition.parts[0]} AND {condition.parts[1]}"

    def test_and_flattens_atoms(self, friend, dine):
        condition = And([eq(friend["pid"], "p0"), eq(dine["month"], "may")])
        assert condition.atom_count == 2
        assert len(list(condition.conjuncts())) == 2

    def test_and_requires_conjuncts(self):
        with pytest.raises(QueryError):
            And([])

    def test_conjunction_helper(self, friend):
        assert conjunction([]) is None
        single = eq(friend["pid"], 1)
        assert conjunction([single]) is single
        assert isinstance(conjunction([single, single]), And)

    def test_predicate_attributes(self, friend, dine):
        condition = And([eq(friend["fid"], dine["pid"]), eq(dine["year"], 2015)])
        assert condition.attributes() == {
            Attribute("friend", "fid"),
            Attribute("dine", "pid"),
            Attribute("dine", "year"),
        }


class TestRelationNode:
    def test_output_attributes(self, friend):
        assert friend.output_attributes() == (
            Attribute("friend", "pid"),
            Attribute("friend", "fid"),
        )

    def test_getitem_unknown(self, friend):
        with pytest.raises(QueryError):
            friend["city"]

    def test_base_defaults_to_name(self, friend):
        assert friend.base == "friend"
        renamed = Relation("friend2", ["pid", "fid"], base="friend")
        assert renamed.base == "friend"

    def test_empty_attributes_rejected(self):
        with pytest.raises(QueryError):
            Relation("r", [])


class TestOperators:
    def test_selection_validates_attributes(self, friend, dine):
        with pytest.raises(QueryError, match="unknown attribute"):
            friend.select(eq(dine["cid"], 1))

    def test_projection_by_name_and_attribute(self, dine):
        by_attr = dine.project([dine["cid"]])
        by_name = dine.project(["cid"])
        assert by_attr.output_attributes() == by_name.output_attributes()

    def test_projection_unknown_attribute(self, dine):
        with pytest.raises(QueryError):
            dine.project(["city"])

    def test_projection_requires_attributes(self, dine):
        with pytest.raises(QueryError):
            Projection(dine, [])

    def test_product_rejects_overlap(self, dine):
        other = Relation("dine", ["pid", "cid", "month", "year"])
        with pytest.raises(QueryError, match="share attributes"):
            dine.product(other)

    def test_join_with_condition(self, friend, dine):
        joined = friend.join(dine, eq(friend["fid"], dine["pid"]))
        assert joined.arity() == 6

    def test_natural_join_uses_shared_names(self, friend):
        other = Relation("dine2", ["pid", "cid"], base="dine")
        joined = Join(friend, other)
        atoms = list(joined.condition.atoms())
        assert len(atoms) == 1
        assert {atoms[0].left, atoms[0].right} == {
            Attribute("friend", "pid"),
            Attribute("dine2", "pid"),
        }

    def test_natural_join_without_shared_names_fails(self, friend):
        other = Relation("cafe", ["cid", "city"])
        with pytest.raises(QueryError, match="shared attribute"):
            Join(friend, other)

    def test_union_difference_arity_check(self, friend, dine):
        one = friend.project(["pid"])
        two = dine.project(["pid", "cid"])
        with pytest.raises(QueryError):
            Union(one, two)
        with pytest.raises(QueryError):
            Difference(one, two)

    def test_selection_requires_a_condition(self, friend):
        with pytest.raises(QueryError, match="requires a condition"):
            Selection(friend, None)

    def test_projection_of_an_attribute_the_child_lacks(self, friend, dine):
        with pytest.raises(QueryError, match="not produced by child"):
            friend.project([dine["cid"]])

    def test_join_operands_sharing_an_attribute_are_rejected(self, friend):
        with pytest.raises(QueryError, match="share qualified attributes"):
            friend.join(friend, eq(friend["pid"], friend["fid"]))

    def test_join_condition_on_an_unknown_attribute(self, friend, dine):
        cafe = Relation("cafe", ["cid", "city"])
        with pytest.raises(QueryError, match="join condition references unknown attribute"):
            friend.join(dine, eq(friend["fid"], cafe["cid"]))

    def test_rename_requires_a_name(self, friend):
        with pytest.raises(QueryError, match="non-empty name"):
            Rename(friend, "")

    def test_rename_changes_qualifier(self, friend):
        renamed = Rename(friend.project(["fid"]), "buddies")
        assert renamed.output_attributes() == (Attribute("buddies", "fid"),)

    def test_attribute_resolution_ambiguity(self, friend, dine):
        query = friend.join(dine, eq(friend["fid"], dine["pid"]))
        with pytest.raises(QueryError, match="ambiguous"):
            query.attribute("pid")
        assert query.attribute("cid") == Attribute("dine", "cid")
        with pytest.raises(QueryError, match="no output attribute"):
            query.attribute("city")


class TestQueryStructure:
    def test_size_counts_nodes_and_atoms(self, friend, dine):
        query = (
            friend.join(dine, eq(friend["fid"], dine["pid"]))
            .select(eq(friend["pid"], "p0"))
            .project([dine["cid"]])
        )
        # nodes: friend, dine, join, select, project = 5; atoms: 1 (join) + 1 (select)
        assert query.size == 7

    def test_subqueries_postorder(self, friend, dine):
        query = friend.join(dine, eq(friend["fid"], dine["pid"]))
        nodes = list(query.subqueries())
        assert nodes[0] is friend
        assert nodes[1] is dine
        assert nodes[-1] is query

    def test_relations_iteration(self, friend, dine):
        query = friend.join(dine, eq(friend["fid"], dine["pid"]))
        assert [r.name for r in query.relations()] == ["friend", "dine"]

    def test_is_spc(self, friend, dine):
        spc = friend.join(dine, eq(friend["fid"], dine["pid"]))
        assert spc.is_spc()
        assert not spc.project(["cid"]).union(dine.project(["cid"])).is_spc()

    def test_format_query_contains_operators(self, friend, dine):
        query = (
            friend.join(dine, eq(friend["fid"], dine["pid"]))
            .select(eq(friend["pid"], "p0"))
            .project([dine["cid"]])
        )
        rendered = format_query(query)
        assert "π" in rendered and "σ" in rendered and "⋈" in rendered

    @pytest.mark.parametrize(
        "make, head, children",
        [
            (lambda f, d: f.project(["pid"]).product(d.project(["cid"])), "×", 2),
            (lambda f, d: f.project(["pid"]).union(d.project(["pid"])), "∪", 2),
            (lambda f, d: f.project(["pid"]).difference(d.project(["pid"])), "−", 2),
            (lambda f, d: Rename(f.project(["pid"]), "mates"), "ρ[mates]", 1),
        ],
        ids=["product", "union", "difference", "rename"],
    )
    def test_format_query_prints_each_operand_one_level_down(self, friend, dine, make, head, children):
        query = make(friend, dine)
        lines = format_query(query).splitlines()
        assert lines[0] == head
        # each operand starts one level in: a projection over a relation
        operands = [line for line in lines if line.startswith("  π[")]
        assert len(operands) == children
        assert str(query) == format_query(query)

    def test_a_renamed_occurrence_names_its_base(self, friend):
        assert format_query(Relation("mates", ["pid", "fid"], base="friend")) == (
            "mates (renaming of friend)"
        )

    def test_projections_and_renames_compare_what_they_keep_and_name(self, friend):
        assert not queries_equal(friend.project(["pid"]), friend.project(["fid"]))
        assert not queries_equal(Rename(friend, "mates"), Rename(friend, "pals"))
        assert queries_equal(Rename(friend, "mates"), Rename(friend, "mates"))

    def test_queries_equal_structural(self, friend, dine):
        one = friend.select(eq(friend["pid"], "p0"))
        two = friend.select(eq(friend["pid"], "p0"))
        three = friend.select(eq(friend["pid"], "p1"))
        assert queries_equal(one, two)
        assert not queries_equal(one, three)
        assert not queries_equal(one, friend)
