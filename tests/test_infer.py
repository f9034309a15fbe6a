"""Schema inference: examples, propagation rules, error paths."""

from __future__ import annotations

import pytest

from mmw.errors import TypeCheckError, UnknownRelationError
from mmw.query.ast import (
    AttrRef,
    HashCall,
    Join,
    Project,
    ProjectItem,
    QualifiedName,
    Scan,
    Union,
)
from mmw.query.infer import infer_schema
from mmw.query.parse import parse_query
from mmw.relational import Attribute, Kind, RelationSchema

PEOPLE = RelationSchema(
    "people",
    [
        Attribute("id", Kind.INTEGER),
        Attribute("name", Kind.TEXT, nullable=True),
        Attribute("ssn", Kind.TEXT, tags=("identifying",)),
    ],
    key=("id",),
)
ORDERS = RelationSchema(
    "orders",
    [
        Attribute("order_id", Kind.INTEGER),
        Attribute("person_id", Kind.INTEGER),
        Attribute("amount", Kind.DECIMAL),
    ],
    key=("order_id",),
)

ENV = {
    QualifiedName("hr", "people"): PEOPLE,
    QualifiedName("sales", "orders"): ORDERS,
}


class TestInfer:
    def test_scan_is_identity(self):
        schema = infer_schema(Scan(QualifiedName("hr", "people")), ENV)
        assert schema.attributes == PEOPLE.attributes
        assert schema.key == ("id",)

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError) as err:
            infer_schema(Scan(QualifiedName("hr", "nope")), ENV)
        assert "hr.nope" in str(err.value)

    def test_hash_yields_untagged_text(self):
        tree = Project(
            Scan(QualifiedName("hr", "people")),
            [ProjectItem(HashCall(AttrRef("ssn")), "ssn_h")],
        )
        schema = infer_schema(tree, ENV)
        (attr,) = schema.attributes
        assert attr.name == "ssn_h"
        assert attr.data_type is Kind.TEXT
        assert attr.tags == frozenset()

    def test_plain_projection_keeps_tags_and_nullability(self):
        tree = parse_query("SELECT ssn, name FROM hr.people")
        schema = infer_schema(tree, ENV)
        assert schema.attribute("ssn").identifying
        assert schema.attribute("name").nullable

    def test_function_of_nullable_is_nullable(self):
        tree = parse_query("SELECT hash(name) AS nh FROM hr.people")
        assert infer_schema(tree, ENV).attribute("nh").nullable

    def test_hash_of_non_nullable_is_not_nullable(self):
        tree = parse_query("SELECT hash(ssn) AS sh FROM hr.people")
        assert not infer_schema(tree, ENV).attribute("sh").nullable

    def test_concat_requires_text(self):
        with pytest.raises(TypeCheckError) as err:
            infer_schema(parse_query("SELECT concat(id, name) AS c FROM hr.people"), ENV)
        assert "concat" in str(err.value)

    def test_join_drops_right_keys(self):
        tree = parse_query("SELECT * FROM hr.people JOIN sales.orders ON id = person_id")
        schema = infer_schema(tree, ENV)
        assert schema.attribute_names == ("id", "name", "ssn", "order_id", "amount")

    def test_join_type_mismatch(self):
        with pytest.raises(TypeCheckError) as err:
            infer_schema(
                parse_query("SELECT * FROM hr.people JOIN sales.orders ON name = person_id"), ENV
            )
        assert "text" in str(err.value) and "integer" in str(err.value)

    def test_join_collision_needs_rename(self):
        env = dict(ENV)
        env[QualifiedName("hr", "people2")] = PEOPLE.rename("people2")
        with pytest.raises(TypeCheckError) as err:
            infer_schema(
                parse_query("SELECT * FROM hr.people JOIN hr.people2 ON id = id"), env
            )
        assert "rename" in str(err.value)

    def test_union_arity_mismatch_names_both(self):
        tree = Union(
            parse_query("SELECT id FROM hr.people"),
            parse_query("SELECT order_id, amount FROM sales.orders"),
        )
        with pytest.raises(TypeCheckError) as err:
            infer_schema(tree, ENV)
        assert "1" in str(err.value) and "2" in str(err.value)

    def test_union_nullability_widens_and_tags_merge(self):
        left = parse_query("SELECT ssn AS x FROM hr.people")
        right = parse_query("SELECT name AS x FROM hr.people")
        schema = infer_schema(Union(left, right), ENV)
        attr = schema.attribute("x")
        assert attr.nullable  # right side nullable
        assert attr.identifying  # left side tagged

    def test_duplicate_output_name(self):
        with pytest.raises(TypeCheckError) as err:
            infer_schema(parse_query("SELECT id, name AS id FROM hr.people"), ENV)
        assert "duplicate" in str(err.value)

    def test_unknown_attribute_has_tree_path(self):
        tree = Union(
            parse_query("SELECT id FROM hr.people"),
            parse_query("SELECT missing AS id FROM hr.people"),
        )
        with pytest.raises(TypeCheckError) as err:
            infer_schema(tree, ENV)
        assert "$.right" in str(err.value)

    def test_comparison_type_mismatch(self):
        with pytest.raises(TypeCheckError):
            infer_schema(parse_query("SELECT * FROM hr.people WHERE name = 3"), ENV)

    def test_null_literal_comparison_allowed(self):
        infer_schema(parse_query("SELECT * FROM hr.people WHERE name = NULL"), ENV)

    def test_bare_null_projection_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_schema(parse_query("SELECT NULL AS n FROM hr.people"), ENV)
