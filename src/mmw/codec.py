"""JSON encodings for schemas and cell values shared by the wire
protocol, topology configs and the memory adapter."""

from __future__ import annotations

from typing import Optional, Sequence

from mmw.errors import ProtocolError
from mmw.relational import (
    Attribute,
    Kind,
    ProductSchema,
    RelationSchema,
    Row,
    Value,
    canonical_text,
    kind_from_name,
    value_from_text,
)


def attribute_to_obj(attr: Attribute) -> dict:
    obj = {"name": attr.name, "type": attr.data_type.value, "nullable": attr.nullable}
    if attr.tags:
        obj["tags"] = sorted(attr.tags)
    return obj


def attribute_from_obj(obj: dict) -> Attribute:
    try:
        return Attribute(
            obj["name"],
            kind_from_name(obj["type"]),
            nullable=bool(obj.get("nullable", False)),
            tags=obj.get("tags", ()),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad attribute object: {exc}") from None


def relation_to_obj(schema: RelationSchema) -> dict:
    obj = {
        "name": schema.name,
        "attributes": [attribute_to_obj(attr) for attr in schema.attributes],
    }
    if schema.key is not None:
        obj["key"] = list(schema.key)
    return obj


def relation_from_obj(obj: dict) -> RelationSchema:
    try:
        return RelationSchema(
            obj["name"],
            [attribute_from_obj(attr) for attr in obj["attributes"]],
            key=obj.get("key"),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"bad relation object: {exc}") from None


def product_to_obj(product: ProductSchema) -> dict:
    return {
        "product": product.product,
        "version": product.version,
        "metadata": product.metadata_map,
        "relations": [relation_to_obj(rel) for rel in product.relations],
    }


def product_from_obj(obj: dict) -> ProductSchema:
    try:
        return ProductSchema(
            obj["product"],
            obj["version"],
            [relation_from_obj(rel) for rel in obj["relations"]],
            obj.get("metadata", {}),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"bad product schema object: {exc}") from None


def value_to_wire(value: Value) -> Optional[str]:
    """Canonical rendering with explicit nulls."""
    return None if value.is_null else canonical_text(value)


def value_from_wire(kind: Kind, cell) -> Value:
    if cell is None:
        return Value.null()
    if isinstance(cell, bool):
        cell = "true" if cell else "false"
    elif isinstance(cell, (int, float)):
        cell = repr(cell)
    try:
        return value_from_text(kind, cell)
    except ValueError as exc:
        raise ProtocolError(f"bad cell for {kind}: {exc}") from None


def rows_from_wire(kinds: Sequence[Kind], raw_rows) -> list[Row]:
    """Decode a JSON row list, one list of cells per row, into rows of the
    given cell kinds."""
    if not isinstance(raw_rows, list):
        raise ProtocolError(f"rows must be a list, got {type(raw_rows).__name__}")
    rows = []
    for cells in raw_rows:
        if not isinstance(cells, list):
            raise ProtocolError(f"row must be a list of cells, got {type(cells).__name__}")
        if len(cells) != len(kinds):
            raise ProtocolError(
                f"row arity {len(cells)} does not match schema arity {len(kinds)}"
            )
        rows.append(tuple(value_from_wire(kind, cell) for kind, cell in zip(kinds, cells)))
    return rows
