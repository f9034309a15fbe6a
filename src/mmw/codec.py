"""JSON encodings for schemas, and the one cell codec shared by the wire
protocol, topology configs, the memory adapter and the file formats.

The codec is compiled per schema: each column gets an encoder and a decoder
closure built once per table, holding the reader and renderer of its kind
from `relational.TEXT_READERS` and `TEXT_RENDERERS`, the one definition of
the canonical text that `value_from_text` and `canonical_text` also use. So
no cell dispatches on its kind, and every result and error is the
reference's by construction. The codec adds only what each format puts
around the canonical text: JSON null, boolean and number cells on the wire,
null versus quoted empty in delimited files, json-lines literals and
quoting, and values whose kind is not their column's.

A delimited schema also has a row pattern (`csv_row_pattern`): each
column's accepted text from `relational.PLAIN_PATTERNS` (any text without a
separator for a text column, an optional one for a nullable column), joined
by commas. One `fullmatch` of a quote-free data line then settles its arity
and the validity of every cell in it, with no call per cell, which is all
the validation a quote-free text gets: `matched_decoder` then decodes its
cells without the checks the match made. The pattern may refuse a line the
decoders accept, such as one with a nineteen-digit integer, but never
accepts one they refuse; the reader leaves a text it refuses to the
reference parser. It is compiled once per distinct header.

A json-lines text likewise has a record pattern (`jsonl_record_pattern`),
built from the field order of its first record and each field's kind, that
of its first non-null cell: each field's JSON token or null, one group per
field, and null alone for a field with no non-null cell (`Kind.NULL`). A
match holds only cells the reference reads as values of those kinds, so
the reader decodes no line past those that gave the kinds in a text whose
every line matches.
"""

from __future__ import annotations

import re
from functools import lru_cache
from json.encoder import encode_basestring
from typing import Callable, Optional, Sequence

from mmw.errors import ProtocolError
from mmw.relational import (
    NULL,
    Attribute,
    Kind,
    MATCHED_READERS,
    PLAIN_PATTERNS,
    ProductSchema,
    RelationSchema,
    Row,
    TEXT_READERS,
    TEXT_RENDERERS,
    Value,
    canonical_text,
    kind_from_name,
)

Decoder = Callable[[object], Value]
Encoder = Callable[[Value], Optional[str]]

# Line breaks of `str.splitlines` that JSON leaves raw; json-lines readers split on them.
_LINE_SEPARATORS = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})


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


# --- cell decoders ----------------------------------------------------------------


def _scalar_text(kind: Kind, cell) -> str:
    """The text a non-null, non-string JSON cell is read as: a boolean or
    number as its JSON text; a list or object is refused."""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, float)):
        return repr(cell)
    raise ProtocolError(f"bad cell for {kind}: expected a scalar, got {type(cell).__name__}")


def wire_decoder(kind: Kind) -> Decoder:
    """Decoder of one JSON cell of a `kind` column; raises ProtocolError."""
    read = TEXT_READERS[kind]

    def decode(cell):
        if cell is None:
            return NULL
        try:
            return read(cell if isinstance(cell, str) else _scalar_text(kind, cell))
        except ValueError as exc:
            raise ProtocolError(f"bad cell for {kind}: {exc}") from None

    return decode


def _empty_field(attr: Attribute) -> Optional[Value]:
    """The value of an unquoted empty field of column `attr`: null, or
    empty text in a non-nullable text column; None where none is."""
    if attr.nullable:
        return NULL
    if attr.data_type is Kind.TEXT:
        return Value.text("")
    return None


def csv_decoder(attr: Attribute) -> Callable[[tuple[str, bool]], Value]:
    """Decoder of one delimited-file cell, `(text, was_quoted)`, of column
    `attr`: an unquoted empty field is `_empty_field`; raises ValueError."""
    read = TEXT_READERS[attr.data_type]
    empty = _empty_field(attr)

    def decode_cell(cell):
        text, quoted = cell
        if text or quoted:
            return read(text)
        if empty is None:
            raise ValueError(f"empty field for non-nullable {attr.name!r}")
        return empty

    return decode_cell


def matched_decoder(attr: Attribute) -> Callable[[str], Value]:
    """Decoder of one cell text of column `attr` in a line `csv_row_pattern`
    has matched, so its checks are not made again
    (`relational.MATCHED_READERS`); the pattern allows an empty cell only
    where `_empty_field` is a value."""
    read = MATCHED_READERS[attr.data_type]
    empty = _empty_field(attr)
    return lambda text: read(text) if text else empty


@lru_cache(maxsize=64)
def csv_row_pattern(attrs: tuple[Attribute, ...]) -> re.Pattern:
    """Pattern whose `fullmatch` of one data line of a quote-free delimited
    text (no '"', no carriage return, no line break) means that the line
    holds one cell per attribute and that `csv_decoder` of each attribute
    decodes its cell. It may refuse a line the decoders accept (see
    `relational.PLAIN_PATTERNS`), never the reverse."""
    cells = []
    for attr in attrs:
        if attr.data_type is Kind.TEXT:
            cells.append("[^,\n]*")  # empty is null or empty text
        else:
            cells.append(f"(?:{PLAIN_PATTERNS[attr.data_type]})" + ("?" if attr.nullable else ""))
    return re.compile(",".join(cells))


# The JSON token of a non-null cell of each kind, as one group: a literal's
# text, or a string's text between its quotes. A string with no escape and
# no control character is that text. A text cell refuses a string
# `relational.TIMESTAMP_RE` matches, which json-lines reads as a timestamp.
# A number keeps its mantissa inside `PLAIN_PATTERNS` and its exponent to
# five digits, so every decimal it accepts normalizes without overflow.
_JSONL_TOKENS: dict[Kind, str] = {
    Kind.BOOLEAN: "(true|false)",
    Kind.INTEGER: "(-?(?:0|[1-9][0-9]{0,17}))",
    Kind.DECIMAL: (
        r"(-?(?:0|[1-9][0-9]{0,999})"
        r"(?:\.[0-9]{1,1000}(?:[eE][-+]?[0-9]{1,5})?|[eE][-+]?[0-9]{1,5}))"
    ),
    Kind.TEXT: r'"((?![0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")[^"\\\x00-\x1f]*)"',
    Kind.TIMESTAMP: f'"({PLAIN_PATTERNS[Kind.TIMESTAMP]})"',
    Kind.NULL: "((?!))",  # no token: a field null in every record
}


@lru_cache(maxsize=64)
def jsonl_record_pattern(fields: tuple[tuple[str, Kind], ...]) -> re.Pattern:
    """Pattern whose `fullmatch` of one json-lines line means that the line
    is a record of exactly `fields`, each a field name (an identifier) and
    a kind, in that order, each cell `null` or a token of its field's kind
    that the reference reads as a value of that kind, with JSON blanks
    between tokens. Group i is field i's cell text (`_JSONL_TOKENS`), None
    for null. It may refuse a record the reference reads as these fields,
    such as one with an escape in a string, never the reverse."""
    gap = "[ \t]*"
    cells = [f'"{name}"{gap}:{gap}(?:null|{_JSONL_TOKENS[kind]})' for name, kind in fields]
    return re.compile(gap + "\\{" + gap + f"{gap},{gap}".join(cells) + gap + "\\}" + gap)


def rows_from_wire(kinds: Sequence[Kind], raw_rows) -> list[Row]:
    """Decode a JSON row list, one list of cells per row, into rows of the
    given cell kinds."""
    if not isinstance(raw_rows, list):
        raise ProtocolError(f"rows must be a list, got {type(raw_rows).__name__}")
    decoders = [wire_decoder(kind) for kind in kinds]
    rows = []
    for cells in raw_rows:
        if not isinstance(cells, list):
            raise ProtocolError(f"row must be a list of cells, got {type(cells).__name__}")
        if len(cells) != len(decoders):
            raise ProtocolError(
                f"row arity {len(cells)} does not match schema arity {len(decoders)}"
            )
        rows.append(tuple([decode(cell) for decode, cell in zip(decoders, cells)]))
    return rows


# --- cell encoders ----------------------------------------------------------------
#
# A column's encoder renders values of the column's kind with that kind's
# renderer; a value of any other kind, null included, takes the path for
# any value.


def _wire_text(value: Value) -> Optional[str]:
    return None if value.is_null else canonical_text(value)


def wire_encoder(kind: Kind) -> Encoder:
    """Encoder of a `kind` column's values as JSON cells: canonical text,
    None for null. Also the text of a delimited-file cell."""
    if kind is Kind.NULL:
        return _wire_text
    render = TEXT_RENDERERS[kind]
    return lambda v: render(v.payload) if v.kind is kind else _wire_text(v)


def jsonl_encoder(kind: Kind) -> Callable[[Value], str]:
    """Encoder of a `kind` column's values as json-lines field tokens:
    booleans and integers as JSON literals, decimals as numbers with a
    forced '.', text and timestamps as one-line JSON strings, null as null."""
    if kind is Kind.NULL:
        return _jsonl_token
    render = TEXT_RENDERERS[kind]
    if kind is Kind.DECIMAL:
        def token(payload):
            text = render(payload)
            return text if "." in text else text + ".0"
    elif kind is Kind.TEXT or kind is Kind.TIMESTAMP:
        def token(payload):
            return encode_basestring(render(payload)).translate(_LINE_SEPARATORS)
    else:
        token = render
    return lambda v: token(v.payload) if v.kind is kind else _jsonl_token(v)


def _jsonl_token(value: Value) -> str:
    """The json-lines token of any value: null as null, any other value
    through the encoder of its own kind."""
    return "null" if value.is_null else jsonl_encoder(value.kind)(value)


def rows_to_wire(kinds: Sequence[Kind], rows) -> list[list[Optional[str]]]:
    """Encode rows of the given cell kinds as JSON row lists."""
    encoders = [wire_encoder(kind) for kind in kinds]
    return [[encode(v) for encode, v in zip(encoders, row)] for row in rows]
