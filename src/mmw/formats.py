"""Table serialization: delimited text, json-lines, human-readable.

Delimited format: UTF-8, comma separator, '"' quoting with "" escaping,
header row of `name:type` cells (a '?' suffix marks nullable attributes).
An unquoted empty field is null; an empty quoted field is empty text. The
stdlib csv module collapses exactly that distinction, so the splitter is
this module's own: one regular expression that matches a cell and the
separator after it. A text with no '"' and no carriage return has neither
quoted cells nor anything to refuse, so it is split on line breaks and
commas by `str.split` instead; the regular expression stays the path for
every other text and the oracle the quick split is tested against.

A csv read given a selection predicate decodes only the predicate's columns
of each row and the other cells of the rows it keeps; every cell it does not
decode is still validated (`relational.TEXT_CHECKS`), and a refused cell or
row sends the whole text through the full decode, so a malformed file fails
with the same message either way.

json-lines format: one flat JSON object per row, field order = schema
order. Decimals are emitted as raw numeric tokens with a forced '.' so a
reader can tell them from integers; numbers are parsed back with exact
decimal semantics.

Cells are encoded and decoded by the per-column closures of `mmw.codec`;
this module owns only the text around them: splitting, quoting, headers,
record syntax and json-lines schema inference.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from mmw.codec import csv_check, csv_decoder, jsonl_encoder, rows_to_wire
from mmw.errors import TypeCheckError
from mmw.query.ast import Predicate, contains_hash_call, predicate_attrs
from mmw.query.execute import _compile_predicate
from mmw.query.infer import check_predicate
from mmw.relational import (
    Attribute,
    Kind,
    RelationSchema,
    Table,
    TIMESTAMP_RE,
    Value,
    canonical_text,
    is_identifier,
    kind_from_name,
    relation_violations,
)

Row = tuple[Value, ...]
Cell = tuple[str, bool]  # text, was_quoted


# --- delimited splitting / joining ------------------------------------------------


# One cell and the separator after it: a quoted cell with its unquoted tail,
# or a plain cell. The (?!") keeps a quoted cell from ending on the first quote
# of a "" pair. No separator group means a bare carriage return, a stray quote,
# or an opening quote that is never closed.
_CELL_RE = re.compile(r'(?:"((?:[^"]|"")*)"(?!")([^,"\r\n]*)|([^,"\r\n]*))(,|\r?\n|\Z)?')


def split_delimited(text: str) -> list[list[Cell]]:
    """Parse delimited text into rows of (text, was_quoted) cells."""
    if '"' in text or "\r" in text:
        return regex_split_delimited(text)
    lines = text.split("\n")
    if lines[-1] == "":  # after a final line break there is no last row
        lines.pop()
    return [[(cell, False) for cell in line.split(",")] for line in lines]


def regex_split_delimited(text: str) -> list[list[Cell]]:
    """`split_delimited` by the cell regular expression alone: the path of
    every text with a quote or a carriage return, and the oracle of the
    quote-free split."""
    rows: list[list[Cell]] = []
    row: list[Cell] = []
    pos = 0
    while True:
        match = _CELL_RE.match(text, pos)
        body, tail, plain, separator = match.groups()
        row.append((plain, False) if body is None else (body.replace('""', '"') + tail, True))
        pos = match.end()
        if separator is None:
            if text[pos] == "\r":
                raise ValueError(f"bare carriage return at offset {pos}")
            if plain == "":
                raise ValueError("unterminated quoted field")
            raise ValueError(f"stray quote inside unquoted field at offset {pos}")
        if separator == ",":
            continue
        if separator:
            rows.append(row)
            row = []
            continue
        if row != [("", False)]:  # after a final line break there is no last row
            rows.append(row)
        return rows


_QUOTED_CHARS = re.compile(r'[,"\r\n]')


def _join_cell(text: str, force_quote: bool) -> str:
    if force_quote or _QUOTED_CHARS.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def join_delimited(rows: Iterable[Iterable[Cell]]) -> str:
    lines = []
    for row in rows:
        lines.append(",".join(_join_cell(text, quoted) for text, quoted in row))
    return "\n".join(lines) + "\n" if lines else ""


# --- header <-> schema -----------------------------------------------------------

_HEADER_CELL_RE = re.compile(r"([a-z][a-z0-9_]*):([a-z]+)(\?)?\Z")


def header_cells(schema: RelationSchema) -> list[Cell]:
    cells = []
    for attr in schema.attributes:
        suffix = "?" if attr.nullable else ""
        cells.append((f"{attr.name}:{attr.data_type.value}{suffix}", False))
    return cells


def schema_from_header(name: str, cells: list[Cell]) -> RelationSchema:
    attrs = []
    for text, _ in cells:
        match = _HEADER_CELL_RE.match(text)
        if not match:
            raise ValueError(f"malformed header cell {text!r}")
        attr_name, type_name, nullable = match.groups()
        attrs.append(Attribute(attr_name, kind_from_name(type_name), nullable=bool(nullable)))
    schema = RelationSchema(name, attrs)
    violations = relation_violations(schema)
    if violations:
        raise ValueError(f"header: {violations[0]}")
    return schema


# --- delimited table io ------------------------------------------------------------


def render_csv(table: Table) -> str:
    kinds = [attr.data_type for attr in table.schema.attributes]
    rows: list[list[Cell]] = [header_cells(table.schema)]
    for texts in rows_to_wire(kinds, table.rows):
        # None (null) is the unquoted empty field; empty text is quoted.
        rows.append([("", False) if text is None else (text, text == "") for text in texts])
    return join_delimited(rows)


def iter_csv_rows(
    name: str, text: str, where: Optional[Predicate] = None
) -> tuple[RelationSchema, Iterator[Row]]:
    """Split the text and read the header now; decode each data row only as
    the returned iterator reaches it, so reading the schema decodes none.

    With `where`, rows for which it is not true may be left out, the others
    keep their order. It is used only when it type-checks against the header
    and holds no hash(), whose value depends on the reader's salt."""
    raw_rows = split_delimited(text)
    if not raw_rows:
        raise ValueError("missing header row")
    schema = schema_from_header(name, raw_rows[0])
    decoders = [csv_decoder(attr) for attr in schema.attributes]

    def generate() -> Iterator[Row]:
        for line_number, raw in enumerate(raw_rows[1:], start=2):
            if len(raw) != len(decoders):
                raise ValueError(
                    f"line {line_number}: expected {len(decoders)} fields, got {len(raw)}"
                )
            try:
                row = tuple([decode(cell) for decode, cell in zip(decoders, raw)])
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from None
            yield row

    if where is None or contains_hash_call(where):
        return schema, generate()
    try:
        check_predicate(where, schema)
    except TypeCheckError:
        return schema, generate()

    def generate_selected() -> Iterator[Row]:
        kept = _selected_rows(schema, decoders, raw_rows, where)
        yield from generate() if kept is None else kept

    return schema, generate_selected()


def _selected_rows(
    schema: RelationSchema, decoders: list, raw_rows: list[list[Cell]], where: Predicate
) -> Optional[list[Row]]:
    """The data rows for which `where` is true, in order, decoding only the
    predicate's cells of every other row and checking the rest; None as soon
    as any row or cell would fail to decode."""
    attrs = schema.attributes
    names = predicate_attrs(where)
    test = _compile_predicate(where, {attr.name: p for p, attr in enumerate(attrs)}, "")
    keys = [(p, decoders[p]) for p, attr in enumerate(attrs) if attr.name in names]
    checks = [
        (p, check)
        for p, attr in enumerate(attrs)
        if attr.name not in names and (check := csv_check(attr)) is not None
    ]
    width = len(attrs)
    data = raw_rows[1:]
    # One row buffer for every test: the predicate reads only the cells of
    # its own columns, which each row overwrites.
    probe: list = [None] * width
    kept = []
    try:
        for raw in data:
            if len(raw) != width:
                return None
            for p, decode in keys:
                probe[p] = decode(raw[p])
            if test(probe) is True:
                kept.append(tuple([decode(cell) for decode, cell in zip(decoders, raw)]))
    except ValueError:
        return None
    # Column by column; the kept rows decoded, so checking them again is moot.
    for p, check in checks:
        if not all(map(check, map(itemgetter(p), data))):
            return None
    return kept


def parse_csv(text: str, name: str = "relation") -> Table:
    schema, rows = iter_csv_rows(name, text)
    return Table(schema, list(rows))


# --- json lines -------------------------------------------------------------------


def render_jsonl(table: Table) -> str:
    attrs = table.schema.attributes
    keys = [json.dumps(attr.name, ensure_ascii=False) + ":" for attr in attrs]
    encoders = [jsonl_encoder(attr.data_type) for attr in attrs]
    lines = []
    for row in table.rows:
        fields = ",".join([key + encode(v) for key, encode, v in zip(keys, encoders, row)])
        lines.append("{" + fields + "}")
    return "\n".join(lines) + "\n" if lines else ""


def _classify_scalar(raw: object) -> tuple[Kind, Value]:
    if isinstance(raw, bool):
        return Kind.BOOLEAN, Value.boolean(raw)
    if isinstance(raw, int):
        return Kind.INTEGER, Value.integer(raw)
    if isinstance(raw, Decimal):
        return Kind.DECIMAL, Value.decimal(raw)
    if isinstance(raw, str):
        if TIMESTAMP_RE.match(raw):
            return Kind.TIMESTAMP, Value.timestamp(raw)
        return Kind.TEXT, Value.text(raw)
    raise ValueError(f"unsupported field value {raw!r} (flat scalars only)")


def _widen_to_text(value: Value) -> Value:
    if value.is_null:
        return value
    if value.kind is Kind.TEXT:
        return value
    return Value.text(canonical_text(value))


def parse_jsonl(text: str, name: str = "relation") -> Table:
    """Schema inference over records: union of fields; a kind conflict widens
    the field to nullable text, a missing field makes it nullable."""
    records: list[dict[str, Optional[Value]]] = []
    kinds: dict[str, Optional[Kind]] = {}
    saw_null: dict[str, bool] = {}
    widened: set[str] = set()
    order: list[str] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_float=Decimal)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"line {line_number}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {line_number}: record is not an object")
        record: dict[str, Optional[Value]] = {}
        for field_name, raw in obj.items():
            if not is_identifier(field_name):
                raise ValueError(f"line {line_number}: invalid field name {field_name!r}")
            if field_name not in kinds:
                kinds[field_name] = None
                saw_null[field_name] = False
                order.append(field_name)
            if raw is None:
                saw_null[field_name] = True
                record[field_name] = Value.null()
                continue
            kind, value = _classify_scalar(raw)
            previous = kinds[field_name]
            if previous is None:
                kinds[field_name] = kind
            elif previous is not kind:
                kinds[field_name] = Kind.TEXT
                widened.add(field_name)
            record[field_name] = value
        records.append(record)

    attrs = []
    for field_name in order:
        kind = kinds[field_name] or Kind.TEXT
        nullable = (
            saw_null[field_name]
            or field_name in widened
            or any(field_name not in record for record in records)
        )
        attrs.append(Attribute(field_name, kind, nullable=nullable))
    schema = RelationSchema(name, attrs)

    rows = []
    for record in records:
        row = []
        for attr in schema.attributes:
            value = record.get(attr.name)
            if value is None:
                row.append(Value.null())
            elif attr.data_type is Kind.TEXT:
                row.append(_widen_to_text(value))
            else:
                row.append(value)
        rows.append(tuple(row))
    return Table(schema, rows)


# --- pretty ---------------------------------------------------------------------


def render_pretty(table: Table) -> str:
    """Aligned table for humans; explicitly non-contractual."""
    headers = [text for text, _ in header_cells(table.schema)]
    columns = [[header] for header in headers]
    for row in table.rows:
        for column, value in zip(columns, row):
            column.append(canonical_text(value))
    if not columns:
        return "(no columns)\n"
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row_index in range(len(table.rows)):
        lines.append(
            " | ".join(
                column[row_index + 1].ljust(w) for column, w in zip(columns, widths)
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {"csv": render_csv, "jsonl": render_jsonl, "pretty": render_pretty}


def render_table(table: Table, format: str) -> str:
    """Render in csv, jsonl or pretty with rows sorted by all columns, so
    identical tables produce identical text."""
    return _RENDERERS[format](Table(table.schema, table.sorted_rows()))
