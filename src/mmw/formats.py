"""Table serialization: delimited text, json-lines, human-readable.

Delimited format: UTF-8, comma separator, '"' quoting with "" escaping,
header row of `name:type` cells (a '?' suffix marks nullable attributes).
An unquoted empty field is null; an empty quoted field is empty text. The
stdlib csv module collapses exactly that distinction, so the splitter is
this module's own: one regular expression that matches a cell and the
separator after it. A text with no '"' and no carriage return has neither
quoted cells nor anything to refuse, so it is split on line breaks and
commas by `str.split` instead; the regular expression stays the path for
every other text and the oracle the quick split is tested against. Of a
quote-free text a reader splits the header line at once and the data lines
only when the rows are first asked for, so reading a schema splits no data
line.

json-lines format: one flat JSON object per row, field order = schema
order. Decimals are emitted as raw numeric tokens with a forced '.' so a
reader can tell them from integers; numbers are parsed back with exact
decimal semantics.

Both readers bring a text to one columnar form: the schema, each column's
raw cells (a csv cell as split, a json-lines cell as `json` decoded it) and
one decoder per column. The json-lines reader infers each field's kind,
nullability and widening from its column, checking each cell as a value of
its kind (int64 range, decimal exponent, calendar) without building one.
`_decoded_rows` then builds values only for the rows a read returns: given
a selection predicate it decodes the predicate's columns of every row and
the other cells of the rows it keeps, and a csv read still validates every
cell it does not decode (`relational.TEXT_CHECKS`). A text this pass does
not settle (a ragged row, a refused cell, an extreme decimal exponent, a
json-lines text without fields) goes to its format's reference parser,
`reference_parse_csv` or `reference_parse_jsonl`, which decodes record by
record, is the oracle of the columnar path, and raises each refusal with
its line, so a malformed file fails with the same message either way.

Cells are encoded and decoded by the per-column closures of `mmw.codec`;
this module owns only the text around them: splitting, quoting, headers,
record syntax and json-lines schema inference.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional

from mmw.codec import csv_check, csv_decoder, jsonl_encoder, rows_to_wire
from mmw.errors import TypeCheckError
from mmw.query.ast import Predicate, contains_hash_call, predicate_attrs
from mmw.query.execute import _compile_predicate
from mmw.query.infer import check_predicate
from mmw.relational import (
    INT64_MAX,
    INT64_MIN,
    NULL,
    TEXT_CHECKS,
    TIMESTAMP_RE,
    Attribute,
    Kind,
    RelationSchema,
    Table,
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
    """Read the header now; split and decode the data rows only as the
    returned iterator reaches them, so reading the schema splits no data
    line of a quote-free text and decodes no cell. A text with a quote or a
    carriage return is split whole first, so each of its refusals is raised
    here, before any row.

    With `where`, rows for which it is not true may be left out, the others
    keep their order (see `_decoded_rows`). A text the columnar decode
    refuses is read by `reference_parse_csv`, which raises its error."""
    if '"' in text or "\r" in text:
        raw_rows = regex_split_delimited(text)
        header = raw_rows[0] if raw_rows else None

        def data() -> list[list[Cell]]:
            return raw_rows[1:]
    else:
        end = text.find("\n")
        line = text if end < 0 else text[:end]
        header = [(cell, False) for cell in line.split(",")] if text else None

        def data() -> list[list[Cell]]:
            return split_delimited(text)[1:]

    if header is None:
        raise ValueError("missing header row")
    schema = schema_from_header(name, header)

    def generate() -> Iterator[Row]:
        raw_rows = data()
        attrs = schema.attributes
        rows = None
        if all(len(raw) == len(attrs) for raw in raw_rows):  # else a ragged row
            columns = list(zip(*raw_rows)) or [()] * len(attrs)
            decoders = [csv_decoder(attr) for attr in attrs]
            checks = [(p, check) for p, attr in enumerate(attrs) if (check := csv_check(attr))]
            rows = _decoded_rows(schema, columns, decoders, where, checks)
        yield from reference_parse_csv(text, name).rows if rows is None else rows

    return schema, generate()


def reference_parse_csv(text: str, name: str = "relation") -> Table:
    """The delimited text split by `regex_split_delimited` and decoded row
    by row, each refusal raised with its line: the oracle of
    `iter_csv_rows`, and its path for a text the columnar decode refuses."""
    raw_rows = regex_split_delimited(text)
    if not raw_rows:
        raise ValueError("missing header row")
    schema = schema_from_header(name, raw_rows[0])
    decoders = [csv_decoder(attr) for attr in schema.attributes]
    rows = []
    for line_number, raw in enumerate(raw_rows[1:], start=2):
        if len(raw) != len(decoders):
            raise ValueError(
                f"line {line_number}: expected {len(decoders)} fields, got {len(raw)}"
            )
        try:
            rows.append(tuple([decode(cell) for decode, cell in zip(decoders, raw)]))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from None
    return Table(schema, rows)


def _selection_applies(where: Optional[Predicate], schema: RelationSchema) -> bool:
    """Whether a reader may leave out the rows for which `where` is not
    true: it type-checks against the schema and holds no hash(), whose
    value depends on the reader's salt."""
    if where is None or contains_hash_call(where):
        return False
    try:
        check_predicate(where, schema)
    except TypeCheckError:
        return False
    return True


def _decoded_rows(
    schema: RelationSchema, columns: list, decoders: list, where: Optional[Predicate], checks=()
) -> Optional[list[Row]]:
    """The rows held by `columns`, each column's raw cells, decoded in order
    by `decoders`, one per column; None as soon as a cell fails to decode or
    check. With a `where` the reader may use (`_selection_applies`), only
    the rows for which it is true: it decodes the predicate's columns of
    every row and the other columns of the kept rows, and each
    `(position, check)` of `checks` validates every cell of its column the
    predicate does not read."""
    try:
        if not _selection_applies(where, schema):
            return list(zip(*[list(map(d, column)) for d, column in zip(decoders, columns)]))
        attrs = schema.attributes
        names = predicate_attrs(where)
        keys = {
            p: list(map(decoders[p], columns[p])) for p, attr in enumerate(attrs) if attr.name in names
        }
        for p, check in checks:
            if p not in keys and not all(map(check, columns[p])):
                return None
        test = _compile_predicate(where, {attr.name: p for p, attr in enumerate(attrs)}, "")
        # One row buffer for every test: the predicate reads only the cells
        # of its own columns, which each row overwrites.
        probe: list = [None] * len(attrs)
        kept = []
        for record in range(len(columns[0])):
            for p, values in keys.items():
                probe[p] = values[record]
            if test(probe) is True:
                kept.append(record)
        return list(zip(*[
            [keys[p][r] for r in kept] if p in keys else [decode(column[r]) for r in kept]
            for p, (decode, column) in enumerate(zip(decoders, columns))
        ]))
    except ValueError:
        return None


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


def reference_parse_jsonl(text: str, name: str = "relation") -> Table:
    """Schema inference over records: union of fields; a kind conflict widens
    the field to nullable text, a missing field makes it nullable. Builds a
    `Value` for every cell as it goes: the oracle of `parse_jsonl` and
    `jsonl_schema`, and their path for a text they do not settle."""
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
        except ArithmeticError:  # an exponent no Decimal holds
            raise ValueError(f"line {line_number}: number out of range") from None
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
            try:
                kind, value = _classify_scalar(raw)
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from None
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


_JSONL_DECODER = json.JSONDecoder(parse_float=Decimal)
_NONE_TYPE = type(None)
_TIMESTAMP_CHECK = TEXT_CHECKS[Kind.TIMESTAMP]
# A decimal whose adjusted exponent lies inside this bound normalizes without
# overflow: the context's largest exponent is 999_999, and rounding to its
# precision moves the exponent by one at most.
_SAFE_EXPONENT = 999_000


def _field_kinds(column: list) -> Optional[tuple[set[Kind], bool]]:
    """The kinds of one field's cells and whether a cell is null or missing
    (None), each cell checked as `_classify_scalar` would build it; None for
    a cell it refuses or one not settled cheaply."""
    types = set(map(type, column))
    nullable = _NONE_TYPE in types
    types.discard(_NONE_TYPE)
    kinds: set[Kind] = set()
    for cell_type in types:
        if len(types) == 1 and not nullable:
            cells = column
        else:
            cells = [cell for cell in column if type(cell) is cell_type]
        if cell_type is bool:
            kinds.add(Kind.BOOLEAN)
        elif cell_type is int:
            if min(cells) < INT64_MIN or max(cells) > INT64_MAX:
                return None
            kinds.add(Kind.INTEGER)
        elif cell_type is Decimal:
            exponents = list(map(Decimal.adjusted, cells))
            if min(exponents) <= -_SAFE_EXPONENT or max(exponents) >= _SAFE_EXPONENT:
                return None
            kinds.add(Kind.DECIMAL)
        elif cell_type is str:
            stamps = list(filter(TIMESTAMP_RE.match, cells))
            if not all(map(_TIMESTAMP_CHECK, stamps)):
                return None
            if stamps:
                kinds.add(Kind.TIMESTAMP)
            if len(stamps) < len(cells):
                kinds.add(Kind.TEXT)
        else:
            return None
    return kinds, nullable


_JSONL_VALUES: dict[Kind, Callable[[object], Value]] = {
    Kind.BOOLEAN: Value.boolean,
    Kind.INTEGER: Value.integer,
    Kind.DECIMAL: Value.decimal,
    Kind.TEXT: Value.text,
    Kind.TIMESTAMP: Value.timestamp,
}


def _widened_value(raw: object) -> Value:
    return _widen_to_text(_classify_scalar(raw)[1])


def _jsonl_decoder(kind: Kind, widened: bool) -> Callable[[object], Value]:
    """Decoder of one field's decoded JSON cells, None for null or missing,
    by the factories `reference_parse_jsonl` builds its values with."""
    make = _widened_value if widened else _JSONL_VALUES[kind]
    return lambda raw: NULL if raw is None else make(raw)


def _scan_jsonl(text: str, name: str) -> Optional[tuple[RelationSchema, list[list], list]]:
    """The schema of a json-lines text, each field's cells as JSON decoded
    them (None for null or missing) and each field's decoder, by one pass
    that builds no `Value`; None when a line or cell is one the reference
    refuses or one this pass does not settle, and for a text without fields."""
    decode = _JSONL_DECODER.decode
    records = []
    shapes: dict[tuple, None] = {}  # each record's field names, in order of first sight
    for line in text.splitlines():
        try:
            record = decode(line)
        except (ValueError, RecursionError, ArithmeticError):
            # ArithmeticError: an exponent no Decimal holds; the reference refuses it too.
            if line.strip():
                return None
            continue
        if type(record) is not dict:
            return None
        records.append(record)
        shapes[tuple(record)] = None
    fields = dict.fromkeys(field for shape in shapes for field in shape)
    if not fields or not all(map(is_identifier, fields)):
        return None
    attrs, columns, decoders = [], [], []
    for field in fields:
        column = list(map(dict.get, records, repeat(field)))
        inferred = _field_kinds(column)
        if inferred is None:
            return None
        kinds, nullable = inferred
        widened = len(kinds) > 1
        kind = kinds.pop() if len(kinds) == 1 else Kind.TEXT
        attrs.append(Attribute(field, kind, nullable=nullable or widened))
        columns.append(column)
        decoders.append(_jsonl_decoder(kind, widened))
    return RelationSchema(name, attrs), columns, decoders


def jsonl_schema(text: str, name: str = "relation") -> RelationSchema:
    """The schema `parse_jsonl` reads, by a pass that builds no `Value`."""
    scanned = _scan_jsonl(text, name)
    return reference_parse_jsonl(text, name).schema if scanned is None else scanned[0]


def parse_jsonl(text: str, name: str = "relation", where: Optional[Predicate] = None) -> Table:
    """The table `reference_parse_jsonl` reads, building values only for the
    rows it returns. With `where`, used as `iter_csv_rows` uses it, only the
    predicate's cells of the records it leaves out are decoded."""
    scanned = _scan_jsonl(text, name)
    rows = None if scanned is None else _decoded_rows(*scanned, where)
    if rows is None:
        return reference_parse_jsonl(text, name)
    return Table(scanned[0], rows)


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
