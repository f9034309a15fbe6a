"""Table serialization: delimited text, json-lines, human-readable.

Delimited format: UTF-8, comma separator, '"' quoting with "" escaping,
header row of `name:type` cells (a '?' suffix marks nullable attributes).
An unquoted empty field is null; an empty quoted field is empty text. The
stdlib csv module collapses exactly that distinction, so the splitter is
this module's own: one regular expression that matches a cell and the
separator after it (`split_delimited`).

json-lines format: one flat JSON object per row, field order = schema
order. Decimals are emitted as raw numeric tokens with a forced '.' so a
reader can tell them from integers; numbers are parsed back with exact
decimal semantics.

A delimited text is read one of two ways, and its header is read at once
either way, so reading a schema decodes no cell. A text with no '"' and no
carriage return is read by `_matched_rows`: a `fullmatch` of the header's
row pattern (`codec.csv_row_pattern`) on each data line settles the arity
of every line and the validity of every cell, so no cell is checked one
by one. With a selection predicate it then cuts the predicate's columns
out of the lines as bare payloads (`relational.MATCHED_PAYLOADS`: an
`int`, a `Decimal`, a `datetime`, the text itself, None for null), tests
the predicate on them (`query.execute._compile_payload_predicate`), and
splits and decodes only the lines it keeps, every cell of them (late
materialization: Abadi, Myers, DeWitt and Madden, ICDE 2007); without one
it decodes every column. The pattern is matched line by line, not once
over the whole text: one match of a repeated row keeps the engine's
backtracking state for every cell until it ends, about 27 bytes per byte
of text, more than a full decode holds.
Every other text, one with a quoted cell or a carriage return, one of
more than `codec.PATTERN_FIELDS` columns, which gets no pattern, or one the
pattern refuses (a ragged or blank line, a nineteen-digit integer), is
read by the reference parser `reference_parse_csv`, which decodes row by
row and raises each refusal with its line. A text with a quote or a
carriage return is split whole when its header is read, so its split
errors are raised before any row.

The json-lines reader is one of two. It decodes the first line, and
later lines only until each of the first record's fields has a non-null
cell, and from the first record's field order and each field's first
non-null kind builds one record pattern (`codec.jsonl_record_pattern`):
each field's JSON token or null, with no escape in a string, an integer of
at most eighteen digits and a decimal exponent of at most five; a field
null in every line takes null alone. When that pattern `fullmatch`es every
line, the matches settle the schema with no other line decoded: every
record has the first record's fields in its order, and every cell is a
valid value of its field's kind, or null. Each cell is then its matched
text, read by `relational.MATCHED_READERS` and `MATCHED_PAYLOADS` as a
quote-free csv cell is (Mison, Li et al., VLDB 2017, speculates on a
repeated field order the same way), and `_decoded_rows` builds values
only for the rows a read returns: given a selection predicate it tests it
on the payloads of the predicate's fields and decodes the records it
keeps and no other. A text whose first record has more than
`codec.PATTERN_FIELDS` fields gets no pattern; it and a text the pattern
refuses anywhere (another field order, a missing or repeated key, an
escape, a widened field, a blank line, a refused cell) go to
`reference_parse_jsonl`, which decodes
record by record, is the pattern's oracle, and raises each refusal with
its line, so a malformed file fails with the same message either way.

A text either pattern settled keeps an image under its exact text, in one
process-wide `mmw.kept.Kept` store (`_IMAGES`) of at most IMAGE_TEXT_CHARS
characters of text, none longer than an eighth of that, evicted least
recently used first: a delimited text's line offsets, a
json-lines text's schema attributes and matched cells, and, from the first
read that tests them, the payloads of each column a selection reads. A
later read of the same text matches no line and cuts no column it has cut
before (a positional map of a raw file, as NoDB keeps one: Alagiannis et
al., SIGMOD 2012). Every read still reads the file and its key is the
whole text, so an image is never stale. A refused text keeps nothing and
goes to its reference parser every time.

Cells are encoded and decoded by the per-column closures of `mmw.codec`;
this module owns only the text around them: splitting, quoting, headers,
record syntax and json-lines schema inference.
"""

from __future__ import annotations

import json
import re
from array import array
from decimal import Decimal
from functools import lru_cache
from itertools import accumulate, compress
from typing import Callable, Iterable, Iterator, Optional

from mmw.codec import (
    PATTERN_FIELDS,
    csv_decoder,
    csv_row_pattern,
    jsonl_encoder,
    jsonl_record_pattern,
    matched_decoder,
    rows_to_wire,
)
from mmw.errors import TypeCheckError
from mmw.kept import Kept
from mmw.query.ast import Predicate, contains_hash_call, predicate_attrs
from mmw.query.execute import _compile_payload_predicate
from mmw.query.infer import check_predicate
from mmw.relational import (
    EXACT_TIMESTAMP_RE,
    MATCHED_PAYLOADS,
    MATCHED_READERS,
    NULL,
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


@lru_cache(maxsize=64)
def schema_from_header(name: str, cells: tuple[str, ...]) -> RelationSchema:
    """The schema of relation `name` declared by its header's cell texts;
    raises ValueError on a malformed header. Kept per distinct header, as
    relations' headers rarely change between loads; an error is not kept."""
    attrs = []
    for text in cells:
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


# --- images of settled texts ---------------------------------------------------------

# The most characters of text the kept images' keys hold in all, in one
# process; a text longer than an eighth of it is never kept.
IMAGE_TEXT_CHARS = 1 << 20


def _image_store(budget: int = IMAGE_TEXT_CHARS) -> Kept:
    """A map from (format, exact text) to the image a reader built of a text
    its fast path settled, sized by the text's length: at most `budget`
    characters in all, least recently used first out, and no text longer
    than an eighth of it. The key is the whole text just read, so an image
    is served for no other text and is never stale."""
    return Kept(budget=budget, largest=budget // 8)


_IMAGES = _image_store()


class _RowImage:
    """What `_matched_rows` keeps of a text whose data lines all matched its
    row pattern: `bounds`, the offset of the first data line and then the
    running sum of the data lines' lengths (`array('q')`), so that data
    line r is `text[bounds[r] + r : bounds[r + 1] + r]`, past the r line
    breaks before it; and the payload column (`_payload_column`) of each
    column position a selection tested."""

    __slots__ = ("bounds", "payloads")

    def __init__(self, bounds: array):
        self.bounds = bounds
        self.payloads: dict[int, list] = {}


class _RecordImage:
    """What `_scan_jsonl` keeps of a text its record pattern matched: the
    schema's attributes, each field's matched cell texts (None for null),
    and the payload column of each field position a selection tested."""

    __slots__ = ("attributes", "columns", "payloads")

    def __init__(self, attributes: tuple[Attribute, ...], columns: list):
        self.attributes = attributes
        self.columns = columns
        self.payloads: dict[int, list] = {}


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
    returned iterator reaches them, so reading the schema decodes no cell.
    A text with a quote or a carriage return is split whole first, so each
    of its refusals is raised here, before any row, and its rows are
    decoded by the reference parser's own loop.

    A quote-free text is read by `_matched_rows`. With `where`, rows for
    which it is not true may be left out, the others keep their order."""
    if '"' in text or "\r" in text:
        raw_rows = split_delimited(text)  # a row at least, as the text is not empty
        schema = schema_from_header(name, tuple([cell for cell, _ in raw_rows[0]]))
        return schema, _reference_rows(schema, raw_rows)
    if not text:
        raise ValueError("missing header row")
    end = text.find("\n")
    line = text if end < 0 else text[:end]
    schema = schema_from_header(name, tuple(line.split(",")))
    return schema, _matched_rows(schema, text, len(text) if end < 0 else end + 1, where)


def reference_parse_csv(text: str, name: str = "relation") -> Table:
    """The delimited text split by `split_delimited` and decoded row by
    row, each refusal raised with its line: the oracle of `iter_csv_rows`,
    and its path for every text `_matched_rows` does not settle."""
    raw_rows = split_delimited(text)
    if not raw_rows:
        raise ValueError("missing header row")
    schema = schema_from_header(name, tuple([cell for cell, _ in raw_rows[0]]))
    return Table(schema, _reference_rows(schema, raw_rows))


def _reference_rows(schema: RelationSchema, raw_rows: list[list[Cell]]) -> Iterator[Row]:
    """The data rows of `raw_rows`, a split delimited text whose first row
    is its header, decoded one by one; a ragged row or a refused cell
    raises ValueError naming its line."""
    decoders = [csv_decoder(attr) for attr in schema.attributes]
    for line_number, raw in enumerate(raw_rows[1:], start=2):
        if len(raw) != len(decoders):
            raise ValueError(
                f"line {line_number}: expected {len(decoders)} fields, got {len(raw)}"
            )
        try:
            yield tuple([decode(cell) for decode, cell in zip(decoders, raw)])
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from None


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


def _kept(where: Predicate, schema: RelationSchema, columns: dict, count: int) -> list[int]:
    """The positions, in order, of the `count` records for which `where`,
    one `_selection_applies` admits, is true, given `columns`, the payloads
    of every column it reads by name (`_compile_payload_predicate`)."""
    return list(compress(range(count), _compile_payload_predicate(where, schema)(columns, count)))


def _payload_column(attr: Attribute, cells: list[str]) -> list:
    """The payloads of the cell texts of column `attr` in lines the row
    pattern has matched: those the column's matched decoder wraps, None for
    null."""
    read = MATCHED_PAYLOADS[attr.data_type]
    if attr.nullable:
        return [read(cell) if cell else None for cell in cells]
    # Only a text column's pattern allows an empty cell here: empty text.
    return list(map(read, cells))


def _matched_rows(
    schema: RelationSchema, text: str, start: int, where: Optional[Predicate]
) -> Iterator[Row]:
    """The rows of the data lines of a quote-free delimited text, which
    begin at offset `start`; those of `reference_parse_csv`, which raises
    its error, unless the schema has at most `PATTERN_FIELDS` attributes
    and `csv_row_pattern` of the schema matches every line.
    On a match every cell is known to decode, so no cell is checked, and
    `codec.matched_decoder` reads each without the checks the match made.
    With a `where` the reader may use (`_selection_applies`) it yields only
    the rows for which it is true: it cuts out the predicate's columns
    alone, tests `where` on their payloads (`relational.MATCHED_PAYLOADS`),
    and splits and decodes only the lines it keeps. Without one it decodes
    every column.

    A text the pattern matched keeps a `_RowImage` under its exact text, so
    a later read of the same text matches no line and cuts no column it
    has cut before: it slices the kept lines alone by their bounds."""
    attrs = schema.attributes
    if len(attrs) > PATTERN_FIELDS:
        yield from reference_parse_csv(text, schema.name).rows
        return
    image = _IMAGES.get(("csv", text))
    lines = None
    if image is None:
        lines = _data_lines(text, start)
        if not all(map(csv_row_pattern(attrs).fullmatch, lines)):
            yield from reference_parse_csv(text, schema.name).rows
            return
        # From a list: an array built from an iterator grows item by item.
        image = _RowImage(array("q", list(accumulate(map(len, lines), initial=start))))
        _IMAGES.put(("csv", text), image, len(text))
    decoders = [matched_decoder(attr) for attr in attrs]
    if not _selection_applies(where, schema):
        columns = zip(*[line.split(",") for line in lines or _data_lines(text, start)])
        yield from zip(*[list(map(decode, column)) for decode, column in zip(decoders, columns)])
        return
    names = predicate_attrs(where)
    tested = {}
    for p, attr in enumerate(attrs):
        if attr.name not in names:
            continue
        column = image.payloads.get(p)
        if column is None:
            if lines is None:
                lines = _data_lines(text, start)
            column = _payload_column(attr, [line.split(",", p + 1)[p] for line in lines])
            image.payloads[p] = column
        tested[attr.name] = column
    bounds = image.bounds
    for r in _kept(where, schema, tested, len(bounds) - 1):
        line = text[bounds[r] + r : bounds[r + 1] + r]
        yield tuple([decode(cell) for decode, cell in zip(decoders, line.split(","))])


def _data_lines(text: str, start: int) -> list[str]:
    """The lines of `text` from offset `start`, without their line breaks."""
    lines = text[start:].split("\n")
    if lines[-1] == "":  # after a final line break there is no last row
        lines.pop()
    return lines


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


def _or_null(make: Callable[[str], Value]) -> Callable[[Optional[str]], Value]:
    """Decoder of one json-lines field's matched cell texts by `make`, None
    for null."""
    return lambda text: NULL if text is None else make(text)


def _decoded_rows(
    schema: RelationSchema, image: _RecordImage, where: Optional[Predicate]
) -> list[Row]:
    """The records held by `image.columns`, each json-lines field's matched
    cell texts (None for null), decoded in order by the readers of their
    fields' kinds (`relational.MATCHED_READERS`). With a `where` the reader
    may use (`_selection_applies`), only the records for which it is true:
    it tests `where` on the payloads of the fields it reads
    (`relational.MATCHED_PAYLOADS`; a text cell is its own payload), kept in
    the image from the first read that tests them, and decodes the kept
    records alone."""
    columns = image.columns
    readers = [_or_null(MATCHED_READERS[attr.data_type]) for attr in schema.attributes]
    if not _selection_applies(where, schema):
        return list(zip(*[list(map(read, column)) for read, column in zip(readers, columns)]))
    names = predicate_attrs(where)
    tested = {}
    for p, (attr, column) in enumerate(zip(schema.attributes, columns)):
        if attr.name not in names:
            continue
        if attr.data_type is not Kind.TEXT:
            payloads = image.payloads.get(p)
            if payloads is None:
                payload = MATCHED_PAYLOADS[attr.data_type]
                payloads = [None if cell is None else payload(cell) for cell in column]
                image.payloads[p] = payloads
            column = payloads
        tested[attr.name] = column
    kept = _kept(where, schema, tested, len(columns[0]))
    return list(zip(*[[read(column[r]) for r in kept] for read, column in zip(readers, columns)]))


# The kind a decoded JSON cell gives its field in a record pattern.
_RECORD_KINDS = {bool: Kind.BOOLEAN, int: Kind.INTEGER, Decimal: Kind.DECIMAL, str: Kind.TEXT}


def _record_fields(lines: list[str]) -> Optional[tuple[tuple[str, Kind], ...]]:
    """Each field of the record on the first of `lines`, in order, with the
    kind of its first non-null cell, a string that is an exact timestamp a
    TIMESTAMP, and NULL for a field null in every line: the fields of their
    record pattern (`codec.jsonl_record_pattern`). Lines are decoded only
    until every field has a kind, so one line when the first record has no
    null. None when a line decoded is no record of scalar cells, or the
    first no record of named fields."""
    kinds: dict[str, Optional[Kind]] = {}
    for line in lines:
        try:
            record = _JSONL_DECODER.decode(line)
        except (ValueError, RecursionError, ArithmeticError):
            return None
        if type(record) is not dict:
            return None
        if not kinds:
            if not record or not all(map(is_identifier, record)):
                return None
            kinds = dict.fromkeys(record)
        for field, kind in kinds.items():
            cell = record.get(field)
            if kind is not None or cell is None:
                continue
            kind = _RECORD_KINDS.get(type(cell))
            if kind is None:
                return None
            if kind is Kind.TEXT and EXACT_TIMESTAMP_RE.fullmatch(cell):
                kind = Kind.TIMESTAMP
            kinds[field] = kind
        if None not in kinds.values():
            break
    return tuple([(field, kind or Kind.NULL) for field, kind in kinds.items()]) or None


def _matched_records(lines: list[str]) -> Optional[tuple[tuple[tuple[str, Kind], ...], list]]:
    """The fields of the first of `lines` with their kinds
    (`_record_fields`) and each field's cell texts, None for null, when
    there are at most `PATTERN_FIELDS` fields and the record pattern of
    those fields matches every line; None otherwise."""
    fields = _record_fields(lines)
    if fields is None or len(fields) > PATTERN_FIELDS:
        return None
    matches = list(map(jsonl_record_pattern(fields).fullmatch, lines))
    if not all(matches):
        return None
    return fields, list(zip(*map(re.Match.groups, matches)))


def _scan_jsonl(text: str, name: str) -> Optional[tuple[RelationSchema, _RecordImage]]:
    """The schema of a json-lines text and its `_RecordImage`, by a pass
    that builds no `Value`, when the record pattern of its first record
    matches every line (`_matched_records`); None otherwise. A field null in
    every record is nullable text, as the reference reads it. The image is
    kept under the exact text, so a later scan of the same text matches no
    line."""
    image = _IMAGES.get(("jsonl", text))
    if image is None:
        matched = _matched_records(text.splitlines())
        if matched is None:
            return None
        fields, columns = matched
        attrs = tuple([
            Attribute(field, Kind.TEXT if kind is Kind.NULL else kind, nullable=None in column)
            for (field, kind), column in zip(fields, columns)
        ])
        image = _RecordImage(attrs, columns)
        _IMAGES.put(("jsonl", text), image, len(text))
    return RelationSchema(name, image.attributes), image


def jsonl_schema(text: str, name: str = "relation") -> RelationSchema:
    """The schema `parse_jsonl` reads, by a pass that builds no `Value` when
    the record pattern settles the text."""
    scanned = _scan_jsonl(text, name)
    return reference_parse_jsonl(text, name).schema if scanned is None else scanned[0]


def parse_jsonl(text: str, name: str = "relation", where: Optional[Predicate] = None) -> Table:
    """The table `reference_parse_jsonl` reads, building values only for the
    rows it returns when the record pattern settles the text. With `where`,
    used as `iter_csv_rows` uses it, the records it leaves out are tested on
    payloads and never decoded."""
    scanned = _scan_jsonl(text, name)
    if scanned is None:
        return reference_parse_jsonl(text, name)
    schema, image = scanned
    return Table(schema, _decoded_rows(schema, image, where))


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
