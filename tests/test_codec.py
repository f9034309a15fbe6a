"""The compiled cell codec against the per-cell reference.

Every compiled decoder and encoder in `mmw.codec` must agree with the
reference built here from `relational.value_from_text` and `canonical_text`:
the same Value or text for every input, and where the reference raises, the
same error class and message. Inputs are seeded random values of every kind
plus hostile cells.
"""

from __future__ import annotations

import json
import random
import string
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from mmw.codec import csv_decoder, csv_row_pattern, jsonl_encoder, wire_decoder, wire_encoder
from mmw.errors import ProtocolError
from mmw.formats import parse_csv, parse_jsonl, render_csv, render_jsonl
from mmw.relational import (
    INT64_MAX,
    INT64_MIN,
    MATCHED_READERS,
    Attribute,
    Kind,
    RelationSchema,
    Table,
    Value,
    _decimal_from_text,
    canonical_text,
    value_from_text,
)
from mmw.query.parse import parse_query
from mmw.query.render import render_query
from mmw.runtime.protocol import _encode_line, table_from_response, table_response

SEEDS = (1, 2, 3)
COLUMN_KINDS = tuple(Kind)

HOSTILE_TEXT = [
    # digits outside ASCII
    "١٢٣",
    "１２３",
    "1.５",
    "２０２４-01-01T00:00:00Z",
    "2024-0١-01T00:00:00Z",
    # int64 edges and one past them
    str(INT64_MAX),
    str(INT64_MIN),
    str(INT64_MAX + 1),
    str(INT64_MIN - 1),
    "9" * 40,
    # signs, zeros and exponents
    "-0",
    "-0.0",
    "0.000",
    "007",
    "+1",
    "-",
    "1E+2",
    "1e2",
    "1.",
    ".5",
    " 1",
    "1 ",
    "1\n",
    # over-long decimals
    "1." + "3" * 40,
    "9" * 30 + ".5",
    "-0." + "0" * 30 + "1",
    # clock and calendar fields out of range
    "2024-13-01T00:00:00Z",
    "2024-00-10T00:00:00Z",
    "2024-02-30T00:00:00Z",
    "2023-02-29T00:00:00Z",
    "2024-01-01T24:00:00Z",
    "2024-01-01T23:60:00Z",
    "2024-01-01T23:59:60Z",
    "0000-01-01T00:00:00Z",
    "0001-01-01T00:00:00Z",
    "2024-1-01T00:00:00Z",
    "2024-01-01 00:00:00Z",
    "2024-01-01T00:00:00",
    "2024-01-01T00:00:00z",
    "2024-01-01T00:00:00Z\n",
    "12024-01-01T00:00:00Z",
    # text that needs quoting or escaping
    'say "hi"',
    "a,b",
    "line\nbreak",
    "cr\rx",
    '"',
    "",
    "true",
    "false",
    "True",
    "null",
]

HOSTILE_CELLS = HOSTILE_TEXT + [None, True, False, 0, 1, -1, 2**63, 1.5, 1e20, [1], ["1"], {}, {"a": 1}]


def random_value(rng: random.Random, kind: Kind) -> Value:
    if kind is Kind.NULL:
        return Value.null()
    if kind is Kind.BOOLEAN:
        return Value.boolean(rng.random() < 0.5)
    if kind is Kind.INTEGER:
        return Value.integer(
            rng.choice([rng.randint(-100, 100), rng.randint(INT64_MIN, INT64_MAX), INT64_MIN, INT64_MAX])
        )
    if kind is Kind.DECIMAL:
        digits = rng.randint(-10**12, 10**12)
        return Value.decimal(Decimal(digits).scaleb(rng.randint(-14, 6)))
    if kind is Kind.TEXT:
        alphabet = string.ascii_letters + string.digits + ' ,"\n\r-:.é１😀\x85\u2028\u2029'
        return Value.text("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))))
    moment = datetime(
        rng.randint(1, 9999), rng.randint(1, 12), rng.randint(1, 28),
        rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59), tzinfo=timezone.utc,
    )
    return Value.timestamp(moment)


def random_values(per_kind: int = 60) -> list[Value]:
    """Values of every kind, so each column also meets values of the others."""
    values = []
    for seed in SEEDS:
        rng = random.Random(seed)
        values += [random_value(rng, kind) for kind in COLUMN_KINDS for _ in range(per_kind)]
    return values


def decode_cells() -> list:
    """Canonical texts of values of every kind, then the hostile cells."""
    return [canonical_text(value) for value in random_values(20)] + HOSTILE_CELLS


# --- the reference, one cell at a time --------------------------------------------


def reference_wire_decode(kind: Kind, cell) -> Value:
    if cell is None:
        return Value.null()
    if isinstance(cell, bool):
        cell = "true" if cell else "false"
    elif isinstance(cell, (int, float)):
        cell = repr(cell)
    elif not isinstance(cell, str):
        raise ProtocolError(f"bad cell for {kind}: expected a scalar, got {type(cell).__name__}")
    try:
        return value_from_text(kind, cell)
    except ValueError as exc:
        raise ProtocolError(f"bad cell for {kind}: {exc}") from None


def reference_csv_decode(attr: Attribute, cell: tuple[str, bool]) -> Value:
    text, quoted = cell
    if text == "" and not quoted:
        if attr.nullable:
            return Value.null()
        if attr.data_type is Kind.TEXT:
            return Value.text("")
        raise ValueError(f"empty field for non-nullable {attr.name!r}")
    return value_from_text(attr.data_type, text)


def reference_wire_encode(value: Value):
    return None if value.is_null else canonical_text(value)


def reference_csv_field(value: Value) -> str:
    if value.is_null:
        return ""
    text = canonical_text(value)
    if text == "" or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_jsonl_token(value: Value) -> str:
    if value.is_null:
        return "null"
    text = canonical_text(value)
    if value.kind is Kind.DECIMAL:
        return text if "." in text else text + ".0"
    if value.kind in (Kind.TEXT, Kind.TIMESTAMP):
        # str.splitlines breaks a line at these, so a written line escapes them.
        token = json.dumps(text, ensure_ascii=False)
        for separator in "\x85\u2028\u2029":
            token = token.replace(separator, f"\\u{ord(separator):04x}")
        return token
    return text


def outcome(function, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return ("value", function(*args))
    except Exception as exc:  # the class is part of what is compared
        return ("raises", type(exc), str(exc))


def same(result, expected) -> bool:
    # Values compare by payload repr too: Value equality alone holds between
    # Decimal("1.50") and Decimal("1.5"), which render differently.
    if result[0] == expected[0] == "value":
        return exact(result[1]) == exact(expected[1])
    return result == expected


def exact(value: Value):
    return value.kind, type(value.payload), repr(value.payload)


# --- differential tests ------------------------------------------------------------


@pytest.mark.parametrize("kind", COLUMN_KINDS, ids=str)
class TestAgainstReference:
    def test_wire_decoder(self, kind):
        decode = wire_decoder(kind)
        for cell in decode_cells():
            expected = outcome(reference_wire_decode, kind, cell)
            assert same(outcome(decode, cell), expected), (kind, cell)

    @pytest.mark.parametrize("nullable", (False, True))
    def test_csv_decoder(self, kind, nullable):
        attr = Attribute("col", kind, nullable=nullable)
        decode = csv_decoder(attr)
        for text in decode_cells():
            if not isinstance(text, str):
                continue
            for cell in ((text, False), (text, True)):
                expected = outcome(reference_csv_decode, attr, cell)
                assert same(outcome(decode, cell), expected), (kind, cell)

    def test_wire_encoder(self, kind):
        encode = wire_encoder(kind)
        for value in random_values():
            assert outcome(encode, value) == outcome(reference_wire_encode, value), (kind, value)

    def test_csv_encoder(self, kind):
        schema = RelationSchema("r", [Attribute("col", kind, nullable=True)])
        header = render_csv(Table(schema, []))
        for value in random_values():
            assert render_csv(Table(schema, [(value,)])) == header + reference_csv_field(value) + "\n"

    def test_jsonl_encoder(self, kind):
        encode = jsonl_encoder(kind)
        for value in random_values():
            assert outcome(encode, value) == outcome(reference_jsonl_token, value), (kind, value)


# --- pinned outcomes -----------------------------------------------------------------
#
# The codec and the reference share the per-kind readers and renderers, so a
# fault there shows in both; these outcomes are pinned instead.

PINNED_WIRE_DECODES = [
    (Kind.INTEGER, str(INT64_MAX), Value.integer(INT64_MAX)),
    (Kind.INTEGER, str(INT64_MIN), Value.integer(INT64_MIN)),
    (Kind.INTEGER, "-0", Value.integer(0)),
    (Kind.INTEGER, 7, Value.integer(7)),
    (Kind.INTEGER, str(INT64_MAX + 1), f"integer out of 64-bit range: {INT64_MAX + 1}"),
    (Kind.INTEGER, str(INT64_MIN - 1), f"integer out of 64-bit range: {INT64_MIN - 1}"),
    (Kind.INTEGER, "１２３", "not an integer rendering: '１２３'"),
    (Kind.INTEGER, [1], "expected a scalar, got list"),
    (Kind.DECIMAL, "1.50", Value.decimal("1.5")),
    (Kind.DECIMAL, "-0.0", Value.decimal("0")),
    (Kind.DECIMAL, "1E+2", "not a decimal rendering: '1E+2'"),
    (Kind.DECIMAL, {"a": 1}, "expected a scalar, got dict"),
    (Kind.TEXT, "", Value.text("")),
    (Kind.TEXT, None, Value.null()),
    (Kind.TIMESTAMP, "0005-01-01T00:00:00Z",
     Value.timestamp(datetime(5, 1, 1, tzinfo=timezone.utc))),
    (Kind.TIMESTAMP, "2024-01-01T24:00:00Z", "hour must be in 0..23"),
    (Kind.TIMESTAMP, "2024-13-01T00:00:00Z", "month must be in 1..12"),
    (Kind.TIMESTAMP, "２０２４-01-01T00:00:00Z", "not a timestamp: '２０２４-01-01T00:00:00Z'"),
]

PINNED_WIRE_ENCODES = [
    (Kind.INTEGER, Value.decimal("1E+2"), "100"),
    (Kind.TEXT, Value.integer(5), "5"),
    (Kind.TEXT, Value.null(), None),
    (Kind.DECIMAL, Value.text("x"), "x"),
    (Kind.TIMESTAMP, Value.timestamp(datetime(999, 2, 3, 4, 5, 6, tzinfo=timezone.utc)),
     "0999-02-03T04:05:06Z"),
]

PINNED_JSONL_TOKENS = [
    (Kind.INTEGER, Value.decimal("100"), "100.0"),
    (Kind.DECIMAL, Value.integer(3), "3"),
    (Kind.TEXT, Value.integer(3), "3"),
    (Kind.TEXT, Value.text('a"\n'), '"a\\"\\n"'),
    (Kind.TEXT, Value.text("a\x85\u2028\u2029"), '"a\\u0085\\u2028\\u2029"'),
    (Kind.INTEGER, Value.text("7"), '"7"'),
    (Kind.BOOLEAN, Value.null(), "null"),
]


class TestPinned:
    @pytest.mark.parametrize("kind,cell,expected", PINNED_WIRE_DECODES)
    def test_wire_decode(self, kind, cell, expected):
        if isinstance(expected, Value):
            assert exact(wire_decoder(kind)(cell)) == exact(expected)
        else:
            with pytest.raises(ProtocolError) as caught:
                wire_decoder(kind)(cell)
            assert str(caught.value) == f"bad cell for {kind}: {expected}"

    @pytest.mark.parametrize("kind,value,expected", PINNED_WIRE_ENCODES)
    def test_wire_encode(self, kind, value, expected):
        assert wire_encoder(kind)(value) == expected

    @pytest.mark.parametrize("kind,value,expected", PINNED_JSONL_TOKENS)
    def test_jsonl_token(self, kind, value, expected):
        assert jsonl_encoder(kind)(value) == expected


# --- years before 1000 --------------------------------------------------------------

EARLY_YEARS = (1, 5, 999, 1000, 9999)
STAMPS = RelationSchema(
    "stamps", [Attribute("id", Kind.INTEGER), Attribute("at", Kind.TIMESTAMP)]
)


# Cells a row pattern may refuse although they decode, and calendar edges.
PATTERN_EDGE_CELLS = [
    "1000000000000000000", "-9223372036854775808", "9223372036854775807",
    "9223372036854775808", "-0", "007", "9" * 1000 + "." + "9" * 1000, "9" * 1001, "1.",
    "2024-02-29T00:00:00Z", "2023-02-29T00:00:00Z", "1900-02-29T00:00:00Z",
    "2000-02-29T00:00:00Z", "2024-04-31T00:00:00Z", "2024-12-31T23:59:59Z",
    "0000-01-01T00:00:00Z", "true", "false", "TRUE", "", " ",
]


@pytest.mark.parametrize("kind", [kind for kind in Kind if kind is not Kind.NULL], ids=str)
@pytest.mark.parametrize("nullable", (False, True))
def test_csv_row_pattern_accepts_only_cells_the_decoder_decodes(kind, nullable):
    # No header declares a null column, so no row pattern has one.
    attr = Attribute("col", kind, nullable=nullable)
    pattern = csv_row_pattern((attr, attr))
    decode = csv_decoder(attr)
    accepted = 0
    for text in decode_cells() + PATTERN_EDGE_CELLS:
        if not isinstance(text, str) or any(c in text for c in ',"\r\n'):
            continue
        if pattern.fullmatch(f"{text},{text}") is None:
            continue
        assert outcome(decode, (text, False))[0] == "value", (kind, nullable, text)
        accepted += 1
    assert accepted > 20


def test_the_matched_decimal_reader_equals_the_full_reader_on_matched_texts():
    rng = random.Random(9)
    read = MATCHED_READERS[Kind.DECIMAL]
    pattern = csv_row_pattern((Attribute("d", Kind.DECIMAL),))
    texts = PATTERN_EDGE_CELLS + ["-0.000", "0.0", "00012.5000", "-" + "9" * 40 + ".5", "1." + "0" * 999]
    for _ in range(2000):
        whole = "".join(rng.choice("0123456789") for _ in range(rng.choice((1, 2, 5, 31, 1000))))
        point = "." + "".join(rng.choice("09") for _ in range(rng.randint(1, 40))) if rng.random() < 0.7 else ""
        texts.append(rng.choice(("", "-")) + whole + point)
    matched = [text for text in texts if pattern.fullmatch(text)]
    assert len(matched) > 1900
    for text in matched:
        got, expected = read(text), _decimal_from_text(text)
        assert (got.kind, type(got.payload), str(got.payload)) == (
            expected.kind, type(expected.payload), str(expected.payload)
        ), text


def stamp_table() -> Table:
    return Table(
        STAMPS,
        [
            (Value.integer(year), Value.timestamp(datetime(year, 1, 2, 3, 4, 5, tzinfo=timezone.utc)))
            for year in EARLY_YEARS
        ],
    )


class TestEarlyYears:
    def test_canonical_text_pads_the_year(self):
        table = stamp_table()
        texts = [canonical_text(row[1]) for row in table.rows]
        assert texts == [f"{year:04d}-01-02T03:04:05Z" for year in EARLY_YEARS]
        for row, text in zip(table.rows, texts):
            assert value_from_text(Kind.TIMESTAMP, text) == row[1]

    def test_csv_round_trip(self):
        table = stamp_table()
        text = render_csv(table)
        assert "\n5,0005-01-02T03:04:05Z\n" in text
        assert parse_csv(text, "stamps") == table

    def test_jsonl_round_trip(self):
        table = stamp_table()
        text = render_jsonl(table)
        assert '"at":"0001-01-02T03:04:05Z"' in text
        assert parse_jsonl(text, "stamps") == table

    def test_wire_round_trip(self):
        table = stamp_table()
        response = json.loads(_encode_line(table_response(table)))
        assert ["999", "0999-01-02T03:04:05Z"] in response["rows"]
        assert table_from_response(response, "stamps") == table

    def test_query_literal_round_trip(self):
        # Every hop renders the query it forwards and the next one parses it.
        for year in EARLY_YEARS:
            query = parse_query(f"SELECT * FROM w.r WHERE at = TIMESTAMP '{year:04d}-01-02T03:04:05Z'")
            assert parse_query(render_query(query)) == query
