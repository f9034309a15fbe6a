"""Delimited / json-lines / pretty serialization and round-trips."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import mmw.formats
from mmw.formats import (
    iter_csv_rows,
    join_delimited,
    jsonl_schema,
    parse_csv,
    parse_jsonl,
    reference_parse_csv,
    reference_parse_jsonl,
    render_csv,
    render_jsonl,
    render_pretty,
    schema_from_header,
    split_delimited,
)
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value, bag_equal
from support import random_jsonl, random_row, random_schema

MIXED = RelationSchema(
    "mixed",
    [
        Attribute("i", Kind.INTEGER),
        Attribute("d", Kind.DECIMAL, nullable=True),
        Attribute("t", Kind.TEXT, nullable=True),
        Attribute("b", Kind.BOOLEAN),
        Attribute("ts", Kind.TIMESTAMP),
    ],
)

ROWS = [
    (
        Value.integer(1),
        Value.decimal("2.50"),
        Value.text('he said "hi", then\nleft'),
        Value.boolean(True),
        Value.timestamp("2024-03-01T12:00:05Z"),
    ),
    (
        Value.integer(-7),
        Value.null(),
        Value.text(""),
        Value.boolean(False),
        Value.timestamp("2023-01-01T00:00:00Z"),
    ),
    (
        Value.integer(0),
        Value.decimal("42"),
        Value.null(),
        Value.boolean(True),
        Value.timestamp("2024-12-31T23:59:59Z"),
    ),
]


class TestDelimitedLowLevel:
    def test_quoted_empty_differs_from_bare_empty(self):
        rows = split_delimited('a,"",b\n,,\n')
        assert rows[0] == [("a", False), ("", True), ("b", False)]
        assert rows[1] == [("", False), ("", False), ("", False)]

    def test_quote_escaping(self):
        assert split_delimited('"say ""hi""",x\n') == [[('say "hi"', True), ("x", False)]]

    def test_embedded_newline_and_comma(self):
        assert split_delimited('"a,b\nc",d\n') == [[("a,b\nc", True), ("d", False)]]

    def test_join_round_trips(self):
        rows = [[("a,b", False), ("", True)], [("plain", False), ('q"q', False)]]
        assert split_delimited(join_delimited(rows)) == [
            [("a,b", True), ("", True)],
            [("plain", False), ('q"q', True)],
        ]

    def test_unterminated_quote(self):
        with pytest.raises(ValueError):
            split_delimited('"abc\n')

    @pytest.mark.parametrize(
        "text,rows",
        [
            ('"ab"cd,e', [[("abcd", True), ("e", False)]]),
            ('a\r\n"x\ry"\r\n', [[("a", False)], [("x\ry", True)]]),
            ("\n", [[("", False)]]),
            ("a,", [[("a", False), ("", False)]]),
            ("", []),
            ("\n\n", [[("", False)], [("", False)]]),
            ("a\n\nb\n", [[("a", False)], [("", False)], [("b", False)]]),
            (",,\n,", [[("", False)] * 3, [("", False)] * 2]),
            # Only \n ends a row; the other line breaks of str.splitlines are cell text.
            (
                "é,\x0b\x0c\x1c\u2028,x\n",
                [[("é", False), ("\x0b\x0c\x1c\u2028", False), ("x", False)]],
            ),
        ],
    )
    def test_split_cases(self, text, rows):
        assert split_delimited(text) == rows

    @pytest.mark.parametrize(
        "text,message",
        [
            ('a,b"c', "stray quote inside unquoted field at offset 3"),
            ('"a"b"', "stray quote inside unquoted field at offset 4"),
            ("a\rb", "bare carriage return at offset 1"),
            ('"a""b', "unterminated quoted field"),
            ('a,"b', "unterminated quoted field"),
        ],
    )
    def test_split_errors(self, text, message):
        with pytest.raises(ValueError) as err:
            split_delimited(text)
        assert str(err.value) == message


def _read_outcome(read, text):
    try:
        return read(text, "t").rows
    except ValueError as exc:
        return f"ValueError: {exc}"


# One text column, three nullable text columns, and a typed pair: a data
# line is read under each, so the same body is well formed under one and
# ragged or ill-typed under another.
_EDGE_HEADERS = ["a:text", "a:text?,b:text?,c:text?", "i:integer?,t:text"]


class TestQuoteFreeRead:
    """parse_csv reads a text with no quote and no carriage return by the
    row pattern and `str.split`, and hands every other text, and every
    quote-free text the pattern refuses, to `reference_parse_csv`: its rows
    or its error are the reference's."""

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", "\n\n", "a", "a\n", "a\n\n", "\na", "a\n\nb\n", ",", ",\n", ",,\n,",
            "a,,b\n,c,\n", "é,\x0b\x0c\x1c\u2028,x\n",
            # The quote-free path must not be taken on these.
            'a"b\n', '"a,b"\n', '"\n', '"', 'a,"b', '"a""b', "a\r\nb\r\n", "a\rb", "\r",
        ],
    )
    def test_matches_the_reference_parser_on_edge_texts(self, text):
        for header in _EDGE_HEADERS:
            body = f"{header}\n{text}"
            assert _read_outcome(parse_csv, body) == _read_outcome(reference_parse_csv, body)

    def test_matches_the_reference_parser_on_random_texts(self):
        rng = random.Random(16)
        alphabets = ["ab1,\n", "a,\n\n é", "1-,\n", 'a,\n"', "a,\n\r", 'x,"\r\n']
        read = Counter()
        for _ in range(3000):
            alphabet = rng.choice(alphabets)
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            if rng.random() < 0.5 and not text.endswith("\n"):
                text += "\n"
            body = f"{rng.choice(_EDGE_HEADERS)}\n{text}"
            outcome = _read_outcome(parse_csv, body)
            assert outcome == _read_outcome(reference_parse_csv, body), repr(body)
            if '"' not in body and "\r" not in body:
                read[isinstance(outcome, tuple)] += 1
        # Quote-free texts both read and refuse often, so neither the row
        # pattern's path nor its fallback to the reference goes untested.
        assert min(read[True], read[False]) > 300


class TestCsv:
    def test_header_round_trip(self):
        table = Table(MIXED, ROWS)
        parsed = parse_csv(render_csv(table), "mixed")
        assert parsed.schema == MIXED
        assert bag_equal(parsed, table)

    def test_empty_table_is_header_only(self):
        text = render_csv(Table(MIXED, []))
        assert text == "i:integer,d:decimal?,t:text?,b:boolean,ts:timestamp\n"

    def test_null_versus_empty_text(self):
        table = Table(MIXED, ROWS)
        text = render_csv(table)
        parsed = parse_csv(text, "mixed")
        cells = {row[2] for row in parsed.rows}
        assert Value.text("") in cells and Value.null() in cells

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            parse_csv("id:int64\n1\n")

    def test_a_malformed_header_raises_on_every_read(self):
        for _ in range(3):
            for text in ("id:int64\n1\n", "id:integer,id:text\n1,a\n", '"id:int64"\n1\n'):
                with pytest.raises(ValueError):
                    iter_csv_rows("t", text)
        assert schema_from_header("t", ("id:integer",)).attributes[0].name == "id"
        with pytest.raises(ValueError, match="malformed header cell 'id:int64'"):
            schema_from_header("t", ("id:int64",))

    def test_a_changed_header_reads_a_new_schema(self):
        first = iter_csv_rows("t", "id:integer,v:text\n1,a\n")[0]
        assert iter_csv_rows("t", "id:integer,v:text\n2,b\n")[0] is first  # kept per header
        changed = iter_csv_rows("t", "id:integer,v:text?\n1,\n")[0]
        assert changed.attribute("v").nullable and not first.attribute("v").nullable
        renamed = iter_csv_rows("u", "id:integer,v:text\n1,a\n")[0]
        assert renamed.name == "u" and first.name == "t"
        assert parse_csv("id:integer,v:integer\n1,2\n", "t").rows == ((Value.integer(1), Value.integer(2)),)

    def test_arity_mismatch_reports_line(self):
        with pytest.raises(ValueError) as err:
            parse_csv("a:integer,b:integer\n1\n")
        assert "line 2" in str(err.value)

    def test_non_nullable_empty_integer_rejected(self):
        with pytest.raises(ValueError):
            parse_csv("a:integer\n\n")

    def test_deterministic_bytes(self):
        table = Table(MIXED, ROWS)
        assert render_csv(table) == render_csv(table)

    def test_random_round_trips(self):
        rng = random.Random(2024)
        for _ in range(100):
            schema = random_schema(rng, "r", ["a", "b", "c"])
            table = Table(schema, [random_row(rng, schema) for _ in range(rng.randint(0, 6))])
            parsed = parse_csv(render_csv(table), "r")
            assert parsed.schema == schema
            assert bag_equal(parsed, table)


class TestJsonl:
    def test_round_trip_preserves_kinds(self):
        table = Table(MIXED, ROWS)
        parsed = parse_jsonl(render_jsonl(table), "mixed")
        assert bag_equal(parsed, table)
        types = {attr.name: attr.data_type for attr in parsed.schema.attributes}
        assert types == {attr.name: attr.data_type for attr in MIXED.attributes}

    def test_integral_decimal_keeps_decimal_kind(self):
        schema = RelationSchema("r", [Attribute("d", Kind.DECIMAL)])
        table = Table(schema, [(Value.decimal("42"),)])
        text = render_jsonl(table)
        assert '"d":42.0' in text
        parsed = parse_jsonl(text, "r")
        assert parsed.schema.attribute("d").data_type is Kind.DECIMAL
        assert bag_equal(parsed, table)

    def test_type_conflict_widens_to_nullable_text(self):
        text = '{"x":1}\n{"x":"later"}\n'
        parsed = parse_jsonl(text, "r")
        attr = parsed.schema.attribute("x")
        assert attr.data_type is Kind.TEXT
        assert attr.nullable  # widened fields are degraded to nullable text
        assert {row[0] for row in parsed.rows} == {Value.text("1"), Value.text("later")}

    def test_missing_field_is_nullable(self):
        parsed = parse_jsonl('{"x":1,"y":2}\n{"x":3}\n', "r")
        assert parsed.schema.attribute("y").nullable
        assert not parsed.schema.attribute("x").nullable
        assert (Value.integer(3), Value.null()) in parsed.rows

    def test_timestamp_strings_infer_timestamp(self):
        parsed = parse_jsonl('{"at":"2024-03-01T12:00:05Z"}\n', "r")
        assert parsed.schema.attribute("at").data_type is Kind.TIMESTAMP

    def test_non_ascii_digits_stay_text(self):
        line = '{"at":"２０２４-01-01T00:00:00Z"}\n'
        parsed = parse_jsonl(line, "r")
        assert parsed.schema.attribute("at").data_type is Kind.TEXT
        assert render_jsonl(parsed) == line

    def test_nested_values_rejected(self):
        with pytest.raises(ValueError):
            parse_jsonl('{"x":[1,2]}\n', "r")

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("[" * 200_000, id="deep-nesting"),
            pytest.param('{"x":' + "1" * 5000 + "}", id="5000-digit-integer"),
        ],
    )
    def test_undecodable_line_is_a_value_error_naming_the_line(self, line):
        with pytest.raises(ValueError) as err:
            parse_jsonl('{"x":1}\n' + line + "\n", "r")
        assert str(err.value).startswith("line 2: ")

    def test_csv_to_jsonl_round_trip(self):
        table = Table(MIXED, ROWS)
        via_csv = parse_csv(render_csv(table), "mixed")
        via_jsonl = parse_jsonl(render_jsonl(via_csv), "mixed")
        assert bag_equal(via_jsonl, table)


def _exact(table: Table):
    """Schema and rows in order, each payload with its own type and text."""
    return table.schema, [[(v.kind, type(v.payload), str(v.payload)) for v in row] for row in table.rows]


def _jsonl_outcome(read, text):
    try:
        return _exact(read(text))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestJsonlFastPath:
    """parse_jsonl and jsonl_schema infer without building values when the
    record pattern settles a text, and hand every other text to
    reference_parse_jsonl; the reference is their oracle in schema, rows
    and error."""

    def test_matches_the_reference_on_random_texts(self, monkeypatch):
        rng = random.Random(20)
        settled = Counter()
        scan = mmw.formats._scan_jsonl

        def counted(text, name):
            result = scan(text, name)
            settled[result is not None] += 1
            return result

        monkeypatch.setattr(mmw.formats, "_scan_jsonl", counted)
        outcomes = Counter()
        regular = random.Random(21)
        for _ in range(1500):
            # A text of every shape, and a regular one, which the record
            # pattern mostly settles.
            for text in (random_jsonl(rng), random_jsonl(regular, regular=True)):
                expected = _jsonl_outcome(lambda t: reference_parse_jsonl(t, "r"), text)
                assert _jsonl_outcome(lambda t: parse_jsonl(t, "r"), text) == expected, text
                try:
                    schema = jsonl_schema(text, "r")
                except Exception as exc:
                    assert f"{type(exc).__name__}: {exc}" == expected, text
                else:
                    assert schema == expected[0], text
                outcomes["error" if isinstance(expected, str) else "table"] += 1
        # Both outcomes, and 1800 of the 6000 reads settled without the
        # reference.
        assert outcomes["error"] > 150 and outcomes["table"] > 1000
        assert settled[True] > 1800

    @pytest.mark.parametrize(
        "text",
        [
            '{"at":"2024-02-29T00:00:00Z"}\n{"at":"2024-01-31T23:59:59Z"}\n',
            '{"at":"2023-02-29T00:00:00Z"}\n',
            '{"x":1e999999}\n{"x":1.5}\n',
            '{"x":1e1000000}\n',
            '{"x":9223372036854775807}\n{"x":-9223372036854775808}\n',
            '{"x":9223372036854775808}\n',
            '{"x":1}\n{"x":true}\n{"x":2.50}\n{"x":"2024-03-01T12:00:05Z"}\n',
            '{"x":null}\n{"y":1}\n',
            '{}\n{}\n',
            "",
            "\n\n",
            '{"x":1}\r\n\r\n{"x":2}\r\n',
            '\ufeff{"x":1}\n',
            '{"x":1,"x":"a"}\n',
            '{"x":NaN}\n',
            '{"X":1}\n',
            '{"at":"2023-02-29T00:00:00Z"}\n{"k":1e99999999999999999999}\n',
            '{"k":1e99999999999999999999}\n{"at":"2023-02-29T00:00:00Z"}\n',
        ],
    )
    def test_matches_the_reference_on_edge_texts(self, text):
        expected = _jsonl_outcome(lambda t: reference_parse_jsonl(t, "r"), text)
        assert _jsonl_outcome(lambda t: parse_jsonl(t, "r"), text) == expected


class TestPretty:
    def test_contains_headers_and_values(self):
        table = Table(MIXED, ROWS)
        text = render_pretty(table)
        assert "i:integer" in text
        assert "2.5" in text

    def test_empty_table(self):
        text = render_pretty(Table(MIXED, []))
        assert text.count("\n") == 2
