"""The json-lines record pattern: a text whose every line matches the
pattern of its first record is settled from the matches, and every other
text goes to `reference_parse_jsonl`, the oracle of the pattern in schema,
rows and error text, with and without a selection."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

import mmw.formats
from mmw.codec import jsonl_record_pattern
from mmw.formats import jsonl_schema, parse_jsonl, reference_parse_jsonl
from mmw.query.ast import (
    AttrRef,
    CompareOp,
    Comparison,
    Literal,
    QualifiedName,
    Scan,
    Select,
)
from mmw.query.evaluate import evaluate
from mmw.relational import Kind, Value
from support import forget_images, load_workloads, random_predicate

FIELDS = ("id", "kind", "value", "at", "flag", "note")
KINDS = (Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP)
NAME = QualifiedName("ns", "t")


def _stamp(rng: random.Random) -> str:
    """A timestamp-shaped text; now and then one that names no moment."""
    day = rng.randint(1, 28) if rng.random() < 0.98 else rng.choice((29, 30, 31))
    return f"{rng.choice((1, 1999, 2023, 2024)):04d}-{rng.randint(1, 12):02d}-{day:02d}T10:0{rng.randint(0, 9)}:59Z"


def _token(rng: random.Random, kind: Kind, fault: float) -> str:
    """A JSON token of a cell of `kind`: mostly a plain one, and with
    odds `fault / 10` an edge of the pattern's bounds or of the reference's."""
    edge = rng.random() < fault / 10
    if kind is Kind.BOOLEAN:
        return rng.choice(("true", "false"))
    if kind is Kind.INTEGER:
        if edge:
            return rng.choice((
                "-0", "9" * 18, "-" + "9" * 18, "9" * 19, str(2**63 - 1), str(-(2**63)), "1" + "0" * 19,
            ))
        return str(rng.randint(-9, 999))
    if kind is Kind.DECIMAL:
        if edge:
            return rng.choice((
                "-0.0", "1e5", "1E+5", "2.5e-3", "1E-99999", "1e99999", "1e100000", "-1E-100000",
                "0." + "1" * 40, "7" * 1000 + ".5", "7" * 1001 + ".5", "0e0", "1e999999",
                "9" * 30 + "e999990",
            ))
        return f"{rng.randint(-9999, 9999) / 100:.2f}"
    if kind is Kind.TIMESTAMP:
        return '"' + _stamp(rng) + '"'
    if edge:
        text = rng.choice((
            "", "１２", "2024-01-01", "true", "\x7f", 'say "hi"', "back\\slash", "tab\there",
            "a\u2028b", "\u0085",
        ))
    else:
        text = rng.choice(("click", "view", "x y", "é", "1"))
    return json.dumps(text, ensure_ascii=rng.random() < 0.3)


def _gap(rng: random.Random) -> str:
    return rng.choice(("", "", "", " ", "\t", " \t "))


def record_text(rng: random.Random) -> str:
    """A json-lines text of records that mostly repeat one field order,
    with the faults and edges the record pattern must settle or leave to
    the reference: reordered, missing and duplicate keys, another kind
    in a field, nulls (in the first record too), escapes, raw line
    separators, blank lines, nested values and JSON blanks between tokens.
    The faults' odds vary by text, so some texts have none."""
    fault = rng.choice((0.0, 0.3, 1.0))
    fields = rng.sample(FIELDS, rng.randint(1, 4))
    kinds = {field: rng.choice(KINDS) for field in fields}
    lines = []
    for _ in range(rng.randint(1, 12)):
        cells = []
        for field in fields:
            draw = rng.random()
            if draw < 0.08:
                token = "null"
            elif draw < 0.08 + 0.02 * fault:
                continue  # a missing key
            elif draw < 0.08 + 0.05 * fault:
                token = _token(rng, rng.choice(KINDS), fault)  # widened, or a timestamp/text mix
            elif draw < 0.08 + 0.06 * fault:
                token = rng.choice(("[1]", '{"a":1}', "[]"))
            else:
                token = _token(rng, kinds[field], fault)
            cells.append((field, token))
        draw = rng.random() / fault if fault else 1.0
        if draw < 0.03:
            rng.shuffle(cells)
        elif draw < 0.05 and cells:
            cells.append((cells[0][0], _token(rng, rng.choice(KINDS), fault)))  # a duplicate key
        g = lambda: _gap(rng)  # noqa: E731
        body = f"{g()},{g()}".join(f'"{field}"{g()}:{g()}{token}' for field, token in cells)
        lines.append(f"{g()}{{{g()}{body}{g()}}}{g()}")
        if rng.random() < 0.03 * fault:
            lines.append(rng.choice(("", " ", "\t")))
    end = "\r\n" if rng.random() < 0.1 else "\n"
    return end.join(lines) + (end if rng.random() < 0.9 else "")


def exact(table):
    """Schema and rows in order, each payload with its own type and text."""
    return table.schema, [[(v.kind, type(v.payload), str(v.payload)) for v in row] for row in table.rows]


def outcome(thunk):
    try:
        return thunk()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def selected(table, where):
    """The rows of `table` the query `where` over it returns, in order."""
    return exact(evaluate(Select(Scan(NAME), where), {NAME: table}))


class TestRecordPatternAgainstTheReference:
    def test_schema_rows_and_errors_equal_the_reference(self, monkeypatch):
        rng = random.Random(27)
        matched = mmw.formats._matched_records
        settled = Counter()

        def counted(lines):
            result = matched(lines)
            settled[result is not None] += 1
            return result

        monkeypatch.setattr(mmw.formats, "_matched_records", counted)
        outcomes = Counter()
        for _ in range(1500):
            text = record_text(rng)
            reference = outcome(lambda: reference_parse_jsonl(text, "t"))
            if isinstance(reference, str):
                assert outcome(lambda: jsonl_schema(text, "t")) == reference, text
                assert outcome(lambda: parse_jsonl(text, "t")) == reference, text
                outcomes["error"] += 1
                continue
            # Each read is counted, so none may find the image of the one before.
            forget_images()
            assert jsonl_schema(text, "t") == reference.schema, text
            forget_images()
            assert exact(parse_jsonl(text, "t")) == exact(reference), text
            for _ in range(2 if reference.schema.attributes else 0):
                where = random_predicate(rng, reference.schema)
                forget_images()
                got = parse_jsonl(text, "t", where)
                assert selected(got, where) == selected(reference, where), (text, where)
                rows = iter(reference.rows)
                assert all(any(row == kept for row in rows) for kept in got.rows), (text, where)
            outcomes["table"] += 1
        # Both outcomes, and both paths: most texts settle by their record
        # pattern, and a share goes to the reference.
        assert outcomes["error"] > 100 and outcomes["table"] > 1000
        assert settled[True] > 2000 and settled[False] > 2000

    @pytest.mark.parametrize(
        "text",
        [
            '{"x":1,"y":"a"}\n{"y":"b","x":2}\n',
            '{"x":1,"y":"a"}\n{"x":2}\n',
            '{"x":1,"x":2}\n',
            '{"x":1,"y":2,"x":"a"}\n{"x":1,"y":2}\n',
            '{"x":1}\n{"x":1,"x":2}\n',
            '{"x":"a\\"b"}\n',
            '{"x":"\\u0061"}\n{"x":"a"}\n',
            '{"\\u0078":1}\n',
            '{"x":"a\u2028b"}\n',
            '{"x":"a"}\n\n{"x":"b"}\n',
            '\n{"x":"a"}\n',
            '{"x":"a"}\n\n',
            '{"x":999999999999999999}\n{"x":-999999999999999999}\n',
            '{"x":9223372036854775807}\n{"x":1}\n',
            '{"x":1}\n{"x":9223372036854775808}\n',
            '{"x":-0}\n{"x":0}\n',
            '{"x":01}\n',
            '{"x":1e5}\n{"x":1E-99999}\n{"x":-0.0}\n',
            '{"x":1.5}\n{"x":1e100000}\n',
            '{"x":1e100000}\n{"x":1.5}\n',
            '{"x":1.5}\n{"x":1e999999}\n',
            '{"x":1.5}\n{"x":2}\n',
            '{"x":[1]}\n',
            '{"x":1}\n{"x":{"a":1}}\n',
            '{"x":null,"y":1}\n{"x":"a","y":2}\n',
            '{"x":null}\n{"x":null}\n',
            '{"x":null,"y":1}\n{"x":2,"y":null}\n{"x":-3,"y":4}\n',
            '{"x":null}\n{"x":null}\n{"x":1}\n',
            '{"at":null}\n{"at":"2024-02-29T00:00:00Z"}\n{"at":"x"}\n',
            '{"at":null}\n{"at":"2024-02-29T00:00:00Z"}\n{"at":null}\n',
            '{"x":1,"y":null}\n{"x":2,"y":null}\n',
            '{"x":1,"y":null}\n{"x":2,"y":"a"}\n{"x":3,"y":null}\n',
            '{"x":null,"y":1}\n{"y":2,"x":3}\n',
            '{"x":1,"y":null}\n{"y":null,"x":2}\n',
            '{"at":"2024-02-29T00:00:00Z"}\n{"at":null}\n{"at":"x"}\n',
            '{"at":"x"}\n{"at":"2024-02-29T00:00:00Z"}\n',
            '{"at":"x"}\n{"at":"2023-02-29T00:00:00Z"}\n',
            '{"at":"2023-02-29T00:00:00Z"}\n{"at":"x"}\n',
            '{"at":"2024-01-01T00:00:00Z"}\n{"at":"2023-02-29T00:00:00Z"}\n',
            ' \t{ "x" :\t1 ,"y":true }\t\n{"x":2,"y":false}\n',
            '{"x":1}\r\n{"x":2}\r\n',
            '{}\n',
            '{"X":1}\n',
            '[1]\n',
            '{"x":true}\n{"x":1}\n',
            '{"x":"\x7f"}\n{"x":"\x1f"}\n',
            '{"x":NaN}\n',
            '\ufeff{"x":1}\n',
        ],
    )
    def test_edge_texts(self, text):
        reference = outcome(lambda: reference_parse_jsonl(text, "t"))
        if isinstance(reference, str):
            assert outcome(lambda: jsonl_schema(text, "t")) == reference
            assert outcome(lambda: parse_jsonl(text, "t")) == reference
            return
        assert jsonl_schema(text, "t") == reference.schema
        assert exact(parse_jsonl(text, "t")) == exact(reference)
        rng = random.Random(text)
        for _ in range(5 if reference.schema.attributes else 0):
            where = random_predicate(rng, reference.schema)
            assert selected(parse_jsonl(text, "t", where), where) == selected(reference, where), where


class TestRecordPatternBounds:
    @pytest.mark.parametrize(
        "kind, token, accepted",
        [
            (Kind.INTEGER, "9" * 18, True),
            (Kind.INTEGER, "9" * 19, False),
            (Kind.INTEGER, "-0", True),
            (Kind.INTEGER, "01", False),
            (Kind.DECIMAL, "1e5", True),
            (Kind.DECIMAL, "1E-99999", True),
            (Kind.DECIMAL, "1e100000", False),
            (Kind.DECIMAL, "5", False),
            (Kind.DECIMAL, "7" * 1000 + ".5", True),
            (Kind.DECIMAL, "7" * 1001 + ".5", False),
            (Kind.TEXT, '"a"', True),
            (Kind.TEXT, '"a\\nb"', False),
            (Kind.TEXT, '"2024-01-01T00:00:00Z"', False),
            (Kind.TIMESTAMP, '"2024-01-01T00:00:00Z"', True),
            (Kind.TIMESTAMP, '"2023-02-29T00:00:00Z"', False),
            (Kind.BOOLEAN, "null", True),
        ],
    )
    def test_each_kind_accepts_its_bounded_token_or_null(self, kind, token, accepted):
        pattern = jsonl_record_pattern((("x", kind),))
        assert bool(pattern.fullmatch('{"x":' + token + "}")) is accepted


class _CountingDecoder:
    def __init__(self, decoder):
        self.decoder = decoder
        self.calls = 0

    def decode(self, line):
        self.calls += 1
        return self.decoder.decode(line)


def events_text(records: int = 150) -> str:
    rng = random.Random(5)
    return "".join(
        f'{{"id": {i}, "kind": "{rng.choice(("click", "view"))}", '
        f'"value": {rng.randint(0, 99999) / 100:.2f}, "at": "2024-03-{rng.randint(10, 28)}T12:00:05Z"}}\n'
        for i in range(1, records + 1)
    )


class TestUniformTextDecodesOneLine:
    def test_a_uniform_events_text_settles_with_one_decode(self, monkeypatch):
        text = events_text()
        reference = reference_parse_jsonl(text, "events")
        spy = _CountingDecoder(mmw.formats._JSONL_DECODER)
        monkeypatch.setattr(mmw.formats, "_JSONL_DECODER", spy)
        where = Comparison(AttrRef("id"), CompareOp.EQ, Literal(Value.integer(77)))
        reads = {
            "schema": lambda: jsonl_schema(text, "events") == reference.schema,
            "load": lambda: exact(parse_jsonl(text, "events")) == exact(reference),
            "point": lambda: exact(parse_jsonl(text, "events", where)) == (
                reference.schema, exact(reference)[1][76:77]
            ),
        }
        for read, check in reads.items():
            spy.calls = 0
            forget_images()
            assert check(), read
            assert spy.calls == 1, read

    def test_a_null_first_cell_decodes_lines_until_its_field_has_a_kind(self, monkeypatch):
        lines = events_text().splitlines(keepends=True)
        lines[0] = lines[0].replace('"kind": "click"', '"kind": null').replace('"kind": "view"', '"kind": null')
        text = "".join(lines)
        reference = reference_parse_jsonl(text, "events")
        spy = _CountingDecoder(mmw.formats._JSONL_DECODER)
        monkeypatch.setattr(mmw.formats, "_JSONL_DECODER", spy)
        monkeypatch.setattr(mmw.formats, "reference_parse_jsonl", None)
        assert exact(parse_jsonl(text, "events")) == exact(reference)
        assert spy.calls == 2

    def test_a_refused_line_sends_the_text_to_the_reference(self, monkeypatch):
        text = events_text() + '{"id": 151, "kind": "a\\tb", "value": 1.00, "at": "2024-03-10T12:00:05Z"}\n'
        spy = _CountingDecoder(mmw.formats._JSONL_DECODER)
        monkeypatch.setattr(mmw.formats, "_JSONL_DECODER", spy)
        references = []

        def counted(*args):
            references.append(args)
            return reference_parse_jsonl(*args)

        monkeypatch.setattr(mmw.formats, "reference_parse_jsonl", counted)
        assert exact(parse_jsonl(text, "events")) == exact(reference_parse_jsonl(text, "events"))
        assert spy.calls == 1 and references == [(text, "events")]


class TestBenchmarkTraffic:
    """The benchmark's json-lines texts are all of the shape the record
    pattern settles, so no benchmark load reaches the reference. A change
    to the workloads that sends one there fails here."""

    @pytest.mark.parametrize("scale", ["tiny", "full"])
    def test_every_benchmark_jsonl_text_settles_by_its_record_pattern(self, scale, tmp_path):
        workloads = load_workloads()
        scan = workloads.ScanFiles(1, scale, tmp_path / "scan")
        rewrites = [
            payload[2] for kind, payload in scan.ops if kind == "write" and payload[0] in scan.docs
        ]
        workloads.FederateCold(1, scale, tmp_path / "federate")
        customers = [path.read_text(encoding="utf-8") for path in tmp_path.glob("federate/**/*.jsonl")]
        assert rewrites and customers
        for text in [scan.initial_text[doc] for doc in scan.docs] + rewrites + customers:
            assert mmw.formats._matched_records(text.splitlines()) is not None, text
