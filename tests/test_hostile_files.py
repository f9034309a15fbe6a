"""Source files another tool may write, and texts this package writes.

A file adapter refuses a file that is not UTF-8, or a json-lines value no
`Value` holds, with a `ConfigError` naming the file (and the line, for a
value), on every call that reads it; over the wire that error travels as
`unavailable` with the same message. A seeded byte-level fuzz holds both
file adapters to their format's reference parser: every call returns what
the reference reads or raises a `ConfigError` or `UnavailableError`, never
another exception. Text holding a line separator that `str.splitlines`
knows reads back from every format this package writes.
"""

from __future__ import annotations

import json
import random

import pytest

from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter
from mmw.errors import ConfigError, UnavailableError
from mmw.formats import (
    jsonl_schema,
    parse_csv,
    parse_jsonl,
    reference_parse_jsonl,
    render_csv,
    render_jsonl,
)
from mmw.query.ast import AttrRef, CompareOp, Comparison, Literal, QualifiedName, Scan, Select
from mmw.query.execute import execute
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
from mmw.runtime.protocol import (
    ProtocolClient,
    ProtocolServer,
    _encode_line,
    table_from_response,
    table_response,
)
from mmw.wrapper import Wrapper, WrapperConfig
from support import (
    JSONL_FAULTS,
    random_jsonl,
    random_predicate,
    random_schema,
    random_table,
    random_value,
    reference_load,
)

WHERE = Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.integer(1)))

# The line breaks of str.splitlines that JSON leaves raw inside a string.
SEPARATORS = "\x85\u2028\u2029"

NOT_UTF8 = {
    DelimitedDirAdapter: b"k:integer,name:text\n1,a\xffb\n",
    DocLinesAdapter: b'{"k":1,"name":"a\xffb"}\n',
}


def reads(adapter):
    """Every call that reads a file: the schema, a load, a selective load."""
    return {
        "relations": adapter.relations,
        "load": lambda: adapter.load("t"),
        "load(where)": lambda: adapter.load("t", where=WHERE),
    }


@pytest.mark.parametrize("adapter_class", list(NOT_UTF8), ids=lambda cls: cls.kind)
class TestNotUtf8:
    def test_every_read_is_a_config_error_naming_the_file(self, tmp_path, adapter_class):
        file = tmp_path / f"t{adapter_class.suffix}"
        file.write_bytes(NOT_UTF8[adapter_class])
        for call, read in reads(adapter_class(tmp_path)).items():
            with pytest.raises(ConfigError) as err:
                read()
            assert err.value.message.startswith(f"{file.name}: 'utf-8' codec can't decode"), call

    def test_over_the_wire_it_is_unavailable_with_that_message(self, tmp_path, adapter_class):
        file = tmp_path / f"t{adapter_class.suffix}"
        file.write_bytes(NOT_UTF8[adapter_class])
        adapter = adapter_class(tmp_path)
        with pytest.raises(ConfigError) as local:
            adapter.load("t")
        server = ProtocolServer(Wrapper(WrapperConfig("w", "ns", adapter)), "127.0.0.1", 0)
        client = ProtocolClient(server.host, server.port)
        try:
            for request in (
                {"type": "get_schema"},
                {"type": "exec_query", "query": "SELECT * FROM ns.t"},
                {"type": "exec_query", "query": "SELECT * FROM ns.t WHERE k = 1"},
            ):
                with pytest.raises(UnavailableError) as remote:
                    client.request(request)
                assert remote.value.message == local.value.message, request
        finally:
            client.close()
            server.close()


class TestJsonlNumberOutOfRange:
    @pytest.mark.parametrize("line", ['{"k":1e99999999999999999999}', '{"k":-1E+99999999999999999999}'])
    def test_every_read_is_a_config_error_naming_the_file_and_line(self, tmp_path, line):
        (tmp_path / "t.jsonl").write_text('{"k":1}\n' + line + "\n", encoding="utf-8")
        for call, read in reads(DocLinesAdapter(tmp_path)).items():
            with pytest.raises(ConfigError) as err:
                read()
            assert err.value.message == "t.jsonl: line 2: number out of range", call


class TestJsonlValueErrorsNameTheirLine:
    @pytest.mark.parametrize(
        "line, error",
        [
            ('{"k":1e999999999}', "decimal out of range"),
            ('{"k":"2024-02-30T00:00:00Z"}', "day is out of range for month"),
            ('{"k":99999999999999999999}', "integer out of 64-bit range: 99999999999999999999"),
            ('{"k":{"j":1}}', "unsupported field value {'j': 1} (flat scalars only)"),
        ],
        ids=["decimal", "timestamp", "integer", "nested"],
    )
    def test_every_reader_names_line_2(self, tmp_path, line, error):
        text = '{"k":1}\n' + line + "\n"
        for read in (parse_jsonl, jsonl_schema, reference_parse_jsonl):
            with pytest.raises(ValueError) as err:
                read(text, "t")
            assert str(err.value) == f"line 2: {error}", read.__name__
        (tmp_path / "t.jsonl").write_text(text, encoding="utf-8")
        for call, read in reads(DocLinesAdapter(tmp_path)).items():
            with pytest.raises(ConfigError) as err:
                read()
            assert err.value.message == f"t.jsonl: line 2: {error}", call


# Bytes a mutation inserts: lone and truncated UTF-8 lead bytes, and the
# characters that carry the syntax of either format.
FUZZ_BYTES = b'\xff\x80\xc3\xe2",:{}[]\n\r\\0e.- '
FUZZ_NAME = QualifiedName("ns", "t")


def mutated(rng: random.Random, data: bytes) -> bytes:
    """data after one or two byte mutations: a bit flip, an inserted
    byte or a deleted run of one to three bytes."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(data) + 1)
        roll = rng.random()
        if roll < 0.35 and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif roll < 0.7 or not data:
            data.insert(at, rng.choice(FUZZ_BYTES))
        else:
            del data[at : at + rng.randint(1, 3)]
    return bytes(data)


def attempt(call):
    """What call returns, or the ConfigError or UnavailableError it raises;
    any other exception fails the test."""
    try:
        return call()
    except (ConfigError, UnavailableError) as exc:
        return exc


@pytest.mark.parametrize("adapter_class", list(NOT_UTF8), ids=lambda cls: cls.kind)
class TestByteFuzz:
    def test_every_call_returns_the_reference_or_a_mesh_error(self, tmp_path, adapter_class):
        rng = random.Random(22)
        adapter = adapter_class(tmp_path)
        file = tmp_path / f"t{adapter_class.suffix}"
        outcomes = {"table": 0, "error": 0}
        for case in range(1500):
            schema = random_schema(rng, "t", ["k", "a", "b"][: rng.randint(1, 3)])
            if adapter_class is DelimitedDirAdapter:
                text = render_csv(random_table(rng, schema, max_rows=5))
            elif case % 2:
                text = render_jsonl(random_table(rng, schema, max_rows=5))
            else:
                text = random_jsonl(rng)
            file.write_bytes(mutated(rng, text.encode("utf-8")))
            expected = attempt(lambda: reference_load(file))
            if isinstance(expected, ConfigError) or not expected.schema.attributes:
                where = WHERE
            else:
                where = random_predicate(rng, expected.schema)
            schemas = attempt(adapter.relations)
            full = attempt(lambda: adapter.load("t"))
            selected = attempt(lambda: adapter.load("t", where=where))
            attempt(adapter.fingerprint)
            if isinstance(schemas, Exception):
                # A delimited header read fails as the reference does; a
                # schema read of a json-lines text fails exactly then.
                assert schemas.message == expected.message, text
            if isinstance(expected, ConfigError):
                outcomes["error"] += 1
                assert isinstance(full, ConfigError) and full.message == expected.message, text
                assert isinstance(selected, ConfigError), text
                assert selected.message == expected.message, text
                if adapter_class is DocLinesAdapter:
                    assert isinstance(schemas, ConfigError), text
                continue
            outcomes["table"] += 1
            assert schemas == [expected.schema], text
            assert isinstance(full, Table) and full.schema == expected.schema, text
            assert full.rows == expected.rows, text
            assert isinstance(selected, Table), (text, where)
            query = Select(Scan(FUZZ_NAME), where)
            assert (
                execute(query, {FUZZ_NAME: selected}).rows
                == execute(query, {FUZZ_NAME: expected}).rows
            ), (text, where)
        assert min(outcomes.values()) > 100, outcomes


class TestLineSeparators:
    def test_a_raw_separator_from_another_tool_is_a_config_error(self, tmp_path):
        assert '{"name":"a\u2028b"}' in JSONL_FAULTS
        (tmp_path / "t.jsonl").write_text('{"k":1,"name":"a\u2028b"}\n', encoding="utf-8")
        for call, read in reads(DocLinesAdapter(tmp_path)).items():
            with pytest.raises(ConfigError) as err:
                read()
            assert err.value.message.startswith("t.jsonl: line 1: "), call

    def test_every_format_reads_back_what_it_writes(self):
        rng = random.Random(2028)
        columns = (("k", Kind.INTEGER), ("name", Kind.TEXT), ("note", Kind.TEXT), ("at", Kind.TIMESTAMP))
        alphabet = "ab ,\"'\\\n\t" + SEPARATORS
        seen = set()
        for case in range(200):
            rows = []
            for k in range(rng.randint(1, 6)):
                # A text cell never looks like a timestamp, so json-lines
                # infers text for it.
                name = "n" + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
                note = rng.choice((Value.null(), Value.text(rng.choice(SEPARATORS) + name)))
                # The first row's timestamp is never null: json-lines infers
                # text for a column of nulls only.
                at = random_value(rng, Kind.TIMESTAMP, nullable=k > 0)
                rows.append((Value.integer(k), Value.text(name), note, at))
                seen.update(ch for ch in name + (note.payload or "") if ch in SEPARATORS)
            # A column is nullable exactly when it holds a null, as json-lines infers.
            attributes = [
                Attribute(name, kind, nullable=any(row[p].is_null for row in rows))
                for p, (name, kind) in enumerate(columns)
            ]
            table = Table(RelationSchema("t", attributes), rows)
            assert parse_jsonl(render_jsonl(table), "t") == table, case
            assert parse_csv(render_csv(table), "t") == table, case
            wire = json.loads(_encode_line(table_response(table)))
            assert table_from_response(wire, "t") == table, case
        assert seen == set(SEPARATORS)

    def test_the_encoder_escapes_each_separator(self):
        schema = RelationSchema("t", [Attribute("name", Kind.TEXT)])
        text = render_jsonl(Table(schema, [(Value.text("a" + SEPARATORS + "b"),)]))
        assert text == '{"name":"a\\u0085\\u2028\\u2029b"}\n'
        assert text.splitlines() == [text[:-1]]
