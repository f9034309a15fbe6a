"""Selective decoding of delimited and json-lines files against the full
decode.

A `delimited_dir` or `doc_lines` load handed a selection predicate may
decode only the predicate's columns of the rows it leaves out. These seeded
differential tests hold it to its oracle, the format's reference parser
(`reference_parse_csv`, `reference_parse_jsonl`) followed by `execute`: the
same rows in the same order, or the same error message. The files carry planted
malformed cells and ragged rows in matching and non-matching rows,
nullable empties, quoted and quote-free texts; the predicates include
ill-typed ones and salted `hash()` comparisons, and the wrapper-level test
adds self-joins and unions.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import mmw.adapters
import mmw.formats
from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter
from mmw.codec import rows_to_wire
from mmw.errors import ConfigError, MeshError, TypeCheckError
from mmw.formats import (
    header_cells,
    iter_csv_rows,
    join_delimited,
    reference_parse_csv,
    reference_parse_jsonl,
)
from mmw.query.ast import (
    AttrRef,
    CompareOp,
    Comparison,
    HashCall,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    Project,
    ProjectItem,
    QualifiedName,
    Scan,
    Select,
    Union,
    scan_names,
)
from mmw.query.evaluate import evaluate, hash_value
from mmw.query.execute import execute
from mmw.query.infer import infer_schema
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
from mmw.wrapper import Wrapper, WrapperConfig
from support import random_jsonl, random_predicate, random_value, reference_load

SALT = "pepper"

# Cells every reader of the kind refuses, one draw per planted fault.
MALFORMED = {
    Kind.BOOLEAN: ["True", "1", "yes"],
    Kind.INTEGER: ["1.5", "+1", "x", "9223372036854775808", "١"],
    Kind.DECIMAL: ["1e3", ".5", "NaN", "1,"],
    Kind.TIMESTAMP: ["2024-02-30T00:00:00Z", "2024-01-01T24:00:00Z", "2024-01-01"],
}


def random_file(rng: random.Random, name: str, quote_free: bool):
    """Schema and csv text of a small random relation, with faults planted
    in about one file in three."""
    kinds = [Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP]
    attrs = [Attribute("k", Kind.INTEGER, nullable=rng.random() < 0.3)]
    for position in range(rng.randint(1, 4)):
        attrs.append(Attribute(f"c{position}", rng.choice(kinds), nullable=rng.random() < 0.4))
    schema = RelationSchema(name, attrs)
    rows = []
    for _ in range(rng.randint(0, 12)):
        row = []
        for attr in attrs:
            if attr.name == "k":
                row.append(Value.null() if attr.nullable and rng.random() < 0.2
                           else Value.integer(rng.randint(0, 5)))
            elif attr.data_type is Kind.TEXT and quote_free:
                text = "".join(rng.choice("abc xyz") for _ in range(rng.randint(0, 4)))
                row.append(Value.null() if attr.nullable and rng.random() < 0.2 else Value.text(text))
            else:
                row.append(random_value(rng, attr.data_type, attr.nullable))
        rows.append(tuple(row))
    cells = [
        [("", False) if text is None else (text, text == "") for text in texts]
        for texts in rows_to_wire([attr.data_type for attr in attrs], rows)
    ]
    if cells and rng.random() < 0.35:
        for _ in range(rng.randint(1, 2)):
            line = rng.choice(cells)
            fault = rng.random()
            if fault < 0.2:
                line.append(("1", False))  # ragged: one cell too many
            elif fault < 0.3 and len(line) > 1:
                line.pop()  # ragged: one cell short
            else:
                position = rng.randrange(len(attrs))
                if position >= len(line):
                    continue  # an earlier fault cut this line short
                kind = attrs[position].data_type
                if kind is Kind.TEXT or rng.random() < 0.2:
                    # An empty field: null where nullable, refused otherwise
                    # (except as empty text).
                    line[position] = ("", False)
                else:
                    line[position] = (rng.choice(MALFORMED[kind]), False)
    return schema, join_delimited([header_cells(schema)] + cells)


def random_where(rng: random.Random, schema: RelationSchema):
    """A selection over schema: well-typed mostly, sometimes ill-typed or a
    salted hash comparison."""
    shape = rng.random()
    if shape < 0.1:
        return Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.text("1")))
    if shape < 0.15:
        return Comparison(AttrRef("ghost"), CompareOp.EQ, Literal(Value.integer(1)))
    if shape < 0.3:
        # The literal is the salted hash of a key, so some rows match under
        # the wrapper's salt and none under another.
        target = hash_value(Value.integer(rng.randint(0, 5)), SALT).payload
        hashed = Comparison(HashCall(AttrRef("k")), CompareOp.EQ, Literal(Value.text(target)))
        return hashed if rng.random() < 0.5 else LogicalAnd(random_predicate(rng, schema), hashed)
    predicate = random_predicate(rng, schema)
    return LogicalNot(predicate) if rng.random() < 0.1 else predicate


def outcome(thunk):
    """The result of thunk, or its error as text. Executing a predicate on
    an attribute the file lacks raises KeyError on the first row."""
    try:
        return thunk()
    except MeshError as exc:
        return f"{type(exc).__name__}: {exc.message}"
    except KeyError as exc:
        return f"KeyError: {exc}"


def write_files(tmp_path, texts):
    for old in tmp_path.glob("*.csv"):
        old.unlink()
    for name, text in texts.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")


class TestSelectiveLoad:
    def test_selected_then_executed_equals_full_decode_then_executed(self, tmp_path):
        rng = random.Random(16)
        adapter = DelimitedDirAdapter(tmp_path)
        name = QualifiedName("ns", "t")
        used = 0
        for case in range(400):
            schema, text = random_file(rng, "t", quote_free=case % 2 == 0)
            write_files(tmp_path, {"t": text})
            for _ in range(3):
                where = random_where(rng, schema)
                query = Select(Scan(name), where)

                def full():
                    return execute(query, {name: reference_load(tmp_path / "t.csv")}, SALT)

                def selective():
                    return execute(query, {name: adapter.load("t", where=where)}, SALT)

                expected, got = outcome(full), outcome(selective)
                if isinstance(expected, str):
                    assert got == expected, text
                    continue
                assert (got.schema, got.rows) == (expected.schema, expected.rows), (text, where)
                # The load keeps row order and omits only rows the test rules out.
                everything = reference_load(tmp_path / "t.csv").rows
                kept = adapter.load("t", where=where).rows
                positions = iter(range(len(everything)))
                assert all(any(everything[p] == row for p in positions) for row in kept)
                used += len(kept) < len(everything)
        assert used > 100  # the selective path did leave rows out

    def test_literal_comparisons_on_every_op_and_kind(self, tmp_path):
        # Every operator with the literal on either side, over a column of
        # each kind with null cells, and the null literal; the selective
        # load tests each row with the same compiled comparisons as execute.
        rng = random.Random(17)
        kinds = [Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP]
        attrs = [Attribute(f"c{position}", kind, nullable=True) for position, kind in enumerate(kinds)]
        schema = RelationSchema("t", attrs)
        rows = [tuple(random_value(rng, kind, nullable=True) for kind in kinds) for _ in range(30)]
        cells = [
            [("", False) if text is None else (text, text == "") for text in texts]
            for texts in rows_to_wire(kinds, rows)
        ]
        write_files(tmp_path, {"t": join_delimited([header_cells(schema)] + cells)})
        adapter = DelimitedDirAdapter(tmp_path)
        name = QualifiedName("ns", "t")
        everything = adapter.load("t")
        left_out = 0
        for attr, kind in zip(attrs, kinds):
            for literal in [rows[rng.randrange(len(rows))][kinds.index(kind)], Value.null()]:
                for op in CompareOp:
                    for where in (
                        Comparison(AttrRef(attr.name), op, Literal(literal)),
                        Comparison(Literal(literal), op, AttrRef(attr.name)),
                    ):
                        query = Select(Scan(name), where)
                        selected = adapter.load("t", where=where)
                        expected = evaluate(query, {name: everything})
                        got = execute(query, {name: selected})
                        assert (got.schema, got.rows) == (expected.schema, expected.rows), where
                        left_out += len(everything.rows) - len(selected.rows)
        assert left_out > 500

    def test_ill_typed_or_hashed_predicate_is_not_used(self, tmp_path):
        (tmp_path / "t.csv").write_text("k:integer,c:text\n1,a\n2,b\n", encoding="utf-8")
        adapter = DelimitedDirAdapter(tmp_path)
        everything = adapter.load("t").rows
        for where in [
            Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.text("1"))),
            Comparison(AttrRef("ghost"), CompareOp.EQ, Literal(Value.integer(1))),
            Comparison(HashCall(AttrRef("c")), CompareOp.EQ, Literal(Value.text("0"))),
        ]:
            assert adapter.load("t", where=where).rows == everything

    def test_malformed_cell_in_a_skipped_row_fails_as_the_full_decode(self, tmp_path):
        (tmp_path / "t.csv").write_text(
            "k:integer,at:timestamp\n1,2024-01-01T00:00:00Z\n2,2024-02-30T00:00:00Z\n",
            encoding="utf-8",
        )
        adapter = DelimitedDirAdapter(tmp_path)
        where = Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.integer(1)))
        with pytest.raises(ConfigError) as reference:
            reference_load(tmp_path / "t.csv")
        with pytest.raises(ConfigError) as full:
            adapter.load("t")
        with pytest.raises(ConfigError) as selective:
            adapter.load("t", where=where)
        assert selective.value.message == full.value.message == reference.value.message
        assert full.value.message.startswith("t.csv: line 3:")

    def test_columnar_read_equals_the_reference_parser(self):
        # The same rows in the same order, or the same error, over quoted
        # and quote-free texts with planted faults; the error of a quoted
        # text's split or of any header is raised before the first row.
        rng = random.Random(22)
        outcomes = Counter()
        for case in range(600):
            _, text = random_file(rng, "t", quote_free=case % 2 == 0)
            try:
                expected = reference_parse_csv(text, "t")
            except ValueError as exc:
                expected = str(exc)
            try:
                got = Table(*iter_csv_rows("t", text))
            except ValueError as exc:
                got = str(exc)
            if isinstance(expected, str):
                assert got == expected, text
                outcomes["error"] += 1
            else:
                assert (got.schema, got.rows) == (expected.schema, expected.rows), text
                outcomes["table"] += 1
        assert outcomes["error"] > 100 and outcomes["table"] > 300


def random_wrapper_query(rng, schemas):
    """A fetch-shaped selection, a self-join or a union over the files."""
    name = rng.choice(sorted(schemas))
    qname = QualifiedName("ns", name)
    schema = schemas[name]
    shape = rng.random()
    if shape < 0.5:
        items = [ProjectItem(AttrRef(attr.name), attr.name) for attr in schema.attributes]
        rng.shuffle(items)
        return Project(Select(Scan(qname), random_where(rng, schema)), items[: rng.randint(1, len(items))])
    if shape < 0.75:
        pairs = [(attr.name, attr.name) for attr in schema.attributes]
        return Select(Join(Scan(qname), Scan(qname), pairs), random_where(rng, schema))
    left = Select(Scan(qname), random_where(rng, schema))
    right = Select(Scan(qname), random_where(rng, schema))
    if rng.random() < 0.5:
        other = QualifiedName("ns", rng.choice(sorted(schemas)))
        if schemas[other.relation].attributes == schema.attributes:
            right = Select(Scan(other), random_where(rng, schema))
    return Union(left, right)


class TestWrapperSelectiveLoad:
    def test_wrapper_answers_as_the_oracle_over_a_full_decode(self, tmp_path):
        rng = random.Random(61)
        wrapper = Wrapper(WrapperConfig("w", "ns", DelimitedDirAdapter(tmp_path), salt=SALT))
        for case in range(150):
            schemas, texts = {}, {}
            for name in ("a", "b"):
                schemas[name], texts[name] = random_file(rng, name, quote_free=rng.random() < 0.5)
            write_files(tmp_path, texts)
            for _ in range(4):
                q = random_wrapper_query(rng, schemas)

                def oracle():
                    db = {
                        qn: reference_load(tmp_path / f"{qn.relation}.csv")
                        for qn in dict.fromkeys(scan_names(q))
                    }
                    infer_schema(q, {qn: table.schema for qn, table in db.items()})
                    return evaluate(q, db, SALT)

                expected, got = outcome(oracle), outcome(lambda: wrapper.execute(q))
                if isinstance(expected, str):
                    assert got == expected, (texts, q)
                else:
                    assert not isinstance(got, str), (got, texts, q)
                    assert got.schema == expected.schema
                    assert sorted(map(repr, got.rows)) == sorted(map(repr, expected.rows)), (texts, q)

    def test_type_error_in_the_pushed_predicate_is_the_wrappers_type_error(self, tmp_path):
        (tmp_path / "t.csv").write_text("k:integer\n1\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w", "ns", DelimitedDirAdapter(tmp_path)))
        q = Select(Scan(QualifiedName("ns", "t")),
                   Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.text("1"))))
        with pytest.raises(TypeCheckError):
            wrapper.execute(q)



def jsonl_outcome(thunk):
    """The result of thunk, or its error as text; a json-lines text can
    also fail with an error that is not a MeshError."""
    try:
        return thunk()
    except MeshError as exc:
        return f"{type(exc).__name__}: {exc.message}"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def jsonl_where(rng: random.Random, schema: RelationSchema):
    """A selection over the fields of a json-lines text, or over the key
    column when the text has none."""
    if not schema.attributes:
        schema = RelationSchema("t", [Attribute("k", Kind.INTEGER, nullable=True)])
    return random_where(rng, schema)


class TestJsonlSelectiveLoad:
    """A `doc_lines` load handed a selection decodes only the predicate's
    cells of the records it leaves out; reference_parse_jsonl followed by
    `evaluate` is its oracle."""

    def test_selected_then_evaluated_equals_the_reference_then_evaluated(self, tmp_path):
        rng = random.Random(20)
        adapter = DocLinesAdapter(tmp_path)
        name = QualifiedName("ns", "t")
        file = tmp_path / "t.jsonl"
        used = errors = 0
        for _ in range(600):
            text = random_jsonl(rng)
            file.write_bytes(text.encode("utf-8"))
            read = file.read_text(encoding="utf-8")  # newlines as the adapter reads them
            schema = jsonl_outcome(lambda: reference_parse_jsonl(read, "t").schema)
            if isinstance(schema, str):
                schema = RelationSchema("t", [])
            for _ in range(3):
                where = jsonl_where(rng, schema)
                query = Select(Scan(name), where)
                expected = jsonl_outcome(
                    lambda: evaluate(query, {name: reference_load(file)}, SALT)
                )
                got = jsonl_outcome(
                    lambda: evaluate(query, {name: adapter.load("t", where=where)}, SALT)
                )
                if isinstance(expected, str):
                    assert got == expected, text
                    errors += 1
                    continue
                assert (got.schema, got.rows) == (expected.schema, expected.rows), (text, where)
                everything = reference_load(file).rows
                kept = adapter.load("t", where=where).rows
                positions = iter(range(len(everything)))
                assert all(any(everything[p] == row for p in positions) for row in kept)
                used += len(kept) < len(everything)
        assert used > 300 and errors > 200

    def test_ill_typed_or_hashed_predicate_is_not_used(self, tmp_path):
        (tmp_path / "t.jsonl").write_text('{"k":1,"c":"a"}\n{"k":2,"c":"b"}\n', encoding="utf-8")
        adapter = DocLinesAdapter(tmp_path)
        everything = adapter.load("t").rows
        assert len(everything) == 2
        for where in [
            Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.text("1"))),
            Comparison(AttrRef("ghost"), CompareOp.EQ, Literal(Value.integer(1))),
            Comparison(HashCall(AttrRef("c")), CompareOp.EQ, Literal(Value.text("0"))),
        ]:
            assert adapter.load("t", where=where).rows == everything

    def test_malformed_cell_in_a_skipped_record_fails_as_the_full_decode(self, tmp_path):
        (tmp_path / "t.jsonl").write_text(
            '{"k":1,"at":"2024-01-01T00:00:00Z"}\n{"k":2,"at":"2024-02-30T00:00:00Z"}\n',
            encoding="utf-8",
        )
        adapter = DocLinesAdapter(tmp_path)
        where = Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.integer(1)))
        with pytest.raises(ConfigError) as full:
            adapter.load("t")
        with pytest.raises(ConfigError) as selective:
            adapter.load("t", where=where)
        assert selective.value.message == full.value.message == (
            "t.jsonl: line 2: day is out of range for month"
        )

    def test_load_with_where_calls_the_traced_reader_once_with_the_text_first(
        self, tmp_path, monkeypatch
    ):
        # meshbench/tracing.py wraps mmw.adapters.parse_jsonl and counts the
        # bytes of its first argument on every load.
        text = '{"k":1,"c":"a"}\n{"k":2,"c":"b"}\n'
        (tmp_path / "t.jsonl").write_text(text, encoding="utf-8")
        calls = []
        real = mmw.adapters.parse_jsonl

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(mmw.adapters, "parse_jsonl", recorded)
        wrapper = Wrapper(WrapperConfig("w", "ns", DocLinesAdapter(tmp_path)))
        where = Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.integer(2)))
        result = wrapper.execute(Select(Scan(QualifiedName("ns", "t")), where))
        assert [row[1] for row in result.rows] == [Value.text("b")]
        assert calls == [((text, "t", where), {})]


class TestSchemaReadsDecodeNothing:
    def test_relations_builds_no_value_and_splits_no_data_line(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        for name in ("a", "b"):
            _, text = random_file(rng, name, quote_free=True)
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
            (tmp_path / f"{name}.jsonl").write_text(
                '{"k":1,"at":"2024-02-29T00:00:00Z","d":1.50,"t":"x"}\n{"k":2,"flag":true}\n',
                encoding="utf-8",
            )
        calls = Counter()

        def spy(owner, attr):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[attr] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        spy(Value, "__init__")
        for attr in (
            "split_delimited",
            "regex_split_delimited",
            "reference_parse_csv",
            "reference_parse_jsonl",
        ):
            spy(mmw.formats, attr)
        adapters = [DelimitedDirAdapter(tmp_path), DocLinesAdapter(tmp_path)]
        schemas = [adapter.relations() for adapter in adapters]
        assert calls == Counter()
        assert [[schema.name for schema in listed] for listed in schemas] == [["a", "b"]] * 2
        # The spies see the loads' work.
        for adapter in adapters:
            adapter.load("a")
        assert calls["__init__"] > 0 and calls["split_delimited"] == 1
        assert calls["reference_parse_csv"] == calls["reference_parse_jsonl"] == 0
