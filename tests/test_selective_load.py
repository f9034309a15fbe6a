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
from mmw.codec import csv_row_pattern, matched_decoder, rows_to_wire
from mmw.errors import ConfigError, MeshError, TypeCheckError
from mmw.formats import (
    header_cells,
    iter_csv_rows,
    join_delimited,
    reference_parse_csv,
    reference_parse_jsonl,
    render_csv,
)
from mmw.query.ast import (
    AttrRef,
    CompareOp,
    Comparison,
    ConcatCall,
    HashCall,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Project,
    ProjectItem,
    QualifiedName,
    RedactCall,
    Scan,
    Select,
    Union,
    scan_names,
    walk,
)
from mmw.query.evaluate import evaluate, hash_value
from mmw.query.execute import (
    _compile_column_range,
    _compile_payload_predicate,
    _compile_predicate,
    execute,
)
from mmw.query.infer import infer_schema
from mmw.relational import MATCHED_PAYLOADS, Attribute, Kind, RelationSchema, Table, Value
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
        # each kind with null cells, and the null literal. The selective
        # load of a quote-free text tests each row with the same compiled
        # comparisons as execute; a quoted text is read whole, and its
        # answers are the same as evaluate's too.
        rng = random.Random(17)
        kinds = [Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP]
        attrs = [Attribute(f"c{position}", kind, nullable=True) for position, kind in enumerate(kinds)]
        schema = RelationSchema("t", attrs)
        rows = [tuple(random_value(rng, kind, nullable=True) for kind in kinds) for _ in range(30)]
        text_at = kinds.index(Kind.TEXT)
        files = {
            "quoted": rows,
            # The same rows with non-empty text cells that need no quotes.
            "plain": [
                row[:text_at] + (row[text_at] if row[text_at].is_null
                                 else Value.text(rng.choice(["a", "b", "x y"])),) + row[text_at + 1:]
                for row in rows
            ],
        }
        texts = {
            file: join_delimited([header_cells(schema)] + [
                [("", False) if cell is None else (cell, cell == "") for cell in wire]
                for wire in rows_to_wire(kinds, file_rows)
            ])
            for file, file_rows in files.items()
        }
        assert '"' in texts["quoted"] and '"' not in texts["plain"]
        write_files(tmp_path, texts)
        adapter = DelimitedDirAdapter(tmp_path)
        left_out = 0
        for file, file_rows in files.items():
            name = QualifiedName("ns", file)
            everything = adapter.load(file)
            for attr, kind in zip(attrs, kinds):
                for literal in [file_rows[rng.randrange(len(file_rows))][kinds.index(kind)], Value.null()]:
                    for op in CompareOp:
                        for where in (
                            Comparison(AttrRef(attr.name), op, Literal(literal)),
                            Comparison(Literal(literal), op, AttrRef(attr.name)),
                        ):
                            query = Select(Scan(name), where)
                            selected = adapter.load(file, where=where)
                            expected = evaluate(query, {name: everything})
                            got = execute(query, {name: selected})
                            assert (got.schema, got.rows) == (expected.schema, expected.rows), where
                            if file == "plain":
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


# Cells planted into a quote-free text: each is one the row pattern refuses
# or one a text check must settle exactly, valid or not.
PLANTED = {
    Kind.INTEGER: [
        "1000000000000000000", "-9223372036854775808", "9223372036854775807",
        "9223372036854775808", "-9223372036854775809", "12345678901234567890",
    ],
    Kind.TIMESTAMP: [
        "2024-02-29T00:00:00Z", "2000-02-29T12:00:00Z", "2023-02-29T00:00:00Z",
        "1900-02-29T00:00:00Z", "2024-04-31T00:00:00Z", "2024-01-31T23:59:59Z",
    ],
    Kind.DECIMAL: ["9" * 1001 + ".5", "1.", "-.5", "1e3"],
    Kind.BOOLEAN: ["True", "tru"],
    Kind.TEXT: ["x y"],
}


def quote_free_file(rng: random.Random, name: str = "t"):
    """Schema and quote-free csv text of a small random relation with
    planted faults: cells of `PLANTED`, empty cells in any column, ragged
    and blank lines, with or without a final line break."""
    kinds = [Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP]
    attrs = [Attribute("k", Kind.INTEGER, nullable=rng.random() < 0.3)]
    for position in range(rng.randint(0, 4)):
        attrs.append(Attribute(f"c{position}", rng.choice(kinds), nullable=rng.random() < 0.4))
    schema = RelationSchema(name, attrs)
    lines = []
    for _ in range(rng.randint(0, 12)):
        cells = [str(rng.randint(0, 5))]
        for attr in attrs[1:]:
            if attr.data_type is Kind.TEXT:
                cells.append("".join(rng.choice("abc xyz") for _ in range(rng.randint(0, 4))))
            else:
                (text,) = rows_to_wire([attr.data_type], [(random_value(rng, attr.data_type),)])[0]
                cells.append(text)
        lines.append(cells)
    for _ in range(rng.randint(0, 2) if lines else 0):
        cells = rng.choice(lines)
        fault = rng.random()
        if fault < 0.1:
            cells.append("1")  # ragged: one cell too many
        elif fault < 0.2 and len(cells) > 1:
            cells.pop()  # ragged: one cell short
        elif fault < 0.3:
            lines.insert(rng.randrange(len(lines) + 1), [""])  # a blank line
        else:
            position = rng.randrange(len(cells))
            if position >= len(attrs):
                continue  # an earlier fault made the line long
            kind = attrs[position].data_type
            cells[position] = "" if rng.random() < 0.4 else rng.choice(PLANTED[kind])
    text = "\n".join(",".join(cells) for cells in [[t for t, _ in header_cells(schema)]] + lines)
    return schema, text + "\n" if rng.random() < 0.7 else text


def matches_row_pattern(schema: RelationSchema, text: str) -> bool:
    """Whether the row pattern of schema matches every data line of text."""
    lines = text.partition("\n")[2].split("\n")
    if lines[-1] == "":  # after a final line break there is no last row
        lines.pop()
    return all(map(csv_row_pattern(schema.attributes).fullmatch, lines))


class TestRowPatternLoad:
    """A load of a quote-free csv text validates the text with one row
    pattern; with a usable selection it decodes only the predicate's
    columns and the kept rows, without one every cell. A text the pattern
    refuses is read by the reference parser."""

    def test_selected_then_executed_equals_the_reference_then_evaluated(self, tmp_path):
        rng = random.Random(23)
        adapter = DelimitedDirAdapter(tmp_path)
        name = QualifiedName("ns", "t")
        outcomes = Counter()
        for _ in range(700):
            schema, text = quote_free_file(rng)
            write_files(tmp_path, {"t": text})
            matched = matches_row_pattern(schema, text)
            for _ in range(3):
                where = random_where(rng, schema) if rng.random() < 0.5 else Comparison(
                    AttrRef("k"), CompareOp.EQ, Literal(Value.integer(rng.randint(0, 5)))
                )
                query = Select(Scan(name), where)
                expected = outcome(
                    lambda: evaluate(query, {name: reference_load(tmp_path / "t.csv")}, SALT)
                )
                got = outcome(lambda: execute(query, {name: adapter.load("t", where=where)}, SALT))
                if isinstance(expected, str):
                    assert got == expected, text
                    outcomes["error"] += 1
                    continue
                assert (got.schema, got.rows) == (expected.schema, expected.rows), (text, where)
                outcomes["matched" if matched else "refused"] += 1
        assert outcomes["error"] > 600 and outcomes["matched"] > 600 and outcomes["refused"] > 80

    def test_unselected_or_unusable_loads_equal_the_reference_then_evaluated(self, tmp_path):
        # Without a selection, or with one the reader may not use (a salted
        # hash(), an ill-typed comparison), a load returns every row.
        rng = random.Random(24)
        adapter = DelimitedDirAdapter(tmp_path)
        name = QualifiedName("ns", "t")
        outcomes = Counter()
        for _ in range(400):
            schema, text = quote_free_file(rng)
            write_files(tmp_path, {"t": text})
            matched = matches_row_pattern(schema, text)
            target = hash_value(Value.integer(rng.randint(0, 5)), SALT).payload
            for where in (
                None,
                Comparison(HashCall(AttrRef("k")), CompareOp.EQ, Literal(Value.text(target))),
                Comparison(AttrRef("k"), CompareOp.EQ, Literal(Value.text("1"))),
            ):
                query = Scan(name) if where is None else Select(Scan(name), where)
                reference = outcome(lambda: reference_load(tmp_path / "t.csv"))
                loaded = outcome(lambda: adapter.load("t", where=where))
                if isinstance(reference, str):
                    assert loaded == reference, text
                    outcomes["error"] += 1
                    continue
                assert (loaded.schema, loaded.rows) == (reference.schema, reference.rows), text
                expected = outcome(lambda: evaluate(query, {name: reference}, SALT))
                got = outcome(lambda: execute(query, {name: loaded}, SALT))
                if isinstance(expected, str):
                    assert got == expected, (text, where)
                else:
                    assert (got.schema, got.rows) == (expected.schema, expected.rows), (text, where)
                outcomes["matched" if matched else "refused"] += 1
        assert outcomes["error"] > 400 and outcomes["matched"] > 500 and outcomes["refused"] > 40

    def test_a_clean_point_load_checks_no_cell_and_decodes_the_key_and_kept_rows(
        self, tmp_path, monkeypatch
    ):
        rng = random.Random(7)
        attrs = [Attribute("id", Kind.INTEGER), Attribute("code", Kind.TEXT),
                 Attribute("qty", Kind.INTEGER, nullable=True), Attribute("price", Kind.DECIMAL),
                 Attribute("at", Kind.TIMESTAMP)]
        schema = RelationSchema("t", attrs)
        rows = [
            (Value.integer(i), Value.text(f"c{i}"), random_value(rng, Kind.INTEGER, nullable=True),
             random_value(rng, Kind.DECIMAL), random_value(rng, Kind.TIMESTAMP))
            for i in range(1, 201)
        ]
        text = render_csv(Table(schema, rows))
        assert '"' not in text
        (tmp_path / "t.csv").write_text(text, encoding="utf-8")
        calls = Counter()

        def counted(key, function):
            def call(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)
            return call

        for attr in ("split_delimited", "reference_parse_csv"):
            monkeypatch.setattr(mmw.formats, attr, counted(attr, getattr(mmw.formats, attr)))
        monkeypatch.setattr(Value, "__init__", counted("Value", Value.__init__))
        adapter = DelimitedDirAdapter(tmp_path)
        point = Comparison(AttrRef("id"), CompareOp.EQ, Literal(Value.integer(77)))
        low = Comparison(AttrRef("id"), CompareOp.GE, Literal(Value.integer(50)))
        high = Comparison(AttrRef("id"), CompareOp.LT, Literal(Value.integer(54)))
        for where, kept in ((point, [rows[76]]), (LogicalAnd(low, high), rows[49:53])):
            calls.clear()
            assert list(adapter.load("t", where=where).rows) == kept
            # One value per non-null cell of a kept row, besides the empty
            # text the `code` column's decoder holds: the key column is
            # tested on bare payloads.
            cells = sum(not value.is_null for row in kept for value in row)
            assert calls == Counter({"Value": cells + 1}), where
        # A load without a selection decodes every cell, and splits the text
        # no more than a selective load.
        calls.clear()
        assert list(adapter.load("t").rows) == rows
        assert calls == Counter({"Value": sum(not v.is_null for row in rows for v in row) + 1})


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
        adapter = DocLinesAdapter(tmp_path)
        name = QualifiedName("ns", "t")
        file = tmp_path / "t.jsonl"
        used = errors = 0
        # 600 texts of every shape, then 600 regular ones, which the record
        # pattern mostly settles, so that the selection is used.
        cases = [(random.Random(20), False)] * 600 + [(random.Random(21), True)] * 600
        for rng, regular in cases:
            text = random_jsonl(rng, regular)
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
            # A null first cell takes its field's kind from a later record.
            (tmp_path / f"{name}.jsonl").write_text(
                '{"k":1,"at":"2024-02-29T00:00:00Z","d":1.50,"t":"x","flag":null}\n'
                '{"k":2,"at":"2024-03-01T00:00:00Z","d":null,"t":"y","flag":true}\n',
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
            "reference_parse_csv",
            "reference_parse_jsonl",
            "csv_row_pattern",
        ):
            spy(mmw.formats, attr)
        adapters = [DelimitedDirAdapter(tmp_path), DocLinesAdapter(tmp_path)]
        schemas = [adapter.relations() for adapter in adapters]
        assert calls == Counter()
        assert [[schema.name for schema in listed] for listed in schemas] == [["a", "b"]] * 2
        # The spies see the loads' work.
        for adapter in adapters:
            adapter.load("a")
        # `a.csv` is quote-free and clean, so its load matches the row
        # pattern and never splits the text whole.
        assert calls["__init__"] > 0 and calls["csv_row_pattern"] == 1
        assert calls["split_delimited"] == 0
        assert calls["reference_parse_csv"] == calls["reference_parse_jsonl"] == 0
        # A text whose records differ in keys is not the record pattern's:
        # its schema is read by one reference call.
        (tmp_path / "c.jsonl").write_text(
            '{"k":1,"at":"2024-02-29T00:00:00Z","d":1.50,"t":"x"}\n{"k":2,"flag":true}\n',
            encoding="utf-8",
        )
        calls.clear()
        assert [schema.name for schema in adapters[1].relations()] == ["a", "b", "c"]
        assert calls["reference_parse_jsonl"] == 1


# Cell texts a quote-free csv row pattern accepts, with the forms whose
# payload is not the text's own: leading zeros, -0, trailing zeros, and
# decimals past the 28 digits `normalize()` keeps, which round together.
PAYLOAD_TEXTS = {
    Kind.BOOLEAN: ["true", "false"],
    Kind.INTEGER: ["0", "-0", "007", "7", "-3", "12", "999999999999999999", "-999999999999999999"],
    Kind.DECIMAL: [
        "0", "-0", "-0.000", "1.5", "1.50", "-1.5", "7", "007.0", "0.001",
        "1234567890123456789012345678901", "1234567890123456789012345678902",
        "1234567890123456789012345678901.5",
        "0.0000000000000000000000000000012345678901234567890123",
    ],
    Kind.TEXT: ["", "a", "ab", "b", "a b", "REDACTED", "RED", "ACTED", "1", "true"],
    Kind.TIMESTAMP: [
        "2024-02-29T00:00:00Z", "2024-03-01T00:00:00Z", "0001-01-01T00:00:00Z",
        "9999-12-31T23:59:59Z", "2023-12-31T23:59:59Z",
    ],
}

# JSON tokens of each kind, for json-lines fields; a field now and then
# takes a token of another kind and is widened to text.
PAYLOAD_TOKENS = {
    Kind.BOOLEAN: ["true", "false"],
    Kind.INTEGER: ["0", "-0", "7", "-3", "9223372036854775807"],
    Kind.DECIMAL: [
        "0.0", "-0.0", "-0.000", "1.5", "1.50", "7.0", "1e2", "100.0",
        "1234567890123456789012345678901.0", "1234567890123456789012345678902.0",
    ],
    Kind.TEXT: ['""', '"a"', '"b"', '"REDACTED"', '"1"', '"true"', '"1.5"'],
    Kind.TIMESTAMP: ['"2024-02-29T00:00:00Z"', '"2024-03-01T00:00:00Z"', '"0001-01-01T00:00:00Z"'],
}


def payload_csv_case(rng: random.Random):
    """A schema, the `Value` rows of random matched cell texts as the csv
    reader decodes them, and the payload columns it tests a selection on."""
    kinds = [Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP]
    attrs = [
        Attribute(f"a{p}", rng.choice(kinds), nullable=rng.random() < 0.4)
        for p in range(rng.randint(1, 5))
    ]
    texts = [
        ["" if attr.nullable and rng.random() < 0.2 else rng.choice(PAYLOAD_TEXTS[attr.data_type])
         for _ in range(rng.randint(1, 10))]
        if p == 0 else None
        for p, attr in enumerate(attrs)
    ]
    count = len(texts[0])
    texts[1:] = [
        ["" if attr.nullable and rng.random() < 0.2 else rng.choice(PAYLOAD_TEXTS[attr.data_type])
         for _ in range(count)]
        for attr in attrs[1:]
    ]
    schema = RelationSchema("t", attrs)
    rows = list(zip(*[list(map(matched_decoder(attr), column))
                      for attr, column in zip(attrs, texts)]))
    columns = {attr.name: mmw.formats._payload_column(attr, column)
               for attr, column in zip(attrs, texts)}
    return schema, rows, columns


def payload_jsonl_case(rng: random.Random, regular: bool = False):
    """The same for a random json-lines text the record pattern settles,
    or None for one it does not. A `regular` text misses no field and
    widens none."""
    kinds = [Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP]
    fields = {f"f{p}": rng.choice(kinds) for p in range(rng.randint(1, 4))}
    lines = []
    for _ in range(rng.randint(1, 10)):
        tokens = []
        for field, kind in fields.items():
            roll = rng.random()
            if roll < 0.08 and not regular:
                continue  # a missing field
            if roll < 0.16:
                token = "null"
            else:
                token = rng.choice(PAYLOAD_TOKENS[kind if roll < 0.9 or regular else rng.choice(kinds)])
            tokens.append(f'"{field}":{token}')
        lines.append("{" + ",".join(tokens) + "}")
    scanned = mmw.formats._scan_jsonl("\n".join(lines) + "\n", "t")
    if scanned is None:
        return None
    schema, image = scanned
    cells = image.columns
    rows = mmw.formats._decoded_rows(schema, image, None)
    columns = {
        attr.name: [None if c is None else MATCHED_PAYLOADS[attr.data_type](c) for c in column]
        for attr, column in zip(schema.attributes, cells)
    }
    return schema, rows, columns


def payload_operand(rng: random.Random, schema: RelationSchema, rows, kind: Kind):
    """An operand of kind `kind` over `schema`: an attribute, a literal
    (mostly a cell of the rows, so equality holds now and then), and for
    text a concat or redact."""
    same = [attr.name for attr in schema.attributes if attr.data_type is kind]
    roll = rng.random()
    if same and roll < 0.45:
        return AttrRef(rng.choice(same))
    if kind is Kind.TEXT and roll < 0.6:
        if rng.random() < 0.3:
            return RedactCall()
        sides = [payload_operand(rng, schema, rows, Kind.TEXT) for _ in range(2)]
        if rng.random() < 0.15:
            sides[rng.randrange(2)] = Literal(Value.null())
        return ConcatCall(*sides)
    pool = [row[p] for row in rows for p, attr in enumerate(schema.attributes)
            if attr.data_type is kind and not row[p].is_null]
    if pool and rng.random() < 0.7:
        return Literal(rng.choice(pool))
    return Literal(random_value(rng, kind))


def payload_predicate(rng: random.Random, schema: RelationSchema, rows, depth: int = 3):
    """A selection over `schema`: comparisons of every operator between
    attributes, literals, concats and redacts, under nested NOT/AND/OR;
    now and then with a null literal or operands of two kinds."""
    if depth > 0 and rng.random() < 0.45:
        shape = rng.random()
        if shape < 0.2:
            return LogicalNot(payload_predicate(rng, schema, rows, depth - 1))
        if shape < 0.3:
            # A range: two comparisons of one attribute, one side each.
            attr = AttrRef(rng.choice(schema.attributes).name)
            kind = schema.attribute(attr.name).data_type
            bounds = [Comparison(attr, rng.choice(list(CompareOp)),
                                 payload_operand(rng, schema, rows, kind)) for _ in range(2)]
            return LogicalAnd(*bounds)
        connective = LogicalAnd if shape < 0.6 else LogicalOr
        return connective(payload_predicate(rng, schema, rows, depth - 1),
                          payload_predicate(rng, schema, rows, depth - 1))
    kind = rng.choice(schema.attributes).data_type if rng.random() < 0.8 else Kind.TEXT
    left = payload_operand(rng, schema, rows, kind)
    roll = rng.random()
    if roll < 0.08:
        right = Literal(Value.null())
    elif roll < 0.14:
        other = rng.choice([k for k in PAYLOAD_TEXTS if k is not kind])
        right = Literal(random_value(rng, other))
    else:
        right = payload_operand(rng, schema, rows, kind)
    if rng.random() < 0.5:
        left, right = right, left
    return Comparison(left, rng.choice(list(CompareOp)), right)


class TestPayloadPredicate:
    """`_compile_payload_predicate` over the payload columns a file reader
    cuts out gives, row by row, what `_compile_predicate` gives over the
    rows of values the reader decodes: True, False or None (unknown)."""

    def test_payload_tests_equal_value_tests_row_by_row(self):
        rng = random.Random(26)
        regular = random.Random(27)
        seen = Counter()
        for case in range(1500):
            made = payload_csv_case(rng) if case % 2 else payload_jsonl_case(rng)
            if made is None:
                # A text the record pattern refuses is the reference's;
                # a regular one takes its turn.
                seen["unsettled"] += 1
                made = payload_jsonl_case(regular, regular=True)
            if made is None:
                continue
            schema, rows, columns = made
            index = {attr.name: p for p, attr in enumerate(schema.attributes)}
            for _ in range(4):
                where = payload_predicate(rng, schema, rows)
                expected = [_compile_predicate(where, index, "")(row) for row in rows]
                got = _compile_payload_predicate(where, schema)(columns, len(rows))
                assert len(got) == len(expected), where
                assert all(a is b for a, b in zip(got, expected)), (schema, rows, where, got)
                admitted = mmw.formats._selection_applies(where, schema)
                seen["admitted" if admitted else "refused"] += 1
                seen.update(map(repr, expected))
                for node in walk(where):
                    if isinstance(node, LogicalAnd):
                        seen["one pass"] += _compile_column_range(node, schema) is not None
                    if isinstance(node, Comparison):
                        kinds = {attr.data_type for attr in schema.attributes
                                 if AttrRef(attr.name) in (node.left, node.right)}
                        seen.update((node.op, kind) for kind in kinds)
                        seen.update(type(operand).__name__ for operand in (node.left, node.right))
        # Every operator on every kind, nulls, concat and redact operands,
        # and both outcomes of the reader's check.
        assert all(seen[(op, kind)] > 20 for op in CompareOp for kind in PAYLOAD_TEXTS)
        assert min(seen["True"], seen["False"], seen["None"]) > 1000
        assert seen["ConcatCall"] > 300 and seen["RedactCall"] > 100 and seen["one pass"] > 150
        assert seen["admitted"] > 3000 and seen["refused"] > 300

    def test_a_clean_jsonl_point_load_decodes_the_kept_records_alone(self, tmp_path, monkeypatch):
        rng = random.Random(8)
        text = "".join(
            f'{{"id": {i}, "kind": "{rng.choice("ab")}", "value": {rng.randint(0, 999) / 100:.2f},'
            f' "at": "2024-01-{rng.randint(1, 28):02d}T00:00:00Z", "note": null}}\n'
            for i in range(1, 151)
        )
        (tmp_path / "t.jsonl").write_text(text, encoding="utf-8")
        adapter = DocLinesAdapter(tmp_path)
        everything = adapter.load("t").rows
        calls = Counter()
        real = Value.__init__

        def counted(*args, **kwargs):
            calls["Value"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(Value, "__init__", counted)
        point = Comparison(AttrRef("id"), CompareOp.EQ, Literal(Value.integer(77)))
        low = Comparison(AttrRef("id"), CompareOp.GE, Literal(Value.integer(50)))
        late = Literal(Value.timestamp("2024-01-14T00:00:00Z"))
        high = Comparison(AttrRef("at"), CompareOp.GT, late)
        for where in (point, LogicalAnd(low, high)):
            test = _compile_predicate(where, {"id": 0, "at": 3}, "")
            kept = [row for row in everything if test(row)]
            calls.clear()
            assert adapter.load("t", where=where).rows == tuple(kept)
            # One value per non-null cell of a kept record, and none for
            # the records left out.
            assert calls == Counter({"Value": sum(not v.is_null for row in kept for v in row)})
