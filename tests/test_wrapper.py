"""Wrapper component and source adapters."""

from __future__ import annotations

import os
import random
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import mmw.adapters
from mmw.adapters import (
    RACY_WINDOW_NS,
    DelimitedDirAdapter,
    DocLinesAdapter,
    MemoryAdapter,
    SourceAdapter,
    _FileDirAdapter,
)
from mmw.errors import ConfigError, TypeCheckError, UnavailableError, UnknownRelationError
from mmw.formats import render_csv, render_jsonl
from mmw.mediator import Mediator
from mmw.query.ast import QualifiedName
from mmw.query.parse import parse_query
from mmw.relational import (
    Attribute,
    Kind,
    ProductSchema,
    RelationSchema,
    Table,
    Value,
    bag_equal,
    is_identifier,
)
from mmw.query.evaluate import evaluate
from mmw.runtime.protocol import ProtocolClient, ProtocolServer
from mmw.wrapper import Wrapper, WrapperConfig
from support import epoch_steps, make_environment, random_attribute, random_database, random_query, random_row

PEOPLE = RelationSchema(
    "people",
    [
        Attribute("id", Kind.INTEGER),
        Attribute("name", Kind.TEXT),
        Attribute("age", Kind.INTEGER, nullable=True),
    ],
    key=("id",),
)


def people_rows():
    return [
        (Value.integer(1), Value.text("ada"), Value.integer(36)),
        (Value.integer(2), Value.text("grace"), Value.integer(45)),
        (Value.integer(3), Value.text("edsger"), Value.null()),
    ]


def memory_wrapper(component_id="w_mem", namespace="ops"):
    adapter = MemoryAdapter([PEOPLE], {"people": people_rows()})
    return Wrapper(WrapperConfig(component_id, namespace, adapter))


def published_environment(wrapper):
    """The wrapper's relations by qualified name, as its schema publishes them."""
    return {
        QualifiedName(wrapper.namespace, schema.name): schema
        for schema in wrapper.get_schema().relations
    }


FILE_KINDS = {
    "delimited_dir": (DelimitedDirAdapter, ".csv", render_csv),
    "doc_lines": (DocLinesAdapter, ".jsonl", render_jsonl),
}


def wrapper_over(kind, tables, directory):
    """A wrapper serving `tables` from an adapter of `kind`; the file kinds
    get one .csv or .jsonl file per table in `directory`."""
    if kind == "memory":
        adapter = MemoryAdapter(
            [table.schema for table in tables], {table.schema.name: table.rows for table in tables}
        )
    else:
        adapter_class, suffix, render = FILE_KINDS[kind]
        for table in tables:
            (directory / f"{table.schema.name}{suffix}").write_text(render(table), encoding="utf-8")
        adapter = adapter_class(directory)
    return Wrapper(WrapperConfig(f"w_{kind}", "ops", adapter))


class TestMemoryWrapper:
    def test_schema_is_product_per_namespace(self):
        wrapper = memory_wrapper()
        product = wrapper.get_schema()
        assert isinstance(product, ProductSchema)
        assert product.product == "ops"
        assert product.relation("people").attribute_names == ("id", "name", "age")

    def test_select_star(self):
        wrapper = memory_wrapper()
        result = wrapper.execute(parse_query("SELECT * FROM ops.people"))
        assert len(result.rows) == 3

    def test_foreign_namespace_rejected(self):
        wrapper = memory_wrapper()
        with pytest.raises(UnknownRelationError) as err:
            wrapper.execute(parse_query("SELECT * FROM other.people"))
        assert "foreign namespace" in str(err.value)

    def test_epoch_increments_on_mutation_only(self):
        wrapper = memory_wrapper()
        first = wrapper.epoch()
        assert wrapper.epoch() == first
        wrapper.adapter.insert(
            "people", (Value.integer(4), Value.text("alan"), Value.integer(41))
        )
        assert epoch_steps(first, wrapper.epoch()) == (1,)

    def test_construction_probes_nothing_and_the_first_epoch_takes_the_baseline(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "t.csv").write_text("id:integer\n1\n", encoding="utf-8")
        adapter = DelimitedDirAdapter(tmp_path)
        probes = []
        fingerprint = adapter.fingerprint
        monkeypatch.setattr(adapter, "fingerprint", lambda *a: probes.append(a) or fingerprint(*a))
        wrapper = Wrapper(WrapperConfig("w_csv", "files", adapter))
        assert probes == []
        temp = tmp_path / ".t.csv.tmp"
        temp.write_text("id:integer\n2\n3\n", encoding="utf-8")
        os.replace(temp, tmp_path / "t.csv")
        first = wrapper.epoch()
        assert wrapper.epoch() == first
        result = wrapper.execute(parse_query("SELECT * FROM files.t"))
        assert sorted(row[0].payload for row in result.rows) == [2, 3]

    def test_epoch_strictly_monotone_over_random_mutations(self):
        wrapper = memory_wrapper()
        rng = random.Random(55)
        previous = wrapper.epoch()
        for _ in range(100):
            if rng.random() < 0.5:
                wrapper.adapter.insert(
                    "people",
                    (Value.integer(rng.randint(5, 10**6)), Value.text("x"), Value.null()),
                )
                current = wrapper.epoch()
                assert epoch_steps(previous, current) == (1,)
            else:
                current = wrapper.epoch()
                assert current == previous
            previous = current

    def test_standalone_quantum(self):
        # Configures and serves with no other component present.
        wrapper = memory_wrapper()
        assert wrapper.get_schema().product == "ops"
        assert wrapper.stats()["queries_served"] == 0

    def test_non_conforming_rows_are_refused(self):
        wrapper = memory_wrapper()
        epoch = wrapper.epoch()
        bad = (Value.text("x"), Value.text("ada"), Value.null())
        with pytest.raises(ConfigError, match="row does not conform to 'people': "):
            wrapper.adapter.insert("people", bad)
        with pytest.raises(ConfigError, match="row does not conform to 'people': "):
            wrapper.adapter.replace_rows("people", people_rows() + [bad])
        assert wrapper.epoch() == epoch
        assert bag_equal(wrapper.adapter.load("people"), memory_wrapper().adapter.load("people"))

    def test_execute_matches_reference_evaluator(self):
        wrapper = memory_wrapper()
        q = parse_query("SELECT name, hash(name) AS nh FROM ops.people WHERE age >= 40")
        snapshot = {k: wrapper.adapter.load(k.relation) for k in published_environment(wrapper)}
        assert bag_equal(wrapper.execute(q), evaluate(q, snapshot, wrapper.config.salt))


class TestDelimitedDirWrapper:
    def test_golden_header_file(self, tmp_path):
        # Golden file committed before the adapter was built; cross-checked
        # against an independent header parse.
        (tmp_path / "people.csv").write_text(
            "id:integer,name:text\n1,ada\n2,grace\n", encoding="utf-8"
        )
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        product = wrapper.get_schema()
        relation = product.relation("people")
        header = (tmp_path / "people.csv").read_text().splitlines()[0]
        expected = []
        for cell in header.split(","):
            name, type_name = cell.split(":")
            expected.append((name, type_name))
        assert [(a.name, a.data_type.value) for a in relation.attributes] == expected

    def test_rows_served(self, tmp_path):
        (tmp_path / "people.csv").write_text(
            "id:integer,name:text\n1,ada\n2,grace\n", encoding="utf-8"
        )
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        result = wrapper.execute(parse_query("SELECT name FROM files.people WHERE id = 2"))
        assert result.rows == ((Value.text("grace"),),)

    def test_empty_directory_is_empty_product(self, tmp_path):
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        assert wrapper.get_schema().relations == ()

    def test_missing_directory_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            DelimitedDirAdapter(tmp_path / "nope")

    def test_source_disappearing_is_unavailable(self, tmp_path):
        (tmp_path / "people.csv").write_text("id:integer\n1\n", encoding="utf-8")
        adapter = DelimitedDirAdapter(tmp_path)
        wrapper = Wrapper(WrapperConfig("w_csv", "files", adapter))
        wrapper.execute(parse_query("SELECT * FROM files.people"))
        import shutil

        shutil.rmtree(tmp_path)
        with pytest.raises(UnavailableError):
            wrapper.execute(parse_query("SELECT * FROM files.people"))

    def test_invalid_relation_file_name(self, tmp_path):
        (tmp_path / "People.csv").write_text("id:integer\n", encoding="utf-8")
        adapter = DelimitedDirAdapter(tmp_path)
        with pytest.raises(ConfigError):
            adapter.relations()

    def test_relation_files_follow_the_pathlib_suffix_rule(self, tmp_path):
        # The file adapters list names as text; which names count, their
        # order and the refused ones are those of Path.suffix and Path.stem.
        rng = random.Random(20)
        pieces = ["a", "b1", "_", ".", "csv", "jsonl", ".csv", ".jsonl", "A", "x.y", "-"]
        for case in range(300):
            directory = tmp_path / f"case{case}"
            directory.mkdir()
            for _ in range(rng.randint(0, 6)):
                name = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 4)))
                target = directory / name
                if name in (".", "..") or target.exists():
                    continue
                if rng.random() < 0.2:
                    target.mkdir()
                else:
                    target.write_text("", encoding="utf-8")
            for adapter_class in (DelimitedDirAdapter, DocLinesAdapter):
                adapter = adapter_class(directory)
                files = sorted(p for p in directory.iterdir() if p.suffix == adapter.suffix)
                refused = [p.name for p in files if not is_identifier(p.stem)]
                if refused:
                    with pytest.raises(ConfigError) as err:
                        adapter._files()
                    assert err.value.message == (
                        f"file name {refused[0]!r} is not a valid relation identifier"
                    )
                else:
                    assert adapter._files() == [p.name for p in files]
        listing = tmp_path / "case0"
        adapter = DelimitedDirAdapter(listing)
        shutil.rmtree(listing)
        with pytest.raises(UnavailableError) as err:
            adapter._files()
        assert err.value.message.startswith("source unavailable: [Errno 2]")

    def test_repeated_header_attribute_is_config_error_naming_file(self, tmp_path):
        (tmp_path / "t.csv").write_text("id:integer,id:text\n1,a\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "n", DelimitedDirAdapter(tmp_path)))
        for attempt in (
            wrapper.get_schema,
            lambda: wrapper.execute(parse_query("SELECT id FROM n.t")),
        ):
            with pytest.raises(ConfigError) as err:
                attempt()
            assert "t.csv" in err.value.message
            assert "duplicate attribute name 'id'" in err.value.message

    def test_file_epoch_bumps_on_touch(self, tmp_path):
        target = tmp_path / "people.csv"
        target.write_text("id:integer\n1\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        first = wrapper.epoch()
        assert wrapper.epoch() == first
        time.sleep(0.01)
        target.write_text("id:integer\n1\n2\n", encoding="utf-8")
        assert epoch_steps(first, wrapper.epoch()) == (1,)

    def test_atomic_rewrite_keeping_size_and_mtime_bumps_epoch(self, tmp_path):
        # A rewrite through a temporary file and os.replace that keeps the
        # size and the modification time changes only the inode number.
        target = tmp_path / "people.csv"
        target.write_text("id:integer\n1\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        mediator = Mediator(
            "m_files", "mirror", {"files": wrapper},
            ["CREATE VIEW people AS SELECT * FROM files.people"],
        )
        q = parse_query("SELECT * FROM mirror.people")
        assert mediator.execute(q).rows == ((Value.integer(1),),)
        first = wrapper.epoch()
        before = target.stat()
        staged = tmp_path / "people.csv.tmp"
        staged.write_text("id:integer\n2\n", encoding="utf-8")
        os.utime(staged, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(staged, target)
        after = target.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert mediator.execute(q).rows == ((Value.integer(2),),)
        assert epoch_steps(first, wrapper.epoch()) == (1,)

    def test_in_place_rewrite_restoring_mtime_bumps_epoch(self, tmp_path):
        # Writing over the file in place and restoring its times keeps the
        # size, the modification time and the inode; only the change time
        # moves, and only once the clock has ticked since the last change.
        target = tmp_path / "people.csv"
        target.write_text("id:integer\n1\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        mediator = Mediator(
            "m_files", "mirror", {"files": wrapper},
            ["CREATE VIEW people AS SELECT * FROM files.people"],
        )
        q = parse_query("SELECT * FROM mirror.people")
        assert mediator.execute(q).rows == ((Value.integer(1),),)
        first = wrapper.epoch()
        before = target.stat()
        deadline = time.monotonic() + 5
        while True:
            with open(target, "r+", encoding="utf-8") as handle:
                handle.write("id:integer\n2\n")
            os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = target.stat()
            if after.st_ctime_ns != before.st_ctime_ns:
                break
            assert time.monotonic() < deadline, "the change time never moved"
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
            before.st_size, before.st_mtime_ns, before.st_ino
        )
        assert mediator.execute(q).rows == ((Value.integer(2),),)
        assert epoch_steps(first, wrapper.epoch()) == (1,)

    def test_pushdown_equals_naive_scan_on_large_file(self, tmp_path):
        rng = random.Random(77)
        lines = ["id:integer,bucket:integer,payload:text"]
        for i in range(10_000):
            lines.append(f"{i},{rng.randint(0, 9)},p{i}")
        (tmp_path / "big.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        q = parse_query("SELECT id FROM files.big WHERE bucket = 3")
        pushed = wrapper.execute(q)
        snapshot = {k: wrapper.adapter.load(k.relation) for k in published_environment(wrapper)}
        naive = evaluate(q, snapshot)
        assert bag_equal(pushed, naive)
        assert len(pushed.rows) > 0


class TestDocLinesWrapper:
    def test_union_of_fields_with_widening(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(
            '{"x":1,"who":"ada"}\n{"x":"two"}\n{"x":3,"who":null}\n', encoding="utf-8"
        )
        wrapper = Wrapper(WrapperConfig("w_doc", "docs", DocLinesAdapter(tmp_path)))
        relation = wrapper.get_schema().relation("events")
        x = relation.attribute("x")
        who = relation.attribute("who")
        assert x.data_type is Kind.TEXT and x.nullable  # conflicted -> nullable text
        assert who.data_type is Kind.TEXT and who.nullable

    def test_widening_against_naive_oracle(self, tmp_path):
        # Oracle: per-field kind sets computed independently; any field with
        # more than one kind must come out text, single-kind fields keep it.
        import json

        rng = random.Random(88)
        records = []
        for _ in range(200):
            record = {}
            if rng.random() < 0.9:
                record["a"] = rng.choice([1, "x", True])
            if rng.random() < 0.5:
                record["b"] = rng.choice([2, None])
            records.append(record)
        text = "\n".join(json.dumps(r) for r in records) + "\n"
        (tmp_path / "r.jsonl").write_text(text, encoding="utf-8")
        adapter = DocLinesAdapter(tmp_path)
        schema = adapter.relations()[0]

        kinds_seen: dict[str, set] = {}
        for record in records:
            for field_name, raw in record.items():
                if raw is None:
                    continue
                kind = {bool: Kind.BOOLEAN, int: Kind.INTEGER, str: Kind.TEXT}[type(raw)]
                kinds_seen.setdefault(field_name, set()).add(kind)
        for field_name, kinds in kinds_seen.items():
            expected = next(iter(kinds)) if len(kinds) == 1 else Kind.TEXT
            attr = schema.attribute(field_name)
            assert attr.data_type is expected
            if len(kinds) > 1:
                assert attr.nullable

    def test_execute_over_documents(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(
            '{"x":1,"who":"ada"}\n{"x":2,"who":"grace"}\n', encoding="utf-8"
        )
        wrapper = Wrapper(WrapperConfig("w_doc", "docs", DocLinesAdapter(tmp_path)))
        result = wrapper.execute(parse_query("SELECT who FROM docs.events WHERE x = 2"))
        assert result.rows == ((Value.text("grace"),),)


class TestWrapperContract:
    @pytest.mark.parametrize("kind", ["memory", "delimited_dir", "doc_lines"])
    def test_universal_interface_on_random_queries(self, kind, tmp_path):
        # For every adapter and well-typed query, execute() must bag-equal
        # the reference evaluation of the materialized snapshot.
        rng = random.Random(99)
        schemas = make_environment(rng, namespaces=("ops",), relations_per_namespace=3)
        # A doc_lines relation takes its columns from its records, so an
        # empty table would have none to query.
        db = random_database(rng, schemas, max_rows=8)
        while not all(table.rows for table in db.values()):
            db = random_database(rng, schemas, max_rows=8)
        wrapper = wrapper_over(kind, list(db.values()), tmp_path)
        for qname, table in db.items():
            assert wrapper.adapter.load(qname.relation).row_bag() == table.row_bag()
        env = published_environment(wrapper)
        for _ in range(100):
            q = random_query(rng, env, allow_union=True)
            snapshot = {k: wrapper.adapter.load(k.relation) for k in env}
            assert bag_equal(wrapper.execute(q), evaluate(q, snapshot, ""))

    @pytest.mark.parametrize(
        "adapter_class,file_name,text",
        [
            (DelimitedDirAdapter, "people.csv", "id:integer,name:text\n1,ada\n2\n"),
            (DocLinesAdapter, "people.jsonl", '{"id":1,"name":"ada"}\n{"id":2,\n'),
            pytest.param(
                DocLinesAdapter,
                "people.jsonl",
                '{"id":1,"name":"ada"}\n' + "[" * 200_000 + "\n",
                id="DocLinesAdapter-deep-nesting",
            ),
        ],
    )
    def test_malformed_data_row_is_config_error_naming_the_file(
        self, tmp_path, adapter_class, file_name, text
    ):
        (tmp_path / file_name).write_text(text, encoding="utf-8")
        adapter = adapter_class(tmp_path)
        wrapper = Wrapper(WrapperConfig("w_bad", "files", adapter))
        if adapter_class is DelimitedDirAdapter:
            # The header is intact and the schema decodes no data row.
            assert adapter.relations()[0].attribute_names == ("id", "name")
        with pytest.raises(ConfigError) as err:
            adapter.load("people")
        assert str(err.value).startswith(f"{file_name}: line ")
        with pytest.raises(ConfigError) as err:
            wrapper.execute(parse_query("SELECT * FROM files.people"))
        assert str(err.value).startswith(f"{file_name}: line ")

    def test_schema_stability(self, tmp_path):
        (tmp_path / "r.csv").write_text("a:integer\n1\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))
        assert wrapper.get_schema() == wrapper.get_schema()

    def test_lineage_points_at_source(self):
        wrapper = memory_wrapper()
        node = wrapper.lineage("people")
        assert node.component == "w_mem"
        assert node.kind == "wrapper"
        assert node.source.startswith("memory")
        assert node.children == ()

    def test_stats_and_log(self):
        wrapper = memory_wrapper()
        wrapper.execute(parse_query("SELECT * FROM ops.people"))
        with pytest.raises(UnknownRelationError):
            wrapper.execute(parse_query("SELECT * FROM ops.nope"))
        stats = wrapper.stats()
        assert stats["queries_served"] == 1
        assert stats["rows_returned"] == 3
        assert stats["errors"] == 1
        assert len(wrapper.access_log) == 2
        assert [entry.outcome for entry in wrapper.access_log] == ["ok", "error"]

    def test_stopped_wrapper_is_unavailable(self):
        wrapper = memory_wrapper()
        wrapper.stop()
        with pytest.raises(UnavailableError):
            wrapper.execute(parse_query("SELECT * FROM ops.people"))


PETS = RelationSchema(
    "pets", [Attribute("pet", Kind.TEXT), Attribute("owner", Kind.INTEGER)], key=("pet",)
)
KINDS = ["memory", "delimited_dir", "doc_lines"]


def people_and_pets(kind, directory):
    pets = Table(PETS, [(Value.text("rex"), Value.integer(1)), (Value.text("tom"), Value.integer(3))])
    return wrapper_over(kind, [Table(PEOPLE, people_rows()), pets], directory)


@pytest.fixture()
def source_reads(monkeypatch):
    """Counts, on every adapter class, the relations() calls and the
    relations read from the source: a file's text read or a memory relation
    loaded. A call counts once it has returned."""
    counts = Counter()

    def spy(cls, method, key):
        real = getattr(cls, method)

        def counted(adapter, *args, **kwargs):
            result = real(adapter, *args, **kwargs)
            counts[key(*args)] += 1
            return result

        monkeypatch.setattr(cls, method, counted)

    for cls in (MemoryAdapter, _FileDirAdapter):
        spy(cls, "relations", lambda: "relations()")
    spy(MemoryAdapter, "load", lambda relation: relation)
    spy(_FileDirAdapter, "_read", lambda file: file.rsplit(".", 1)[0])
    return counts


class TestOneReadPerScan:
    @pytest.mark.parametrize("hosting", ["in_process", "tcp"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_relation_is_unknown_relation_without_a_read(
        self, kind, hosting, tmp_path, source_reads
    ):
        wrapper = people_and_pets(kind, tmp_path)
        text = "SELECT * FROM ops.ghost"
        with pytest.raises(UnknownRelationError) as err:
            if hosting == "in_process":
                wrapper.execute(parse_query(text))
            else:
                server = ProtocolServer(wrapper, "127.0.0.1", 0)
                client = ProtocolClient(server.host, server.port)
                try:
                    client.request({"type": "exec_query", "query": text})
                finally:
                    client.close()
                    server.close()
        assert err.value.origin == wrapper.component_id
        assert "'ghost'" in err.value.message
        assert source_reads == Counter()
        assert [entry.outcome for entry in wrapper.access_log] == ["error"]

    @pytest.mark.parametrize(
        "text,reads",
        [
            ("SELECT name FROM ops.people WHERE id = 2", {"people": 1}),
            (
                "SELECT name FROM ops.people JOIN ops.pets ON id = owner WHERE pet = 'rex'",
                {"people": 1, "pets": 1},
            ),
            (
                "SELECT name FROM ops.people JOIN ops.people ON id = id AND name = name"
                " AND age = age WHERE id > 1 UNION SELECT name FROM ops.people",
                {"people": 1},
            ),
        ],
        ids=["scan", "join", "self-join-and-union"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_execute_reads_each_scanned_relation_once(
        self, kind, text, reads, tmp_path, source_reads
    ):
        wrapper = people_and_pets(kind, tmp_path)
        snapshot = {
            QualifiedName("ops", name): wrapper.adapter.load(name) for name in ("people", "pets")
        }
        q = parse_query(text)
        source_reads.clear()
        result = wrapper.execute(q)
        assert source_reads == Counter(reads)
        assert bag_equal(result, evaluate(q, snapshot))


@pytest.fixture()
def decodes(monkeypatch):
    """Counts, by relation name, the calls of the decoders the file adapters
    look up in mmw.adapters."""
    counts = Counter()

    def spy(name, relation_of):
        real = getattr(mmw.adapters, name)

        def counted(*args):
            counts[relation_of(*args)] += 1
            return real(*args)

        monkeypatch.setattr(mmw.adapters, name, counted)

    spy("iter_csv_rows", lambda name, text, where=None: name)
    spy("parse_jsonl", lambda text, name, where=None: name)
    return counts


def rewrite_in_place(file: Path, text: str) -> None:
    with open(file, "r+", encoding="utf-8") as handle:
        handle.write(text)
        handle.truncate()


@pytest.mark.parametrize("kind", FILE_KINDS)
class TestLoadReadsCurrentText:
    def test_same_size_rewrite_in_place_decodes_again(self, kind, tmp_path, decodes):
        wrapper = people_and_pets(kind, tmp_path)
        file = tmp_path / f"people{FILE_KINDS[kind][1]}"
        first = wrapper.adapter.load("people")
        text = file.read_text(encoding="utf-8")
        changed = text.replace("grace", "gracf")
        assert len(changed) == len(text)
        rewrite_in_place(file, changed)
        second = wrapper.adapter.load("people")
        assert decodes == Counter({"people": 2})
        assert second != first
        assert Value.text("gracf") in {row[1] for row in second.rows}

    def test_malformed_text_is_an_error_until_mended(self, kind, tmp_path):
        wrapper = people_and_pets(kind, tmp_path)
        adapter_class, suffix, render = FILE_KINDS[kind]
        file = tmp_path / f"people{suffix}"
        good = file.read_text(encoding="utf-8")
        wrapper.adapter.load("people")
        file.write_text(good + ("1,ada\n" if kind == "delimited_dir" else "{\n"), encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                wrapper.adapter.load("people")
            assert str(err.value).startswith(f"people{suffix}: line ")
        mended = Table(PEOPLE, people_rows()[:1])
        file.write_text(render(mended), encoding="utf-8")
        assert wrapper.adapter.load("people") == adapter_class(tmp_path).load("people")
        assert wrapper.adapter.load("people").rows == mended.rows

    def test_concurrent_loads_get_their_own_relation(self, kind, tmp_path):
        wrapper = people_and_pets(kind, tmp_path)
        expected = {name: wrapper.adapter.load(name) for name in ("people", "pets")}
        wrong = []

        def reader(order):
            for _ in range(100):
                for name in order:
                    if wrapper.adapter.load(name) != expected[name]:
                        wrong.append(name)

        threads = [
            threading.Thread(target=reader, args=(order,))
            for order in (("people", "pets"), ("pets", "people"), ("people",), ("pets",))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


@pytest.mark.parametrize("kind", FILE_KINDS)
class TestLoadOpensItsFileByName:
    """A file adapter's load opens `relation + suffix` and lists no
    directory; `relations()` still lists it and refuses a bad file name."""

    def test_a_missing_relation_is_unknown_and_a_badly_named_sibling_is_ignored(
        self, kind, tmp_path
    ):
        adapter_class, suffix, render = FILE_KINDS[kind]
        (tmp_path / f"people{suffix}").write_text(render(Table(PEOPLE, people_rows())),
                                                  encoding="utf-8")
        (tmp_path / f"Bad name{suffix}").write_text("", encoding="utf-8")
        adapter = adapter_class(tmp_path)
        assert adapter.load("people").rows == Table(PEOPLE, people_rows()).rows
        for relation in ("ghost", "Ghost", f"people{suffix}", "../people", ""):
            with pytest.raises(UnknownRelationError) as err:
                adapter.load(relation)
            assert err.value.message == f"source has no relation {relation!r}"
        with pytest.raises(ConfigError) as err:
            adapter.relations()
        assert err.value.message == (
            f"file name {'Bad name' + suffix!r} is not a valid relation identifier"
        )

    def test_a_removed_directory_is_unavailable(self, kind, tmp_path):
        adapter_class, suffix, render = FILE_KINDS[kind]
        directory = tmp_path / "source"
        directory.mkdir()
        (directory / f"people{suffix}").write_text(render(Table(PEOPLE, people_rows())),
                                                   encoding="utf-8")
        adapter = adapter_class(directory)
        shutil.rmtree(directory)
        for relation in ("people", "ghost"):
            with pytest.raises(UnavailableError) as err:
                adapter.load(relation)
            assert err.value.message.startswith("source unavailable: [Errno 2]")

    def test_a_directory_named_as_a_relation_file_is_unavailable(self, kind, tmp_path):
        adapter_class, suffix, _ = FILE_KINDS[kind]
        (tmp_path / f"t{suffix}").mkdir()
        adapter = adapter_class(tmp_path)
        for read in (lambda: adapter.load("t"), adapter.relations):
            with pytest.raises(UnavailableError) as err:
                read()
            assert err.value.message.startswith("source unavailable: ")


class TestRewritesAgainstFreshAdapter:
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_answers_equal_the_oracle_over_a_fresh_adapter(self, kind, seed, tmp_path):
        # Queries interleave with atomic, in-place, same-size and header
        # rewrites; each answer must equal the reference evaluation of what
        # a newly built adapter reads from the directory at that moment.
        rng = random.Random(seed)
        adapter_class, suffix, render = FILE_KINDS[kind]
        schemas = [schema for schema in make_environment(rng, ("ops",), 3).values()]
        serial = len(schemas)

        def random_rows(schema):
            # A doc_lines relation takes its columns from its records, and
            # the key column holds 0..3 as in random_database.
            return [
                (Value.integer(rng.randint(0, 3)), *random_row(rng, schema)[1:])
                for _ in range(rng.randint(1, 8))
            ]

        def write(table, how):
            file = tmp_path / f"{table.schema.name}{suffix}"
            if how == "atomic":
                staged = tmp_path / f"{table.schema.name}.tmp"
                staged.write_text(render(table), encoding="utf-8")
                os.replace(staged, file)
            else:
                rewrite_in_place(file, render(table))

        tables = {schema.name: Table(schema, random_rows(schema)) for schema in schemas}
        for table in tables.values():
            (tmp_path / f"{table.schema.name}{suffix}").write_text(render(table), encoding="utf-8")
        wrapper = Wrapper(WrapperConfig(f"w_{kind}", "ops", adapter_class(tmp_path)))
        moves = Counter()
        for _ in range(120):
            name = rng.choice(sorted(tables))
            table = tables[name]
            move = rng.choice(["query"] * 4 + ["atomic", "in_place", "same_size", "header"])
            moves[move] += 1
            if move in ("atomic", "in_place"):
                tables[name] = Table(table.schema, random_rows(table.schema))
                write(tables[name], move)
            elif move == "same_size":
                # Moving one key to another value in 0..3 keeps the size.
                rows = [list(row) for row in table.rows]
                row = rng.choice(rows)
                row[0] = Value.integer((row[0].payload + rng.randint(1, 3)) % 4)
                changed = Table(table.schema, rows)
                assert len(render(changed)) == len(render(table))
                tables[name] = changed
                write(changed, "in_place")
            elif move == "header":
                attributes = [table.schema.attributes[0]] + [
                    random_attribute(rng, f"c{serial}_{i}") for i in range(rng.randint(1, 3))
                ]
                serial += 1
                schema = RelationSchema(name, attributes)
                tables[name] = Table(schema, random_rows(schema))
                write(tables[name], rng.choice(["atomic", "in_place"]))
            else:
                fresh = adapter_class(tmp_path)
                env = {QualifiedName("ops", s.name): s for s in fresh.relations()}
                q = random_query(rng, env, allow_union=True)
                snapshot = {k: fresh.load(k.relation) for k in env}
                assert wrapper.execute(q) == evaluate(q, snapshot, "")
            assert wrapper.adapter.load(name) == adapter_class(tmp_path).load(name)
        assert all(moves[move] for move in ("query", "atomic", "in_place", "same_size", "header"))


class FrozenStat:
    """Makes one file report the stat it had when this was made, whatever is
    written to it later, and the adapter's clock read `now`."""

    def __init__(self, monkeypatch, file: Path):
        self.stat = file.stat()
        self.now = self.stat.st_ctime_ns
        real_stat = os.stat

        def stat(path, *args, **kwargs):
            same = os.fspath(path) == os.fspath(file)
            return self.stat if same else real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(mmw.adapters, "time", self)

    def time_ns(self) -> int:
        return self.now


class TestRacyFingerprint:
    """A rewrite in place that keeps the size within one ctime tick of the
    change before it leaves the whole stat unchanged."""

    def frozen(self, monkeypatch, tmp_path):
        file = tmp_path / "people.csv"
        file.write_text("id:integer\n1\n", encoding="utf-8")
        clock = FrozenStat(monkeypatch, file)
        return file, clock, Wrapper(WrapperConfig("w_csv", "files", DelimitedDirAdapter(tmp_path)))

    def test_unchanged_stat_with_changed_bytes_in_the_window_moves_the_epoch(
        self, monkeypatch, tmp_path
    ):
        file, clock, wrapper = self.frozen(monkeypatch, tmp_path)
        clock.now += RACY_WINDOW_NS - 1
        first = wrapper.epoch()
        assert wrapper.epoch() == first
        rewrite_in_place(file, "id:integer\n2\n")
        assert epoch_steps(first, wrapper.epoch()) == (1,)
        assert epoch_steps(first, wrapper.epoch()) == (1,)

    def test_outside_the_window_the_stat_alone_decides(self, monkeypatch, tmp_path):
        file, clock, wrapper = self.frozen(monkeypatch, tmp_path)
        clock.now += RACY_WINDOW_NS
        first = wrapper.epoch()
        rewrite_in_place(file, "id:integer\n2\n")
        assert wrapper.epoch() == first

    def test_leaving_the_window_moves_the_epoch_once(self, monkeypatch, tmp_path):
        _, clock, wrapper = self.frozen(monkeypatch, tmp_path)
        first = wrapper.epoch()
        clock.now += RACY_WINDOW_NS
        assert epoch_steps(first, wrapper.epoch()) == (1,)
        clock.now += RACY_WINDOW_NS
        assert epoch_steps(first, wrapper.epoch()) == (1,)


class TestLineage:
    def test_a_malformed_sibling_file_does_not_matter(self, tmp_path):
        (tmp_path / "good.csv").write_text("id:integer\n1\n", encoding="utf-8")
        (tmp_path / "dup.csv").write_text("id:integer,id:text\n1,a\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_csv", "n", DelimitedDirAdapter(tmp_path)))
        assert wrapper.execute(parse_query("SELECT * FROM n.good")).rows == ((Value.integer(1),),)
        node = wrapper.lineage("good")
        assert (node.component, node.relation) == ("w_csv", "good")

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_relation_names_the_wrapper(self, kind, tmp_path):
        wrapper = people_and_pets(kind, tmp_path)
        with pytest.raises(UnknownRelationError) as err:
            wrapper.lineage("ghost")
        assert err.value.origin == wrapper.component_id
        assert "'ghost'" in err.value.message


class HeaderRewrittenAdapter(SourceAdapter):
    """A source whose header was rewritten between two reads: relations()
    still reports the old schema, load() returns the new file."""

    kind = "rewritten"
    BEFORE = RelationSchema("t", [Attribute("id", Kind.INTEGER), Attribute("name", Kind.TEXT)])
    AFTER = RelationSchema("t", [Attribute("id", Kind.TEXT), Attribute("label", Kind.TEXT)])

    def relations(self):
        return [self.BEFORE]

    def load(self, relation, where=None):
        rows = [(Value.text("7"), Value.text("new")), (Value.text("x"), Value.text("old"))]
        return Table(self.AFTER, rows)

    def fingerprint(self):
        return 0


class TestSnapshotConsistency:
    def wrapper(self):
        return Wrapper(WrapperConfig("w_rewritten", "ops", HeaderRewrittenAdapter()))

    def test_answer_is_checked_against_and_computed_from_the_loaded_rows(self):
        result = self.wrapper().execute(parse_query("SELECT label FROM ops.t WHERE id = '7'"))
        assert result.schema.attribute_names == ("label",)
        assert result.rows == ((Value.text("new"),),)

    @pytest.mark.parametrize(
        "text", ["SELECT name FROM ops.t", "SELECT * FROM ops.t WHERE id = 7"]
    )
    def test_query_typed_only_by_the_stale_schema_is_a_type_error(self, text):
        wrapper = self.wrapper()
        with pytest.raises(TypeCheckError) as err:
            wrapper.execute(parse_query(text))
        assert err.value.origin == "w_rewritten"
