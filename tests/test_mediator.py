"""Mediator: schema derivation, caching, lineage, de-identification, soundness."""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import sys
import threading

import pytest

import mmw.component
import mmw.mediator
import mmw.planner
from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter, MemoryAdapter
from mmw.errors import (
    AccessDeniedError,
    ConfigError,
    MeshError,
    TypeCheckError,
    UnavailableError,
    UnknownRelationError,
)
from mmw.mediator import Mediator
from mmw.query.ast import (
    AttrRef,
    CompareOp,
    Comparison,
    Literal,
    Project,
    ProjectItem,
    QualifiedName,
    Scan,
    Select,
)
from mmw.query.evaluate import evaluate, fnv1a_hex
from mmw.query.infer import infer_schema
from mmw.query.parse import parse_query
from mmw.query.render import render_query
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value, bag_equal
from mmw.runtime.protocol import ProtocolServer, TcpBinding
from mmw.views import ViewDeclaration, check_views, parse_view_source, unfold
from mmw.wrapper import Wrapper, WrapperConfig
from support import epoch_steps

PEOPLE = RelationSchema(
    "people",
    [
        Attribute("id", Kind.INTEGER),
        Attribute("name", Kind.TEXT),
        Attribute("ssn", Kind.TEXT, tags=("identifying",)),
    ],
    key=("id",),
)
ORDERS = RelationSchema(
    "orders",
    [Attribute("oid", Kind.INTEGER), Attribute("person", Kind.INTEGER), Attribute("total", Kind.DECIMAL)],
    key=("oid",),
)


def people_wrapper(namespace="hr"):
    rows = [
        (Value.integer(1), Value.text("ada"), Value.text("111-11")),
        (Value.integer(2), Value.text("grace"), Value.text("222-22")),
    ]
    adapter = MemoryAdapter([PEOPLE], {"people": rows})
    return Wrapper(WrapperConfig("w_people", namespace, adapter))


def orders_wrapper(namespace="sales"):
    rows = [
        (Value.integer(10), Value.integer(1), Value.decimal("9.99")),
        (Value.integer(11), Value.integer(1), Value.decimal("5.00")),
        (Value.integer(12), Value.integer(2), Value.decimal("7.25")),
    ]
    adapter = MemoryAdapter([ORDERS], {"orders": rows})
    return Wrapper(WrapperConfig("w_orders", namespace, adapter))


class TestSchema:
    def test_zero_views_empty_product_with_metadata(self):
        mediator = Mediator(
            "m0", "catalog", {}, [], version=2, metadata={"owner": "me"}
        )
        product = mediator.get_schema()
        assert product.relations == ()
        assert product.version == 2
        assert product.metadata_map["owner"] == "me"

    def test_view_joining_two_wrappers_matches_inferred_schema(self):
        wrappers = {"p": people_wrapper(), "s": orders_wrapper()}
        view_text = (
            "CREATE VIEW spending AS "
            "SELECT name, total FROM p.people JOIN s.orders ON id = person"
        )
        mediator = Mediator("m1", "spend", wrappers, [view_text])
        relation = mediator.get_schema().relation("spending")
        assert relation.attribute_names == ("name", "total")
        assert relation.attribute("total").data_type is Kind.DECIMAL

    def test_quality_metadata_served_verbatim(self):
        mediator = Mediator(
            "m1",
            "spend",
            {"p": people_wrapper()},
            ["CREATE VIEW v AS SELECT name FROM p.people"],
            metadata={"quality.completeness": "0.98"},
        )
        assert mediator.get_schema().metadata_map["quality.completeness"] == "0.98"

    def test_alias_may_differ_from_wrapper_namespace(self):
        # Binding alias "p" against a wrapper whose own namespace is "hr".
        mediator = Mediator(
            "m1", "prod", {"p": people_wrapper("hr")}, ["CREATE VIEW v AS SELECT name FROM p.people"]
        )
        result = mediator.execute(parse_query("SELECT * FROM prod.v"))
        assert {row[0] for row in result.rows} == {Value.text("ada"), Value.text("grace")}

    def test_alias_product_collision_rejected(self):
        with pytest.raises(ConfigError):
            Mediator("m1", "p", {"p": people_wrapper()}, [])

    def test_version_below_one_is_config_error(self):
        with pytest.raises(ConfigError) as caught:
            Mediator("m1", "prod", {"p": people_wrapper()}, [], version=0)
        assert "version must be a positive integer, got 0" in caught.value.message

    def test_failed_reconfigure_changes_nothing(self):
        mediator = Mediator(
            "m1",
            "prod",
            {"p": people_wrapper()},
            ["CREATE VIEW v AS SELECT name FROM p.people"],
            metadata={"owner": "me"},
        )
        before, product = mediator.epoch(), mediator.get_schema()
        with pytest.raises(TypeCheckError):
            mediator.reconfigure(
                views=["CREATE VIEW v AS SELECT nope FROM p.people"],
                version=2,
                metadata={"owner": "you"},
            )
        assert (mediator.version, mediator.metadata) == (1, {"owner": "me"})
        assert mediator.get_schema() is product
        assert epoch_steps(before, mediator.epoch()) == (0, 0)
        mediator.reconfigure(views=["CREATE VIEW v AS SELECT id FROM p.people"])
        assert mediator.get_schema().version == 1
        assert mediator.get_schema().metadata_map == {"owner": "me"}

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"version": True}, "version must be a positive integer, got True"),
            ({"metadata": {5: "x"}}, "metadata key 5 must be text"),
            ({"metadata": {5: "x", "a": "b"}}, "metadata key 5 must be text"),
        ],
    )
    def test_boolean_version_and_non_text_metadata_key_are_config_errors(self, options, message):
        with pytest.raises(ConfigError) as caught:
            Mediator("m1", "prod", {}, [], **options)
        assert caught.value.message == f"product 'prod': {message}"


FLIP = RelationSchema("t", [Attribute("a", Kind.INTEGER), Attribute("b", Kind.TEXT)])
FLIP_VIEWS = (["CREATE VIEW v AS SELECT a, b FROM src.t"], ["CREATE VIEW v AS SELECT b, a FROM src.t"])


def flip_mediator(capacity):
    rows = [(Value.integer(i), Value.text(f"r{i}")) for i in range(3)]
    wrapper = Wrapper(WrapperConfig("w_src", "src", MemoryAdapter([FLIP], {"t": rows})))
    mediator = Mediator("m1", "prod", {"src": wrapper}, FLIP_VIEWS[0], cache_capacity=capacity)
    answers = {}
    for views in FLIP_VIEWS:
        mediator.reconfigure(views=views)
        answer = mediator.execute(parse_query("SELECT * FROM prod.v"))
        answers[answer.schema.attribute_names] = answer.rows
    return mediator, answers


def assert_answer_of_one_configuration(answer, answers):
    """An answer is the one of the view set its schema says it came from."""
    assert answers[answer.schema.attribute_names] == answer.rows


class TestConfigurationSnapshot:
    """A request reads the mediator's configuration once, so a
    reconfiguration during the request never mixes two view sets."""

    @pytest.mark.parametrize("capacity", [0, 64])
    def test_reconfigure_within_a_request_answers_from_one_configuration(
        self, capacity, monkeypatch
    ):
        mediator, answers = flip_mediator(capacity)
        real = mmw.mediator.infer_schema
        rng = random.Random(16)
        flips = 0

        def infer_then_maybe_flip(q, env):
            nonlocal flips
            schema = real(q, env)
            if rng.random() < 0.5:
                flips += 1
                mediator.reconfigure(views=FLIP_VIEWS[flips % 2])
            return schema

        monkeypatch.setattr(mmw.mediator, "infer_schema", infer_then_maybe_flip)
        for _ in range(60):
            assert_answer_of_one_configuration(
                mediator.execute(parse_query("SELECT * FROM prod.v")), answers
            )
        assert flips > 20

    @pytest.mark.parametrize("capacity", [0, 64])
    def test_concurrent_reconfigure_never_mixes_two_configurations(self, capacity):
        mediator, answers = flip_mediator(capacity)
        stop = threading.Event()

        def flipper():
            flip = 0
            while not stop.is_set():
                flip += 1
                mediator.reconfigure(views=FLIP_VIEWS[flip % 2])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=flipper)
        try:
            thread.start()
            for _ in range(400):
                assert_answer_of_one_configuration(
                    mediator.execute(parse_query("SELECT * FROM prod.v")), answers
                )
        finally:
            stop.set()
            sys.setswitchinterval(switch)
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestExecute:
    def test_pass_through_view_returns_wrapper_rows(self):
        mediator = Mediator(
            "m1", "prod", {"p": people_wrapper()}, ["CREATE VIEW people AS SELECT * FROM p.people"]
        )
        result = mediator.execute(parse_query("SELECT * FROM prod.people"))
        snapshot = people_wrapper().adapter.load("people")
        assert bag_equal(result, snapshot)

    def test_deidentifying_view_serves_16_hex_and_hides_raw(self):
        mediator = Mediator(
            "m1",
            "prod",
            {"p": people_wrapper()},
            ["CREATE VIEW safe AS SELECT name, hash(ssn) AS ssn_h FROM p.people"],
            salt="pepper",
        )
        result = mediator.execute(parse_query("SELECT * FROM prod.safe"))
        raw_values = {"111-11", "222-22"}
        for row in result.rows:
            digest = row[1].payload
            assert re.fullmatch(r"[0-9a-f]{16}", digest)
            assert digest not in raw_values
        served = {row[1].payload for row in result.rows}
        assert served == {
            fnv1a_hex(b"pepper111-11"),
            fnv1a_hex(b"pepper222-22"),
        }

    def test_view_joining_two_relations_of_one_wrapper_fetches_each(self):
        people = people_wrapper().adapter.load("people").rows
        orders = orders_wrapper().adapter.load("orders").rows
        wrapper = Wrapper(
            WrapperConfig(
                "w_shop",
                "shop",
                MemoryAdapter([PEOPLE, ORDERS], {"people": people, "orders": orders}),
            )
        )
        view = ViewDeclaration(
            "prod",
            "spend",
            parse_query(
                "SELECT name, total FROM s.people JOIN s.orders ON id = person WHERE total > 6.00"
            ),
        )
        mediator = Mediator("m1", "prod", {"s": wrapper}, [view])
        q = parse_query("SELECT * FROM prod.spend")
        result = mediator.execute(q)
        assert len(result.rows) == 2
        assert wrapper.stats()["queries_served"] == 2  # one fetch per relation
        db = {
            QualifiedName("s", "people"): Table(PEOPLE, people),
            QualifiedName("s", "orders"): Table(ORDERS, orders),
        }
        assert bag_equal(result, evaluate(unfold(q, [view]), db))

    def test_view_renaming_with_as_resolves_a_join_collision(self):
        people = people_wrapper().adapter.load("people").rows
        adapter = MemoryAdapter(
            [PEOPLE, PEOPLE.rename("people2")], {"people": people, "people2": people}
        )
        wrapper = Wrapper(WrapperConfig("w_hr", "hr", adapter))
        mediator = Mediator(
            "m1",
            "prod",
            {"p": wrapper},
            [
                "CREATE VIEW p2 AS SELECT id, name AS name2 FROM p.people2",
                "CREATE VIEW pairs AS SELECT * FROM p.people JOIN prod.p2 ON id = id",
            ],
        )
        assert mediator.get_schema().relation("pairs").attribute_names == (
            "id",
            "name",
            "ssn",
            "name2",
        )
        result = mediator.execute(parse_query("SELECT * FROM prod.pairs"))
        assert len(result.rows) == 2
        assert set(result.rows) == {row + (row[1],) for row in people}

    def test_type_error_against_product_schema(self):
        mediator = Mediator(
            "m1", "prod", {"p": people_wrapper()}, ["CREATE VIEW v AS SELECT name FROM p.people"]
        )
        with pytest.raises(UnknownRelationError):
            mediator.execute(parse_query("SELECT * FROM prod.nope"))

    def test_denied_principal_checked_before_downstream_fetch(self):
        wrapper = people_wrapper()
        mediator = Mediator(
            "m1", "prod", {"p": wrapper}, ["CREATE VIEW v AS SELECT name FROM p.people"]
        )
        mediator.set_access_checker(lambda principal: (principal == "analyst", "test rule"))
        with pytest.raises(AccessDeniedError):
            mediator.execute(parse_query("SELECT * FROM prod.v"), principal="intruder")
        assert wrapper.stats()["queries_served"] == 0  # nothing fetched
        assert mediator.stats()["errors"] == 1
        result = mediator.execute(parse_query("SELECT * FROM prod.v"), principal="analyst")
        assert len(result.rows) == 2

    def test_downstream_unavailable_propagates(self):
        wrapper = people_wrapper()
        mediator = Mediator(
            "m1", "prod", {"p": wrapper}, ["CREATE VIEW v AS SELECT name FROM p.people"]
        )
        wrapper.stop()
        with pytest.raises(UnavailableError):
            mediator.execute(parse_query("SELECT * FROM prod.v"))


class TestCache:
    def make(self, capacity=8):
        wrapper = people_wrapper()
        mediator = Mediator(
            "m1",
            "prod",
            {"p": wrapper},
            ["CREATE VIEW v AS SELECT name FROM p.people"],
            cache_capacity=capacity,
        )
        return wrapper, mediator

    def test_second_identical_query_hits(self):
        wrapper, mediator = self.make()
        q = parse_query("SELECT * FROM prod.v")
        first = mediator.execute(q)
        second = mediator.execute(q)
        stats = mediator.stats()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1
        assert second is first  # identical bytes, same immutable table
        assert wrapper.stats()["queries_served"] == 1

    def test_source_mutation_invalidates_via_epoch(self):
        wrapper, mediator = self.make()
        q = parse_query("SELECT * FROM prod.v")
        first = mediator.execute(q)
        wrapper.adapter.insert(
            "people", (Value.integer(3), Value.text("alan"), Value.text("333-33"))
        )
        second = mediator.execute(q)
        assert len(second.rows) == len(first.rows) + 1
        assert mediator.stats()["cache_hits"] == 0

    def test_lru_eviction_at_capacity(self):
        wrapper, mediator = self.make(capacity=1)
        q1 = parse_query("SELECT * FROM prod.v")
        q2 = parse_query("SELECT name FROM prod.v")
        mediator.execute(q1)
        mediator.execute(q2)  # evicts q1
        mediator.execute(q1)  # miss again
        stats = mediator.stats()
        assert stats["cache_misses"] == 3 and stats["cache_hits"] == 0
        assert mediator.cache_info()["entries"] == 1

    def test_stale_result_is_replaced_in_place(self):
        wrapper, mediator = self.make()
        q = parse_query("SELECT * FROM prod.v")
        mediator.execute(q)
        wrapper.adapter.insert(
            "people", (Value.integer(3), Value.text("alan"), Value.text("333-33"))
        )
        mediator.execute(q)
        assert mediator.cache_info()["entries"] == 1

    def test_results_and_fetches_share_the_capacity(self):
        mediator = Mediator(
            "m1",
            "prod",
            {"p": people_wrapper(), "s": orders_wrapper()},
            ["CREATE VIEW v AS SELECT name, total FROM p.people JOIN s.orders ON id = person"],
            cache_capacity=2,
        )
        q = parse_query("SELECT * FROM prod.v")
        first = mediator.execute(q)
        # Slots are stored plan, fetch, fetch, join, result, each evicting
        # the oldest beyond capacity, so the join and the result remain.
        assert mediator.cache_info() == {
            "entries": 1,
            "fetch_slots": 0,
            "plan_slots": 0,
            "join_slots": 1,
            "capacity": 2,
            "plan_hits": 0,
            "join_hits": 0,
        }
        assert mediator.execute(q) is first

    def test_capacity_zero_disables_caching(self):
        wrapper, mediator = self.make(capacity=0)
        q = parse_query("SELECT * FROM prod.v")
        mediator.execute(q)
        mediator.execute(q)
        assert mediator.stats()["cache_hits"] == 0
        assert mediator.cache_info()["entries"] == 0

    def test_unrenderable_queries_skip_the_cache(self):
        # A block over a block has no textual form, so two different ones
        # must not share a cache entry at one epoch.
        mediator = Mediator(
            "m1", "prod", {"p": people_wrapper()}, ["CREATE VIEW v AS SELECT id, name FROM p.people"]
        )

        def nested(n, *names):
            equal = Comparison(AttrRef("id"), CompareOp.EQ, Literal(Value.integer(n)))
            inner = Project(
                Select(Scan(QualifiedName("prod", "v")), equal),
                [ProjectItem(AttrRef(old), new) for old, new in zip(("id", "name"), names)],
            )
            return Project(inner, [ProjectItem(AttrRef(name), name) for name in names])

        first = mediator.execute(nested(1, "ident", "name"))
        second = mediator.execute(nested(2, "id", "label"))
        assert first.schema.attribute_names == ("ident", "name")
        assert first.rows == ((Value.integer(1), Value.text("ada")),)
        assert second.schema.attribute_names == ("id", "label")
        assert second.rows == ((Value.integer(2), Value.text("grace")),)
        assert mediator.stats()["cache_hits"] == 0
        assert mediator.stats()["cache_misses"] == 2
        assert [entry.cache_hit for entry in mediator.access_log] == [False, False]
        assert mediator.access_log[0].query == "<unrenderable query>"

    def test_transparency_under_random_schedules(self):
        # Cache on vs off must serve identical results under interleaved
        # queries and mutations, whichever of three downstreams changes.
        rng = random.Random(3131)
        aliases = ("a", "b", "c")
        views = [f"CREATE VIEW v{alias} AS SELECT * FROM {alias}.people" for alias in aliases]
        queries = [parse_query(f"SELECT * FROM prod.v{alias}") for alias in aliases] + [
            parse_query(f"SELECT name FROM prod.v{alias} WHERE name <> 'x'") for alias in aliases
        ]
        hits = 0
        for _ in range(10):
            wrappers_a = {alias: people_wrapper() for alias in aliases}
            wrappers_b = {alias: people_wrapper() for alias in aliases}
            cached = Mediator("ma", "prod", wrappers_a, views, cache_capacity=16)
            uncached = Mediator("mb", "prod", wrappers_b, views, cache_capacity=0)
            serial = 100
            for _ in range(40):
                if rng.random() < 0.3:
                    row = (Value.integer(serial), Value.text(f"n{serial}"), Value.text("s"))
                    serial += 1
                    alias = rng.choice(aliases)
                    wrappers_a[alias].adapter.insert("people", row)
                    wrappers_b[alias].adapter.insert("people", row)
                else:
                    q = rng.choice(queries)
                    assert bag_equal(cached.execute(q), uncached.execute(q))
            hits += cached.stats()["cache_hits"]
        assert hits > 0


PAIRS = RelationSchema("pairs", [Attribute("id", Kind.INTEGER), Attribute("name", Kind.TEXT)])


def pair(serial):
    return (Value.integer(serial), Value.text(f"r{serial:05d}"))


def write_sources(directory, csv_rows, doc_rows, in_place=False):
    """pairs.csv (cid, cname) and pairs.jsonl (did, dname) under directory;
    rewritten through a temporary file and os.replace, or in place."""
    texts = {
        "csv/pairs.csv": "cid:integer,cname:text\n"
        + "".join(f"{cid},{cname}\n" for cid, cname in csv_rows),
        "doc/pairs.jsonl": "".join(
            json.dumps({"did": did, "dname": dname}) + "\n" for did, dname in doc_rows
        ),
    }
    for name, text in texts.items():
        target = directory / name
        target.parent.mkdir(exist_ok=True)
        if in_place and target.exists():
            with open(target, "r+", encoding="utf-8") as handle:
                handle.write(text)
        else:
            staged = target.with_name(target.name + ".tmp")
            staged.write_text(text, encoding="utf-8")
            os.replace(staged, target)


LOWER_VIEWS = [
    "CREATE VIEW vm AS SELECT * FROM m.pairs",
    "CREATE VIEW vc AS SELECT * FROM c.pairs",
    "CREATE VIEW vd AS SELECT * FROM d.pairs",
    "CREATE VIEW mc AS SELECT id, name, cname FROM m.pairs JOIN c.pairs ON id = cid",
]
UPPER_VIEWS = [
    "CREATE VIEW um AS SELECT * FROM low.vm",
    "CREATE VIEW uc AS SELECT * FROM low.vc",
    "CREATE VIEW ud AS SELECT * FROM low.vd",
    "CREATE VIEW umc AS SELECT * FROM low.mc",
    "CREATE VIEW ucd AS SELECT cid, cname, dname FROM low.vc JOIN low.vd ON cid = did",
]


def nested_stack(stack, directory, rows, capacity, over_tcp):
    """upper mediator -> lower mediator -> memory, delimited_dir and
    doc_lines wrappers; every component below the upper one is reached over
    TCP when over_tcp holds. Returns (upper, memory adapter, wrappers)."""

    def reach(component):
        if not over_tcp:
            return component
        server = ProtocolServer(component, "127.0.0.1", 0)
        stack.callback(server.close)
        binding = TcpBinding(server.host, server.port)
        stack.callback(binding.close)
        return binding

    memory = MemoryAdapter([PAIRS], {"pairs": list(rows)})
    wrappers = {
        "m": Wrapper(WrapperConfig("w_mem", "mem", memory)),
        "c": Wrapper(WrapperConfig("w_csv", "csv", DelimitedDirAdapter(directory / "csv"))),
        "d": Wrapper(WrapperConfig("w_doc", "doc", DocLinesAdapter(directory / "doc"))),
    }
    lower = Mediator(
        "m_lower",
        "lower",
        {alias: reach(wrapper) for alias, wrapper in wrappers.items()},
        LOWER_VIEWS,
        cache_capacity=capacity,
    )
    upper = Mediator("m_upper", "upper", {"low": reach(lower)}, UPPER_VIEWS, cache_capacity=capacity)
    return upper, memory, wrappers


def random_nested_query(rng):
    k = rng.randint(0, 12)
    name = f"r{rng.randint(0, 12):05d}"
    return parse_query(
        rng.choice(
            [
                "SELECT * FROM upper.um",
                "SELECT * FROM upper.uc",
                "SELECT * FROM upper.ud",
                f"SELECT name FROM upper.um WHERE id < {k}",
                f"SELECT dname FROM upper.ud WHERE did = {k} OR dname = '{name}'",
                f"SELECT * FROM upper.umc WHERE id = {k} OR cname = '{name}'",
                f"SELECT cid, dname FROM upper.ucd WHERE cid > {k} OR dname = '{name}'",
            ]
        )
    )


class TestFetchCache:
    @pytest.mark.parametrize("over_tcp", [False, True], ids=["in_process", "tcp"])
    def test_nested_transparency_over_every_adapter_kind(self, over_tcp, tmp_path):
        # Two stacks over the same files and equal memory rows, one caching
        # results and fetches at both mediators and one caching nothing,
        # must answer alike under seeded queries, inserts, and atomic and
        # same-size in-place rewrites.
        rng = random.Random(4242 + over_tcp)
        rows = {"m": [pair(i) for i in range(8)], "c": [(i, f"r{i:05d}") for i in range(8)]}
        rows["d"] = list(rows["c"])
        write_sources(tmp_path, rows["c"], rows["d"])
        serial = 100
        with contextlib.ExitStack() as stack:
            cached, memory_a, wrappers_a = nested_stack(stack, tmp_path, rows["m"], 16, over_tcp)
            uncached, memory_b, wrappers_b = nested_stack(stack, tmp_path, rows["m"], 0, over_tcp)
            for _ in range(120):
                action = rng.random()
                if action < 0.1:
                    memory_a.insert("pairs", pair(serial))
                    memory_b.insert("pairs", pair(serial))
                elif action < 0.2:
                    rows[rng.choice("cd")].append((serial, f"r{serial:05d}"))
                    write_sources(tmp_path, rows["c"], rows["d"])
                elif action < 0.3:
                    changed = rows[rng.choice("cd")]
                    index = rng.randrange(len(changed))
                    changed[index] = (changed[index][0], f"r{rng.randint(0, 99999):05d}")
                    write_sources(tmp_path, rows["c"], rows["d"], in_place=True)
                else:
                    q = random_nested_query(rng)
                    assert bag_equal(cached.execute(q), uncached.execute(q))
                serial += 1
            result_hits = cached.stats()["cache_hits"]
            fetched_a = sum(w.stats()["queries_served"] for w in wrappers_a.values())
            fetched_b = sum(w.stats()["queries_served"] for w in wrappers_b.values())
        assert result_hits > 0
        assert fetched_a < fetched_b

    def test_residual_only_change_refetches_nothing(self):
        a = Wrapper(WrapperConfig("w_a", "ns_a", MemoryAdapter([PAIRS], {"pairs": [pair(1), pair(2)]})))
        c_rows = [(Value.integer(1), Value.text("x")), (Value.integer(2), Value.text("y"))]
        tags = RelationSchema("tags", [Attribute("tid", Kind.INTEGER), Attribute("tag", Kind.TEXT)])
        b = Wrapper(WrapperConfig("w_b", "ns_b", MemoryAdapter([tags], {"tags": c_rows})))
        mediator = Mediator(
            "m1",
            "prod",
            {"a": a, "b": b},
            ["CREATE VIEW v AS SELECT id, name, tag FROM a.pairs JOIN b.tags ON id = tid"],
        )
        # The predicate names a column of each side, so it stays above the
        # join and both fetches are full scans with the same text.
        first = mediator.execute(parse_query("SELECT * FROM prod.v WHERE id = 1 OR tag = 'y'"))
        second = mediator.execute(parse_query("SELECT * FROM prod.v WHERE id = 2 OR tag = 'q'"))
        assert len(first.rows) == 2 and len(second.rows) == 1
        def served():
            return a.stats()["queries_served"], b.stats()["queries_served"]

        assert served() == (1, 1)
        assert mediator.stats()["cache_hits"] == 0
        assert mediator.cache_info()["fetch_slots"] == 2
        a.adapter.insert("pairs", pair(2))
        third = mediator.execute(parse_query("SELECT * FROM prod.v WHERE id = 2 OR tag = 'q'"))
        assert len(third.rows) == 2
        assert served() == (2, 1)
        assert mediator.cache_info()["fetch_slots"] == 2


MEMBERS = RelationSchema(
    "members", [Attribute("id", Kind.INTEGER), Attribute("name", Kind.TEXT, nullable=True)]
)


def member(serial):
    name = Value.null() if serial % 5 == 0 else Value.text(f"r{serial:05d}")
    return (Value.integer(serial), name)


def write_orders_and_tags(directory, orders, tags):
    """c/orders.csv (oid, pid, total) and d/tags.jsonl (tid, tag), each
    rewritten through a temporary file and os.replace."""
    texts = {
        "c/orders.csv": "oid:integer,pid:integer,total:decimal\n"
        + "".join(f"{oid},{pid},{total}\n" for oid, pid, total in orders),
        "d/tags.jsonl": "".join(json.dumps({"tid": tid, "tag": tag}) + "\n" for tid, tag in tags),
    }
    for name, text in texts.items():
        target = directory / name
        target.parent.mkdir(exist_ok=True)
        staged = target.with_name(target.name + ".tmp")
        staged.write_text(text, encoding="utf-8")
        os.replace(staged, target)


def differential_views(threshold):
    return [
        "CREATE VIEW pj AS SELECT oid, total, name FROM c.orders JOIN m.members ON pid = id",
        f"CREATE VIEW big AS SELECT oid, pid, total FROM c.orders WHERE total > {threshold}",
        "CREATE VIEW labels AS SELECT id AS k, name AS label FROM m.members "
        "UNION SELECT tid AS k, tag AS label FROM d.tags",
    ]


# Fixed shapes; each {} takes a literal, mostly of the kind its attribute
# has and now and then of another kind or null.
DIFFERENTIAL_SHAPES = [
    ("SELECT * FROM prod.pj WHERE oid = {} OR name = {}", "integer", "text"),
    ("SELECT oid, name FROM prod.pj WHERE total > {}", "decimal"),
    ("SELECT * FROM prod.big WHERE oid = {}", "integer"),
    ("SELECT oid, total FROM prod.big WHERE oid >= {} AND oid < {}", "integer", "integer"),
    ("SELECT * FROM prod.labels WHERE k < {} OR label = {}", "integer", "text"),
    ("SELECT label FROM prod.labels WHERE {} <= k", "integer"),
]


def random_literal(rng, kind):
    if rng.random() < 0.15:
        kind = rng.choice(["integer", "decimal", "text", "boolean", "null"])
    n = rng.randint(0, 14)
    return {
        "integer": str(n),
        "decimal": f"{n // 3}.5",
        "text": f"'r{n:05d}'",
        "boolean": rng.choice(["TRUE", "FALSE"]),
        "null": "NULL",
    }[kind]


def outcome(run):
    """(schema, sorted rows) of run(), or (error class, message)."""
    try:
        table = run()
    except MeshError as exc:
        return type(exc), exc.message
    schema = [(attr.name, attr.data_type) for attr in table.schema.attributes]
    return schema, sorted(table.row_bag().items(), key=repr)


class TestPlanAndJoinSlots:
    """Plan slots (one per query shape) and join slots (one per join of
    fetches) against the reference evaluator."""

    @pytest.mark.parametrize("capacity", [0, 4, 64])
    @pytest.mark.parametrize("over_tcp", [False, True], ids=["in_process", "tcp"])
    def test_answers_equal_the_oracle_under_changes(self, over_tcp, capacity, tmp_path):
        # Seeded reads of fixed shapes with random literals, between memory
        # inserts, atomic csv and jsonl rewrites and one reconfiguration that
        # changes a literal inside a view body. Capacity 4 holds fewer slots
        # than one join read fills, so slots are evicted all the time.
        rng = random.Random(1717 + capacity + over_tcp)
        members = [member(i) for i in range(1, 9)]
        orders = [(i, rng.randint(1, 10), f"{rng.randint(0, 9)}.5") for i in range(1, 11)]
        tags = [(i, f"r{rng.randint(0, 14):05d}") for i in range(1, 7)]
        write_orders_and_tags(tmp_path, orders, tags)
        memory = MemoryAdapter([MEMBERS], {"members": list(members)})
        threshold = "2.5"
        with contextlib.ExitStack() as stack:

            def reach(component):
                if not over_tcp:
                    return component
                server = ProtocolServer(component, "127.0.0.1", 0)
                stack.callback(server.close)
                binding = TcpBinding(server.host, server.port)
                stack.callback(binding.close)
                return binding

            wrappers = {
                "m": Wrapper(WrapperConfig("w_mem", "mem", memory)),
                "c": Wrapper(WrapperConfig("w_csv", "csv", DelimitedDirAdapter(tmp_path / "c"))),
                "d": Wrapper(WrapperConfig("w_doc", "doc", DocLinesAdapter(tmp_path / "d"))),
            }
            mediator = Mediator(
                "m_diff",
                "prod",
                {alias: reach(wrapper) for alias, wrapper in wrappers.items()},
                differential_views(threshold),
                cache_capacity=capacity,
            )
            served = reach(mediator)
            reconfigure_at = rng.randint(60, 120)
            answers = errors = 0
            for step in range(180):
                action = rng.random()
                if step == reconfigure_at:
                    threshold = "4.5"
                    mediator.reconfigure(views=differential_views(threshold))
                elif action < 0.08:
                    members.append(member(len(members) + 1))
                    memory.insert("members", members[-1])
                elif action < 0.16:
                    if rng.random() < 0.5:
                        orders.append((len(orders) + 1, rng.randint(1, 12), f"{rng.randint(0, 9)}.5"))
                    else:
                        tags.append((len(tags) + 1, f"r{rng.randint(0, 14):05d}"))
                    write_orders_and_tags(tmp_path, orders, tags)
                else:
                    text, *kinds = rng.choice(DIFFERENTIAL_SHAPES)
                    q = parse_query(text.format(*(random_literal(rng, kind) for kind in kinds)))
                    views = parse_view_source(";".join(differential_views(threshold)), "prod")
                    snapshot = {
                        QualifiedName("m", "members"): memory.load("members"),
                        QualifiedName("c", "orders"): DelimitedDirAdapter(tmp_path / "c").load("orders"),
                        QualifiedName("d", "tags"): DocLinesAdapter(tmp_path / "d").load("tags"),
                    }
                    base_env = {name: table.schema for name, table in snapshot.items()}

                    def oracle():
                        infer_schema(q, check_views(views, base_env))
                        return evaluate(unfold(q, views), snapshot)

                    expected = outcome(oracle)
                    assert outcome(lambda: served.execute(q)) == expected, render_query(q)
                    if isinstance(expected[0], list):
                        answers += 1
                    else:
                        errors += 1
            info = mediator.cache_info()
        assert answers > 60 and errors > 5, (answers, errors)
        slots = ("entries", "plan_slots", "fetch_slots", "join_slots")
        assert sum(info[kind] for kind in slots) <= capacity
        if capacity == 64:
            assert info["plan_hits"] > 20 and info["join_hits"] > 5, info

    def _join_mediator(self, capacity):
        return Mediator(
            "m1",
            "prod",
            {"p": people_wrapper(), "s": orders_wrapper()},
            ["CREATE VIEW v AS SELECT oid, total, name FROM p.people JOIN s.orders ON id = person"],
            cache_capacity=capacity,
        )

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM prod.v WHERE oid = 'x' OR name = 'ada'",
            "SELECT * FROM prod.v WHERE oid = NULL OR name = 'ada'",
            "SELECT * FROM prod.v WHERE oid = 10 OR name = NULL",
            "SELECT * FROM prod.v WHERE oid = 1.5 OR name = 'ada'",
        ],
    )
    def test_a_literal_of_another_kind_gets_its_own_plan_slot(self, text):
        # The warm mediator holds the plan slot of the integer/text shape;
        # the same shape with another kind or a null literal must answer,
        # or fail, as a mediator without a cache does.
        warm, cold = self._join_mediator(64), self._join_mediator(0)
        typical = parse_query("SELECT * FROM prod.v WHERE oid = 10 OR name = 'ada'")
        assert outcome(lambda: warm.execute(typical)) == outcome(lambda: cold.execute(typical))
        plans = warm.cache_info()["plan_slots"]
        q = parse_query(text)
        expected = outcome(lambda: cold.execute(q))
        assert outcome(lambda: warm.execute(q)) == expected
        if isinstance(expected[0], list):  # answered, so it was planned
            assert warm.cache_info()["plan_slots"] == plans + 1
            assert warm.cache_info()["plan_hits"] == 0

    def test_unplannable_query_fails_alike_cold_and_warm(self, monkeypatch):
        q = parse_query("SELECT * FROM nowhere.v WHERE oid = 1")
        warm, cold = self._join_mediator(64), self._join_mediator(0)
        warm.execute(parse_query("SELECT * FROM prod.v WHERE oid = 10 OR name = 'ada'"))
        expected = outcome(lambda: cold.execute(q))
        assert expected[0] is UnknownRelationError
        assert outcome(lambda: warm.execute(q)) == expected
        # A failure in the planner itself: the lifted query fails, and the
        # error raised is the one of planning the real query, never kept.
        real = mmw.mediator.plan

        def failing_plan(query, *args):
            real(query, *args)
            raise ConfigError(f"cannot plan {render_query(query)}")

        monkeypatch.setattr(mmw.mediator, "plan", failing_plan)
        for mediator in (warm, cold):
            for literal in (10, 11):
                other = parse_query(f"SELECT * FROM prod.v WHERE oid = {literal}")
                assert outcome(lambda: mediator.execute(other)) == (
                    ConfigError,
                    f"cannot plan {render_query(other)}",
                )
        assert warm.cache_info()["plan_slots"] == 1  # the one planned before

    def test_a_new_literal_replans_and_rejoins_nothing(self, monkeypatch):
        mediator = self._join_mediator(64)
        calls = {"plan": 0, "evaluate": 0, "render_query": 0}
        for module, name in (
            (mmw.mediator, "plan"),
            (mmw.planner, "evaluate"),
            (mmw.component, "render_query"),
        ):
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        for oid in range(10, 14):
            got = mediator.execute(parse_query(f"SELECT * FROM prod.v WHERE oid = {oid} OR name = 'x'"))
            assert len(got.rows) == (oid < 13)
        # One plan and one join evaluation on the first read; every read
        # evaluates its residual. Each read renders its own query; the two
        # literal-free fetches are rendered once, into the plan slot, and
        # their text goes on to the wrappers.
        assert calls == {"plan": 1, "evaluate": 4 + 1, "render_query": 4 + 2}
        info = mediator.cache_info()
        assert (info["plan_hits"], info["join_hits"]) == (3, 3)
        assert (info["plan_slots"], info["join_slots"], info["fetch_slots"]) == (1, 1, 2)


def memory_endpoint(row_value, port=0):
    """A memory wrapper holding one row of `row_value`, behind TCP."""
    adapter = MemoryAdapter([PAIRS], {"pairs": [pair(row_value)]})
    wrapper = Wrapper(WrapperConfig("w_restart", "src", adapter))
    return wrapper, ProtocolServer(wrapper, "127.0.0.1", port)


class TestRestartedDownstream:
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("outer", ["in_process", "tcp"])
    def test_restart_on_the_same_port_is_never_answered_from_a_cache(self, levels, outer):
        # A wrapper restarted on the same port starts its counter again;
        # with summed epochs every mediator above it saw its old key and
        # answered the old row from its cache.
        with contextlib.ExitStack() as stack:
            wrapper, server = memory_endpoint(1)
            stack.callback(lambda: server.close())  # whichever server runs at exit

            def reach(host, port):
                binding = TcpBinding(host, port)
                stack.callback(binding.close)
                return binding

            binding = reach(server.host, server.port)
            for level in range(levels):
                mediator = Mediator(
                    f"m{level}",
                    f"p{level}",
                    {"d": binding},
                    [f"CREATE VIEW v AS SELECT * FROM d.{'pairs' if level == 0 else 'v'}"],
                )
                if level < levels - 1 or outer == "tcp":
                    endpoint = ProtocolServer(mediator, "127.0.0.1", 0)
                    stack.callback(endpoint.close)
                    binding = reach(endpoint.host, endpoint.port)
                else:
                    binding = mediator
            q = parse_query(f"SELECT * FROM p{levels - 1}.v")
            assert binding.execute(q).rows == (pair(1),)
            assert binding.execute(q).rows == (pair(1),)
            port = server.port
            server.close()
            wrapper.stop()
            wrapper, server = memory_endpoint(2, port)
            assert binding.execute(q).rows == (pair(2),)
            assert binding.execute(q).rows == (pair(2),)


class TestEpoch:
    def test_stable_when_downstreams_stable(self):
        wrapper = people_wrapper()
        mediator = Mediator("m1", "prod", {"p": wrapper}, [])
        assert mediator.epoch() == mediator.epoch()

    def test_downstream_bump_bumps_mediator(self):
        wrapper = people_wrapper()
        mediator = Mediator("m1", "prod", {"p": wrapper}, [])
        before = mediator.epoch()
        wrapper.adapter.insert(
            "people", (Value.integer(9), Value.text("x"), Value.text("y"))
        )
        assert epoch_steps(before, mediator.epoch()) == (0, 1)

    def test_reconfigure_bumps_even_with_stable_downstreams(self):
        wrapper = people_wrapper()
        mediator = Mediator(
            "m1", "prod", {"p": wrapper}, ["CREATE VIEW v AS SELECT name FROM p.people"]
        )
        before = mediator.epoch()
        mediator.reconfigure(views=["CREATE VIEW v AS SELECT ssn FROM p.people"])
        assert epoch_steps(before, mediator.epoch()) == (1, 0)

    def test_random_mutation_schedule_keeps_epoch_monotone(self):
        rng = random.Random(717)
        wrapper = people_wrapper()
        mediator = Mediator("m1", "prod", {"p": wrapper}, [])
        previous = mediator.epoch()
        for _ in range(60):
            action = rng.random()
            if action < 0.4:
                wrapper.adapter.insert(
                    "people", (Value.integer(rng.randint(50, 10**6)), Value.text("x"), Value.text("s"))
                )
                expected = (0, 1)
            elif action < 0.5:
                mediator.reconfigure()
                expected = (1, 0)
            else:
                expected = (0, 0)
            current = mediator.epoch()
            assert epoch_steps(previous, current) == expected
            previous = current


class TestLineage:
    def test_pass_through_is_two_nodes(self):
        mediator = Mediator(
            "m1", "prod", {"p": people_wrapper()}, ["CREATE VIEW v AS SELECT name FROM p.people"]
        )
        node = mediator.lineage("v")
        assert node.component == "m1" and node.relation == "v"
        (child,) = node.children
        assert child.component == "w_people"
        assert child.kind == "wrapper"
        assert child.via_view == "v"

    def test_two_tier_lineage_ends_at_wrapper_source(self):
        tier1 = Mediator(
            "m_lower", "lower", {"p": people_wrapper()},
            ["CREATE VIEW base AS SELECT name, ssn FROM p.people"],
        )
        tier2 = Mediator(
            "m_upper", "upper", {"low": tier1},
            ["CREATE VIEW masked AS SELECT hash(ssn) AS sh FROM low.base"],
        )
        node = tier2.lineage("masked")
        assert node.component == "m_upper"
        (mid,) = node.children
        assert mid.component == "m_lower" and mid.via_view == "masked"
        (leaf,) = mid.children
        assert leaf.kind == "wrapper" and leaf.source.startswith("memory")

    def test_unknown_relation(self):
        mediator = Mediator("m1", "prod", {"p": people_wrapper()}, [])
        with pytest.raises(UnknownRelationError):
            mediator.lineage("missing")


class TestDeidentificationPolicy:
    def test_leaking_view_fails_configuration_when_flag_on(self):
        with pytest.raises(ConfigError) as err:
            Mediator(
                "m1",
                "prod",
                {"p": people_wrapper()},
                ["CREATE VIEW leak AS SELECT ssn FROM p.people"],
                deny_raw_identifying=True,
            )
        assert "ssn" in str(err.value)

    def test_hashed_view_passes_policy(self):
        mediator = Mediator(
            "m1",
            "prod",
            {"p": people_wrapper()},
            ["CREATE VIEW safe AS SELECT hash(ssn) AS sh FROM p.people"],
            deny_raw_identifying=True,
        )
        assert mediator.get_schema().relation("safe").attribute("sh").tags == frozenset()

    def test_flag_off_allows_raw(self):
        Mediator(
            "m1", "prod", {"p": people_wrapper()},
            ["CREATE VIEW leak AS SELECT ssn FROM p.people"],
        )


class TestTierComposition:
    def test_two_mediator_chain_equals_composed_single(self):
        wrapper1 = people_wrapper()
        lower = Mediator(
            "m_lower", "lower", {"p": wrapper1},
            ["CREATE VIEW adults AS SELECT id, name FROM p.people"],
        )
        upper = Mediator(
            "m_upper", "upper", {"low": lower},
            ["CREATE VIEW names AS SELECT name FROM low.adults"],
        )
        # Single mediator with the composed (unfolded) view.
        wrapper2 = people_wrapper()
        composed = Mediator(
            "m_single", "upper", {"p": wrapper2},
            ["CREATE VIEW names AS SELECT name FROM p.people"],
        )
        q = parse_query("SELECT * FROM upper.names")
        assert bag_equal(upper.execute(q), composed.execute(q))


class TestEndToEndSoundness:
    def test_random_topologies_against_oracle(self):
        from support import make_environment, random_block, random_database, random_query
        from mmw.views import check_views

        rng = random.Random(515)
        for case in range(60):
            count = rng.randint(1, 3)
            names = ("w1", "w2", "w3")[:count]
            env = make_environment(rng, namespaces=names)
            db = random_database(rng, env)
            wrappers = {}
            for ns in names:
                schemas = [schema for qn, schema in env.items() if qn.namespace == ns]
                rows = {
                    qn.relation: list(db[qn].rows) for qn in env if qn.namespace == ns
                }
                adapter = MemoryAdapter(schemas, rows)
                wrappers[ns] = Wrapper(WrapperConfig(f"wrap_{ns}", ns, adapter))
            views = [
                ViewDeclaration("prod", f"v{i}", random_block(rng, env, max_joins=1))
                for i in range(rng.randint(1, 3))
            ]
            try:
                check_views(views, env)
            except Exception:
                continue
            mediator = Mediator("med", "prod", wrappers, views, salt="s")
            from mmw.query.ast import QualifiedName as QN

            view_env = {QN("prod", v.name): mediator.get_schema().relation(v.name) for v in views}
            q = random_query(rng, view_env)
            got = mediator.execute(q)
            oracle = evaluate(unfold(q, views), db, salt="s")
            assert bag_equal(got, oracle), f"case {case}"
