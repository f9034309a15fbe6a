"""Each endpoint's query memo: a bounded map from a request's query text to
the parsed query, which keeps its canonical text once rendered
(`mmw.runtime.protocol.QueryMemo`, `mmw.component.canonical_query_text`).

Checked against `parse_query` and `render_query` as oracles, through the
benchmark's tracer for the parse counts `meshbench` reports, and over the
wire against the reference evaluator."""

from __future__ import annotations

import importlib.util
import json
import random
import socket
import sys
import threading
from pathlib import Path

import pytest

import mmw.runtime.protocol as protocol
from mmw.adapters import MemoryAdapter
from mmw.component import canonical_query_text
from mmw.errors import MeshError, QuerySyntaxError
from mmw.mask import Mask
from mmw.mediator import Mediator
from mmw.query.ast import AttrRef, Project, ProjectItem, QualifiedName, Scan
from mmw.query.evaluate import evaluate
from mmw.planner import lift_literals
from mmw.query.parse import parse_query, tokenize
from mmw.query.render import RenderError, render_query
from mmw.relational import Attribute, Kind, RelationSchema, Value
from mmw.runtime.mesh import Mesh
from mmw.runtime.protocol import (
    QUERY_MEMO_ENTRIES,
    QUERY_MEMO_TEXT_CHARS,
    ProtocolClient,
    ProtocolServer,
    QueryMemo,
    TcpBinding,
    table_from_response,
)
from mmw.runtime.topology import load_topology
from mmw.wrapper import Wrapper, WrapperConfig
from support import make_environment, random_database, random_query

ROOT = Path(__file__).resolve().parent.parent

SEPARATORS = (" ", "  ", "\t", "\n", "\r\n  ", " -- a comment\n", "\n-- note 'x'\n\t")


def variant(rng: random.Random, text: str) -> str:
    """The same query spelled differently: keywords in random case, random
    whitespace and comments between tokens."""
    words = []
    for token in tokenize(text)[:-1]:
        if token.type == "KW":
            words.append("".join(rng.choice((c.lower(), c)) for c in token.text))
        elif token.type == "STRING":
            words.append("'" + token.text.replace("'", "''") + "'")
        else:
            words.append(token.text)
    spelled = rng.choice(SEPARATORS).join(words[:1])
    for word in words[1:]:
        spelled += rng.choice(SEPARATORS) + word
    return spelled + rng.choice(("", " ", "\n", " -- end"))


@pytest.fixture()
def parse_calls(monkeypatch):
    """Every text the protocol module parses, in order."""
    calls: list[str] = []
    real = protocol.parse_query

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(protocol, "parse_query", counted)
    return calls


class TestQueryMemo:
    def test_kept_entries_equal_parse_and_render(self, parse_calls):
        rng = random.Random(1818)
        env = make_environment(rng, namespaces=("w1", "w2"))
        memo = QueryMemo()
        for case in range(300):
            text = variant(rng, render_query(random_query(rng, env)))
            if case % 10 == 0:  # past the length cap
                text += "\n-- " + "x" * QUERY_MEMO_TEXT_CHARS
            expected = parse_query(text)
            first = memo.lookup(text)
            assert first == expected, f"case {case}: {text!r}"
            assert canonical_query_text(first) == render_query(expected)
            # The kept text is no field: a tree that keeps one is the same value.
            assert (first, hash(first), repr(first)) == (expected, hash(expected), repr(expected))
            parsed = len(parse_calls)
            again = memo.lookup(text)
            kept = len(text) <= QUERY_MEMO_TEXT_CHARS
            assert again is first if kept else again == first
            assert len(parse_calls) == parsed + (not kept), f"case {case}: {len(text)} chars"
            assert (text in memo) == kept
            assert len(memo) <= QUERY_MEMO_ENTRIES

    @pytest.mark.parametrize(
        "text", ["SELECT a FROM", "SELECT a\nFROM w.r\nWHERE a ==", "SELECT a FROM w.r ! b"]
    )
    def test_syntax_error_is_raised_every_time_and_never_kept(self, parse_calls, text):
        memo = QueryMemo()
        raised = []
        for _ in range(3):
            with pytest.raises(QuerySyntaxError) as err:
                memo.lookup(text)
            raised.append((err.value.message, err.value.line, err.value.column))
        assert raised == [raised[0]] * 3
        assert parse_calls == [text] * 3
        assert len(memo) == 0

    def test_least_recently_used_text_goes_first(self, parse_calls):
        memo = QueryMemo()
        texts = [f"SELECT * FROM w.r WHERE a = {i}" for i in range(QUERY_MEMO_ENTRIES + 1)]
        for text in texts[:-1]:
            memo.lookup(text)
        memo.lookup(texts[0])  # now the most recent
        memo.lookup(texts[-1])  # evicts texts[1]
        assert texts[0] in memo and texts[1] not in memo
        assert len(memo) == QUERY_MEMO_ENTRIES


# Literal texts by what the parser reads them as; a small pool, so equal
# literals repeat within a text and across texts of one shape, and some that
# the parser's reader refuses.
INTEGER_TEXTS = ("0", "1", "-1", "7", "-42", "9223372036854775807", "-9223372036854775808")
BAD_INTEGER_TEXTS = ("9223372036854775808", "-9223372036854775809", "1" + "0" * 30)
DECIMAL_TEXTS = ("0.0", "-0.5", "3.25", "1.0", "-0.000", "12345678901234567890.125")
STRING_TEXTS = ("", "ada", "it's", "''", "a -- b", "x\ny", "SELECT", "7")
TIMESTAMP_TEXTS = ("2024-02-29T23:59:59Z", "0001-01-01T00:00:00Z", "2023-10-21T01:02:03Z")
BAD_TIMESTAMP_TEXTS = ("2023-02-29T00:00:00Z", "2024-13-01T00:00:00Z", "2024-01-01 00:00:00")
SHAPE_TEMPLATES = (
    "SELECT * FROM w1.r0 WHERE k0 = {i} OR k0 = {i}",
    "SELECT a, b FROM w.r WHERE a = {s} AND NOT b >= {d} OR c <> {i}",
    "SELECT a FROM w.r WHERE t < TIMESTAMP {t} AND f = TRUE OR g = FALSE AND h = NULL",
    "SELECT concat(a, {s}) AS c, hash(b) AS h FROM w.r WHERE {i} = a UNION SELECT c, h FROM w.s",
    "SELECT a FROM w.r JOIN w.s ON a = b WHERE (a = {i} OR b = {i}) AND c = {s}",
    "SELECT a FROM w.r WHERE a = {d} OR a = {d} OR b = TIMESTAMP {t}",
)


def respelled(rng: random.Random, text: str) -> str:
    """A text of the shape of `text`: each literal given a new text of its
    token class, now and then one the parser refuses, and the text spelled
    anew as `variant` spells it."""
    words = []
    tokens = tokenize(text)[:-1]
    for position, token in enumerate(tokens):
        if token.type == "NUMBER":
            pool = DECIMAL_TEXTS if "." in token.text else INTEGER_TEXTS
            if "." not in token.text and rng.random() < 0.05:
                pool = BAD_INTEGER_TEXTS
            words.append(rng.choice(pool))
        elif token.type == "STRING":
            after_timestamp = position and tokens[position - 1].text == "TIMESTAMP"
            pool = TIMESTAMP_TEXTS if after_timestamp else STRING_TEXTS
            if after_timestamp and rng.random() < 0.1:
                pool = BAD_TIMESTAMP_TEXTS
            words.append("'" + rng.choice(pool).replace("'", "''") + "'")
        else:
            words.append(token.text)
    spelled = "\n".join(words)  # a line break between every two tokens
    return variant(rng, spelled) if rng.random() < 0.8 else spelled


def outcome_of(parse, text):
    """The tree parse gives for text, or the class, message, line and
    column of the error it raises."""
    try:
        return parse(text)
    except MeshError as exc:
        return type(exc), exc.message, getattr(exc, "line", None), getattr(exc, "column", None)


class TestShapePath:
    """A memo that binds a kept shape's tree to a text's own literals gives
    what `parse_query` gives for the text: an equal tree, whose kept lifted
    pair equals `lift_literals` of the parsed tree, or the same error."""

    def test_seeded_texts_bind_to_the_parsed_tree_or_fail_alike(self, parse_calls):
        rng = random.Random(3232)
        env = make_environment(rng, namespaces=("w1", "w2"))
        bases = [template.format(i="1", d="1.5", s="'x'", t="'2024-01-01T00:00:00Z'")
                 for template in SHAPE_TEMPLATES]
        bases += [render_query(random_query(rng, env)) for _ in range(6)]
        memo = QueryMemo()
        failures = trees = 0
        for case in range(1500):
            text = respelled(rng, rng.choice(bases))
            roll = rng.random()
            if roll < 0.03:  # a character no token starts with
                cut = rng.randint(0, len(text))
                text = text[:cut] + rng.choice("!?{$") + text[cut:]
            elif roll < 0.06:  # past the memo's length cap
                text += "\n-- " + "x" * QUERY_MEMO_TEXT_CHARS
            expected = outcome_of(parse_query, text)
            got = outcome_of(memo.lookup, text)
            assert got == expected, f"case {case}: {text!r}"
            if isinstance(expected, tuple):
                failures += 1
                continue
            trees += 1
            if len(text) <= QUERY_MEMO_TEXT_CHARS:  # a longer text is parsed, not kept
                kept = vars(got).get("_lifted")
                assert kept == lift_literals(parse_query(text)), f"case {case}: {text!r}"
            assert (got, hash(got), repr(got)) == (expected, hash(expected), repr(expected))
        assert failures > 60 and trees > 1000
        # Most texts bound a kept shape: a parse for each shape spelled anew
        # and each failure, not for each text.
        assert memo.shapes.hits > 900
        assert len(parse_calls) < 1500 - 900


def nums_wrapper() -> Wrapper:
    env = make_environment(random.Random(7), namespaces=("w1",), relations_per_namespace=1)
    (schema,) = env.values()
    return Wrapper(WrapperConfig("w_nums", "w1", MemoryAdapter([schema])))


def send_lines(server, lines: list[str]) -> list[dict]:
    """Send every line on one connection; the decoded responses."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        reader = sock.makefile("rb")
        responses = []
        for line in lines:
            sock.sendall(line.encode() + b"\n")
            responses.append(json.loads(reader.readline()))
        return responses


def exec_line(text: str) -> str:
    return json.dumps({"type": "exec_query", "query": text})


class TestEndpointMemo:
    def test_syntax_error_gets_one_answer_and_is_never_kept(self, parse_calls):
        server = ProtocolServer(nums_wrapper(), "127.0.0.1", 0)
        try:
            text = "SELECT * FROM w1.r0 WHERE"
            responses = send_lines(server, [exec_line(text)] * 3)
            assert responses[0]["code"] == "syntax"
            assert responses == [responses[0]] * 3
            assert parse_calls == [text] * 3
            assert len(server._server.queries) == 0
        finally:
            server.close()

    def test_a_stream_of_distinct_and_long_texts_stays_within_both_bounds(self, parse_calls):
        server = ProtocolServer(nums_wrapper(), "127.0.0.1", 0)
        try:
            distinct = [f"SELECT * FROM w1.r0 WHERE k0 = {i}" for i in range(200)]
            long = [
                f"SELECT * FROM w1.r0 WHERE k0 = {i} -- " + "x" * QUERY_MEMO_TEXT_CHARS
                for i in range(5)
            ]
            stream = distinct[:100] + long + distinct[100:] + long
            responses = send_lines(server, [exec_line(text) for text in stream])
            assert all(response["type"] == "table" for response in responses)
            memo = server._server.queries
            assert len(memo) == QUERY_MEMO_ENTRIES
            assert all(text in memo for text in distinct[-QUERY_MEMO_ENTRIES:])
            assert not any(text in memo for text in long)
            # Each long text was parsed on both sends. The distinct texts
            # share one shape, parsed once; the others bind its tree.
            assert len(parse_calls) == 1 + 2 * len(long)
            assert len(memo.shapes) == 1
            # Texts of distinct shapes are each parsed once.
            del parse_calls[:]
            shapes = [
                "SELECT * FROM w1.r0 WHERE " + " OR ".join(["k0 = 7"] * links)
                for links in range(2, 2 + 2 * QUERY_MEMO_ENTRIES)
            ]
            responses = send_lines(server, [exec_line(text) for text in shapes])
            assert all(response["type"] == "table" for response in responses)
            assert parse_calls == shapes
            assert len(memo) == len(memo.shapes) == QUERY_MEMO_ENTRIES
        finally:
            server.close()

    def test_close_drops_the_memo(self):
        server = ProtocolServer(nums_wrapper(), "127.0.0.1", 0)
        send_lines(server, [exec_line("SELECT * FROM w1.r0")])
        memo = server._server.queries
        assert len(memo) == 1
        server.close()
        assert len(memo) == 0

    def test_four_clients_get_the_oracle_answer(self):
        rng = random.Random(4242)
        env = make_environment(rng, namespaces=("w1",), relations_per_namespace=3)
        db = random_database(rng, env, max_rows=8)
        adapter = MemoryAdapter(
            list(env.values()), {name.relation: table.rows for name, table in db.items()}
        )
        queries = [random_query(rng, env) for _ in range(12)]
        # A few spellings per query, so entries share trees and texts collide
        # in the memo from several threads at once.
        cases = [
            (variant(rng, render_query(q)), evaluate(q, db))
            for q in queries
            for _ in range(3)
        ]
        server = ProtocolServer(Wrapper(WrapperConfig("w_many", "w1", adapter)), "127.0.0.1", 0)
        failures: list[str] = []
        interval = sys.getswitchinterval()

        def client(seed: int) -> None:
            order = random.Random(seed)
            connection = ProtocolClient(server.host, server.port)
            try:
                for _ in range(60):
                    text, expected = order.choice(cases)
                    got = table_from_response(
                        connection.request({"type": "exec_query", "query": text})
                    )
                    if got.schema.attribute_names != expected.schema.attribute_names or (
                        got.row_bag() != expected.row_bag()
                    ):
                        failures.append(text)
            except Exception as exc:  # reported below, with the thread's text
                failures.append(repr(exc))
            finally:
                connection.close()

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(server._server.queries) <= QUERY_MEMO_ENTRIES
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert failures == []


# --- the tracer's parse count --------------------------------------------------


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "meshbench_tracing", ROOT / "meshbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain_document() -> dict:
    """Mask -> mediator -> memory wrapper, each behind its own TCP endpoint."""
    tcp = "tcp 127.0.0.1:0"
    relation = {
        "name": "items",
        "attributes": [{"name": "sku", "type": "integer"}, {"name": "grp", "type": "integer"}],
        "rows": [["1", "3"], ["2", "4"], ["3", "3"]],
    }
    return {
        "domains": ["shop"],
        "components": [
            {"id": "w_items", "kind": "wrapper", "domain": "shop",
             "role": "operational_wrapper", "endpoint": tcp,
             "config": {"namespace": "north",
                        "adapter": {"kind": "memory", "relations": [relation]}}},
            {"id": "shop_product", "kind": "mediator", "domain": "shop",
             "role": "product_mediator", "endpoint": tcp,
             "config": {"product": "shop", "downstream": {"north": "w_items"},
                        "views": "CREATE VIEW items AS SELECT sku, grp FROM north.items;"}},
            {"id": "shop_mask", "kind": "mask", "domain": "shop", "role": "serving_mask",
             "endpoint": tcp, "config": {"upstream": "shop_product", "formats": ["csv"]}},
        ],
        "edges": [["shop_product", "w_items"], ["shop_mask", "shop_product"]],
        "acl": [["reader", "shop", "*", True]],
    }


@pytest.fixture()
def render_calls(monkeypatch):
    """Every `render_query` call made by an mmw module, wherever the module
    looks the name up."""
    calls: list[object] = []

    def counted(q):
        calls.append(q)
        return render_query(q)

    for name, module in list(sys.modules.items()):
        if name.startswith("mmw") and getattr(module, "render_query", None) is render_query:
            monkeypatch.setattr(module, "render_query", counted)
    return calls


class TestTracerContract:
    READ = {"type": "exec_query", "query": "select sku FROM shop.items  WHERE grp = 3",
            "principal": "reader", "format": "csv"}

    def read(self, mesh) -> str:
        client = ProtocolClient(*mesh.endpoints["shop_mask"])
        try:
            return client.request(self.READ)["data"]
        finally:
            client.close()

    def test_only_a_first_read_parses_and_a_warm_one_renders_nothing(self, render_calls):
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            for _ in range(2):  # a new mesh starts with empty memos
                with Mesh(load_topology(chain_document())) as mesh:
                    tracer.take()
                    first = self.read(mesh)
                    parses = [span for span in tracer.take() if span.name == "parse"]
                    assert len(parses) == 3  # mask, mediator and wrapper endpoints
                    del render_calls[:]
                    assert self.read(mesh) == first == "sku:integer\n1\n3\n"
                    assert [span.name for span in tracer.take() if span.name == "parse"] == []
                    assert render_calls == []
        finally:
            tracer.uninstall()


    # A warm read's round trips, as they were before answers kept their wire
    # forms: the wrapper's epoch answer, the mediator's table and the mask's
    # csv, in the order they end, with the bytes the tracer counts for each.
    WARM_SPANS = ["server.handle", "client.request"] * 3
    WARM_RESPONSE_BYTES = [54, 98, 65]

    def test_a_warm_read_makes_the_same_round_trips_and_writes_what_it_returns(
        self, monkeypatch, render_calls
    ):
        written: list[bytes] = []
        real_setup = protocol._Handler.setup

        def recording_setup(handler):
            real_setup(handler)
            handler.wfile = WriteRecorder(handler.wfile, written)

        monkeypatch.setattr(protocol._Handler, "setup", recording_setup)
        tracer = load_tracing().Tracer()
        tracer.install()
        # Every response as the tracer counts its bytes, recorded over the
        # tracer's own wrapper, which stays in place below this one.
        returned: list[bytes] = []
        traced = protocol.handle_request

        def recorded(*args):
            response = traced(*args)
            returned.append(
                (json.dumps(response, ensure_ascii=False, separators=(",", ":")) + "\n").encode()
            )
            return response

        protocol.handle_request = recorded
        try:
            with Mesh(load_topology(chain_document())) as mesh:
                for warm in (False, True, True):
                    del written[:], returned[:], render_calls[:]
                    tracer.take()
                    assert self.read(mesh) == "sku:integer\n1\n3\n"
                    spans = tracer.take()
                    assert sorted(written) == sorted(returned)
                    if not warm:
                        continue
                    trips = [s for s in spans if s.name in ("client.request", "server.handle")]
                    assert [span.name for span in trips] == self.WARM_SPANS
                    handled = [span.extra["bytes"] for span in trips if span.name == "server.handle"]
                    assert handled == self.WARM_RESPONSE_BYTES
                    assert [span.name for span in spans if span.name == "parse"] == []
                    assert render_calls == []
        finally:
            protocol.handle_request = traced
            tracer.uninstall()


class WriteRecorder:
    """A server connection's writer that records every write."""

    def __init__(self, sink, lines: list[bytes]):
        self._sink = sink
        self._lines = lines

    def write(self, data):
        self._lines.append(bytes(data))
        return self._sink.write(data)

    def __getattr__(self, name):
        return getattr(self._sink, name)


# --- one query, three ways in ----------------------------------------------------

# (component, text, principal): answers and errors of each kind, at each hop.
THREE_WAYS = [
    ("shop_mask", "select sku FROM shop.items  WHERE grp = 3", "reader"),
    ("shop_mask", "SELECT * FROM shop.items WHERE sku >= 2 AND grp <> 4", "reader"),
    ("shop_mask", "SELECT sku FROM shop.items WHERE grp = 'x'", "reader"),
    ("shop_mask", "SELECT * FROM shop.items", "stranger"),
    ("shop_product", "SELECT grp, sku FROM shop.items WHERE sku < 3", "reader"),
    ("shop_product", "select * from shop.nowhere", "reader"),
    ("shop_product", "SELECT sku AS s FROM shop.items WHERE grp = 3 OR sku = 2", "reader"),
    ("w_items", "SELECT sku FROM north.items WHERE grp = 4", "reader"),
    ("w_items", "SELECT * FROM south.items", "reader"),
    ("w_items", "SELECT * FROM north.items WHERE ghost = 1", "reader"),
]


def outcome(thunk):
    """A table as its attributes and row bag, or an error as its wire code
    and message."""
    try:
        table = thunk()
    except MeshError as exc:
        return "error", exc.code, exc.message
    attributes = [(attr.name, attr.data_type, attr.nullable) for attr in table.schema.attributes]
    return "table", attributes, table.row_bag()


class TestOneQueryThreeWays:
    def test_text_tree_and_wire_line_give_one_answer_and_one_logged_text(self):
        with Mesh(load_topology(chain_document())) as mesh:
            tables = errors = 0
            for component_id, text, principal in THREE_WAYS:
                component = mesh.component(component_id)
                client = ProtocolClient(*mesh.endpoints[component_id])

                def over_the_wire():
                    request = {"type": "exec_query", "query": text, "principal": principal}
                    return table_from_response(client.request(request))

                ways = [
                    lambda: mesh.execute(component_id, text, principal),
                    lambda: component.execute(parse_query(text), principal),
                    over_the_wire,
                ]
                outcomes, logged = [], []
                try:
                    for way in ways:
                        before = len(component.access_log)
                        outcomes.append(outcome(way))
                        assert len(component.access_log) == before + 1
                        logged.append(component.access_log[-1].query)
                finally:
                    client.close()
                case = (component_id, text, principal)
                assert outcomes == [outcomes[0]] * 3, case
                assert logged == [render_query(parse_query(text))] * 3, case
                tables += outcomes[0][0] == "table"
                errors += outcomes[0][0] == "error"
            assert tables >= 5 and errors >= 4


def nested_query(namespace: str, relation: str) -> Project:
    """A projection over a projection: a tree with no textual form."""
    inner = Project(Scan(QualifiedName(namespace, relation)), [ProjectItem(AttrRef("sku"), "s")])
    return Project(inner, [ProjectItem(AttrRef("s"), "s")])


def items_wrapper(component_id="w_items", namespace="north") -> Wrapper:
    schema = RelationSchema("items", [Attribute("sku", Kind.INTEGER), Attribute("grp", Kind.INTEGER)])
    rows = [(Value.integer(sku), Value.integer(grp)) for sku, grp in ((1, 3), (2, 4), (3, 3))]
    return Wrapper(WrapperConfig(component_id, namespace, MemoryAdapter([schema], {"items": rows})))


class TestUnrenderableTree:
    @pytest.mark.parametrize("capacity", (0, 8))
    def test_logged_as_unrenderable_in_process(self, capacity):
        wrapper = items_wrapper()
        mediator = Mediator(
            "m", "shop", {"north": wrapper}, ["CREATE VIEW items AS SELECT sku, grp FROM north.items"],
            cache_capacity=capacity,
        )
        mask = Mask("k", mediator, formats=("csv",))
        for component, q in (
            (wrapper, nested_query("north", "items")),
            (mediator, nested_query("shop", "items")),
            (mask, nested_query("shop", "items")),
        ):
            result = component.execute(q)
            assert sorted(row[0].payload for row in result.rows) == [1, 2, 3]
            assert component.access_log[-1].query == "<unrenderable query>"

    def test_tcp_binding_raises_before_sending(self, monkeypatch):
        server = ProtocolServer(items_wrapper(), "127.0.0.1", 0)
        binding = TcpBinding(server.host, server.port)
        sent = []
        monkeypatch.setattr(binding._client, "request", sent.append)
        try:
            with pytest.raises(RenderError):
                binding.execute(nested_query("north", "items"), "reader")
            with pytest.raises(RenderError):
                binding.serve(nested_query("north", "items"), "csv", "reader")
            assert sent == []
        finally:
            binding.close()
            server.close()


class TestOneRenderPerTree:
    """Through an in-process mask, mediator and wrappers, each tree is
    rendered once: the query a caller hands in and each fetch the mediator
    sends, however many components log it or key a cache by it."""

    QUERIES = [
        "SELECT sku, price FROM shop.priced WHERE grp = 3",
        "SELECT sku, price FROM shop.priced WHERE grp = 3",
        "SELECT sku, price FROM shop.priced WHERE grp = 4",
        "SELECT * FROM shop.priced WHERE price > 1.5",
    ]

    def chain(self, capacity):
        prices = RelationSchema(
            "prices", [Attribute("psku", Kind.INTEGER), Attribute("price", Kind.DECIMAL)]
        )
        south = Wrapper(WrapperConfig("w_prices", "south", MemoryAdapter(
            [prices],
            {"prices": [(Value.integer(sku), Value.decimal(f"{sku}.50")) for sku in (1, 2, 3)]},
        )))
        north = items_wrapper()
        mediator = Mediator(
            "m", "shop", {"north": north, "south": south},
            ["CREATE VIEW priced AS SELECT sku, grp, price "
             "FROM north.items JOIN south.prices ON sku = psku"],
            cache_capacity=capacity,
        )
        return Mask("k", mediator, formats=("csv",)), (north, south)

    # Fetches that reach a wrapper per query: with a cache, the repeated
    # text is a result hit, and the third query binds a kept plan whose
    # placeholder-free fetch (south) hits its fetch slot.
    @pytest.mark.parametrize("capacity,fetches", [(0, [2, 2, 2, 2]), (64, [2, 0, 1, 2])])
    def test_the_query_and_each_fetch_render_once(self, render_calls, capacity, fetches):
        mask, wrappers = self.chain(capacity)
        sent = []
        for text in self.QUERIES:
            q = parse_query(text)
            logged = sum(len(wrapper.access_log) for wrapper in wrappers)
            del render_calls[:]
            mask.serve(q, "csv", "reader")
            sent.append(sum(len(wrapper.access_log) for wrapper in wrappers) - logged)
            assert render_calls[0] is q
            assert len(render_calls) == 1 + sent[-1], text
            assert len({id(tree) for tree in render_calls}) == len(render_calls), text
            assert mask.access_log[-1].query == render_query(q)
        assert sent == fetches
