"""Black-box wire protocol conformance over a real TCP endpoint."""

from __future__ import annotations

import gc
import importlib
import json
import pkgutil
import random
import socket
import socketserver
import struct
import threading
import time
import weakref

import pytest

import mmw
from mmw.adapters import DelimitedDirAdapter, MemoryAdapter
from mmw.errors import (
    AccessDeniedError,
    ConfigError,
    MeshError,
    ProtocolError,
    QuerySyntaxError,
    TypeCheckError,
    UnavailableError,
    UnknownRelationError,
    ViewCycleError,
)
from mmw.mask import Mask
from mmw.mediator import Mediator
from mmw.relational import INT64_MAX, INT64_MIN, Attribute, Kind, RelationSchema, Table, Value
from mmw.runtime.protocol import (
    MAX_EPOCH_RELATIONS,
    MAX_REQUEST_LINE,
    WIRE_CODES,
    ProtocolClient,
    ProtocolServer,
    QueryMemo,
    TcpBinding,
    _encode_line,
    error_to_obj,
    handle_request,
    table_from_response,
    table_response,
    token_from_wire,
)
from mmw.query.parse import MAX_DEPTH, parse_query
from mmw.query.render import RenderError
from mmw.runtime.topology import TopologyError
from mmw.relational import bag_equal
from mmw.wrapper import Wrapper, WrapperConfig

NUMS = RelationSchema("nums", [Attribute("a", Kind.INTEGER, nullable=True)])


def wrapper_component():
    adapter = MemoryAdapter([NUMS], {"nums": [(Value.integer(1),), (Value.null(),)]})
    return Wrapper(WrapperConfig("w_nums", "ns", adapter))


@pytest.fixture()
def endpoint():
    component = wrapper_component()
    server = ProtocolServer(component, "127.0.0.1", 0)
    yield component, server
    server.close()


def raw_roundtrip(server, *requests: dict) -> list[str]:
    """Drive the endpoint with raw lines; returns raw response lines."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        reader = sock.makefile("rb")
        lines = []
        for request in requests:
            if isinstance(request, (bytes, str)):
                payload = request if isinstance(request, bytes) else request.encode()
            else:
                payload = json.dumps(request, separators=(",", ":")).encode()
            sock.sendall(payload + b"\n")
            lines.append(reader.readline().decode("utf-8").rstrip("\n"))
        return lines


class TestConformance:
    def test_get_schema(self, endpoint):
        _, server = endpoint
        (line,) = raw_roundtrip(server, {"type": "get_schema"})
        obj = json.loads(line)
        assert obj["type"] == "schema"
        assert obj["component"] == "w_nums"
        assert obj["schema"]["product"] == "ns"
        assert obj["schema"]["relations"][0]["name"] == "nums"

    def test_table_response_bytes(self, endpoint):
        _, server = endpoint
        (line,) = raw_roundtrip(
            server,
            {"type": "exec_query", "query": "SELECT * FROM ns.nums", "principal": "", "format": "table"},
        )
        expected = (
            '{"type":"table",'
            '"schema":[{"name":"a","type":"integer","nullable":true}],'
            '"rows":[["1"],[null]]}'
        )
        assert line == expected

    def test_connection_reuse_multiple_requests(self, endpoint):
        _, server = endpoint
        lines = raw_roundtrip(
            server,
            {"type": "get_schema"},
            {"type": "stats"},
            {"type": "epoch"},
            {"type": "lineage", "relation": "nums"},
        )
        types = [json.loads(line)["type"] for line in lines]
        assert types == ["schema", "stats", "epoch", "lineage"]

    @pytest.mark.parametrize(
        "request_obj,code",
        [
            ({"type": "exec_query", "query": "SELECT FROM", "format": "table"}, "syntax"),
            (
                {"type": "exec_query", "query": "SELECT missing FROM ns.nums", "format": "table"},
                "type",
            ),
            (
                {"type": "exec_query", "query": "SELECT * FROM ns.ghost", "format": "table"},
                "unknown_relation",
            ),
            ({"type": "mystery"}, "protocol"),
            ({"no_type": 1}, "protocol"),
            ({"type": "exec_query"}, "protocol"),
            ({"type": "exec_query", "query": 123}, "protocol"),
            ({"type": "exec_query", "query": None}, "protocol"),
            ({"type": "exec_query", "query": "SELECT * FROM ns.nums", "principal": 7}, "protocol"),
            ({"type": "exec_query", "query": "SELECT * FROM ns.nums", "format": ["csv"]}, "protocol"),
            ({"type": "lineage"}, "protocol"),
            ({"type": "lineage", "relation": ["nums"]}, "protocol"),
            ({"type": "lineage", "relation": {"name": "nums"}}, "protocol"),
        ],
    )
    def test_error_codes(self, endpoint, request_obj, code, caplog):
        _, server = endpoint
        lines = raw_roundtrip(server, request_obj, {"type": "get_schema"})
        obj, after = (json.loads(line) for line in lines)
        assert obj["type"] == "error"
        assert obj["code"] == code
        assert obj["origin"] == "w_nums"
        assert obj["message"]
        assert after["type"] == "schema"  # the connection stays open
        assert not [record for record in caplog.records if record.exc_info]

    def test_access_denied_code(self):
        component = wrapper_component()
        component.set_access_checker(lambda principal: (False, None))
        server = ProtocolServer(component, "127.0.0.1", 0)
        try:
            (line,) = raw_roundtrip(
                server,
                {"type": "exec_query", "query": "SELECT * FROM ns.nums",
                 "principal": "intruder", "format": "table"},
            )
            obj = json.loads(line)
            assert obj["code"] == "access_denied"
        finally:
            server.close()

    def test_unavailable_code(self, endpoint):
        component, server = endpoint
        component.stop()
        (line,) = raw_roundtrip(
            server, {"type": "exec_query", "query": "SELECT * FROM ns.nums", "format": "table"}
        )
        assert json.loads(line)["code"] == "unavailable"

    def test_bad_json_line_keeps_connection(self, endpoint):
        _, server = endpoint
        lines = raw_roundtrip(server, b"this is not json", {"type": "get_schema"})
        first, second = (json.loads(line) for line in lines)
        assert first["type"] == "error" and first["code"] == "protocol"
        assert second["type"] == "schema"

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(b"[" * 200_000, id="deep-nesting"),
            pytest.param(b'{"type":"epoch","n":' + b"1" * 5000 + b"}", id="5000-digit-integer"),
        ],
    )
    def test_undecodable_json_keeps_connection(self, endpoint, line):
        _, server = endpoint
        lines = raw_roundtrip(server, line, {"type": "get_schema"})
        first, second = (json.loads(line) for line in lines)
        assert first["type"] == "error" and first["code"] == "protocol"
        assert second["type"] == "schema"

    def test_out_of_range_literal_is_syntax_error(self, endpoint):
        _, server = endpoint
        query = "SELECT * FROM ns.nums WHERE a = 99999999999999999999"
        lines = raw_roundtrip(
            server,
            {"type": "exec_query", "query": query, "format": "table"},
            {"type": "get_schema"},
        )
        first, second = (json.loads(line) for line in lines)
        assert first["code"] == "syntax"
        assert "line 1, column 33" in first["message"]
        assert second["type"] == "schema"

    def test_over_long_line_is_refused_and_closes_connection(self, endpoint):
        _, server = endpoint
        # A line exactly at the limit, newline included, is still served.
        request = b'{"type":"get_schema"}'
        at_limit = request + b" " * (MAX_REQUEST_LINE - len(request) - 1)
        (line,) = raw_roundtrip(server, at_limit)
        assert json.loads(line)["type"] == "schema"
        # One byte more, with no newline in sight, gets one protocol error
        # and the server hangs up.
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"x" * (MAX_REQUEST_LINE + 1))
            response = json.loads(reader.readline())
            assert response["type"] == "error" and response["code"] == "protocol"
            assert reader.readline() == b""
        (line,) = raw_roundtrip(server, {"type": "get_schema"})
        assert json.loads(line)["type"] == "schema"

    def test_client_reset_before_reading_its_answers_ends_the_connection_quietly(
        self, endpoint
    ):
        _, server = endpoint
        listener = server._server
        errors, finished = [], threading.Event()
        shutdown_request = listener.shutdown_request

        def finish(request):
            shutdown_request(request)
            finished.set()

        # socketserver calls handle_error with any exception handle lets
        # out, and shutdown_request once the connection's thread is done.
        listener.handle_error = lambda request, address: errors.append(address)
        listener.shutdown_request = finish
        sock = socket.create_connection((server.host, server.port), timeout=5)
        # Linger 0: close sends a reset, so the server's next write or read
        # on this connection fails.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(b'{"type":"get_schema"}\n' * 50)
        sock.close()
        assert finished.wait(5)
        assert errors == []
        (line,) = raw_roundtrip(server, {"type": "get_schema"})
        assert json.loads(line)["type"] == "schema"

    def test_syntax_error_message_carries_position(self, endpoint):
        _, server = endpoint
        (line,) = raw_roundtrip(
            server, {"type": "exec_query", "query": "SELECT ??", "format": "table"}
        )
        obj = json.loads(line)
        assert "line 1" in obj["message"]


    def test_malformed_source_file_is_unavailable(self, tmp_path):
        # The request was fine; the source is not.
        (tmp_path / "people.csv").write_text("id:integer,name:text\n1,ada\n2\n", encoding="utf-8")
        wrapper = Wrapper(WrapperConfig("w_bad", "files", DelimitedDirAdapter(tmp_path)))
        server = ProtocolServer(wrapper, "127.0.0.1", 0)
        try:
            lines = raw_roundtrip(
                server,
                {"type": "exec_query", "query": "SELECT * FROM files.people", "format": "table"},
                {"type": "epoch"},
            )
        finally:
            server.close()
        error, after = (json.loads(line) for line in lines)
        assert error["code"] == "unavailable"
        assert error["origin"] == "w_bad"
        assert "people.csv" in error["message"]
        assert after["type"] == "epoch"


# One instance of every MeshError class in the package, with its wire code.
WIRE_CODE_OF = [
    (MeshError("m"), "protocol"),
    (ProtocolError("m"), "protocol"),
    (QuerySyntaxError("m", line=1, column=1), "syntax"),
    (TypeCheckError("m"), "type"),
    (RenderError("m"), "type"),
    (UnknownRelationError("m"), "unknown_relation"),
    (AccessDeniedError("m"), "access_denied"),
    (UnavailableError("m"), "unavailable"),
    (ConfigError("m"), "unavailable"),
    (TopologyError("m"), "unavailable"),
    (ViewCycleError(["v", "v"]), "unavailable"),
]


# Characters of a junk request line: no quote, so no JSON object with a
# field, and no whitespace only, so never a blank line the server skips.
JUNK = "{}[]:,0123456789.-+eEtrufalsn\\'x\x00\ufffd "


def nested(depth: int) -> list:
    """A JSON list nested `depth` deep around one text."""
    value: object = "x"
    for _ in range(depth):
        value = [value]
    return value


def malformed_request(rng: random.Random) -> bytes:
    """One request line every endpoint answers with an error: bad JSON, a
    value that is no request, a field of the wrong type, or nesting at or
    past MAX_DEPTH in the JSON or in the query text."""
    wrong = rng.choice([1, 2.5, None, True, [], ["x"], {}, {"k": "x"}, nested(MAX_DEPTH)])
    roll = rng.random()
    if roll < 0.15:
        line = json.dumps({"type": "exec_query", "query": "SELECT * FROM ns.nums"}).encode()
        return line[: rng.randrange(1, len(line))]  # cut short
    if roll < 0.3:
        junk = "".join(rng.choice(JUNK) for _ in range(rng.randint(1, 12))) + "x"
        raw = junk.encode("utf-8")
        if rng.random() < 0.5:
            raw = raw.replace(b"x", bytes([rng.choice(b"\x80\xc3\xff")]))  # not UTF-8
        return raw
    if roll < 0.4:
        request = rng.choice([[], [{"type": "get_schema"}], 1, "get_schema", None, wrong])
    elif roll < 0.55:
        request = {"type": wrong}
    elif roll < 0.75:
        request = {"type": "exec_query", "query": "SELECT * FROM ns.nums"}
        field = rng.choice(["query", "principal", "format"])
        if field == "query" and rng.random() < 0.3:
            del request["query"]
        else:
            request[field] = wrong
    elif roll < 0.85:
        request = {"type": "lineage"}
        if rng.random() < 0.7:
            request["relation"] = wrong
    else:
        depth = rng.choice([MAX_DEPTH, MAX_DEPTH + 1])
        if rng.random() < 0.5:
            predicate = "(" * depth + "a = 1" + ")" * depth
        else:
            predicate = "NOT " * depth + "a = 1"
        # At the limit the text parses, and names no relation the wrapper has.
        request = {"type": "exec_query", "query": f"SELECT * FROM ns.ghost WHERE {predicate}"}
    return json.dumps(request).encode("utf-8")


class TestMalformedRequestFuzz:
    def test_every_request_gets_one_error_line_and_the_endpoint_serves_on(
        self, endpoint, caplog
    ):
        component, server = endpoint
        rng = random.Random(22)

        def error_code(reader) -> str:
            response = json.loads(reader.readline())
            assert response["type"] == "error" and response["message"], response
            # Every error names the component that answered, including one
            # for a line that is not JSON or is too long to read.
            assert response["origin"] == component.component_id, response
            return response["code"]

        codes = set()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            for _ in range(400):
                line = malformed_request(rng)
                sock.sendall(line + b"\n")
                codes.add(error_code(reader))
            # Lines of exactly MAX_REQUEST_LINE bytes, newline included, are
            # read and refused like any other.
            for request in (b"{", b'{"type":"lineage","relation":1}'):
                sock.sendall(request + b" " * (MAX_REQUEST_LINE - len(request) - 1) + b"\n")
                assert error_code(reader) == "protocol"
            # The same connection is still served, one answer per request.
            sock.sendall(b'{"type":"get_schema"}\n')
            assert json.loads(reader.readline())["type"] == "schema"
        assert codes == {"protocol", "syntax", "unknown_relation"}
        # A line one byte past the limit, newline or not, gets one error
        # line, and the server hangs up.
        for tail in (b"\n", b"}"):
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"{" * MAX_REQUEST_LINE + tail)
                assert error_code(reader) == "protocol"
                assert reader.readline() == b""
        # A fresh client is served, and no request raised anything but a
        # mesh error.
        (line,) = raw_roundtrip(server, {"type": "get_schema"})
        assert json.loads(line)["type"] == "schema"
        assert not [record for record in caplog.records if record.exc_info]

    def test_a_bad_epoch_scope_gets_one_error_line_and_grows_nothing(self, endpoint, caplog):
        component, server = endpoint
        rng = random.Random(25)
        bad = [
            "nums", 1, None, True, {"nums": 1},  # not a list
            [1], [None], [True], [["nums"]], [{"r": "nums"}],  # items that are no text
            [""], ["Nums"], ["1a"], ["a b"], ["../nums"], ["nums\n"],  # no identifiers
            ["nums", "nums"],  # not distinct
            nested(MAX_DEPTH), [nested(MAX_DEPTH - 1)], nested(MAX_DEPTH + 1),
        ]
        bad += [
            ["nums", rng.choice([1, None, "", "X", ["nums"], "nums"])] for _ in range(20)
        ]
        # One name past the bound, however well formed.
        bad.append(["nums"] + [f"r{i}" for i in range(MAX_EPOCH_RELATIONS)])
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            for relations in bad:
                sock.sendall(_encode_line({"type": "epoch", "relations": relations}))
                response = json.loads(reader.readline())
                assert response["type"] == "error" and response["code"] == "protocol", relations
                assert response["origin"] == component.component_id
            sock.sendall(_encode_line({"type": "epoch", "relations": ["nums", "ghost"]}))
            token = json.loads(reader.readline())["epoch"]
            assert len(token) == 2 and token[0] == component.epoch(["nums"])[0]
            # A scope of exactly the bound is answered, one token per name.
            full = ["nums"] + [f"r{i}" for i in range(MAX_EPOCH_RELATIONS - 1)]
            sock.sendall(_encode_line({"type": "epoch", "relations": full}))
            token = json.loads(reader.readline())["epoch"]
            assert len(token) == MAX_EPOCH_RELATIONS and token[0] == component.epoch(["nums"])[0]
        assert list(component._relation_tokens) == ["nums"]
        (line,) = raw_roundtrip(server, {"type": "get_schema"})
        assert json.loads(line)["type"] == "schema"
        assert not [record for record in caplog.records if record.exc_info]


def _package_error_classes() -> set[type]:
    for module in pkgutil.walk_packages(mmw.__path__, "mmw."):
        importlib.import_module(module.name)
    found, pending = set(), [MeshError]
    while pending:
        cls = pending.pop()
        if cls.__module__.startswith("mmw."):
            found.add(cls)
        pending.extend(cls.__subclasses__())
    return found


class TestErrorEncoding:
    def test_table_covers_every_error_class(self):
        assert {type(exc) for exc, _ in WIRE_CODE_OF} == _package_error_classes()

    @pytest.mark.parametrize(
        "exc,code", WIRE_CODE_OF, ids=[type(exc).__name__ for exc, _ in WIRE_CODE_OF]
    )
    def test_encodes_to_wire_code(self, exc, code):
        assert code in WIRE_CODES
        assert error_to_obj(exc)["code"] == code


class TestTableResponse:
    TEXT_COLUMN = [{"name": "t", "type": "text"}]
    THREE_COLUMNS = [{"name": n, "type": "integer"} for n in ("a", "b", "c")]

    @pytest.mark.parametrize(
        "response, detail",
        [
            pytest.param({"schema": TEXT_COLUMN, "rows": [5]}, "row must be a list of cells, got int", id="int-row"),
            pytest.param({"schema": TEXT_COLUMN, "rows": ["x"]}, "row must be a list of cells, got str", id="text-row"),
            pytest.param({"schema": TEXT_COLUMN, "rows": 5}, "rows must be a list, got int", id="int-rows"),
            pytest.param({"schema": TEXT_COLUMN, "rows": "x"}, "rows must be a list, got str", id="text-rows"),
            pytest.param(
                {"schema": THREE_COLUMNS, "rows": [["1", "2"]]},
                "row arity 2 does not match schema arity 3",
                id="short-row",
            ),
            pytest.param({"schema": 5, "rows": []}, "schema must be a list, got int", id="int-schema"),
            pytest.param({"schema": [5], "rows": []}, "bad attribute object", id="int-attribute"),
            *(
                pytest.param(
                    {"schema": [{"name": "c", "type": kind}], "rows": [[cell]]},
                    f"bad cell for {kind}: expected a scalar, got {type(cell).__name__}",
                    id=f"{type(cell).__name__}-{kind}-cell",
                )
                for kind in ("integer", "decimal", "timestamp")
                for cell in ([1], {"a": 1})
            ),
        ],
    )
    def test_malformed_table_is_protocol_error(self, response, detail):
        with pytest.raises(ProtocolError) as caught:
            table_from_response(response)
        assert detail in caught.value.message

    def test_well_formed_table_decodes(self):
        table = table_from_response({"schema": self.TEXT_COLUMN, "rows": [["x"], [None]]})
        assert table.schema.attribute_names == ("t",)
        assert table.rows == ((Value.text("x"),), (Value.null(),))

    def test_golden_wire_bytes(self):
        """The wire bytes of one table of every kind are pinned: nulls, empty
        text, decimals that normalize, int64 edges and a year before 1000."""
        schema = RelationSchema(
            "every",
            [Attribute(name, kind, nullable=True) for name, kind in (
                ("i", Kind.INTEGER), ("d", Kind.DECIMAL), ("t", Kind.TEXT),
                ("b", Kind.BOOLEAN), ("ts", Kind.TIMESTAMP),
            )],
        )
        null = Value.null()
        table = Table(schema, [
            (Value.integer(INT64_MAX), Value.decimal("1.500"), Value.text(""), Value.boolean(True),
             Value.timestamp("0005-01-02T03:04:05Z")),
            (Value.integer(INT64_MIN), Value.decimal("1E+2"), Value.text('say "hé",\n'),
             Value.boolean(False), Value.timestamp("2024-12-31T23:59:59Z")),
            (Value.integer(0), Value.decimal("-0.00"), null, null, null),
            (null, null, null, null, null),
        ])
        expected = (
            '{"type":"table","schema":['
            '{"name":"i","type":"integer","nullable":true},'
            '{"name":"d","type":"decimal","nullable":true},'
            '{"name":"t","type":"text","nullable":true},'
            '{"name":"b","type":"boolean","nullable":true},'
            '{"name":"ts","type":"timestamp","nullable":true}],'
            '"rows":['
            '["9223372036854775807","1.5","","true","0005-01-02T03:04:05Z"],'
            '["-9223372036854775808","100","say \\"hé\\",\\n","false","2024-12-31T23:59:59Z"],'
            '["0","0",null,null,null],'
            '[null,null,null,null,null]]}\n'
        ).encode("utf-8")
        line = _encode_line(table_response(table))
        assert line == expected
        assert table_from_response(json.loads(line), "every") == table


class TestMaskOverWire:
    def test_rendering_response(self):
        adapter = MemoryAdapter([NUMS], {"nums": [(Value.integer(1),)]})
        wrapper = Wrapper(WrapperConfig("w_nums", "ns", adapter))
        mediator = Mediator("m1", "prod", {"n": wrapper}, ["CREATE VIEW nums AS SELECT * FROM n.nums"])
        mask = Mask("k1", mediator)
        server = ProtocolServer(mask, "127.0.0.1", 0)
        try:
            (line,) = raw_roundtrip(
                server,
                {"type": "exec_query", "query": "SELECT * FROM prod.nums", "format": "csv"},
            )
            obj = json.loads(line)
            assert obj["type"] == "rendering"
            assert obj["format"] == "csv"
            assert obj["data"] == "a:integer?\n1\n"
        finally:
            server.close()

    def test_format_on_non_mask_is_protocol_error(self, endpoint):
        _, server = endpoint
        (line,) = raw_roundtrip(
            server, {"type": "exec_query", "query": "SELECT * FROM ns.nums", "format": "csv"}
        )
        assert json.loads(line)["code"] == "protocol"


class TestTcpBinding:
    def test_binding_mirrors_component_surface(self, endpoint):
        component, server = endpoint
        binding = TcpBinding(server.host, server.port)
        try:
            assert binding.component_id == "w_nums"
            assert binding.kind == "wrapper"
            assert binding.namespace == "ns"
            remote = binding.execute(parse_query("SELECT * FROM ns.nums"), "p")
            local = component.execute(parse_query("SELECT * FROM ns.nums"), "p")
            assert bag_equal(remote, local)
            assert binding.epoch() == component.epoch()
            assert binding.lineage("nums").component == "w_nums"
        finally:
            binding.close()

    def test_a_scope_past_the_bound_is_probed_unscoped(self, endpoint):
        component, server = endpoint
        binding = TcpBinding(server.host, server.port)
        try:
            names = ["nums"] + [f"r{i}" for i in range(MAX_EPOCH_RELATIONS)]
            assert binding.epoch(names) == component.epoch()
            scoped = binding.epoch(names[:-1])
            assert len(scoped) == MAX_EPOCH_RELATIONS and scoped[0] == component.epoch(["nums"])[0]
        finally:
            binding.close()

    def test_remote_denial_raises_typed_error(self):
        component = wrapper_component()
        component.set_access_checker(lambda principal: (principal == "ok", None))
        server = ProtocolServer(component, "127.0.0.1", 0)
        binding = TcpBinding(server.host, server.port)
        try:
            with pytest.raises(AccessDeniedError):
                binding.execute(parse_query("SELECT * FROM ns.nums"), "intruder")
        finally:
            binding.close()
            server.close()

    def test_server_down_is_unavailable(self):
        component = wrapper_component()
        server = ProtocolServer(component, "127.0.0.1", 0)
        binding = TcpBinding(server.host, server.port)
        # A stopped component answers in-flight connections with unavailable...
        component.stop()
        with pytest.raises(UnavailableError):
            binding.execute(parse_query("SELECT * FROM ns.nums"))
        binding.close()
        # ...and once the endpoint is gone, new connections cannot be made.
        server.close()
        with pytest.raises(UnavailableError):
            TcpBinding(server.host, server.port)

    def test_closed_endpoint_ends_open_connections(self):
        component = wrapper_component()
        server = ProtocolServer(component, "127.0.0.1", 0)
        binding = TcpBinding(server.host, server.port)
        try:
            assert binding.epoch() == component.epoch()
            server.close()
            with pytest.raises(UnavailableError):
                binding.epoch()
        finally:
            binding.close()


class TestEndpointLifetime:
    def test_closed_endpoint_frees_its_component_without_the_cycle_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            component = wrapper_component()
            server = ProtocolServer(component, "127.0.0.1", 0)
            assert raw_roundtrip(server, {"type": "stats"})[0].startswith('{"type":"stats"')
            alive = weakref.ref(component)
            server.close()
            del component, server
            # The handler thread of the finished connection may still be
            # on its way out.
            deadline = time.monotonic() + 5
            while alive() is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


class TestEpochToken:
    @pytest.mark.parametrize(
        "token",
        [
            pytest.param(7, id="int"),
            pytest.param({"nonce": "ab", "counter": 1}, id="dict"),
            pytest.param(None, id="null"),
            pytest.param(
                json.loads("[" * (MAX_DEPTH + 1) + '"ab:1"' + "]" * (MAX_DEPTH + 1)), id="deep-list"
            ),
        ],
    )
    def test_malformed_token_is_one_protocol_error_and_keeps_the_connection(self, token):
        component = wrapper_component()
        good = component.epoch()
        tokens = [token, good]
        component.epoch = lambda: tokens.pop(0)
        server = HangUpServer(component, limit=3)
        binding = TcpBinding(server.host, server.port)  # request 1: get_schema
        try:
            with pytest.raises(ProtocolError, match="epoch token"):
                binding.epoch()
            assert binding.epoch() == good
            assert server.connections == 1
        finally:
            binding.close()
            server.close()

    def test_token_nested_to_the_limit_round_trips(self):
        token = wrapper_component().epoch()
        for _ in range(MAX_DEPTH):
            token = (token,)
        assert token_from_wire(json.loads(json.dumps(token))) == token

    def test_mediator_token_crosses_the_wire_unchanged(self, endpoint):
        wrapper, server = endpoint
        binding = TcpBinding(server.host, server.port)
        mediator = Mediator("m1", "prod", {"w": binding}, ["CREATE VIEW v AS SELECT * FROM w.nums"])
        outer = ProtocolServer(mediator, "127.0.0.1", 0)
        outer_binding = TcpBinding(outer.host, outer.port)
        try:
            token = outer_binding.epoch()
            assert token == mediator.epoch()
            assert token[1] == wrapper.epoch()
            hash(token)
        finally:
            outer_binding.close()
            outer.close()
            binding.close()


class HangUpServer(socketserver.ThreadingTCPServer):
    """Answers `limit` requests on each connection, then closes it, as a
    server with an idle timeout would."""

    daemon_threads = True

    def __init__(self, component, limit: int):
        self.connections = 0

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):  # noqa: N805
                self.connections += 1
                for _ in range(limit):
                    line = handler.rfile.readline()
                    if not line:
                        return
                    response = handle_request(component, json.loads(line), QueryMemo())
                    handler.wfile.write(json.dumps(response).encode() + b"\n")

        super().__init__(("127.0.0.1", 0), Handler)
        self.host, self.port = self.server_address[:2]
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()

    def close(self):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestClient:
    def test_undecodable_response_is_protocol_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer():
                connection, _ = listener.accept()
                with connection:
                    connection.makefile("rb").readline()
                    connection.sendall(b"[" * 200_000 + b"\n")

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            client = ProtocolClient("127.0.0.1", listener.getsockname()[1], timeout=5)
            try:
                with pytest.raises(ProtocolError):
                    client.request({"type": "epoch"})
            finally:
                client.close()
            thread.join(timeout=5)
            assert not thread.is_alive()


class TestReconnect:
    def test_request_after_server_hang_up_resends_on_new_connection(self):
        component = wrapper_component()
        expected = component.epoch()
        server = HangUpServer(component, limit=2)
        binding = TcpBinding(server.host, server.port)  # request 1: get_schema
        try:
            assert binding.epoch() == expected  # request 2, then the server hangs up
            assert binding.epoch() == expected  # sent again on a second connection
            assert binding.epoch() == expected
            assert server.connections == 2
        finally:
            binding.close()
            server.close()

    def test_fresh_connection_that_is_closed_raises(self):
        server = HangUpServer(wrapper_component(), limit=0)
        try:
            with pytest.raises(UnavailableError, match="closed"):
                TcpBinding(server.host, server.port)
            assert server.connections == 1
        finally:
            server.close()
