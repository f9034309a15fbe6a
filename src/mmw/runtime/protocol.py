"""Newline-delimited JSON wire protocol.

One request per line, one response per line, UTF-8, connection reusable.
Requests: get_schema, exec_query (query text, principal, format), stats,
lineage, plus two extensions the runtime itself needs: epoch (cache
freshness) and materialize (remote refresh trigger). Every error response
carries one of the fixed codes and the id of the originating component.

An epoch request may carry `relations`, a list of at most
`MAX_EPOCH_RELATIONS` distinct relation identifiers, to scope the probe to
them (a wrapper answers one token per name; a mediator or mask answers its
full token); any other value is a protocol error. An epoch response
carries the component's token in its JSON form: a string, or a list of
tokens nested at most `MAX_DEPTH` deep. `TcpBinding.epoch` turns it back
into the same hashable value (lists become tuples) and refuses any other
shape.

A server reads request lines of at most `MAX_REQUEST_LINE` bytes and a
client response lines of at most `MAX_RESPONSE_LINE` bytes; a longer
request line gets one protocol error and a closed connection, and a longer
response line drops the connection and raises `UnavailableError`.

Each endpoint parses a query text once: its `QueryMemo` maps the text of an
exec_query to the parsed query. The tree keeps its canonical text once
rendered (`mmw.component.canonical_query_text`), which the component logs
and keys its caches by and a `TcpBinding` sends on, so a warm request is
neither parsed nor rendered again anywhere on its path. Like every `Memo`,
it is a `mmw.kept.Kept` store: it keeps at most `QUERY_MEMO_ENTRIES` texts,
least recently used first out, and only texts of at most
`QUERY_MEMO_TEXT_CHARS` characters; a longer text is parsed on every
request. A text that fails to parse is never kept.

An endpoint parses each query shape once. On a miss of a text of at most
`QUERY_MEMO_TEXT_CHARS` characters, the memo scans it once
(`mmw.query.parse.scan_shape`) into its shape key, the tokens with spaces
and comments dropped, keywords upper-cased and each literal replaced by
the parser's reader of it (integer, decimal, text, or timestamp after
TIMESTAMP), and looks the key up in a second `Kept` of at most
`QUERY_MEMO_ENTRIES` shapes. A shape keeps the lifted tree
(`mmw.planner.lift_literals`) and the source of each placeholder: the
literal token that fills it, or the keyword constant TRUE, FALSE or NULL
it lifted. The first text of a shape is parsed, and its shape is kept only
when binding the text's own literals rebuilds the parsed tree. A later
text's literals are read with the parser's readers and bound into the
lifted tree; if a reader refuses one, the text is parsed, so every error
is the parser's. A bound tree keeps its lifted pair, so a mediator lifts
nothing. Both maps live and die with their endpoint:
`ProtocolServer.close` empties them.

A repeated answer is encoded, decoded and rendered once. Each kept form is
keyed by the exact object or bytes it is a pure function of, and tables,
rows and values are immutable, so none can go stale:
- an endpoint encodes a `Table` to its table response once and keeps the
  response, with its line, on the frozen table, outside its fields
  (`table_response`), so a mediator's result hit, which returns the kept
  table itself, is written as kept bytes;
- a `TcpBinding` keeps a `Memo` from the exact response line to its decoded
  table: at most `TABLE_MEMO_ENTRIES` lines, least recently used first out,
  each of at most `TABLE_MEMO_LINE_BYTES` bytes; an error response or a
  longer line is never kept;
- a mask keeps each format's rendering on the table it rendered
  (`mmw.mask`).
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from functools import partial
from typing import NamedTuple, Optional

from mmw.codec import (
    attribute_from_obj,
    attribute_to_obj,
    product_from_obj,
    product_to_obj,
    rows_from_wire,
    rows_to_wire,
)
from mmw.component import LineageNode, canonical_query_text
from mmw.errors import (
    AccessDeniedError,
    MeshError,
    ProtocolError,
    TypeCheckError,
    UnavailableError,
    UnknownRelationError,
)
from mmw.kept import Kept
from mmw.mask import FORMATS, Rendering
from mmw.planner import bind_query, keep_lifted, lift_literals
from mmw.query.ast import Query
from mmw.query.parse import MAX_DEPTH, parse_query, scan_shape
from mmw.query.render import render_query
from mmw.relational import RelationSchema, Table, Value, is_identifier

logger = logging.getLogger(__name__)

# Longest request line a server reads, newline included; a longer one gets one
# protocol error and the connection is closed, so memory per client stays bounded.
MAX_REQUEST_LINE = 1 << 20

# Longest response line a client reads, newline included; a longer one drops
# the connection and raises, so a broken or hostile downstream cannot make a
# consumer hold any amount of memory. The longest line in the tests and in a
# round of each benchmark workload is 8 193 bytes (a 150-row table is 6.9 KB),
# a test's deliberately broken 200 001-byte line aside.
MAX_RESPONSE_LINE = 1 << 23

# Query texts one endpoint keeps parsed, and the longest text it keeps. A
# product's clients send a handful of distinct texts. A parsed tree takes
# about 30 bytes per character of its text (2.9 KB for a 104-character
# query), so a full memo holds about 1 MB at most, where texts up to
# MAX_REQUEST_LINE could pin tens of megabytes each.
QUERY_MEMO_ENTRIES = 32
QUERY_MEMO_TEXT_CHARS = 1024

# Response lines one binding keeps decoded, and the longest line it keeps. A
# product's clients ask a handful of distinct queries, whose answers change
# only when a source does; a 15-row answer is a line of about 730 bytes. A
# decoded table takes 10-15 bytes per byte of its line, so a full memo holds
# about 4 MB at most.
TABLE_MEMO_ENTRIES = 32
TABLE_MEMO_LINE_BYTES = 8 * 1024

# Most relation names one scoped epoch request may carry. A wrapper answers
# one token per name, so without a bound one request line could ask for
# tens of thousands (18 278 three-letter names took 0.16 s and drew a
# 537 KB answer). A plan reads a handful of relations of each downstream; a
# binding sends a longer scope unscoped, whose token moves whenever any of
# them may have.
MAX_EPOCH_RELATIONS = 256

WIRE_CODES = ("syntax", "type", "unknown_relation", "access_denied", "unavailable", "protocol")

_CODE_CLASSES = {
    "type": TypeCheckError,
    "unknown_relation": UnknownRelationError,
    "access_denied": AccessDeniedError,
    "unavailable": UnavailableError,
    "protocol": ProtocolError,
}


def error_to_obj(exc: Exception) -> dict:
    if isinstance(exc, MeshError):
        # A code that never travels (a ConfigError: say, a malformed source
        # file met while serving) is the server's fault, not the request's.
        code = exc.code if exc.code in WIRE_CODES else "unavailable"
        return {
            "type": "error",
            "code": code,
            "message": exc.message,
            "origin": exc.origin or "",
        }
    return {"type": "error", "code": "unavailable", "message": str(exc), "origin": ""}


def error_from_obj(obj: dict) -> MeshError:
    code = obj.get("code", "protocol")
    message = obj.get("message", "remote error")
    origin = obj.get("origin") or None
    cls = _CODE_CLASSES.get(code)
    if cls is not None:
        return cls(message, origin=origin)
    exc = MeshError(message, origin=origin)
    exc.code = code  # e.g. "syntax": positions live in the message text
    return exc


def _encode_line(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


class _EncodedResponse(dict):
    """A response object with its encoded line, which the server writes as
    it is. Shared by every request that answers the same table, so never
    changed once built."""

    __slots__ = ("line",)


def table_response(table: Table) -> dict:
    """The table response of `table`, encoded once and kept on the frozen
    table, outside its fields, as a tree keeps its canonical text. Threads
    racing on one table build equal responses."""
    response = vars(table).get("_response")
    if response is None:
        attrs = table.schema.attributes
        response = _EncodedResponse(
            type="table",
            schema=[attribute_to_obj(attr) for attr in attrs],
            rows=rows_to_wire([attr.data_type for attr in attrs], table.rows),
        )
        response.line = _encode_line(response)
        vars(table)["_response"] = response  # past the frozen __setattr__
    return response


def table_from_response(obj: dict, name: str = "result") -> Table:
    raw_schema = obj.get("schema", [])
    if not isinstance(raw_schema, list):
        raise ProtocolError(f"schema must be a list, got {type(raw_schema).__name__}")
    attrs = [attribute_from_obj(raw) for raw in raw_schema]
    rows = rows_from_wire([attr.data_type for attr in attrs], obj.get("rows", []))
    return Table(RelationSchema(name, attrs), rows)


def token_from_wire(obj, depth: int = 0):
    """The epoch token whose JSON form is obj: a string stays a string, a
    list becomes a tuple. Anything else, or lists nested deeper than
    MAX_DEPTH, is a protocol error."""
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list) and depth < MAX_DEPTH:
        return tuple(token_from_wire(item, depth + 1) for item in obj)
    raise ProtocolError(
        f"epoch token must be a string or a list of tokens nested at most "
        f"{MAX_DEPTH} deep, got {type(obj).__name__} at depth {depth}"
    )


def _text_field(request: dict, field: str, default: Optional[str] = None) -> str:
    """A request field that must be text; a missing one (without a default)
    or one of another JSON type is a protocol error."""
    value = request.get(field, default)
    if not isinstance(value, str):
        raise ProtocolError(f"{request['type']} needs a text {field!r} field")
    return value


def _relations_field(request: dict) -> Optional[list[str]]:
    """An epoch request's scope: None when absent, else a list of distinct
    identifiers; any other value is a protocol error."""
    if "relations" not in request:
        return None
    relations = request["relations"]
    if isinstance(relations, list) and len(relations) > MAX_EPOCH_RELATIONS:
        raise ProtocolError(f"epoch 'relations' names more than {MAX_EPOCH_RELATIONS} relations")
    if (
        not isinstance(relations, list)
        or not all(map(is_identifier, relations))
        or len(set(relations)) != len(relations)
    ):
        raise ProtocolError("epoch 'relations' must be a list of distinct relation identifiers")
    return relations


class Memo(Kept):
    """A bounded LRU map from an exact text or line to what `make` derives
    from it: at most `entries` keys, least recently used first out, each of
    at most `longest` characters or bytes. A longer key is derived on every
    lookup, and a key whose `make` raises is never kept, so it raises every
    time. What `make` returns must be immutable, as every caller shares it."""

    def __init__(self, make, entries: int, longest: int):
        super().__init__(entries, largest=longest)
        self._make = make

    def lookup(self, key):
        """What `make` derives from key, derived on a miss; an error of
        `make` propagates and nothing is kept."""
        value = self.get(key)
        if value is None:
            value = self._make(key)
            self.put(key, value, len(key))
        return value


# The keyword constants, each a literal of its own shape.
_CONSTANTS = {"TRUE": Value.boolean(True), "FALSE": Value.boolean(False), "NULL": Value.null()}


class _Shape(NamedTuple):
    """A parsed shape: the lifted tree, and the source of each placeholder,
    the index of the literal token that fills it or the value of the
    keyword constant (TRUE, FALSE, NULL) it lifted."""

    lifted: Query
    sources: tuple[int | Value, ...]


def _shape_of(query: Query, key: tuple, literals: list) -> Optional[_Shape]:
    """The shape of a query parsed from a text of shape key, when binding
    that text's own literals rebuilds the query; None otherwise."""
    lifted, values = lift_literals(query)
    serial = iter(range(len(literals)))
    shape = _Shape(
        lifted,
        tuple(
            next(serial) if callable(part) else _CONSTANTS[part]  # a reader marks a literal token
            for part in key
            if callable(part) or part in _CONSTANTS
        ),
    )
    if len(shape.sources) != len(values) or _bind_shape(shape, literals) != query:
        return None
    return shape


def _bind_shape(shape: _Shape, literals: list) -> Optional[Query]:
    """The tree of a text of the shape with these literals, keeping its
    lifted pair; None when a literal's reader refuses its text."""
    try:
        values = tuple(
            source if type(source) is not int else literals[source][0](literals[source][1])
            for source in shape.sources
        )
    except ValueError:
        return None
    query = bind_query(shape.lifted, values)
    keep_lifted(query, (shape.lifted, values))
    return query


def _parse(shapes: Kept, text: str) -> Query:
    """The query of a text the memo does not hold: bound from the kept
    shape of its key in `shapes`, or parsed, its shape then kept."""
    # parse_query is looked up on each call, where tracers replace it.
    if len(text) > QUERY_MEMO_TEXT_CHARS:
        return parse_query(text)
    scanned = scan_shape(text)
    if scanned is None:
        return parse_query(text)
    key, literals = scanned
    shape = shapes.get(key)
    if shape is not None:
        query = _bind_shape(shape, literals)
        # A literal its reader refuses is the parser's error to give.
        return parse_query(text) if query is None else query
    query = parse_query(text)
    shape = _shape_of(query, key, literals)
    if shape is not None:
        shapes.put(key, shape)
    return query


class QueryMemo(Memo):
    """An endpoint's map from a query text to its parsed query, and from a
    shape key to its `_Shape`; see the module docstring. Query trees are
    frozen, so every request of an endpoint may share one."""

    def __init__(self):
        # Bound to the shapes alone, so the memo refers to nothing that
        # refers back to it.
        shapes = Kept(QUERY_MEMO_ENTRIES)
        super().__init__(partial(_parse, shapes), QUERY_MEMO_ENTRIES, QUERY_MEMO_TEXT_CHARS)
        self.shapes = shapes

    def clear(self) -> None:
        super().clear()
        self.shapes.clear()


def handle_request(component, request: dict, queries: QueryMemo) -> dict:
    """Dispatch one decoded request against a component, looking an
    exec_query text up in the endpoint's `queries`; returns the response
    object (errors are raised, the server serializes them). A table
    response is the one kept on its table (`table_response`), whose kept
    line the server writes."""
    if not isinstance(request, dict) or "type" not in request:
        raise ProtocolError("request must be an object with a 'type' field")
    request_type = request["type"]
    if request_type == "get_schema":
        return {
            "type": "schema",
            "component": component.component_id,
            "kind": component.kind,
            "schema": product_to_obj(component.get_schema()),
        }
    if request_type == "exec_query":
        query_text = _text_field(request, "query")
        principal = _text_field(request, "principal", "")
        format_tag = _text_field(request, "format", "table")
        q = queries.lookup(query_text)
        if format_tag == "table":
            return table_response(component.execute(q, principal))
        if format_tag in FORMATS:
            rendering = component.serve(q, format_tag, principal)
            return {"type": "rendering", "format": rendering.format, "data": rendering.text}
        raise ProtocolError(f"unknown format {format_tag!r}")
    if request_type == "stats":
        return {
            "type": "stats",
            "component": component.component_id,
            "counters": component.stats(),
        }
    if request_type == "lineage":
        node = component.lineage(_text_field(request, "relation"))
        return {"type": "lineage", "root": node.to_obj()}
    if request_type == "epoch":
        relations = _relations_field(request)
        token = component.epoch() if relations is None else component.epoch(relations)
        return {"type": "epoch", "epoch": token}
    if request_type == "materialize":
        return {"type": "report", "report": component.materialize()}
    raise ProtocolError(f"unknown request type {request_type!r}")


class _Handler(socketserver.StreamRequestHandler):
    """Serves one connection of a `_Server`: one response line per request line."""

    def handle(self) -> None:
        server = self.server
        component = server.component
        with server.lock:
            if server.closed:
                return
            server.connections.add(self.connection)
        try:
            for raw_line in iter(lambda: self.rfile.readline(MAX_REQUEST_LINE + 1), b""):
                if len(raw_line) > MAX_REQUEST_LINE:
                    error = ProtocolError(
                        f"request line exceeds {MAX_REQUEST_LINE} bytes",
                        origin=component.component_id,
                    )
                    self.wfile.write(_encode_line(error_to_obj(error)))
                    return
                line = raw_line.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                # json.loads raises JSONDecodeError, ValueError for an
                # integer past the int-string limit, or RecursionError
                # for deep nesting.
                try:
                    request = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    error = ProtocolError(f"bad JSON: {exc}", origin=component.component_id)
                    response = error_to_obj(error)
                else:
                    try:
                        response = handle_request(component, request, server.queries)
                    except Exception as exc:  # serialized, connection stays up
                        if not isinstance(exc, MeshError):
                            logger.exception("request failed on %s", component.component_id)
                        response = error_to_obj(exc)
                        if not response.get("origin"):
                            response["origin"] = component.component_id
                if type(response) is _EncodedResponse:
                    self.wfile.write(response.line)
                else:
                    self.wfile.write(_encode_line(response))
                self.wfile.flush()
        except OSError:
            # The client hung up, or reset the connection, before reading
            # its answer; the connection simply ends.
            pass
        finally:
            with server.lock:
                server.connections.discard(self.connection)


class _Server(socketserver.ThreadingTCPServer):
    """The listening socket of one endpoint with the component it serves, its
    query memo and the connections being served, so that close can end them
    too. Nothing
    here refers back to the `ProtocolServer`, and the handler class is
    shared, so a closed endpoint and its component are freed by reference
    counting alone, without waiting for the cycle collector."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, component):
        self.component = component
        self.queries = QueryMemo()
        self.lock = threading.Lock()
        self.connections: set[socket.socket] = set()
        self.closed = False
        super().__init__(address, _Handler)


class ProtocolServer:
    """Threaded TCP endpoint for one component."""

    def __init__(self, component, host: str, port: int):
        self.component = component
        try:
            self._server = _Server((host, port), component)
        except OSError as exc:
            raise UnavailableError(
                f"cannot bind {host}:{port} for {component.component_id}: {exc}"
            ) from None
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"endpoint-{component.component_id}",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        """Stop accepting, then end every connection still being served, so
        clients connected before the close get no further answers, and drop
        the query memo."""
        server = self._server
        server.shutdown()
        server.server_close()
        with server.lock:
            server.closed = True
            connections = list(server.connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client hung up first
        self._thread.join(timeout=5)
        server.queries.clear()


class ProtocolClient:
    """Line-oriented client; one in-flight request at a time."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def _connect(self) -> None:
        if self._sock is not None:
            return
        try:
            self._sock = socket.create_connection((self.host, self.port), self.timeout)
            self._reader = self._sock.makefile("rb")
        except OSError as exc:
            self._sock = None
            raise UnavailableError(f"cannot reach {self.host}:{self.port}: {exc}") from None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, payload: dict, memo: Optional[Memo] = None):
        """Send one request and return its decoded response; an error
        response raises its decoded error. With a `memo` from response lines
        to what they hold, such as a binding's decoded tables, return
        `memo.lookup(line)` instead, so a line seen before is not decoded.

        A connection kept from an earlier request may have been closed by the
        server since. If it fails before the first byte of the response (end
        of file, or a socket error other than a timeout), the request is sent
        once more on a new connection. A new connection that fails raises."""
        data = _encode_line(payload)
        with self._lock:
            may_resend = self._sock is not None
            while True:
                self._connect()
                started = False
                try:
                    self._sock.sendall(data)
                    started = bool(self._reader.peek(1))
                    line = self._reader.readline(MAX_RESPONSE_LINE + 1)
                except OSError as exc:
                    failure = f"failed: {exc}"
                    # After a timeout the server may still be running the
                    # request, so sending it again could run it twice.
                    resendable = not started and not isinstance(exc, TimeoutError)
                else:
                    if len(line) > MAX_RESPONSE_LINE:
                        failure = f"failed: response line exceeds {MAX_RESPONSE_LINE} bytes"
                        resendable = False
                    elif line:
                        break
                    else:
                        failure, resendable = "closed", True
                self._drop()
                if not (may_resend and resendable):
                    raise UnavailableError(f"connection to {self.host}:{self.port} {failure}")
                may_resend = False
        return _response_from_line(line) if memo is None else memo.lookup(line)


def _response_from_line(line: bytes):
    """The response a line holds; raises the decoded error for an error
    response, and a protocol error for a line that is no JSON."""
    try:
        response = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"bad response line: {exc}") from None
    if isinstance(response, dict) and response.get("type") == "error":
        raise error_from_obj(response)
    return response


def _table_from_line(line: bytes) -> Table:
    return table_from_response(_response_from_line(line))


class TcpBinding:
    """Consumer-side view of a remote component, mirroring the in-process
    component surface used by mediators and masks."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._client = ProtocolClient(host, port, timeout)
        self._tables = Memo(_table_from_line, TABLE_MEMO_ENTRIES, TABLE_MEMO_LINE_BYTES)
        schema_obj = self._client.request({"type": "get_schema"})
        self.component_id = schema_obj.get("component", f"{host}:{port}")
        self.kind = schema_obj.get("kind", "component")
        self._product = product_from_obj(schema_obj["schema"])
        self.namespace = self._product.product

    def get_schema(self):
        obj = self._client.request({"type": "get_schema"})
        return product_from_obj(obj["schema"])

    def _exec_query(self, q, principal: str, format: str, memo: Optional[Memo] = None):
        """Send q as its canonical text; a tree with no textual form raises
        `RenderError` before anything is sent."""
        text = canonical_query_text(q) or render_query(q)  # the latter raises
        return self._client.request(
            {"type": "exec_query", "query": text, "principal": principal, "format": format},
            memo=memo,
        )

    def execute(self, q, principal: str = "") -> Table:
        """The answer table, decoded once per distinct response line."""
        return self._exec_query(q, principal, "table", self._tables)

    def epoch(self, relations=None):
        request = {"type": "epoch"}
        if relations is not None and len(relations) <= MAX_EPOCH_RELATIONS:
            request["relations"] = list(relations)
        response = self._client.request(request)
        return token_from_wire(response.get("epoch") if isinstance(response, dict) else None)

    def lineage(self, relation: str) -> LineageNode:
        response = self._client.request({"type": "lineage", "relation": relation})
        return LineageNode.from_obj(response["root"])

    def stats(self) -> dict:
        return self._client.request({"type": "stats"})["counters"]

    def serve(self, q, format: str, principal: str = "") -> Rendering:
        response = self._exec_query(q, principal, format)
        return Rendering(response["format"], response["data"].encode("utf-8"))

    def materialize(self) -> dict:
        return self._client.request({"type": "materialize"})["report"]

    def close(self) -> None:
        self._client.close()
        self._tables.clear()
