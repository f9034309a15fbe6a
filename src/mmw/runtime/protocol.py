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

Each endpoint parses a query text once: its `QueryMemo` maps the text of an
exec_query to the parsed query. The tree keeps its canonical text once
rendered (`mmw.component.canonical_query_text`), which the component logs
and keys its caches by and a `TcpBinding` sends on, so a warm request is
neither parsed nor rendered again anywhere on its path. The memo keeps at
most `QUERY_MEMO_ENTRIES` texts, least recently used first out, and only
texts of at most `QUERY_MEMO_TEXT_CHARS` characters; a longer text is parsed
on every request. A text that fails to parse is never kept. The memo
lives and dies with its endpoint: `ProtocolServer.close` empties it.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from collections import OrderedDict
from typing import Optional

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
from mmw.mask import FORMATS, Rendering
from mmw.query.ast import Query
from mmw.query.parse import MAX_DEPTH, parse_query
from mmw.query.render import render_query
from mmw.relational import RelationSchema, Table, is_identifier

logger = logging.getLogger(__name__)

# Longest request line a server reads, newline included; a longer one gets one
# protocol error and the connection is closed, so memory per client stays bounded.
MAX_REQUEST_LINE = 1 << 20

# Query texts one endpoint keeps parsed, and the longest text it keeps. A
# product's clients send a handful of distinct texts. A parsed tree takes
# about 30 bytes per character of its text (2.9 KB for a 104-character
# query), so a full memo holds about 1 MB at most, where texts up to
# MAX_REQUEST_LINE could pin tens of megabytes each.
QUERY_MEMO_ENTRIES = 32
QUERY_MEMO_TEXT_CHARS = 1024

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


def table_response(table: Table) -> dict:
    return {
        "type": "table",
        "schema": [attribute_to_obj(attr) for attr in table.schema.attributes],
        "rows": rows_to_wire([attr.data_type for attr in table.schema.attributes], table.rows),
    }


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


class QueryMemo:
    """A bounded LRU map from a query text to its parsed query; see the
    module docstring. Query trees are frozen, so every request of an
    endpoint may share one."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Query] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return text in self._entries

    def lookup(self, text: str) -> Query:
        """The query of text, parsed on a miss; a syntax error propagates
        and nothing is kept."""
        # One dict read needs no lock; every change to the map holds it, so
        # a hit and a miss each take it once.
        q = self._entries.get(text)
        if q is not None:
            with self._lock:
                if text in self._entries:  # not evicted since the read
                    self._entries.move_to_end(text)
            return q
        q = parse_query(text)
        if len(text) <= QUERY_MEMO_TEXT_CHARS:
            with self._lock:
                self._entries[text] = q
                self._entries.move_to_end(text)
                if len(self._entries) > QUERY_MEMO_ENTRIES:
                    self._entries.popitem(last=False)
        return q

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def handle_request(component, request: dict, queries: QueryMemo) -> dict:
    """Dispatch one decoded request against a component, looking an
    exec_query text up in the endpoint's `queries`; returns the response
    object (errors are raised, the server serializes them)."""
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

    def request(self, payload: dict) -> dict:
        """Send one request; raises the decoded error for error responses.

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
                    line = self._reader.readline()
                except OSError as exc:
                    failure = f"failed: {exc}"
                    # After a timeout the server may still be running the
                    # request, so sending it again could run it twice.
                    resendable = not started and not isinstance(exc, TimeoutError)
                else:
                    if line:
                        break
                    failure, resendable = "closed", True
                self._drop()
                if not (may_resend and resendable):
                    raise UnavailableError(f"connection to {self.host}:{self.port} {failure}")
                may_resend = False
        try:
            response = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"bad response line: {exc}") from None
        if isinstance(response, dict) and response.get("type") == "error":
            raise error_from_obj(response)
        return response


class TcpBinding:
    """Consumer-side view of a remote component, mirroring the in-process
    component surface used by mediators and masks."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._client = ProtocolClient(host, port, timeout)
        schema_obj = self._client.request({"type": "get_schema"})
        self.component_id = schema_obj.get("component", f"{host}:{port}")
        self.kind = schema_obj.get("kind", "component")
        self._product = product_from_obj(schema_obj["schema"])
        self.namespace = self._product.product

    def get_schema(self):
        obj = self._client.request({"type": "get_schema"})
        return product_from_obj(obj["schema"])

    def _exec_query(self, q, principal: str, format: str) -> dict:
        """Send q as its canonical text; a tree with no textual form raises
        `RenderError` before anything is sent."""
        text = canonical_query_text(q) or render_query(q)  # the latter raises
        return self._client.request(
            {"type": "exec_query", "query": text, "principal": principal, "format": format}
        )

    def execute(self, q, principal: str = "") -> Table:
        return table_from_response(self._exec_query(q, principal, "table"))

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
