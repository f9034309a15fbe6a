"""Answers kept in their wire forms: the response line an endpoint keeps on
the table it encoded (`protocol.table_response`), the tables a binding keeps
decoded by their exact response line (`TcpBinding.execute`), the
renderings a mask keeps on the table it rendered (`mmw.mask`), and the lines
kept on each hop: a binding's request lines and decoded epoch tokens, an
endpoint's epoch and rendering response lines.

Checked against fresh encodes and decodes, and, over a TCP mask, mediator
and wrappers with inserts and file rewrites, against the same reads from an
in-process mesh with no cache."""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import mmw.mask
import mmw.runtime.protocol as protocol
from mmw.adapters import DelimitedDirAdapter, MemoryAdapter
from mmw.errors import MeshError
from mmw.kept import Kept
from mmw.mask import Mask, Rendering
from mmw.mediator import Mediator
from mmw.query.parse import parse_query
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
from mmw.runtime.mesh import Mesh
from mmw.runtime.protocol import (
    EPOCH_MEMO_ENTRIES,
    REQUEST_MEMO_ENTRIES,
    TABLE_MEMO_ENTRIES,
    TABLE_MEMO_LINE_BYTES,
    ProtocolClient,
    ProtocolServer,
    TcpBinding,
    _encode_line,
    epoch_response,
    rendering_response,
    table_from_response,
    table_response,
    token_from_wire,
)
from mmw.runtime.topology import load_topology
from mmw.wrapper import Wrapper, WrapperConfig


def fresh_decode(line: bytes) -> Table:
    return table_from_response(json.loads(line))


def same_table(a: Table, b: Table) -> bool:
    """Equal schemas and equal rows in the same order."""
    return a.schema == b.schema and a.rows == b.rows


@pytest.fixture()
def decoded_lines(monkeypatch):
    """(line, was it kept already, table) for every response line a binding
    looked up in its table memo, in order."""
    seen: list[tuple[bytes, bool, Table]] = []
    real = protocol.Memo.lookup

    def lookup(memo, key):
        kept = key in memo
        value = real(memo, key)
        if memo._make is protocol._table_from_line:
            seen.append((key, kept, value))
        return value

    monkeypatch.setattr(protocol.Memo, "lookup", lookup)
    return seen


# --- the seeded differential test ------------------------------------------------

ITEM_COLUMNS = (("sku", "integer"), ("name", "text"), ("grp", "integer"), ("price", "decimal?"))
STOCK_HEADER = "ssku:integer,qty:integer\n"
TEMPLATES = (
    "SELECT sku, name, price FROM shop.north_items WHERE grp >= {g} AND grp <= {g2}",
    "SELECT * FROM shop.all_items WHERE grp = {g}",
    "SELECT sku, qty FROM shop.stocked WHERE grp <= {g2}",
    "SELECT name, grp FROM shop.all_items WHERE price > {g}.5",
)
BAD_TEMPLATE = "SELECT * FROM shop.all_items WHERE name = {g}"  # a type error
FORMATS = ("csv", "jsonl", "pretty", "table")


def shop_document(tcp: bool, capacity: int, rows: dict[str, list]) -> dict:
    """Mask -> mediator -> two memory wrappers and a delimited_dir wrapper,
    every endpoint over TCP or every component in process."""
    endpoint = "tcp 127.0.0.1:0" if tcp else "in_process"
    attributes = [{"name": n, "type": t.rstrip("?"), "nullable": t.endswith("?")}
                  for n, t in ITEM_COLUMNS]
    columns = ", ".join(n for n, _ in ITEM_COLUMNS)
    components = [
        {"id": f"w_{side}", "kind": "wrapper", "domain": "shop", "role": "operational_wrapper",
         "endpoint": endpoint,
         "config": {"namespace": side, "adapter": {"kind": "memory", "relations": [
             {"name": "items", "attributes": attributes, "rows": rows[side]}]}}}
        for side in ("north", "south")
    ]
    components.append(
        {"id": "w_files", "kind": "wrapper", "domain": "shop", "role": "operational_wrapper",
         "endpoint": endpoint,
         "config": {"namespace": "files",
                    "adapter": {"kind": "delimited_dir", "location": "files"}}})
    components.append(
        {"id": "shop_product", "kind": "mediator", "domain": "shop", "role": "product_mediator",
         "endpoint": endpoint,
         "config": {"product": "shop", "cache_capacity": capacity,
                    "downstream": {"north": "w_north", "south": "w_south", "files": "w_files"},
                    "views": [
                        f"CREATE VIEW north_items AS SELECT {columns} FROM north.items;",
                        f"CREATE VIEW all_items AS SELECT {columns} FROM north.items "
                        f"UNION SELECT {columns} FROM south.items;",
                        "CREATE VIEW stocked AS SELECT sku, name, grp, qty "
                        "FROM north.items JOIN files.stock ON sku = ssku;",
                    ]}})
    components.append(
        {"id": "shop_mask", "kind": "mask", "domain": "shop", "role": "serving_mask",
         "endpoint": endpoint,
         "config": {"upstream": "shop_product", "formats": ["csv", "jsonl", "pretty"]}})
    edges = [["shop_product", f"w_{side}"] for side in ("north", "south", "files")]
    edges.append(["shop_mask", "shop_product"])
    return {"domains": ["shop"], "components": components, "edges": edges,
            "acl": [["reader", "shop", "*", True]]}


def item_cells(rng: random.Random, sku: int) -> list:
    price = None if rng.random() < 0.2 else f"{rng.randint(0, 4)}.{rng.randint(0, 99):02d}"
    return [str(sku), rng.choice(["ant", "bee", "cat", "é-ü", "a b"]), str(rng.randint(0, 3)), price]


def item_values(cells: list) -> tuple:
    sku, name, grp, price = cells
    return (Value.integer(int(sku)), Value.text(name), Value.integer(int(grp)),
            Value.null() if price is None else Value.decimal(price))


def write_stock(directory: Path, rng: random.Random, skus: list[int]) -> None:
    lines = [f"{sku},{rng.randint(0, 9)}\n" for sku in skus if rng.random() < 0.7]
    staged = directory / ".stock.csv.tmp"
    staged.write_text(STOCK_HEADER + "".join(lines), encoding="utf-8")
    os.replace(staged, directory / "stock.csv")


def table_form(table: Table):
    """A table's attributes and row bag: the cached and uncached paths may
    order rows differently."""
    return table.schema.attributes, table.row_bag()


def outcome(thunk):
    try:
        return "ok", thunk()
    except MeshError as exc:
        return "error", exc.code, exc.message


class TestKeptFormsDifferential:
    def test_every_read_equals_the_uncached_in_process_mesh(
        self, tmp_path, monkeypatch, decoded_lines
    ):
        rng = random.Random(3030)
        files = tmp_path / "files"
        files.mkdir()
        skus = iter(range(100, 1000))
        rows = {side: [item_cells(rng, next(skus)) for _ in range(8)] for side in ("north", "south")}
        known = [int(cells[0]) for side in rows for cells in rows[side]]
        write_stock(files, rng, known)
        renders, encodes, responses = Counter(), Counter(), Counter()
        real_render, real_rows_to_wire = mmw.mask.render_table, protocol.rows_to_wire
        real_response = protocol.table_response
        monkeypatch.setattr(
            mmw.mask, "render_table", lambda *a: renders.update(["made"]) or real_render(*a)
        )
        monkeypatch.setattr(
            protocol, "rows_to_wire", lambda *a: encodes.update(["made"]) or real_rows_to_wire(*a)
        )
        monkeypatch.setattr(
            protocol, "table_response", lambda t: responses.update(["sent"]) or real_response(t)
        )
        outcomes = Counter()
        with contextlib.ExitStack() as stack:
            warm = stack.enter_context(Mesh(load_topology(shop_document(True, 64, rows), tmp_path)))
            cold = stack.enter_context(Mesh(load_topology(shop_document(False, 0, rows), tmp_path)))
            client = ProtocolClient(*warm.endpoints["shop_mask"])
            stack.callback(client.close)
            for _ in range(400):
                if rng.random() < 0.12:
                    if rng.random() < 0.5:
                        side = rng.choice(("north", "south"))
                        cells = item_cells(rng, next(skus))
                        known.append(int(cells[0]))
                        for mesh in (warm, cold):
                            mesh.component(f"w_{side}").adapter.insert("items", item_values(cells))
                        outcomes["insert"] += 1
                    else:
                        write_stock(files, rng, known)
                        outcomes["rewrite"] += 1
                    continue
                g = rng.randint(0, 2)
                template = BAD_TEMPLATE if rng.random() < 0.05 else rng.choice(TEMPLATES)
                text = template.format(g=g, g2=g + 1)
                format_tag = rng.choice(FORMATS)
                request = {"type": "exec_query", "query": text, "principal": "reader",
                           "format": format_tag}
                made = renders["made"]
                del decoded_lines[:]
                if format_tag == "table":
                    got = outcome(lambda: table_form(table_from_response(client.request(request))))
                    expected = outcome(lambda: table_form(cold.execute("shop_mask", text, "reader")))
                else:
                    got = outcome(lambda: client.request(request)["data"].encode())
                    expected = outcome(
                        lambda: cold.serve("shop_mask", text, format_tag, "reader").data
                    )
                    if got[0] == "ok":
                        kept = renders["made"] == made
                        outcomes["rendering_kept" if kept else "rendered"] += 1
                assert got == expected, (text, format_tag)
                outcomes[got[0]] += 1
                # Each binding on the path (the mask's, and the mediator's
                # on a miss) served the table of the line it just received.
                for line, kept, table in decoded_lines:
                    assert same_table(table, fresh_decode(line)), text
                    outcomes["decode_kept" if kept else "decoded"] += 1
        kept_encodes = responses["sent"] - encodes["made"]
        assert kept_encodes >= 100, (responses, encodes)
        assert min(outcomes.values()) >= 5, outcomes


# --- one binding's decoded tables ---------------------------------------------------

ITEMS = RelationSchema("items", [Attribute("k", Kind.INTEGER), Attribute("label", Kind.TEXT)])


def long_label(extra: int) -> str:
    """A label whose one-row answer of `SELECT * FROM north.<relation>` is a
    line `extra` bytes longer than the longest line a binding keeps."""
    empty = _encode_line(dict(table_response(Table(ITEMS, [(Value.integer(0), Value.text(""))]))))
    return "x" * (TABLE_MEMO_LINE_BYTES - len(empty) + extra)


@pytest.fixture()
def served():
    """A memory wrapper behind an endpoint, and one binding to it."""
    relations = {"items": [(Value.integer(k), Value.text(f"item-{k}")) for k in range(64)]}
    for name, extra in (("edge", 0), ("over", 1)):
        relations[name] = [(Value.integer(0), Value.text(long_label(extra)))]
    schemas = [RelationSchema(name, ITEMS.attributes) for name in relations]
    wrapper = Wrapper(WrapperConfig("w_keyed", "north", MemoryAdapter(schemas, relations)))
    server = ProtocolServer(wrapper, "127.0.0.1", 0)
    binding = TcpBinding(server.host, server.port)
    try:
        yield wrapper, binding
    finally:
        binding.close()
        server.close()


def point(k: int):
    return parse_query(f"SELECT * FROM north.items WHERE k = {k}")


class TestBindingTables:
    def test_a_line_is_decoded_once_and_no_table_is_served_for_another(
        self, served, decoded_lines
    ):
        wrapper, binding = served
        first = binding.execute(point(1))
        assert binding.execute(point(1)) is first
        other = binding.execute(point(2))
        assert other is not first and other != first
        wrapper.adapter.insert("items", (Value.integer(1), Value.text("again")))
        grown = binding.execute(point(1))
        assert grown is not first and len(grown.rows) == 2
        assert [kept for _, kept, _ in decoded_lines] == [False, True, False, False]
        for line, _, table in decoded_lines:
            assert same_table(table, fresh_decode(line))
        lines = [line for line, _, _ in decoded_lines]
        assert lines[0] == lines[1] and len(set(lines)) == 3

    def test_errors_and_over_long_lines_are_never_kept(self, served, decoded_lines):
        _, binding = served
        raised = []
        for _ in range(3):
            with pytest.raises(MeshError) as err:
                binding.execute(parse_query("SELECT * FROM north.items WHERE label = 1"))
            raised.append((err.value.code, err.value.message))
        assert raised == [raised[0]] * 3 and raised[0][0] == "type"
        assert decoded_lines == [] and len(binding._tables) == 0
        over = parse_query("SELECT * FROM north.over")
        tables = [binding.execute(over) for _ in range(2)]
        assert tables[0] is not tables[1] and same_table(*tables)
        assert len(binding._tables) == 0
        edge = parse_query("SELECT * FROM north.edge")
        assert binding.execute(edge) is binding.execute(edge)
        lengths = [(len(line), kept) for line, kept, _ in decoded_lines]
        bound = TABLE_MEMO_LINE_BYTES
        assert lengths == [(bound + 1, False), (bound + 1, False), (bound, False), (bound, True)]

    def test_the_entry_bound_holds_least_recently_used_first_out(self, served, decoded_lines):
        _, binding = served
        for k in range(TABLE_MEMO_ENTRIES):
            binding.execute(point(k))
        first = binding.execute(point(0))  # now the most recent
        binding.execute(point(TABLE_MEMO_ENTRIES))  # evicts k = 1
        assert len(binding._tables) == TABLE_MEMO_ENTRIES
        assert binding.execute(point(0)) is first
        binding.execute(point(1))
        kept = [kept for _, kept, _ in decoded_lines]
        assert kept == [False] * TABLE_MEMO_ENTRIES + [True, False, True, False]
        assert len(binding._tables) == TABLE_MEMO_ENTRIES

    def test_four_threads_share_one_binding(self, served):
        wrapper, binding = served
        expected = {k: wrapper.execute(point(k)).rows for k in range(48)}
        failures: list[str] = []
        interval = sys.getswitchinterval()

        def reader(seed: int) -> None:
            order = random.Random(seed)
            try:
                for _ in range(80):
                    k = order.randrange(48)
                    if binding.execute(point(k)).rows != expected[k]:
                        failures.append(f"k = {k}")
            except Exception as exc:  # reported below
                failures.append(repr(exc))

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(binding._tables) <= TABLE_MEMO_ENTRIES


# --- an endpoint's encoded answers ----------------------------------------------------


class TestEncodedTables:
    def test_a_table_is_encoded_once_into_its_line(self):
        schema = RelationSchema("r", [Attribute("k", Kind.INTEGER), Attribute("d", Kind.DECIMAL, True),
                                      Attribute("t", Kind.TEXT), Attribute("at", Kind.TIMESTAMP)])
        rows = [(Value.integer(k), Value.null() if k % 2 else Value.decimal(f"{k}.50"),
                 Value.text(f"é \"{k}\"\n "), Value.timestamp("2024-03-01T12:00:05Z"))
                for k in range(5)]
        table = Table(schema, rows)
        response = table_response(table)
        assert table_response(table) is response
        assert response.line == _encode_line(dict(response))
        assert json.loads(response.line) == response
        assert same_table(fresh_decode(response.line), Table(RelationSchema("result", schema.attributes), rows))
        twin = Table(schema, rows)
        assert table_response(twin) is not response and table_response(twin).line == response.line

    def test_a_mediator_result_hit_writes_kept_bytes(self, monkeypatch):
        encodes = []
        real = protocol.rows_to_wire
        monkeypatch.setattr(protocol, "rows_to_wire", lambda *a: encodes.append(1) or real(*a))
        adapter = MemoryAdapter([ITEMS], {"items": [(Value.integer(1), Value.text("a"))]})
        wrapper = Wrapper(WrapperConfig("w_items", "north", adapter))
        mediator = Mediator("m", "shop", {"north": wrapper},
                            ["CREATE VIEW items AS SELECT k, label FROM north.items"])
        server = ProtocolServer(mediator, "127.0.0.1", 0)
        client = ProtocolClient(server.host, server.port)
        request = {"type": "exec_query", "query": "SELECT * FROM shop.items"}
        try:
            answers = []
            for step in range(4):
                if step == 2:
                    adapter.insert("items", (Value.integer(2), Value.text("b")))
                answers.append(client.request(request))
        finally:
            client.close()
            server.close()
        assert [len(answer["rows"]) for answer in answers] == [1, 1, 2, 2]
        assert len(encodes) == 2  # the first answer, and the first after the insert
        assert [entry.cache_hit for entry in mediator.access_log] == [False, True, False, True]


# --- lines kept on each hop: epoch probes, request lines, renderings -------------


def fresh_token(line: bytes):
    return token_from_wire(json.loads(line)["epoch"])


@pytest.fixture()
def probed_lines(monkeypatch):
    """(line, token) for every epoch response line a binding looked up in
    its token memo, from any thread."""
    seen: list[tuple[bytes, object]] = []
    real = protocol.Memo.lookup

    def lookup(memo, key):
        value = real(memo, key)
        if memo._make is protocol._token_from_line:
            seen.append((key, value))
        return value

    monkeypatch.setattr(protocol.Memo, "lookup", lookup)
    return seen


class RawLine:
    """A `ProtocolClient.request` memo that returns the response line as it
    came."""

    @staticmethod
    def lookup(line: bytes) -> bytes:
        return line


STOCK = RelationSchema("items", [Attribute("sku", Kind.INTEGER), Attribute("name", Kind.TEXT),
                                 Attribute("grp", Kind.INTEGER)])
HOP_VIEWS = [
    "CREATE VIEW items AS SELECT sku, name, grp FROM north.items",
    "CREATE VIEW stocked AS SELECT sku, name, grp, qty FROM north.items JOIN files.stock ON sku = ssku",
    "CREATE VIEW stock AS SELECT ssku, qty FROM files.stock",
]
HOP_TEMPLATES = (
    "SELECT sku, name FROM shop.items WHERE grp = {g}",
    "SELECT * FROM shop.stocked WHERE grp <= {g}",
    "SELECT ssku, qty FROM shop.stock WHERE qty >= {g}",
)
HOP_BAD_TEMPLATE = "SELECT * FROM shop.items WHERE name = {g}"  # a type error


def stock_row(rng: random.Random, sku: int) -> tuple:
    return (Value.integer(sku), Value.text(rng.choice(["ant", "bee", "é-ü"])),
            Value.integer(rng.randint(0, 3)))


def rewrite_stock_in_place(path: Path, rng: random.Random) -> None:
    """Each quantity, one digit, drawn again: the file keeps its size."""
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    body = "".join(line.split(",")[0] + f",{rng.randint(0, 9)}\n" for line in lines)
    with open(path, "r+", encoding="utf-8") as handle:
        handle.write(header + body)


def expected_line(thunk) -> tuple:
    """The response line an endpoint writes for an in-process answer, or an
    error as its wire code and message."""
    try:
        answer = thunk()
    except MeshError as exc:
        return "error", exc.code, exc.message
    if isinstance(answer, Table):
        return "ok", _encode_line(dict(table_response(answer)))
    return "ok", _encode_line({"type": "rendering", "format": answer.format, "data": answer.text})


def received_line(line: bytes) -> tuple:
    response = json.loads(line)
    if response["type"] == "error":
        return "error", response["code"], response["message"]
    return "ok", line


class TestHopLines:
    def test_kept_responses_are_the_lines_of_their_objects(self):
        kept = Kept(EPOCH_MEMO_ENTRIES)
        for token in ("n:1", ("n:a:1", ("n:2", "é")), ()):
            response = epoch_response(token, kept)
            assert epoch_response(token, kept) is response
            assert response.line == _encode_line({"type": "epoch", "epoch": token})
        rendering = Rendering("csv", "k:integer\n1,\"é\"\n".encode())
        response = rendering_response(rendering)
        assert rendering_response(rendering) is response
        assert response.line == _encode_line({"type": "rendering", "format": "csv",
                                               "data": rendering.text})
        assert rendering == Rendering("csv", rendering.data)
        assert len(kept) == 3 and (kept.misses, kept.hits) == (3, 3)

    @pytest.mark.parametrize(
        "token", [1, True, 1.0, None, ["n:1"], {"n": 1}, ("n:1", 2), ("n:1", ["n:2"])]
    )
    def test_a_malformed_token_is_encoded_afresh_and_never_kept(self, token):
        # 1, 1.0 and True are equal keys of unequal lines.
        kept = Kept(EPOCH_MEMO_ENTRIES)
        for _ in range(2):
            response = epoch_response(token, kept)
            assert type(response) is dict and response == {"type": "epoch", "epoch": token}
        assert len(kept) == 0

    def test_every_read_over_tcp_equals_the_uncached_in_process_mesh(self, tmp_path, probed_lines):
        rng = random.Random(3033)
        files = tmp_path / "files"
        files.mkdir()
        memory = MemoryAdapter([STOCK], {"items": [stock_row(rng, sku) for sku in range(100, 112)]})
        skus = iter(range(112, 1000))
        (files / "stock.csv").write_text(
            STOCK_HEADER + "".join(f"{sku},{rng.randint(0, 9)}\n" for sku in range(100, 118, 2)),
            encoding="utf-8",
        )
        csv = DelimitedDirAdapter(files)

        def wrappers():
            return {"north": Wrapper(WrapperConfig("w_north", "north", memory)),
                    "files": Wrapper(WrapperConfig("w_files", "files", csv))}

        cold_mask = Mask("cold_mask", Mediator("cold", "shop", wrappers(), HOP_VIEWS, cache_capacity=0))
        outcomes = Counter()
        with contextlib.ExitStack() as stack:
            servers = {}

            def serve(name, component, port=0):
                servers[name] = server = ProtocolServer(component, "127.0.0.1", port)
                stack.callback(lambda: servers[name].close())
                return server

            def bind(server):
                binding = TcpBinding(server.host, server.port)
                stack.callback(binding.close)
                return binding

            for alias, wrapper in wrappers().items():
                serve(alias, wrapper)
            downstream = {alias: bind(servers[alias]) for alias in ("north", "files")}
            mediator = Mediator("shop_product", "shop", downstream, HOP_VIEWS)
            mask_binding = bind(serve("mediator", mediator))
            mask_server = serve("mask", Mask("shop_mask", mask_binding))
            client = ProtocolClient(mask_server.host, mask_server.port)
            stack.callback(client.close)
            for _ in range(360):
                roll = rng.random()
                if roll < 0.05:
                    memory.insert("items", stock_row(rng, next(skus)))
                    outcomes["insert"] += 1
                    continue
                if roll < 0.1:
                    rewrite_stock_in_place(files / "stock.csv", rng)
                    outcomes["rewrite"] += 1
                    continue
                if roll < 0.12:
                    # A new instance, so a new token, behind the same port.
                    alias = rng.choice(("north", "files"))
                    port = servers[alias].port
                    servers[alias].close()
                    serve(alias, wrappers()[alias], port)
                    outcomes["restart"] += 1
                    continue
                template = HOP_BAD_TEMPLATE if rng.random() < 0.05 else rng.choice(HOP_TEMPLATES)
                text = template.format(g=rng.randint(0, 3))
                format_tag = rng.choice(("csv", "jsonl", "table"))
                request = {"type": "exec_query", "query": text, "principal": "reader",
                           "format": format_tag}
                got = received_line(client.request(request, memo=RawLine))
                if format_tag == "table":
                    expected = expected_line(lambda: cold_mask.execute(parse_query(text), "reader"))
                else:
                    expected = expected_line(
                        lambda: cold_mask.serve(parse_query(text), format_tag, "reader")
                    )
                assert got == expected, (text, format_tag)
                outcomes[got[0]] += 1
                for line, token in probed_lines:
                    assert token == fresh_token(line)
                outcomes["probed"] += len(probed_lines)
                del probed_lines[:]
            kept_epochs = sum(binding._epochs.hits for binding in downstream.values())
            kept_requests = mask_binding._requests.hits
        assert min(outcomes.values()) >= 5, outcomes
        assert kept_epochs >= 100 and kept_requests >= 100, (kept_epochs, kept_requests)

    def test_each_store_stays_within_its_bound_under_distinct_scopes_and_tokens(
        self, probed_lines
    ):
        # A relation the wrapper lacks gets a fresh token on every probe, so
        # each probe of it is a new response line at both ends.
        adapter = MemoryAdapter([ITEMS], {"items": [(Value.integer(k), Value.text("a")) for k in range(8)]})
        server = ProtocolServer(Wrapper(WrapperConfig("w_keyed", "north", adapter)), "127.0.0.1", 0)
        binding = TcpBinding(server.host, server.port)
        failures: list[str] = []
        interval = sys.getswitchinterval()

        def prober(seed: int) -> None:
            order = random.Random(seed)
            try:
                for serial in range(3 * EPOCH_MEMO_ENTRIES):
                    ghost = f"ghost_{seed}_{serial}"
                    token = binding.epoch([ghost])
                    if len(token) != 1 or ":ghost_" not in token[0]:
                        failures.append(f"{ghost}: {token}")
                    if binding.epoch(("items",)) != binding.epoch(["items"]):
                        failures.append("items")
                    k = order.randrange(2 * REQUEST_MEMO_ENTRIES)
                    if len(binding.execute(point(k)).rows) != (k < 8):
                        failures.append(f"k = {k}")
            except Exception as exc:  # reported below
                failures.append(repr(exc))

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=prober, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        endpoint = server._server.epochs
        try:
            assert failures == []
            assert all(token == fresh_token(line) for line, token in probed_lines)
            for store, bound in ((binding._probes, EPOCH_MEMO_ENTRIES),
                                 (binding._epochs, EPOCH_MEMO_ENTRIES),
                                 (endpoint, EPOCH_MEMO_ENTRIES),
                                 (binding._requests, REQUEST_MEMO_ENTRIES)):
                assert len(store) <= bound and store.evictions > 0 and store.hits > 0
        finally:
            binding.close()
            server.close()
        assert len(endpoint) == 0
        stores = (binding._tables, binding._requests, binding._probes, binding._epochs)
        assert [len(store) for store in stores] == [0, 0, 0, 0]
