"""The three workloads: inputs generated from a seed, the mesh they run
against, the fixed operation sequence of one round, and the checks.

Every workload builds its mesh from a topology document through
`Mesh.up()`, so set-up is measured the same way everywhere. A round is one
set-up, one fixed sequence of operations and one tear-down; each round
starts from the same generated inputs, so every round does the same work
and meets the same faults. Checks never use mmw code to compute an expected
answer: each workload keeps its own model of the data in plain Python.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from collections import Counter
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

from mmw import Kind, Mesh, Value, load_topology
from mmw.runtime.protocol import ProtocolClient

PRINCIPAL = "analyst"
NAMES = ("ada", "grace", "edsger", "barbara", "alan", "radia", "hedy", "annie")
REGIONS = ("north", "south", "east", "west")
EPOCH_2024 = datetime(2024, 1, 1, tzinfo=timezone.utc)


class CheckFailed(Exception):
    """An answer that is neither right nor an earlier right answer."""


def _stamp(rng: random.Random) -> str:
    moment = EPOCH_2024 + timedelta(seconds=rng.randint(0, 300 * 24 * 3600))
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _money(rng: random.Random) -> Decimal:
    return Decimal(rng.randint(100, 99999)).scaleb(-2)


def _cell(value) -> str:
    """Canonical text of a generated value (decimals without trailing zeros)."""
    if isinstance(value, Decimal):
        text = format(value, "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    return str(value)


def _typed(kind_name: str, text: str):
    if kind_name == "integer":
        return int(text)
    if kind_name == "decimal":
        return Decimal(text)
    return text


def _py(value):
    """A returned mmw Value as the plain Python the models hold."""
    if value.kind is Kind.TIMESTAMP:
        return value.payload.strftime("%Y-%m-%dT%H:%M:%SZ")
    return value.payload


def split_csv(text: str) -> list[list[str]]:
    """The benchmark's own splitter for the mask's csv rendering: comma
    separator, '"' quoting with '""' escaping, one record per line."""
    records: list[list[str]] = []
    pos = 0
    while pos < len(text):
        fields: list[str] = []
        while True:
            if text.startswith('"', pos):
                end = pos + 1
                parts = []
                while True:
                    close = text.index('"', end)
                    parts.append(text[end:close])
                    if text.startswith('""', close):
                        parts.append('"')
                        end = close + 2
                        continue
                    pos = close + 1
                    break
                fields.append("".join(parts))
            else:
                stop = len(text)
                for sep in (",", "\n"):
                    found = text.find(sep, pos)
                    if found != -1:
                        stop = min(stop, found)
                fields.append(text[pos:stop])
                pos = stop
            if pos >= len(text) or text[pos] == "\n":
                pos += 1
                break
            pos += 1  # comma
        records.append(fields)
    return records


class Workload:
    """One round: prepare() (untimed), setup() (timed as set-up), perform()
    for each operation (timed), check() (untimed), teardown()."""

    name = ""
    ops: list[tuple[str, object]]

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.workdir = workdir
        self.mesh = None
        self.client = None

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.mesh = Mesh(load_topology(self.topology, base_dir=self.workdir)).up()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.mesh is not None:
            self.mesh.down()
            self.mesh = None

    def components(self):
        return list(self.mesh.components.values())

    def mediator(self):
        return self.mesh.components[self.mediator_id]


# --- serve_tcp -------------------------------------------------------------------

SHOP_WRAPPERS = ("north", "south", "east")
SHOP_COLUMNS = (("sku", "integer"), ("name", "text"), ("grp", "integer"),
                ("price", "decimal"), ("qty", "integer"))
# (query text, source wrappers, groups selected, projected columns)
SHOP_QUERIES = (
    ("SELECT sku, name, price FROM shop.north_items WHERE grp >= 3 AND grp <= 5",
     ("north",), (3, 4, 5), ("sku", "name", "price")),
    ("SELECT sku, name, qty FROM shop.south_items WHERE grp >= 3 AND grp <= 5",
     ("south",), (3, 4, 5), ("sku", "name", "qty")),
    ("SELECT sku, name, price FROM shop.east_items WHERE grp >= 3 AND grp <= 5",
     ("east",), (3, 4, 5), ("sku", "name", "price")),
    ("SELECT sku, name, price, qty FROM shop.stock WHERE grp = 0",
     ("north", "south", "east"), (0,), ("sku", "name", "price", "qty")),
)
# One insert after each read block: (wrapper, group of the inserted row).
# The schedule does not depend on the seed, so neither does the number of
# reads the mediator serves stale: only the row values come from the seed.
SHOP_WRITES = (("north", 4), ("south", 3), ("north", 5), ("east", 0),
               ("north", 3), ("south", 0), ("north", 0), ("east", 5))


class ServeTcp(Workload):
    """Client -> mask -> product mediator -> three memory wrappers, each
    component behind its own TCP endpoint; mostly warm csv reads."""

    name = "serve_tcp"
    mediator_id = "shop_product"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = random.Random(seed)
        rows_per_wrapper, reads_per_query = {"full": (60, 20), "tiny": (24, 2)}[scale]
        skus = iter(rng.sample(range(10000, 99999), 3 * rows_per_wrapper + len(SHOP_WRITES)))

        def item(grp):
            return (next(skus), f"{rng.choice(NAMES)}-{rng.randint(0, 999):03d}", grp,
                    _money(rng), rng.randint(0, 500))

        self.initial = {w: [item(i % 12) for i in range(rows_per_wrapper)] for w in SHOP_WRAPPERS}
        inserts = [(wrapper, item(grp)) for wrapper, grp in SHOP_WRITES]
        self.ops = []
        for block in range(len(SHOP_WRITES) + 1):
            reads = [q for q in range(len(SHOP_QUERIES)) for _ in range(reads_per_query)]
            rng.shuffle(reads)
            self.ops.extend(("read", q) for q in reads)
            if block < len(SHOP_WRITES):
                self.ops.append(("write", inserts[block]))
        # Program values for the inserts, made before any timing.
        self._insert_values = {
            row[0]: (Value.integer(row[0]), Value.text(row[1]), Value.integer(row[2]),
                     Value.decimal(row[3]), Value.integer(row[4]))
            for _, row in inserts
        }
        self.topology = self.document()

    def document(self) -> dict:
        relations = {}
        for wrapper in SHOP_WRAPPERS:
            relations[wrapper] = {
                "name": "items",
                "attributes": [{"name": n, "type": t} for n, t in SHOP_COLUMNS],
                "key": ["sku"],
                "rows": [[_cell(v) for v in row] for row in self.initial[wrapper]],
            }
        columns = ", ".join(n for n, _ in SHOP_COLUMNS)
        views = [f"CREATE VIEW {w}_items AS SELECT {columns} FROM {w}.items;" for w in SHOP_WRAPPERS]
        views.append(
            "CREATE VIEW stock AS "
            + " UNION ".join(f"SELECT {columns} FROM {w}.items" for w in SHOP_WRAPPERS)
            + ";"
        )
        tcp = "tcp 127.0.0.1:0"
        components = [
            {"id": f"w_{w}", "kind": "wrapper", "domain": "shop", "role": "operational_wrapper",
             "endpoint": tcp,
             "config": {"namespace": w, "adapter": {"kind": "memory", "relations": [relations[w]]}}}
            for w in SHOP_WRAPPERS
        ]
        components.append(
            {"id": self.mediator_id, "kind": "mediator", "domain": "shop",
             "role": "product_mediator", "endpoint": tcp,
             "config": {"product": "shop", "downstream": {w: f"w_{w}" for w in SHOP_WRAPPERS},
                        "views": views}})
        components.append(
            {"id": "shop_mask", "kind": "mask", "domain": "shop", "role": "serving_mask",
             "endpoint": tcp, "config": {"upstream": self.mediator_id, "formats": ["csv"]}})
        edges = [[self.mediator_id, f"w_{w}"] for w in SHOP_WRAPPERS]
        edges.append(["shop_mask", self.mediator_id])
        return {"domains": ["shop"], "components": components, "edges": edges,
                "acl": [[PRINCIPAL, "shop", "*", True]]}

    def prepare(self):
        self.model = {w: list(rows) for w, rows in self.initial.items()}
        self.history = {q: [] for q in range(len(SHOP_QUERIES))}

    def setup(self):
        super().setup()
        host, port = self.mesh.endpoints["shop_mask"]
        self.client = ProtocolClient(host, port)

    def perform(self, op):
        kind, payload = op
        if kind == "read":
            return self.client.request({"type": "exec_query", "query": SHOP_QUERIES[payload][0],
                                        "principal": PRINCIPAL, "format": "csv"})
        wrapper, row = payload
        self.mesh.components[f"w_{wrapper}"].adapter.insert("items", self._insert_values[row[0]])
        return None

    def check(self, op, response) -> str:
        kind, payload = op
        if kind == "write":
            wrapper, row = payload
            self.model[wrapper].append(row)
            return "ok"
        _, sources, groups, columns = SHOP_QUERIES[payload]
        if response.get("type") != "rendering" or response.get("format") != "csv":
            raise CheckFailed(f"unexpected response {str(response)[:200]}")
        records = split_csv(response["data"])
        types = dict(SHOP_COLUMNS)
        if not records or records[0] != [f"{c}:{types[c]}" for c in columns]:
            raise CheckFailed(f"bad csv header {records[:1]}")
        body = [tuple(r) for r in records[1:]]
        typed = [tuple(_typed(types[c], cell) for c, cell in zip(columns, r)) for r in body]
        if typed != sorted(typed):
            raise CheckFailed("mask rows are not sorted by all columns")
        index = {name: i for i, (name, _) in enumerate(SHOP_COLUMNS)}
        expected = Counter(
            tuple(_cell(row[index[c]]) for c in columns)
            for source in sources for row in self.model[source] if row[2] in groups
        )
        got = Counter(body)
        history = self.history[payload]
        if got == expected:
            history.append(expected)
            return "ok"
        if any(got == earlier for earlier in history):
            history.append(expected)
            return "stale"
        raise CheckFailed(f"query {payload}: rows match neither the model nor an earlier answer")


# --- federate_cold ------------------------------------------------------------------

ENRICHED_COLUMNS = ("order_id", "amount", "at", "name", "region")
FEDERATE_QUERY = (
    "SELECT order_id, amount, at, name, region FROM commerce.enriched "
    "WHERE order_id = {order} OR name = '{name}'"
)


class FederateCold(Workload):
    """The fig7 z_product shape, every component behind TCP: a product
    mediator joins orders (delimited_dir) with customers (doc_lines). Each
    read has a fresh literal, so each read misses the mediator cache; its
    predicate spans both sides of the join, so it stays above the join."""

    name = "federate_cold"
    mediator_id = "z_product"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = random.Random(seed)
        n_customers, n_orders, reads = {"full": (150, 150, 40), "tiny": (20, 20, 4)}[scale]
        self.customers = {
            cid: (f"{rng.choice(NAMES)}_{cid:03d}", rng.choice(REGIONS))
            for cid in range(1, n_customers + 1)
        }
        self.orders = [
            (oid, rng.randint(1, n_customers), _money(rng), _stamp(rng))
            for oid in range(1, n_orders + 1)
        ]
        data = workdir / "data"
        (data / "sales").mkdir(parents=True)
        (data / "crm").mkdir(parents=True)
        lines = ["order_id:integer,customer_id:integer,amount:decimal,at:timestamp"]
        lines += [",".join(_cell(v) for v in order) for order in self.orders]
        (data / "sales" / "orders.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        docs = [json.dumps({"customer_id": cid, "name": name, "region": region})
                for cid, (name, region) in self.customers.items()]
        (data / "crm" / "customers.jsonl").write_text("\n".join(docs) + "\n", encoding="utf-8")
        orders = rng.sample(range(1, n_orders + 1), reads)
        names = rng.sample(list(self.customers), reads)
        self.ops = [("read", (order, self.customers[cid][0])) for order, cid in zip(orders, names)]
        self.topology = self.document()

    def document(self) -> dict:
        tcp = "tcp 127.0.0.1:0"
        return {
            "domains": ["dip", "z"],
            "components": [
                {"id": "dip_sales", "kind": "wrapper", "domain": "dip", "role": "dip_wrapper",
                 "endpoint": tcp, "config": {"namespace": "sales", "adapter": {
                     "kind": "delimited_dir", "location": "data/sales"}}},
                {"id": "dip_crm", "kind": "wrapper", "domain": "dip", "role": "dip_wrapper",
                 "endpoint": tcp, "config": {"namespace": "crm", "adapter": {
                     "kind": "doc_lines", "location": "data/crm"}}},
                {"id": self.mediator_id, "kind": "mediator", "domain": "z",
                 "role": "product_mediator", "endpoint": tcp,
                 "config": {"product": "commerce", "downstream": {"sales": "dip_sales", "crm": "dip_crm"},
                            "views": "CREATE VIEW enriched AS "
                                     "SELECT order_id, amount, at, name, region "
                                     "FROM sales.orders JOIN crm.customers ON customer_id = customer_id;"}},
            ],
            "edges": [[self.mediator_id, "dip_sales"], [self.mediator_id, "dip_crm"]],
            "acl": [[PRINCIPAL, "z", "commerce", True]],
        }

    def setup(self):
        super().setup()
        host, port = self.mesh.endpoints[self.mediator_id]
        self.client = ProtocolClient(host, port)

    def perform(self, op):
        order, name = op[1]
        return self.client.request({"type": "exec_query", "principal": PRINCIPAL, "format": "table",
                                    "query": FEDERATE_QUERY.format(order=order, name=name)})

    def check(self, op, response) -> str:
        order, name = op[1]
        if response.get("type") != "table":
            raise CheckFailed(f"unexpected response {str(response)[:200]}")
        schema = [(a["name"], a["type"]) for a in response["schema"]]
        if [n for n, _ in schema] != list(ENRICHED_COLUMNS):
            raise CheckFailed(f"bad schema {schema}")
        got = Counter(tuple(_typed(t, cell) for (_, t), cell in zip(schema, row))
                      for row in response["rows"])
        expected = Counter()
        for oid, cid, amount, at in self.orders:
            cname, region = self.customers[cid]
            if oid == order or cname == name:
                expected[(oid, amount, at, cname, region)] += 1
        if got != expected:
            raise CheckFailed(f"join for order {order} / {name!r}: {len(got)} rows, want {len(expected)}")
        return "ok"


# --- scan_files ---------------------------------------------------------------------

FILE_COLUMNS = (("id", "integer"), ("code", "text"), ("qty", "integer"),
                ("price", "decimal"), ("at", "timestamp"))
DOC_FIELDS = ("id", "kind", "value", "at")
DOC_KINDS = ("click", "view", "order", "refund")


class ScanFiles(Workload):
    """An in-process mediator over a delimited_dir wrapper (many .csv files)
    and a doc_lines wrapper; distinct point and narrow-range reads, and now
    and then an atomic rewrite (temp file + rename) adding one row."""

    name = "scan_files"
    mediator_id = "archive"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = random.Random(seed)
        n_files, rows, n_docs, blocks = {"full": (20, 200, 150, 4), "tiny": (4, 30, 10, 3)}[scale]
        self.tables = [f"t{i:02d}" for i in range(n_files)]
        self.docs = ["events", "notes"]
        self.initial = {}
        for table in self.tables:
            self.initial[table] = [
                (i, f"c{rng.randint(0, 99999):05d}", rng.randint(0, 1000), _money(rng), _stamp(rng))
                for i in range(1, rows + 1)
            ]
        for doc in self.docs:
            self.initial[doc] = [
                (i, rng.choice(DOC_KINDS), _money(rng), _stamp(rng)) for i in range(1, n_docs + 1)
            ]
        # Each block: nine csv reads (six point, three range), one doc read,
        # then one rewrite, whose added row the next read asks for.
        used = set()

        def fresh(relation, low, high):
            while True:
                key = (relation, rng.randint(low, high))
                if key not in used:
                    used.add(key)
                    return key[1]

        self.ops = []
        # Each write carries the whole new text of its file, made before timing.
        current = {rel: list(rows_) for rel, rows_ in self.initial.items()}
        pending = None
        for block in range(blocks):
            reads = []
            for i in range(9):
                table = rng.choice(self.tables)
                if i < 6:
                    reads.append(("point", table, fresh(table, 1, rows)))
                else:
                    reads.append(("range", table, fresh(table, 1, rows - 4)))
            doc = rng.choice(self.docs)
            reads.append(("point", doc, fresh(doc, 1, n_docs)))
            rng.shuffle(reads)
            if pending is not None:
                relation, new_id = pending
                reads.insert(0, ("point", relation, new_id))
            self.ops.extend(("read", r) for r in reads)
            relation = self.docs[block % 2] if block % 3 == 2 else rng.choice(self.tables)
            new_id = len(current[relation]) + 1
            if relation in self.docs:
                row = (new_id, rng.choice(DOC_KINDS), _money(rng), _stamp(rng))
            else:
                row = (new_id, f"c{rng.randint(0, 99999):05d}", rng.randint(0, 1000),
                       _money(rng), _stamp(rng))
            current[relation].append(row)
            self.ops.append(("write", (relation, row, self._render(relation, current[relation]))))
            pending = (relation, new_id)
        self.ops.append(("read", ("point",) + pending))
        self.initial_text = {rel: self._render(rel, rows_) for rel, rows_ in self.initial.items()}
        self.topology = self.document()

    def _path(self, relation) -> Path:
        if relation in self.docs:
            return self.workdir / "data" / "docs" / f"{relation}.jsonl"
        return self.workdir / "data" / "files" / f"{relation}.csv"

    def _render(self, relation, rows) -> str:
        if relation in self.docs:
            # Decimals keep their '.', so the reader infers them as decimals.
            return "".join(
                f'{{"id": {i}, "kind": "{kind}", "value": {value:.2f}, "at": "{at}"}}\n'
                for i, kind, value, at in rows
            )
        header = ",".join(f"{n}:{t}" for n, t in FILE_COLUMNS)
        return header + "\n" + "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)

    def document(self) -> dict:
        views = [f"CREATE VIEW {t} AS SELECT * FROM files.{t};" for t in self.tables]
        views += [f"CREATE VIEW {d} AS SELECT * FROM docs.{d};" for d in self.docs]
        return {
            "domains": ["ops"],
            "components": [
                {"id": "files_wrapper", "kind": "wrapper", "domain": "ops", "role": "operational_wrapper",
                 "config": {"namespace": "files", "adapter": {"kind": "delimited_dir", "location": "data/files"}}},
                {"id": "docs_wrapper", "kind": "wrapper", "domain": "ops", "role": "operational_wrapper",
                 "config": {"namespace": "docs", "adapter": {"kind": "doc_lines", "location": "data/docs"}}},
                {"id": self.mediator_id, "kind": "mediator", "domain": "ops", "role": "product_mediator",
                 "config": {"product": "archive", "downstream": {"files": "files_wrapper", "docs": "docs_wrapper"},
                            "views": views}},
            ],
            "edges": [[self.mediator_id, "files_wrapper"], [self.mediator_id, "docs_wrapper"]],
            "acl": [[PRINCIPAL, "ops", "*", True]],
        }

    def prepare(self):
        for sub in ("files", "docs"):
            target = self.workdir / "data" / sub
            if target.exists():
                shutil.rmtree(target)
            target.mkdir(parents=True)
        for relation, text in self.initial_text.items():
            self._path(relation).write_text(text, encoding="utf-8")
        self.model = {rel: {row[0]: row for row in rows} for rel, rows in self.initial.items()}

    def query(self, read) -> str:
        shape, relation, key = read
        if shape == "point":
            return f"SELECT * FROM archive.{relation} WHERE id = {key}"
        return f"SELECT id, qty, price FROM archive.{relation} WHERE id >= {key} AND id < {key + 4}"

    def perform(self, op):
        kind, payload = op
        if kind == "read":
            return self.mesh.execute(self.mediator_id, self.query(payload), PRINCIPAL)
        relation, _, text = payload
        path = self._path(relation)
        temp = path.with_name(f".{path.name}.tmp")
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
        return None

    def check(self, op, table) -> str:
        kind, payload = op
        if kind == "write":
            relation, row, _ = payload
            self.model[relation][row[0]] = row
            return "ok"
        shape, relation, key = payload
        rows = self.model[relation]
        names = [a.name for a in table.schema.attributes]
        if shape == "point":
            want_names = list(DOC_FIELDS if relation in self.docs else (n for n, _ in FILE_COLUMNS))
            expected = Counter([rows[key]] if key in rows else [])
        else:
            want_names = ["id", "qty", "price"]
            expected = Counter((i, rows[i][2], rows[i][3]) for i in range(key, key + 4) if i in rows)
        if names != want_names:
            raise CheckFailed(f"bad schema {names}")
        got = Counter(tuple(_py(v) for v in row) for row in table.rows)
        if got != expected or not expected:
            raise CheckFailed(f"{self.query(payload)}: {len(got)} rows, want {len(expected)}")
        return "ok"


WORKLOADS = {cls.name: cls for cls in (ServeTcp, FederateCold, ScanFiles)}
