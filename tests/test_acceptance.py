"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are exact: bag equality for data comparisons, byte equality for
rendered output. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

from __future__ import annotations

import io
import json
import os
import random
import socket
from itertools import product

import pytest

from mmw.adapters import DelimitedDirAdapter, MemoryAdapter
from mmw.errors import ConfigError
from mmw.formats import parse_csv, parse_jsonl, render_csv, render_jsonl
from mmw.mask import Mask
from mmw.mediator import Mediator
from mmw.query.ast import QualifiedName
from mmw.query.evaluate import evaluate
from mmw.query.parse import parse_query
from mmw.query.render import render_query
from mmw.relational import (
    Attribute,
    Kind,
    RelationSchema,
    Table,
    Value,
    bag_equal,
)
from mmw.runtime.mesh import Mesh
from mmw.runtime.protocol import ProtocolServer
from mmw.runtime.topology import load_topology
from mmw.views import ViewDeclaration, check_views
from mmw.wrapper import Wrapper, WrapperConfig
from support import (
    make_environment,
    plan_and_evaluate,
    random_block,
    random_database,
    random_query,
)


def report(line: str) -> None:
    print(line)


def wrappers_for(env, db):
    by_namespace: dict[str, Wrapper] = {}
    for namespace in {qn.namespace for qn in env}:
        schemas = [schema for qn, schema in env.items() if qn.namespace == namespace]
        rows = {qn.relation: list(db[qn].rows) for qn in env if qn.namespace == namespace}
        adapter = MemoryAdapter(schemas, rows)
        by_namespace[namespace] = Wrapper(WrapperConfig(f"wrap_{namespace}", namespace, adapter))
    return by_namespace


def materialize_views_oracle(views, db, salt=""):
    """Independent oracle: evaluate each view body against the database,
    resolving sibling references through already-materialized views only.
    Views transform at the mediator, so they hash under the mediator salt."""
    extended = dict(db)
    remaining = list(views)
    while remaining:
        progressed = False
        for view in list(remaining):
            needed = {
                name
                for name in _scan_names(view.body)
                if name.namespace == view.namespace
            }
            if all(name in extended for name in needed):
                extended[view.qualified] = evaluate(view.body, extended, salt)
                remaining.remove(view)
                progressed = True
        assert progressed, "cyclic views in generator"
    return extended


def _scan_names(q):
    from mmw.query.ast import scan_names

    return scan_names(q)


def _generate_case(rng, max_namespaces=3, max_rows=6):
    count = rng.randint(1, max_namespaces)
    names = ("w1", "w2", "w3")[:count]
    env = make_environment(rng, namespaces=names)
    db = random_database(rng, env, max_rows=max_rows)
    views = [
        ViewDeclaration("prod", f"v{i}", random_block(rng, env, max_joins=1))
        for i in range(rng.randint(1, 3))
    ]
    view_env = check_views(views, env)
    q = random_query(rng, view_env)
    return names, env, db, views, q


def test_acceptance_1_rewrite_soundness():
    rng = random.Random(42001)
    cases = 0
    while cases < 300:
        names, env, db, views, q = _generate_case(rng)
        mediator = Mediator("med", "prod", wrappers_for(env, db), views, salt="s")
        got = mediator.execute(q)
        oracle_db = materialize_views_oracle(views, db, salt="s")
        oracle = evaluate(q, oracle_db, salt="s")
        assert bag_equal(got, oracle), f"case {cases}: {render_query(q)}"
        cases += 1
    report(f"ACCEPTANCE 1 rewrite soundness: PASS ({cases} cases, exact bag equality)")


def test_acceptance_2_pushdown_plan_equivalence():
    rng = random.Random(42002)
    cases = 0
    while cases < 300:
        names, env, db, views, q = _generate_case(rng)
        bound = set(names)
        pushed = plan_and_evaluate(q, views, bound, env, db, salt="s")
        unpushed = plan_and_evaluate(
            q, views, bound, env, db, salt="s", push_predicates=False
        )
        assert bag_equal(pushed, unpushed), f"case {cases}"
        cases += 1

    # Exhaustive: all databases of 2 relations x <=4 rows over a fixed
    # 2-attribute schema with a {0,1} domain.
    schema_r = RelationSchema("r", [Attribute("k", Kind.INTEGER), Attribute("v", Kind.INTEGER)])
    schema_s = RelationSchema("s", [Attribute("j", Kind.INTEGER), Attribute("w", Kind.INTEGER)])
    qn_r, qn_s = QualifiedName("w1", "r"), QualifiedName("w2", "s")
    env = {qn_r: schema_r, qn_s: schema_s}
    bound = {"w1", "w2"}
    domain = [(Value.integer(a), Value.integer(b)) for a in (0, 1) for b in (0, 1)]

    def row_bags(max_rows):
        found, frontier = [()], [()]
        for _ in range(max_rows):
            nxt = []
            for rows in frontier:
                start = domain.index(rows[-1]) if rows else 0
                for position in range(start, len(domain)):
                    nxt.append(rows + (domain[position],))
            found.extend(nxt)
            frontier = nxt
        return found

    queries = [
        parse_query("SELECT * FROM w1.r JOIN w2.s ON k = j"),
        parse_query("SELECT v, w FROM w1.r JOIN w2.s ON k = j WHERE v = 1"),
        parse_query("SELECT k AS x FROM w1.r UNION SELECT j AS x FROM w2.s"),
    ]
    bags = row_bags(4)
    checked = 0
    for rows_r, rows_s in product(bags, bags):
        db = {qn_r: Table(schema_r, rows_r), qn_s: Table(schema_s, rows_s)}
        for q in queries:
            oracle = evaluate(q, db)
            assert bag_equal(plan_and_evaluate(q, [], bound, env, db), oracle)
            assert bag_equal(
                plan_and_evaluate(q, [], bound, env, db, push_predicates=False), oracle
            )
        checked += 1
    report(
        f"ACCEPTANCE 2 pushdown/plan equivalence: PASS (300 random cases + "
        f"{checked} exhaustive databases x {len(queries)} queries)"
    )


PEOPLE = RelationSchema(
    "people",
    [
        Attribute("id", Kind.INTEGER),
        Attribute("name", Kind.TEXT),
        Attribute("score", Kind.INTEGER),
    ],
    key=("id",),
)


def _cache_stack(tag: str, capacity: int):
    adapter = MemoryAdapter([PEOPLE], {"people": []})
    wrapper = Wrapper(WrapperConfig(f"w_{tag}", "ops", adapter))
    mediator = Mediator(
        f"m_{tag}",
        "prod",
        {"ops": wrapper},
        ["CREATE VIEW people AS SELECT * FROM ops.people;"],
        cache_capacity=capacity,
        salt="s",
    )
    mask = Mask(f"k_{tag}", mediator)
    return adapter, mediator, mask


def test_acceptance_3_cache_transparency():
    rng = random.Random(42003)
    adapter_on, mediator_on, mask_on = _cache_stack("on", capacity=16)
    adapter_off, mediator_off, mask_off = _cache_stack("off", capacity=0)
    queries = [
        "SELECT * FROM prod.people",
        "SELECT name FROM prod.people WHERE score >= 50",
        "SELECT id, hash(name) AS nh FROM prod.people",
    ]
    serial = 1
    events = queries_run = mutations = 0
    while events < 200:
        if rng.random() < 0.35:
            row = (
                Value.integer(serial),
                Value.text(f"name{serial}"),
                Value.integer(rng.randint(0, 100)),
            )
            serial += 1
            adapter_on.insert("people", row)
            adapter_off.insert("people", row)
            mutations += 1
        else:
            q = parse_query(rng.choice(queries))
            with_cache = mask_on.serve(q, "csv").data
            without_cache = mask_off.serve(q, "csv").data
            assert with_cache == without_cache
            queries_run += 1
        events += 1
    assert mediator_on.stats()["cache_hits"] > 0  # the cache actually engaged
    report(
        f"ACCEPTANCE 3 cache transparency: PASS ({events} events: {queries_run} queries, "
        f"{mutations} mutations, byte-identical rendering, "
        f"{mediator_on.stats()['cache_hits']} hits)"
    )


def test_acceptance_4_three_domain_scenario(tmp_path):
    from mmw.demo import run_scenario

    buffer = io.StringIO()
    code = run_scenario("fig7", buffer, workspace=tmp_path / "fig7")
    output = buffer.getvalue()
    assert code == 0, output
    for needle in (
        "catalog lists 3 products: ok",
        "domain x lineage transitively reaches domain y wrapper source: ok",
        "planted mask -> foreign mediator edge rejected (deny_external_mediator_access): ok",
        "planted cross-domain operational-wrapper edge rejected (enforce_product_boundary): ok",
    ):
        assert needle in output, output
    report("ACCEPTANCE 4 three-domain mesh scenario (fig7): PASS (4/4 assertions)")


def test_acceptance_5_local_storage_scenario(tmp_path, monkeypatch):
    from mmw.demo import run_scenario

    buffer = io.StringIO()
    code = run_scenario("fig8", buffer, workspace=tmp_path / "fig8")
    output = buffer.getvalue()
    assert code == 0, output
    assert "served == materialized: ok" in output

    # Fault injection: a crash between staging and rename never exposes a
    # partial snapshot to the storage wrapper.
    adapter, mediator, _ = _cache_stack("fault", capacity=0)
    adapter.insert("people", (Value.integer(1), Value.text("ada"), Value.integer(9)))
    mask = Mask("k_store", mediator, mode="materializing", target=tmp_path / "store")
    mask.materialize()
    storage = Wrapper(
        WrapperConfig("w_store", "store", DelimitedDirAdapter(tmp_path / "store" / "current"))
    )
    before = storage.execute(parse_query("SELECT * FROM store.people"))
    adapter.insert("people", (Value.integer(2), Value.text("grace"), Value.integer(8)))

    def crash(*args, **kwargs):
        raise OSError("killed between staging and rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        mask.materialize()
    monkeypatch.undo()
    after = storage.execute(parse_query("SELECT * FROM store.people"))
    assert bag_equal(before, after)
    mask.materialize()
    recovered = storage.execute(parse_query("SELECT * FROM store.people"))
    assert len(recovered.rows) == 2
    report(
        "ACCEPTANCE 5 local-storage product scenario (fig8): PASS "
        "(pipeline + interrupted materialization)"
    )


def test_acceptance_6_deidentification():
    rng = random.Random(42006)
    schema = RelationSchema(
        "subjects",
        [
            Attribute("id", Kind.INTEGER),
            Attribute("ssn", Kind.TEXT, tags=("identifying",)),
            Attribute("email", Kind.TEXT, tags=("identifying",)),
            Attribute("city", Kind.TEXT),
        ],
        key=("id",),
    )
    rows = []
    for i in range(200):
        rows.append(
            (
                Value.integer(i),
                Value.text(f"{rng.randint(100, 999)}-{rng.randint(10, 99)}-{i:04d}"),
                Value.text(f"user{i}@example.com"),
                Value.text(rng.choice(["north", "south"])),
            )
        )
    adapter = MemoryAdapter([schema], {"subjects": rows})
    wrapper = Wrapper(WrapperConfig("w_subj", "ops", adapter))
    mediator = Mediator(
        "m_subj",
        "prod",
        {"ops": wrapper},
        [
            "CREATE VIEW safe AS "
            "SELECT id, hash(ssn) AS ssn_h, redact() AS email_red, city FROM ops.subjects;"
        ],
        salt="pepper",
        deny_raw_identifying=True,
    )
    raw_identifying = {row[1].payload for row in rows} | {row[2].payload for row in rows}
    served = mediator.execute(parse_query("SELECT * FROM prod.safe"))
    served_values = {
        value.payload for row in served.rows for value in row if value.kind is Kind.TEXT
    }
    assert served_values.isdisjoint(raw_identifying)

    with pytest.raises(ConfigError):
        Mediator(
            "m_leak",
            "prod",
            {"ops": wrapper},
            ["CREATE VIEW leak AS SELECT ssn FROM ops.subjects;"],
            deny_raw_identifying=True,
        )
    report(
        "ACCEPTANCE 6 de-identification: PASS (served/raw value sets disjoint on "
        f"{len(rows)} rows; leaking view rejected at configuration)"
    )


# --- criterion 7: capability checklist ------------------------------------------------
#
# Thirteen platform capabilities are demonstrated by named tests below; the
# remaining two are delegated to infrastructure by design and appear as
# documented skips.

CAPABILITY_MANIFEST = {
    "scalable polyglot big data storage": "test_capability_polyglot_storage",
    "encryption for data at rest and in motion": "test_capability_encryption_delegated",
    "data product versioning": "test_capability_versioning",
    "data product schema": "test_capability_schema",
    "data product de-identification": "test_acceptance_6_deidentification",
    "unified data access control and logging": "test_capability_access_control_and_logging",
    "data pipeline implementation and orchestration": "test_acceptance_5_local_storage_scenario",
    "data product discovery, catalog registration and publishing": "test_capability_catalog",
    "data governance and standardization": "test_capability_governance",
    "data product lineage": "test_capability_lineage",
    "data product monitoring/alerting/log": "test_capability_monitoring",
    "data product quality metrics (collection and sharing)": "test_capability_quality_metrics",
    "in-memory data caching": "test_capability_caching",
    "federated identity management": "test_capability_federated_identity_delegated",
    "compute and data locality": "test_capability_locality",
}

DELEGATED = {
    "encryption for data at rest and in motion",
    "federated identity management",
}


def _mini_mesh_doc(tmp_path):
    (tmp_path / "files").mkdir(exist_ok=True)
    (tmp_path / "files" / "facts.csv").write_text(
        "fact_id:integer,label:text\n1,alpha\n2,beta\n", encoding="utf-8"
    )
    (tmp_path / "docs").mkdir(exist_ok=True)
    (tmp_path / "docs" / "events.jsonl").write_text(
        '{"event_id":1,"fact_id":1}\n{"event_id":2,"fact_id":2}\n', encoding="utf-8"
    )
    return {
        "domains": ["a"],
        "components": [
            {
                "id": "w_files",
                "kind": "wrapper",
                "domain": "a",
                "role": "operational_wrapper",
                "config": {
                    "namespace": "files",
                    "adapter": {"kind": "delimited_dir", "location": "files"},
                },
            },
            {
                "id": "w_docs",
                "kind": "wrapper",
                "domain": "a",
                "role": "operational_wrapper",
                "config": {
                    "namespace": "docs",
                    "adapter": {"kind": "doc_lines", "location": "docs"},
                },
            },
            {
                "id": "med",
                "kind": "mediator",
                "domain": "a",
                "role": "product_mediator",
                "config": {
                    "product": "facts",
                    "version": 1,
                    "downstream": {"f": "w_files", "d": "w_docs"},
                    "views": (
                        "CREATE VIEW joined AS SELECT event_id, label "
                        "FROM d.events JOIN f.facts ON fact_id = fact_id;"
                    ),
                    "metadata": {"quality.completeness": "1.0"},
                },
            },
            {
                "id": "serving",
                "kind": "mask",
                "domain": "a",
                "role": "serving_mask",
                "config": {"upstream": "med"},
            },
        ],
        "edges": [["med", "w_files"], ["med", "w_docs"], ["serving", "med"]],
        "policies": {},
        "acl": [["analyst", "a", "*", True]],
    }


def test_capability_polyglot_storage(tmp_path):
    # Heterogeneous sources (tabular files + json documents + memory) behind
    # one interface, served in polyglot renderings.
    document = _mini_mesh_doc(tmp_path)
    with Mesh(load_topology(document, tmp_path)) as mesh:
        q = "SELECT * FROM facts.joined"
        csv_bytes = mesh.serve("serving", q, "csv", "analyst").data
        jsonl_bytes = mesh.serve("serving", q, "jsonl", "analyst").data
        assert bag_equal(
            parse_csv(csv_bytes.decode(), "joined"), parse_jsonl(jsonl_bytes.decode(), "joined")
        )


@pytest.mark.skip(
    reason="absent by design: encryption at rest and in motion is an infrastructure "
    "concern; the TCP endpoint and file targets are the interface points"
)
def test_capability_encryption_delegated():
    pass


def test_capability_versioning():
    adapter = MemoryAdapter([PEOPLE], {"people": []})
    wrapper = Wrapper(WrapperConfig("w_v", "ops", adapter))
    v1 = Mediator("m_v1", "prod", {"ops": wrapper}, [], version=1)
    v2 = Mediator("m_v2", "prod", {"ops": wrapper}, [], version=2)
    assert v1.get_schema().version == 1
    assert v2.get_schema().version == 2
    assert v1.get_schema().product == v2.get_schema().product


def test_capability_schema():
    adapter = MemoryAdapter([PEOPLE], {"people": []})
    wrapper = Wrapper(WrapperConfig("w_s", "ops", adapter))
    mediator = Mediator("m_s", "prod", {"ops": wrapper}, [])
    mask = Mask("k_s", mediator)
    for component in (wrapper, mediator, mask):
        assert component.get_schema() is not None


def test_capability_access_control_and_logging(tmp_path):
    document = _mini_mesh_doc(tmp_path)
    mesh = Mesh(load_topology(document, tmp_path), log_dir=tmp_path / "logs")
    with mesh:
        mesh.execute("med", "SELECT * FROM facts.joined", "analyst")
        try:
            mesh.execute("med", "SELECT * FROM facts.joined", "stranger")
        except Exception:
            pass
    entries = [
        json.loads(line)
        for line in (tmp_path / "logs" / "med.jsonl").read_text().splitlines()
    ]
    assert [entry["outcome"] for entry in entries] == ["ok", "denied"]


def test_capability_catalog(tmp_path):
    document = _mini_mesh_doc(tmp_path)
    with Mesh(load_topology(document, tmp_path)) as mesh:
        catalog = mesh.catalog()
        assert [entry["product"] for entry in catalog] == ["facts"]
        assert catalog[0]["relations"] == ["joined"]


def test_capability_governance(tmp_path):
    from mmw.runtime.topology import validate_topology

    document = _mini_mesh_doc(tmp_path)
    document["domains"].append("b")
    document["components"].append(
        {
            "id": "foreign_mask",
            "kind": "mask",
            "domain": "b",
            "role": "serving_mask",
            "config": {"upstream": "med"},
        }
    )
    document["edges"].append(["foreign_mask", "med"])
    findings = validate_topology(load_topology(document, tmp_path))
    assert any(f.rule == "deny_external_mediator_access" for f in findings)


def test_capability_lineage(tmp_path):
    document = _mini_mesh_doc(tmp_path)
    with Mesh(load_topology(document, tmp_path)) as mesh:
        node = mesh.component("med").lineage("joined")
        wrapped = {child.component for child in node.children}
        assert wrapped == {"w_files", "w_docs"}


def test_capability_monitoring(tmp_path):
    document = _mini_mesh_doc(tmp_path)
    with Mesh(load_topology(document, tmp_path)) as mesh:
        before = mesh.component("med").stats()
        assert set(before) == {
            "queries_served", "rows_returned", "cache_hits", "cache_misses", "errors",
        }
        assert all(value == 0 for value in before.values())
        for _ in range(3):
            mesh.execute("med", "SELECT * FROM facts.joined", "analyst")
        after = mesh.component("med").stats()
        assert after["queries_served"] == 3
        assert all(after[name] >= before[name] for name in before)


def test_capability_quality_metrics(tmp_path):
    document = _mini_mesh_doc(tmp_path)
    with Mesh(load_topology(document, tmp_path)) as mesh:
        schema = mesh.components["med"].get_schema()
        assert schema.metadata_map["quality.completeness"] == "1.0"
        assert mesh.catalog()[0]["metadata"]["quality.completeness"] == "1.0"


def test_capability_caching(tmp_path):
    document = _mini_mesh_doc(tmp_path)
    with Mesh(load_topology(document, tmp_path)) as mesh:
        mesh.execute("med", "SELECT * FROM facts.joined", "analyst")
        mesh.execute("med", "SELECT * FROM facts.joined", "analyst")
        assert mesh.component("med").stats()["cache_hits"] == 1


@pytest.mark.skip(
    reason="absent by design: federated identity management is an infrastructure "
    "concern; principals arrive as opaque identifiers on the wire protocol"
)
def test_capability_federated_identity_delegated():
    pass


def test_capability_locality():
    # Single-side predicates run inside the owning component's fetch, and
    # transformed data can be pinned to local storage (fig8 covers the
    # storage half; here the pushdown half).
    from mmw.planner import plan

    env = {
        QualifiedName("w1", "r"): RelationSchema(
            "r", [Attribute("k", Kind.INTEGER), Attribute("a", Kind.TEXT)]
        ),
        QualifiedName("w2", "s"): RelationSchema(
            "s", [Attribute("j", Kind.INTEGER), Attribute("b", Kind.TEXT)]
        ),
    }
    bound = {"w1", "w2"}
    q = parse_query("SELECT * FROM w1.r JOIN w2.s ON k = j WHERE a = 'x'")
    exec_plan = plan(q, [], bound, env)
    by_namespace = {step.namespace: render_query(step.query) for step in exec_plan.fetches}
    assert "WHERE" in by_namespace["w1"]
    assert "WHERE" not in render_query(exec_plan.residual)


def test_acceptance_7_capability_checklist(tmp_path):
    assert len(CAPABILITY_MANIFEST) == 15
    module = globals()
    demonstrated = 0
    for capability, test_name in sorted(CAPABILITY_MANIFEST.items()):
        test_fn = module.get(test_name)
        assert test_fn is not None, f"manifest references missing test {test_name}"
        if capability in DELEGATED:
            marks = getattr(test_fn, "pytestmark", [])
            assert any(mark.name == "skip" for mark in marks), capability
            report(f"  capability: {capability} -> {test_name} [absent by design]")
        else:
            demonstrated += 1
            report(f"  capability: {capability} -> {test_name}")
    assert demonstrated == 13
    report("ACCEPTANCE 7 capability checklist: PASS (13 demonstrated, 2 delegated)")


def test_acceptance_8_quantum_independence():
    # Each component type starts alone and answers schema requests.
    lone_wrapper = Wrapper(WrapperConfig("w_alone", "lone", MemoryAdapter([], {})))
    assert lone_wrapper.get_schema().relations == ()

    lone_mediator = Mediator("m_alone", "empty_product", {}, [])
    schema = lone_mediator.get_schema()
    assert schema.relations == () and schema.product == "empty_product"
    assert lone_mediator.execute.__name__  # query surface exists

    lone_mask = Mask("k_alone")
    assert lone_mask.get_schema().relations == ()
    report("ACCEPTANCE 8 quantum independence: PASS (wrapper, mediator, mask start alone)")


def test_acceptance_9_wire_protocol_conformance():
    nums = RelationSchema("nums", [Attribute("a", Kind.INTEGER, nullable=True)])
    adapter = MemoryAdapter([nums], {"nums": [(Value.integer(1),), (Value.null(),)]})
    component = Wrapper(WrapperConfig("w_wire", "ns", adapter))
    component.set_access_checker(lambda principal: (principal != "intruder", None))
    server = ProtocolServer(component, "127.0.0.1", 0)
    seen_codes = set()
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            reader = sock.makefile("rb")

            def roundtrip(payload):
                raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                sock.sendall(raw + b"\n")
                return reader.readline().decode().rstrip("\n")

            assert json.loads(roundtrip({"type": "get_schema"}))["type"] == "schema"
            line = roundtrip(
                {"type": "exec_query", "query": "SELECT * FROM ns.nums", "format": "table"}
            )
            assert line == (
                '{"type":"table",'
                '"schema":[{"name":"a","type":"integer","nullable":true}],'
                '"rows":[["1"],[null]]}'
            )
            assert json.loads(roundtrip({"type": "stats"}))["type"] == "stats"
            assert json.loads(roundtrip({"type": "lineage", "relation": "nums"}))["type"] == "lineage"

            for payload, code in [
                ({"type": "exec_query", "query": "SELECT", "format": "table"}, "syntax"),
                ({"type": "exec_query", "query": "SELECT x FROM ns.nums", "format": "table"}, "type"),
                ({"type": "exec_query", "query": "SELECT * FROM ns.ghost", "format": "table"}, "unknown_relation"),
                (
                    {"type": "exec_query", "query": "SELECT * FROM ns.nums",
                     "principal": "intruder", "format": "table"},
                    "access_denied",
                ),
                ({"type": "nope"}, "protocol"),
            ]:
                obj = json.loads(roundtrip(payload))
                assert obj["type"] == "error" and obj["code"] == code, obj
                seen_codes.add(code)

            component.stop()
            obj = json.loads(
                roundtrip({"type": "exec_query", "query": "SELECT * FROM ns.nums", "format": "table"})
            )
            assert obj["code"] == "unavailable"
            seen_codes.add("unavailable")
    finally:
        server.close()
    assert seen_codes == {
        "syntax", "type", "unknown_relation", "access_denied", "unavailable", "protocol",
    }
    report(
        "ACCEPTANCE 9 wire protocol conformance: PASS (documented message set, "
        "all 6 error codes, byte-checked table rendering)"
    )


def test_acceptance_10_round_trips():
    rng = random.Random(42010)
    env = make_environment(rng, namespaces=("w1", "w2"), relations_per_namespace=2)
    for case in range(500):
        tree = random_query(rng, env)
        text = render_query(tree)
        assert parse_query(text) == tree, f"case {case}: {text}"

    table_cases = 0
    for _ in range(100):
        from support import random_row, random_schema

        schema = random_schema(rng, "r", ["a", "b", "c"])
        table = Table(schema, [random_row(rng, schema) for _ in range(rng.randint(0, 6))])
        via_csv = parse_csv(render_csv(table), "r")
        assert via_csv.schema == schema
        assert bag_equal(via_csv, table)
        via_jsonl = parse_jsonl(render_jsonl(table), "r")
        assert bag_equal(via_jsonl, table)
        table_cases += 1
    report(
        f"ACCEPTANCE 10 round-trips: PASS (500 query parse/render cases, "
        f"{table_cases} csv/jsonl table cases)"
    )
