"""Executable demo scenarios.

Two reference topologies run end to end with generated data and printed
assertions:

  fig7, a three-domain mesh: domain Z's product mediator reads two shared
  infrastructure (DIP) wrappers, domain X's product mediator consumes domain
  Y's product mediator directly, and governance rejects planted illegal
  edges.

  fig8, a data product with local domain storage: operational data is
  consumed, transformed by a staging mediator, materialized into the domain
  data storage by a mask, set back into motion by a wrapper, and served by a
  mediator/mask pair. The served data must match the staged transformation
  and survive a mid-run source mutation.

Data is deterministic pseudo-random from a printed seed, so failures
reproduce exactly. Each run uses a fresh workspace.
"""

from __future__ import annotations

import json
import random
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, TextIO

from mmw.relational import bag_equal
from mmw.runtime.mesh import Mesh
from mmw.runtime.topology import load_topology, load_topology_file, validate_topology

DEFAULT_SEED = 20240811

REGIONS = ("north", "south", "east", "west")
NAMES = ("ada", "grace", "edsger", "barbara", "alan", "radia", "hedy", "annie")


class AssertionFailed(Exception):
    pass


class _Report:
    def __init__(self, tag: str, out: TextIO):
        self.tag = tag
        self.out = out

    def line(self, text: str) -> None:
        print(f"[{self.tag}] {text}", file=self.out)

    def check(self, label: str, ok: bool) -> None:
        self.line(f"{label}: {'ok' if ok else 'FAIL'}")
        if not ok:
            raise AssertionFailed(label)


def _timestamp(rng: random.Random) -> str:
    base = int(datetime(2024, 1, 1, tzinfo=timezone.utc).timestamp())
    moment = datetime.fromtimestamp(base + rng.randint(0, 300 * 24 * 3600), tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


# --- three-domain mesh (fig7) ------------------------------------------------------


def build_three_domain_workspace(root: Path, seed: int) -> Path:
    rng = random.Random(seed)
    data = root / "data"
    (data / "sales").mkdir(parents=True)
    (data / "crm").mkdir(parents=True)

    customers = list(range(1, 9))
    order_lines = ["order_id:integer,customer_id:integer,amount:decimal,at:timestamp"]
    for order_id in range(1, 21):
        order_lines.append(
            f"{order_id},{rng.choice(customers)},"
            f"{rng.randint(1, 9999) / 100},{_timestamp(rng)}"
        )
    (data / "sales" / "orders.csv").write_text("\n".join(order_lines) + "\n", encoding="utf-8")

    crm_lines = []
    for customer_id in customers:
        crm_lines.append(
            json.dumps(
                {
                    "customer_id": customer_id,
                    "name": rng.choice(NAMES),
                    "region": rng.choice(REGIONS),
                }
            )
        )
    (data / "crm" / "customers.jsonl").write_text("\n".join(crm_lines) + "\n", encoding="utf-8")

    staff_rows = []
    for staff_id in range(1, 7):
        staff_rows.append(
            [
                str(staff_id),
                rng.choice(NAMES),
                f"{rng.randint(100, 999)}-{rng.randint(10, 99)}",
                rng.choice(REGIONS),
            ]
        )

    (root / "views").mkdir()
    (root / "views" / "workforce.sql").write_text(
        "-- de-identified staff roster\n"
        "CREATE VIEW roster AS\n"
        "  SELECT id, name, hash(ssn) AS ssn_h, branch FROM ops.staff;\n",
        encoding="utf-8",
    )

    document = {
        "domains": ["dip", "x", "y", "z"],
        "components": [
            {
                "id": "dip_sales",
                "kind": "wrapper",
                "domain": "dip",
                "role": "dip_wrapper",
                "config": {
                    "namespace": "sales",
                    "adapter": {"kind": "delimited_dir", "location": "data/sales"},
                },
            },
            {
                "id": "dip_crm",
                "kind": "wrapper",
                "domain": "dip",
                "role": "dip_wrapper",
                "config": {
                    "namespace": "crm",
                    "adapter": {"kind": "doc_lines", "location": "data/crm"},
                },
            },
            {
                "id": "y_ops",
                "kind": "wrapper",
                "domain": "y",
                "role": "operational_wrapper",
                "config": {
                    "namespace": "ops",
                    "adapter": {
                        "kind": "memory",
                        "relations": [
                            {
                                "name": "staff",
                                "attributes": [
                                    {"name": "id", "type": "integer"},
                                    {"name": "name", "type": "text"},
                                    {
                                        "name": "ssn",
                                        "type": "text",
                                        "tags": ["identifying"],
                                    },
                                    {"name": "branch", "type": "text"},
                                ],
                                "key": ["id"],
                                "rows": staff_rows,
                            }
                        ],
                    },
                },
            },
            {
                "id": "y_product",
                "kind": "mediator",
                "domain": "y",
                "role": "product_mediator",
                "config": {
                    "product": "workforce",
                    "version": 1,
                    "downstream": {"ops": "y_ops"},
                    "views": {"path": "views/workforce.sql"},
                    "metadata": {
                        "description": "de-identified staff roster",
                        "owner": "domain-y",
                        "quality.completeness": "1.0",
                    },
                    "salt": "y_pepper",
                    "deny_raw_identifying": True,
                },
            },
            {
                "id": "y_mask",
                "kind": "mask",
                "domain": "y",
                "role": "serving_mask",
                "config": {"upstream": "y_product", "formats": ["csv", "jsonl", "pretty"]},
            },
            {
                "id": "x_product",
                "kind": "mediator",
                "domain": "x",
                "role": "product_mediator",
                "config": {
                    "product": "insights",
                    "version": 1,
                    "downstream": {"wf": "y_product"},
                    "views": "CREATE VIEW branch_roster AS SELECT name, branch FROM wf.roster;",
                    "metadata": {"owner": "domain-x", "quality.completeness": "1.0"},
                },
            },
            {
                "id": "x_mask",
                "kind": "mask",
                "domain": "x",
                "role": "serving_mask",
                "config": {"upstream": "x_product", "formats": ["csv", "jsonl", "pretty"]},
            },
            {
                "id": "z_product",
                "kind": "mediator",
                "domain": "z",
                "role": "product_mediator",
                "config": {
                    "product": "commerce",
                    "version": 1,
                    "downstream": {"sales": "dip_sales", "crm": "dip_crm"},
                    "views": (
                        "CREATE VIEW enriched AS "
                        "SELECT order_id, amount, at, name, region "
                        "FROM sales.orders JOIN crm.customers ON customer_id = customer_id;"
                    ),
                    "metadata": {"owner": "domain-z", "quality.freshness": "daily"},
                },
            },
            {
                "id": "z_mask",
                "kind": "mask",
                "domain": "z",
                "role": "serving_mask",
                "config": {"upstream": "z_product", "formats": ["csv", "jsonl", "pretty"]},
            },
        ],
        "edges": [
            ["y_product", "y_ops"],
            ["y_mask", "y_product"],
            ["x_product", "y_product"],
            ["x_mask", "x_product"],
            ["z_product", "dip_sales"],
            ["z_product", "dip_crm"],
            ["z_mask", "z_product"],
        ],
        "policies": {},
        "acl": [
            ["analyst", "*", "*", True],
            ["*", "z", "commerce", True],
        ],
    }
    topology_path = root / "mesh.json"
    _write_json(topology_path, document)
    return topology_path


def run_three_domain_demo(out: TextIO, seed: int = DEFAULT_SEED, workspace=None) -> int:
    report = _Report("fig7", out)
    report.line(f"seed: {seed}")
    root = Path(workspace) if workspace else Path(tempfile.mkdtemp(prefix="mesh-fig7-"))
    root.mkdir(parents=True, exist_ok=True)
    report.line(f"workspace: {root}")
    topology_path = build_three_domain_workspace(root, seed)
    topology = load_topology_file(topology_path)

    findings = validate_topology(topology)
    report.check(
        "governance accepts the three-domain topology",
        not [f for f in findings if f.severity == "violation"],
    )

    try:
        with Mesh(topology, log_dir=root / "logs") as mesh:
            report.line(f"mesh up: {len(mesh.components)} components")

            catalog = mesh.catalog()
            report.line(
                "catalog: "
                + ", ".join(f"{e['domain']}/{e['product']} v{e['version']}" for e in catalog)
            )
            report.check("catalog lists 3 products", len(catalog) == 3)

            lineage = mesh.component("x_product").lineage("branch_roster")
            reached = [
                node.component
                for node in lineage.walk()
                if node.kind == "wrapper" and node.component == "y_ops"
            ]
            report.check(
                "domain x lineage transitively reaches domain y wrapper source", bool(reached)
            )

            masked = mesh.execute(
                "y_product", "SELECT * FROM workforce.roster", principal="analyst"
            )
            position = masked.schema.index_of("ssn_h")
            raw_ssns = {
                row[2].payload
                for row in mesh.components["y_ops"].adapter.load("staff").rows
            }
            served = {row[position].payload for row in masked.rows}
            report.check(
                "served roster exposes hashes only (no raw identifying values)",
                served.isdisjoint(raw_ssns),
            )

            anonymous = mesh.serve(
                "z_mask", "SELECT * FROM commerce.enriched", "csv", principal="guest"
            )
            report.check(
                "wildcard principal rule grants read on domain z",
                anonymous.text.count("\n") == 21,  # header + 20 orders
            )
    except AssertionFailed:
        raise
    except Exception as exc:
        report.line(f"mesh failure: {exc}")
        return 3

    # Planted illegal edges, rejected at validation time.
    document = json.loads(topology_path.read_text())
    document["components"].append(
        {
            "id": "rogue_mask",
            "kind": "mask",
            "domain": "x",
            "role": "serving_mask",
            "config": {"upstream": "y_product"},
        }
    )
    document["edges"].append(["rogue_mask", "y_product"])
    planted = load_topology(document, topology_path.parent)
    findings = validate_topology(planted)
    report.check(
        "planted mask -> foreign mediator edge rejected (deny_external_mediator_access)",
        any(f.rule == "deny_external_mediator_access" for f in findings),
    )

    document = json.loads(topology_path.read_text())
    document["components"].append(
        {
            "id": "rogue_mediator",
            "kind": "mediator",
            "domain": "x",
            "role": "product_mediator",
            "config": {"product": "rogue", "downstream": {"ops": "y_ops"}},
        }
    )
    document["edges"].append(["rogue_mediator", "y_ops"])
    planted = load_topology(document, topology_path.parent)
    findings = validate_topology(planted)
    report.check(
        "planted cross-domain operational-wrapper edge rejected (enforce_product_boundary)",
        any(
            f.rule == "enforce_product_boundary" and "operational" in f.message
            for f in findings
        ),
    )

    report.line("all assertions passed")
    return 0


# --- local-storage data product (fig8) ------------------------------------------------


def build_local_storage_workspace(root: Path, seed: int) -> Path:
    rng = random.Random(seed)
    readings = []
    for reading_id in range(1, 25):
        broken = rng.random() < 0.2
        celsius = "-999" if broken else f"{rng.randint(-300, 450) / 10}"
        readings.append(
            [str(reading_id), _timestamp(rng), celsius, rng.choice(REGIONS)]
        )

    document = {
        "domains": ["d"],
        "components": [
            {
                "id": "d_ops",
                "kind": "wrapper",
                "domain": "d",
                "role": "operational_wrapper",
                "config": {
                    "namespace": "ops",
                    "adapter": {
                        "kind": "memory",
                        "relations": [
                            {
                                "name": "readings",
                                "attributes": [
                                    {"name": "reading_id", "type": "integer"},
                                    {"name": "at", "type": "timestamp"},
                                    {"name": "celsius", "type": "decimal"},
                                    {"name": "site", "type": "text"},
                                ],
                                "key": ["reading_id"],
                                "rows": readings,
                            }
                        ],
                    },
                },
            },
            {
                "id": "d_staging",
                "kind": "mediator",
                "domain": "d",
                "role": "staging_mediator",
                "config": {
                    "product": "staging",
                    "downstream": {"ops": "d_ops"},
                    "views": (
                        "CREATE VIEW curated AS "
                        "SELECT reading_id, at, celsius, site FROM ops.readings "
                        "WHERE celsius >= -90.0;"
                    ),
                },
            },
            {
                "id": "d_store_mask",
                "kind": "mask",
                "domain": "d",
                "role": "materializing_mask",
                "config": {
                    "upstream": "d_staging",
                    "mode": "materializing",
                    "target": "store",
                    "refresh": "manual",
                },
            },
            {
                "id": "d_storage",
                "kind": "wrapper",
                "domain": "d",
                "role": "operational_wrapper",
                "config": {
                    "namespace": "store",
                    "adapter": {"kind": "delimited_dir", "location": "store/current"},
                },
            },
            {
                "id": "d_product",
                "kind": "mediator",
                "domain": "d",
                "role": "product_mediator",
                "config": {
                    "product": "climate",
                    "downstream": {"store": "d_storage"},
                    "views": "CREATE VIEW readings AS SELECT * FROM store.curated;",
                    "metadata": {"owner": "domain-d", "quality.completeness": "0.8"},
                },
            },
            {
                "id": "d_mask",
                "kind": "mask",
                "domain": "d",
                "role": "serving_mask",
                "config": {"upstream": "d_product", "formats": ["csv", "jsonl", "pretty"]},
            },
        ],
        "edges": [
            ["d_staging", "d_ops"],
            ["d_store_mask", "d_staging"],
            ["d_product", "d_storage"],
            ["d_mask", "d_product"],
        ],
        "policies": {},
        "acl": [["*", "d", "*", True]],
    }
    topology_path = root / "pipeline.json"
    _write_json(topology_path, document)
    return topology_path


def run_local_storage_demo(out: TextIO, seed: int = DEFAULT_SEED, workspace=None) -> int:
    from mmw.relational import Value

    report = _Report("fig8", out)
    report.line(f"seed: {seed}")
    root = Path(workspace) if workspace else Path(tempfile.mkdtemp(prefix="mesh-fig8-"))
    root.mkdir(parents=True, exist_ok=True)
    report.line(f"workspace: {root}")
    topology_path = build_local_storage_workspace(root, seed)
    topology = load_topology_file(topology_path)

    findings = validate_topology(topology)
    report.check(
        "governance accepts the pipeline topology",
        not [f for f in findings if f.severity == "violation"],
    )

    try:
        with Mesh(topology, log_dir=root / "logs") as mesh:
            expected_order = [
                "d_ops", "d_staging", "d_store_mask", "d_storage", "d_product", "d_mask",
            ]
            report.check(
                "startup order: consume, transform, materialize, wrap, serve",
                mesh._order == expected_order,
            )

            staged = mesh.execute("d_staging", "SELECT * FROM staging.curated", "d_store_mask")
            served = mesh.execute("d_product", "SELECT * FROM climate.readings", "guest")
            report.check("served == materialized", bag_equal(served, staged))

            first_bytes = mesh.serve(
                "d_mask", "SELECT * FROM climate.readings", "csv", "guest"
            ).data

            ops = mesh.components["d_ops"]
            ops.adapter.insert(
                "readings",
                (
                    Value.integer(999),
                    Value.timestamp("2024-12-01T08:00:00Z"),
                    Value.decimal("21.5"),
                    Value.text("north"),
                ),
            )
            unchanged = mesh.serve(
                "d_mask", "SELECT * FROM climate.readings", "csv", "guest"
            ).data
            report.check(
                "serving side unaffected until re-materialization (epoch-correct cache)",
                unchanged == first_bytes,
            )

            refresh = mesh.component("d_store_mask").materialize()
            report.line(
                f"re-materialized: epoch {refresh['target_epoch']}, "
                f"{refresh['rows_total']} rows"
            )
            refreshed = mesh.execute("d_product", "SELECT * FROM climate.readings", "guest")
            new_staged = mesh.execute(
                "d_staging", "SELECT * FROM staging.curated", "d_store_mask"
            )
            report.check(
                "mutation visible after re-materialization, served == staged",
                bag_equal(refreshed, new_staged) and len(refreshed.rows) == len(staged.rows) + 1,
            )

            lineage = mesh.component("d_product").lineage("readings")
            through_storage = any(
                node.component == "d_storage" and node.kind == "wrapper"
                for node in lineage.walk()
            )
            report.check("lineage passes through the domain data storage", through_storage)
    except AssertionFailed:
        raise
    except Exception as exc:
        report.line(f"mesh failure: {exc}")
        return 3

    report.line("all assertions passed")
    return 0


SCENARIOS: dict[str, Callable] = {
    "fig7": run_three_domain_demo,
    "fig8": run_local_storage_demo,
}


def run_scenario(name: str, out: TextIO, seed: int = DEFAULT_SEED, workspace=None) -> int:
    runner = SCENARIOS.get(name)
    if runner is None:
        print(f"unknown scenario {name!r} (available: {', '.join(sorted(SCENARIOS))})", file=out)
        return 2
    try:
        return runner(out, seed, workspace)
    except AssertionFailed as failed:
        print(f"[{name}] FAILED assertion: {failed}", file=out)
        return 3
