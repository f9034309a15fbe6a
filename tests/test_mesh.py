"""Mesh runtime integration: startup, catalog, stats, logs, fault injection."""

from __future__ import annotations

import json

import pytest

from mmw.errors import ConfigError, UnavailableError
from mmw.relational import Value, bag_equal
from mmw.runtime.mesh import Mesh
from mmw.runtime.topology import load_topology


def people_relation_obj(rows):
    return {
        "name": "people",
        "attributes": [
            {"name": "id", "type": "integer", "nullable": False},
            {"name": "name", "type": "text", "nullable": False},
            {"name": "ssn", "type": "text", "nullable": False, "tags": ["identifying"]},
        ],
        "key": ["id"],
        "rows": rows,
    }


def two_domain_doc(tcp_wrapper=False):
    rows = [["1", "ada", "111-11"], ["2", "grace", "222-22"]]
    return {
        "domains": ["x", "y"],
        "components": [
            {
                "id": "y_ops",
                "kind": "wrapper",
                "domain": "y",
                "role": "operational_wrapper",
                "endpoint": "tcp 127.0.0.1:0" if tcp_wrapper else "in_process",
                "config": {
                    "namespace": "ops",
                    "adapter": {"kind": "memory", "relations": [people_relation_obj(rows)]},
                },
            },
            {
                "id": "y_med",
                "kind": "mediator",
                "domain": "y",
                "role": "product_mediator",
                "config": {
                    "product": "registry",
                    "version": 1,
                    "downstream": {"ops": "y_ops"},
                    "views": "CREATE VIEW safe AS SELECT name, hash(ssn) AS ssn_h FROM ops.people;",
                    "metadata": {"quality.completeness": "0.98"},
                    "salt": "pepper",
                },
            },
            {
                "id": "x_med",
                "kind": "mediator",
                "domain": "x",
                "role": "product_mediator",
                "config": {
                    "product": "mirror",
                    "version": 2,
                    "downstream": {"reg": "y_med"},
                    "views": "CREATE VIEW names AS SELECT name FROM reg.safe;",
                },
            },
            {
                "id": "y_mask",
                "kind": "mask",
                "domain": "y",
                "role": "serving_mask",
                "config": {"upstream": "y_med", "formats": ["csv", "jsonl", "pretty"]},
            },
        ],
        "edges": [["y_med", "y_ops"], ["x_med", "y_med"], ["y_mask", "y_med"]],
        "policies": {},
        "acl": [["analyst", "y", "*", True], ["analyst", "x", "*", True]],
    }


class TestMeshLifecycle:
    def test_empty_topology_up_down(self):
        mesh = Mesh(load_topology({"domains": [], "components": [], "edges": []}))
        mesh.up()
        assert mesh.running
        mesh.down()
        assert not mesh.running

    def test_up_blocks_on_violations(self):
        document = two_domain_doc()
        document["edges"].append(["y_mask", "y_ops"])  # no matching binding
        mesh = Mesh(load_topology(document))
        with pytest.raises(ConfigError):
            mesh.up()
        assert not mesh.running and not mesh.components

    @pytest.mark.parametrize(
        "relation_obj, detail",
        [
            pytest.param(
                people_relation_obj([["x", "ada", "111-11"]]), "bad cell for integer", id="bad-cell"
            ),
            pytest.param({"name": "people", "rows": []}, "bad relation object", id="no-attributes"),
            pytest.param(people_relation_obj([["1", "ada"]]), "row arity 2", id="short-row"),
            pytest.param(people_relation_obj([5]), "row must be a list of cells, got int", id="int-row"),
            pytest.param(
                people_relation_obj(["1ab"]), "row must be a list of cells, got str", id="text-row"
            ),
            pytest.param(people_relation_obj(5), "rows must be a list, got int", id="int-rows"),
            pytest.param(people_relation_obj("1ab"), "rows must be a list, got str", id="text-rows"),
            pytest.param(
                {**people_relation_obj([]), "attributes": people_relation_obj([])["attributes"] * 2},
                "duplicate attribute name 'id'",
                id="repeated-attribute",
            ),
            *(
                pytest.param(
                    {"name": "people", "attributes": [{"name": "c", "type": kind}], "rows": [[cell]]},
                    f"bad cell for {kind}: expected a scalar, got {type(cell).__name__}",
                    id=f"{type(cell).__name__}-{kind}-cell",
                )
                for kind in ("integer", "decimal", "timestamp")
                for cell in ([1], {"a": 1})
            ),
        ],
    )
    def test_bad_memory_relation_is_config_error_naming_it(self, relation_obj, detail):
        document = two_domain_doc()
        document["components"][0]["config"]["adapter"]["relations"] = [relation_obj]
        mesh = Mesh(load_topology(document))
        with pytest.raises(ConfigError) as caught:
            mesh.up()
        message = caught.value.message
        assert "'y_ops'" in message and "'people'" in message and detail in message
        assert not mesh.running and not mesh.components

    @pytest.mark.parametrize(
        "component, key, value",
        [
            pytest.param(1, "cache_capacity", "64", id="text-capacity"),
            pytest.param(1, "cache_capacity", -1, id="negative-capacity"),
            pytest.param(1, "cache_capacity", True, id="bool-capacity"),
            pytest.param(1, "salt", 5, id="number-mediator-salt"),
            pytest.param(0, "salt", 5, id="number-wrapper-salt"),
        ],
    )
    def test_bad_cache_or_salt_setting_is_config_error(self, component, key, value):
        document = two_domain_doc()
        config = document["components"][component]["config"]
        config[key] = value
        mesh = Mesh(load_topology(document))
        with pytest.raises(ConfigError) as caught:
            mesh.up()
        assert f"{key} must be" in caught.value.message
        assert repr(value) in caught.value.message
        assert not mesh.running and not mesh.components

    def test_non_text_metadata_value_is_config_error(self):
        document = two_domain_doc()
        document["components"][1]["config"]["metadata"] = {"owner": 5}
        mesh = Mesh(load_topology(document))
        with pytest.raises(ConfigError) as caught:
            mesh.up()
        assert "metadata value for 'owner' must be text" in caught.value.message
        assert not mesh.running and not mesh.components

    def test_startup_is_producers_first(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            order = mesh._order
            assert order.index("y_ops") < order.index("y_med")
            assert order.index("y_med") < order.index("x_med")
            assert order.index("y_med") < order.index("y_mask")

    def test_rollback_on_component_failure(self):
        document = two_domain_doc()
        document["components"][1]["config"]["views"] = "CREATE VIEW bad AS SELECT nope FROM ops.people;"
        mesh = Mesh(load_topology(document))
        with pytest.raises(Exception):
            mesh.up()
        assert not mesh.components and not mesh.servers

    def test_catalog_lists_product_mediators_sorted(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            catalog = mesh.catalog()
            assert [(e["domain"], e["product"], e["version"]) for e in catalog] == [
                ("x", "mirror", 2),
                ("y", "registry", 1),
            ]
            registry = catalog[1]
            assert registry["relations"] == ["safe"]
            assert registry["metadata"]["quality.completeness"] == "0.98"
            assert registry["status"] == "ok"

    def test_two_versions_of_one_product(self):
        document = two_domain_doc()
        clone = json.loads(json.dumps(document["components"][1]))
        clone["id"] = "y_med_v2"
        clone["config"]["version"] = 2
        document["components"].append(clone)
        document["edges"].append(["y_med_v2", "y_ops"])
        with Mesh(load_topology(document)) as mesh:
            catalog = [e for e in mesh.catalog() if e["product"] == "registry"]
            assert [e["version"] for e in catalog] == [1, 2]


class TestMeshServing:
    def test_query_through_the_mesh(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            result = mesh.execute("x_med", "SELECT * FROM mirror.names", principal="analyst")
            assert {row[0] for row in result.rows} == {Value.text("ada"), Value.text("grace")}

    def test_mask_serves_rendering(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            rendering = mesh.serve(
                "y_mask", "SELECT * FROM registry.safe", "csv", principal="analyst"
            )
            assert rendering.text.startswith("name:text,ssn_h:text\n")

    def test_acl_denies_stranger(self):
        from mmw.errors import AccessDeniedError

        with Mesh(load_topology(two_domain_doc())) as mesh:
            with pytest.raises(AccessDeniedError):
                mesh.execute("y_med", "SELECT * FROM registry.safe", principal="stranger")

    @pytest.mark.parametrize("mediator_endpoint", ["in_process", "tcp 127.0.0.1:0"])
    def test_mask_acl_names_its_upstream_product(self, mediator_endpoint):
        # y_med publishes product "registry"; the mask over it serves that
        # product, so a rule must name "registry", not the component id.
        from mmw.errors import AccessDeniedError

        def mesh_with_rule(product):
            document = two_domain_doc()
            document["components"][1]["endpoint"] = mediator_endpoint
            document["acl"] = [["analyst", "y", product, True]]
            return Mesh(load_topology(document))

        query = "SELECT * FROM registry.safe"
        with mesh_with_rule("registry") as mesh:
            assert len(mesh.execute("y_mask", query, principal="analyst").rows) == 2
        with mesh_with_rule("y_med") as mesh:
            with pytest.raises(AccessDeniedError) as err:
                mesh.execute("y_mask", query, principal="analyst")
            assert err.value.origin == "y_mask"

    def test_internal_edges_bypass_acl(self):
        # x_med (an accepted consumer) can fetch from y_med even though the
        # ACL has no rule for it; external principals still need rules.
        with Mesh(load_topology(two_domain_doc())) as mesh:
            result = mesh.execute("x_med", "SELECT * FROM mirror.names", principal="analyst")
            assert len(result.rows) == 2

    def test_stats_counters_match_log_length(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            for _ in range(3):
                mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            stats = mesh.component("y_med").stats()
            assert stats["queries_served"] == 3
            assert stats["cache_hits"] == 2
            assert stats["cache_misses"] == 1
            assert stats["rows_returned"] == 6
            log = mesh.components["y_med"].access_log
            assert stats["queries_served"] == sum(1 for e in log if e.outcome == "ok")
            assert stats["cache_hits"] == sum(1 for e in log if e.cache_hit)

    def test_denied_increments_errors_not_rows(self):
        from mmw.errors import AccessDeniedError

        with Mesh(load_topology(two_domain_doc())) as mesh:
            with pytest.raises(AccessDeniedError):
                mesh.execute("y_med", "SELECT * FROM registry.safe", principal="stranger")
            stats = mesh.component("y_med").stats()
            assert stats["errors"] == 1
            assert stats["rows_returned"] == 0
            assert stats["queries_served"] == 0

    def test_request_log_bijection(self, tmp_path):
        mesh = Mesh(load_topology(two_domain_doc()), log_dir=tmp_path)
        with mesh:
            mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            try:
                mesh.execute("y_med", "SELECT * FROM registry.safe", principal="stranger")
            except Exception:
                pass
            mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
        lines = (tmp_path / "y_med.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [e["outcome"] for e in entries] == ["ok", "denied", "ok"]
        assert entries[2]["cache_hit"] is True
        timestamps = [e["timestamp"] for e in entries]
        assert timestamps == sorted(timestamps)

    def test_lineage_crosses_components(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            node = mesh.component("x_med").lineage("names")
            assert node.component == "x_med"
            mid = node.children[0]
            assert mid.component == "y_med"
            leaf = mid.children[0]
            assert leaf.component == "y_ops" and leaf.kind == "wrapper"


class TestFaultInjection:
    def test_killed_wrapper_makes_dependents_unavailable_only(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            mesh.kill("y_ops")
            with pytest.raises(UnavailableError) as err:
                mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            assert err.value.origin in ("y_ops", "y_med")
            # The schema of the dead wrapper's mediator is still served
            # (derived at configure time), and unrelated components answer.
            assert mesh.component("y_mask").stats() is not None
            catalog = mesh.catalog()
            assert all(entry["status"] == "ok" for entry in catalog)


class TestCatalogDrift:
    def test_unavailable_mediator_listed_with_status(self):
        with Mesh(load_topology(two_domain_doc())) as mesh:
            mesh.kill("y_med")
            entries = {e["component"]: e for e in mesh.catalog()}
            assert entries["y_med"]["status"].startswith("unavailable")
            assert entries["y_med"]["relations"] == []
            assert entries["x_med"]["status"] == "ok"

    def test_catalog_schema_equals_wire_schema(self):
        document = two_domain_doc()
        document["components"][1]["endpoint"] = "tcp 127.0.0.1:0"
        with Mesh(load_topology(document)) as mesh:
            entry = [e for e in mesh.catalog() if e["component"] == "y_med"][0]
            from mmw.runtime.protocol import TcpBinding

            host, port = mesh.endpoints["y_med"]
            binding = TcpBinding(host, port)
            try:
                over_wire = binding.get_schema()
            finally:
                binding.close()
            assert entry["relations"] == list(over_wire.relation_names)
            assert entry["version"] == over_wire.version
            assert entry["metadata"] == over_wire.metadata_map


class TestTcpMesh:
    def test_mediator_fetches_over_tcp(self):
        in_process = Mesh(load_topology(two_domain_doc(tcp_wrapper=False)))
        over_tcp = Mesh(load_topology(two_domain_doc(tcp_wrapper=True)))
        with in_process as a, over_tcp as b:
            qa = a.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            qb = b.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            assert bag_equal(qa, qb)

    def test_cache_keyed_by_remote_epoch(self):
        with Mesh(load_topology(two_domain_doc(tcp_wrapper=True))) as mesh:
            mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            assert mesh.component("y_med").stats()["cache_hits"] == 1
            wrapper = mesh.components["y_ops"]
            wrapper.adapter.insert(
                "people", (Value.integer(3), Value.text("alan"), Value.text("333"))
            )
            result = mesh.execute("y_med", "SELECT * FROM registry.safe", principal="analyst")
            assert len(result.rows) == 3


class TestQuantumIndependence:
    def test_each_component_type_starts_alone(self):
        document = {
            "domains": ["solo"],
            "components": [
                {
                    "id": "lone_wrapper",
                    "kind": "wrapper",
                    "domain": "solo",
                    "role": "operational_wrapper",
                    "config": {
                        "namespace": "lone",
                        "adapter": {"kind": "memory", "relations": []},
                    },
                },
                {
                    "id": "lone_mediator",
                    "kind": "mediator",
                    "domain": "solo",
                    "role": "product_mediator",
                    "config": {"product": "empty_product"},
                },
                {
                    "id": "lone_mask",
                    "kind": "mask",
                    "domain": "solo",
                    "role": "serving_mask",
                    "config": {},
                },
            ],
            "edges": [],
        }
        with Mesh(load_topology(document)) as mesh:
            assert mesh.components["lone_wrapper"].get_schema().relations == ()
            med_schema = mesh.components["lone_mediator"].get_schema()
            assert med_schema.product == "empty_product"
            assert med_schema.relations == ()
            assert mesh.components["lone_mask"].get_schema().relations == ()
