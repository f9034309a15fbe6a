"""Topology loading, governance validation, ACL semantics."""

from __future__ import annotations

import json

import pytest

from mmw.runtime.topology import (
    AclRule,
    TopologyError,
    check_access,
    load_topology,
    validate_topology,
)


def doc(components, edges, domains=("x", "y", "dip"), policies=None, acl=None):
    return {
        "domains": list(domains),
        "components": components,
        "edges": edges,
        "policies": policies or {},
        "acl": acl or [],
    }


def wrapper(cid, domain, role="operational_wrapper"):
    return {
        "id": cid,
        "kind": "wrapper",
        "domain": domain,
        "role": role,
        "config": {"namespace": cid, "adapter": {"kind": "memory", "relations": []}},
    }


def mediator(cid, domain, downstream, role="product_mediator"):
    return {
        "id": cid,
        "kind": "mediator",
        "domain": domain,
        "role": role,
        "config": {"product": f"{cid}_product"[:20], "downstream": downstream},
    }


def mask(cid, domain, upstream, role="serving_mask"):
    return {
        "id": cid,
        "kind": "mask",
        "domain": domain,
        "role": role,
        "config": {"upstream": upstream},
    }


class TestLoad:
    def test_minimal_single_wrapper(self):
        topology = load_topology(json.dumps(doc([wrapper("w1", "x")], [])))
        assert topology.components[0].id == "w1"
        assert topology.components[0].endpoint.mode == "in_process"

    def test_duplicate_id(self):
        with pytest.raises(TopologyError) as err:
            load_topology(doc([wrapper("w1", "x"), wrapper("w1", "x")], []))
        assert "duplicate" in str(err.value)

    def test_dangling_edge(self):
        with pytest.raises(TopologyError) as err:
            load_topology(doc([wrapper("w1", "x")], [["w1", "ghost"]]))
        assert "dangling" in str(err.value)

    def test_kind_role_consistency(self):
        bad = wrapper("w1", "x")
        bad["role"] = "serving_mask"
        with pytest.raises(TopologyError) as err:
            load_topology(doc([bad], []))
        assert "inconsistent" in str(err.value)

    def test_tcp_endpoint_parse(self):
        component = wrapper("w1", "x")
        component["endpoint"] = "tcp 127.0.0.1:7450"
        topology = load_topology(doc([component], []))
        assert topology.components[0].endpoint.port == 7450

    def test_bad_endpoint(self):
        component = wrapper("w1", "x")
        component["endpoint"] = "udp 1:2"
        with pytest.raises(TopologyError):
            load_topology(doc([component], []))

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 200_000, id="deep-nesting"),
            pytest.param("{", id="truncated"),
            pytest.param(b"\xff", id="not-utf8"),
        ],
    )
    def test_undecodable_document(self, text):
        with pytest.raises(TopologyError) as err:
            load_topology(text)
        assert "not valid JSON" in err.value.message

    def test_unknown_policy_flag(self):
        with pytest.raises(TopologyError):
            load_topology(doc([], [], policies={"mystery": True}))


class TestValidate:
    def test_clean_two_domain_mesh(self):
        topology = load_topology(
            doc(
                [
                    wrapper("dip_w", "dip", role="dip_wrapper"),
                    wrapper("y_ops", "y"),
                    mediator("y_med", "y", {"ops": "y_ops", "d": "dip_w"}),
                    mask("y_mask", "y", "y_med"),
                    mediator("x_med", "x", {"y": "y_med"}),
                    mask("x_mask", "x", "x_med"),
                ],
                [
                    ["y_med", "y_ops"],
                    ["y_med", "dip_w"],
                    ["y_mask", "y_med"],
                    ["x_med", "y_med"],
                    ["x_mask", "x_med"],
                ],
            )
        )
        assert validate_topology(topology) == []

    def test_mask_to_wrapper_is_warning_not_violation(self):
        topology = load_topology(
            doc(
                [wrapper("y_ops", "y"), mask("y_mask", "y", "y_ops")],
                [["y_mask", "y_ops"]],
            )
        )
        findings = validate_topology(topology)
        assert [f.severity for f in findings] == ["warning"]
        assert findings[0].rule == "enforce_kind_rules"

    def test_foreign_mask_to_mediator_cites_external_access_rule(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    mediator("y_med", "y", {"ops": "y_ops"}),
                    mask("x_mask", "x", "y_med"),
                ],
                [["y_med", "y_ops"], ["x_mask", "y_med"]],
            )
        )
        findings = [f for f in findings_only(topology, "violation")]
        assert len(findings) == 1
        assert findings[0].rule == "deny_external_mediator_access"

    def test_cross_domain_operational_wrapper_violates_boundary(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    mediator("x_med", "x", {"y": "y_ops"}),
                ],
                [["x_med", "y_ops"]],
            )
        )
        findings = findings_only(topology, "violation")
        assert len(findings) == 1
        assert findings[0].rule == "enforce_product_boundary"
        assert "operational" in findings[0].message

    def test_cross_domain_dip_wrapper_is_allowed(self):
        topology = load_topology(
            doc(
                [
                    wrapper("dip_w", "dip", role="dip_wrapper"),
                    mediator("x_med", "x", {"d": "dip_w"}),
                ],
                [["x_med", "dip_w"]],
            )
        )
        assert validate_topology(topology) == []

    def test_cross_domain_mediator_to_product_mediator_allowed(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    mediator("y_med", "y", {"ops": "y_ops"}),
                    mediator("x_med", "x", {"y": "y_med"}),
                ],
                [["y_med", "y_ops"], ["x_med", "y_med"]],
            )
        )
        assert validate_topology(topology) == []

    def test_cross_domain_staging_mediator_as_producer_violates(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    mediator("y_stage", "y", {"ops": "y_ops"}, role="staging_mediator"),
                    mediator("x_med", "x", {"y": "y_stage"}),
                ],
                [["y_stage", "y_ops"], ["x_med", "y_stage"]],
            )
        )
        findings = findings_only(topology, "violation")
        assert len(findings) == 1
        assert findings[0].rule == "enforce_product_boundary"

    def test_wrapper_consuming_anything_violates(self):
        topology = load_topology(
            doc(
                [wrapper("w1", "x"), wrapper("w2", "x")],
                [["w1", "w2"]],
            )
        )
        findings = findings_only(topology, "violation")
        assert any(f.rule == "enforce_kind_rules" for f in findings)

    def test_mediator_consuming_mask_violates(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    mediator("y_med", "y", {"ops": "y_ops"}),
                    mask("y_mask", "y", "y_med"),
                    mediator("x_med", "y", {"m": "y_mask"}),
                ],
                [["y_med", "y_ops"], ["y_mask", "y_med"], ["x_med", "y_mask"]],
            )
        )
        findings = findings_only(topology, "violation")
        assert any(f.rule == "enforce_kind_rules" for f in findings)

    def test_flags_can_be_disabled(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    mediator("x_med", "x", {"y": "y_ops"}),
                ],
                [["x_med", "y_ops"]],
                policies={"enforce_product_boundary": False},
            )
        )
        assert findings_only(topology, "violation") == []

    def test_edge_without_config_binding(self):
        topology = load_topology(
            doc(
                [
                    wrapper("y_ops", "y"),
                    wrapper("y_other", "y"),
                    mediator("y_med", "y", {"ops": "y_ops"}),
                ],
                [["y_med", "y_ops"], ["y_med", "y_other"]],
            )
        )
        findings = findings_only(topology, "violation")
        assert any("no matching binding" in f.message for f in findings)

    def test_undeclared_domain(self):
        topology = load_topology(doc([wrapper("w1", "mystery")], []))
        findings = findings_only(topology, "violation")
        assert any("undeclared domain" in f.message for f in findings)


def findings_only(topology, severity):
    return [f for f in validate_topology(topology) if f.severity == severity]


class TestCheckAccess:
    def test_empty_acl_denies_all(self):
        allowed, rule = check_access([], "anyone", "x", "p")
        assert not allowed and rule is None

    def test_first_match_wins(self):
        acl = [
            AclRule("analyst", "x", "*", False),
            AclRule("analyst", "*", "*", True),
        ]
        assert check_access(acl, "analyst", "x", "p") == (False, acl[0])
        assert check_access(acl, "analyst", "y", "p") == (True, acl[1])

    def test_wildcards(self):
        acl = [AclRule("*", "x", "*", True)]
        assert check_access(acl, "anyone", "x", "whatever")[0]
        assert not check_access(acl, "anyone", "y", "whatever")[0]

    def test_exhaustive_small_acl_oracle(self):
        # Oracle: first-match re-implemented inline over every combination.
        principals = ["analyst", "ops", "zoe"]
        domains = ["x", "y"]
        products = ["p", "q"]
        acl = [
            AclRule("analyst", "x", "*", True),
            AclRule("*", "x", "q", False),
            AclRule("*", "*", "q", True),
            AclRule("zoe", "y", "p", True),
        ]

        def oracle(principal, domain, product):
            for rule in acl:
                if (
                    rule.principal in ("*", principal)
                    and rule.domain in ("*", domain)
                    and rule.product in ("*", product)
                ):
                    return rule.allow_read
            return False

        for principal in principals + ["stranger"]:
            for domain in domains:
                for product in products:
                    assert (
                        check_access(acl, principal, domain, product)[0]
                        == oracle(principal, domain, product)
                    )
