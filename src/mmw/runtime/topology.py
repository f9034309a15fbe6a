"""Topology documents and federated-governance validation.

A mesh is one JSON document: domains, components (with kind, domain, role,
endpoint and per-kind config), consumer->producer edges, policy flags and an
ordered ACL. Validation enforces the connection rules; `mesh up` refuses to
start a topology with violations (warnings pass).

Connection rules, all default-on:
  - kind rules: wrappers consume sources only; mediators consume wrappers
    or mediators; masks consume mediators (a wrapper upstream is legal but
    warned about).
  - product boundary: a cross-domain edge must either consume a product
    mediator from a mediator, or consume a shared-infrastructure (dip)
    wrapper from a mediator. Operational data never crosses domains.
  - external mediator access: a foreign product mediator may only be
    consumed by another mediator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from mmw.errors import ConfigError, UnknownRelationError
from mmw.relational import is_identifier


class TopologyError(ConfigError):
    pass


KIND_ROLES = {
    "wrapper": ("operational_wrapper", "dip_wrapper"),
    "mediator": ("product_mediator", "staging_mediator"),
    "mask": ("serving_mask", "materializing_mask"),
}


@dataclass(frozen=True)
class Endpoint:
    mode: str  # "in_process" | "tcp"
    host: str = ""
    port: int = 0

    @staticmethod
    def parse(text: str) -> "Endpoint":
        if text == "in_process":
            return Endpoint("in_process")
        if text.startswith("tcp "):
            address = text[4:]
            host, _, port_text = address.rpartition(":")
            if not host or not port_text.isdigit():
                raise TopologyError(f"bad tcp endpoint {text!r} (want 'tcp host:port')")
            return Endpoint("tcp", host, int(port_text))
        raise TopologyError(f"unknown endpoint {text!r}")

    def render(self) -> str:
        if self.mode == "in_process":
            return "in_process"
        return f"tcp {self.host}:{self.port}"


@dataclass(frozen=True)
class ComponentDescriptor:
    id: str
    kind: str
    domain: str
    role: str
    endpoint: Endpoint
    config: dict


@dataclass(frozen=True)
class GovernancePolicy:
    enforce_kind_rules: bool = True
    enforce_product_boundary: bool = True
    deny_external_mediator_access: bool = True


@dataclass(frozen=True)
class AclRule:
    principal: str
    domain: str
    product: str
    allow_read: bool

    def matches(self, principal: str, domain: str, product: str) -> bool:
        return (
            self.principal in ("*", principal)
            and self.domain in ("*", domain)
            and self.product in ("*", product)
        )

    def render(self) -> str:
        verb = "allow" if self.allow_read else "deny"
        return f"({self.principal}, {self.domain}, {self.product}, {verb})"


@dataclass(frozen=True)
class MeshTopology:
    domains: tuple[str, ...]
    components: tuple[ComponentDescriptor, ...]
    edges: tuple[tuple[str, str], ...]
    policies: GovernancePolicy
    acl: tuple[AclRule, ...]
    base_dir: Path = Path(".")

    def component(self, component_id: str) -> ComponentDescriptor:
        for descriptor in self.components:
            if descriptor.id == component_id:
                return descriptor
        raise UnknownRelationError(f"unknown component {component_id!r}")

    def producers_of(self, consumer_id: str) -> list[str]:
        return [producer for consumer, producer in self.edges if consumer == consumer_id]


def load_topology(document, base_dir=".") -> MeshTopology:
    """Parse and structurally check a topology document (dict or JSON text).

    Performs no network or filesystem activity beyond remembering base_dir
    for later config-reference resolution.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise TopologyError(f"topology is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise TopologyError("topology document must be a JSON object")

    domains = tuple(document.get("domains", ()))
    for position, domain in enumerate(domains):
        if not is_identifier(domain):
            raise TopologyError(f"domains[{position}]: {domain!r} is not a valid identifier")

    components: list[ComponentDescriptor] = []
    seen_ids: set[str] = set()
    for position, raw in enumerate(document.get("components", ())):
        path = f"components[{position}]"
        for required in ("id", "kind", "domain", "role"):
            if required not in raw:
                raise TopologyError(f"{path}: missing field {required!r}")
        component_id = raw["id"]
        if not is_identifier(component_id):
            raise TopologyError(f"{path}.id: {component_id!r} is not a valid identifier")
        if component_id in seen_ids:
            raise TopologyError(f"{path}.id: duplicate id {component_id!r}")
        seen_ids.add(component_id)
        kind = raw["kind"]
        if kind not in KIND_ROLES:
            raise TopologyError(f"{path}.kind: unknown kind {kind!r}")
        role = raw["role"]
        if role not in KIND_ROLES[kind]:
            raise TopologyError(
                f"{path}.role: role {role!r} is inconsistent with kind {kind!r}"
            )
        endpoint = Endpoint.parse(raw.get("endpoint", "in_process"))
        components.append(
            ComponentDescriptor(
                component_id, kind, raw["domain"], role, endpoint, dict(raw.get("config", {}))
            )
        )

    edges: list[tuple[str, str]] = []
    for position, raw_edge in enumerate(document.get("edges", ())):
        path = f"edges[{position}]"
        if not (isinstance(raw_edge, (list, tuple)) and len(raw_edge) == 2):
            raise TopologyError(f"{path}: an edge is a [consumer, producer] pair")
        consumer, producer = raw_edge
        for end in (consumer, producer):
            if end not in seen_ids:
                raise TopologyError(f"{path}: dangling edge end {end!r}")
        edges.append((consumer, producer))

    raw_policies = document.get("policies", {})
    unknown_flags = set(raw_policies) - set(GovernancePolicy().__dict__)
    if unknown_flags:
        raise TopologyError(f"policies: unknown flags {sorted(unknown_flags)}")
    policies = GovernancePolicy(**raw_policies)

    acl: list[AclRule] = []
    for position, raw_rule in enumerate(document.get("acl", ())):
        path = f"acl[{position}]"
        if not (isinstance(raw_rule, (list, tuple)) and len(raw_rule) == 4):
            raise TopologyError(f"{path}: a rule is [principal, domain, product, allow]")
        principal, domain, product, allow = raw_rule
        acl.append(AclRule(str(principal), str(domain), str(product), bool(allow)))

    return MeshTopology(domains, tuple(components), tuple(edges), policies, tuple(acl), Path(base_dir))


def load_topology_file(path) -> MeshTopology:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TopologyError(f"cannot read topology {path}: {exc}") from None
    return load_topology(text, base_dir=path.parent)


@dataclass(frozen=True)
class Finding:
    severity: str  # "violation" | "warning"
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} [{self.rule}]: {self.message}"


def validate_topology(topology: MeshTopology) -> list[Finding]:
    """Governance findings in deterministic (document) order."""
    findings: list[Finding] = []
    policy = topology.policies
    by_id = {descriptor.id: descriptor for descriptor in topology.components}

    declared = set(topology.domains)
    for descriptor in topology.components:
        if descriptor.domain not in declared:
            findings.append(
                Finding(
                    "violation",
                    "structure",
                    f"component {descriptor.id!r} uses undeclared domain {descriptor.domain!r}",
                )
            )

    # Edges must be backed by config references and vice versa.
    edge_set = set(topology.edges)
    for descriptor in topology.components:
        for referenced in _config_references(descriptor):
            if referenced not in by_id:
                findings.append(
                    Finding(
                        "violation",
                        "structure",
                        f"{descriptor.id!r} references unknown component {referenced!r}",
                    )
                )
            elif (descriptor.id, referenced) not in edge_set:
                findings.append(
                    Finding(
                        "violation",
                        "structure",
                        f"binding {descriptor.id!r} -> {referenced!r} has no matching edge",
                    )
                )

    for consumer_id, producer_id in topology.edges:
        consumer, producer = by_id[consumer_id], by_id[producer_id]
        edge_text = f"{consumer_id} -> {producer_id}"
        if producer_id not in _config_references(consumer):
            findings.append(
                Finding(
                    "violation",
                    "structure",
                    f"edge {edge_text} has no matching binding in {consumer_id!r} config",
                )
            )

        if policy.enforce_kind_rules:
            if consumer.kind == "wrapper":
                findings.append(
                    Finding(
                        "violation",
                        "enforce_kind_rules",
                        f"edge {edge_text}: wrappers consume data sources, not components",
                    )
                )
                continue
            if consumer.kind == "mediator" and producer.kind == "mask":
                findings.append(
                    Finding(
                        "violation",
                        "enforce_kind_rules",
                        f"edge {edge_text}: mediators consume wrappers or mediators",
                    )
                )
                continue
            if consumer.kind == "mask":
                if producer.kind == "mask":
                    findings.append(
                        Finding(
                            "violation",
                            "enforce_kind_rules",
                            f"edge {edge_text}: masks consume mediators",
                        )
                    )
                    continue
                if producer.kind == "wrapper":
                    findings.append(
                        Finding(
                            "warning",
                            "enforce_kind_rules",
                            f"edge {edge_text}: mask connects directly to a wrapper; "
                            "a mediator in between leaves room for transformations",
                        )
                    )

        if consumer.domain != producer.domain:
            cross_text = f"cross-domain edge {edge_text} ({consumer.domain} -> {producer.domain})"
            if (
                policy.deny_external_mediator_access
                and producer.kind == "mediator"
                and consumer.kind != "mediator"
            ):
                findings.append(
                    Finding(
                        "violation",
                        "deny_external_mediator_access",
                        f"{cross_text}: only mediators may consume a foreign product mediator",
                    )
                )
                continue
            if policy.enforce_product_boundary:
                mediator_to_product = (
                    consumer.kind == "mediator"
                    and producer.kind == "mediator"
                    and producer.role == "product_mediator"
                )
                mediator_to_dip = (
                    consumer.kind == "mediator" and producer.role == "dip_wrapper"
                )
                if not (mediator_to_product or mediator_to_dip):
                    if producer.role == "operational_wrapper":
                        message = (
                            f"{cross_text}: data products never depend on operational "
                            "data from another domain"
                        )
                    else:
                        message = (
                            f"{cross_text}: cross-domain edges must consume a product "
                            "mediator or a dip wrapper from a mediator"
                        )
                    findings.append(Finding("violation", "enforce_product_boundary", message))

    return findings


def _config_references(descriptor: ComponentDescriptor) -> list[str]:
    """Producer ids referenced by a component's config."""
    if descriptor.kind == "mediator":
        downstream = descriptor.config.get("downstream", {})
        return sorted(downstream.values()) if isinstance(downstream, dict) else []
    if descriptor.kind == "mask":
        upstream = descriptor.config.get("upstream")
        return [upstream] if upstream else []
    return []


def check_access(
    acl: Iterable[AclRule], principal: str, domain: str, product: str
) -> tuple[bool, Optional[AclRule]]:
    """First-match over the ACL as written; default deny."""
    for rule in acl:
        if rule.matches(principal, domain, product):
            return rule.allow_read, rule
    return False, None
