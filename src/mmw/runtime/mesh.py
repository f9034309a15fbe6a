"""Compose validated topologies into a running mesh.

Components start in dependency order (producers first; document order breaks
ties), each optionally behind a TCP endpoint. Startup is atomic: a failure
rolls back everything already started. Every edge a running mesh uses was
accepted by validate_topology beforehand; there are no dynamic edges.
"""

from __future__ import annotations

import logging
from pathlib import Path

from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter, MemoryAdapter
from mmw.codec import relation_from_obj, rows_from_wire
from mmw.errors import ConfigError, MeshError, ProtocolError, UnknownRelationError
from mmw.mask import FORMATS, Mask
from mmw.mediator import Mediator
from mmw.query.parse import parse_query
from mmw.relational import Table
from mmw.runtime.protocol import ProtocolServer, TcpBinding
from mmw.runtime.topology import (
    ComponentDescriptor,
    MeshTopology,
    check_access,
    validate_topology,
)
from mmw.wrapper import Wrapper, WrapperConfig

logger = logging.getLogger(__name__)


def _startup_order(topology: MeshTopology) -> list[ComponentDescriptor]:
    """Producers before consumers; ties broken by document order."""
    remaining = list(topology.components)
    started: set[str] = set()
    order: list[ComponentDescriptor] = []
    while remaining:
        for position, descriptor in enumerate(remaining):
            producers = topology.producers_of(descriptor.id)
            if all(producer in started for producer in producers):
                order.append(descriptor)
                started.add(descriptor.id)
                del remaining[position]
                break
        else:
            cycle = ", ".join(descriptor.id for descriptor in remaining)
            raise ConfigError(f"component dependency cycle among: {cycle}")
    return order


def _build_adapter(component_id: str, config: dict, base_dir: Path):
    kind = config.get("kind")
    if kind == "memory":
        schemas = []
        rows: dict[str, list] = {}
        for raw in config.get("relations", ()):
            name = raw.get("name") if isinstance(raw, dict) else None
            try:
                schema = relation_from_obj(raw)
                kinds = [attr.data_type for attr in schema.attributes]
                rows[schema.name] = rows_from_wire(kinds, raw.get("rows", []))
            except ProtocolError as exc:  # the codec's bad relation object, row or cell
                raise ConfigError(
                    f"component {component_id!r}, memory relation {name!r}: {exc.message}"
                ) from None
            schemas.append(schema)
        try:
            return MemoryAdapter(schemas, rows)
        except ConfigError as exc:
            raise ConfigError(f"component {component_id!r}, {exc.message}") from None
    if kind == "delimited_dir":
        return DelimitedDirAdapter(base_dir / config["location"])
    if kind == "doc_lines":
        return DocLinesAdapter(base_dir / config["location"])
    raise ConfigError(f"unknown adapter kind {kind!r}")


def _load_views(config: dict, base_dir: Path) -> list[str]:
    views = config.get("views")
    if views is None:
        return []
    if isinstance(views, str):
        return [views]
    if isinstance(views, dict) and "path" in views:
        path = base_dir / views["path"]
        try:
            return [path.read_text(encoding="utf-8")]
        except OSError as exc:
            raise ConfigError(f"cannot read view file {path}: {exc}") from None
    if isinstance(views, list):
        return [str(item) for item in views]
    raise ConfigError("views must be text, a list of texts, or {'path': ...}")


class Mesh:
    """A built topology: components, endpoints, logs and the runtime surface."""

    def __init__(self, topology: MeshTopology, log_dir=None):
        self.topology = topology
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self.components: dict[str, object] = {}
        self.servers: dict[str, ProtocolServer] = {}
        self.endpoints: dict[str, tuple[str, int]] = {}
        self._bindings: list[TcpBinding] = []
        self._order: list[str] = []
        self.running = False

    # -- lifecycle -------------------------------------------------------------

    def up(self) -> "Mesh":
        """Validate, then start every component; atomic on failure."""
        findings = validate_topology(self.topology)
        violations = [finding for finding in findings if finding.severity == "violation"]
        if violations:
            detail = "; ".join(str(finding) for finding in violations)
            raise ConfigError(f"topology has violations: {detail}")
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
        try:
            for descriptor in _startup_order(self.topology):
                self._start_component(descriptor)
        except Exception:
            self._teardown()
            raise
        self.running = True
        return self

    def down(self) -> None:
        self._teardown()

    def _teardown(self) -> None:
        for component_id in reversed(self._order):
            server = self.servers.pop(component_id, None)
            if server is not None:
                server.close()
            component = self.components.get(component_id)
            if component is not None:
                try:
                    component.stop()
                except Exception:
                    logger.exception("stopping %s failed", component_id)
        for binding in self._bindings:
            binding.close()
        self._bindings.clear()
        self.components.clear()
        self.servers.clear()
        self.endpoints.clear()
        self._order.clear()
        self.running = False

    def kill(self, component_id: str) -> None:
        """Fault injection: stop one component (and its endpoint) in place."""
        server = self.servers.pop(component_id, None)
        if server is not None:
            server.close()
        self.component(component_id).stop()

    # -- construction ------------------------------------------------------------

    def _binding_for(self, producer_id: str):
        descriptor = self.topology.component(producer_id)
        if descriptor.endpoint.mode == "tcp":
            host, port = self.endpoints[producer_id]
            binding = TcpBinding(host, port)
            self._bindings.append(binding)
            return binding
        return self.components[producer_id]

    def _start_component(self, descriptor: ComponentDescriptor) -> None:
        base_dir = self.topology.base_dir
        config = descriptor.config
        if descriptor.kind == "wrapper":
            adapter = _build_adapter(descriptor.id, config.get("adapter", {}), base_dir)
            component = Wrapper(
                WrapperConfig(
                    descriptor.id,
                    config.get("namespace", descriptor.id),
                    adapter,
                    config.get("salt", ""),
                )
            )
        elif descriptor.kind == "mediator":
            downstream = {
                alias: self._binding_for(producer_id)
                for alias, producer_id in config.get("downstream", {}).items()
            }
            component = Mediator(
                descriptor.id,
                config.get("product", descriptor.id),
                downstream,
                _load_views(config, base_dir),
                version=config.get("version", 1),
                metadata=config.get("metadata", {}),
                cache_capacity=config.get("cache_capacity", 64),
                salt=config.get("salt", ""),
                deny_raw_identifying=config.get("deny_raw_identifying", False),
            )
        elif descriptor.kind == "mask":
            upstream_id = config.get("upstream")
            upstream = self._binding_for(upstream_id) if upstream_id else None
            refresh = config.get("refresh", "manual")
            interval = 60.0
            if isinstance(refresh, dict):
                interval = float(refresh.get("interval", 60.0))
                refresh = "interval"
            component = Mask(
                descriptor.id,
                upstream,
                mode=config.get("mode", "virtualizing"),
                formats=tuple(config.get("formats", FORMATS)),
                target=(base_dir / config["target"]) if config.get("target") else None,
                refresh=refresh,
                refresh_interval=interval,
            )
        else:
            raise ConfigError(f"unknown component kind {descriptor.kind!r}")

        component.set_access_checker(self._make_access_checker(descriptor, component.namespace))
        if self.log_dir is not None:
            component.set_log_path(self.log_dir / f"{descriptor.id}.jsonl")
        component.start()
        self.components[descriptor.id] = component
        self._order.append(descriptor.id)
        if descriptor.endpoint.mode == "tcp":
            server = ProtocolServer(component, descriptor.endpoint.host, descriptor.endpoint.port)
            self.servers[descriptor.id] = server
            self.endpoints[descriptor.id] = (server.host, server.port)

    def _make_access_checker(self, descriptor: ComponentDescriptor, product: str):
        """ACL check for the component built from `descriptor`; `product` is
        the namespace it serves, a mask's being its upstream's."""
        internal = {
            consumer for consumer, producer in self.topology.edges if producer == descriptor.id
        }
        internal.add(descriptor.id)
        acl = self.topology.acl
        domain = descriptor.domain

        def checker(principal: str):
            if principal in internal:
                return True, "internal edge"
            allowed, rule = check_access(acl, principal, domain, product)
            return allowed, rule.render() if rule else None

        return checker

    # -- runtime surface --------------------------------------------------------------

    def component(self, component_id: str):
        """The running component with this id, in-process."""
        component = self.components.get(component_id)
        if component is None:
            raise UnknownRelationError(f"unknown component {component_id!r}")
        return component

    def catalog(self) -> list[dict]:
        """One entry per product mediator, ordered by (domain, product, version)."""
        entries = []
        for descriptor in self.topology.components:
            if descriptor.role != "product_mediator":
                continue
            entry = {
                "domain": descriptor.domain,
                "component": descriptor.id,
                "endpoint": descriptor.endpoint.render(),
            }
            try:
                product = self.component(descriptor.id).get_schema()
                entry.update(
                    {
                        "product": product.product,
                        "version": product.version,
                        "relations": list(product.relation_names),
                        "metadata": product.metadata_map,
                        "status": "ok",
                    }
                )
            except MeshError as exc:
                entry.update(
                    {
                        "product": descriptor.config.get("product", descriptor.id),
                        "version": descriptor.config.get("version", 0),
                        "relations": [],
                        "metadata": {},
                        "status": f"unavailable: {exc.message}",
                    }
                )
            entries.append(entry)
        entries.sort(key=lambda e: (e["domain"], e["product"], e["version"]))
        return entries

    def execute(self, component_id: str, query_text: str, principal: str = "") -> Table:
        return self.component(component_id).execute(parse_query(query_text), principal)

    def serve(self, component_id: str, query_text: str, format_tag: str, principal: str = ""):
        return self.component(component_id).serve(parse_query(query_text), format_tag, principal)

    def __enter__(self) -> "Mesh":
        return self.up()

    def __exit__(self, *exc_info) -> None:
        self.down()
