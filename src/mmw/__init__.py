"""Data mesh toolkit built from mask, mediator and wrapper components.

Wrappers encapsulate heterogeneous data sources behind one relational
schema-and-query interface, mediators transform and integrate them through
declared views and query rewriting, masks serve the results in polyglot
renderings or materialize them to storage. The runtime composes validated
topologies into a working mesh with a catalog, lineage, access control and
per-component monitoring.
"""

from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter, MemoryAdapter, SourceAdapter
from mmw.component import AccessLogEntry, LineageNode
from mmw.errors import (
    AccessDeniedError,
    ConfigError,
    MeshError,
    ProtocolError,
    QuerySyntaxError,
    TypeCheckError,
    UnavailableError,
    UnknownRelationError,
    ViewCycleError,
)
from mmw.mask import Mask, Rendering
from mmw.mediator import Mediator
from mmw.planner import ExecutionPlan, FetchStep, JoinStep, execute_plan, plan
from mmw.query import evaluate, infer_schema, parse_query, render_query
from mmw.query.ast import QualifiedName, Query
from mmw.relational import (
    Attribute,
    Kind,
    Ordering,
    ProductSchema,
    RelationSchema,
    Table,
    Value,
    bag_equal,
    canonical_text,
    compare_values,
    conform,
    validate_product_schema,
)
from mmw.runtime import Mesh, MeshTopology, load_topology, load_topology_file, validate_topology
from mmw.views import ViewDeclaration, derive_global_schema, parse_view_decl, unfold
from mmw.wrapper import Wrapper, WrapperConfig

__version__ = "0.1.0"

__all__ = [
    "AccessDeniedError",
    "AccessLogEntry",
    "Attribute",
    "ConfigError",
    "DelimitedDirAdapter",
    "DocLinesAdapter",
    "ExecutionPlan",
    "FetchStep",
    "JoinStep",
    "Kind",
    "LineageNode",
    "Mask",
    "Mediator",
    "Mesh",
    "MeshError",
    "MeshTopology",
    "MemoryAdapter",
    "Ordering",
    "ProductSchema",
    "ProtocolError",
    "QualifiedName",
    "Query",
    "QuerySyntaxError",
    "RelationSchema",
    "Rendering",
    "SourceAdapter",
    "Table",
    "TypeCheckError",
    "UnavailableError",
    "UnknownRelationError",
    "Value",
    "ViewCycleError",
    "ViewDeclaration",
    "Wrapper",
    "WrapperConfig",
    "bag_equal",
    "canonical_text",
    "compare_values",
    "conform",
    "derive_global_schema",
    "evaluate",
    "execute_plan",
    "infer_schema",
    "load_topology",
    "load_topology_file",
    "parse_query",
    "parse_view_decl",
    "plan",
    "render_query",
    "unfold",
    "validate_product_schema",
    "validate_topology",
]
