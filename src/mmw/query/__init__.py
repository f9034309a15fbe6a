"""SQL-like query surface: algebra tree, parser, renderer, inference, the
reference evaluator and the executor that production runs (`query.execute`)."""

from mmw.query.ast import (
    AttrRef,
    Comparison,
    CompareOp,
    ConcatCall,
    HashCall,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Project,
    ProjectItem,
    QualifiedName,
    Query,
    RedactCall,
    Scan,
    Select,
    Union,
)
from mmw.query.evaluate import evaluate, fnv1a_hex, hash_value
from mmw.query.infer import infer_schema, type_expr
from mmw.query.parse import parse_query, parse_view_statements
from mmw.query.render import render_query

__all__ = [
    "AttrRef",
    "Comparison",
    "CompareOp",
    "ConcatCall",
    "HashCall",
    "Join",
    "Literal",
    "LogicalAnd",
    "LogicalNot",
    "LogicalOr",
    "Project",
    "ProjectItem",
    "QualifiedName",
    "Query",
    "RedactCall",
    "Scan",
    "Select",
    "Union",
    "evaluate",
    "fnv1a_hex",
    "hash_value",
    "infer_schema",
    "type_expr",
    "parse_query",
    "parse_view_statements",
    "render_query",
]
