"""Production executor: the same answers as the reference evaluator, faster.

`Wrapper.execute` and `planner.execute_plan` run every query through
`execute`. Its contract is `evaluate`'s: the same schema, the same rows in the
same order and the same error classes. `query/evaluate.py` stays the oracle
that this module is checked against, and it differs from it in four ways only:

- An equi-join builds a hash table on its right input, keyed by the
  ``(kind, payload)`` tuple of the join cells, and probes it with the left
  rows in order, which is the nested loop's left-major order. A null key cell
  never enters the table and never probes (`compare_values` finds null
  incomparable), and the kind keeps integer 1, boolean true and decimal 1
  apart.
- `Select` predicates and `Project` expressions are compiled once per node
  into closures over column positions (Neumann, "Efficiently Compiling
  Efficient Query Plans for Modern Hardware", VLDB 2011, with closures in
  place of generated code), instead of dispatching on the node class for
  every row. Like `evaluate`, a closure evaluates every operand of a
  connective, so a row fails where the oracle's row fails. A comparison of
  an attribute with a literal checks the cell's kind against the literal's
  and then applies the Python operator to the two payloads, which is what
  `compare_values` decides within one kind: a null cell, a null literal or
  another kind is unknown.
- A file reader tests a pushed-down selection before it builds any value
  (`_compile_payload_predicate`): on columns of bare payloads, None for
  null, one list per attribute the predicate reads, a whole column per
  operator. The predicate type-checks against the file's schema, so every
  operand's kind is fixed when it is compiled: a comparison of two kinds
  or with a null literal is unknown for every row, and no cell's kind is
  checked. Connectives combine whole columns of True, False and None
  (unknown) under the same Kleene logic.
- A `Select` over a `Scan` whose table is selected from a second time
  answers `attr = literal` (or `literal = attr`) with a literal of the
  column's own kind from a hash index of the column, `(kind, payload)` to
  row positions as `_join_key` keys a cell, null cells left out (database
  cracking: Idreos, Kersten and Manegold, CIDR 2007, indexes only what a
  query touches again). An OR of such terms holds exactly in the sorted
  union of their rows, so no row is tested; an AND tests the whole
  predicate on the rows of one such term or OR. Anything else, a NOT, a
  null or another kind's literal among them, keeps the scan and its Kleene
  results. The first selection only marks the table; the second builds
  the column's index into a local and installs it on the frozen table,
  outside its fields, by one assignment. Tables are immutable, so an
  index never goes stale, and it dies with its table, as with the join a
  mediator's join slot keeps. A scan shares its table's rows, and a caller
  that has typed the query may hand `execute` the answer's schema, so a
  projection at the top works out none.

`tests/test_execute.py` holds it to the oracle: a seeded differential test
over random queries (unions, chained joins, nullable columns, salted hashes)
compares schemas and row lists in order, hand-built joins cover null keys,
mixed kinds and duplicate keys, a scaling check keeps the join linear, and
a seeded differential selects from one kept table before and after its
indexes, from one thread and from four.
`tests/test_selective_load.py` holds the payload compiler to
`_compile_predicate`, row by row, over the payloads and values both file
readers make of the same cells.
"""

from __future__ import annotations

import operator
from operator import itemgetter
from typing import Callable, Mapping, Optional

from mmw.errors import UnknownRelationError
from mmw.relational import Kind, Ordering, RelationSchema, Row, Table, Value, compare_values
from mmw.query.ast import (
    AttrRef,
    CompareOp,
    Comparison,
    ConcatCall,
    Expr,
    HashCall,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Predicate,
    Project,
    QualifiedName,
    Query,
    RedactCall,
    Scan,
    Select,
    Union,
    operands,
)
from mmw.query.evaluate import REDACTED, _TRUE_ORDERINGS, _index, hash_value
from mmw.query.infer import (
    join_output_schema,
    project_output_schema,
    union_output_schema,
)

RowFn = Callable[[Row], Value]
RowTest = Callable[[Row], Optional[bool]]


def _compile_expr(expr: Expr, index: Mapping[str, int], salt: str) -> RowFn:
    if isinstance(expr, AttrRef):
        if expr.name not in index:
            # The oracle raises KeyError on the first row it reads, not before.
            return lambda row: index[expr.name]
        return itemgetter(index[expr.name])
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, HashCall):
        arg = _compile_expr(expr.arg, index, salt)
        return lambda row: hash_value(arg(row), salt)
    if isinstance(expr, RedactCall):
        return lambda row: REDACTED
    if isinstance(expr, ConcatCall):
        left = _compile_expr(expr.left, index, salt)
        right = _compile_expr(expr.right, index, salt)

        def concat(row: Row) -> Value:
            a, b = left(row), right(row)
            if a.is_null or b.is_null:
                return Value.null()
            return Value.text(a.payload + b.payload)

        return concat
    raise TypeError(f"unknown expression {type(expr).__name__}")


# Within one kind payloads are totally ordered, so each operator's orderings
# in _TRUE_ORDERINGS are exactly where its Python operator holds.
_PAYLOAD_TESTS = {
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}
# `literal op attr` is `attr mirrored-op literal`.
_MIRRORED = {
    CompareOp.EQ: CompareOp.EQ,
    CompareOp.NE: CompareOp.NE,
    CompareOp.LT: CompareOp.GT,
    CompareOp.LE: CompareOp.GE,
    CompareOp.GT: CompareOp.LT,
    CompareOp.GE: CompareOp.LE,
}


def _compile_literal_comparison(position: int, op: CompareOp, literal: Value) -> RowTest:
    """`attr op literal` for the attribute at `position`."""
    kind, payload = literal.kind, literal.payload
    if kind is Kind.NULL:
        return lambda row: None
    test = _PAYLOAD_TESTS[op]

    def compare(row: Row) -> Optional[bool]:
        cell = row[position]
        # A null cell has kind NULL, so this also makes null unknown.
        if cell.kind is not kind:
            return None
        return test(cell.payload, payload)

    return compare


def _compile_predicate(predicate: Predicate, index: Mapping[str, int], salt: str) -> RowTest:
    """A closure giving True, False, or None for unknown (Kleene logic)."""
    if isinstance(predicate, Comparison):
        attr, op, literal = predicate.left, predicate.op, predicate.right
        if isinstance(attr, Literal):
            attr, op, literal = literal, _MIRRORED[op], attr
        if isinstance(attr, AttrRef) and isinstance(literal, Literal) and attr.name in index:
            return _compile_literal_comparison(index[attr.name], op, literal.value)
        left = _compile_expr(predicate.left, index, salt)
        right = _compile_expr(predicate.right, index, salt)
        true_orderings = _TRUE_ORDERINGS[predicate.op]

        def compare(row: Row) -> Optional[bool]:
            ordering = compare_values(left(row), right(row))
            if ordering is Ordering.INCOMPARABLE:
                return None
            return ordering in true_orderings

        return compare
    if isinstance(predicate, LogicalAnd):
        left = _compile_predicate(predicate.left, index, salt)
        right = _compile_predicate(predicate.right, index, salt)

        def conjunction(row: Row) -> Optional[bool]:
            a, b = left(row), right(row)
            if a is False or b is False:
                return False
            if a is None or b is None:
                return None
            return True

        return conjunction
    if isinstance(predicate, LogicalOr):
        left = _compile_predicate(predicate.left, index, salt)
        right = _compile_predicate(predicate.right, index, salt)

        def disjunction(row: Row) -> Optional[bool]:
            a, b = left(row), right(row)
            if a is True or b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return disjunction
    if isinstance(predicate, LogicalNot):
        inner = _compile_predicate(predicate.child, index, salt)

        def negation(row: Row) -> Optional[bool]:
            result = inner(row)
            return None if result is None else not result

        return negation
    raise TypeError(f"unknown predicate {type(predicate).__name__}")


# A column of payloads, one per row, None for null; a compiled selection
# reads the columns of its attributes by name, all of one length.
PayloadColumns = Mapping[str, list]
ColumnFn = Callable[[PayloadColumns, int], list]


def _constant_column(payload: object) -> ColumnFn:
    return lambda columns, count: [payload] * count


def _compile_payload_expr(expr: Expr, schema: RelationSchema) -> tuple[Kind, ColumnFn]:
    """The kind of `expr` over `schema`, and a function giving its payload
    in each row, None for null, as `_compile_expr` gives its value."""
    if isinstance(expr, AttrRef):
        name = expr.name
        return schema.attribute(name).data_type, lambda columns, count: columns[name]
    if isinstance(expr, (Literal, RedactCall)):
        value = expr.value if isinstance(expr, Literal) else REDACTED
        return value.kind, _constant_column(value.payload)
    if isinstance(expr, ConcatCall):
        left = _compile_payload_expr(expr.left, schema)[1]
        right = _compile_payload_expr(expr.right, schema)[1]

        def concat(columns: PayloadColumns, count: int) -> list:
            return [
                None if a is None or b is None else a + b
                for a, b in zip(left(columns, count), right(columns, count))
            ]

        return Kind.TEXT, concat
    raise TypeError(f"cannot compile {type(expr).__name__} over payloads")


def _cell_test(
    predicate: Predicate, schema: RelationSchema
) -> Optional[tuple[str, Callable, object]]:
    """`(name, test, payload)` when `predicate` compares the attribute
    `name` with a literal of the attribute's kind: then it holds of a
    non-null cell exactly when `test(cell, payload)` does. None otherwise."""
    if not isinstance(predicate, Comparison):
        return None
    attr, op, literal = predicate.left, predicate.op, predicate.right
    if isinstance(attr, Literal):
        attr, op, literal = literal, _MIRRORED[op], attr
    if not (isinstance(attr, AttrRef) and isinstance(literal, Literal)):
        return None
    if literal.value.kind is not schema.attribute(attr.name).data_type:
        return None
    return attr.name, _PAYLOAD_TESTS[op], literal.value.payload


def _compile_payload_comparison(comparison: Comparison, schema: RelationSchema) -> ColumnFn:
    cell_test = _cell_test(comparison, schema)
    if cell_test is not None:
        name, test, payload = cell_test
        return lambda columns, count: [
            None if cell is None else test(cell, payload) for cell in columns[name]
        ]
    left_kind, left = _compile_payload_expr(comparison.left, schema)
    right_kind, right = _compile_payload_expr(comparison.right, schema)
    if left_kind is Kind.NULL or left_kind is not right_kind:
        return _constant_column(None)
    test = _PAYLOAD_TESTS[comparison.op]
    return lambda columns, count: [
        None if a is None or b is None else test(a, b)
        for a, b in zip(left(columns, count), right(columns, count))
    ]


def _compile_column_range(predicate: LogicalAnd, schema: RelationSchema) -> Optional[ColumnFn]:
    """A conjunction of two comparisons of one attribute with literals of
    its kind, such as a range read's `id >= K AND id < K + 4`, as one pass
    over its column: a null cell makes both unknown, and so the
    conjunction. None for any other conjunction."""
    first, second = _cell_test(predicate.left, schema), _cell_test(predicate.right, schema)
    if first is None or second is None or first[0] != second[0]:
        return None
    (name, test, payload), (_, second_test, second_payload) = first, second
    return lambda columns, count: [
        None if cell is None else test(cell, payload) and second_test(cell, second_payload)
        for cell in columns[name]
    ]


def _compile_payload_predicate(predicate: Predicate, schema: RelationSchema) -> ColumnFn:
    """`predicate` as a function of the payload columns of the attributes
    of `schema` it reads and their length, giving for each row what
    `_compile_predicate` gives for the row of its values: True, False, or
    None for unknown. `predicate` is one `formats._selection_applies`
    admits, so it type-checks and holds no hash(): every operand's kind is
    known here, and a comparison of two kinds or with null is unknown
    without reading a cell."""
    if isinstance(predicate, Comparison):
        return _compile_payload_comparison(predicate, schema)
    if isinstance(predicate, LogicalNot):
        inner = _compile_payload_predicate(predicate.child, schema)
        return lambda columns, count: [
            None if result is None else not result for result in inner(columns, count)
        ]
    if isinstance(predicate, LogicalAnd):
        one_pass = _compile_column_range(predicate, schema)
        if one_pass is not None:
            return one_pass
        left = _compile_payload_predicate(predicate.left, schema)
        right = _compile_payload_predicate(predicate.right, schema)
        return lambda columns, count: [
            False if a is False or b is False else None if a is None or b is None else True
            for a, b in zip(left(columns, count), right(columns, count))
        ]
    if isinstance(predicate, LogicalOr):
        left = _compile_payload_predicate(predicate.left, schema)
        right = _compile_payload_predicate(predicate.right, schema)
        return lambda columns, count: [
            True if a is True or b is True else None if a is None or b is None else False
            for a, b in zip(left(columns, count), right(columns, count))
        ]
    raise TypeError(f"unknown predicate {type(predicate).__name__}")


def _equality_key(
    predicate: Predicate, index: Mapping[str, int], schema: RelationSchema
) -> Optional[tuple[int, tuple]]:
    """`(position, key)` when `predicate` is `attr = literal` or `literal =
    attr` with a literal of the attribute's own kind: then it holds exactly
    in the rows whose cell at `position` has the `(kind, payload)` key, as
    `_join_key` keys a cell. None otherwise."""
    if not (isinstance(predicate, Comparison) and predicate.op is CompareOp.EQ):
        return None
    attr, literal = predicate.left, predicate.right
    if isinstance(attr, Literal):
        attr, literal = literal, attr
    if not (isinstance(attr, AttrRef) and isinstance(literal, Literal) and attr.name in index):
        return None
    position, value = index[attr.name], literal.value
    if value.kind is not schema.attributes[position].data_type:
        return None
    return position, (value.kind, value.payload)


def _column_index(table: Table, position: int) -> dict[tuple, list[int]]:
    """The positions of table's rows by the `(kind, payload)` of their cell
    at `position`, null cells left out: built once and kept on the frozen
    table, outside its fields, as its table response is. A table is
    immutable, so the index never goes stale; it lives and dies with the
    table, as the one a mediator's join slot keeps."""
    indexes = vars(table)["_indexes"]
    index = indexes.get(position)
    if index is None:
        index = {}
        for row_position, row in enumerate(table.rows):
            cell = row[position]
            if cell.kind is not Kind.NULL:
                index.setdefault((cell.kind, cell.payload), []).append(row_position)
        indexes[position] = index  # built aside, installed by one assignment
    return index


def indexed_columns(table: Table) -> int:
    """The number of table's columns that selections have indexed."""
    return len(vars(table).get("_indexes", ()))


def _indexed_positions(
    predicate: Predicate, table: Table, index: Mapping[str, int]
) -> Optional[tuple[list[int], bool]]:
    """The positions, in row order, of the rows of `table` where `predicate`
    may hold, from the indexes of its columns, and whether it holds in
    every one of them; None when no index answers it, or on the table's
    first selection, which only marks it as selected. An OR of indexed
    equalities holds exactly in the union of their rows; an AND of terms
    holds at most in the rows of one that is such an OR."""
    for conjunct in operands(predicate, LogicalAnd):
        keys = [_equality_key(term, index, table.schema) for term in operands(conjunct, LogicalOr)]
        if None in keys:
            continue
        if "_indexes" not in vars(table):
            vars(table).setdefault("_indexes", {})  # index on the next selection
            return None
        found: set[int] = set()
        for position, key in keys:
            found.update(_column_index(table, position).get(key, ()))
        return sorted(found), conjunct is predicate
    return None


def _join_key(row: Row, positions: list[int]) -> Optional[tuple]:
    """The hash key of a row's join cells; None when one of them is null."""
    key = []
    for position in positions:
        value = row[position]
        if value.kind is Kind.NULL:
            return None
        key.append((value.kind, value.payload))
    return tuple(key)


def execute(
    q: Query,
    db: Mapping[QualifiedName, Table],
    salt: str = "",
    schema: Optional[RelationSchema] = None,
) -> Table:
    """Evaluate q over base tables exactly as `evaluate` does, in the same
    row order. A caller that has typed q may pass the answer's `schema`,
    which the answer takes in place of its own; a projection at the top
    then works out no schema of its own."""
    if schema is not None and not (isinstance(q, Project) and q.items is not None):
        return Table(schema, execute(q, db, salt).rows)
    if isinstance(q, Scan):
        table = db.get(q.name)
        if table is None:
            raise UnknownRelationError(f"unknown relation {q.name}")
        return table.renamed(q.name.relation)
    if isinstance(q, Select):
        child = execute(q.child, db, salt)
        if not child.rows:
            # The oracle never looks at the predicate of an empty input.
            return child
        rows, index = child.rows, _index(child)
        # The scanned table itself, which a caller may keep and select from
        # again, such as a mediator's join slot.
        indexed = None
        if isinstance(q.child, Scan):
            indexed = _indexed_positions(q.predicate, db[q.child.name], index)
        if indexed is not None:
            positions, exact = indexed
            if exact:
                return Table(child.schema, [rows[position] for position in positions])
            rows = [rows[position] for position in positions]
        test = _compile_predicate(q.predicate, index, salt)
        return Table(child.schema, [row for row in rows if test(row) is True])
    if isinstance(q, Project):
        child = execute(q.child, db, salt)
        if q.items is None:
            return child
        if schema is None:
            schema = project_output_schema(child.schema, q.items)
        index = _index(child)
        items = [_compile_expr(item.expr, index, salt) for item in q.items]
        return Table(schema, [tuple([item(row) for item in items]) for row in child.rows])
    if isinstance(q, Join):
        left = execute(q.left, db, salt)
        right = execute(q.right, db, salt)
        schema, dropped = join_output_schema(left.schema, right.schema, q.pairs)
        left_index, right_index = _index(left), _index(right)
        left_positions = [left_index[l] for l, _ in q.pairs]
        right_positions = [right_index[r] for _, r in q.pairs]
        keep = [pos for pos in range(len(right.schema.attributes)) if pos not in dropped]
        buckets: dict[tuple, list[Row]] = {}
        for right_row in right.rows:
            key = _join_key(right_row, right_positions)
            if key is not None:
                buckets.setdefault(key, []).append(tuple([right_row[pos] for pos in keep]))
        rows = []
        for left_row in left.rows:
            matches = buckets.get(_join_key(left_row, left_positions))
            if matches:
                rows.extend([left_row + kept for kept in matches])
        return Table(schema, rows)
    if isinstance(q, Union):
        left = execute(q.left, db, salt)
        right = execute(q.right, db, salt)
        return Table(union_output_schema(left.schema, right.schema), left.rows + right.rows)
    raise TypeError(f"unknown query node {type(q).__name__}")
