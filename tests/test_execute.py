"""The production executor against the reference evaluator.

`execute` must return what `evaluate` returns: the same schema and the same
rows in the same order, or an error of the same class.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time

import pytest

import mmw.query.execute
from mmw.errors import TypeCheckError, UnknownRelationError
from mmw.query.ast import (
    AttrRef,
    CompareOp,
    Comparison,
    ConcatCall,
    Expr,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Predicate,
    Project,
    ProjectItem,
    QualifiedName,
    Query,
    Scan,
    Select,
    Union,
    contains_hash_call,
    walk,
)
from mmw.query.evaluate import evaluate
from mmw.query.execute import execute, indexed_columns
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
from support import make_environment, random_database, random_query

L, R = QualifiedName("w", "l"), QualifiedName("w", "r")


def assert_same_as_oracle(q, db, salt=""):
    try:
        oracle = evaluate(q, db, salt)
    except Exception as exc:
        with pytest.raises(type(exc)):
            execute(q, db, salt)
        return None
    got = execute(q, db, salt)
    assert got.schema == oracle.schema
    assert got.rows == oracle.rows  # in order, not only as a bag
    return oracle


def _mix_kinds(rng: random.Random, db):
    """Swap some integer cells for a boolean or decimal with an equal payload.

    Python finds 1 == True == Decimal(1), so a join key that drops the kind
    would match these cells where the oracle finds them incomparable.
    """
    mixed = {}
    for name, table in db.items():
        rows = []
        for row in table.rows:
            cells = list(row)
            for position, value in enumerate(cells):
                if value.kind is Kind.INTEGER and rng.random() < 0.3:
                    if value.payload in (0, 1):
                        cells[position] = Value.boolean(bool(value.payload))
                    else:
                        cells[position] = Value.decimal(value.payload)
            rows.append(tuple(cells))
        mixed[name] = Table(table.schema, rows)
    return mixed


class TestDifferential:
    QUERIES = 2400

    def test_random_queries_match_the_oracle_row_for_row(self):
        rng = random.Random(2011)
        seen = {"join": 0, "chained": 0, "union": 0, "hash": 0, "rows": 0, "mixed": 0}
        env = None
        for count in range(self.QUERIES):
            if count % 40 == 0:
                env = make_environment(rng, ("w1", "w2", "w3"))
            q = random_query(rng, env, max_joins=2)
            db = random_database(rng, env, max_rows=rng.choice((4, 8, 14)))
            if rng.random() < 0.25:
                db = _mix_kinds(rng, db)
                seen["mixed"] += 1
            nodes = list(walk(q))
            joins = sum(isinstance(node, Join) for node in nodes)
            seen["join"] += joins > 0
            seen["chained"] += joins > 1
            seen["union"] += any(isinstance(node, Union) for node in nodes)
            seen["hash"] += contains_hash_call(q)
            for salt in ("", "pepper"):
                oracle = assert_same_as_oracle(q, db, salt)
                seen["rows"] += len(oracle.rows) if oracle is not None else 0
        assert seen["join"] >= 600 and seen["chained"] >= 150, seen
        assert seen["union"] >= 200 and seen["hash"] >= 400 and seen["mixed"] >= 400, seen
        assert seen["rows"] >= 10_000, seen

    def test_literal_comparisons_match_the_oracle_for_every_op_and_kind(self):
        # One column holding a cell of every kind, null included, and equal
        # payloads of different kinds (Python finds 1 == True == Decimal(1)),
        # compared with a literal of every kind on either side of every
        # operator, bare and negated, so unknown and false stay apart.
        cells = [
            Value.null(),
            Value.boolean(False),
            Value.boolean(True),
            Value.integer(0),
            Value.integer(1),
            Value.integer(2),
            Value.decimal("1"),
            Value.decimal("1.5"),
            Value.text(""),
            Value.text("1"),
            Value.text("b"),
            Value.timestamp("2024-01-01T00:00:00Z"),
            Value.timestamp("2024-06-01T00:00:00Z"),
        ]
        schema = RelationSchema("l", [Attribute("c", Kind.INTEGER, nullable=True)])
        db = {L: Table(schema, [(cell,) for cell in cells])}
        kept = 0
        for literal in cells:
            for op in CompareOp:
                for predicate in (
                    Comparison(AttrRef("c"), op, Literal(literal)),
                    Comparison(Literal(literal), op, AttrRef("c")),
                ):
                    for test in (predicate, LogicalNot(predicate)):
                        kept += len(assert_same_as_oracle(Select(Scan(L), test), db).rows)
        assert kept > 300

    def test_ill_typed_queries_fail_with_the_oracle_error_class(self):
        schema = RelationSchema("l", [Attribute("k", Kind.INTEGER), Attribute("s", Kind.TEXT)])
        db = {L: Table(schema, [(Value.integer(1), Value.text("a"))])}
        empty = {L: Table(schema, [])}
        cases = [
            Scan(QualifiedName("w", "missing")),
            Select(Scan(L), Comparison(AttrRef("nope"), CompareOp.EQ, Literal(Value.integer(1)))),
            Select(
                Scan(L),
                Comparison(
                    ConcatCall(AttrRef("k"), AttrRef("k")), CompareOp.EQ, AttrRef("nope")
                ),
            ),
            Project(Scan(L), [ProjectItem(AttrRef("nope"), "x")]),
            Project(Scan(L), [ProjectItem(ConcatCall(AttrRef("k"), AttrRef("s")), "x")]),
            Join(Scan(L), Scan(L), [("k", "k")]),
            Union(Scan(L), Project(Scan(L), [ProjectItem(AttrRef("k"), "k")])),
        ]
        for q in cases:
            for database in (db, empty):
                assert_same_as_oracle(q, database)
        with pytest.raises(UnknownRelationError):
            execute(cases[0], db)
        with pytest.raises(KeyError):
            execute(cases[1], db)
        with pytest.raises(ValueError):
            execute(cases[2], db)  # concat of integers fails before the unknown name
        with pytest.raises(TypeCheckError):
            execute(cases[3], db)


def _table(name, kinds, rows):
    schema = RelationSchema(name, [Attribute(f"{name}{i}", kind, nullable=True) for i, kind in enumerate(kinds)])
    return Table(schema, rows)


def _join(left, right, pairs):
    q = Join(Scan(L), Scan(R), pairs)
    return list(assert_same_as_oracle(q, {L: left, R: right}).rows)


I, T, N = Value.integer, Value.text, Value.null()


class TestHashJoin:
    def test_null_keys_never_match(self):
        left = _table("l", [Kind.INTEGER, Kind.TEXT], [(N, T("a")), (I(1), T("b"))])
        right = _table("r", [Kind.INTEGER, Kind.TEXT], [(N, T("x")), (I(1), T("y"))])
        assert _join(left, right, [("l0", "r0")]) == [(I(1), T("b"), T("y"))]

    def test_mixed_kinds_with_equal_payloads_never_match(self):
        left = _table("l", [Kind.INTEGER], [(I(1),), (I(0),), (I(2),)])
        right = _table(
            "r",
            [Kind.INTEGER, Kind.TEXT],
            [
                (Value.boolean(True), T("true")),
                (Value.boolean(False), T("false")),
                (Value.decimal(2), T("decimal")),
                (I(2), T("integer")),
            ],
        )
        assert _join(left, right, [("l0", "r0")]) == [(I(2), T("integer"))]

    def test_duplicate_keys_give_the_bag_product_in_nested_loop_order(self):
        left = _table("l", [Kind.INTEGER, Kind.TEXT], [(I(1), T("a")), (I(2), T("b")), (I(1), T("c"))])
        right = _table("r", [Kind.INTEGER, Kind.TEXT], [(I(1), T("x")), (I(1), T("y")), (I(2), T("z"))])
        assert _join(left, right, [("l0", "r0")]) == [
            (I(1), T("a"), T("x")),
            (I(1), T("a"), T("y")),
            (I(2), T("b"), T("z")),
            (I(1), T("c"), T("x")),
            (I(1), T("c"), T("y")),
        ]

    def test_two_pair_join_needs_both_keys_equal(self):
        left = _table("l", [Kind.INTEGER, Kind.TEXT], [(I(1), T("a")), (I(1), T("b")), (I(2), T("a"))])
        right = _table(
            "r", [Kind.INTEGER, Kind.TEXT, Kind.TEXT], [(I(1), T("a"), T("x")), (I(1), T("c"), T("y"))]
        )
        assert _join(left, right, [("l0", "r0"), ("l1", "r1")]) == [(I(1), T("a"), T("x"))]

    def test_equal_decimals_from_different_renderings_match(self):
        left = _table("l", [Kind.DECIMAL], [(Value.decimal("1.0"),), (Value.decimal("2.50"),)])
        right = _table("r", [Kind.DECIMAL, Kind.TEXT], [(Value.decimal(1), T("one")), (Value.decimal("2.5"), T("half"))])
        assert _join(left, right, [("l0", "r0")]) == [
            (Value.decimal("1.0"), T("one")),
            (Value.decimal("2.50"), T("half")),
        ]

    def test_join_time_grows_linearly(self):
        q = Join(Scan(L), Scan(R), [("l0", "r0")])

        def database(n):
            rng = random.Random(n)
            keys = list(range(n))
            rng.shuffle(keys)
            left = _table("l", [Kind.INTEGER, Kind.INTEGER], [(I(k), I(k * 2)) for k in keys])
            rng.shuffle(keys)
            right = _table("r", [Kind.INTEGER, Kind.TEXT], [(I(k), T(str(k))) for k in keys])
            return {L: left, R: right}

        def timed(db):
            # Like timeit: no garbage collection inside the timed call.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = execute(q, db)
                return time.perf_counter() - start, result
            finally:
                gc.enable()

        small_db, large_db = database(2_000), database(20_000)
        small = large = float("inf")
        for _ in range(5):  # interleaved, so a slow spell of the host hits both sizes
            small = min(small, timed(small_db)[0])
            elapsed, result = timed(large_db)
            large = min(large, elapsed)
        by_key = {row[0].payload: row[1] for row in large_db[R].rows}
        assert list(result.rows) == [row + (by_key[row[0].payload],) for row in large_db[L].rows]
        assert large / small < 30, (small, large)


class _Strange(Query, Predicate, Expr):
    """A node of no known class."""


class TestUnknownClasses:
    def test_unknown_node_predicate_and_expression_raise_type_error(self):
        schema = RelationSchema("l", [Attribute("k", Kind.INTEGER)])
        db = {L: Table(schema, [(I(1),)])}
        strange_comparison = Comparison(_Strange(), CompareOp.EQ, Literal(I(1)))
        for q in (
            _Strange(),
            Select(Scan(L), _Strange()),
            Select(Scan(L), strange_comparison),
            Project(Scan(L), [ProjectItem(_Strange(), "x")]),
        ):
            with pytest.raises(TypeError):
                evaluate(q, db)
            with pytest.raises(TypeError):
                execute(q, db)

    def test_predicate_of_an_empty_input_is_never_compiled(self):
        db = {L: Table(RelationSchema("l", [Attribute("k", Kind.INTEGER)]), [])}
        q = Select(Scan(L), _Strange())
        assert execute(q, db).rows == evaluate(q, db).rows == ()


# A kept table's columns: one per kind an index keys, all nullable. Each
# column's cells come from a small pool, so payloads repeat, and now and then
# a cell of another kind with an equal payload stands in, as `_mix_kinds`
# makes them: integer 1, decimal 1 and boolean true must stay apart.
KEPT = QualifiedName("m", "kept")
KEPT_SCHEMA = RelationSchema(
    "kept",
    [
        Attribute("i", Kind.INTEGER, nullable=True),
        Attribute("d", Kind.DECIMAL, nullable=True),
        Attribute("b", Kind.BOOLEAN, nullable=True),
        Attribute("s", Kind.TEXT, nullable=True),
    ],
)
CELL_POOLS = {
    "i": [I(0), I(1), I(2), I(-3)],
    "d": [Value.decimal("1"), Value.decimal("0.5"), Value.decimal("-2.25")],
    "b": [Value.boolean(True), Value.boolean(False)],
    "s": [T(""), T("a"), T("it's"), T("1")],
}
STRANGERS = [I(1), Value.decimal("1"), Value.boolean(True), T("1")]
OPS = [CompareOp.EQ] * 4 + [CompareOp.NE, CompareOp.LT, CompareOp.GE]


def random_kept_table(rng: random.Random, rows: int) -> Table:
    def cell(name):
        roll = rng.random()
        if roll < 0.15:
            return N
        if roll < 0.25:
            return rng.choice(STRANGERS)
        return rng.choice(CELL_POOLS[name])

    names = KEPT_SCHEMA.attribute_names
    return Table(KEPT_SCHEMA, [tuple(cell(name) for name in names) for _ in range(rows)])


def random_kept_predicate(rng: random.Random, depth: int = 3) -> Predicate:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        name = rng.choice(KEPT_SCHEMA.attribute_names)
        pick = rng.random()
        pool = [N] if pick < 0.08 else STRANGERS if pick < 0.2 else CELL_POOLS[name]
        attr, value = AttrRef(name), Literal(rng.choice(pool))
        op = rng.choice(OPS)
        return Comparison(value, op, attr) if rng.random() < 0.3 else Comparison(attr, op, value)
    if roll < 0.9:
        left, right = random_kept_predicate(rng, depth - 1), random_kept_predicate(rng, depth - 1)
        return (LogicalOr if roll < 0.6 else LogicalAnd)(left, right)
    return LogicalNot(random_kept_predicate(rng, depth - 1))


class TestIndexedSelection:
    """A selection over a scan of a table a caller keeps, such as a
    mediator's join slot, answers OR and AND mixes of `attr = literal` from
    an index of the table's column once it is selected from a second time.
    Its rows, in order, are the oracle's, before the index and after it."""

    def test_seeded_selections_over_one_kept_table_match_the_oracle(self):
        rng = random.Random(3200)
        indexed = 0
        for case in range(300):
            table = random_kept_table(rng, rng.choice([0, 1, 5, 40]))
            db = {KEPT: table}
            for _ in range(6):
                q = Select(Scan(KEPT), random_kept_predicate(rng))
                if rng.random() < 0.3:
                    q = Project(q, [ProjectItem(AttrRef("s"), "s"), ProjectItem(AttrRef("i"), "n")])
                for _ in range(3):  # marks, then builds an index, then reads it
                    assert_same_as_oracle(q, db)
            indexed += indexed_columns(table) > 0
        assert indexed > 150

    def test_an_or_of_equalities_reads_only_the_index(self, monkeypatch):
        table = random_kept_table(random.Random(3201), 50)
        db = {KEPT: table}
        q = Select(
            Scan(KEPT),
            LogicalOr(
                Comparison(AttrRef("i"), CompareOp.EQ, Literal(I(1))),
                Comparison(Literal(T("a")), CompareOp.EQ, AttrRef("s")),
            ),
        )
        assert_same_as_oracle(q, db)
        assert vars(table)["_indexes"] == {}  # marked on the first selection
        assert_same_as_oracle(q, db)
        assert sorted(vars(table)["_indexes"]) == [0, 3]
        # A third selection reads the kept index and compiles no predicate.
        def refuse(*args):
            raise AssertionError("an indexed OR of equalities compiled its predicate")

        monkeypatch.setattr(mmw.query.execute, "_compile_predicate", refuse)
        assert_same_as_oracle(q, db)

    def test_four_threads_on_one_kept_table_match_the_oracle(self):
        rng = random.Random(3202)
        table = random_kept_table(rng, 60)
        db = {KEPT: table}
        cases = []
        for _ in range(80):
            q = Select(Scan(KEPT), random_kept_predicate(rng))
            cases.append((q, evaluate(q, db).rows))
        failures: list[str] = []
        interval = sys.getswitchinterval()

        def reader(seed: int) -> None:
            order = random.Random(seed)
            try:
                for _ in range(3):
                    for q, expected in order.sample(cases, len(cases)):
                        if execute(q, db).rows != expected:
                            failures.append(repr(q.predicate))
            except Exception as exc:  # reported below, not lost in the thread
                failures.append(repr(exc))

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert indexed_columns(table) == 4
