"""Planner: fetch/residual splitting, predicate pushdown, soundness oracles."""

from __future__ import annotations

import random
from itertools import product

import pytest

from mmw.errors import ConfigError, TypeCheckError, UnknownRelationError
from mmw.planner import (
    Placeholder,
    Unflattenable,
    bind_literals,
    execute_plan,
    flatten_query,
    lift_literals,
    plan,
    push_down_selects,
)
from mmw.query.ast import (
    Join,
    Literal,
    Project,
    QualifiedName,
    Scan,
    Select,
    Union,
    children,
    contains_hash_call,
    namespaces,
    scan_names,
    walk,
)
from mmw.query.evaluate import evaluate
from mmw.query.parse import parse_query
from mmw.query.render import render_query
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value, bag_equal
from mmw.views import ViewDeclaration, check_views, parse_view_source, unfold
from support import make_environment, plan_and_evaluate, random_block, random_database, random_query

W1_R = QualifiedName("w1", "r")
W2_S = QualifiedName("w2", "s")
ENV = {
    W1_R: RelationSchema(
        "r", [Attribute("k", Kind.INTEGER), Attribute("a", Kind.TEXT)]
    ),
    W2_S: RelationSchema(
        "s", [Attribute("j", Kind.INTEGER), Attribute("b", Kind.TEXT)]
    ),
}
BOUND = {"w1", "w2"}


def table(qname, *rows):
    schema = ENV[qname]
    built = []
    for k, t in rows:
        built.append((Value.integer(k), Value.text(t)))
    return Table(schema, built)


def small_db():
    return {
        W1_R: table(W1_R, (1, "x"), (2, "y"), (1, "z")),
        W2_S: table(W2_S, (1, "p"), (3, "q"), (2, "r"), (1, "s")),
    }


class TestPlanShapes:
    def test_single_namespace_is_one_fetch(self):
        q = parse_query("SELECT a FROM w1.r WHERE k = 1")
        exec_plan = plan(q, [], BOUND, ENV)
        assert len(exec_plan.fetches) == 1
        assert exec_plan.fetches[0].namespace == "w1"
        assert isinstance(exec_plan.residual, Scan)

    def test_cross_namespace_join_pushes_single_side_predicate(self):
        q = parse_query("SELECT * FROM w1.r JOIN w2.s ON k = j WHERE a = 'x'")
        exec_plan = plan(q, [], BOUND, ENV)
        assert len(exec_plan.fetches) == 2
        by_namespace = {step.namespace: step.query for step in exec_plan.fetches}
        assert "WHERE" in render_query(by_namespace["w1"])
        assert "WHERE" not in render_query(by_namespace["w2"])
        assert "WHERE" not in render_query(exec_plan.residual)

    def test_view_reading_two_wrappers_yields_two_fetches_and_residual_join(self):
        decl = ViewDeclaration(
            "z", "combined", parse_query("SELECT * FROM w1.r JOIN w2.s ON k = j")
        )
        q = parse_query("SELECT * FROM z.combined")
        exec_plan = plan(q, [decl], BOUND, ENV)
        assert sorted(step.namespace for step in exec_plan.fetches) == ["w1", "w2"]
        # The join of the two fetches is a join step, which the residual scans.
        (step,) = exec_plan.joins
        assert isinstance(step.query, Join)
        assert scan_names(step.query) == [fetch.intermediate for fetch in exec_plan.fetches]
        assert scan_names(exec_plan.residual) == [step.intermediate]

    def test_fetch_queries_are_renderable_and_single_namespace(self):
        rng = random.Random(1212)
        env = make_environment(rng, namespaces=("w1", "w2", "w3"))
        bound = {"w1", "w2", "w3"}
        for _ in range(150):
            q = random_query(rng, env)
            exec_plan = plan(q, [], bound, env)
            for step in exec_plan.fetches:
                assert namespaces(step.query) == {step.namespace}
                assert len(list(scan_names(step.query))) == 1
                text = render_query(step.query)  # grammar-shaped by construction
                assert parse_query(text) == step.query
                assert not contains_hash_call(step.query)

    def test_missing_binding_is_an_error(self):
        q = parse_query("SELECT * FROM w9.r")
        with pytest.raises(ConfigError) as err:
            plan(q, [], BOUND, {QualifiedName("w9", "r"): ENV[W1_R]})
        assert "w9" in str(err.value)

    def test_unknown_relation_in_a_bound_namespace_is_unknown_relation(self):
        q = parse_query("SELECT * FROM w1.zz")
        with pytest.raises(UnknownRelationError) as err:
            plan(q, [], BOUND, ENV)
        assert "w1.zz" in str(err.value)

    def test_hash_projection_stays_in_residual(self):
        decl = ViewDeclaration("m", "v", parse_query("SELECT hash(a) AS ah, k FROM w1.r"))
        q = parse_query("SELECT * FROM m.v")
        exec_plan = plan(q, [decl], BOUND, ENV)
        for step in exec_plan.fetches:
            assert not contains_hash_call(step.query)
        assert contains_hash_call(exec_plan.residual)

    def test_hash_result_uses_planner_salt_not_fetch_salt(self):
        decl = ViewDeclaration("m", "v", parse_query("SELECT hash(a) AS ah FROM w1.r"))
        q = parse_query("SELECT * FROM m.v")
        db = small_db()
        exec_plan = plan(q, [decl], BOUND, ENV)
        # Fetches run under a *different* salt, as a foreign component would.
        result = execute_plan(
            exec_plan, lambda step: evaluate(step.query, db, salt="wrapper_salt"), salt="mediator"
        )
        oracle = evaluate(unfold(q, [decl]), db, salt="mediator")
        assert bag_equal(result, oracle)


class TestPushdownRewrite:
    def test_pushdown_never_changes_results(self):
        rng = random.Random(1313)
        env = make_environment(rng, namespaces=("w1", "w2"))
        for _ in range(150):
            q = random_query(rng, env)
            db = random_database(rng, env)
            plain = evaluate(q, db, salt="s")
            sunk = evaluate(push_down_selects(q, env), db, salt="s")
            assert bag_equal(plain, sunk)

    def test_pushed_vs_unpushed_plans_agree(self):
        rng = random.Random(1414)
        env = make_environment(rng, namespaces=("w1", "w2"))
        bound = {"w1", "w2"}
        for _ in range(120):
            q = random_query(rng, env)
            db = random_database(rng, env)
            pushed = plan_and_evaluate(q, [], bound, env, db, push_predicates=True)
            unpushed = plan_and_evaluate(q, [], bound, env, db, push_predicates=False)
            assert bag_equal(pushed, unpushed)


class TestPlanSoundness:
    def test_random_corpus_against_reference_evaluator(self):
        rng = random.Random(1515)
        for case in range(300):
            count = rng.randint(1, 3)
            names = ("w1", "w2", "w3")[:count]
            env = make_environment(rng, namespaces=names)
            bound = set(names)
            views = [
                ViewDeclaration("m", f"v{i}", random_block(rng, env, max_joins=1))
                for i in range(rng.randint(0, 3))
            ]
            from mmw.views import check_views

            view_env = check_views(views, env)
            query_env = {**view_env} if views and rng.random() < 0.7 else dict(env)
            if not query_env:
                query_env = dict(env)
            q = random_query(rng, query_env)
            db = random_database(rng, env)
            got = plan_and_evaluate(q, views, bound, env, db, salt="s")
            oracle = evaluate(unfold(q, views), db, salt="s")
            assert bag_equal(got, oracle), f"case {case}: {render_query(q)}"

    def test_exhaustive_two_relations(self):
        # Every database with two relations of up to 4 rows over a fixed
        # 2-attribute schema and a {0,1} domain.
        schema_r = RelationSchema(
            "r", [Attribute("k", Kind.INTEGER), Attribute("v", Kind.INTEGER)]
        )
        schema_s = RelationSchema(
            "s", [Attribute("j", Kind.INTEGER), Attribute("w", Kind.INTEGER)]
        )
        env = {W1_R: schema_r, W2_S: schema_s}
        bound = {"w1", "w2"}
        domain = [
            (Value.integer(a), Value.integer(b)) for a in (0, 1) for b in (0, 1)
        ]

        def bags(max_rows):
            # All multisets of up to max_rows rows over the 4-row domain.
            found = [()]
            frontier = [()]
            for _ in range(max_rows):
                nxt = []
                for rows in frontier:
                    start = domain.index(rows[-1]) if rows else 0
                    for pos in range(start, len(domain)):
                        nxt.append(rows + (domain[pos],))
                found.extend(nxt)
                frontier = nxt
            return found

        queries = [
            parse_query("SELECT * FROM w1.r JOIN w2.s ON k = j"),
            parse_query("SELECT v, w FROM w1.r JOIN w2.s ON k = j WHERE v = 1"),
            parse_query("SELECT k AS x FROM w1.r UNION SELECT j AS x FROM w2.s"),
        ]
        row_bags = bags(4)
        checked = 0
        for rows_r, rows_s in product(row_bags, row_bags):
            db = {W1_R: Table(schema_r, rows_r), W2_S: Table(schema_s, rows_s)}
            for q in queries:
                oracle = evaluate(q, db)
                pushed = plan_and_evaluate(q, [], bound, env, db)
                unpushed = plan_and_evaluate(q, [], bound, env, db, push_predicates=False)
                assert bag_equal(pushed, oracle)
                assert bag_equal(unpushed, oracle)
            checked += 1
        assert checked == len(row_bags) ** 2


class TestPlanSoundnessExhaustive:
    def test_three_relations_small_domain(self):
        # Every database over three one-attribute relations with up to four
        # rows each from a {0,1} domain (15 multisets per relation).
        schemas = {
            QualifiedName(f"w{i}", "r"): RelationSchema("r", [Attribute(f"a{i}", Kind.INTEGER)])
            for i in (1, 2, 3)
        }
        bound = {"w1", "w2", "w3"}

        def bags(max_rows=4):
            built = []
            for zeros in range(max_rows + 1):
                for ones in range(max_rows + 1 - zeros):
                    built.append(
                        tuple([(Value.integer(0),)] * zeros + [(Value.integer(1),)] * ones)
                    )
            return built

        queries = [
            parse_query(
                "SELECT * FROM w1.r JOIN w2.r ON a1 = a2 JOIN w3.r ON a1 = a3"
            ),
            parse_query(
                "SELECT a1 AS x FROM w1.r UNION SELECT a2 AS x FROM w2.r "
                "UNION SELECT a3 AS x FROM w3.r"
            ),
        ]
        combos = bags()
        assert len(combos) == 15
        for rows1 in combos:
            for rows2 in combos:
                for rows3 in combos:
                    db = {
                        QualifiedName("w1", "r"): Table(schemas[QualifiedName("w1", "r")], rows1),
                        QualifiedName("w2", "r"): Table(schemas[QualifiedName("w2", "r")], rows2),
                        QualifiedName("w3", "r"): Table(schemas[QualifiedName("w3", "r")], rows3),
                    }
                    for q in queries:
                        oracle = evaluate(unfold(q, []), db)
                        got = plan_and_evaluate(q, [], bound, schemas, db)
                        assert bag_equal(got, oracle)


class TestFlatten:
    def test_join_chain_merging_with_multi_scan_fragments(self):
        # Joining a view whose body itself joins two relations of the same
        # wrapper: each relation is its own fetch and both joins run in the
        # residual.
        env = {
            QualifiedName("w1", "r0"): RelationSchema(
                "r0", [Attribute("a0", Kind.INTEGER), Attribute("t0", Kind.TEXT)]
            ),
            QualifiedName("w1", "r1"): RelationSchema(
                "r1", [Attribute("a1", Kind.INTEGER), Attribute("t1", Kind.TEXT)]
            ),
            QualifiedName("w1", "r2"): RelationSchema(
                "r2", [Attribute("a2", Kind.INTEGER), Attribute("t2", Kind.TEXT)]
            ),
        }
        bound = {"w1"}
        views = [
            ViewDeclaration(
                "m", "pair", parse_query("SELECT * FROM w1.r0 JOIN w1.r1 ON a0 = a1")
            ),
            ViewDeclaration("m", "single", parse_query("SELECT a2, t2 FROM w1.r2")),
        ]
        q = parse_query("SELECT t0, t1, t2 FROM m.single JOIN m.pair ON a2 = a0")
        rng = random.Random(888)

        def tbl(qn):
            schema = env[qn]
            rows = [
                (Value.integer(rng.randint(0, 2)), Value.text(f"{qn.relation}{i}"))
                for i in range(4)
            ]
            return Table(schema, rows)

        db = {qn: tbl(qn) for qn in env}
        exec_plan = plan(q, views, bound, env)
        assert len(exec_plan.fetches) == 3
        texts = sorted(render_query(step.query) for step in exec_plan.fetches)
        for text, relation in zip(texts, ("r0", "r1", "r2")):
            assert text.startswith("SELECT ") and text.endswith(f" FROM w1.{relation}")
        got = execute_plan(exec_plan, lambda step: evaluate(step.query, db))
        oracle = evaluate(unfold(q, views), db)
        assert bag_equal(got, oracle)

    def test_hash_keyed_join_falls_back_to_residual_join(self):
        decl = ViewDeclaration(
            "m", "hashed", parse_query("SELECT hash(a) AS ah, k FROM w1.r")
        )
        other = ViewDeclaration(
            "m", "codes", parse_query("SELECT hash(b) AS bh, j FROM w2.s")
        )
        q = parse_query("SELECT k, j FROM m.hashed JOIN m.codes ON ah = bh")
        db = small_db()
        exec_plan = plan(q, [decl, other], BOUND, ENV)
        for step in exec_plan.fetches:
            assert not contains_hash_call(step.query)
        got = execute_plan(exec_plan, lambda step: evaluate(step.query, db), salt="s")
        oracle = evaluate(unfold(q, [decl, other]), db, salt="s")
        assert bag_equal(got, oracle)

    def test_unflattenable_same_relation_join_falls_back(self):
        decl = ViewDeclaration("m", "v", parse_query("SELECT k AS k2, a AS a2 FROM w1.r"))
        q = parse_query("SELECT * FROM m.v JOIN w1.r ON k2 = k")
        db = small_db()
        exec_plan = plan(q, [decl], BOUND, ENV)
        got = execute_plan(exec_plan, lambda step: evaluate(step.query, db))
        oracle = evaluate(unfold(q, [decl]), db)
        assert bag_equal(got, oracle)

    def test_flatten_preserves_semantics_on_random_trees(self):
        rng = random.Random(1616)
        env = make_environment(rng, namespaces=("w1",), relations_per_namespace=3)

        def has_join_or_union(node):
            return isinstance(node, (Join, Union)) or any(map(has_join_or_union, children(node)))

        flattened = refused = 0
        for _ in range(200):
            q = random_query(rng, env)
            db = random_database(rng, env)
            if has_join_or_union(q):
                with pytest.raises(Unflattenable):
                    flatten_query(q, env)
                refused += 1
                continue
            if contains_hash_call(q):
                continue
            flat, schema = flatten_query(q, env)
            flattened += 1
            result = evaluate(flat, db, "s")
            assert result.schema == schema
            assert bag_equal(evaluate(q, db, "s"), result)
            render_query(flat)  # must be grammar-shaped
        assert flattened > 40 and refused > 100


class TestPlanShapeReuse:
    def test_federated_view_read_keeps_one_projection_over_the_join_step(self):
        # A select list over a view with the same columns repeats the view's
        # projection; the residual keeps one of the two.
        env = {
            QualifiedName("sales", "orders"): RelationSchema(
                "orders",
                [
                    Attribute("order_id", Kind.INTEGER),
                    Attribute("customer_id", Kind.INTEGER),
                    Attribute("amount", Kind.DECIMAL),
                ],
            ),
            QualifiedName("crm", "customers"): RelationSchema(
                "customers", [Attribute("customer_id", Kind.INTEGER), Attribute("name", Kind.TEXT)]
            ),
        }
        views = parse_view_source(
            "CREATE VIEW enriched AS SELECT order_id, amount, name "
            "FROM sales.orders JOIN crm.customers ON customer_id = customer_id;",
            "commerce",
        )
        q = parse_query(
            "SELECT order_id, amount, name FROM commerce.enriched WHERE order_id = 3 OR name = 'ada'"
        )
        exec_plan = plan(q, views, {"sales", "crm"}, env)
        residual = exec_plan.residual
        assert sum(isinstance(node, Project) for node in walk(residual)) == 1
        assert isinstance(residual, Project) and isinstance(residual.child, Select)
        (step,) = exec_plan.joins
        assert residual.child.child == Scan(step.intermediate)
        orders, customers = env
        db = {
            orders: Table(
                env[orders],
                [
                    (Value.integer(oid), Value.integer(cid), Value.decimal(oid))
                    for oid, cid in ((1, 1), (2, 2), (3, 1), (4, 3))
                ],
            ),
            customers: Table(
                env[customers],
                [(Value.integer(cid), Value.text(name)) for cid, name in ((1, "bo"), (2, "ada"))],
            ),
        }
        got = execute_plan(exec_plan, lambda step: evaluate(step.query, db))
        assert len(got.rows) == 2
        assert got.rows == evaluate(unfold(q, views), db).rows

    def test_binding_the_plan_of_the_lifted_query_gives_the_plan_of_the_query(self):
        # Planning reads literal kinds only, so planning a query's shape once
        # and binding its literals equals planning the query, view literals
        # included.
        rng = random.Random(1717)
        lifted_any = 0
        for case in range(200):
            names = ("w1", "w2", "w3")[: rng.randint(1, 3)]
            env = make_environment(rng, namespaces=names)
            views = [
                ViewDeclaration("m", f"v{i}", random_block(rng, env, max_joins=1))
                for i in range(rng.randint(0, 3))
            ]
            try:
                view_env = check_views(views, env)
            except (TypeCheckError, UnknownRelationError):
                continue
            q = random_query(rng, view_env if view_env and rng.random() < 0.7 else env)
            lifted, values = lift_literals(q)
            lifted_any += bool(values)
            assert all(
                isinstance(node.value.payload, Placeholder)
                for node in _literals(lifted)
            )
            try:
                expected = plan(q, views, set(names), env)
            except (ConfigError, TypeCheckError, UnknownRelationError) as exc:
                with pytest.raises(type(exc)) as caught:
                    plan(lifted, views, set(names), env)
                assert caught.value.message == exc.message
                continue
            prepared = plan(lifted, views, set(names), env)
            bound = bind_literals(prepared, values)
            assert bound == expected, case
            # A step without placeholders comes back as it is, so what a
            # caller keeps of it holds for every binding.
            for kept, step in zip(prepared.fetches, bound.fetches):
                placeholders = any(
                    isinstance(node.value.payload, Placeholder) for node in _literals(kept.query)
                )
                assert kept.holds_placeholder == placeholders, case
                assert (step is kept) == (not (values and placeholders)), case
        assert lifted_any > 100


def _literals(node):
    """Every literal of node's tree, predicates and projection items included."""
    found = []
    for current in walk(node):
        if isinstance(current, Literal):
            found.append(current)
        elif isinstance(current, Select):
            found.extend(_literals(current.predicate))
        elif isinstance(current, Project):
            for item in current.items or ():
                found.extend(_literals(item.expr))
    return found
