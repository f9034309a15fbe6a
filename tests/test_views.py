"""View declarations, unfolding, global schema derivation."""

from __future__ import annotations

import random

import pytest

import mmw.views
from mmw.errors import (
    ConfigError,
    QuerySyntaxError,
    TypeCheckError,
    UnknownRelationError,
    ViewCycleError,
)
from mmw.query.ast import Project, ProjectItem, AttrRef, QualifiedName, Scan
from mmw.query.evaluate import evaluate
from mmw.query.infer import infer_schema
from mmw.query.parse import parse_query
from mmw.relational import Attribute, Kind, RelationSchema, bag_equal
from mmw.runtime.mesh import Mesh
from mmw.runtime.topology import load_topology
from mmw.views import (
    ViewDeclaration,
    check_views,
    derive_global_schema,
    parse_view_decl,
    parse_view_source,
    unfold,
)
from support import make_environment, random_block, random_database, random_query

BASE = RelationSchema(
    "r",
    [
        Attribute("a", Kind.INTEGER),
        Attribute("ssn", Kind.TEXT, tags=("identifying",)),
    ],
)
ENV = {QualifiedName("s", "r"): BASE}


def view(namespace: str, name: str, text: str) -> ViewDeclaration:
    return parse_view_decl(f"CREATE VIEW {name} AS {text}", namespace)


class TestParseViewDecl:
    def test_simple(self):
        decl = parse_view_decl("CREATE VIEW orders AS SELECT * FROM w1.orders", "m")
        assert decl.name == "orders"
        assert decl.namespace == "m"
        assert decl.body == Project(Scan(QualifiedName("w1", "orders")), None)

    def test_file_source(self):
        decls = parse_view_source(
            "-- views\nCREATE VIEW one AS SELECT * FROM w.r;\nCREATE VIEW two AS SELECT a FROM w.r;",
            "m",
        )
        assert [d.qualified for d in decls] == [
            QualifiedName("m", "one"),
            QualifiedName("m", "two"),
        ]


def counted_view_parses(monkeypatch) -> list[str]:
    """The view texts parsed from now on, one entry per parse."""
    parsed = []
    real = mmw.views.parse_view_statements

    def counted(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(mmw.views, "parse_view_statements", counted)
    return parsed


def views_document() -> dict:
    relation = {
        "name": "people",
        "attributes": [{"name": "id", "type": "integer"}, {"name": "name", "type": "text"}],
        "rows": [["1", "ada"], ["2", "grace"]],
    }
    return {
        "domains": ["x"],
        "components": [
            {"id": "w", "kind": "wrapper", "domain": "x", "role": "operational_wrapper",
             "config": {"namespace": "ops", "adapter": {"kind": "memory", "relations": [relation]}}},
            {"id": "m", "kind": "mediator", "domain": "x", "role": "product_mediator",
             "config": {"product": "registry", "downstream": {"ops": "w"},
                        "views": "CREATE VIEW names AS SELECT name FROM ops.people;"
                                 "CREATE VIEW ids AS SELECT id FROM ops.people;"}},
        ],
        "edges": [["m", "w"]],
        "acl": [["analyst", "x", "*", True]],
    }


class TestParseViewSourceIsKept:
    def test_a_second_start_parses_no_view_text(self, monkeypatch):
        parsed = counted_view_parses(monkeypatch)
        parse_view_source.cache_clear()
        topology = load_topology(views_document())
        Mesh(topology).up().down()
        assert len(parsed) == 1
        parsed.clear()
        mesh = Mesh(topology).up()
        try:
            assert parsed == []
            names = mesh.execute("m", "SELECT name FROM registry.names", "analyst")
            assert sorted(row[0].payload for row in names.rows) == ["ada", "grace"]
        finally:
            mesh.down()

    def test_a_bad_view_text_raises_on_every_call(self, monkeypatch):
        parsed = counted_view_parses(monkeypatch)
        for _ in range(2):
            with pytest.raises(QuerySyntaxError):
                parse_view_source("CREATE VIEW v AS SELECT FROM", "m")
        assert len(parsed) == 2


class TestViewMapIsKept:
    def test_a_plan_builds_no_view_map(self, monkeypatch):
        built = []
        real = mmw.views._view_map

        def counted(views):
            built.append(views)
            return real(views)

        monkeypatch.setattr(mmw.views, "_view_map", counted)
        mesh = Mesh(load_topology(views_document())).up()
        try:
            assert len(built) == 1  # the configuration's check
            built.clear()
            for key in (1, 2, 3):
                names = mesh.execute("m", f"SELECT name FROM registry.names WHERE name <> 'x{key}'",
                                     "analyst")
                assert sorted(row[0].payload for row in names.rows) == ["ada", "grace"]
            ids = mesh.execute("m", "SELECT id FROM registry.ids WHERE id = 2", "analyst")
            assert [row[0].payload for row in ids.rows] == [2]
            assert mesh.components["m"].lineage("ids").children
            assert built == []
        finally:
            mesh.down()

    def test_a_mediator_refuses_duplicate_view_names(self):
        mesh = Mesh(load_topology(views_document())).up()
        try:
            mediator = mesh.components["m"]
            before = mediator.get_schema()
            with pytest.raises(ConfigError, match="duplicate view name"):
                mediator.reconfigure(views=["CREATE VIEW ids AS SELECT id FROM ops.people;"] * 2)
            assert mediator.get_schema() == before
        finally:
            mesh.down()


class TestCheckViews:
    def test_undeclared_view_reference(self):
        decl = view("m", "v", "SELECT a FROM m.nope")
        with pytest.raises(UnknownRelationError) as err:
            check_views([decl], ENV)
        assert "m.nope" in str(err.value)

    def test_self_reference_is_a_cycle(self):
        decl = view("m", "v", "SELECT a FROM m.v")
        with pytest.raises(ViewCycleError) as err:
            check_views([decl], ENV)
        assert "m.v" in err.value.cycle

    def test_two_view_cycle_lists_cycle(self):
        decls = [
            view("m", "v1", "SELECT a FROM m.v2"),
            view("m", "v2", "SELECT a FROM m.v1"),
        ]
        with pytest.raises(ViewCycleError) as err:
            check_views(decls, ENV)
        assert set(err.value.cycle) >= {"m.v1", "m.v2"}

    def test_forward_reference_allowed(self):
        decls = [
            view("m", "v1", "SELECT a FROM m.v2"),
            view("m", "v2", "SELECT a FROM s.r"),
        ]
        schemas = check_views(decls, ENV)
        assert schemas[QualifiedName("m", "v1")].attribute_names == ("a",)

    def test_duplicate_view_names(self):
        decls = [view("m", "v", "SELECT a FROM s.r"), view("m", "v", "SELECT a FROM s.r")]
        with pytest.raises(ConfigError):
            check_views(decls, ENV)

    def test_type_error_names_view(self):
        decl = view("m", "v", "SELECT missing FROM s.r")
        with pytest.raises(TypeCheckError) as err:
            check_views([decl], ENV)
        assert "m.v" in str(err.value)


class TestUnfold:
    def test_identity_substitution(self):
        decls = [view("m", "v", "SELECT a FROM s.r")]
        query = parse_query("SELECT a FROM m.v")
        unfolded = unfold(query, decls)
        expected = Project(
            Project(Scan(QualifiedName("s", "r")), [ProjectItem(AttrRef("a"), "a")]),
            [ProjectItem(AttrRef("a"), "a")],
        )
        assert unfolded == expected

    def test_two_tier_unfolds_in_one_pass(self):
        tier1 = view("m1", "v", "SELECT a FROM s.r")
        tier2 = view("m2", "w", "SELECT a FROM m1.v")
        query = parse_query("SELECT a FROM m2.w")
        unfolded = unfold(query, [tier1, tier2])
        assert all(name.namespace == "s" for name in _scans(unfolded))

    def test_unfold_is_idempotent(self):
        rng = random.Random(411)
        env = make_environment(rng)
        views, _ = _random_views(rng, env, count=3)
        for _ in range(50):
            query = random_query(rng, _view_env(views, env), namespaces=("m",))
            once = unfold(query, views)
            assert unfold(once, views) == once

    def test_schema_preserved(self):
        rng = random.Random(412)
        env = make_environment(rng)
        views, view_schemas = _random_views(rng, env, count=3)
        full_env = {**env, **view_schemas}
        for _ in range(80):
            query = random_query(rng, _view_env(views, env), namespaces=("m",))
            direct = infer_schema(query, full_env)
            unfolded = infer_schema(unfold(query, views), env)
            assert direct.attribute_names == unfolded.attribute_names
            assert [a.data_type for a in direct.attributes] == [
                a.data_type for a in unfolded.attributes
            ]

    def test_unfold_matches_materialized_views(self):
        # Oracle: materialize each view by evaluation, then run the query
        # against the extended database.
        rng = random.Random(413)
        for case in range(300):
            env = make_environment(rng, namespaces=("w1", "w2", "w3")[: rng.randint(1, 3)])
            views, view_schemas = _random_views(rng, env, count=rng.randint(1, 3))
            db = random_database(rng, env)
            materialized = dict(db)
            for decl in views:
                materialized[decl.qualified] = evaluate(unfold(decl.body, views), db)
            query = random_query(rng, _view_env(views, env), namespaces=("m",))
            via_unfold = evaluate(unfold(query, views), db)
            via_materialized = evaluate(query, materialized)
            assert bag_equal(via_unfold, via_materialized), f"case {case}"


class TestDeriveGlobalSchema:
    def test_zero_views_is_empty_product(self):
        product = derive_global_schema([], ENV, "prod", 3, {"owner": "me"})
        assert product.relations == ()
        assert product.version == 3
        assert product.metadata_map["owner"] == "me"

    def test_hash_projection_strips_identifying_tag(self):
        decls = [view("m", "v", "SELECT hash(ssn) AS ssn_h FROM s.r")]
        product = derive_global_schema(decls, ENV, "prod", 1)
        attr = product.relation("v").attribute("ssn_h")
        assert attr.data_type is Kind.TEXT
        assert not attr.identifying

    def test_raw_projection_keeps_identifying_tag(self):
        # Brute-force tag audit: any plain projection of a tagged attribute
        # must surface the tag in the derived schema.
        decls = [view("m", "v", "SELECT ssn FROM s.r")]
        product = derive_global_schema(decls, ENV, "prod", 1)
        assert product.relation("v").attribute("ssn").identifying

    def test_duplicate_views_error(self):
        decls = [view("m", "v", "SELECT a FROM s.r"), view("m", "v", "SELECT ssn FROM s.r")]
        with pytest.raises(ConfigError):
            derive_global_schema(decls, ENV, "prod", 1)

    def test_metadata_and_version_attached_verbatim(self):
        metadata = {"quality.completeness": "0.98", "description": "demo"}
        product = derive_global_schema([], ENV, "prod", 7, metadata)
        assert product.metadata_map == metadata
        assert product.version == 7

    def test_tag_stripping_brute_force_audit(self):
        # Audit rule: a derived attribute carries the identifying tag iff its
        # item bottoms out in a plain reference chain to a tagged source
        # attribute; any function output is untagged.
        from mmw.query.ast import AttrRef as Ref
        from support import make_environment

        rng = random.Random(1999)
        env = make_environment(rng, namespaces=("w1", "w2"), identifying_ok=True)
        audited = 0
        for index in range(120):
            body = random_block(rng, env, max_joins=1)
            decl = ViewDeclaration("m", f"v{index}", body)
            try:
                product = derive_global_schema([decl], env, "prod", 1)
            except Exception:
                continue
            relation = product.relation(decl.name)
            base_schema = infer_schema(
                body.child if body.items is not None else body, env
            )
            for attr in relation.attributes:
                if body.items is None:
                    expected = base_schema.attribute(attr.name).identifying
                else:
                    (item,) = [item for item in body.items if item.name == attr.name]
                    if isinstance(item.expr, Ref):
                        expected = base_schema.attribute(item.expr.name).identifying
                    else:
                        expected = False
                assert attr.identifying == expected, (decl.name, attr.name)
                audited += 1
        assert audited > 200


def _scans(q):
    from mmw.query.ast import scan_names

    return scan_names(q)


def _view_env(views, env):
    view_schemas = check_views(views, env)
    return view_schemas


def _random_views(rng, env, count=3):
    views = []
    for index in range(count):
        body = random_block(rng, env, max_joins=1)
        views.append(ViewDeclaration("m", f"v{index}", body))
    return views, check_views(views, env)
