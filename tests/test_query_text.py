"""Parser and canonical renderer: golden trees, errors, round-trips."""

from __future__ import annotations

import random

import pytest

from mmw.errors import QuerySyntaxError
from mmw.query.ast import (
    AttrRef,
    Comparison,
    CompareOp,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Project,
    ProjectItem,
    QualifiedName,
    Scan,
    Select,
    Union,
)
from mmw.query.evaluate import evaluate
from mmw.query.infer import infer_schema
from mmw.query.parse import MAX_DEPTH, parse_query, parse_view_statements, tokenize
from mmw.query.render import RenderError, normalize, render_query
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
from support import make_environment, random_query


def qn(text: str) -> QualifiedName:
    namespace, relation = text.split(".")
    return QualifiedName(namespace, relation)


class TestParse:
    def test_select_where(self):
        tree = parse_query("SELECT name FROM hr.people WHERE age >= 30")
        expected = Project(
            Select(
                Scan(qn("hr.people")),
                Comparison(AttrRef("age"), CompareOp.GE, Literal(Value.integer(30))),
            ),
            [ProjectItem(AttrRef("name"), "name")],
        )
        assert tree == expected

    def test_star_union(self):
        tree = parse_query("SELECT * FROM a.r UNION SELECT * FROM b.r")
        assert tree == Union(Project(Scan(qn("a.r")), None), Project(Scan(qn("b.r")), None))

    def test_join_chain_is_left_associative(self):
        tree = parse_query("SELECT * FROM a.r JOIN a.s ON x = y JOIN a.t ON u = v AND w = z")
        expected = Project(
            Join(
                Join(Scan(qn("a.r")), Scan(qn("a.s")), [("x", "y")]),
                Scan(qn("a.t")),
                [("u", "v"), ("w", "z")],
            ),
            None,
        )
        assert tree == expected

    def test_keywords_case_insensitive(self):
        assert parse_query("select a from w.r") == parse_query("SELECT a FROM w.r")

    def test_text_literal_escaping(self):
        tree = parse_query("SELECT * FROM w.r WHERE a = 'it''s'")
        predicate = tree.child.predicate
        assert predicate.right == Literal(Value.text("it's"))

    def test_function_items_need_a_name(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT hash(a) FROM w.r")
        assert "AS" in err.value.expected

    def test_timestamp_literal(self):
        tree = parse_query("SELECT * FROM w.r WHERE t >= TIMESTAMP '2024-03-01T12:00:05Z'")
        assert tree.child.predicate.right == Literal(Value.timestamp("2024-03-01T12:00:05Z"))

    def test_error_position_line_and_column(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT a\nFROM w.r\nWHERE a ==")
        assert err.value.line == 3
        assert err.value.column == 10

    def test_error_reports_expected_tokens(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT a FROM w.r WHERE a")
        assert any("=" in token for token in err.value.expected)

    def test_missing_from(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT a")
        assert "FROM" in err.value.expected

    def test_trailing_input_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT a FROM w.r extra")

    def test_uppercase_identifier_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT Name FROM w.r")

    def test_predicate_parentheses(self):
        tree = parse_query("SELECT * FROM w.r WHERE (a = 1 OR b = 2) AND NOT (c = 3)")
        predicate = tree.child.predicate
        assert isinstance(predicate, LogicalAnd)
        assert isinstance(predicate.left, LogicalOr)
        assert isinstance(predicate.right, LogicalNot)

    def test_and_binds_tighter_than_or(self):
        tree = parse_query("SELECT * FROM w.r WHERE a = 1 OR b = 2 AND c = 3")
        predicate = tree.child.predicate
        assert isinstance(predicate, LogicalOr)
        assert isinstance(predicate.right, LogicalAnd)


class TestTokenize:
    @pytest.mark.parametrize(
        "text,tokens",
        [
            (
                "a -- c\r\n  = -1.5 1. 'it''s'\n",
                [
                    ("IDENT", "a", 1, 1),
                    ("OP", "=", 2, 3),
                    ("NUMBER", "-1.5", 2, 5),
                    ("NUMBER", "1", 2, 10),
                    ("OP", ".", 2, 11),
                    ("STRING", "it's", 2, 13),
                    ("EOF", "", 3, 1),
                ],
            ),
            (
                "select Foo_1 aS",
                [("KW", "SELECT", 1, 1), ("IDENT", "Foo_1", 1, 8), ("KW", "AS", 1, 14), ("EOF", "", 1, 16)],
            ),
            (
                "<><=>=<>=,;*()",
                [
                    ("OP", "<>", 1, 1),
                    ("OP", "<=", 1, 3),
                    ("OP", ">=", 1, 5),
                    ("OP", "<>", 1, 7),
                    ("OP", "=", 1, 9),
                    ("OP", ",", 1, 10),
                    ("OP", ";", 1, 11),
                    ("OP", "*", 1, 12),
                    ("OP", "(", 1, 13),
                    ("OP", ")", 1, 14),
                    ("EOF", "", 1, 15),
                ],
            ),
            (
                "'a\nb''' x\t'' 3a",
                [
                    ("STRING", "a\nb'", 1, 1),
                    ("IDENT", "x", 2, 6),
                    ("STRING", "", 2, 8),
                    ("NUMBER", "3", 2, 11),
                    ("IDENT", "a", 2, 12),
                    ("EOF", "", 2, 13),
                ],
            ),
            ("", [("EOF", "", 1, 1)]),
            ("--only a comment", [("EOF", "", 1, 17)]),
            (
                "SELECT a\n  FROM\tw.r\n\nWHERE a = 'x'",
                [
                    ("KW", "SELECT", 1, 1),
                    ("IDENT", "a", 1, 8),
                    ("KW", "FROM", 2, 3),
                    ("IDENT", "w", 2, 8),
                    ("OP", ".", 2, 9),
                    ("IDENT", "r", 2, 10),
                    ("KW", "WHERE", 4, 1),
                    ("IDENT", "a", 4, 7),
                    ("OP", "=", 4, 9),
                    ("STRING", "x", 4, 11),
                    ("EOF", "", 4, 14),
                ],
            ),
            (
                "-- head 'not a literal'\na --tail -- x\r\n-- only\n\tb--c",
                [("IDENT", "a", 2, 1), ("IDENT", "b", 4, 2), ("EOF", "", 4, 6)],
            ),
            (
                "'--' -- 'x\n'a\nb' c",
                [("STRING", "--", 1, 1), ("STRING", "a\nb", 2, 1), ("IDENT", "c", 3, 4), ("EOF", "", 3, 5)],
            ),
        ],
    )
    def test_tokens_and_positions(self, text, tokens):
        assert [(t.type, t.text, t.line, t.column) for t in tokenize(text)] == tokens

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            # An unterminated literal must not end early at a '' pair.
            ("SELECT * FROM w.r WHERE a = 'x''y", "unterminated text literal", 1, 29),
            ("a\n  '''", "unterminated text literal", 2, 3),
            ("a ! b", "unexpected character '!'", 1, 3),
            ("a -b", "unexpected character '-'", 1, 3),
            ("a\x0bb", "unexpected character '\\x0b'", 1, 2),
            ("SELECT a\nFROM w.r\n  WHERE a = @", "unexpected character '@'", 3, 13),
            ("-- a comment ! here\n\t! b", "unexpected character '!'", 2, 2),
            ("'spans\ntwo lines' ?", "unexpected character '?'", 2, 12),
            ("a -- c\r\n\x00", "unexpected character '\\x00'", 2, 1),
            ("\n\n'open", "unterminated text literal", 3, 1),
        ],
    )
    def test_lexical_errors(self, text, message, line, column):
        with pytest.raises(QuerySyntaxError) as err:
            tokenize(text)
        assert (err.value.message, err.value.line, err.value.column) == (
            f"{message} at line {line}, column {column}",
            line,
            column,
        )

    @pytest.mark.parametrize("numeral", ["²", "٣"])
    def test_non_ascii_numerals_are_syntax_errors(self, numeral):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(f"SELECT * FROM w.r WHERE a = {numeral}")
        assert (err.value.line, err.value.column) == (1, 29)

    @pytest.mark.parametrize(
        "literal",
        ["99999999999999999999", "-9223372036854775809", pytest.param("9" * 5000, id="5000_digits")],
    )
    def test_out_of_range_numbers_are_syntax_errors(self, literal):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(f"SELECT * FROM w.r WHERE a = {literal}")
        assert (err.value.line, err.value.column) == (1, 29)

    def test_int64_bounds_parse(self):
        tree = parse_query("SELECT * FROM w.r WHERE a = -9223372036854775808")
        assert tree.child.predicate.right == Literal(Value.integer(-(2**63)))


R = RelationSchema("r", [Attribute("a", Kind.INTEGER)])
WHERE = "SELECT * FROM w.r WHERE "
NESTING_SHAPES = {
    "parentheses": lambda n: WHERE + "(" * n + "a = 1" + ")" * n,
    "not": lambda n: WHERE + "NOT " * n + "a = 1",
    "union": lambda n: " UNION ".join(["SELECT * FROM w.r"] * (n + 1)),
    "and_chain": lambda n: WHERE + " AND ".join(["a = 1"] * (n + 1)),
    "hash_calls": lambda n: "SELECT " + "hash(" * n + "a" + ")" * n + " AS h FROM w.r",
    # The rendered form of a deep tree: a parenthesis and a level per step.
    "not_parentheses": lambda n: WHERE + "NOT (" * n + "a = 1" + ")" * n,
    "or_parentheses": lambda n: WHERE + "(a = 1 OR " * n + "a = 1" + ")" * n,
    "join_chain": lambda n: "SELECT * FROM w.r" + " JOIN w.r ON a = a" * n,
}


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    @pytest.mark.parametrize("count", [MAX_DEPTH + 1, 5000])
    def test_past_the_limit_is_a_syntax_error(self, shape, count):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(NESTING_SHAPES[shape](count))
        assert f"limit of {MAX_DEPTH}" in err.value.message

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_at_the_limit_every_tree_walk_works(self, shape):
        tree = parse_query(NESTING_SHAPES[shape](MAX_DEPTH))
        text = render_query(tree)
        assert parse_query(text) == tree
        infer_schema(tree, {qn("w.r"): R})
        if shape != "join_chain":  # joining w.r to itself repeats attribute a
            table = Table(R, [(Value.integer(1),), (Value.integer(2),)])
            assert evaluate(tree, {qn("w.r"): table}).rows

    def test_error_points_at_the_first_step_past_the_limit(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(NESTING_SHAPES["not"](5000))
        assert (err.value.line, err.value.column) == (1, len(WHERE) + 4 * MAX_DEPTH + 1)

    def test_a_deep_first_operand_counts_toward_its_chain(self):
        inner = "(" + " AND ".join(["a = 1"] * 40) + ")"
        assert parse_query(WHERE + inner + " AND a = 1" * (MAX_DEPTH - 39))
        with pytest.raises(QuerySyntaxError):
            parse_query(WHERE + inner + " AND a = 1" * (MAX_DEPTH - 38))


class TestViewStatements:
    def test_single_declaration(self):
        statements = parse_view_statements("CREATE VIEW orders AS SELECT * FROM w1.orders")
        assert statements == [("orders", Project(Scan(qn("w1.orders")), None))]

    def test_file_with_comments_and_semicolons(self):
        text = """
        -- customer views
        CREATE VIEW one AS SELECT * FROM w.r;
        CREATE VIEW two AS
            SELECT a FROM w.s; -- trailing comment
        """
        statements = parse_view_statements(text)
        assert [name for name, _ in statements] == ["one", "two"]

    def test_missing_semicolon_between_statements(self):
        with pytest.raises(QuerySyntaxError):
            parse_view_statements(
                "CREATE VIEW one AS SELECT * FROM w.r CREATE VIEW two AS SELECT * FROM w.s"
            )


class TestRender:
    def test_scan_renders_as_select_star(self):
        assert render_query(Scan(qn("a.r"))) == "SELECT * FROM a.r"

    def test_identity_project_renders_identically(self):
        assert render_query(Project(Scan(qn("a.r")), None)) == "SELECT * FROM a.r"

    def test_stacked_selects_merge(self):
        p1 = Comparison(AttrRef("a"), CompareOp.EQ, Literal(Value.integer(1)))
        p2 = Comparison(AttrRef("b"), CompareOp.EQ, Literal(Value.integer(2)))
        stacked = Select(Select(Scan(qn("w.r")), p1), p2)
        text = render_query(stacked)
        assert text == "SELECT * FROM w.r WHERE (a = 1) AND (b = 2)"
        assert parse_query(text) == normalize(stacked)

    def test_stacked_and_merged_selects_evaluate_equally(self):
        # Oracle for the normalization: both forms yield the same table.
        from mmw.query.evaluate import evaluate
        from mmw.relational import Attribute, Kind, RelationSchema, Table, bag_equal
        import random as rnd

        rng = rnd.Random(321)
        schema = RelationSchema(
            "r", [Attribute("a", Kind.INTEGER), Attribute("b", Kind.INTEGER)]
        )
        for _ in range(50):
            rows = [
                (Value.integer(rng.randint(0, 3)), Value.integer(rng.randint(0, 3)))
                for _ in range(rng.randint(0, 8))
            ]
            db = {qn("w.r"): Table(schema, rows)}
            p1 = Comparison(AttrRef("a"), CompareOp.GE, Literal(Value.integer(rng.randint(0, 3))))
            p2 = Comparison(AttrRef("b"), CompareOp.LE, Literal(Value.integer(rng.randint(0, 3))))
            stacked = Select(Select(Scan(qn("w.r")), p1), p2)
            merged = parse_query(render_query(stacked))
            assert bag_equal(evaluate(stacked, db), evaluate(merged, db))

    def test_nested_block_has_no_textual_form(self):
        inner = Project(Scan(qn("w.r")), [ProjectItem(AttrRef("a"), "b")])
        with pytest.raises(RenderError):
            render_query(Project(inner, [ProjectItem(AttrRef("b"), "b")]))

    def test_decimal_literal_keeps_point(self):
        tree = parse_query("SELECT * FROM w.r WHERE a = 3.0")
        assert render_query(tree) == "SELECT * FROM w.r WHERE a = 3.0"

    def test_round_trip_500_generated_queries(self):
        rng = random.Random(777)
        env = make_environment(rng, namespaces=("w1", "w2"), relations_per_namespace=2)
        for case in range(500):
            tree = random_query(rng, env)
            text = render_query(tree)
            reparsed = parse_query(text)
            assert reparsed == tree, f"case {case}: {text}"
            assert render_query(reparsed) == text

    def test_render_deterministic(self):
        rng = random.Random(778)
        env = make_environment(rng)
        for _ in range(50):
            tree = random_query(rng, env)
            assert render_query(tree) == render_query(tree)
