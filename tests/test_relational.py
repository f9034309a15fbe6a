"""Metamodel tests: values, comparison, schema validation, bag equality."""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from mmw.relational import (
    EXACT_TIMESTAMP_RE,
    PLAIN_PATTERNS,
    Attribute,
    Kind,
    Ordering,
    ProductSchema,
    RelationSchema,
    TEXT_READERS,
    Table,
    Value,
    canonical_text,
    compare_values,
    conform,
    validate_product_schema,
    value_from_text,
)
from support import random_row, random_schema, random_value, VALUE_KINDS


def schema_ab(a_type=Kind.INTEGER, b_type=Kind.TEXT):
    return RelationSchema("r", [Attribute("a", a_type), Attribute("b", b_type)])


class TestCanonicalText:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Value.null(), ""),
            (Value.boolean(True), "true"),
            (Value.boolean(False), "false"),
            (Value.integer(-7), "-7"),
            (Value.decimal("2.50"), "2.5"),
            (Value.decimal("100.00"), "100"),
            (Value.decimal("-0.0"), "0"),
            (Value.decimal("0.1250"), "0.125"),
            (Value.text("héllo,\n"), "héllo,\n"),
            (Value.timestamp("2024-03-01T12:00:05Z"), "2024-03-01T12:00:05Z"),
        ],
    )
    def test_examples(self, value, expected):
        assert canonical_text(value) == expected

    def test_round_trip(self):
        rng = random.Random(101)
        for _ in range(500):
            kind = rng.choice(VALUE_KINDS)
            value = random_value(rng, kind)
            assert value_from_text(kind, canonical_text(value)) == value

    def test_integer_range_is_64_bit(self):
        Value.integer(2**63 - 1)
        Value.integer(-(2**63))
        with pytest.raises(ValueError):
            Value.integer(2**63)

    def test_decimal_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Value.decimal("NaN")

    def test_timestamp_requires_whole_seconds(self):
        with pytest.raises(ValueError):
            Value.timestamp("2024-03-01T12:00:05.5Z")


def _reads(kind: Kind, text: str) -> bool:
    try:
        TEXT_READERS[kind](text)
    except ValueError:
        return False
    return True


CHECK_EDGE_TEXTS = [
    "", " ", "0", "-0", "+1", "00", "-", "1.", ".5", "1.50", "-0.0", "1e3", "1E+2", "NaN",
    "Infinity", "١٢", "１", "12\n", "true", "false", "True", "null",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "999999999999999999", "1000000000000000000",
    "-999999999999999999", "0000000000000000000001", "99999999999999999999",
    "2024-02-29T00:00:00Z", "2023-02-29T00:00:00Z", "2024-02-30T12:00:00Z",
    "2024-04-31T00:00:00Z", "2024-12-31T23:59:59Z", "2024-01-01T24:00:00Z",
    "2024-01-01T23:60:00Z", "2024-01-01T23:59:60Z", "0000-01-01T00:00:00Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2024-00-10T00:00:00Z",
    "2024-13-10T00:00:00Z", "2024-01-00T00:00:00Z", "2024-1-01T00:00:00Z",
    "2024-01-01 00:00:00Z", "2024-01-01T00:00:00", "+2024-01-01T00:00:00Z",
    "２024-01-01T00:00:00Z",
]


def _plain(kind: Kind, text: str) -> bool:
    return re.fullmatch(PLAIN_PATTERNS[kind], text) is not None


class TestPlainPatterns:
    """A text that PLAIN_PATTERNS[kind] fully matches is one TEXT_READERS[kind]
    reads, so a row pattern built from them accepts no cell the decoders
    refuse. A pattern may refuse a text its reader reads."""

    @pytest.mark.parametrize("kind", list(PLAIN_PATTERNS))
    def test_a_match_reads_on_edge_texts(self, kind):
        matched = 0
        for text in CHECK_EDGE_TEXTS:
            if _plain(kind, text):
                assert _reads(kind, text), (kind, text)
                matched += 1
        assert matched >= 2

    def test_decimal_digits_are_bounded_on_either_side_of_the_point(self):
        longest = "9" * 1000 + "." + "9" * 1000
        assert _plain(Kind.DECIMAL, longest) and _reads(Kind.DECIMAL, longest)
        for text in ("9" * 1001, "1." + "9" * 1001, "9" * 1_000_001):
            assert not _plain(Kind.DECIMAL, text)
        assert not _reads(Kind.DECIMAL, "9" * 1_000_001)

    def test_a_match_reads_on_random_texts(self):
        rng = random.Random(16)
        digits = "0123456789"
        matched = Counter()
        for _ in range(4000):
            shape = rng.random()
            if shape < 0.3:
                text = rng.choice(["", "-", "+"]) + "".join(
                    rng.choice(digits) for _ in range(rng.randint(0, 21))
                )
                if rng.random() < 0.3:
                    text += "." + "".join(rng.choice(digits) for _ in range(rng.randint(0, 3)))
            elif shape < 0.8:
                fields = [rng.randint(0, 2100), rng.randint(0, 13), rng.randint(0, 32),
                          rng.randint(0, 25), rng.randint(0, 61), rng.randint(0, 61)]
                text = "%04d-%02d-%02dT%02d:%02d:%02dZ" % tuple(fields)
                if rng.random() < 0.1:
                    text = text.replace("-", rng.choice(["/", "-0", ""]), 1)
            else:
                text = "".join(rng.choice("tfrueals01-.TZ:١") for _ in range(rng.randint(0, 6)))
            for kind in PLAIN_PATTERNS:
                if _plain(kind, text):
                    assert _reads(kind, text), (kind, text)
                    matched[kind] += 1
        # Booleans are the edge texts' to cover.
        assert min(matched[kind] for kind in (Kind.INTEGER, Kind.DECIMAL, Kind.TIMESTAMP)) > 100


def _exact_timestamp(text: str) -> bool:
    return EXACT_TIMESTAMP_RE.fullmatch(text) is not None


class TestExactCalendarTimestamps:
    """EXACT_TIMESTAMP_RE, the timestamp row-pattern cell that the json-lines
    reader also checks its timestamp-shaped texts with, must fully match
    exactly the texts `_moment_from_text` reads, calendar edges included."""

    YEARS = [
        *range(0, 5), *range(1896, 1905), *range(1996, 2005), *range(2096, 2105),
        *range(2396, 2405), *range(9996, 10000),
    ]

    def test_every_month_and_day_of_the_edge_years(self):
        check = _exact_timestamp
        for year in self.YEARS:
            for month in range(14):
                for day in range(33):
                    text = "%04d-%02d-%02dT12:30:45Z" % (year, month, day)
                    assert check(text) is _reads(Kind.TIMESTAMP, text), text

    def test_clock_edges(self):
        check = _exact_timestamp
        for date in ("2024-02-29", "2023-02-28", "2000-12-31", "0001-01-01"):
            for hour in (0, 9, 10, 19, 20, 23, 24, 29, 30, 99):
                for minute in (0, 9, 59, 60, 99):
                    for second in (0, 59, 60, 61, 99):
                        text = "%sT%02d:%02d:%02dZ" % (date, hour, minute, second)
                        assert check(text) is _reads(Kind.TIMESTAMP, text), text

    def test_leap_days(self):
        check = _exact_timestamp
        for year in ("0004", "0400", "1600", "1996", "2000", "2004", "2400"):
            assert check(f"{year}-02-29T00:00:00Z") is True
        for year in ("0000", "0100", "1900", "2023", "2100", "2200", "2300", "9999"):
            assert check(f"{year}-02-29T00:00:00Z") is False


class TestCompareValues:
    def test_equal_integers(self):
        assert compare_values(Value.integer(3), Value.integer(3)) is Ordering.EQUAL

    def test_null_is_incomparable(self):
        assert compare_values(Value.null(), Value.integer(5)) is Ordering.INCOMPARABLE

    def test_kind_mismatch_is_incomparable(self):
        assert compare_values(Value.integer(1), Value.decimal("1")) is Ordering.INCOMPARABLE

    def test_boolean_order(self):
        assert compare_values(Value.boolean(False), Value.boolean(True)) is Ordering.LESS

    def test_decimal_trailing_zeros_equal(self):
        assert compare_values(Value.decimal("2.50"), Value.decimal("2.5")) is Ordering.EQUAL

    def test_decimal_agrees_with_rational_oracle(self):
        # Oracle: exact rational comparison of the decimal text.
        rng = random.Random(202)
        for _ in range(300):
            a_text = f"{rng.randint(-999, 999)}.{rng.randint(0, 9999):04d}"
            b_text = f"{rng.randint(-999, 999)}.{rng.randint(0, 9999):04d}"
            a, b = Value.decimal(a_text), Value.decimal(b_text)
            expected = Fraction(a_text), Fraction(b_text)
            got = compare_values(a, b)
            if expected[0] == expected[1]:
                assert got is Ordering.EQUAL
            elif expected[0] < expected[1]:
                assert got is Ordering.LESS
            else:
                assert got is Ordering.GREATER

    def test_antisymmetric_and_transitive(self):
        flipped = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS}
        rng = random.Random(303)
        for _ in range(400):
            kind = rng.choice(VALUE_KINDS)
            a, b, c = (random_value(rng, kind) for _ in range(3))
            ab, ba = compare_values(a, b), compare_values(b, a)
            if ab is Ordering.EQUAL:
                assert ba is Ordering.EQUAL
            elif ab is not Ordering.INCOMPARABLE:
                assert ba is flipped[ab]
            bc, ac = compare_values(b, c), compare_values(a, c)
            if ab is Ordering.LESS and bc is Ordering.LESS:
                assert ac is Ordering.LESS
            if ab is Ordering.EQUAL and bc is Ordering.EQUAL:
                assert ac is Ordering.EQUAL


class TestConform:
    def test_matching_tuple(self):
        ok, violation = conform((Value.integer(42), Value.text("a")), schema_ab())
        assert ok and violation is None

    def test_null_in_non_nullable(self):
        schema = RelationSchema("r", [Attribute("a", Kind.INTEGER, nullable=False)])
        ok, violation = conform((Value.null(),), schema)
        assert not ok
        assert "a" in violation

    def test_arity_mismatch(self):
        ok, violation = conform((Value.integer(1),), schema_ab())
        assert not ok and "arity" in violation

    def test_against_naive_oracle(self):
        # Oracle: independent per-field loop, written before the main build.
        def naive_conform(row, schema):
            if len(row) != len(schema.attributes):
                return False
            for value, attr in zip(row, schema.attributes):
                if value.kind is Kind.NULL:
                    if not attr.nullable:
                        return False
                elif value.kind is not attr.data_type:
                    return False
            return True

        rng = random.Random(404)
        for _ in range(1000):
            schema = random_schema(rng, "r", ["a", "b", "c"][: rng.randint(1, 3)])
            if rng.random() < 0.5:
                row = random_row(rng, schema)
            else:
                arity = rng.randint(0, 4)
                row = tuple(
                    random_value(rng, rng.choice(VALUE_KINDS), nullable=True) for _ in range(arity)
                )
            assert conform(row, schema)[0] == naive_conform(row, schema)


class TestValidateProductSchema:
    def test_empty_schema_is_valid(self):
        assert validate_product_schema(ProductSchema("p", 1)) == []

    def test_duplicate_relation_name(self):
        schema = ProductSchema("p", 1, [schema_ab().rename("orders"), schema_ab().rename("orders")])
        violations = validate_product_schema(schema)
        assert len(violations) == 1
        assert violations[0].path == "orders"

    def test_nullable_key_attribute(self):
        rel = RelationSchema(
            "orders",
            [Attribute("id", Kind.INTEGER, nullable=True), Attribute("n", Kind.TEXT)],
            key=("id",),
        )
        violations = validate_product_schema(ProductSchema("p", 1, [rel]))
        assert [v.path for v in violations] == ["orders.id"]
        assert "id" in violations[0].message

    def test_missing_key_attribute(self):
        rel = RelationSchema("orders", [Attribute("n", Kind.TEXT)], key=("id",))
        violations = validate_product_schema(ProductSchema("p", 1, [rel]))
        assert [v.path for v in violations] == ["orders.id"]

    @pytest.mark.parametrize(
        "version,metadata,message",
        [
            (True, {}, "version must be a positive integer, got True"),
            (1, {5: "x"}, "metadata key 5 must be text"),
            (1, {5: "x", "a": "b"}, "metadata key 5 must be text"),
        ],
    )
    def test_boolean_version_and_non_text_metadata_keys_are_violations(
        self, version, metadata, message
    ):
        violations = validate_product_schema(ProductSchema("p", version, [], metadata))
        assert [str(v) for v in violations] == [message]

    def test_version_must_be_positive(self):
        assert validate_product_schema(ProductSchema("p", 0))[0].path == ""

    def test_bad_identifier_reported(self):
        rel = RelationSchema("Orders", [Attribute("a", Kind.TEXT)])
        violations = validate_product_schema(ProductSchema("p", 1, [rel]))
        assert any("identifier" in v.message for v in violations)

    def test_violations_sorted_by_path(self):
        rel_a = RelationSchema("a", [Attribute("x", Kind.NULL)])
        rel_z = RelationSchema("z", [Attribute("x", Kind.NULL)])
        violations = validate_product_schema(ProductSchema("p", 1, [rel_z, rel_a]))
        assert [v.path for v in violations] == sorted(v.path for v in violations)

    def test_valid_schema_relations_pass_individually(self):
        rng = random.Random(505)
        for _ in range(100):
            relations = [
                random_schema(rng, name, ["a", "b"]) for name in ("one", "two", "three")
            ]
            product = ProductSchema("p", rng.randint(1, 9), relations)
            if not validate_product_schema(product):
                from mmw.relational import relation_violations

                assert all(not relation_violations(rel) for rel in relations)


class TestTableBagEquality:
    def test_shuffle_insensitive(self):
        rng = random.Random(606)
        schema = schema_ab()
        for _ in range(50):
            rows = [random_row(rng, schema) for _ in range(rng.randint(0, 8))]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert Table(schema, rows) == Table(schema, shuffled)

    def test_reflexive_and_symmetric(self):
        schema = schema_ab()
        rows = [(Value.integer(1), Value.text("x")), (Value.integer(1), Value.text("x"))]
        t1, t2 = Table(schema, rows), Table(schema, list(reversed(rows)))
        assert t1 == t1 and t1 == t2 and t2 == t1

    def test_duplicates_matter(self):
        schema = RelationSchema("r", [Attribute("a", Kind.INTEGER)])
        one = Table(schema, [(Value.integer(1),)])
        two = Table(schema, [(Value.integer(1),), (Value.integer(1),)])
        assert one != two

    def test_kind_distinguishes_rows(self):
        schema_int = RelationSchema("r", [Attribute("a", Kind.INTEGER)])
        t_int = Table(schema_int, [(Value.integer(1),)])
        t_bool = Table(schema_int, [(Value.boolean(True),)])
        assert t_int.row_bag() != t_bool.row_bag()
