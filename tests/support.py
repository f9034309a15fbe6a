"""Seeded generators shared across the test suite.

Everything takes an explicit random.Random so failures reproduce from the
printed seed.
"""

from __future__ import annotations

import importlib.util
import json
import random
import string
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import mmw.formats
from mmw.errors import ConfigError
from mmw.formats import reference_parse_csv, reference_parse_jsonl
from mmw.planner import execute_plan, plan
from mmw.query.evaluate import evaluate
from mmw.relational import Attribute, Kind, RelationSchema, Table, Value
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
    RedactCall,
    Scan,
    Select,
    Union,
)

def plan_and_evaluate(
    q, views, bound: set[str], env, db, salt: str = "", push_predicates: bool = True
) -> Table:
    """Plan, then serve fetches straight from `db`; the planner's oracle."""
    exec_plan = plan(q, views, bound, env, push_predicates)
    return execute_plan(exec_plan, lambda step: evaluate(step.query, db), salt)


def load_workloads():
    """The benchmark's `meshbench/workloads.py`, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "meshbench_workloads", Path(__file__).resolve().parent.parent / "meshbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def forget_images() -> None:
    """Empty the file readers' images of settled texts, so that the next
    read of any text runs its row or record pattern again."""
    mmw.formats._IMAGES.clear()


def epoch_steps(before, after) -> tuple[int, ...]:
    """How far each counter of an epoch token moved from `before` to
    `after`, leaf by leaf in token order. Both tokens must have the same
    shape and the same nonce at every leaf: a token from another instance
    fails here instead of passing for a move."""
    if isinstance(before, str):
        assert isinstance(after, str), (before, after)
        old_nonce, old_counter = before.rsplit(":", 1)
        new_nonce, new_counter = after.rsplit(":", 1)
        assert new_nonce == old_nonce, f"{after!r} is from another instance than {before!r}"
        return (int(new_counter) - int(old_counter),)
    assert isinstance(after, tuple) and len(after) == len(before), (before, after)
    return tuple(step for pair in zip(before, after) for step in epoch_steps(*pair))


VALUE_KINDS = (Kind.BOOLEAN, Kind.INTEGER, Kind.DECIMAL, Kind.TEXT, Kind.TIMESTAMP)


def random_identifier(rng: random.Random, prefix: str = "") -> str:
    body = "".join(rng.choice(string.ascii_lowercase + string.digits + "_") for _ in range(rng.randint(0, 5)))
    return (prefix or rng.choice(string.ascii_lowercase)) + body


def random_value(rng: random.Random, kind: Kind, nullable: bool = False) -> Value:
    if nullable and rng.random() < 0.2:
        return Value.null()
    if kind is Kind.BOOLEAN:
        return Value.boolean(rng.random() < 0.5)
    if kind is Kind.INTEGER:
        return Value.integer(rng.randint(-50, 50))
    if kind is Kind.DECIMAL:
        return Value.decimal(Decimal(rng.randint(-5000, 5000)) / 100)
    if kind is Kind.TEXT:
        length = rng.randint(0, 6)
        return Value.text("".join(rng.choice("abcxyz',\"\n ") for _ in range(length)))
    moment = datetime(2024, 1, 1, tzinfo=timezone.utc).timestamp() + rng.randint(0, 10_000_000)
    return Value.timestamp(datetime.fromtimestamp(moment, tz=timezone.utc))


def random_attribute(rng: random.Random, name: str, identifying_ok: bool = False) -> Attribute:
    kind = rng.choice(VALUE_KINDS)
    tags = ("identifying",) if identifying_ok and rng.random() < 0.2 else ()
    return Attribute(name, kind, nullable=rng.random() < 0.4, tags=tags)


def random_schema(rng: random.Random, name: str, attr_names: list[str]) -> RelationSchema:
    return RelationSchema(name, [random_attribute(rng, attr_name) for attr_name in attr_names])


def random_row(rng: random.Random, schema: RelationSchema) -> tuple[Value, ...]:
    return tuple(random_value(rng, attr.data_type, attr.nullable) for attr in schema.attributes)


def random_table(rng: random.Random, schema: RelationSchema, max_rows: int = 6) -> Table:
    return Table(schema, [random_row(rng, schema) for _ in range(rng.randint(0, max_rows))])


def reference_load(file):
    """The reference decode of a .csv or .jsonl file as its adapter reports
    it: the text read as the adapter reads it, a refusal (a non-UTF-8 byte
    too) a ConfigError naming the file."""
    parse = reference_parse_csv if file.suffix == ".csv" else reference_parse_jsonl
    try:
        return parse(file.read_text(encoding="utf-8"), file.stem)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise ConfigError(f"{file.name}: {exc}") from None


# --- json-lines texts --------------------------------------------------------------

JSONL_FIELDS = ("k", "name", "at", "amount", "flag", "note")

# Whole lines every json-lines reader refuses, one draw per planted fault: bad
# field names, non-objects, undecodable or nested values, integers out of the
# 64-bit range, decimals whose exponent overflows or that no Decimal holds,
# timestamps that are no moment, and a string the line splitting cuts.
JSONL_FAULTS = (
    '{"Bad":1}', '{"a-b":1}', '{"1x":2}', '{"":3}', "[1,2]", "3", '"x"', "null", '{"k":',
    "{'k':1}", '{"k":1}}', '{"k":NaN}', '{"k":-Infinity}', '{"k":[1]}', '{"k":{"j":1}}',
    '{"k":9223372036854775808}', '{"k":-9223372036854775809}', '{"k":' + "1" * 5000 + "}",
    '{"k":1e1000000}', '{"k":9.99999999999999999999999999999e999999}',
    '{"k":1e99999999999999999999}',
    '{"at":"2023-02-29T00:00:00Z"}', '{"at":"2024-02-30T00:00:00Z"}',
    '{"at":"2024-04-31T12:00:00Z"}', '{"at":"2024-01-01T24:00:00Z"}',
    '{"at":"0000-01-01T00:00:00Z"}', '{"at":"2024-13-01T00:00:00Z"}',
    # A raw line separator inside a string ends the line for str.splitlines.
    '{"name":"a\u2028b"}',
)


def _jsonl_timestamp(rng: random.Random) -> str:
    """A timestamp-shaped text, on the days 29 to 31 one time in ten, so
    some name no moment (February 29 outside a leap year, April 31)."""
    day = rng.randint(1, 28) if rng.random() < 0.9 else rng.choice((29, 30, 31))
    year = rng.choice((1900, 2000, 2023, 2024, 1))
    return f"{year:04d}-{rng.randint(1, 12):02d}-{day:02d}T{rng.randint(0, 23):02d}:00:{rng.randint(0, 59):02d}Z"


def _jsonl_token(rng: random.Random, kind: Kind) -> str:
    if rng.random() < 0.1:
        return "null"
    if kind is Kind.BOOLEAN:
        return rng.choice(("true", "false"))
    if kind is Kind.INTEGER:
        if rng.random() < 0.05:
            return str(rng.choice((2**63 - 1, -(2**63))))
        return str(rng.randint(0, 5))
    if kind is Kind.DECIMAL:
        if rng.random() < 0.1:
            # Exponent forms, huge exponents that still normalize, and -0.
            return rng.choice(("1e5", "2.5E-3", "1e999999", "1.5e-1000000", "-0.0", "0e99999999"))
        return f"{rng.randint(-500, 500) / 100:.2f}"
    if kind is Kind.TIMESTAMP:
        return '"' + _jsonl_timestamp(rng) + '"'
    text = rng.choice(("a", "", "x y", "é", "１２", "2024-01-01", "true", "1", "q\"", "\\"))
    return json.dumps(text, ensure_ascii=rng.random() < 0.5)


def random_jsonl(rng: random.Random, regular: bool = False) -> str:
    """A small random json-lines text: a few fields of one kind each, with
    nulls, missing fields and now and then a cell of another kind; blank
    lines, `\r\n` line ends, and a planted fault in about one text in five.
    A `regular` text has none of these but the nulls and line ends: every
    record holds each field, in one order, with a token of the field's
    kind or null, the shape the json-lines record pattern settles when no
    token exceeds its bounds."""
    fields = rng.sample(JSONL_FIELDS, rng.randint(1, 4))
    if "k" not in fields:
        fields[0] = "k"
    kinds = {field: rng.choice(VALUE_KINDS) for field in fields}
    kinds["k"] = Kind.INTEGER
    lines = []
    for _ in range(rng.randint(0, 10)):
        tokens = []
        for field in fields:
            if not regular and rng.random() < 0.1:
                continue  # a missing field
            kind = kinds[field] if regular or rng.random() < 0.93 else rng.choice(VALUE_KINDS)
            tokens.append(f'"{field}":{_jsonl_token(rng, kind)}')
        if not regular and rng.random() < 0.2:
            rng.shuffle(tokens)
        lines.append("{" + ",".join(tokens) + "}")
        if not regular and rng.random() < 0.05:
            lines.append(rng.choice(("", "  ", "\t")))
    if not regular and rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(JSONL_FAULTS))
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(lines) + (end if rng.random() < 0.9 else "")


# --- grammar-shaped query generation -----------------------------------------
#
# Relations get globally unique attribute names plus a shared-kind "k*" key
# column, so random joins never collide and always have a joinable pair.


def make_environment(
    rng: random.Random,
    namespaces: tuple[str, ...] = ("w1", "w2"),
    relations_per_namespace: int = 2,
    identifying_ok: bool = False,
) -> dict[QualifiedName, RelationSchema]:
    env: dict[QualifiedName, RelationSchema] = {}
    serial = 0
    for namespace in namespaces:
        for rel_index in range(relations_per_namespace):
            attrs = [Attribute(f"k{serial}", Kind.INTEGER)]
            for _ in range(rng.randint(1, 3)):
                serial_name = f"c{serial}_{len(attrs)}"
                attrs.append(random_attribute(rng, serial_name, identifying_ok))
            name = f"r{rel_index}"
            env[QualifiedName(namespace, name)] = RelationSchema(name, attrs)
            serial += 1
    return env


def random_database(
    rng: random.Random,
    env: dict[QualifiedName, RelationSchema],
    max_rows: int = 6,
) -> dict[QualifiedName, Table]:
    # Key columns draw from a small domain so joins actually match.
    db = {}
    for qname, schema in env.items():
        rows = []
        for _ in range(rng.randint(0, max_rows)):
            row = []
            for attr in schema.attributes:
                if attr.name.startswith("k") and attr.data_type is Kind.INTEGER:
                    row.append(Value.integer(rng.randint(0, 3)))
                else:
                    row.append(random_value(rng, attr.data_type, attr.nullable))
            rows.append(tuple(row))
        db[qname] = Table(schema, rows)
    return db


def _random_literal_for(rng: random.Random, kind: Kind) -> Literal:
    return Literal(random_value(rng, kind))


def _random_comparison(rng: random.Random, schema: RelationSchema) -> Comparison:
    attr = rng.choice(schema.attributes)
    op = rng.choice(list(CompareOp))
    if rng.random() < 0.3:
        partners = [
            other
            for other in schema.attributes
            if other.data_type is attr.data_type and other.name != attr.name
        ]
        if partners:
            return Comparison(AttrRef(attr.name), op, AttrRef(rng.choice(partners).name))
    return Comparison(AttrRef(attr.name), op, _random_literal_for(rng, attr.data_type))


def random_predicate(rng: random.Random, schema: RelationSchema, depth: int = 2):
    if depth > 0 and rng.random() < 0.4:
        shape = rng.random()
        if shape < 0.4:
            return LogicalAnd(
                random_predicate(rng, schema, depth - 1), random_predicate(rng, schema, depth - 1)
            )
        if shape < 0.8:
            return LogicalOr(
                random_predicate(rng, schema, depth - 1), random_predicate(rng, schema, depth - 1)
            )
        return LogicalNot(random_predicate(rng, schema, depth - 1))
    return _random_comparison(rng, schema)


def _random_items(rng: random.Random, schema: RelationSchema):
    attrs = list(schema.attributes)
    rng.shuffle(attrs)
    picked = attrs[: rng.randint(1, len(attrs))]
    items = []
    names: set[str] = set()
    for position, attr in enumerate(picked):
        roll = rng.random()
        if roll < 0.70:
            item = ProjectItem(AttrRef(attr.name), attr.name)
        elif roll < 0.85:
            item = ProjectItem(HashCall(AttrRef(attr.name)), f"h{position}")
        elif roll < 0.92 and attr.data_type is Kind.TEXT:
            item = ProjectItem(ConcatCall(AttrRef(attr.name), AttrRef(attr.name)), f"cc{position}")
        else:
            item = ProjectItem(RedactCall(), f"red{position}")
        if item.name in names:
            continue
        names.add(item.name)
        items.append(item)
    if not items:
        items.append(ProjectItem(AttrRef(picked[0].name), picked[0].name))
    return items


def random_block(
    rng: random.Random,
    env: dict[QualifiedName, RelationSchema],
    namespaces: tuple[str, ...] | None = None,
    max_joins: int = 2,
):
    """A grammar-shaped Project(Select?(JoinTree)) over env relations."""
    from mmw.query.infer import infer_schema

    candidates = [
        qname for qname in env if namespaces is None or qname.namespace in namespaces
    ]
    from mmw.errors import TypeCheckError

    base = rng.choice(candidates)
    node = Scan(base)
    used = [base]
    for _ in range(rng.randint(0, max_joins)):
        remaining = [qname for qname in candidates if qname not in used]
        if not remaining:
            break
        nxt = rng.choice(remaining)
        current = infer_schema(node, env)
        key_left = [a.name for a in current.attributes if a.data_type is Kind.INTEGER]
        key_right = [a.name for a in env[nxt].attributes if a.data_type is Kind.INTEGER]
        if not key_left or not key_right:
            continue
        candidate = Join(node, Scan(nxt), [(rng.choice(key_left), rng.choice(key_right))])
        try:
            infer_schema(candidate, env)  # reject attribute collisions
        except TypeCheckError:
            continue
        node = candidate
        used.append(nxt)
    schema = infer_schema(node, env)
    if rng.random() < 0.6:
        node = Select(node, random_predicate(rng, schema))
    items = None if rng.random() < 0.25 else _random_items(rng, schema)
    return Project(node, items)


def random_query(
    rng: random.Random,
    env: dict[QualifiedName, RelationSchema],
    namespaces: tuple[str, ...] | None = None,
    allow_union: bool = True,
    max_joins: int = 2,
):
    from mmw.query.infer import infer_schema

    block = random_block(rng, env, namespaces, max_joins)
    if allow_union and rng.random() < 0.2:
        # A union branch with the same scans and items but its own predicate
        # keeps the two schemas identical.
        inner = block.child
        predicate_free = inner.child if isinstance(inner, Select) else inner
        schema = infer_schema(predicate_free, env)
        branch = predicate_free
        if rng.random() < 0.7:
            branch = Select(branch, random_predicate(rng, schema))
        return Union(block, Project(branch, block.items))
    return block
