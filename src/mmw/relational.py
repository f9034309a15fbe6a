"""Shared relational metamodel: values, attributes, schemas, tuples, tables.

Six value kinds, no floats: every value has an exact, platform-independent
canonical text rendering, which keeps golden tests bit-stable and feeds the
hashing and file formats. All types are immutable after construction.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation, Overflow
from enum import Enum
from typing import Callable, Iterable, Optional, Union

IDENTIFIER_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
TIMESTAMP_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z\Z")
_INTEGER_TEXT = re.compile(r"-?[0-9]+\Z")
_DECIMAL_TEXT = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Attribute tag marking personally identifying columns; transformation
# policies key off it.
IDENTIFYING_TAG = "identifying"


def is_identifier(name: object) -> bool:
    return isinstance(name, str) and bool(IDENTIFIER_RE.match(name))


class Kind(Enum):
    """The kind of a value or attribute."""

    NULL = "null"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    DECIMAL = "decimal"
    TEXT = "text"
    TIMESTAMP = "timestamp"

    def __str__(self) -> str:
        return self.value


_KIND_BY_NAME = {k.value: k for k in Kind}


def kind_from_name(name: str) -> Kind:
    try:
        return _KIND_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown type name {name!r}") from None


def _canonical_decimal(raw: Union[str, int, Decimal]) -> Decimal:
    try:
        dec = Decimal(raw)
    except InvalidOperation:
        raise ValueError(f"not a decimal: {raw!r}") from None
    if not dec.is_finite():
        raise ValueError(f"decimal must be finite: {raw!r}")
    if dec == 0:
        return Decimal(0)  # collapses -0
    try:
        return dec.normalize()
    except Overflow:
        # A million-digit text rounds past the context's largest exponent.
        raise ValueError("decimal out of range") from None


def _decimal_text(dec: Decimal) -> str:
    # 'f' expands the exponent a normalize() may introduce (1E+2 -> 100).
    return format(dec, "f")


@dataclass(frozen=True, slots=True)
class Value:
    """A typed scalar. Construct through the kind-named factories."""

    kind: Kind
    payload: object = None

    @staticmethod
    def null() -> "Value":
        return NULL

    @staticmethod
    def boolean(flag: bool) -> "Value":
        if not isinstance(flag, bool):
            raise ValueError(f"not a boolean: {flag!r}")
        return Value(Kind.BOOLEAN, flag)

    @staticmethod
    def integer(number: int) -> "Value":
        if isinstance(number, bool) or not isinstance(number, int):
            raise ValueError(f"not an integer: {number!r}")
        if not INT64_MIN <= number <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {number}")
        return Value(Kind.INTEGER, number)

    @staticmethod
    def decimal(raw: Union[str, int, Decimal]) -> "Value":
        return Value(Kind.DECIMAL, _canonical_decimal(raw))

    @staticmethod
    def text(content: str) -> "Value":
        if not isinstance(content, str):
            raise ValueError(f"not text: {content!r}")
        return Value(Kind.TEXT, content)

    @staticmethod
    def timestamp(moment: Union[str, datetime]) -> "Value":
        if isinstance(moment, str):
            moment = _moment_from_text(moment)
        else:
            if moment.tzinfo is None:
                raise ValueError("timestamp must be timezone-aware")
            moment = moment.astimezone(timezone.utc)
            if moment.microsecond:
                raise ValueError("timestamp precision is whole seconds")
        return Value(Kind.TIMESTAMP, moment)

    @property
    def is_null(self) -> bool:
        return self.kind is Kind.NULL

    def __repr__(self) -> str:
        if self.is_null:
            return "Value.null()"
        return f"Value.{self.kind.value}({canonical_text(self)!r})"


NULL = Value(Kind.NULL, None)


def _moment_from_text(text: str) -> datetime:
    match = TIMESTAMP_RE.match(text)
    if not match:
        raise ValueError(f"not a timestamp: {text!r}")
    return datetime(*map(int, match.groups()), 0, timezone.utc)  # microsecond, tzinfo


def _timestamp_text(moment: datetime) -> str:
    # Zero-padded by hand: strftime's %Y leaves years before 1000 unpadded on
    # glibc, and TIMESTAMP_RE reads back four digits only.
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        moment.year, moment.month, moment.day, moment.hour, moment.minute, moment.second
    )


def _null_from_text(text: str) -> Value:
    if text != "":
        raise ValueError(f"null renders empty, got {text!r}")
    return NULL


def _boolean_from_text(text: str) -> Value:
    if text == "true":
        return Value.boolean(True)
    if text == "false":
        return Value.boolean(False)
    raise ValueError(f"not a boolean rendering: {text!r}")


def _integer_from_text(text: str) -> Value:
    if not _INTEGER_TEXT.match(text):
        raise ValueError(f"not an integer rendering: {text!r}")
    return Value.integer(int(text))


def _decimal_from_text(text: str) -> Value:
    if not _DECIMAL_TEXT.match(text):
        raise ValueError(f"not a decimal rendering: {text!r}")
    return Value.decimal(text)


# The canonical text format, one function per kind. `canonical_text` and
# `value_from_text` dispatch through these tables; the cell codec picks a
# column's function once per column. Renderers take the payload.
TEXT_RENDERERS: dict[Kind, Callable[[object], str]] = {
    Kind.NULL: lambda _: "",
    Kind.BOOLEAN: lambda flag: "true" if flag else "false",
    Kind.INTEGER: str,
    Kind.DECIMAL: _decimal_text,
    Kind.TEXT: lambda content: content,
    Kind.TIMESTAMP: _timestamp_text,
}

TEXT_READERS: dict[Kind, Callable[[str], Value]] = {
    Kind.NULL: _null_from_text,
    Kind.BOOLEAN: _boolean_from_text,
    Kind.INTEGER: _integer_from_text,
    Kind.DECIMAL: _decimal_from_text,
    Kind.TEXT: Value.text,
    Kind.TIMESTAMP: Value.timestamp,
}


# Regular-expression source of texts each kind's reader accepts, for every
# kind but text, whose every text is valid, and null, which no header
# declares; a delimited file's row pattern (`codec.csv_row_pattern`) joins
# them. Each may refuse a text the reader accepts, never the reverse: an
# integer of nineteen digits or a decimal of more than a thousand digits on
# either side of the point is left to the reader. The timestamp pattern is
# exact: years from 0001, each month's own days, February 29 of Gregorian
# leap years, and in-range clock fields: `EXACT_TIMESTAMP_RE.fullmatch(text)`
# holds exactly when `Value.timestamp(text)` does not raise.
_MONTH_DAY = (
    r"(?:(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])"
    r"|(?:0[13-9]|1[0-2])-(?:29|30)"
    r"|(?:0[13578]|1[02])-31)"
)
_LEAP_YEAR = r"(?:[0-9]{2}(?:0[48]|[2468][048]|[13579][26])|(?:0[48]|[2468][048]|[13579][26])00)"
PLAIN_PATTERNS: dict[Kind, str] = {
    Kind.BOOLEAN: "true|false",
    Kind.INTEGER: "-?[0-9]{1,18}",
    Kind.DECIMAL: r"-?[0-9]{1,1000}(?:\.[0-9]{1,1000})?",
    Kind.TIMESTAMP: (
        rf"(?:(?!0000)[0-9]{{4}}-{_MONTH_DAY}|{_LEAP_YEAR}-02-29)"
        r"T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]Z"
    ),
}
EXACT_TIMESTAMP_RE = re.compile(PLAIN_PATTERNS[Kind.TIMESTAMP])

_TRUE, _FALSE = Value(Kind.BOOLEAN, True), Value(Kind.BOOLEAN, False)

# Readers of a non-empty text its kind's plain pattern (or, for text, the
# row pattern) or a json-lines record pattern has matched, which skip the
# checks the match made: an integer of at most eighteen digits lies in the
# 64-bit range, and a matched decimal text, a json-lines exponent included,
# is one `Decimal` reads. Timestamp texts keep their full reader.
MATCHED_READERS: dict[Kind, Callable[[str], Value]] = {
    Kind.BOOLEAN: {"true": _TRUE, "false": _FALSE}.__getitem__,
    Kind.INTEGER: lambda text: Value(Kind.INTEGER, int(text)),
    Kind.DECIMAL: lambda text: Value(Kind.DECIMAL, _canonical_decimal(text)),
    Kind.TEXT: lambda text: Value(Kind.TEXT, text),
    Kind.TIMESTAMP: Value.timestamp,
}


# The payloads MATCHED_READERS wraps, read from the same matched texts: a
# file reader tests a selection on these and builds values only for the
# rows it keeps.
MATCHED_PAYLOADS: dict[Kind, Callable[[str], object]] = {
    Kind.BOOLEAN: {"true": True, "false": False}.__getitem__,
    Kind.INTEGER: int,
    Kind.DECIMAL: _canonical_decimal,
    Kind.TEXT: str,
    Kind.TIMESTAMP: _moment_from_text,
}


def canonical_text(value: Value) -> str:
    """Canonical rendering used by hashing, delimited files and the protocol.

    Null renders as the empty string; callers that must distinguish null
    from empty text carry the kind out of band.
    """
    return TEXT_RENDERERS[value.kind](value.payload)


def value_from_text(kind: Kind, text: str) -> Value:
    """Inverse of canonical_text for a known kind."""
    return TEXT_READERS[kind](text)


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = "incomparable"


def compare_values(a: Value, b: Value) -> Ordering:
    """Total order within a kind; null or mismatched kinds are incomparable."""
    if a.kind is Kind.NULL or b.kind is Kind.NULL or a.kind is not b.kind:
        return Ordering.INCOMPARABLE
    left, right = a.payload, b.payload
    if left == right:
        return Ordering.EQUAL
    return Ordering.LESS if left < right else Ordering.GREATER


def sort_key(value: Value):
    """Deterministic within-column sort key; nulls first."""
    if value.is_null:
        return (0, "")
    return (1, value.payload)


@dataclass(frozen=True)
class Attribute:
    name: str
    data_type: Kind
    nullable: bool = False
    tags: frozenset[str] = frozenset()

    def __init__(self, name, data_type, nullable=False, tags: Iterable[str] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "data_type", data_type)
        object.__setattr__(self, "nullable", bool(nullable))
        object.__setattr__(self, "tags", frozenset(tags))

    def with_name(self, name: str) -> "Attribute":
        return Attribute(name, self.data_type, self.nullable, self.tags)

    @property
    def identifying(self) -> bool:
        return IDENTIFYING_TAG in self.tags


@dataclass(frozen=True)
class RelationSchema:
    name: str
    attributes: tuple[Attribute, ...]
    key: Optional[tuple[str, ...]] = None

    def __init__(self, name, attributes: Iterable[Attribute], key=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "key", tuple(key) if key is not None else None)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple([attr.name for attr in self.attributes])

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        for position, attr in enumerate(self.attributes):
            if attr.name == name:
                return position
        raise KeyError(name)

    def rename(self, name: str) -> "RelationSchema":
        return RelationSchema(name, self.attributes, self.key)


@dataclass(frozen=True)
class ProductSchema:
    product: str
    version: int
    relations: tuple[RelationSchema, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def __init__(self, product, version, relations=(), metadata=()):
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "relations", tuple(relations))
        if isinstance(metadata, dict):
            # Keyed by text so that a non-text key sorts, and is then refused
            # by validate_product_schema rather than by the sort.
            metadata = tuple(sorted(metadata.items(), key=lambda item: str(item[0])))
        object.__setattr__(self, "metadata", tuple(metadata))

    @property
    def metadata_map(self) -> dict[str, str]:
        return dict(self.metadata)

    def relation(self, name: str) -> RelationSchema:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise KeyError(name)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple([rel.name for rel in self.relations])


Row = tuple[Value, ...]


@dataclass(frozen=True)
class Table:
    """A schema plus a bag of rows; equality ignores row order."""

    schema: RelationSchema
    rows: tuple[Row, ...]

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()):
        object.__setattr__(self, "schema", schema)
        # Through a list, so the tuple is made at its final size.
        object.__setattr__(self, "rows", tuple([tuple(row) for row in rows]))

    def renamed(self, name: str) -> "Table":
        """The table under the relation name `name`, sharing its rows."""
        table = object.__new__(Table)
        object.__setattr__(table, "schema", self.schema.rename(name))
        object.__setattr__(table, "rows", self.rows)
        return table

    def row_bag(self) -> Counter:
        return Counter(_row_identity(row) for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema == other.schema and self.row_bag() == other.row_bag()

    def __hash__(self):
        raise TypeError("Table is not hashable")

    def sorted_rows(self) -> tuple[Row, ...]:
        return tuple(sorted(self.rows, key=lambda row: tuple(sort_key(v) for v in row)))


def _row_identity(row: Row):
    # (kind, payload) pairs keep integer 1, boolean true and decimal 1 distinct.
    return tuple((v.kind, v.payload) for v in row)


def bag_equal(a: Table, b: Table) -> bool:
    """Row-level bag equality, ignoring schema naming differences."""
    return a.row_bag() == b.row_bag()


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}" if self.path else self.message


def relation_violations(schema: RelationSchema, path: Optional[str] = None) -> list[Violation]:
    found: list[Violation] = []
    if path is not None:
        prefix = path
    else:
        prefix = schema.name if isinstance(schema.name, str) else ""
    if not is_identifier(schema.name):
        found.append(Violation(prefix, f"relation name {schema.name!r} is not a valid identifier"))
    seen: set[str] = set()
    for attr in schema.attributes:
        attr_path = f"{prefix}.{attr.name}" if isinstance(attr.name, str) else prefix
        if not is_identifier(attr.name):
            found.append(Violation(attr_path, f"attribute name {attr.name!r} is not a valid identifier"))
            continue
        if attr.name in seen:
            found.append(Violation(attr_path, f"duplicate attribute name {attr.name!r}"))
        seen.add(attr.name)
        if attr.data_type is Kind.NULL:
            found.append(Violation(attr_path, "attribute type cannot be the null kind"))
    if schema.key is not None:
        for key_name in schema.key:
            key_path = f"{prefix}.{key_name}"
            if key_name not in seen:
                found.append(Violation(key_path, f"key attribute {key_name!r} does not exist"))
            else:
                if schema.attribute(key_name).nullable:
                    found.append(Violation(key_path, f"key attribute {key_name!r} must not be nullable"))
    return found


def validate_product_schema(schema: ProductSchema) -> list[Violation]:
    """Every invariant violation, ordered lexicographically by path."""
    found: list[Violation] = []
    if not is_identifier(schema.product):
        found.append(Violation("", f"product name {schema.product!r} is not a valid identifier"))
    if not (type(schema.version) is int and schema.version >= 1):
        found.append(Violation("", f"version must be a positive integer, got {schema.version!r}"))
    seen: set[str] = set()
    for rel in schema.relations:
        rel_path = rel.name if isinstance(rel.name, str) else ""
        if rel.name in seen:
            found.append(Violation(rel_path, f"duplicate relation name {rel.name!r}"))
        seen.add(rel.name)
        found.extend(relation_violations(rel, rel_path))
    key_seen: set[str] = set()
    for meta_key, meta_value in schema.metadata:
        if not isinstance(meta_key, str):
            found.append(Violation("", f"metadata key {meta_key!r} must be text"))
        if meta_key in key_seen:
            found.append(Violation("", f"duplicate metadata key {meta_key!r}"))
        key_seen.add(meta_key)
        if not isinstance(meta_value, str):
            found.append(Violation("", f"metadata value for {meta_key!r} must be text"))
    found.sort(key=lambda violation: (violation.path, violation.message))
    return found


def conform(row: Row, schema: RelationSchema) -> tuple[bool, Optional[str]]:
    """True iff arity and per-attribute kind/nullability hold; first violation otherwise."""
    if len(row) != len(schema.attributes):
        return False, f"arity {len(row)} does not match schema arity {len(schema.attributes)}"
    for value, attr in zip(row, schema.attributes):
        if value.is_null:
            if not attr.nullable:
                return False, f"attribute {attr.name!r} is not nullable"
        elif value.kind is not attr.data_type:
            return False, (
                f"attribute {attr.name!r} expects {attr.data_type}, got {value.kind}"
            )
    return True, None
