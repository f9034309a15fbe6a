"""Source adapters: in-memory tables, delimited-file directories, json-lines
documents.

Three shapes of heterogeneity (operational in-memory data, structured
tabular files, semi-structured documents) behind one snapshot interface.
Adapters read one consistent snapshot per call and report a fingerprint the
wrapper turns into its change epoch. Database-backed adapters can slot in
behind the same interface later.

A file adapter keeps nothing between calls: every call reads the files'
current text, and lists them by name. `relations()` builds no value: it
reads each delimited file's header and splits none of its data lines (a
text with a quote or a carriage return excepted), and infers each json-lines
schema in one value-free pass (`formats.jsonl_schema`). A load may be handed
the selection that sits on its relation. Both file adapters decode a text
in one columnar form by one function (`formats._decoded_rows`): the cells
the selection reads and the other cells of the rows they keep, validating
every other cell. A text that form refuses goes to its format's reference
parser, so a malformed file fails with the same message whatever the
selection. Reuse of unchanged data belongs to the mediator, which keeps each
fetch under its downstream's epoch token.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar

from mmw.errors import ConfigError, UnavailableError, UnknownRelationError
from mmw.formats import iter_csv_rows, jsonl_schema, parse_jsonl
from mmw.query.ast import Predicate
from mmw.relational import RelationSchema, Row, Table, conform, is_identifier, relation_violations

T = TypeVar("T")

# A file whose change time lies within this window of now may still be
# rewritten within the same timestamp tick, unseen by its stat; 2 s covers
# the coarsest timestamps in use (FAT's).
RACY_WINDOW_NS = 2_000_000_000


class SourceAdapter(ABC):
    """Snapshot access to one data source."""

    kind = "source"

    @abstractmethod
    def relations(self) -> list[RelationSchema]:
        """Schemas of every relation the source currently offers."""

    @abstractmethod
    def load(self, relation: str, where: Optional[Predicate] = None) -> Table:
        """One consistent snapshot of the rows of a relation, in source order;
        the one place that raises UnknownRelationError for a relation the
        source lacks. It may omit rows for which `where` is not true, and
        only those; it never omits a row without a `where`."""

    @abstractmethod
    def fingerprint(self) -> object:
        """Changes whenever the observable source content may have changed."""

    def location(self) -> str:
        return self.kind


class MemoryAdapter(SourceAdapter):
    """Declared schemas plus mutable in-memory rows (single-writer)."""

    kind = "memory"

    def __init__(self, schemas: Iterable[RelationSchema], rows: dict[str, list[Row]] | None = None):
        listed = list(schemas)
        self._schemas = {schema.name: schema for schema in listed}
        if len(self._schemas) != len(listed):
            raise ConfigError("duplicate relation names in memory adapter")
        for schema in listed:
            violations = relation_violations(schema)
            if violations:
                raise ConfigError(f"memory relation {schema.name!r}: {violations[0]}")
        self._rows: dict[str, list[Row]] = {name: [] for name in self._schemas}
        self._generation = 0
        self._lock = threading.Lock()
        for name, initial in (rows or {}).items():
            self.replace_rows(name, initial)

    def _schema(self, relation: str) -> RelationSchema:
        schema = self._schemas.get(relation)
        if schema is None:
            raise UnknownRelationError(f"memory adapter has no relation {relation!r}")
        return schema

    def _conforming(self, relation: str, rows: Iterable[Row]) -> list[Row]:
        schema = self._schema(relation)
        checked = []
        for row in rows:
            row = tuple(row)
            ok, violation = conform(row, schema)
            if not ok:
                raise ConfigError(f"row does not conform to {relation!r}: {violation}")
            checked.append(row)
        return checked

    def replace_rows(self, relation: str, rows: Iterable[Row]) -> None:
        checked = self._conforming(relation, rows)
        with self._lock:
            self._rows[relation] = checked
            self._generation += 1

    def insert(self, relation: str, row: Row) -> None:
        (checked,) = self._conforming(relation, [row])
        with self._lock:
            self._rows[relation].append(checked)
            self._generation += 1

    def relations(self) -> list[RelationSchema]:
        return [self._schemas[name] for name in sorted(self._schemas)]

    def load(self, relation: str, where: Optional[Predicate] = None) -> Table:
        schema = self._schema(relation)
        with self._lock:
            rows = list(self._rows[relation])
        return Table(schema, rows)

    def fingerprint(self) -> object:
        with self._lock:
            return self._generation


class _FileDirAdapter(SourceAdapter):
    """One relation per file with the adapter's suffix; a subclass only
    decodes the text of one file."""

    suffix = ""

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.is_dir():
            raise ConfigError(f"source directory {self.path} is not readable")

    @abstractmethod
    def _schema(self, name: str, text: str) -> RelationSchema:
        """The schema of one file; raises ValueError on malformed text."""

    @abstractmethod
    def _table(self, name: str, text: str, where: Optional[Predicate]) -> Table:
        """The rows of one file, omitting at most rows for which `where` is
        not true; raises ValueError on malformed text."""

    def location(self) -> str:
        return str(self.path)

    def _files(self) -> list[str]:
        """The sorted names whose `Path.suffix` is the adapter's suffix: a
        name ending with it after at least one other character, so `.csv`
        does not count and `a..csv` counts and is refused. Directories count
        too; reading one fails."""
        suffix = self.suffix
        try:
            names = sorted(
                name for name in os.listdir(self.path)
                if name.endswith(suffix) and len(name) > len(suffix)
            )
        except OSError as exc:
            raise UnavailableError(f"source unavailable: {exc}") from None
        for name in names:
            if not is_identifier(name[: -len(suffix)]):
                raise ConfigError(f"file name {name!r} is not a valid relation identifier")
        return names

    def _file_for(self, relation: str) -> str:
        file = relation + self.suffix
        if file in self._files():
            return file
        raise UnknownRelationError(f"source has no relation {relation!r}")

    def _read(self, file: str) -> str:
        # Text mode translates newlines, so a lone \r reads as \n.
        try:
            with open(os.path.join(self.path, file), encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise UnavailableError(f"source unavailable: {exc}") from None

    def _decoded(self, file: str, decode: Callable[[str, str], T]) -> T:
        """`decode(relation, text)` of one file's text; a file that is not
        UTF-8, or that decode refuses, is a ConfigError naming the file."""
        try:
            return decode(file[: -len(self.suffix)], self._read(file))
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ConfigError(f"{file}: {exc}") from None

    def relations(self) -> list[RelationSchema]:
        return [self._decoded(file, self._schema) for file in self._files()]

    def load(self, relation: str, where: Optional[Predicate] = None) -> Table:
        return self._decoded(
            self._file_for(relation), lambda name, text: self._table(name, text, where)
        )

    def fingerprint(self) -> object:
        # The inode number catches a rewrite through a temporary file and
        # os.replace that keeps the size and the modification time. The
        # change time catches a rewrite in place that puts the old
        # modification time back: os.utime can set mtime but not ctime.
        # A rewrite in place that keeps the size within one ctime tick of
        # the change before it keeps the whole stat, so a file changed
        # within RACY_WINDOW_NS of now also contributes its exact bytes.
        # When the file leaves the window its entry drops the bytes and the
        # fingerprint moves once more: one extra cache miss, never a stale
        # answer.
        try:
            now = time.time_ns()
            entries = []
            for file in self._files():
                path = os.path.join(self.path, file)
                stat = os.stat(path)
                entry = (file, stat.st_size, stat.st_mtime_ns, stat.st_ino, stat.st_ctime_ns)
                if now - stat.st_ctime_ns < RACY_WINDOW_NS:
                    with open(path, "rb") as handle:
                        entry += (handle.read(),)
                entries.append(entry)
            # A list, not a tuple: CPython 3.11 puts each freed tuple of
            # exactly 20 items on a free list it never takes from, so a
            # source of 20 files left one there per probe until a full
            # collection.
            return entries
        except OSError as exc:
            raise UnavailableError(f"source unavailable: {exc}") from None


class DelimitedDirAdapter(_FileDirAdapter):
    """One relation per .csv file; header row declares names and types."""

    kind = "delimited_dir"
    suffix = ".csv"

    def _schema(self, name: str, text: str) -> RelationSchema:
        return iter_csv_rows(name, text)[0]

    def _table(self, name: str, text: str, where: Optional[Predicate]) -> Table:
        return Table(*iter_csv_rows(name, text, where))


class DocLinesAdapter(_FileDirAdapter):
    """One relation per .jsonl file; schema inferred from the records."""

    kind = "doc_lines"
    suffix = ".jsonl"

    def _schema(self, name: str, text: str) -> RelationSchema:
        return jsonl_schema(text, name)

    def _table(self, name: str, text: str, where: Optional[Predicate]) -> Table:
        return parse_jsonl(text, name, where)
